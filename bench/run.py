"""Benchmark entry point for matchlab.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``.
The seed picks the batch from the workload's pool of items.  Set-up
generates and writes the batch's inputs and warms up, several times; the
timed phase runs the batch one item at a time (a closed loop with one
client); outputs are checked afterwards against reference digests and
invariants.  With ``--trace 1`` the run instead times the first
half of the batch twice, untraced and then with span wrappers installed,
and reports per-layer metrics.

Standard output: one JSON line of run detail (environment, per-item times,
digest counts, failures), then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every item passed every check.  Scratch files live under
``.bench_work/`` and are removed on exit; run detail and spans are kept
under ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
SETUP_SECONDS = 5.0
REFERENCES = BENCH_DIR / "reference_digests.json"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit():
    """HEAD commit read from ``.git`` without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(load_1min):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "load_1min": load_1min,
    }


def _tail(times):
    """Highest percentile with at least ten items beyond it, when there is one."""
    n = len(times)
    if n < 20:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value_s": sorted(times)[n - 11], "items": n}


def _timed(item) -> float:
    gc.collect()
    start = perf_counter()
    item.run()
    item.seconds = perf_counter() - start
    return item.seconds


def main(argv=None) -> int:
    args = _parse(argv)
    load_1min = os.getloadavg()[0]
    src = ROOT / "src"
    if not (src / "matchlab" / "__init__.py").is_file():
        print(f"error: matchlab sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]

    start = perf_counter()
    import tracing
    import workloads

    import_s = perf_counter() - start
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    indices = workloads.batch(workload, args.seed, args.seconds)
    if args.trace:
        indices = indices[: math.ceil(len(indices) / 2)]
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workload, indices, import_s, work, load_1min, tracing)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, indices, import_s, work, load_1min, tracing) -> int:
    # Set-up: generate and write the inputs and warm up, at least
    # SETUP_REPEATS times and for at least SETUP_SECONDS, so that the median
    # spans the host's slow stretches of a few seconds; the last
    # repetition's items are the ones timed.  The one-off import time is
    # kept out of setup_s, the median of the repetitions.
    repeats = []
    while len(repeats) < SETUP_REPEATS or sum(repeats) < SETUP_SECONDS:
        directory = work / f"setup{len(repeats)}"
        directory.mkdir(parents=True)
        start = perf_counter()
        items = workload.prepare(indices, str(directory))
        warmup = workload.warmup(str(directory))
        warmup.run()
        repeats.append(perf_counter() - start)
    setup_s = statistics.median(repeats)

    checked = items + [warmup]
    if args.trace:
        untraced_s = sum(_timed(item) for item in items)
        directory = work / "traced"
        directory.mkdir()
        traced = workload.prepare(indices, str(directory))
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_s = 0.0
            for item in traced:
                tracer.item = item.label
                traced_s += _timed(item)
        checked += traced
    else:
        for item in items:
            _timed(item)

    failures, failed, digests = _check(workload, checked)
    attempted = len(checked)
    times = [item.seconds for item in items]

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, traced_s, untraced_s)
        tracer.dump(results / f"spans-{workload.name}-seed{args.seed}.jsonl")
        units = _per_layer_units()
        shown = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        shown = {
            "items_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "item_p50_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
            "pass_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": _environment(load_1min),
        "items": [item.label for item in items],
        "item_s": times,
        "batch_max_s": max(times),
        "tail": _tail(times),
        "setup": {"import_s": import_s, "repeats_s": repeats},
        "digests_checked": digests,
        "failures": failures,
    }
    if args.trace:
        detail["untraced_s"], detail["traced_s"] = untraced_s, traced_s
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({**detail, "metrics": shown}, indent=1) + "\n")
    print(json.dumps(detail))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0 if correct else 1


def _per_layer_units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _check(workload, checked):
    """Exit codes, invariants and digests of every checked item.

    Returns ``(failures, failed_items, digests_checked)``; a failure is
    ``(label, reason)``.  Every item but the warm-up is compared with its
    reference digest; an item without one fails.
    """
    with open(REFERENCES, encoding="utf-8") as fh:
        expected = json.load(fh).get(workload.name, {})
    failures = []
    failed = 0
    digests = 0
    for item in checked:
        errors = list(item.errors)
        if not errors:
            try:
                errors += workload.check(item)
            except Exception as exc:  # noqa: BLE001 - any error fails the item
                errors.append(f"check raised {exc!r}")
        if not errors and item.label != "warmup":
            digest = item.digest()
            reference = expected.get(item.label)
            if reference is None:
                errors.append("no reference digest")
            elif digest != reference:
                errors.append(f"output digest {digest[:16]} != reference {reference[:16]}")
            else:
                digests += 1
        failures += [(item.label, e) for e in errors]
        failed += bool(errors)
    return failures, failed, digests


if __name__ == "__main__":
    sys.exit(main())
