"""Steadiness self-check of the benchmark.

    python3 bench/check_steadiness.py [--workload NAME] [--runs 10] [--sets 2]

For each workload, runs ``run.py`` with tracing off ``--runs`` times (seeds
0 onwards), as ``--sets`` back-to-back sets over the same seeds.  For every
end-to-end metric it reports each set's median and spread (quartile
distance over the median, from ``statistics.quantiles(n=4)``), and the
change of each later set's median against the first set's in the metric's
worse direction, next to the bound in ``BENCHMARK.json``.  It then makes
two traced runs on the first seed and requires every count (and every
ratio of counts) to repeat exactly.

Exits 1 when a spread or a median change exceeds its bound, when a count
differs between the traced runs, or when a run fails.  The full report is
written to ``.bench_results/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _is_count(metric):
    unit, name = metric["unit"], metric["name"]
    return unit == "count" or (unit == "ratio" and not name.startswith("trace."))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)

    seeds = range(args.runs)
    report, ok = {}, True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        sets = [[_run(spec, workload, seed, 0) for seed in seeds] for _ in range(args.sets)]
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            values = [[run[name] for run in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [_spread(v) for v in values]
            changes = [sign * (m - medians[0]) / medians[0] for m in medians[1:]]
            passed = all(c <= bound for c in changes) and all(s <= bound for s in spreads)
            ok &= passed
            rows[name] = {"bound": bound, "medians": medians, "spreads": spreads,
                          "worse_by": changes, "values": values, "ok": passed}
            print(f"{workload:13s} {name:13s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.5g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.3f}" for s in spreads)
                  + "  worse_by " + " ".join(f"{c:+.3f}" for c in changes)
                  + ("" if passed else "  FAIL"), flush=True)
        report[workload] = {"seeds": list(seeds), "end_to_end": rows}
        first, second = (_run(spec, workload, seeds[0], 1) for _ in range(2))
        counts = [m["name"] for m in spec["per_layer"] if _is_count(m)]
        differing = [n for n in counts if first[n] != second[n]]
        ok &= not differing
        report[workload]["traced"] = {"first": first, "second": second, "differing": differing}
        print(f"{workload:13s} traced counts: {len(counts) - len(differing)}/{len(counts)} repeat"
              + (f"; differing: {differing}" if differing else "")
              + f"; coverage {first['trace.coverage']:.4f}"
              + f", overhead {first['trace.overhead_ratio']:+.3f}", flush=True)

    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
