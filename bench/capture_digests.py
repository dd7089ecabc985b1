"""Capture the reference output digests that ``run.py`` checks every run against.

    python3 bench/capture_digests.py [--workload NAME]

Runs every item of each workload's pool untimed, checks its invariants, and
records its digest in ``reference_digests.json`` under the item's label.
Capture from a commit whose outputs are known to be right, and again only
when a change is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCES = BENCH_DIR / "reference_digests.json"
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    work = ROOT / ".bench_work" / f"capture-{os.getpid()}"
    try:
        for name in args.workload or sorted(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            work.mkdir(parents=True, exist_ok=True)
            digests = {}
            for item in workload.prepare(range(workload.pool), str(work)):
                item.run()
                errors = item.errors or workload.check(item)
                if errors:
                    raise SystemExit(f"{name} {item.label}: {errors}; not recording references")
                digests[item.label] = item.digest()
            refs[name] = digests
            REFERENCES.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
            print(f"{name}: {len(digests)} items", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
