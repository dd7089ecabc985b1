"""Command-line entry point.

Exit codes: 0 on success, 1 when a requested property check fails
(``analyze`` on an unjustifiable matching, ``oracle`` on a claim mismatch),
2 on input errors of any kind.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import logging
import os
import sys

from matchlab import analysis, eada, jbc, oracle, simgen, sjbc_plus
from matchlab.da import run_da
from matchlab.envy import da_context
from matchlab.model import NULL_SCHOOL, InputError, dump_matching, load_matching, load_problem


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchlab",
        description="School-choice mechanisms beyond deferred acceptance: "
        "solvers, verifiers, a brute-force oracle, and simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a mechanism and emit the matching")
    solve.add_argument("instance")
    solve.add_argument(
        "--mechanism", required=True, choices=["da", "jbc", "sjbc+", "eada"]
    )
    solve.add_argument(
        "--consent",
        help="eada only: comma-separated student names, or 'all' / 'none'",
    )
    solve.add_argument("--graph", action="store_true", help="jbc only: print the school graph")
    solve.add_argument(
        "--log-phases", action="store_true", help="sjbc+ only: print per-phase progress"
    )
    solve.add_argument("--out", help="write the matching file here instead of stdout")

    analyze = sub.add_parser("analyze", help="verdict for a matching against an instance")
    analyze.add_argument("instance")
    analyze.add_argument("matching")

    trace = sub.add_parser("trace", help="print the deferred-acceptance round table")
    trace.add_argument("instance")

    envy_cmd = sub.add_parser("envy", help="print the labelled envy digraph")
    envy_cmd.add_argument("instance")

    oracle_cmd = sub.add_parser("oracle", help="brute-force report for a small instance")
    oracle_cmd.add_argument("instance")
    oracle_cmd.add_argument("--budget", type=int, default=oracle.BUDGET)

    orbit = sub.add_parser("eada-orbit", help="EADA outcome for every consent set")
    orbit.add_argument("instance")

    simulate = sub.add_parser("simulate", help="Monte-Carlo mechanism comparison")
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--model", choices=["iid", "correlated"], required=True)
    simulate.add_argument("--rho", type=float, help="required for --model correlated")
    simulate.add_argument("--reps", type=int, required=True)
    simulate.add_argument("--consent-frac", type=float, default=0.5)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--jobs", type=int, default=1)
    simulate.add_argument("--out", help="aggregate CSV path (default: stdout)")
    simulate.add_argument("--per-instance", help="also dump per-replication metrics here")
    return parser


def _emit_matching(problem, matching, out):
    text = dump_matching(problem, matching)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_consent(problem, spec):
    if spec is None or spec == "none":
        return frozenset()
    if spec == "all":
        return frozenset(range(problem.n_students))
    return frozenset(problem.student_id(name.strip()) for name in spec.split(","))


@contextlib.contextmanager
def _shown(module):
    """Write ``module``'s INFO log records to stderr for the block, then give
    its logger back the level and handlers it had."""
    logger = logging.getLogger(module.__name__)
    handler, level = logging.StreamHandler(sys.stderr), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.setLevel(level)
        logger.removeHandler(handler)


def _cmd_solve(args) -> int:
    problem = load_problem(args.instance)
    for flag, mechanism in (("--consent", "eada"), ("--graph", "jbc"), ("--log-phases", "sjbc+")):
        given = getattr(args, flag[2:].replace("-", "_")) not in (None, False)
        if given and args.mechanism != mechanism:
            raise InputError(f"{flag} only applies to --mechanism {mechanism}")
    if args.mechanism == "da":
        matching, _ = run_da(problem)
    elif args.mechanism == "jbc":
        with _shown(jbc) if args.graph else contextlib.nullcontext():
            matching, _ = jbc.run_jbc(problem)
    elif args.mechanism == "sjbc+":
        with _shown(sjbc_plus) if args.log_phases else contextlib.nullcontext():
            matching = sjbc_plus.run_sjbc_plus(problem)
    else:
        matching, _ = eada.run_eada(problem, _parse_consent(problem, args.consent))
    _emit_matching(problem, matching, args.out)
    return 0


def _cmd_analyze(args) -> int:
    problem = load_problem(args.instance)
    matching = load_matching(problem, args.matching)
    verdict = analysis.is_justifiable(problem, matching)
    print(f"beneficiaries: {sorted(problem.students[i] for i in verdict.beneficiaries)}")
    if verdict.violations:
        print("violations:")
        for v, tag in verdict.violations:
            print(
                f"  victim {problem.students[v.victim]} at {problem.schools[v.school]}"
                f" (occupant {problem.students[v.occupant]}): {tag}"
            )
    else:
        print("violations: none")
    print(f"justifiable: {verdict.justifiable}")
    print(f"strongly justifiable: {verdict.strongly_justifiable}")
    print(f"pareto efficient: {verdict.pareto_efficient}")
    return 0 if verdict.justifiable else 1


def _cmd_trace(args) -> int:
    problem = load_problem(args.instance)
    _, trace = run_da(problem)
    header = ["round"] + list(problem.schools)
    widths = [max(5, len(h)) for h in header]
    rows = []
    held = {}  # tentative rosters, carried across rounds in which a school is quiet
    for r, rnd in enumerate(trace.rounds):
        held.update(rnd.held)
        row = [f"r{r + 1}"]
        for s in range(problem.n_schools):
            cell = [(i, False) for i in held.get(s, ())]
            cell += [(i, True) for i in rnd.rejected.get(s, ())]
            cell.sort()
            row.append(
                ",".join(
                    problem.students[i] + ("*" if rejected else "")
                    for i, rejected in cell
                )
            )
        rows.append(row)
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    print("(* = rejected that round)")
    return 0


def _cmd_envy(args) -> int:
    problem = load_problem(args.instance)
    digraph = da_context(problem)
    for i in range(problem.n_students):
        for j in digraph.edges[i]:
            label = ",".join(sorted(problem.students[h] for h in digraph.labels[(i, j)]))
            print(f"{problem.students[i]} -> {problem.students[j]} [{label}]")
    improvable = sorted(problem.students[i] for i in digraph.improvable)
    print(f"improvable: {improvable}")
    return 0


def _cmd_oracle(args) -> int:
    problem = load_problem(args.instance)
    report = oracle.oracle_report(problem, budget=args.budget)  # before any line: a refusal prints none
    if problem.completed_priorities:
        names = sorted(problem.schools[s] for s in problem.completed_priorities)
        print(f"note: priority lists completed by appending unlisted students: {names}")
    print(f"matchings dominating DA: {len(report.dominating)}")
    print(f"unimprovable students: {sorted(problem.students[i] for i in report.unimprovable)}")
    print(f"justifiable family size: {len(report.justifiable_family)}")
    print(f"strongly justifiable family size: {len(report.strongly_justifiable_family)}")
    print(f"efficient matchings: {len(report.pareto_family)}")
    print(f"justifiable and efficient: {len(report.justifiable_and_efficient)}")
    for name, ok in report.claims.items():
        print(f"claim {name}: {'ok' if ok else 'FAILED'}")
    return 0 if report.all_claims_hold else 1


def _cmd_orbit(args) -> int:
    problem = load_problem(args.instance)
    orbit = eada.eada_orbit(problem)
    for consent in sorted(orbit, key=lambda c: (len(c), sorted(c))):
        names = ",".join(problem.students[i] for i in sorted(consent)) or "-"
        moves = [
            f"{problem.students[i]}->{problem.schools[s] if s != NULL_SCHOOL else '-'}"
            for i, s in enumerate(orbit[consent])
        ]
        print(f"W={{{names}}}: " + " ".join(moves))
    return 0


def _cmd_simulate(args) -> int:
    config = simgen.GenConfig(
        n=args.n,
        model=args.model,
        rho=args.rho,
        replications=args.reps,
        seed=args.seed,
        consent_fraction=args.consent_frac,
    )
    stats = simgen.run_experiment(config, jobs=args.jobs)
    with contextlib.ExitStack() as stack:
        # every output opens once, before any row, so one that cannot fails the command first
        out, per_instance = (
            stack.enter_context(open(path, "w", newline="", encoding="utf-8")) if path else None
            for path in (args.out, args.per_instance)
        )
        if out and per_instance and os.path.sameopenfile(out.fileno(), per_instance.fileno()):
            raise InputError("--out and --per-instance name the same file")
        writer = csv.writer(out or sys.stdout)
        writer.writerow(["mechanism", "metric", "mean", "stderr"])
        for mech, metric, mean, stderr in stats.rows:
            writer.writerow([mech, metric, f"{mean:.6f}", f"{stderr:.6f}"])
        if per_instance:
            writer = csv.writer(per_instance)
            writer.writerow(["replication", "mechanism", "metric", "value"])
            for rep, table in enumerate(stats.records):
                for mech in simgen.MECHANISMS:
                    for metric in simgen.METRICS:
                        writer.writerow([rep, mech, metric, f"{table[mech][metric]:.6f}"])
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "trace": _cmd_trace,
    "envy": _cmd_envy,
    "oracle": _cmd_oracle,
    "eada-orbit": _cmd_orbit,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
