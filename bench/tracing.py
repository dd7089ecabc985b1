"""Span tracing of matchlab's public functions, installed from outside the library.

``Tracer.installed()`` replaces each traced function with a wrapper in every
``matchlab`` module namespace that binds it (``run_da`` is bound in ``da``,
``simgen``, ``cli`` and the package itself), plus ``Problem.__post_init__``
on the class, and restores the originals on exit.  A wrapper records one
span per call: name, start, end, parent span, the benchmark item being run,
and counts read from the return value.  Spans stay in memory until the run
writes them out.

Cheap leaf helpers (``rank_of``, ``priority_rank_of``, ``check_feasible``)
are not wrapped: they run hundreds of thousands of times per item, so a
wrapper would cost more than the work it measures.  ``oracle`` is not traced
because it is a test-only reference, not a performance target.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

def _da_counts(result, args):
    _, trace = result
    return {"rounds": len(trace.rounds), "proposals": trace.proposals}


def _eada_counts(result, args):
    _, run = result
    return {
        "reruns": len(run.iterations),
        "deleted_pairs": sum(len(it.deleted) for it in run.iterations),
    }


def _envy_counts(result, args):
    n = args[0].n_students
    return {"edges": sum(len(v) for v in result.edges.values()), "pairs": n * (n - 1)}


def _jbc_counts(result, args):
    return {"cycles": len(result[1].cycles)}


def _expansion_counts(result, args):
    return {"beneficiaries": len(result[1])}


def _step_counts(result, args):
    # The assignment matrix is square over the improvable students, which
    # are exactly the keys of the step's admissible adjacency.
    return {"k": len(result.admissible)}


# home module -> {function name: count extractor or None}
TRACED = {
    "model": {
        "violations": None,
        "load_problem": None,
        "load_matching": None,
        "dump_matching": None,
    },
    "da": {"run_da": _da_counts, "interrupters": None},
    "envy": {"build_envy": _envy_counts},
    "jbc": {"run_jbc": _jbc_counts},
    "sjbc_plus": {
        "run_sjbc_plus": None,
        "run_expansion": _expansion_counts,
        "expansion_step": _step_counts,
        "run_refinement": None,
    },
    "eada": {"run_eada": _eada_counts},
    "analysis": {"is_justifiable": None, "is_pareto_efficient": None},
    "simgen": {
        "gen_instance": None,
        "draw_instance_and_consent": None,
        "evaluate_instance": None,
        "run_experiment": None,
    },
    "cli": {"main": None},
}
PROBLEM_BUILD = "model.problem_build"

# Span record fields.
NAME, START, END, PARENT, ITEM, COUNTS = range(6)


class Tracer:
    """Collects spans while installed; ``item`` tags the spans of one item."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(result, args)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        from matchlab.model import Problem

        patched = []  # (owner, attribute, original)
        namespaces = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "matchlab" or key.startswith("matchlab.")
        ]
        try:
            for layer, functions in TRACED.items():
                home = importlib.import_module(f"matchlab.{layer}")
                for fname, count in functions.items():
                    original = getattr(home, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original, count)
                    for mod in namespaces:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                patched.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
            original = Problem.__post_init__
            patched.append((Problem, "__post_init__", original))
            Problem.__post_init__ = self._wrap(PROBLEM_BUILD, original, None)
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, item, counts."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span[:COUNTS] + [span[COUNTS] or {}]) + "\n")


def layer_metrics(spans, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name.

    ``traced_s`` and ``untraced_s`` are the wall times of the traced pass and
    of an untraced pass over the same items.
    """
    dur = [span[END] - span[START] for span in spans]
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    self_s = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]

    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def calls(name):
        return float(len(by_name.get(name, ())))

    def total(name, values=dur):
        return sum(values[i] for i in by_name.get(name, ()))

    def count(name, key):
        return float(sum(spans[i][COUNTS][key] for i in by_name.get(name, ())))

    def ratio(num, den):
        return num / den if den else 0.0

    # EADA: own time excluding its DA reruns and interrupter scans, and the
    # DA rounds replayed relative to each call's first DA run.
    eada_self = replayed = first_rounds = 0.0
    for i in by_name.get("eada.run_eada", ()):
        eada_self += dur[i]
        first = True
        for c in children[i]:
            name = spans[c][NAME]
            if name in ("da.run_da", "da.interrupters"):
                eada_self -= dur[c]
            if name == "da.run_da":
                rounds = spans[c][COUNTS]["rounds"]
                replayed += rounds
                if first:
                    first_rounds += rounds
                    first = False

    metrics = {
        "da.run_s": total("da.run_da"),
        "da.calls": calls("da.run_da"),
        "da.rounds": count("da.run_da", "rounds"),
        "da.proposals": count("da.run_da", "proposals"),
        "da.interrupters_s": total("da.interrupters"),
        "eada.run_s": total("eada.run_eada"),
        "eada.calls": calls("eada.run_eada"),
        "eada.reruns": count("eada.run_eada", "reruns"),
        "eada.deleted_pairs": count("eada.run_eada", "deleted_pairs"),
        "eada.self_s": eada_self,
        "eada.replay_ratio": ratio(replayed, first_rounds),
        "model.problem_builds": calls(PROBLEM_BUILD),
        "model.problem_build_s": total(PROBLEM_BUILD),
        "model.violations_s": total("model.violations"),
        "model.violations_calls": calls("model.violations"),
        "model.io_s": sum(
            total(f"model.{f}") for f in ("load_problem", "load_matching", "dump_matching")
        ),
        "envy.build_s": total("envy.build_envy"),
        "envy.calls": calls("envy.build_envy"),
        "envy.edges": count("envy.build_envy", "edges"),
        "envy.edge_ratio": ratio(
            count("envy.build_envy", "edges"), count("envy.build_envy", "pairs")
        ),
        "jbc.run_s": total("jbc.run_jbc"),
        "jbc.cycles": count("jbc.run_jbc", "cycles"),
        "sjbc_plus.expansion_s": total("sjbc_plus.run_expansion"),
        "sjbc_plus.expansion_steps": calls("sjbc_plus.expansion_step"),
        "sjbc_plus.assignment_k": ratio(
            count("sjbc_plus.expansion_step", "k"), calls("sjbc_plus.expansion_step")
        ),
        "sjbc_plus.refinement_s": total("sjbc_plus.run_refinement"),
        "sjbc_plus.beneficiaries": count("sjbc_plus.run_expansion", "beneficiaries"),
        "analysis.pareto_s": total("analysis.is_pareto_efficient"),
        "analysis.pareto_calls": calls("analysis.is_pareto_efficient"),
        "analysis.justify_s": total("analysis.is_justifiable", self_s),
        "simgen.draw_s": total("simgen.gen_instance")
        + total("simgen.draw_instance_and_consent"),
        "simgen.evaluate_self_s": total("simgen.evaluate_instance", self_s),
        "cli.main_self_s": total("cli.main", self_s),
    }
    covered = sum(dur[i] for i, span in enumerate(spans) if span[PARENT] < 0)
    metrics["trace.coverage"] = ratio(covered, traced_s)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = ratio(traced_s - untraced_s, untraced_s)
    return metrics

