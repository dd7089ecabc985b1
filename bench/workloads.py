"""The benchmark's workloads, reached only through ``matchlab.cli.main``.

Each workload has a fixed pool of items, numbered from 0.  An item is one or
more CLI calls whose outputs (files, or captured stdout) are digested with
SHA-256 and checked for invariants through public library functions after
the timed phase.  Every pool item has a reference digest, so a run's batch,
a seeded sample of the pool, is always checked byte for byte.
``nominal_item_s`` is the mean item time on a 2-core Xeon VM; it sizes the
batch from the run's ``--seconds``.  The pools hold about 60 seconds of items
each, the longest run a benchmark spec allows.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field

from matchlab import cli, simgen
from matchlab.da import run_da
from matchlab.model import (
    A_DOMINATES,
    EQUAL,
    load_matching,
    load_problem,
    pareto_compare,
    problem_to_dict,
    violations,
)


@dataclass
class Call:
    """One ``matchlab`` invocation; its output is ``out`` or, if None, stdout."""

    argv: list[str]
    out: str | None = None
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""


@dataclass
class Item:
    label: str
    instance: str | None
    calls: list[Call]
    seconds: float = 0.0
    errors: list[str] = field(default_factory=list)

    def run(self) -> None:
        """Run every call in process; record exit codes and captured output."""
        for call in self.calls:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    call.rc = cli.main(call.argv)
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - counted as a failed item
                self.errors.append(f"{' '.join(call.argv[:3])}: raised {exc!r}")
                return
            finally:
                call.stdout, call.stderr = out.getvalue(), err.getvalue()

    def digest(self) -> str:
        """SHA-256 over the SHA-256 of each call's output, in call order."""
        outer = hashlib.sha256()
        for call in self.calls:
            if call.out is None:
                data = call.stdout.encode()
            else:
                with open(call.out, "rb") as fh:
                    data = fh.read()
            outer.update(hashlib.sha256(data).digest())
        return outer.hexdigest()


class SimCorr50:
    """``simulate --model correlated --rho 0.5 --n 50 --reps 1``; pool item ``j``
    is the replication with simulation seed ``j``."""

    name = "sim-corr50"
    nominal_item_s = 0.25
    pool = 240

    @staticmethod
    def _item(label, workdir, sim_seed, n=50):
        out = os.path.join(workdir, f"{label}.csv")
        argv = [
            "simulate", "--model", "correlated", "--rho", "0.5", "--n", str(n),
            "--reps", "1", "--seed", str(sim_seed), "--jobs", "1", "--out", out,
        ]
        return Item(label, None, [Call(argv, out)])

    def prepare(self, indices, workdir):
        return [self._item(f"item{j}", workdir, j) for j in indices]

    def warmup(self, workdir):
        return self._item("warmup", workdir, 0, n=20)

    def check(self, item):
        if item.calls[0].rc != 0:
            return [f"simulate exit code {item.calls[0].rc}"]
        with open(item.calls[0].out, newline="", encoding="utf-8") as fh:
            rows = {(r["mechanism"], r["metric"]): float(r["mean"]) for r in csv.DictReader(fh)}
        errors = []
        if rows[("eada_full", "pe_rate")] != 100.0:
            errors.append("full-consent EADA not Pareto-efficient")
        if rows[("sjbc_plus", "justifiable_rate")] != 100.0:
            errors.append("SJBC+ not justifiable")
        if rows[("da", "beneficiaries")] != 0.0:
            errors.append("DA has beneficiaries over itself")
        for mech in ("eada_full", "eada_half", "sjbc_plus"):
            if rows[(mech, "avg_rank")] > rows[("da", "avg_rank")]:
                errors.append(f"{mech} average rank worse than DA")
        return errors


class SolveIid500:
    """``solve --mechanism sjbc+`` then ``analyze`` on iid n = 500 instances
    from ``simgen.gen_instance``; pool item ``j`` is replication ``j`` of
    simulation seed 0."""

    name = "solve-iid500"
    nominal_item_s = 2.2
    pool = 28

    @staticmethod
    def _item(label, workdir, n, k):
        config = simgen.GenConfig(n=n, model="iid", replications=k + 1, seed=0)
        data = problem_to_dict(simgen.gen_instance(config, k))
        inst = os.path.join(workdir, f"{label}.json")
        with open(inst, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        plus = os.path.join(workdir, f"{label}.sjbc.json")
        calls = [
            Call(["solve", "--mechanism", "sjbc+", inst, "--out", plus], plus),
            Call(["analyze", inst, plus]),
        ]
        return Item(label, inst, calls)

    def prepare(self, indices, workdir):
        return [self._item(f"item{j}", workdir, 500, j) for j in indices]

    def warmup(self, workdir):
        return self._item("warmup", workdir, 40, 0)

    def check(self, item):
        errors = [
            f"{call.argv[0]} exit code {call.rc}: {call.stderr.strip()}"
            for call in item.calls
            if call.rc != 0
        ]
        if errors:
            return errors
        problem = load_problem(item.instance)
        da_matching, _ = run_da(problem)
        if violations(problem, da_matching):
            errors.append("DA matching has priority violations")
        plus = load_matching(problem, item.calls[0].out)
        if pareto_compare(problem, plus, da_matching) not in (A_DOMINATES, EQUAL):
            errors.append("SJBC+ does not weakly dominate DA")
        return errors


WORKLOADS = {w.name: w for w in (SimCorr50(), SolveIid500())}


def batch(workload, seed: int, seconds: float) -> list[int]:
    """The pool indices a run times, in order: ``seconds`` of work at the
    workload's nominal item time (at least two items, at most the pool),
    sampled without replacement by a generator seeded with ``seed``."""
    n_items = min(workload.pool, max(2, round(seconds / workload.nominal_item_s)))
    return random.Random(seed).sample(range(workload.pool), n_items)
