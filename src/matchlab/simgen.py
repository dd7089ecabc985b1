"""Random market generator and Monte-Carlo mechanism comparison.

Reproducibility contract: every replication owns an independent stream of a
Philox counter-based generator keyed by ``(seed, replication_index)``, and
normal variates come from the inverse CDF applied to ``(k + 1/2) / 2**53``
uniforms, so identical configurations give bit-identical statistics for a
given scipy, regardless of how replications are scheduled.  The SJBC+
statistics read scipy's tie-break among equally good trade plans (see
``sjbc_plus``), so another scipy release may change them.

Within a replication the draw order is fixed: school quality (correlated
model only), preference noise, one priority permutation per school, then the
consent sample (`Generator.choice` without replacement).

A replication's record is its metric table, ``{mechanism: {metric:
value}}``; ``AggregateStats.records`` holds the tables in replication order,
so a table's position is its replication index.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import index

import numpy as np
from scipy.special import ndtri

from matchlab import analysis, eada, sjbc_plus
from matchlab.envy import da_context
from matchlab.model import InputError, Problem, _check_ids

MECHANISMS = ("da", "eada_full", "eada_half", "sjbc_plus")
METRICS = ("avg_rank", "beneficiaries", "pe_rate", "justifiable_rate")


@dataclass(frozen=True)
class GenConfig:
    n: int
    model: str
    replications: int
    seed: int
    rho: float | None = None
    consent_fraction: float = 0.5

    def __post_init__(self):
        for name in ("n", "replications", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise InputError(f"{name} must be an integer")
            object.__setattr__(self, name, index(value))
        for name in ("rho", "consent_fraction"):
            value = getattr(self, name)
            if name == "rho" and value is None:
                continue  # rho's presence is checked with the model below
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise InputError(f"{name} must be a number")
        if self.model not in ("iid", "correlated"):
            raise InputError(f"unknown preference model {self.model!r}")
        if (self.rho is None) == (self.model == "correlated"):
            raise InputError("rho is required exactly when model='correlated'")
        if self.rho is not None and not 0.0 <= self.rho <= 1.0:
            raise InputError("rho must lie in [0, 1]")
        if not 0.0 <= self.consent_fraction <= 1.0:
            raise InputError("consent fraction must lie in [0, 1]")
        if self.n < 1 or self.replications < 1:
            raise InputError("n and replications must be positive")

    @property
    def consent_size(self) -> int:
        return int(self.n * self.consent_fraction)


@dataclass(frozen=True)
class AggregateStats:
    # one metric table (mechanism -> metric -> value) per replication, in index order
    records: tuple[dict[str, dict[str, float]], ...]
    rows: tuple[tuple[str, str, float, float], ...]  # mechanism, metric, mean, stderr


def _stream(seed: int, replication: int) -> np.random.Generator:
    (replication,) = _check_ids("replication", (replication,), range(2**64))
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, replication], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _standard_normal(rng: np.random.Generator, shape):
    u = (rng.integers(0, 1 << 53, size=shape, dtype=np.int64) + 0.5) * 2.0**-53
    return ndtri(u)


def _permutation_rows(rng: np.random.Generator, n: int) -> list[list[int]]:
    """n permutations of ``range(n)``, drawn in one call: the same rows, and
    the same stream after them, as n ``rng.permutation(n)`` calls."""
    return rng.permuted(np.tile(np.arange(n), (n, 1)), axis=1).tolist()


def _draw_problem(rng: np.random.Generator, config: GenConfig) -> Problem:
    n = config.n
    if config.model == "correlated":
        quality = _standard_normal(rng, n)
        noise = _standard_normal(rng, (n, n))
        utility = config.rho * quality + math.sqrt(1.0 - config.rho**2) * noise
        prefs = np.argsort(-utility, axis=1, kind="stable").tolist()
    else:
        prefs = _permutation_rows(rng, n)
    priorities = _permutation_rows(rng, n)
    return Problem(
        students=tuple(f"i{k + 1}" for k in range(n)),
        schools=tuple(f"s{k + 1}" for k in range(n)),
        quotas=(1,) * n,
        prefs=tuple(map(tuple, prefs)),
        priorities=tuple(map(tuple, priorities)),
    )


def gen_instance(config: GenConfig, replication_index: int) -> Problem:
    """The instance of one replication; a pure function of (seed, index)."""
    return _draw_problem(_stream(config.seed, replication_index), config)


def draw_instance_and_consent(config: GenConfig, replication_index: int):
    rng = _stream(config.seed, replication_index)
    problem = _draw_problem(rng, config)
    consent = frozenset(
        int(i) for i in rng.choice(config.n, size=config.consent_size, replace=False)
    )
    return problem, consent


def evaluate_instance(problem: Problem, consent) -> dict[str, dict[str, float]]:
    """The four metrics of each mechanism's outcome on one instance, as the
    table ``{mechanism: {metric: value}}``.

    DA is the student-optimal stable matching; EADA runs with every student
    consenting (``eada_full``) and with ``consent`` (``eada_half``).  Per
    outcome:

    - ``avg_rank``: the mean over students of the rank of their seat (1 is
      a first choice; see ``model.rank_of`` for null and unlisted seats).
    - ``beneficiaries``: how many students hold a seat they rank strictly
      better than their DA seat.
    - ``pe_rate``: 100 if the outcome is Pareto efficient, else 0.
    - ``justifiable_rate``: 100 if the victim of every blocking triple is
      a beneficiary or a student no improvement over DA can help (not
      improvable), else 0.

    All four come from one ``analysis`` verdict pass per outcome, the one
    ``analysis.is_justifiable`` runs, which also gives the seat ranks.  As
    there, an infeasible outcome raises ``InputError``, and so does one that
    leaves some student worse off than DA, or a wasteful one.
    """
    outcomes = {
        "da": da_context(problem)[0],
        "eada_full": eada.run_eada(problem, range(problem.n_students))[0],
        "eada_half": eada.run_eada(problem, consent)[0],
        "sjbc_plus": sjbc_plus.run_sjbc_plus(problem),
    }
    values = {}
    for name, matching in outcomes.items():
        ranks, gainers, _, justifiable, efficient = analysis._judge(problem, matching)
        values[name] = {
            "avg_rank": sum(ranks) / problem.n_students,
            "beneficiaries": float(len(gainers)),
            "pe_rate": 100.0 * efficient,
            "justifiable_rate": 100.0 * justifiable,
        }
    return values


def _one_replication(args) -> dict[str, dict[str, float]]:
    return evaluate_instance(*draw_instance_and_consent(*args))


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the
    platform cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_experiment(config: GenConfig, jobs: int = 1) -> AggregateStats:
    """Evaluate all four mechanisms over the configured replications.

    The records and the aggregation follow replication order for any job
    count, so the statistics are identical however the work is scheduled.
    """
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    tasks = [(config, rep) for rep in range(config.replications)]
    if jobs > 1:
        # The pool forks all its workers at once, so start no more than
        # there are tasks or usable CPUs.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks), _usable_cpus())) as pool:
            results = list(pool.map(_one_replication, tasks, chunksize=8))
    else:
        results = [_one_replication(t) for t in tasks]

    rows = []
    for mech in MECHANISMS:
        for metric in METRICS:
            series = np.array([r[mech][metric] for r in results])
            mean = float(series.mean())
            if len(series) > 1:
                stderr = float(series.std(ddof=1) / math.sqrt(len(series)))
            else:
                stderr = 0.0
            rows.append((mech, metric, mean, stderr))
    return AggregateStats(tuple(results), tuple(rows))

