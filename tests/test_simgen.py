import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest

from matchlab import analysis, eada, simgen, sjbc_plus
from matchlab.envy import da_context
from matchlab.model import NULL_SCHOOL, InputError, rank_of, violations
from matchlab.simgen import (
    GenConfig,
    draw_instance_and_consent,
    evaluate_instance,
    gen_instance,
    run_experiment,
)

from conftest import mixed_markets, stats_value


def test_config_validation():
    with pytest.raises(InputError):
        GenConfig(n=5, model="weird", replications=1, seed=1)
    with pytest.raises(InputError):
        GenConfig(n=5, model="correlated", replications=1, seed=1)  # rho missing
    with pytest.raises(InputError):
        GenConfig(n=5, model="iid", rho=0.5, replications=1, seed=1)  # rho forbidden
    for seed in (1.5, True, "1", None):
        with pytest.raises(InputError, match="^seed must be an integer$"):
            GenConfig(n=5, model="iid", replications=1, seed=seed)
    valid = {"n": 5, "model": "correlated", "rho": 0.5, "replications": 1, "seed": 1}
    for field, value, message in [
        ("n", 2.5, "n must be an integer"),
        ("n", "3", "n must be an integer"),
        ("n", True, "n must be an integer"),
        ("replications", 1.5, "replications must be an integer"),
        ("rho", "0.5", "rho must be a number"),
        ("rho", True, "rho must be a number"),
        ("consent_fraction", None, "consent_fraction must be a number"),
    ]:
        with pytest.raises(InputError, match=f"^{message}$"):
            GenConfig(**{**valid, field: value})
    cfg = GenConfig(n=5, model="correlated", rho=0.3, replications=2, seed=1)
    assert cfg.consent_size == 2
    # a numpy integer seeds the same streams as the plain int
    numpy_seeded = GenConfig(n=5, model="correlated", rho=0.3, replications=2, seed=np.int64(1))
    assert gen_instance(numpy_seeded, 1) == gen_instance(cfg, 1)


def test_gen_instance_deterministic():
    cfg = GenConfig(n=6, model="iid", replications=1, seed=123)
    a, b = gen_instance(cfg, 4), gen_instance(cfg, 4)
    assert a == b
    c = gen_instance(cfg, 5)
    assert c != a
    # complete preference lists and priority permutations
    assert all(len(p) == 6 for p in a.prefs)
    assert all(sorted(p) == list(range(6)) for p in a.priorities)


def test_consent_draw_deterministic():
    cfg = GenConfig(n=10, model="iid", replications=1, seed=9)
    p1, c1 = draw_instance_and_consent(cfg, 0)
    p2, c2 = draw_instance_and_consent(cfg, 0)
    assert p1 == p2 and c1 == c2
    assert len(c1) == 5


# The (n, percent) pairs with n <= 200 whose float product n * (percent / 100)
# falls just short of the integer it stands for, and their consent sizes.
FLOAT_SHORT_CONSENT = {
    (50, 58): 29, (90, 70): 63, (100, 29): 29, (100, 57): 57, (100, 58): 58, (150, 82): 123,
    (170, 70): 119, (180, 35): 63, (180, 70): 126, (200, 29): 58, (200, 57): 114, (200, 58): 116,
}


def test_consent_size_is_the_floor_of_the_printed_fraction():
    for n in range(1, 201):
        for percent in range(101):
            fraction = percent / 100
            size = GenConfig(n=n, model="iid", replications=1, seed=0, consent_fraction=fraction).consent_size
            assert size == n * percent // 100, (n, percent)
            if (n, percent) in FLOAT_SHORT_CONSENT:
                assert size == FLOAT_SHORT_CONSENT[n, percent] == int(n * fraction) + 1
            else:  # 0.5 and every product float gets right keep their size
                assert size == int(n * fraction), (n, percent)
    for fraction, size in ((0, 0), (1, 50), (1e-05, 0), (np.float64(0.58), 29)):
        assert GenConfig(n=50, model="iid", replications=1, seed=0, consent_fraction=fraction).consent_size == size
    cfg = GenConfig(n=50, model="correlated", rho=0.5, replications=1, seed=7, consent_fraction=0.58)
    assert len(draw_instance_and_consent(cfg, 0)[1]) == 29


# SHA-256 of the prefs, priorities and sorted consent of replications 0 and 1
# (seed 2026, rho 0.5 when correlated), captured before the draws were vectorised.
DRAW_DIGESTS = {
    ("iid", 7): "64f81efd931fd0a44eecc82ad5f80a516806710c724d703f44d7a2833711beae",
    ("iid", 50): "51e0391ba525c50029936d7540f90cd6d95e136bb05e832a865a9c4cc0d538d4",
    ("iid", 500): "6117f5660692d8ae3f4eb77381918b8699aa6b36150e1d5c869cf737a2f44bde",
    ("correlated", 7): "e75022f8b919fba0b7c33d34387619e4679592f505348d65b9a0c616cbade6f7",
    ("correlated", 50): "7521a6c74cf3a9cfc8bfb21a480a73dcad76b6338b4a1b36b35fd74e5a2167cf",
    ("correlated", 500): "367654ecd08c30f07f5051599babd266c20e709c61807460295275830283172b",
}


@pytest.mark.parametrize("model, n", sorted(DRAW_DIGESTS))
def test_instance_draws_are_pinned(model, n):
    rho = 0.5 if model == "correlated" else None
    cfg = GenConfig(n=n, model=model, rho=rho, replications=1, seed=2026)
    digest = hashlib.sha256()
    for rep in (0, 1):
        problem, consent = draw_instance_and_consent(cfg, rep)
        digest.update(repr((problem.prefs, problem.priorities, sorted(consent))).encode())
    assert digest.hexdigest() == DRAW_DIGESTS[model, n]


@pytest.mark.parametrize("model", ["iid", "correlated"])
def test_drawn_rows_share_one_int_per_id(model):
    # Above 256 CPython makes a fresh int for each conversion, so n distinct
    # objects across all rows means every row holds the same n ints.
    n = 300
    cfg = GenConfig(n=n, model=model, rho=0.5 if model == "correlated" else None, replications=1, seed=17)
    problem = gen_instance(cfg, 0)
    assert len({id(x) for row in problem.prefs + problem.priorities for x in row}) == n


def test_correlated_rho_one_aligns_everyone():
    cfg = GenConfig(n=8, model="correlated", rho=1.0, replications=1, seed=77)
    problem = gen_instance(cfg, 0)
    first = problem.prefs[0]
    assert all(p == first for p in problem.prefs)


def test_correlated_rho_zero_looks_like_noise():
    cfg = GenConfig(n=8, model="correlated", rho=0.0, replications=1, seed=78)
    problem = gen_instance(cfg, 0)
    assert len({p for p in problem.prefs}) > 1  # almost surely not aligned


def test_correlated_preferences_positively_correlated():
    # with rho = 0.5 the average pairwise rank correlation between students'
    # preference lists stays clearly positive
    cfg = GenConfig(n=50, model="correlated", rho=0.5, replications=1, seed=5)
    corrs = []
    for rep in range(100):
        problem = gen_instance(cfg, rep)
        n = problem.n_students
        ranks = np.empty((n, n))
        for i, plist in enumerate(problem.prefs):
            for pos, s in enumerate(plist):
                ranks[i, s] = pos
        centered = ranks - ranks.mean(axis=1, keepdims=True)
        cov = centered @ centered.T
        norms = np.sqrt(np.diag(cov))
        corr = cov / np.outer(norms, norms)
        corrs.append((corr.sum() - n) / (n * (n - 1)))
    assert np.mean(corrs) > 0.1


def test_run_experiment_bit_identical():
    cfg = GenConfig(n=8, model="iid", replications=6, seed=31)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.rows == b.rows


def test_run_experiment_parallel_matches_serial():
    cfg = GenConfig(n=8, model="iid", replications=6, seed=32)
    serial = run_experiment(cfg, jobs=1)
    parallel = run_experiment(cfg, jobs=2)
    assert serial.rows == parallel.rows
    # a record's position is its replication index, at any job count
    expected = tuple(evaluate_instance(*draw_instance_and_consent(cfg, rep)) for rep in range(6))
    assert serial.records == parallel.records == expected


def test_run_experiment_rejects_non_positive_jobs():
    cfg = GenConfig(n=8, model="iid", replications=2, seed=32)
    for jobs in (0, -3):
        with pytest.raises(InputError, match="^jobs must be at least 1$"):
            run_experiment(cfg, jobs=jobs)


def test_per_instance_invariants():
    cfg = GenConfig(n=10, model="iid", replications=12, seed=33)
    stats = run_experiment(cfg)
    rows = stats.records
    assert list(rows) == [evaluate_instance(*draw_instance_and_consent(cfg, rep)) for rep in range(12)]
    for rec in rows:
        assert rec["sjbc_plus"]["justifiable_rate"] == 100.0
        assert rec["eada_full"]["pe_rate"] == 100.0
        assert rec["sjbc_plus"]["beneficiaries"] >= rec["da"]["beneficiaries"]
        for mech in ("da", "eada_full", "eada_half", "sjbc_plus"):
            assert rec[mech]["avg_rank"] >= 1.0
            assert rec[mech]["beneficiaries"] <= 10
    mean, stderr = stats_value(stats, "sjbc_plus", "justifiable_rate")
    assert mean == 100.0 and stderr == 0.0


def test_sjbc_beneficiaries_dominate_jbc_per_instance():
    from matchlab.analysis import beneficiaries
    from matchlab.jbc import run_jbc
    from matchlab.sjbc_plus import run_sjbc_plus

    cfg = GenConfig(n=12, model="iid", replications=1, seed=34)
    for rep in range(10):
        problem = gen_instance(cfg, rep)
        jbc_matching, _ = run_jbc(problem)
        plus = run_sjbc_plus(problem)
        assert beneficiaries(problem, jbc_matching) <= beneficiaries(problem, plus)


def reference_evaluate(problem, consent):
    """The simulation's metrics as first defined: bounds-checked ``rank_of``,
    ``violations`` and ``analysis.is_pareto_efficient`` on each outcome."""
    digraph = da_context(problem)
    da_matching = digraph.seats
    outcomes = {
        "da": da_matching,
        "eada_full": eada.run_eada(problem, range(problem.n_students))[0],
        "eada_half": eada.run_eada(problem, consent)[0],
        "sjbc_plus": sjbc_plus.run_sjbc_plus(problem),
    }
    da_ranks = [rank_of(problem, i, da_matching[i]) for i in range(problem.n_students)]
    values = {}
    for name, matching in outcomes.items():
        ranks = [rank_of(problem, i, matching[i]) for i in range(problem.n_students)]
        gainers = {i for i in range(problem.n_students) if ranks[i] < da_ranks[i]}
        justifiable = all(
            v.victim not in digraph.improvable or v.victim in gainers
            for v in violations(problem, matching)
        )
        values[name] = {
            "avg_rank": sum(ranks) / problem.n_students,
            "beneficiaries": float(len(gainers)),
            "pe_rate": 100.0 * analysis.is_pareto_efficient(problem, matching),
            "justifiable_rate": 100.0 * justifiable,
        }
    return values


def test_evaluate_instance_matches_reference():
    # Quotas 1-3, truncated lists and unequal sides, each with a seeded
    # random consent set, then the paper's correlated n = 50 draws.
    rng = random.Random(4100)
    cases = [
        (problem, frozenset(i for i in range(problem.n_students) if rng.random() < 0.5))
        for problem in mixed_markets(4100, 60)
    ]
    cfg = GenConfig(n=50, model="correlated", rho=0.5, replications=50, seed=4101)
    cases += [draw_instance_and_consent(cfg, rep) for rep in range(50)]
    for problem, consent in cases:
        table = evaluate_instance(problem, consent)
        assert table == reference_evaluate(problem, consent), (problem, consent)
        assert [list(v) for v in table.values()] == [list(simgen.METRICS)] * 4


@pytest.mark.parametrize("outcome", ["da", "eada", "sjbc_plus"])
def test_evaluate_instance_rejects_infeasible_before_wasteful(monkeypatch, outcome):
    problem, consent = draw_instance_and_consent(GenConfig(n=8, model="iid", replications=1, seed=3), 0)
    # two students at a unit-quota school, the rest unassigned and every seat
    # elsewhere wasted
    crowded = (0, 0) + (NULL_SCHOOL,) * (problem.n_students - 2)
    if outcome == "da":
        digraph = da_context(problem)
        monkeypatch.setattr(simgen, "da_context", lambda p: replace(digraph, seats=crowded))
    elif outcome == "eada":
        monkeypatch.setattr(eada, "run_eada", lambda p, c: (crowded, None))
    else:
        monkeypatch.setattr(sjbc_plus, "run_sjbc_plus", lambda p: crowded)
    with pytest.raises(InputError, match="^school s1 over quota"):
        evaluate_instance(problem, consent)


@pytest.mark.parametrize("outcome", ["da", "eada", "sjbc_plus"])
def test_evaluate_instance_rejects_wasteful_outcome(monkeypatch, outcome):
    problem, consent = draw_instance_and_consent(GenConfig(n=8, model="iid", replications=1, seed=3), 0)
    nobody = (NULL_SCHOOL,) * problem.n_students  # complete lists: all seats wasted
    if outcome == "da":
        digraph = da_context(problem)
        monkeypatch.setattr(simgen, "da_context", lambda p: replace(digraph, seats=nobody))
    elif outcome == "eada":
        monkeypatch.setattr(eada, "run_eada", lambda p, c: (nobody, None))
    else:
        monkeypatch.setattr(sjbc_plus, "run_sjbc_plus", lambda p: nobody)
    # As in analyze, a wasteful outcome shows as a student worse off than
    # under DA: one that weakly dominates DA fills every school as DA does.
    with pytest.raises(InputError, match="^matching is worse than DA for "):
        evaluate_instance(problem, consent)
