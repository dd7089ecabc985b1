import random

import pytest

from matchlab import oracle
from matchlab.da import run_da
from matchlab.model import InputError, Problem
from matchlab.simgen import GenConfig, gen_instance

from conftest import (
    flag_completed,
    matching_by_name,
    names_of,
    random_market,
    verify_theorem5_steps,
)


def test_enumerate_three_by_three_full_lists():
    problem = Problem(
        students=("a", "b", "c"),
        schools=("x", "y", "z"),
        quotas=(1, 1, 1),
        prefs=((0, 1, 2), (1, 2, 0), (2, 0, 1)),
        priorities=((0, 1, 2),) * 3,
    )
    found = list(oracle.enumerate_matchings(problem))
    assert len(found) == 6  # the permutations; parking anyone is wasteful
    assert len(set(found)) == 6


def test_enumerate_exnoeff_count(exnoeff):
    # frozen from the exhaustive generator itself
    assert len(list(oracle.enumerate_matchings(exnoeff))) == 44


def test_enumerate_one_by_one():
    problem = Problem(
        students=("a",), schools=("x",), quotas=(1,), prefs=((0,),), priorities=((0,),)
    )
    assert list(oracle.enumerate_matchings(problem)) == [(0,)]


def test_enumerate_budget_refusal(ex1):
    with pytest.raises(InputError):
        list(oracle.enumerate_matchings(ex1, budget=50))


def test_early_exit_scans_agree_with_full_scan():
    rng = random.Random(46)
    for _ in range(200):
        problem = random_market(rng)
        n = problem.n_students
        protected = {i for i in range(n) if rng.random() < 0.5}
        for m in oracle.enumerate_matchings(problem):
            found = oracle.violations_scan(problem, m)
            assert oracle.stable_scan(problem, m) == (not found)
            assert oracle.respects_scan(problem, m, protected) == all(
                v not in protected for v, _, _ in found
            )


def test_oracle_report_exnoeff(exnoeff):
    flag_completed(exnoeff, "exnoeff")
    report = oracle.oracle_report(exnoeff)
    mu_j = matching_by_name(
        exnoeff, {"i1": "s4", "i2": "s1", "i3": "s3", "i4": "s2", "i5": "s5", "i6": "s6"}
    )
    assert list(report.justifiable_family) == [mu_j]
    assert report.justifiable_and_efficient == ()
    assert names_of(exnoeff, report.unimprovable) == ["i3"]
    assert report.all_claims_hold


def test_oracle_report_ex1(ex1):
    flag_completed(ex1, "ex1")
    report = oracle.oracle_report(ex1)
    jpe = matching_by_name(
        ex1, {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4", "i7": "s7"}
    )
    assert list(report.justifiable_and_efficient) == [
        jpe
    ]
    assert names_of(ex1, report.unimprovable) == ["i7"]
    assert report.all_claims_hold
    # the efficient family contains the justifiable-efficient matching
    assert any(m == jpe for m in report.pareto_family)


def test_oracle_report_aligned_instance():
    problem = Problem(
        students=("a", "b", "c"),
        schools=("x", "y", "z"),
        quotas=(1, 1, 1),
        prefs=((0, 1), (1, 0), (2, 1)),
        priorities=((0, 1, 2),) * 3,
    )
    report = oracle.oracle_report(problem)
    assert report.dominating == ()
    assert report.unimprovable == frozenset(range(3))
    assert report.all_claims_hold


def test_verify_theorem5_steps_pass(ex1):
    report = verify_theorem5_steps(ex1)
    assert report.all_passed
    assert [name for name, _, _ in report.checks] == [
        "w1_unique_respecting_improvement_is_three_cycle",
        "w2_unique_improvement_serving_i5_is_three_cycle",
        "w3_exactly_two_cycles_serve_i1_one_violating_i3",
        "w3_two_cycle_packing_efficient_dominating_and_respecting",
    ]


def test_verify_theorem5_steps_mutated_reports_failures(ex1):
    # swapping the top two priorities of s4 changes the DA run; the checks may
    # fail, and the report must say which ones did
    prios = list(ex1.priorities)
    s4 = ex1.school_id("s4")
    swapped = list(prios[s4])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    prios[s4] = tuple(swapped)
    from dataclasses import replace

    mutated = replace(ex1, priorities=tuple(prios))
    report = verify_theorem5_steps(mutated)
    assert len(report.checks) == 4
    failed = [name for name, ok, _ in report.checks if not ok]
    assert not report.all_passed
    assert failed  # at least one step breaks, and it is named


def test_oracle_families_are_consistent_random():
    from matchlab.analysis import is_justifiable

    for n in (4, 5, 6):
        for rep in range(10):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=310 + n), rep)
            report = oracle.oracle_report(problem)
            da = report.da
            keys = set(report.justifiable_family)
            for m in report.dominating:
                fast = is_justifiable(problem, m).justifiable
                assert fast == (m in keys)
