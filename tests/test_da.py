import json
import random

import pytest
from dataclasses import replace

from matchlab.analysis import is_justifiable
from matchlab.cli import main
from matchlab.da import DaTrace, interrupters, run_da
from matchlab.envy import LabelledEnvyDigraph, build_envy
from matchlab.fixtures import load_fixture
from matchlab.jbc import run_jbc
from matchlab.model import (
    NULL_SCHOOL,
    Matching,
    Problem,
    envied,
    is_nonwasteful,
    problem_to_dict,
    rank_of,
    violations,
)
from matchlab.simgen import GenConfig, draw_instance_and_consent, evaluate_instance, gen_instance
from matchlab.sjbc_plus import run_sjbc_plus

from conftest import (
    held_by_round,
    interrupters_by_definition,
    large_markets,
    matching_by_name,
    mixed_markets,
    random_market,
)


def diagonal(problem):
    return Matching(tuple(problem.school_id(f"s{k+1}") for k in range(problem.n_students)))


def test_da_ex1_is_diagonal(ex1):
    matching, trace = run_da(ex1)
    assert matching == diagonal(ex1)
    assert len(trace.rounds) == 13
    # The trace's last rosters hold the returned matching.
    rosters = [tuple(i for i, t in enumerate(matching.assignment) if t == s) for s in range(ex1.n_schools)]
    assert held_by_round(trace, ex1.n_schools)[-1] == rosters


def test_da_ex1_trace_details(ex1):
    _, trace = run_da(ex1)
    S, C = ex1.student_id, ex1.school_id
    r1 = trace.rounds[0]
    assert r1.applicants[C("s4")] == (S("i6"), S("i7"))
    assert r1.rejected[C("s4")] == (S("i6"),)
    assert r1.applicants[C("s6")] == (S("i1"), S("i3"))
    assert r1.rejected[C("s6")] == (S("i1"),)
    # i7 is rejected from s4 only in the penultimate round
    assert trace.rounds[11].rejected[C("s4")] == (S("i7"),)


def test_da_trace_invariants(ex1):
    matching, trace = run_da(ex1)
    seen = set()
    for rnd in trace.rounds:
        for s, kept in rnd.held.items():
            assert len(kept) <= ex1.quotas[s]
        for s, apps in rnd.applicants.items():
            for i in apps:
                assert (i, s) not in seen  # each student applies to a school once
                seen.add((i, s))
    rosters = held_by_round(trace, ex1.n_schools)
    final = [-1] * ex1.n_students
    for s, kept in enumerate(rosters[-1]):
        for i in kept:
            final[i] = s
    assert tuple(final) == matching.assignment


def test_da_distinct_top_choices_single_round():
    problem = Problem(
        students=("a", "b", "c"),
        schools=("x", "y", "z"),
        quotas=(1, 1, 1),
        prefs=((0, 1), (1, 2), (2, 0)),
        priorities=((0, 1, 2), (0, 1, 2), (0, 1, 2)),
    )
    matching, trace = run_da(problem)
    assert matching.assignment == (0, 1, 2)
    assert len(trace.rounds) == 1
    assert interrupters(problem, trace) == []


def test_da_exnoeff_is_diagonal(exnoeff):
    matching, _ = run_da(exnoeff)
    assert matching == diagonal(exnoeff)


def test_da_stable_nonwasteful_on_random_instances():
    for n in (4, 5, 6, 7):
        for rep in range(30):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=300 + n), rep)
            matching, trace = run_da(problem)
            assert violations(problem, matching) == []
            assert is_nonwasteful(problem, matching)
            assert trace.proposals <= n * n
            # Each student proposes down her list until DA seats her.
            assert trace.proposals == sum(
                min(rank_of(problem, i, s), len(problem.prefs[i]))
                for i, s in enumerate(matching.assignment)
            )


def test_da_exhausted_student_lands_at_null_school():
    problem = Problem(
        students=("a", "b"),
        schools=("x",),
        quotas=(1,),
        prefs=((0,), (0,)),
        priorities=((0, 1),),
    )
    matching, _ = run_da(problem)
    assert matching.assignment == (0, -1)


def test_interrupters_ex1(ex1):
    _, trace = run_da(ex1)
    pairs = interrupters(ex1, trace)
    assert pairs == interrupters_by_definition(ex1, trace)
    named = [(ex1.students[i], ex1.schools[s], r) for i, s, r in pairs]
    assert named == [("i3", "s6", 2), ("i5", "s1", 10), ("i4", "s5", 11), ("i7", "s4", 12)]


def test_interrupters_after_deleting_s4_from_i7(ex1):
    i7, s4 = ex1.student_id("i7"), ex1.school_id("s4")
    prefs = list(ex1.prefs)
    prefs[i7] = tuple(s for s in prefs[i7] if s != s4)
    reduced = replace(ex1, prefs=tuple(prefs))
    matching, trace = run_da(reduced)
    assert matching == matching_by_name(
        ex1, {"i1": "s4", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s6", "i7": "s7"}
    )
    pairs = interrupters(reduced, trace)
    assert pairs == interrupters_by_definition(reduced, trace)
    assert [(ex1.students[i], ex1.schools[s]) for i, s, _ in pairs] == [("i3", "s6")]


def test_rejecting_schools(ex1, exnoeff):
    _, trace = run_da(ex1)
    improvable = {ex1.student_id(f"i{k}") for k in range(1, 7)}
    rejecting = {ex1.school_id(f"s{k}") for k in range(1, 7)}
    assert rejecting_by_replay(trace, improvable) == set(run_jbc(ex1)[1].succ) == rejecting

    _, trace = run_da(exnoeff)
    improvable = {exnoeff.student_id(n) for n in ("i1", "i2", "i4", "i5", "i6")}
    # replaying the run: every school except s3 turns away an improvable student
    rejecting = {exnoeff.school_id(n) for n in ("s1", "s2", "s4", "s5", "s6")}
    assert rejecting_by_replay(trace, improvable) == set(run_jbc(exnoeff)[1].succ) == rejecting


def test_rejecting_schools_empty_for_efficient_da():
    problem = Problem(
        students=("a", "b"),
        schools=("x", "y"),
        quotas=(1, 1),
        prefs=((0,), (1,)),
        priorities=((0, 1), (0, 1)),
    )
    _, trace = run_da(problem)
    assert rejecting_by_replay(trace, set()) == set(run_jbc(problem)[1].succ) == set()


def test_da_matches_oracle_student_optimal_stable():
    from matchlab import oracle

    for n in (4, 5, 6):
        for rep in range(15):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=700 + n), rep)
            matching, _ = run_da(problem)
            stable = [
                m
                for m in oracle.enumerate_matchings(problem)
                if not oracle.violations_scan(problem, m)
            ]
            assert any(m.assignment == matching.assignment for m in stable)
            assert all(oracle.dominates_weakly(problem, matching, m) for m in stable)


def test_quota_two_school_holds_two():
    problem = Problem(
        students=("a", "b", "c"),
        schools=("x", "y"),
        quotas=(2, 1),
        prefs=((0,), (0,), (0, 1)),
        priorities=((0, 1, 2), (0, 1, 2)),
    )
    matching, _ = run_da(problem)
    assert matching.assignment == (0, 0, 1)


def test_interrupter_counts_rejection_in_arrival_round():
    # Round 1: i and j apply to x, j is turned away while i is kept; k is
    # turned away from y.  Round 2: k displaces i from x.  i interrupted at x
    # although her only witness was rejected in the round she arrived.
    problem = Problem(
        students=("i", "j", "k", "l"),
        schools=("x", "y"),
        quotas=(1, 1),
        prefs=((0, 1), (0,), (1, 0), (1,)),
        priorities=((2, 0, 1, 3), (3, 2, 0, 1)),
    )
    matching, trace = run_da(problem)
    assert matching.assignment == (-1, -1, 0, 1)
    assert interrupters(problem, trace) == interrupters_by_definition(problem, trace) == [(0, 0, 2)]


def test_interrupters_match_definition_many_to_one():
    rng = random.Random(2010)
    found = 0
    for _ in range(1500):
        problem = random_market(rng)
        _, trace = run_da(problem)
        got = interrupters(problem, trace)
        assert got == interrupters_by_definition(problem, trace)
        found += len(got)
    assert found > 50  # the battery exercises the rule, not just empty lists


def rejecting_by_replay(trace, students):
    """Schools that turn away someone in ``students`` in some round of the trace."""
    return {
        s
        for rnd in trace.rounds
        for s, rejected in rnd.rejected.items()
        if students.intersection(rejected)
    }


def test_rejecting_schools_equal_envied_schools_many_to_one():
    # The JBC graph's nodes are the schools some improvable student envies at
    # DA; the trace replay is the reference definition of that set.
    rng = random.Random(2014)
    graphs = subsets = 0  # markets where each set is nonempty
    for _ in range(1500):
        problem = random_market(rng)
        da, trace = run_da(problem)
        digraph = build_envy(problem)
        expected = rejecting_by_replay(trace, digraph.improvable)
        assert set(run_jbc(problem)[1].succ) == expected
        subset = {i for i in range(problem.n_students) if rng.random() < 0.5}
        wanted = envied(problem, da.assignment)
        got = {s for s, envious in enumerate(wanted) if subset.intersection(envious)}
        assert got == rejecting_by_replay(trace, subset)
        graphs += bool(expected)
        subsets += bool(got)
    assert graphs > 30 and subsets > 300


def test_pipeline_never_builds_round_table(monkeypatch, tmp_path, capsys):
    # The pipeline reads neither the round table (nor ``interrupters``, which
    # reads it) nor the envy digraph's spelled-out edges and labels.
    def refuse(view):
        raise AssertionError(f"on-read view of {type(view).__name__} built")

    monkeypatch.setattr(DaTrace, "rounds", property(refuse))
    monkeypatch.setattr(LabelledEnvyDigraph, "edges", property(refuse))
    monkeypatch.setattr(LabelledEnvyDigraph, "labels", property(refuse))
    ex1 = load_fixture("ex1")
    trace = run_da(ex1)[1]
    digraph = build_envy(ex1)
    for read in (lambda: trace.rounds, lambda: digraph.edges, lambda: digraph.labels):
        with pytest.raises(AssertionError):
            read()  # the guards are live

    problems = [load_fixture(name) for name in ("ex1", "exd", "exe", "exnoeff", "explus")]
    iid = GenConfig(n=12, model="iid", replications=1, seed=41)
    problems += [gen_instance(iid, rep) for rep in range(3)]
    rng = random.Random(41)
    problems += [random_market(rng) for _ in range(20)]
    for k, problem in enumerate(problems):
        plus = run_sjbc_plus(problem)
        run_jbc(problem)
        is_justifiable(problem, plus)
        if k < 8:
            path = tmp_path / f"p{k}.json"
            path.write_text(json.dumps(problem_to_dict(problem)))
            assert main(["solve", "--mechanism", "sjbc+", str(path)]) == 0
    capsys.readouterr()
    for model, rho in (("iid", None), ("correlated", 0.5)):
        cfg = GenConfig(n=15, model=model, rho=rho, replications=2, seed=42)
        for rep in range(2):
            evaluate_instance(*draw_instance_and_consent(cfg, rep))


def sequential_da(problem):
    """McVitie-Wilson deferred acceptance: one free student at a time
    proposes to the next school on her list; a school over quota rejects
    its lowest-priority holder, who becomes the next to propose."""
    seat = [NULL_SCHOOL] * problem.n_students
    tried = [0] * problem.n_students
    held = [[] for _ in range(problem.n_schools)]
    free = list(range(problem.n_students))
    while free:
        i = free.pop()
        if tried[i] == len(problem.prefs[i]):
            continue  # every listed school rejected her: she stays unassigned
        school = problem.prefs[i][tried[i]]
        tried[i] += 1
        seat[i] = school
        held[school].append(i)
        if len(held[school]) > problem.quotas[school]:
            worst = max(held[school], key=problem.priorities[school].index)
            held[school].remove(worst)
            seat[worst] = NULL_SCHOOL
            free.append(worst)
    return Matching(tuple(seat))


def test_sequential_proposals_give_the_same_matching():
    # The student-optimal stable matching does not depend on the proposal
    # order, so a second, naive DA that proposes one student at a time
    # certifies run_da's round-by-round loop beyond oracle sizes.
    markets = large_markets() + mixed_markets(1971, 200)
    for problem in markets:
        assert sequential_da(problem) == run_da(problem)[0]
    assert len(markets) == 30 + 200 + 50 + 18
