import pytest

from matchlab.da import run_da
from matchlab.envy import build_envy, canonical_packing
from matchlab.jbc import _school_graph, cycle_takes, run_jbc, strongly_justifiable_family
from matchlab.model import (
    A_DOMINATES,
    EQUAL,
    InputError,
    Problem,
    envied,
    pareto_compare,
    priority_rank_of,
    trade,
)
from matchlab.analysis import is_strongly_justifiable
from matchlab.simgen import GenConfig, gen_instance

from conftest import matching_by_name, mixed_markets, names_of


def cutoff_student(problem, da_matching, school):
    """The lowest-priority student assigned to ``school``."""
    occupants = [i for i, s in enumerate(da_matching.assignment) if s == school]
    if not occupants:
        raise InputError(f"school {problem.schools[school]} has no occupants")
    return max(occupants, key=lambda i: priority_rank_of(problem, school, i))


def below_cutoff_set(problem, da_matching, improvable, school):
    """Improvable students who want ``school`` but rank below its cutoff: by
    definition the candidates for JBC's entrant.  Empty exactly when the
    school rejected no improvable student during DA, which raises."""
    prio = problem._prio_rank[school]
    cutoff = prio[cutoff_student(problem, da_matching, school)]
    envious = envied(problem, da_matching.assignment)[school]
    out = {i for i in envious if i in improvable and prio[i] > cutoff}
    if not out:
        raise InputError(f"school {problem.schools[school]} rejected no improvable student")
    return out


def test_cutoff_student(ex1):
    da, _ = run_da(ex1)
    assert cutoff_student(ex1, da, ex1.school_id("s4")) == ex1.student_id("i4")
    assert cutoff_student(ex1, da, ex1.school_id("s1")) == ex1.student_id("i1")


def test_cutoff_student_quota_two():
    problem = Problem(
        students=("a", "b", "c"),
        schools=("x", "y"),
        quotas=(2, 1),
        prefs=((0,), (0,), (0, 1)),
        priorities=((0, 1, 2), (0, 1, 2)),
    )
    da, _ = run_da(problem)
    assert cutoff_student(problem, da, 0) == 1  # b is the weaker occupant of x


def test_cutoff_student_empty_school_is_an_error():
    problem = Problem(
        students=("a",),
        schools=("x", "y"),
        quotas=(1, 1),
        prefs=((0,),),
        priorities=((0,), (0,)),
    )
    da, _ = run_da(problem)
    with pytest.raises(InputError):
        cutoff_student(problem, da, 1)


def test_below_cutoff_sets(ex1):
    da, _ = run_da(ex1)
    improvable = build_envy(ex1).improvable
    assert names_of(ex1, below_cutoff_set(ex1, da, improvable, ex1.school_id("s4"))) == [
        "i1",
        "i5",
        "i6",
    ]
    assert names_of(ex1, below_cutoff_set(ex1, da, improvable, ex1.school_id("s1"))) == [
        "i2",
        "i5",
    ]
    assert names_of(ex1, below_cutoff_set(ex1, da, improvable, ex1.school_id("s5"))) == [
        "i1",
        "i4",
    ]
    with pytest.raises(InputError):
        below_cutoff_set(ex1, da, improvable, ex1.school_id("s7"))


def test_run_jbc_ex1(ex1):
    matching, graph = run_jbc(ex1)
    C = ex1.school_id
    assert {ex1.schools[s]: ex1.schools[t] for s, t in graph.succ.items()} == {
        "s1": "s5",
        "s2": "s1",
        "s3": "s5",
        "s4": "s1",
        "s5": "s4",
        "s6": "s3",
    }
    assert graph.cycles == ((C("s1"), C("s5"), C("s4")),)
    assert matching == matching_by_name(
        ex1, {"i1": "s4", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s6", "i7": "s7"}
    )


def test_run_jbc_efficient_da_returns_da():
    problem = Problem(
        students=("a", "b"),
        schools=("x", "y"),
        quotas=(1, 1),
        prefs=((0, 1), (1, 0)),
        priorities=((0, 1), (0, 1)),
    )
    da, _ = run_da(problem)
    matching, graph = run_jbc(problem)
    assert matching == da
    assert graph.succ == {}
    assert graph.cycles == ()


def test_run_jbc_exd(exd):
    matching, _ = run_jbc(exd)
    assert matching == matching_by_name(
        exd, {"i1": "s5", "i2": "s1", "i3": "s6", "i4": "s3", "i5": "s4", "i6": "s2"}
    )


def test_strongly_justifiable_family_ex1(ex1):
    da, _ = run_da(ex1)
    family = strongly_justifiable_family(ex1)
    keys = {m.assignment for m in family}
    jbc_matching, _ = run_jbc(ex1)
    assert keys == {da.assignment, jbc_matching.assignment}


def test_strongly_justifiable_family_no_cycles():
    problem = Problem(
        students=("a", "b"),
        schools=("x", "y"),
        quotas=(1, 1),
        prefs=((0,), (1,)),
        priorities=((0, 1), (0, 1)),
    )
    da, _ = run_da(problem)
    assert [m.assignment for m in strongly_justifiable_family(problem)] == [da.assignment]


def test_strongly_justifiable_family_cardinality_seed7():
    problem = gen_instance(GenConfig(n=6, model="iid", replications=1, seed=7), 0)
    family = strongly_justifiable_family(problem)
    _, graph = run_jbc(problem)
    assert len(family) == 2 ** len(graph.cycles)
    assert len({m.assignment for m in family}) == len(family)


def test_jbc_outcome_properties_random():
    for n in (4, 5, 6, 7):
        for rep in range(25):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=170 + n), rep)
            da, _ = run_da(problem)
            digraph = build_envy(problem)
            matching, graph = run_jbc(problem)
            if not digraph.improvable or not graph.cycles:
                assert matching == da
                continue
            assert pareto_compare(problem, matching, da) == A_DOMINATES
            assert is_strongly_justifiable(problem, matching)


def test_family_lattice_is_subset_order():
    # among subsets of the cycles, domination coincides with cycle inclusion
    import itertools

    for n in (5, 6, 7):
        for rep in range(10):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=190 + n), rep)
            da, _ = run_da(problem)
            digraph = build_envy(problem)
            if not digraph.improvable:
                continue
            graph = _school_graph(digraph)
            k = len(graph.cycles)
            if k < 2:
                continue
            members = {}
            for mask in range(1 << k):
                chosen = [graph.cycles[c] for c in range(k) if mask >> c & 1]
                members[mask] = trade(da, cycle_takes(graph.jbc_student, chosen))
            for a, b in itertools.product(range(1 << k), repeat=2):
                rel = pareto_compare(problem, members[a], members[b])
                if a == b:
                    assert rel == EQUAL
                elif b & a == b:  # b's cycles are a subset of a's
                    assert rel == A_DOMINATES
                elif a & b == a:
                    assert rel != A_DOMINATES


def test_jbc_entrant_is_best_below_cutoff_student():
    # The school graph reads each school's first contender; by definition its
    # entrant is the highest-priority member of the below-cutoff set.
    entered = 0
    for problem in mixed_markets(2034, 600):
        da, _ = run_da(problem)
        digraph = build_envy(problem)
        _, graph = run_jbc(problem)
        for s in range(problem.n_schools):
            if s not in graph.succ:
                with pytest.raises(InputError):
                    below_cutoff_set(problem, da, digraph.improvable, s)
                continue
            below = below_cutoff_set(problem, da, digraph.improvable, s)
            best = min(below, key=lambda i: priority_rank_of(problem, s, i))
            assert graph.jbc_student[s] == best
            assert graph.succ[s] == da.assignment[best]
            entered += 1
        on_cycles = {s for s in graph.succ if s in walk_from(graph.succ, graph.succ[s])}
        assert {s for cycle in graph.cycles for s in cycle} == on_cycles
        assert graph.cycles == canonical_packing(graph.cycles)
    assert entered > 300


def walk_from(succ, s):
    """Schools reached from ``s`` by following ``succ``."""
    seen = []
    while s in succ and s not in seen:
        seen.append(s)
        s = succ[s]
    return seen
