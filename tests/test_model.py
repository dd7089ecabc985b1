import itertools
import json
import random

import pytest

from matchlab.model import (
    A_DOMINATES,
    B_DOMINATES,
    EQUAL,
    INCOMPARABLE,
    NULL_SCHOOL,
    InputError,
    Matching,
    Problem,
    dump_matching,
    is_nonwasteful,
    load_problem,
    matching_from_dict,
    matching_to_dict,
    pareto_compare,
    problem_from_dict,
    problem_to_dict,
    envied,
    rank_of,
    respects_priorities_of,
    violations,
)
from matchlab.da import run_da
from matchlab.simgen import GenConfig, gen_instance

from conftest import matching_by_name, random_market

JBC_EX1 = {"i1": "s4", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s6", "i7": "s7"}
MU_J_EXNOEFF = {"i1": "s4", "i2": "s1", "i3": "s3", "i4": "s2", "i5": "s5", "i6": "s6"}


def test_rank_of_examples(ex1):
    i1, i2 = ex1.student_id("i1"), ex1.student_id("i2")
    assert rank_of(ex1, i1, ex1.school_id("s4")) == 2
    # first listed school always ranks 1
    for i in range(ex1.n_students):
        assert rank_of(ex1, i, ex1.prefs[i][0]) == 1
    # i2 lists two schools, so the null school ranks third
    assert rank_of(ex1, i2, NULL_SCHOOL) == 3
    # unlisted schools rank uniformly one past the null school
    assert rank_of(ex1, i2, ex1.school_id("s7")) == 4
    assert rank_of(ex1, i2, ex1.school_id("s5")) == 4
    with pytest.raises(InputError):
        rank_of(ex1, 99, 0)


def test_rank_of_is_strict_on_listed_schools(ex1):
    for i in range(ex1.n_students):
        ranks = [rank_of(ex1, i, s) for s in ex1.prefs[i]]
        assert len(set(ranks)) == len(ranks)


def test_violations_da_is_stable(ex1):
    da, _ = run_da(ex1)
    assert violations(ex1, da) == []


def test_violations_jbc_matching(ex1):
    # Exhaustive scan gives exactly one blocking triple: i7 outranks i1 at s4.
    m = matching_by_name(ex1, JBC_EX1)
    found = violations(ex1, m)
    triples = [
        (ex1.students[v.victim], ex1.students[v.occupant], ex1.schools[v.school])
        for v in found
    ]
    assert triples == [("i7", "i1", "s4")]


def test_violations_mu_j_exnoeff(exnoeff):
    # Both victims are i3, the lone unimprovable student of the instance.
    m = matching_by_name(exnoeff, MU_J_EXNOEFF)
    triples = [
        (exnoeff.students[v.victim], exnoeff.students[v.occupant], exnoeff.schools[v.school])
        for v in violations(exnoeff, m)
    ]
    assert triples == [("i3", "i2", "s1"), ("i3", "i1", "s4")]


def test_violations_rejects_infeasible(ex1):
    overfull = Matching((0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(InputError):
        violations(ex1, overfull)


def test_respects_priorities_of(ex1):
    da, _ = run_da(ex1)
    assert respects_priorities_of(ex1, da, range(ex1.n_students))
    jbc = matching_by_name(ex1, JBC_EX1)
    # the only victim is i7, so protecting i6 alone is satisfied
    assert respects_priorities_of(ex1, jbc, {ex1.student_id("i6")})
    assert not respects_priorities_of(ex1, jbc, {ex1.student_id("i7")})
    # EADA with consent {i1,i5,i7} lands on the JBC matching; everyone outside
    # the consent set keeps her priorities
    protected = set(range(ex1.n_students)) - {
        ex1.student_id(n) for n in ("i1", "i5", "i7")
    }
    assert respects_priorities_of(ex1, jbc, protected)


def test_is_nonwasteful(ex1):
    da, _ = run_da(ex1)
    assert is_nonwasteful(ex1, da)
    # park i7 at the null school while s7 sits empty
    wasteful = matching_by_name(
        ex1, {"i1": "s1", "i2": "s2", "i3": "s3", "i4": "s4", "i5": "s5", "i6": "s6"}
    )
    assert not is_nonwasteful(ex1, wasteful)


def test_is_nonwasteful_matches_direct_scan():
    cfg = GenConfig(n=5, model="iid", replications=1, seed=42)
    problem = gen_instance(cfg, 0)
    rng = random.Random(42)
    for _ in range(25):
        perm = list(range(5))
        rng.shuffle(perm)
        m = Matching(tuple(perm))
        free = [q - sum(1 for s in perm if s == sc) for sc, q in enumerate(problem.quotas)]
        expected = not any(
            free[s] > 0 and rank_of(problem, i, s) < rank_of(problem, i, m.assignment[i])
            for i in range(5)
            for s in range(5)
        )
        assert is_nonwasteful(problem, m) == expected


def test_pareto_compare_golden(ex1):
    da, _ = run_da(ex1)
    sjbc = matching_by_name(
        ex1,
        {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4", "i7": "s7"},
    )
    assert pareto_compare(ex1, sjbc, da) == A_DOMINATES
    jbc = matching_by_name(ex1, JBC_EX1)
    assert pareto_compare(ex1, jbc, jbc) == EQUAL
    # EADA under full consent swaps i1/i6 on top of the JBC trade, improving
    # both movers, so it dominates the JBC matching outright
    eada_full = matching_by_name(
        ex1,
        {"i1": "s6", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s4", "i7": "s7"},
    )
    assert pareto_compare(ex1, jbc, eada_full) == B_DOMINATES
    assert pareto_compare(ex1, sjbc, eada_full) == INCOMPARABLE


def test_pareto_compare_is_an_order_on_random_triples():
    cfg = GenConfig(n=5, model="iid", replications=1, seed=7)
    problem = gen_instance(cfg, 0)
    rng = random.Random(7)
    matchings = []
    for _ in range(12):
        perm = list(range(5))
        rng.shuffle(perm)
        matchings.append(Matching(tuple(perm)))
    for a, b, c in itertools.product(matchings, repeat=3):
        ab, ba = pareto_compare(problem, a, b), pareto_compare(problem, b, a)
        flip = {A_DOMINATES: B_DOMINATES, B_DOMINATES: A_DOMINATES}
        assert ba == flip.get(ab, ab)
        if (
            pareto_compare(problem, a, b) == A_DOMINATES
            and pareto_compare(problem, b, c) == A_DOMINATES
        ):
            assert pareto_compare(problem, a, c) == A_DOMINATES


def test_violations_empty_iff_respects_everyone():
    rng = random.Random(5)
    for rep in range(20):
        cfg = GenConfig(n=5, model="iid", replications=1, seed=500 + rep)
        problem = gen_instance(cfg, 0)
        perm = list(range(5))
        rng.shuffle(perm)
        m = Matching(tuple(perm))
        assert (violations(problem, m) == []) == respects_priorities_of(
            problem, m, range(5)
        )


def test_instance_file_round_trip(tmp_path, ex1):
    data = problem_to_dict(ex1)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    again = load_problem(path)
    # the round-tripped file carries the completed lists, so nothing is partial
    assert again.prefs == ex1.prefs
    assert again.priorities == ex1.priorities
    assert again.completed_priorities == frozenset()


def test_partial_priorities_are_completed(ex1, exd):
    # every priority column of the ex1 table is truncated, so all of them get
    # completed; the empty s7 column becomes declaration order
    assert ex1.completed_priorities == frozenset(range(7))
    assert ex1.priorities[ex1.school_id("s7")] == tuple(range(7))
    # exd lists every student everywhere except at s3
    assert exd.completed_priorities == {exd.school_id("s3")}


def test_matching_file_round_trip_and_stability(ex1):
    m = matching_by_name(ex1, JBC_EX1)
    text = dump_matching(ex1, m)
    assert text == dump_matching(ex1, m)
    assert text.endswith("\n")
    again = matching_from_dict(ex1, json.loads(text))
    assert again == m
    # omitted students mean unassigned
    partial = matching_from_dict(ex1, {"assignment": {"i1": "s4"}})
    assert partial.assignment[ex1.student_id("i2")] == NULL_SCHOOL


def instance_dict(**fields):
    data = {
        "students": ["a", "b"],
        "schools": [{"name": "x", "quota": 1}, {"name": "y", "quota": 1}],
        "prefs": {"a": ["x"], "b": ["x", "y"]},
        "priorities": {"x": ["a", "b"], "y": []},
    }
    data.update(fields)
    return data


MALFORMED = {
    "missing-fields": {"students": ["a"]},
    "zero-quota": {
        "students": ["a"],
        "schools": [{"name": "x", "quota": 0}],
        "prefs": {"a": ["x"]},
        "priorities": {"x": ["a"]},
    },
    "quota-not-a-number": instance_dict(
        schools=[{"name": "x", "quota": "z"}, {"name": "y", "quota": 1}]
    ),
    "fractional-quota": instance_dict(
        schools=[{"name": "x", "quota": 1.7}, {"name": "y", "quota": 1}]
    ),
    "school-without-name": instance_dict(schools=[{"quota": 1}, {"name": "y", "quota": 1}]),
    "prefs-as-list": instance_dict(prefs=[["x"], ["x", "y"]]),
    "pref-row-as-string": instance_dict(prefs={"a": "xy"}),
    "list-valued-student-name": instance_dict(students=[["a"], "b"]),
}


@pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_inputs_raise(data):
    with pytest.raises(InputError):
        problem_from_dict(data)


def test_name_lookup_and_unknown_names():
    good = problem_from_dict(instance_dict())
    assert good.completed_priorities == {good.school_id("y")}
    assert [good.student_id(name) for name in good.students] == [0, 1]
    assert [good.school_id(name) for name in good.schools] == [0, 1]
    with pytest.raises(InputError):
        matching_from_dict(good, {"assignment": {"zz": "x"}})
    with pytest.raises(InputError):
        matching_from_dict(good, {"assignment": {"a": ["x"]}})
    with pytest.raises(InputError):
        matching_from_dict(good, {"assignment": [["a", "x"]]})


@pytest.mark.parametrize(
    "priorities, message",
    [
        (((0, 1), (2, 1, 0)), "priority list of x is not a permutation of all students"),
        (((0, 1, 1), (2, 1, 0)), "priority list of x is not a permutation of all students"),
        (((0, 1, 3), (2, 1, 0)), "priority list of x is not a permutation of all students"),
        (((0, 1, -1), (2, 1, 0)), "priority list of x is not a permutation of all students"),
        (((0, 1, 2, 0), (2, 1, 0)), "priority list of x is not a permutation of all students"),
        (((0, 1, 2), (2, 2, 0)), "priority list of y is not a permutation of all students"),
    ],
)
def test_priority_lists_must_be_permutations(priorities, message):
    with pytest.raises(InputError) as exc:
        Problem(
            students=("a", "b", "c"),
            schools=("x", "y"),
            quotas=(1, 2),
            prefs=((0, 1), (1,), ()),
            priorities=priorities,
        )
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "prefs, message",
    [
        (((0, 0), (1,), ()), "duplicate school in preference list of a"),
        (((0, 1), (1, 2, 5), ()), "invalid school id 2 in preferences of b"),
        (((0, -1), (1,), ()), "invalid school id -1 in preferences of a"),
        (((0, -2), (1,), ()), "invalid school id -2 in preferences of a"),
        (((0, 2), (1,), ()), "invalid school id 2 in preferences of a"),
        (((0, 1), (7,), ()), "invalid school id 7 in preferences of b"),
        (((3, 3, -5), (1,), ()), "duplicate school in preference list of a"),
        (((0, 1, 0, 1, 0), (1,), ()), "duplicate school in preference list of a"),
    ],
)
def test_preference_lists_must_list_known_schools_once(prefs, message):
    with pytest.raises(InputError) as exc:
        Problem(
            students=("a", "b", "c"),
            schools=("x", "y"),
            quotas=(1, 2),
            prefs=prefs,
            priorities=((0, 1, 2), (2, 1, 0)),
        )
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"priorities": {"x": ["a", "b", "a"], "y": []}}, "duplicate student in priorities of x"),
        ({"priorities": {"x": ["a", "a"], "y": []}}, "duplicate student in priorities of x"),
        ({"priorities": {"x": ["a", "b"], "y": ["b", "a", "b"]}}, "duplicate student in priorities of y"),
        # a repeat is named before a later row's unknown name and before Problem's checks
        ({"priorities": {"x": ["a", "b", "a"], "y": ["zz"]}}, "duplicate student in priorities of x"),
        (
            {"prefs": {"a": ["x", "x"]}, "priorities": {"x": ["b", "a", "b"], "y": []}},
            "duplicate student in priorities of x",
        ),
        ({"students": ["a", "a"], "priorities": {"x": ["a", "a"], "y": []}}, "duplicate student in priorities of x"),
        ({"prefs": {"a": ["x", "x"]}}, "duplicate school in preference list of a"),
    ],
)
def test_load_errors_name_the_first_fault(fields, message):
    with pytest.raises(InputError) as exc:
        problem_from_dict(instance_dict(**fields))
    assert str(exc.value) == message


def test_rank_of_matches_list_positions_many_to_one():
    rng = random.Random(505)
    for _ in range(1500):
        problem = random_market(rng)
        n, m = problem.n_students, problem.n_schools
        for i, plist in enumerate(problem.prefs):
            expected = {s: plist.index(s) + 1 if s in plist else len(plist) + 2 for s in range(m)}
            expected[NULL_SCHOOL] = len(plist) + 1
            assert {s: rank_of(problem, i, s) for s in expected} == expected
        for student, school, message in (
            (0, -2, "invalid school id -2"),
            (0, m, f"invalid school id {m}"),
            (-1, 0, "invalid student id -1"),
            (n, NULL_SCHOOL, f"invalid student id {n}"),
        ):
            with pytest.raises(InputError) as exc:
                rank_of(problem, student, school)
            assert str(exc.value) == message
        # a null or unlisted seat lies below the whole list, so all of it is envied
        whole_list = [[i for i in range(n) if s in problem.prefs[i]] for s in range(m)]
        assert envied(problem, (NULL_SCHOOL,) * n) == whole_list
        for i, plist in enumerate(problem.prefs):
            unlisted = [s for s in range(m) if s not in plist]
            if unlisted:
                seated = [NULL_SCHOOL] * n
                seated[i] = unlisted[0]
                assert envied(problem, seated) == whole_list


def test_rank_tables_match_list_positions():
    for rep in range(5):
        problem = gen_instance(GenConfig(n=9, model="iid", replications=1, seed=77), rep)
        for school, plist in enumerate(problem.priorities):
            assert [problem._prio_rank[school][i] for i in plist] == list(range(1, 10))
        for student, plist in enumerate(problem.prefs):
            assert [problem._pref_rank[student][s] for s in plist] == list(range(1, 10))


def test_star_import_binds_every_public_name():
    import matchlab

    namespace = {}
    exec("from matchlab import *", namespace)
    assert len(set(matchlab.__all__)) == len(matchlab.__all__)
    assert all(name in namespace for name in matchlab.__all__)
