import hashlib
import inspect
import itertools
import json
import random

import numpy as np
import pytest

import matchlab
from matchlab import analysis, cli, eada, sjbc_plus
from matchlab.analysis import beneficiaries, is_justifiable, reassignment_chain
from matchlab.eada import run_eada
from matchlab.envy import LabelledEnvyDigraph, da_context, packing_label
from matchlab.fixtures import fixture_path
from matchlab.model import (
    A_DOMINATES,
    B_DOMINATES,
    EQUAL,
    INCOMPARABLE,
    NULL_SCHOOL,
    InputError,
    Matching,
    Problem,
    _instance_digest,
    dump_matching,
    is_nonwasteful,
    load_problem,
    matching_from_dict,
    matching_to_dict,
    pareto_compare,
    problem_from_dict,
    priority_rank_of,
    problem_to_dict,
    envied,
    rank_of,
    respects_priorities_of,
    violations,
)
from matchlab.da import run_da
from matchlab.jbc import run_jbc
from matchlab.simgen import GenConfig, gen_instance
from matchlab.sjbc_plus import run_expansion, run_refinement, run_sjbc_plus

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


EX1_RAW = fixture_path("ex1").read_bytes()


@pytest.mark.parametrize(
    "raw, message",
    [
        (
            EX1_RAW[:380] + b"\xff" + EX1_RAW[380:],
            "'utf-8' codec can't decode byte 0xff in position 380: invalid start byte",
        ),
        (
            EX1_RAW.replace(b"{", b"{" + b" " * 9000 + b"\xff", 1),
            "'utf-8' codec can't decode byte 0xff in position 9001: invalid start byte",
        ),
        (
            EX1_RAW + "é".encode()[:1],
            "'utf-8' codec can't decode byte 0xc3 in position 759: unexpected end of data",
        ),
        (
            EX1_RAW.replace(b'"i1"', '"i1é"'.encode("latin-1"), 1),
            "'utf-8' codec can't decode byte 0xe9 in position 20: invalid continuation byte",
        ),
        (
            b"\xef\xbb\xbf" + EX1_RAW,
            "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
        ),
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        # the CR becomes a newline, as text mode reads it
        (
            EX1_RAW.replace(b'"i1"', b'"i\r1"', 1),
            "Invalid control character at: line 2 column 18 (char 19)",
        ),
        # positions count one character per CRLF
        (
            EX1_RAW.replace(b"\n", b"\r\n")[:400],
            "Expecting property name enclosed in double quotes: line 14 column 24 (char 387)",
        ),
    ],
    ids=["ff-middle", "ff-past-8KiB", "cut-multibyte", "latin-1", "bom", "empty", "raw-cr", "cut-crlf"],
)
def test_loader_error_text_for_each_byte_fault(tmp_path, raw, message):
    path = tmp_path / "inst.json"
    path.write_bytes(raw)
    with pytest.raises(InputError) as info:
        load_problem(path)
    assert str(info.value) == f"invalid JSON in {path}: {message}"


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_line_ends_load_the_same_problem(tmp_path, newline):
    lf, other = tmp_path / "lf.json", tmp_path / "other.json"
    lf.write_bytes(EX1_RAW)
    other.write_bytes(EX1_RAW.replace(b"\n", newline))
    assert load_problem(other) == load_problem(lf)


def test_kept_problem_is_keyed_by_the_file_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr("matchlab.model._last_problem", None)
    first, again, crlf = tmp_path / "first.json", tmp_path / "again.json", tmp_path / "crlf.json"
    first.write_bytes(EX1_RAW)
    again.write_bytes(EX1_RAW)
    crlf.write_bytes(EX1_RAW.replace(b"\n", b"\r\n"))
    problem = load_problem(first)
    assert load_problem(again) is problem
    # the same text in other bytes is another key, so it builds a problem of its own
    other = load_problem(crlf)
    assert other is not problem and other == problem
    # the rank tables are as immutable as the problem that owns them
    with pytest.raises(TypeError):
        problem._pref_rank[0][0] = 1
    with pytest.raises(TypeError):
        problem._prio_rank[0][0] = 1


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
        (((-3, 1, 2), (2, 1, 0)), "priority list of x is not a permutation of all students"),
        (((False, 1, 2), (2, 1, 0)), "priority list of x is not a permutation of all students"),
        (((0, 1, 2), (2, True, 0)), "priority list of y is not a permutation of all students"),
        ((None, (2, 1, 0)), "priority list of x is not a permutation of all students"),
        (((0, 1, 2), 7), "priority list of y is not a permutation of all students"),
        (((0, 1, 2), (i for i in (2, 2, 0))), "priority list of y is not a permutation of all students"),
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
        (((False, 1), (1,), ()), "invalid school id False in preferences of a"),
        (((0, 1), (True,), ()), "invalid school id True in preferences of b"),
        (((0, [1]), (1,), ()), "invalid school id [1] in preferences of a"),
        ((None, (1,), ()), "preference list of a is not iterable"),
        (((0, 1), 1, ()), "preference list of b is not iterable"),
        (((s for s in (0, 0)), (1,), ()), "duplicate school in preference list of a"),
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


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"prefs": {"a": ["x"], "bb": ["x", "y"]}}, "unknown student 'bb' keys a row of preferences"),
        ({"priorities": {"x": ["a", "b"], "y": [], "z": ["b"]}}, "unknown school 'z' keys a row of priorities"),
        ({"prefs": {"zz": []}, "priorities": {"zz": []}}, "unknown student 'zz' keys a row of preferences"),
        # every other fault is named first, with its own text
        ({"prefs": {"a": ["x", "x"], "bb": []}}, "duplicate school in preference list of a"),
        ({"prefs": {"a": ["w"], "bb": []}}, "unknown school 'w' in preferences of a"),
        ({"priorities": {"x": ["a", "a"], "z": []}}, "duplicate student in priorities of x"),
    ],
)
def test_rows_keyed_by_unknown_names_are_refused(tmp_path, fields, message):
    # Such a row was dropped unread: with b misspelt as bb, b had an empty
    # list and DA left her unassigned.
    with pytest.raises(InputError) as exc:
        problem_from_dict(instance_dict(**fields))
    assert str(exc.value) == message
    path = tmp_path / "stray.json"
    path.write_text(json.dumps(instance_dict(**fields)), encoding="utf-8")
    assert cli.main(["solve", "--mechanism", "da", str(path)]) == 2


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


def _put(seq, k, x):
    return tuple(seq[:k]) + (x,) + tuple(seq[k + 1 :])


def _rebuilt(problem, **fields):
    kept = {f: getattr(problem, f) for f in ("students", "schools", "quotas", "prefs", "priorities")}
    return Problem(**{**kept, **fields})


# The slot each parameter of a public entry fills, by parameter name, and the
# parameters that take no id.  A parameter in neither fails the test below
# until it is listed.
ID_SLOTS = {
    "student": "student",
    "claimant": "student",
    "school": "school",
    "consent": "students",
    "protected": "students",
    "b_star": "students",
    "packing": "cycles",
    "matching": "matching",
    "mu_star": "matching",
    "a": "matching",
    "b": "matching",
    "replication_index": "replication",
    "i": "student",
    "j": "student",
}
NOT_IDS = {"problem", "trace", "state", "config", "budget", "jobs"}
ID_KIND = {"students": "student", "cycles": "student", "matching": "school"}  # else the slot

# The values tried in an id slot beside its valid argument on ex1.
EXTRA_VALUES = {
    ("run_eada", "consent"): lambda p: [range(p.n_students)],
    ("decompose_as_packing", "matching"): lambda p: [run_da(p)[0]],
}

# Every public function, priority_rank_of, the checked accessor that the
# package root does not export, and the digraph's has_edge.
ENTRIES = {
    name: getattr(matchlab, name)
    for name in matchlab.__all__
    if inspect.isfunction(getattr(matchlab, name))
}
ENTRIES["priority_rank_of"] = priority_rank_of


def _has_edge(problem, i, j):
    """``LabelledEnvyDigraph.has_edge`` on the problem's DA digraph: a
    public method that takes ids."""
    return da_context(problem)[1].has_edge(i, j)


ENTRIES["LabelledEnvyDigraph.has_edge"] = _has_edge

# Per Problem field: the kind of its ids, the valid ids tried there and the
# construction.  In the first two, True repeats id 1, which the rows already
# hold; the "in place" rows put a bool where the id it equals would go, so
# nothing collides: i2 lists (s1, s2), and s1 ranks i2 third.
PROBLEM_ROWS = {
    "Problem prefs": ("school", (6,), lambda p, x: _rebuilt(p, prefs=_put(p.prefs, 0, p.prefs[0] + (x,)))),
    "Problem priorities": (
        "student",
        (0,),
        lambda p, x: _rebuilt(p, priorities=_put(p.priorities, 0, (x,) + p.priorities[0][1:])),
    ),
    "Problem prefs in place, slot 0": ("school", (0,), lambda p, x: _rebuilt(p, prefs=_put(p.prefs, 1, (x, 1)))),
    "Problem prefs in place, slot 1": ("school", (1,), lambda p, x: _rebuilt(p, prefs=_put(p.prefs, 1, (0, x)))),
    "Problem priorities in place": (
        "student",
        (1,),
        lambda p, x: _rebuilt(p, priorities=_put(p.priorities, 0, _put(p.priorities[0], 2, x))),
    ),
    "Problem quotas": ("quota", (1, 2), lambda p, x: _rebuilt(p, quotas=_put(p.quotas, 0, x))),
}


class IndexOnly:
    """An integer id that only ``__index__`` reads: no arithmetic, no order."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _valid_arguments(p):
    """One valid argument on ex1 per parameter name, which every entry
    answers: i1 (id 0) has a priority claim at s4 (id 3) under SJBC+."""
    plus = run_sjbc_plus(p)
    return {
        "problem": p,
        "student": 0,
        "claimant": 0,
        "school": 3,
        "consent": frozenset({2, 5}),
        "protected": frozenset({6, 0}),
        "b_star": beneficiaries(p, plus),
        "packing": ((0, 3, 4),),
        "matching": plus,
        "mu_star": plus,
        "a": plus,
        "b": run_da(p)[0],
        "config": GenConfig(n=5, model="iid", replications=2, seed=3),
        "replication_index": 1,
        "i": 0,
        "j": 3,  # i1 envies i4's DA seat
    }


def _with_id(slot, value, x):
    """``value`` with one of its ids replaced by ``x``, or joined by it.  A
    set keeps an equal member it already holds, so that member goes first:
    True would otherwise join a set that holds 1 as 1."""
    if slot == "students":
        return {v for v in value if v != x} | {x}
    if slot == "cycles":
        return ((x,) + value[0][1:],) + value[1:]
    if slot == "matching":
        return Matching(_put(value.assignment, 1, x))
    return x


def _ids_as(slot, value, spell):
    """``value`` with each of its ids spelled as ``spell(id)``."""
    if slot == "students":
        return frozenset(map(spell, value))
    if slot == "cycles":
        return tuple(tuple(map(spell, c)) for c in value)
    if slot == "matching":
        return Matching(tuple(map(spell, value.assignment)))
    return spell(value)


def _plain(result, name):
    """``result``, asserting that a returned matching holds plain ints in a tuple."""
    if isinstance(result, Matching):
        assert type(result.assignment) is tuple and all(type(s) is int for s in result.assignment), name
    return result


def _answer(call, name, value):
    """``call(name, value)``'s result, or the text of the ``InputError`` it raises."""
    try:
        return _plain(call(name, value), name)
    except InputError as exc:
        return f"InputError: {exc}"


@pytest.mark.parametrize("entry", [*ENTRIES, *PROBLEM_ROWS])
def test_entries_take_ids_by_one_rule(ex1, entry):
    # Every id slot of every entry refuses a float, None, a bool, a negative
    # id and one past the end with InputError, a collection slot refuses a
    # non-collection, and each entry answers numpy integers and ids that
    # only __index__ reads as plain ints.  A matching slot answers its
    # assignment as a list or a numpy array as it answers the tuple.
    past = {"student": ex1.n_students, "school": ex1.n_schools, "quota": 0, "replication": 2**64}
    if entry in PROBLEM_ROWS:
        kind, valid, build = PROBLEM_ROWS[entry]
        for bad in (1.5, None, True, False, -2, past[kind], IndexOnly(-2), IndexOnly(past[kind])):
            with pytest.raises(InputError):
                build(ex1, bad)
        for good in valid:
            plain = build(ex1, good)
            numpy = build(ex1, np.int64(good))
            assert numpy == plain
            # a numpy id is judged by _check_ids and kept as its plain int
            assert all(type(v) is int for row in numpy.prefs + numpy.priorities for v in row)
            assert all(type(q) is int for q in numpy.quotas)
            # an id that only __index__ reads is taken, and kept, by its value
            other = build(ex1, IndexOnly(good))
            assert other == plain
            assert (other._pref_rank, other._prio_rank) == (plain._pref_rank, plain._prio_rank)
            assert run_eada(other, range(other.n_students)) == run_eada(plain, range(plain.n_students))
        return
    fn = ENTRIES[entry]
    names = list(inspect.signature(fn).parameters)
    assert set(names) <= ID_SLOTS.keys() | NOT_IDS, f"list each parameter of {entry}"
    slots = [name for name in names if name in ID_SLOTS]
    if not slots:
        return
    valid = _valid_arguments(ex1)
    args = {name: valid[name] for name in names}

    def call(name, value):
        return fn(*{**args, name: value}.values())

    for name in slots:
        slot = ID_SLOTS[name]
        kind = ID_KIND.get(slot, slot)
        for bad in (1.5, None, True, -2, past[kind]):
            with pytest.raises(InputError) as exc:
                call(name, _with_id(slot, args[name], bad))
            assert str(exc.value) == f"invalid {kind} id {bad}", name
        if slot == "students":
            with pytest.raises(InputError) as exc:
                call(name, 5)
            assert str(exc.value) == f"{name} must be a collection of student ids"
        # each valid argument is answered, and answered alike when spelled otherwise
        for value in (args[name], *EXTRA_VALUES.get((entry, name), lambda p: [])(ex1)):
            expected = _plain(call(name, value), name)
            for spell in (np.int64, IndexOnly):
                assert _answer(call, name, _ids_as(slot, value, spell)) == expected, name
        # the null school, as a numpy integer, is answered like the plain one
        if slot == "school":
            assert _answer(call, name, np.int64(NULL_SCHOOL)) == _answer(call, name, NULL_SCHOOL), name
        if slot == "matching":
            unseated = _with_id(slot, args[name], NULL_SCHOOL)
            outright = _plain(call(name, args[name]), name)  # the valid argument raises nothing
            for value, plain in ((args[name], outright), (unseated, _answer(call, name, unseated))):
                for assignment in (list(value.assignment), np.array(value.assignment)):
                    assert _answer(call, name, Matching(assignment)) == plain, name
            numpy_unseated = _ids_as(slot, unseated, np.int64)
            index_unseated = _with_id(slot, args[name], IndexOnly(NULL_SCHOOL))
            for spelled in (numpy_unseated, index_unseated):
                assert _answer(call, name, spelled) == _answer(call, name, unseated), name


@pytest.mark.parametrize("name", ["exnoeff", "explus", "exd", "exe"])
def test_a_null_seat_that_only_index_reads_is_unseated(request, name):
    # Such a seat once put its student on the last school's roster, in
    # Matching.rosters too, so she
    # was named the occupant of blocking triples there; ex1, the market of
    # the test above, has no envier of its last school to show it.
    problem = request.getfixturevalue(name)
    seats = run_sjbc_plus(problem).assignment
    for k in range(problem.n_students):
        plain, spelled = Matching(_put(seats, k, NULL_SCHOOL)), Matching(_put(seats, k, IndexOnly(NULL_SCHOOL)))
        assert violations(problem, spelled) == violations(problem, plain)
        assert spelled.rosters(problem) == plain.rosters(problem)


def test_rows_are_kept_as_tuples(ex1):
    # A list or generator row is kept as a tuple, so the problem hashes and
    # equals the one built from tuples, and no row can grow past its rank table.
    plain = _rebuilt(ex1)
    listed = _rebuilt(ex1, prefs=[list(row) for row in ex1.prefs], priorities=list(map(list, ex1.priorities)))
    assert listed == plain and hash(listed) == hash(plain)
    assert all(type(row) is tuple for row in listed.prefs + listed.priorities)
    assert _rebuilt(ex1, prefs=list(map(iter, ex1.prefs)), priorities=list(map(iter, ex1.priorities))) == plain
    # a tuple row is kept as the very object passed in
    assert all(new is old for new, old in zip(plain.prefs + plain.priorities, ex1.prefs + ex1.priorities))


def test_names_and_completed_ids_are_kept_checked():
    # List and generator names are kept as tuples and a set of completed ids
    # as the frozenset of the ids _check_ids admits, so the problem hashes
    # and equals the one built from tuples.
    rows = {"quotas": (1, 1), "prefs": ((0, 1), (1,)), "priorities": ((0, 1), (1, 0))}
    plain = Problem(("a", "b"), ("x", "y"), completed_priorities=frozenset({1}), **rows)
    for students, schools, completed in (
        (["a", "b"], ["x", "y"], {1}),
        (iter("ab"), (name for name in "xy"), [np.int64(1)]),
    ):
        built = Problem(students, schools, completed_priorities=completed, **rows)
        assert built == plain and hash(built) == hash(plain)
        assert type(built.students) is tuple and type(built.schools) is tuple
        assert type(built.completed_priorities) is frozenset
        assert all(type(s) is int for s in built.completed_priorities)
    for bad in ({2}, {-1}, {True}, {1.0}):
        with pytest.raises(InputError, match=f"^invalid school id {next(iter(bad))}$"):
            Problem(("a", "b"), ("x", "y"), completed_priorities=bad, **rows)
    with pytest.raises(InputError, match="^completed_priorities must be a collection of school ids$"):
        Problem(("a", "b"), ("x", "y"), completed_priorities=1, **rows)


def test_matching_keeps_a_tuple(ex1):
    # A list or numpy assignment is kept as a tuple: the matching equals and
    # hashes like the one built from the tuple, and holds no mutable value.
    m = run_sjbc_plus(ex1)
    for assignment in (list(m.assignment), np.array(m.assignment), iter(m.assignment)):
        other = Matching(assignment)
        assert type(other.assignment) is tuple
        assert other == m and hash(other) == hash(m)
        assert dump_matching(ex1, other) == dump_matching(ex1, m)


def test_numpy_rows_give_plain_ints(ex1):
    # Rows of numpy integers are judged id by id, so the problem, DA's trace
    # and EADA's deleted pairs hold plain ints, as they do from tuples.
    numpy = _rebuilt(ex1, prefs=[np.array(row) for row in ex1.prefs], priorities=list(np.array(ex1.priorities)))
    assert numpy == _rebuilt(ex1)
    assert all(type(v) is int for row in numpy.prefs + numpy.priorities for v in row)
    rounds = run_da(numpy)[1].rounds
    assert rounds == run_da(ex1)[1].rounds
    for rnd in rounds:
        for table in (rnd.applicants, rnd.held, rnd.rejected):
            assert all(type(v) is int for s, ids in table.items() for v in (s, *ids))
    run = run_eada(numpy, range(numpy.n_students))[1]
    assert run == run_eada(ex1, range(ex1.n_students))[1]
    deleted = [v for it in run.iterations for pair in it.deleted for v in pair]
    assert deleted and all(type(v) is int for v in deleted)


def test_cannot_happen_errors_name_their_instance(ex1, monkeypatch):
    # Each guard is reached by breaking what it relies on; its message ends
    # with the first 16 hex digits of the SHA-256 of the instance's JSON.
    text = json.dumps(problem_to_dict(ex1), sort_keys=True)
    assert _instance_digest(ex1) == hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    crossed = Problem(("a", "b"), ("x", "y"), (1, 1), ((0, 1), (1, 0)), ((0, 1), (0, 1)))
    crossed_digraph = LabelledEnvyDigraph(frozenset({0, 1}), (1, 0), ((0,), (1,)), ({0: 0}, {1: 0}))
    i7, s4 = ex1.student_id("i7"), ex1.school_id("s4")
    jbc_matching = run_jbc(ex1)[0]
    sites = [
        # a solver that keeps everyone home leaves JBC's traders without a cover
        (sjbc_plus, "linear_sum_assignment", lambda cost: (np.arange(len(cost)),) * 2,
         ex1, lambda: run_sjbc_plus(ex1), "no feasible trade permutation"),
        # a cycle search that always answers trades two members back and forth
        (sjbc_plus, "_find_cycle", lambda nodes, adj: nodes[:2],
         ex1, lambda: run_sjbc_plus(ex1), "refinement exceeded its iteration bound"),
        # each displaced student claims the contested school again
        (analysis, "min", lambda candidates, default: (0, s4),
         ex1, lambda: reassignment_chain(ex1, jbc_matching, i7, s4), "chain failed to terminate"),
        # a DA outcome in which each student sits where the other wants to be,
        # with a digraph in which each desires the other's seat
        (eada, "da_context", lambda problem: (Matching((1, 0)), crossed_digraph),
         crossed, lambda: run_eada(crossed, {0, 1}), "a layer fixed no student"),
    ]
    for module, name, broken, problem, run, message in sites:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, broken, raising=False)  # min is a builtin
            with pytest.raises(RuntimeError) as exc:
                run()
        assert message in str(exc.value)
        assert str(exc.value).endswith(f", instance {_instance_digest(problem)}"), message
