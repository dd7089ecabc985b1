import random

import pytest

from matchlab import da as da_mod
from matchlab.analysis import is_pareto_efficient
from matchlab.da import DaTrace, run_da
from matchlab.eada import EadaIteration, EadaRun, eada_orbit, run_eada
from matchlab.fixtures import load_fixture
from matchlab.model import InputError, Problem, rank_of, respects_priorities_of
from matchlab.simgen import GenConfig, gen_instance

from conftest import large_markets, matching_by_name, random_market


def naive_da(prefs, priorities, quotas):
    """Sequential student-proposing DA over dicts; {student: school} for the assigned."""
    tried = {i: 0 for i in prefs}
    held = {s: [] for s in quotas}
    free = sorted(prefs)
    while free:
        i = free.pop()
        if tried[i] == len(prefs[i]):
            continue
        s = prefs[i][tried[i]]
        tried[i] += 1
        held[s].append(i)
        if len(held[s]) > quotas[s]:
            worst = max(held[s], key=priorities[s].index)
            held[s].remove(worst)
            free.append(worst)
    return {i: s for s, roster in held.items() for i in roster}


def simplified_eada(problem):
    """Full-consent EADA after Tang and Yu (JET 2014), straight from its definition.

    Run DA; a school nobody prefers to their DA seat is underdemanded.  Fix
    the students placed at underdemanded schools and the unassigned students,
    remove them and the underdemanded schools, and repeat on the rest.
    """
    students = set(range(problem.n_students))
    schools = set(range(problem.n_schools))
    final = [-1] * problem.n_students
    while students:
        prefs = {i: [s for s in problem.prefs[i] if s in schools] for i in students}
        prios = {s: [i for i in problem.priorities[s] if i in students] for s in schools}
        seat = naive_da(prefs, prios, {s: problem.quotas[s] for s in schools})

        def wants(i, s):
            above = prefs[i][: prefs[i].index(seat[i])] if i in seat else prefs[i]
            return s in above

        under = {s for s in schools if not any(wants(i, s) for i in students)}
        fixed = {i for i in students if i not in seat or seat[i] in under}
        assert under or fixed, "every DA outcome has an underdemanded school"
        for i in fixed:
            final[i] = seat.get(i, -1)
        students -= fixed
        schools -= under
    return tuple(final)


def kesten_eada(problem, consent):
    """Kesten's EADA, the reference for the peel: rerun DA after deleting, from
    one mutable copy of the lists, the school of every consenting interrupter
    rejected in the latest round that has one, until no consenting student
    interrupts."""
    members = frozenset(consent)
    prefs = [list(p) for p in problem.prefs]

    def rerun():
        matching, log = da_mod._propose(problem, prefs)
        # The trace replays lazily, so it gets a frozen copy of the lists.
        return matching, DaTrace(matching, tuple(map(tuple, prefs)), log).pairs

    matching, pairs = rerun()
    iterations = []
    while True:
        consenting = [p for p in pairs if p.student in members]
        if not consenting:
            break
        last_round = consenting[-1].rejection_round
        batch = sorted((p.student, p.school) for p in consenting if p.rejection_round == last_round)
        for student, school in batch:
            prefs[student].remove(school)
        matching, pairs = rerun()
        iterations.append(EadaIteration(tuple(batch), matching))
    return matching, EadaRun(tuple(iterations), matching)


def deleted_names(problem, run):
    return [[(problem.students[i], problem.schools[s]) for i, s in it.deleted] for it in run.iterations]


def test_eada_full_consent_ex1(ex1):
    expected = matching_by_name(
        ex1, {"i1": "s6", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s4", "i7": "s7"}
    )
    matching, run = run_eada(ex1, range(ex1.n_students))
    assert matching == run.final == expected
    assert deleted_names(ex1, run) == [
        [("i7", "s4")],
        [("i2", "s1")],
        [("i5", "s3"), ("i5", "s4"), ("i5", "s6")],
        [("i3", "s6")],
    ]
    matching, run = kesten_eada(ex1, range(ex1.n_students))
    assert matching == run.final == expected
    assert deleted_names(ex1, run) == [[("i7", "s4")], [("i3", "s6")], [("i5", "s6")]]


def test_eada_partial_consent_ex1(ex1):
    consent = {ex1.student_id(n) for n in ("i1", "i5", "i7")}
    expected = matching_by_name(
        ex1, {"i1": "s4", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s6", "i7": "s7"}
    )
    matching, run = run_eada(ex1, consent)
    assert matching == expected
    assert deleted_names(ex1, run) == [[("i7", "s4")], [("i5", "s3"), ("i5", "s4"), ("i5", "s6")]]
    matching, run = kesten_eada(ex1, consent)
    assert matching == expected
    assert len(run.iterations) == 1  # stops once the last interrupter is i3, a non-consenter


def test_eada_empty_consent_is_da(ex1):
    da, _ = run_da(ex1)
    for eada in (run_eada, kesten_eada):
        matching, run = eada(ex1, ())
        assert matching == da
        assert run.iterations == ()


def test_eada_rejects_bad_consent(ex1):
    for consent in ({42}, {-1}, {1.5}, {"1"}, {None}, {True}, None, [[0]]):
        with pytest.raises(InputError):
            run_eada(ex1, consent)


def test_peel_matches_kesten_eada():
    rng = random.Random(2026)
    cases = []
    for _ in range(4000):
        problem = random_market(rng)
        n = problem.n_students
        one = rng.randrange(n)
        for consent in (
            set(),
            {one},
            set(range(n)) - {one},
            set(range(n)),
            {i for i in range(n) if rng.random() < 0.5},
        ):
            cases.append((problem, consent))
    for model, rho in (("iid", None), ("correlated", 0.5), ("correlated", 0.9)):
        for n in (5, 10, 20, 30):
            config = GenConfig(n=n, model=model, rho=rho, replications=1, seed=2026 + n)
            for rep in range(10):
                problem = gen_instance(config, rep)
                for consent in (set(range(n)), {i for i in range(n) if rng.random() < 0.5}):
                    cases.append((problem, consent))
    for name in ("ex1", "exnoeff", "explus", "exd", "exe"):
        problem = load_fixture(name)
        n = problem.n_students
        cases += [(problem, {i for i in range(n) if mask >> i & 1}) for mask in range(1 << n)]
    for problem, consent in cases:
        matching, run = run_eada(problem, consent)
        assert matching == run.final == kesten_eada(problem, consent)[0], (problem, consent)
        if not consent:
            assert run.iterations == ()


def test_peel_matches_kesten_eada_at_certificate_sizes():
    # Full consent on every third of the fixed ``large_markets`` (10 markets,
    # n = 43-118).
    for problem in large_markets()[::3]:
        everyone = range(problem.n_students)
        assert run_eada(problem, everyone)[0] == kesten_eada(problem, everyone)[0]


def test_eada_orbit_ex1(ex1):
    orbit = eada_orbit(ex1)
    assert len(orbit) == 128
    jpe = matching_by_name(
        ex1, {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4", "i7": "s7"}
    )
    assert all(m.assignment != jpe.assignment for m in orbit.values())
    jbc = matching_by_name(
        ex1, {"i1": "s4", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s6", "i7": "s7"}
    )
    assert any(m.assignment == jbc.assignment for m in orbit.values())
    assert orbit[frozenset({ex1.student_id("i7")})].assignment == jbc.assignment


def test_eada_orbit_one_student():
    problem = Problem(
        students=("a",), schools=("x",), quotas=(1,), prefs=((0,),), priorities=((0,),)
    )
    da, _ = run_da(problem)
    orbit = eada_orbit(problem)
    assert set(orbit) == {frozenset(), frozenset({0})}
    assert all(m == da for m in orbit.values())


def test_eada_orbit_refuses_large_instances():
    n = 21
    problem = Problem(
        students=tuple(f"i{k}" for k in range(n)),
        schools=tuple(f"s{k}" for k in range(n)),
        quotas=(1,) * n,
        prefs=tuple((k,) for k in range(n)),
        priorities=(tuple(range(n)),) * n,
    )
    with pytest.raises(InputError):
        eada_orbit(problem)


def test_eada_dominance_and_respect_random():
    rng = random.Random(1)
    for n in (4, 5, 6, 7):
        for rep in range(25):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=250 + n), rep)
            da, _ = run_da(problem)
            consent = frozenset(i for i in range(n) if rng.random() < 0.5)
            matching, _ = run_eada(problem, consent)
            for i in range(n):
                assert rank_of(problem, i, matching.assignment[i]) <= rank_of(
                    problem, i, da.assignment[i]
                )
            assert respects_priorities_of(problem, matching, set(range(n)) - consent)


def test_eada_consent_monotonicity_random():
    rng = random.Random(2)
    for n in (4, 5, 6, 7):
        for rep in range(20):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=270 + n), rep)
            consent = frozenset(i for i in range(n) if rng.random() < 0.5)
            i = rng.randrange(n)
            base, _ = run_eada(problem, consent)
            joined, _ = run_eada(problem, consent | {i})
            assert rank_of(problem, i, joined.assignment[i]) <= rank_of(
                problem, i, base.assignment[i]
            )


def test_eada_full_consent_is_pareto_efficient_random():
    for n in (4, 5, 6, 7):
        for rep in range(25):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=290 + n), rep)
            matching, _ = run_eada(problem, range(n))
            assert is_pareto_efficient(problem, matching)


def test_full_consent_matches_simplified_eada():
    rng = random.Random(2014)
    markets = [random_market(rng) for _ in range(3000)]
    for model, rho in (("iid", None), ("correlated", 0.5)):
        for n in (10, 20, 30):
            config = GenConfig(n=n, model=model, rho=rho, replications=1, seed=2014 + n)
            markets += [gen_instance(config, rep) for rep in range(10)]
    for problem in markets:
        matching, _ = run_eada(problem, range(problem.n_students))
        assert matching.assignment == simplified_eada(problem)
