import random

import pytest

from matchlab.da import run_da
from matchlab.envy import build_envy
from matchlab.fixtures import load_fixture
from matchlab.model import NULL_SCHOOL, InputError, Matching, Problem, rank_of, trade
from matchlab.simgen import GenConfig, gen_instance


@pytest.fixture(scope="session")
def ex1():
    return load_fixture("ex1")


@pytest.fixture(scope="session")
def exnoeff():
    return load_fixture("exnoeff")


@pytest.fixture(scope="session")
def explus():
    return load_fixture("explus")


@pytest.fixture(scope="session")
def exd():
    return load_fixture("exd")


@pytest.fixture(scope="session")
def exe():
    return load_fixture("exe")


def matching_by_name(problem, moves: dict) -> Matching:
    """Build a matching from {student name: school name}; others unassigned."""
    assignment = [-1] * problem.n_students
    for sname, cname in moves.items():
        assignment[problem.student_id(sname)] = problem.school_id(cname)
    return Matching(tuple(assignment))


def names_of(problem, ids):
    return sorted(problem.students[i] for i in ids)


def apply_packing(problem, da_matching, packing) -> Matching:
    """Trade along every cycle: each member takes her successor's seat.

    Covered students strictly improve; everyone else keeps her assignment.
    Raises ``InputError`` for overlapping cycles or non-edges.
    """
    names, seats, takes = problem.students, da_matching.assignment, {}
    for cycle in packing.cycles:
        if len(cycle) < 2 or not all(0 <= i < problem.n_students for i in cycle):
            raise InputError(f"not a cycle of two or more students: {cycle}")
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            if i in takes:
                raise InputError(f"student {names[i]} appears in two cycles")
            target = seats[j]
            if target == NULL_SCHOOL or rank_of(problem, i, target) >= rank_of(problem, i, seats[i]):
                raise InputError(f"{names[i]} -> {names[j]} is not an envy edge")
            takes[i] = j
    return trade(da_matching, takes)


def stats_value(stats, mechanism, metric):
    """The (mean, stderr) of one mechanism's metric in ``run_experiment``'s rows."""
    return {(mech, met): (mean, se) for mech, met, mean, se in stats.rows}[mechanism, metric]


def flag_completed(problem, label):
    """Instances whose priority lists were completed on load get a visible
    note: expectations that touch the appended entries rest on that choice."""
    if problem.completed_priorities:
        done = sorted(problem.schools[s] for s in problem.completed_priorities)
        print(f"note[{label}]: priorities completed for {done}")


def random_market(rng):
    """Quotas 1-3, truncated preference lists, unequal side sizes."""
    n, m = rng.randint(3, 9), rng.randint(2, 5)
    priorities = []
    for _ in range(m):
        order = list(range(n))
        rng.shuffle(order)
        priorities.append(tuple(order))
    return Problem(
        students=tuple(f"i{k}" for k in range(n)),
        schools=tuple(f"s{k}" for k in range(m)),
        quotas=tuple(rng.randint(1, 3) for _ in range(m)),
        prefs=tuple(tuple(rng.sample(range(m), rng.randint(0, m))) for _ in range(n)),
        priorities=tuple(priorities),
    )


def many_to_one_market(rng):
    """4-8 students, 2-5 schools, quotas 1-3; 60% of the preference lists
    are complete, the rest truncated."""
    n, m = rng.randint(4, 8), rng.randint(2, 5)
    prefs = tuple(
        tuple(rng.sample(range(m), m if rng.random() < 0.6 else rng.randint(0, m - 1)))
        for _ in range(n)
    )
    return Problem(
        students=tuple(f"i{k}" for k in range(n)),
        schools=tuple(f"s{k}" for k in range(m)),
        quotas=tuple(rng.randint(1, 3) for _ in range(m)),
        prefs=prefs,
        priorities=tuple(tuple(rng.sample(range(n), n)) for _ in range(m)),
    )


def mixed_markets(seed, count):
    """``count`` seeded ``random_market`` draws, ``count // 4``
    ``many_to_one_market`` draws whose DA some trade improves, and square
    iid and correlated markets at n = 8, 20 and 40."""
    rng = random.Random(seed)
    markets = [random_market(rng) for _ in range(count)]
    improvable = 0
    while improvable < count // 4:
        problem = many_to_one_market(rng)
        if build_envy(problem, run_da(problem)[0]).improvable:
            markets.append(problem)
            improvable += 1
    for n in (8, 20, 40):
        for model, rho in (("iid", None), ("correlated", 0.5)):
            config = GenConfig(n=n, model=model, rho=rho, replications=1, seed=seed + n)
            markets += [gen_instance(config, rep) for rep in range(3)]
    return markets


def large_market(rng, surplus):
    """n = 30-120 students, quotas 1-4, 60% of the preference lists complete
    and the rest truncated.  With ``surplus`` there are n // 2 schools, about
    1.25 n seats; without it n // 4 schools, about 0.62 n seats."""
    n = rng.randint(30, 120)
    m = n // 2 if surplus else n // 4
    prefs = tuple(
        tuple(rng.sample(range(m), m if rng.random() < 0.6 else rng.randint(1, m - 1)))
        for _ in range(n)
    )
    return Problem(
        students=tuple(f"i{k}" for k in range(n)),
        schools=tuple(f"s{k}" for k in range(m)),
        quotas=tuple(rng.randint(1, 4) for _ in range(m)),
        prefs=prefs,
        priorities=tuple(tuple(rng.sample(range(n), n)) for _ in range(m)),
    )


def large_markets():
    """30 seeded ``large_market`` draws, alternately with and without surplus seats."""
    rng = random.Random(5150)
    return [large_market(rng, k % 2 == 0) for k in range(30)]
