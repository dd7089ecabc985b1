import random
from dataclasses import dataclass

import pytest

from matchlab import model, oracle
from matchlab.da import run_da
from matchlab.envy import build_envy, decompose_as_packing
from matchlab.fixtures import load_fixture
from matchlab.model import NULL_SCHOOL, InputError, Problem, load_problem, problem_from_dict, rank_of, trade
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


def assert_loads_as_parsed(path):
    """``load_problem`` gives what ``problem_from_dict`` of the full parse
    gives: an equal problem with equal rank tables, or an ``InputError``
    with the same text."""

    def outcome(load):
        model._last_problem = None  # each load builds its own problem
        try:
            problem = load(path)
        except InputError as exc:
            return str(exc)
        return problem, problem._pref_rank, problem._prio_rank, problem.completed_priorities

    def parsed(path):
        return problem_from_dict(model._parse_json(model._decode(model._read_bytes(path), path), path))

    assert outcome(load_problem) == outcome(parsed)


def matching_by_name(problem, moves: dict):
    """Build a matching from {student name: school name}; others unassigned."""
    assignment = [-1] * problem.n_students
    for sname, cname in moves.items():
        assignment[problem.student_id(sname)] = problem.school_id(cname)
    return tuple(assignment)


def names_of(problem, ids):
    return sorted(problem.students[i] for i in ids)


def apply_packing(problem, da_matching, packing):
    """Trade along every cycle: each member takes her successor's seat.

    Covered students strictly improve; everyone else keeps her assignment.
    Raises ``InputError`` for overlapping cycles or non-edges.
    """
    names, seats, takes = problem.students, da_matching, {}
    for cycle in packing:
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


def held_by_round(trace, n_schools):
    """Full per-round tentative rosters, carrying holds across quiet rounds."""
    current = [()] * n_schools
    out = []
    for rnd in trace.rounds:
        for s, kept in rnd.held.items():
            current[s] = kept
        out.append(list(current))
    return out


def interrupters_by_definition(problem, trace):
    """Kesten's interrupting pairs ``(student, school, rejection_round)`` by a
    post-hoc scan of the whole DA trace, sorted by (round, student, school).

    (i, s, r) qualifies when i, held at s at the end of round r - 1, is
    rejected from s in round r, and some other student was rejected from s
    in a round at whose end i was held there.  Walks back from r - 1 over
    the rounds in which i was held.
    """
    rosters = held_by_round(trace, problem.n_schools)
    pairs = []
    for r, rnd in enumerate(trace.rounds):
        for s, rejected in rnd.rejected.items():
            for i in rejected:
                if r == 0 or i not in rosters[r - 1][s]:
                    continue  # never held: rejected on arrival
                for back in range(r - 1, -1, -1):
                    if i not in rosters[back][s]:
                        break
                    if any(j != i for j in trace.rounds[back].rejected.get(s, ())):
                        pairs.append((i, s, r + 1))
                        break
    return sorted(pairs, key=lambda p: (p[2], p[0], p[1]))


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
        if build_envy(problem).improvable:
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


def corr50_markets(count):
    """The first ``count`` markets of the bench's ``sim-corr50`` pool: the
    correlated rho = 0.5, n = 50 replication 0 at seeds 0, 1, ..."""
    return [
        gen_instance(GenConfig(n=50, model="correlated", rho=0.5, replications=1, seed=j), 0)
        for j in range(count)
    ]


@dataclass(frozen=True)
class Theorem5Report:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def verify_theorem5_steps(problem: Problem, budget: int = oracle.BUDGET) -> Theorem5Report:
    """Instance-level checks behind the consent-mechanism impossibility.

    Expects an instance shaped like the bundled ``ex1`` fixture (students
    i1..i7, schools s1..s7).  On a mutated instance the checks simply
    report which steps no longer hold.
    """
    sid = problem.student_id
    cid = problem.school_id
    try:
        i1, i3, i5, i7 = sid("i1"), sid("i3"), sid("i5"), sid("i7")
        s1, s4 = cid("s1"), cid("s4")
    except InputError:
        raise InputError(
            "the consent-impossibility checks need the ex1 student/school names"
        ) from None

    da_matching, _ = run_da(problem)
    everything = list(oracle.enumerate_matchings(problem, budget))
    dominating = [m for m in everything if oracle.dominates_strictly(problem, m, da_matching)]
    students = frozenset(range(problem.n_students))

    def by_names(moves: dict[str, str]):
        assignment = list(da_matching)
        for sname, cname in moves.items():
            assignment[sid(sname)] = cid(cname)
        return tuple(assignment)

    three_cycle = by_names({"i1": "s4", "i4": "s5", "i5": "s1"})
    two_cycle = by_names(
        {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4"}
    )

    checks = []

    w1 = frozenset({i7})
    found = [m for m in dominating if oracle.respects_scan(problem, m, students - w1)]
    checks.append(
        (
            "w1_unique_respecting_improvement_is_three_cycle",
            list(found) == [three_cycle],
            f"{len(found)} improvement(s) respect everyone outside {{i7}}",
        )
    )

    w2 = frozenset({i5, i7})
    bound = oracle.rank_scan(problem, i5, s1)
    found = [
        m
        for m in dominating
        if oracle.rank_scan(problem, i5, m[i5]) <= bound
        and oracle.respects_scan(problem, m, students - w2)
    ]
    checks.append(
        (
            "w2_unique_improvement_serving_i5_is_three_cycle",
            list(found) == [three_cycle],
            f"{len(found)} candidate(s) give i5 her consent-compatible gain",
        )
    )

    w3 = frozenset({i1, i5, i7})
    bound = oracle.rank_scan(problem, i1, s4)
    singles = []
    for m in dominating:
        if oracle.rank_scan(problem, i1, m[i1]) > bound:
            continue
        packing = decompose_as_packing(problem, m)
        if packing is None or len(packing) != 1:
            continue
        if i1 in packing[0]:
            singles.append(m)
    violating = [
        m
        for m in singles
        if any(v not in w3 for v, _, _ in oracle.violations_scan(problem, m))
    ]
    ok_w3 = (
        len(singles) == 2
        and len(violating) == 1
        and any(v == i3 for v, _, _ in oracle.violations_scan(problem, violating[0]))
    )
    checks.append(
        (
            "w3_exactly_two_cycles_serve_i1_one_violating_i3",
            ok_w3,
            f"{len(singles)} single-cycle improvement(s) serve i1; "
            f"{len(violating)} violate outsiders",
        )
    )

    efficient = not any(
        oracle.dominates_strictly(problem, other, two_cycle) for other in everything
    )
    checks.append(
        (
            "w3_two_cycle_packing_efficient_dominating_and_respecting",
            efficient
            and oracle.dominates_strictly(problem, two_cycle, da_matching)
            and oracle.respects_scan(problem, two_cycle, students - w3),
            "pairing the 2-cycle with the 4-cycle beats DA, is efficient, "
            "and respects all non-consenters",
        )
    )

    return Theorem5Report(tuple(checks))
