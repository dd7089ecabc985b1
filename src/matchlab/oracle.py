"""Brute-force ground truth for small instances.

Everything here recomputes its answers from first principles with plain
list scans: ranks come straight off the preference lists, domination and
violations are exhaustive loops, improvability comes from enumerating every
matching that beats deferred acceptance.  None of the fast-path machinery
(envy digraph, labels, mechanism shortcuts) is reused, so agreement between
the two code paths is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchlab import envy, jbc, sjbc_plus
from matchlab.da import run_da
from matchlab.model import (
    NULL_SCHOOL,
    InputError,
    Matching,
    Problem,
)


def rank_scan(problem: Problem, student: int, school: int) -> int:
    plist = problem.prefs[student]
    if school == NULL_SCHOOL:
        return len(plist)
    try:
        return plist.index(school)
    except ValueError:
        return len(plist) + 1


def prefers(problem: Problem, student: int, a: int, b: int) -> bool:
    return rank_scan(problem, student, a) < rank_scan(problem, student, b)


def priority_scan(problem: Problem, school: int, student: int) -> int:
    return problem.priorities[school].index(student)


def _violations_walk(problem: Problem, matching: Matching):
    """Yield (victim, occupant, school) triples by exhaustive scan, one at a time."""
    for victim in range(problem.n_students):
        for occupant in range(problem.n_students):
            if occupant == victim:
                continue
            school = matching.assignment[occupant]
            if school == NULL_SCHOOL:
                continue
            if prefers(problem, victim, school, matching.assignment[victim]) and (
                priority_scan(problem, school, victim)
                < priority_scan(problem, school, occupant)
            ):
                yield victim, occupant, school


def violations_scan(problem: Problem, matching: Matching) -> list[tuple[int, int, int]]:
    """(victim, occupant, school) triples by exhaustive scan."""
    return list(_violations_walk(problem, matching))


def stable_scan(problem: Problem, matching: Matching) -> bool:
    """No violation at all; the scan stops at the first one it finds."""
    return next(_violations_walk(problem, matching), None) is None


def respects_scan(problem: Problem, matching: Matching, protected) -> bool:
    protected = set(protected)
    return all(v not in protected for v, _, _ in _violations_walk(problem, matching))


def dominates_weakly(problem: Problem, a: Matching, b: Matching) -> bool:
    return all(
        rank_scan(problem, i, a.assignment[i]) <= rank_scan(problem, i, b.assignment[i])
        for i in range(problem.n_students)
    )


def dominates_strictly(problem: Problem, a: Matching, b: Matching) -> bool:
    strict = False
    for i in range(problem.n_students):
        ra = rank_scan(problem, i, a.assignment[i])
        rb = rank_scan(problem, i, b.assignment[i])
        if ra > rb:
            return False
        if ra < rb:
            strict = True
    return strict


def pareto_frontier(problem: Problem, matchings) -> list[Matching]:
    """Maximal elements under Pareto domination.

    A dominator always has a strictly smaller total rank, and domination is
    transitive, so scanning in ascending total-rank order against the
    frontier built so far is exhaustive.
    """
    def total(m):
        return sum(rank_scan(problem, i, m.assignment[i]) for i in range(problem.n_students))

    frontier: list[Matching] = []
    for m in sorted(matchings, key=total):
        if not any(dominates_strictly(problem, f, m) for f in frontier):
            frontier.append(m)
    return frontier


def beneficiaries_scan(problem: Problem, da_matching: Matching, matching: Matching):
    return frozenset(
        i
        for i in range(problem.n_students)
        if prefers(problem, i, matching.assignment[i], da_matching.assignment[i])
    )


def enumerate_matchings(problem: Problem, budget: int = 10_000_000):
    """Yield every feasible, non-wasteful matching exactly once.

    Students take listed schools with spare capacity or the null school; a
    leaf survives only if nobody prefers a school that ended up with a free
    seat.  When all preference lists are complete and seats exactly cover
    students, null-school branches can never be non-wasteful and are pruned.
    Raises ``InputError`` once more than ``budget`` partial assignments have
    been explored.
    """
    n, m = problem.n_students, problem.n_schools
    complete_fill = sum(problem.quotas) == n and all(
        len(p) == m for p in problem.prefs
    )
    free = list(problem.quotas)
    assignment = [NULL_SCHOOL] * n
    explored = 0

    def nonwasteful_leaf() -> bool:
        open_schools = [s for s in range(m) if free[s] > 0]
        if not open_schools:
            return True
        for i in range(n):
            own = rank_scan(problem, i, assignment[i])
            for s in open_schools:
                if rank_scan(problem, i, s) < own:
                    return False
        return True

    def walk(i):
        nonlocal explored
        explored += 1
        if explored > budget:
            raise InputError(f"enumeration budget of {budget} exceeded")
        if i == n:
            if nonwasteful_leaf():
                yield Matching(tuple(assignment))
            return
        for s in problem.prefs[i]:
            if free[s] > 0:
                free[s] -= 1
                assignment[i] = s
                yield from walk(i + 1)
                assignment[i] = NULL_SCHOOL
                free[s] += 1
        if not complete_fill:
            yield from walk(i + 1)

    yield from walk(0)


def _decompose_scan(problem, da_matching, matching):
    """(mover, school-entered) pairs when movers permute occupied seats
    along strict improvements; None otherwise."""
    entries = []
    entrants: dict[int, int] = {}
    leavers: dict[int, int] = {}
    for i in range(problem.n_students):
        old, new = da_matching.assignment[i], matching.assignment[i]
        if old == new:
            continue
        if old == NULL_SCHOOL or new == NULL_SCHOOL:
            return None
        if not prefers(problem, i, new, old):
            return None
        entries.append((i, new))
        entrants[new] = entrants.get(new, 0) + 1
        leavers[old] = leavers.get(old, 0) + 1
    if entrants != leavers:
        return None
    return entries


def _strongly_justifiable_scan(problem, da_matching, matching, improvable) -> bool:
    entries = _decompose_scan(problem, da_matching, matching)
    if entries is None:
        return False
    for i, school in entries:
        for h in improvable:
            if (
                prefers(problem, h, school, da_matching.assignment[h])
                and priority_scan(problem, school, h) < priority_scan(problem, school, i)
            ):
                return False
    return True


@dataclass(frozen=True)
class OracleReport:
    da: Matching
    dominating: tuple[Matching, ...]
    unimprovable: frozenset[int]
    improvable: frozenset[int]
    justifiable_family: tuple[Matching, ...]
    strongly_justifiable_family: tuple[Matching, ...]
    pareto_family: tuple[Matching, ...]
    justifiable_and_efficient: tuple[Matching, ...]
    claims: dict[str, bool]

    @property
    def all_claims_hold(self) -> bool:
        return all(self.claims.values())


def oracle_report(
    problem: Problem, budget: int = 10_000_000, include_pareto_family: bool = True
) -> OracleReport:
    """Compute every family by definition and cross-check the fast paths.

    The claims dict records, per named statement, whether the fast-path
    result matched this module's definition-level result on the instance.
    ``include_pareto_family=False`` skips the full efficient-matching family
    (the costliest part) for batch use; members of the justifiable family
    are still tested for efficiency individually.
    """
    da_matching, _ = run_da(problem)
    everything = list(enumerate_matchings(problem, budget))
    dominating = [m for m in everything if dominates_strictly(problem, m, da_matching)]

    unimprovable = frozenset(
        i
        for i in range(problem.n_students)
        if all(m.assignment[i] == da_matching.assignment[i] for m in dominating)
    )
    improvable = frozenset(range(problem.n_students)) - unimprovable

    def justifiable(m: Matching) -> bool:
        benef = beneficiaries_scan(problem, da_matching, m)
        return all(
            victim in unimprovable or victim in benef
            for victim, _, _ in violations_scan(problem, m)
        )

    justifiable_family = [m for m in dominating if justifiable(m)]
    sj_family = [
        m
        for m in [da_matching] + dominating
        if _strongly_justifiable_scan(problem, da_matching, m, improvable)
    ]
    pareto_family = pareto_frontier(problem, everything) if include_pareto_family else []
    justifiable_and_efficient = [
        m
        for m in justifiable_family
        if not any(dominates_strictly(problem, other, m) for other in everything)
    ]

    claims = {}

    stable = [m for m in everything if stable_scan(problem, m)]
    claims["da_student_optimal_stable"] = any(
        m.assignment == da_matching.assignment for m in stable
    ) and all(dominates_weakly(problem, da_matching, m) for m in stable)

    digraph = envy.build_envy(problem, da_matching)
    claims["improvable_set_matches_cycle_membership"] = digraph.improvable == improvable

    fast_family = {
        m.assignment for m in jbc.strongly_justifiable_family(problem)
    }
    claims["strongly_justifiable_family_is_jbc_cycle_subsets"] = fast_family == {
        m.assignment for m in sj_family
    }

    label_equiv = True
    for m in dominating:
        packing = envy.decompose_as_packing(problem, m)
        if packing is None:
            label_equiv = False
            break
        label_ok = envy.packing_label(problem, packing) <= beneficiaries_scan(
            problem, da_matching, m
        )
        if label_ok != justifiable(m):
            label_equiv = False
            break
    claims["label_containment_equals_justifiability"] = label_equiv

    plus = sjbc_plus.run_sjbc_plus(problem)
    plus_benef = beneficiaries_scan(problem, da_matching, plus)
    claims["sjbc_plus_outcome_justifiable"] = (
        plus.assignment == da_matching.assignment or justifiable(plus)
    )
    claims["sjbc_plus_undominated_without_more_beneficiaries"] = all(
        plus_benef < beneficiaries_scan(problem, da_matching, m)
        for m in justifiable_family
        if dominates_strictly(problem, m, plus)
    )

    return OracleReport(
        da=da_matching,
        dominating=tuple(dominating),
        unimprovable=unimprovable,
        improvable=improvable,
        justifiable_family=tuple(justifiable_family),
        strongly_justifiable_family=tuple(sj_family),
        pareto_family=tuple(pareto_family),
        justifiable_and_efficient=tuple(justifiable_and_efficient),
        claims=claims,
    )


@dataclass(frozen=True)
class Theorem5Report:
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def verify_theorem5_steps(problem: Problem, budget: int = 10_000_000) -> Theorem5Report:
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
        raise InputError("the consent-impossibility checks need the ex1 student/school names") from None

    da_matching, _ = run_da(problem)
    everything = list(enumerate_matchings(problem, budget))
    dominating = [m for m in everything if dominates_strictly(problem, m, da_matching)]
    students = frozenset(range(problem.n_students))

    def by_names(moves: dict[str, str]) -> Matching:
        assignment = list(da_matching.assignment)
        for sname, cname in moves.items():
            assignment[sid(sname)] = cid(cname)
        return Matching(tuple(assignment))

    three_cycle = by_names({"i1": "s4", "i4": "s5", "i5": "s1"})
    two_cycle = by_names(
        {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4"}
    )

    checks = []

    w1 = frozenset({i7})
    found = [m for m in dominating if respects_scan(problem, m, students - w1)]
    checks.append(
        (
            "w1_unique_respecting_improvement_is_three_cycle",
            [m.assignment for m in found] == [three_cycle.assignment],
            f"{len(found)} improvement(s) respect everyone outside {{i7}}",
        )
    )

    w2 = frozenset({i5, i7})
    bound = rank_scan(problem, i5, s1)
    found = [
        m
        for m in dominating
        if rank_scan(problem, i5, m.assignment[i5]) <= bound
        and respects_scan(problem, m, students - w2)
    ]
    checks.append(
        (
            "w2_unique_improvement_serving_i5_is_three_cycle",
            [m.assignment for m in found] == [three_cycle.assignment],
            f"{len(found)} candidate(s) give i5 her consent-compatible gain",
        )
    )

    w3 = frozenset({i1, i5, i7})
    bound = rank_scan(problem, i1, s4)
    singles = []
    for m in dominating:
        if rank_scan(problem, i1, m.assignment[i1]) > bound:
            continue
        packing = envy.decompose_as_packing(problem, m)
        if packing is None or len(packing.cycles) != 1:
            continue
        if i1 in packing.cycles[0]:
            singles.append(m)
    violating = [
        m
        for m in singles
        if any(v not in w3 for v, _, _ in violations_scan(problem, m))
    ]
    ok_w3 = (
        len(singles) == 2
        and len(violating) == 1
        and any(v == i3 for v, _, _ in violations_scan(problem, violating[0]))
    )
    checks.append(
        (
            "w3_exactly_two_cycles_serve_i1_one_violating_i3",
            ok_w3,
            f"{len(singles)} single-cycle improvement(s) serve i1; {len(violating)} violate outsiders",
        )
    )

    efficient = not any(dominates_strictly(problem, other, two_cycle) for other in everything)
    checks.append(
        (
            "w3_two_cycle_packing_efficient_dominating_and_respecting",
            efficient
            and dominates_strictly(problem, two_cycle, da_matching)
            and respects_scan(problem, two_cycle, students - w3),
            "pairing the 2-cycle with the 4-cycle beats DA, is efficient, "
            "and respects all non-consenters",
        )
    )

    return Theorem5Report(tuple(checks))
