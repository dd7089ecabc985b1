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
from functools import cached_property

from matchlab import envy, jbc, sjbc_plus
from matchlab.model import NULL_SCHOOL, InputError, Problem, _integer

BUDGET = 10_000_000  # partial assignments ``enumerate_matchings`` explores by default


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


def _violations_walk(problem: Problem, matching):
    """Yield (victim, occupant, school) triples by exhaustive scan, one at a time."""
    for victim in range(problem.n_students):
        for occupant in range(problem.n_students):
            if occupant == victim:
                continue
            school = matching[occupant]
            if school == NULL_SCHOOL:
                continue
            if prefers(problem, victim, school, matching[victim]) and (
                priority_scan(problem, school, victim)
                < priority_scan(problem, school, occupant)
            ):
                yield victim, occupant, school


def violations_scan(problem: Problem, matching) -> list[tuple[int, int, int]]:
    """(victim, occupant, school) triples by exhaustive scan."""
    return list(_violations_walk(problem, matching))


def stable_scan(problem: Problem, matching) -> bool:
    """No violation at all; the scan stops at the first one it finds."""
    return next(_violations_walk(problem, matching), None) is None


def respects_scan(problem: Problem, matching, protected) -> bool:
    protected = set(protected)
    return all(v not in protected for v, _, _ in _violations_walk(problem, matching))


def dominates_weakly(problem: Problem, a, b) -> bool:
    return all(
        rank_scan(problem, i, a[i]) <= rank_scan(problem, i, b[i])
        for i in range(problem.n_students)
    )


def dominates_strictly(problem: Problem, a, b) -> bool:
    strict = False
    for i in range(problem.n_students):
        ra = rank_scan(problem, i, a[i])
        rb = rank_scan(problem, i, b[i])
        if ra > rb:
            return False
        if ra < rb:
            strict = True
    return strict


def pareto_frontier(problem: Problem, matchings) -> list[tuple[int, ...]]:
    """Maximal elements under Pareto domination.

    A dominator always has a strictly smaller total rank, and domination is
    transitive, so scanning in ascending total-rank order against the
    frontier built so far is exhaustive.
    """
    def total(m):
        return sum(rank_scan(problem, i, m[i]) for i in range(problem.n_students))

    frontier = []
    for m in sorted(matchings, key=total):
        if not any(dominates_strictly(problem, f, m) for f in frontier):
            frontier.append(m)
    return frontier


def beneficiaries_scan(problem: Problem, da_matching, matching):
    return frozenset(
        i
        for i in range(problem.n_students)
        if prefers(problem, i, matching[i], da_matching[i])
    )


def enumerate_matchings(problem: Problem, budget: int = BUDGET):
    """An iterator over every feasible, non-wasteful matching, each once.

    Students take listed schools with spare capacity or the null school; a
    leaf survives only if nobody prefers a school that ended up with a free
    seat.  When all preference lists are complete and seats exactly cover
    students, null-school branches can never be non-wasteful and are pruned.
    ``budget`` follows ``GenConfig``'s integer rule, checked once, when
    called; the walk raises ``InputError`` once more than ``budget`` partial
    assignments have been explored.
    """
    budget = _integer("budget", budget)
    n, m = problem.n_students, problem.n_schools
    complete_fill = sum(problem.quotas) == n and all(
        len(p) == m for p in problem.prefs
    )
    free = list(problem.quotas)
    seats = [NULL_SCHOOL] * n
    explored = 0

    def nonwasteful_leaf() -> bool:
        open_schools = [s for s in range(m) if free[s] > 0]
        if not open_schools:
            return True
        for i in range(n):
            own = rank_scan(problem, i, seats[i])
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
                yield tuple(seats)
            return
        for s in problem.prefs[i]:
            if free[s] > 0:
                free[s] -= 1
                seats[i] = s
                yield from walk(i + 1)
                seats[i] = NULL_SCHOOL
                free[s] += 1
        if not complete_fill:
            yield from walk(i + 1)

    return walk(0)


def _decompose_scan(problem, da_matching, matching):
    """(mover, school-entered) pairs when movers permute occupied seats
    along strict improvements; None otherwise."""
    entries = []
    entrants: dict[int, int] = {}
    leavers: dict[int, int] = {}
    for i in range(problem.n_students):
        old, new = da_matching[i], matching[i]
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
                prefers(problem, h, school, da_matching[h])
                and priority_scan(problem, school, h) < priority_scan(problem, school, i)
            ):
                return False
    return True


@dataclass(frozen=True)
class OracleReport:
    problem: Problem
    matchings: tuple[tuple[int, ...], ...]  # every feasible, non-wasteful matching
    da: tuple[int, ...]
    dominating: tuple[tuple[int, ...], ...]
    unimprovable: frozenset[int]
    justifiable_family: tuple[tuple[int, ...], ...]
    strongly_justifiable_family: tuple[tuple[int, ...], ...]
    justifiable_and_efficient: tuple[tuple[int, ...], ...]
    claims: dict[str, bool]

    @property
    def all_claims_hold(self) -> bool:
        return all(self.claims.values())

    @cached_property
    def pareto_family(self) -> tuple[tuple[int, ...], ...]:
        """The efficient matchings, found on the first read: the costliest
        family, which no claim needs."""
        return tuple(pareto_frontier(self.problem, self.matchings))


def oracle_report(problem: Problem, budget: int = BUDGET) -> OracleReport:
    """Compute every family by definition and cross-check the fast paths.

    The claims dict records, per named statement, whether the fast-path
    result matched this module's definition-level result on the instance.
    """
    digraph = envy.da_context(problem)
    da_matching = digraph.seats
    everything = list(enumerate_matchings(problem, budget))
    dominating = [m for m in everything if dominates_strictly(problem, m, da_matching)]

    unimprovable = frozenset(
        i
        for i in range(problem.n_students)
        if all(m[i] == da_matching[i] for m in dominating)
    )
    improvable = frozenset(range(problem.n_students)) - unimprovable

    def justifiable(m) -> bool:
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
    justifiable_and_efficient = [
        m
        for m in justifiable_family
        if not any(dominates_strictly(problem, other, m) for other in everything)
    ]

    claims = {}

    stable = [m for m in everything if stable_scan(problem, m)]
    claims["da_student_optimal_stable"] = da_matching in stable and all(
        dominates_weakly(problem, da_matching, m) for m in stable
    )

    claims["improvable_set_matches_cycle_membership"] = digraph.improvable == improvable

    claims["strongly_justifiable_family_is_jbc_cycle_subsets"] = set(
        jbc.strongly_justifiable_family(problem)
    ) == set(sj_family)

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
    claims["sjbc_plus_outcome_justifiable"] = plus == da_matching or justifiable(plus)
    claims["sjbc_plus_undominated_without_more_beneficiaries"] = all(
        plus_benef < beneficiaries_scan(problem, da_matching, m)
        for m in justifiable_family
        if dominates_strictly(problem, m, plus)
    )

    return OracleReport(
        problem=problem,
        matchings=tuple(everything),
        da=da_matching,
        dominating=tuple(dominating),
        unimprovable=unimprovable,
        justifiable_family=tuple(justifiable_family),
        strongly_justifiable_family=tuple(sj_family),
        justifiable_and_efficient=tuple(justifiable_and_efficient),
        claims=claims,
    )
