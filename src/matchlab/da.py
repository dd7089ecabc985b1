"""Student-proposing deferred acceptance with a round-by-round trace.

Rounds are simultaneous: every currently rejected student proposes in the
same round.  The final outcome is order-independent, but the *round numbers*
recorded in the trace are not, and downstream bookkeeping (interrupting
pairs) depends on them, so this convention is part of the contract.

One proposal loop, ``_propose``, serves ``run_da`` and every EADA rerun.  Each
school's tentative roster is a sorted list of priority ranks, so admitting a
proposal is one plain ``insort``.  The loop records the interrupting pairs as
rejections happen and logs only each round's proposers; a ``DaTrace`` builds
its round table from that log the first time ``rounds`` or ``proposals`` is
read, so callers that never read it never pay for it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property

from matchlab.model import NULL_SCHOOL, InputError, Matching, Problem, envied


@dataclass(frozen=True)
class DaRound:
    """One proposal round.

    ``applicants`` holds only the *new* proposals of the round, so a student
    appears as an applicant to a given school at most once in the whole
    trace.  ``held`` is the post-round tentative roster, ``rejected`` the
    students turned away this round (newly arrived or displaced).
    """

    applicants: dict[int, tuple[int, ...]]
    held: dict[int, tuple[int, ...]]
    rejected: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class DaTrace:
    """A DA run's outcome and interrupting pairs; ``rounds`` and ``proposals``
    are replayed from the run's proposal log on first read."""

    final: Matching
    pairs: tuple[InterruptPair, ...]  # interrupting pairs, in ``interrupters`` order
    _prefs: tuple = field(repr=False, compare=False)
    _log: list = field(repr=False, compare=False)  # each round's proposers

    @cached_property
    def rounds(self) -> tuple[DaRound, ...]:
        prefs, log = self._prefs, self._log
        proposed = [0] * len(prefs)  # a student's k-th proposal goes to prefs[k]
        rosters: dict[int, list[int]] = {}
        rounds = []
        for r, active in enumerate(log):
            applicants: dict[int, list[int]] = {}
            for i in active:
                if proposed[i] < len(prefs[i]):
                    applicants.setdefault(prefs[i][proposed[i]], []).append(i)
                    proposed[i] += 1
            if not applicants:
                break
            # This round's rejected students are the next round's proposers.
            rejected: dict[int, list[int]] = {}
            for i in log[r + 1] if r + 1 < len(log) else ():
                rejected.setdefault(prefs[i][proposed[i] - 1], []).append(i)
            for s, newcomers in applicants.items():
                rosters[s] = [i for i in rosters.get(s, []) + newcomers if i not in rejected.get(s, ())]
            schools = sorted(applicants)
            rounds.append(
                DaRound(
                    applicants={s: tuple(sorted(applicants[s])) for s in schools},
                    held={s: tuple(sorted(rosters[s])) for s in schools},
                    rejected={s: tuple(sorted(rejected[s])) for s in schools if s in rejected},
                )
            )
        return tuple(rounds)

    @cached_property
    def proposals(self) -> int:
        return sum(len(new) for rnd in self.rounds for new in rnd.applicants.values())


@dataclass(frozen=True)
class InterruptPair:
    """A student whose tentative hold at a school caused rejections before
    she was herself rejected from it."""

    student: int
    school: int
    rejection_round: int


def _propose(problem: Problem, prefs):
    """Run the proposal loop with ``prefs`` in place of ``problem.prefs``.

    Returns the matching, the interrupting pairs as ``(rejection round,
    student, school)`` in round order, and each round's proposers, unordered.
    """
    n = problem.n_students
    prio_tables, priorities = problem._prio_rank, problem.priorities
    quotas = problem.quotas
    choices = [iter(p) for p in prefs]  # the schools each student has yet to try
    entry = [0] * n  # round in which each student proposed to her current school
    last_reject = [-1] * problem.n_schools  # latest round with a rejection, per school
    before = [-1] * problem.n_schools  # the latest such round before that one
    held: list[list[int]] = [[] for _ in range(problem.n_schools)]  # priority ranks, best first
    active = list(range(n))
    pairs = []
    log = []
    while active:
        # Taking a round's proposals one at a time ends it as if all came at once.
        r = len(log)
        log.append(active)
        rejected = []
        for i in active:
            s = next(choices[i], None)
            if s is None:
                continue  # she has exhausted her list
            entry[i] = r
            roster = held[s]
            insort(roster, prio_tables[s][i])
            if len(roster) > quotas[s]:
                loser = priorities[s][roster.pop() - 1]
                rejected.append(loser)
                if last_reject[s] < r:
                    before[s], last_reject[s] = last_reject[s], r
                # She interrupted if s turned anyone away in an earlier round
                # since she arrived; a newcomer (entry r) never qualifies.
                if before[s] >= entry[loser]:
                    pairs.append((r + 1, loser, s))
        active = rejected

    assignment = [NULL_SCHOOL] * n
    for s, roster in enumerate(held):
        for rank in roster:
            assignment[priorities[s][rank - 1]] = s
    return Matching(tuple(assignment)), pairs, log


def run_da(problem: Problem) -> tuple[Matching, DaTrace]:
    """Run deferred acceptance; returns the student-optimal stable matching
    and its execution trace.

    A student who exhausts her list is assigned the null school and stops
    proposing.  Total proposals are bounded by ``n_students * n_schools``.
    """
    matching, pairs, log = _propose(problem, problem.prefs)
    interrupting = tuple(InterruptPair(i, s, r) for r, i, s in sorted(pairs))
    return matching, DaTrace(matching, interrupting, problem.prefs, log)


def rejecting_schools(problem: Problem, trace: DaTrace, improvable) -> set[int]:
    """Schools that rejected at least one student from ``improvable``.

    A student proposes down her list, so the schools that rejected her are
    exactly those she prefers to her DA seat; the round table is not read.
    """
    improvable = set(improvable)
    for i in improvable:
        if not 0 <= i < problem.n_students:
            raise InputError(f"invalid student id {i} in improvable set")
    wanting = envied(problem, trace.final.assignment)
    return {s for s, envious in enumerate(wanting) if not improvable.isdisjoint(envious)}


def interrupters(problem: Problem, trace: DaTrace) -> list[InterruptPair]:
    """All interrupting pairs of the trace, sorted by rejection round.

    A pair (i, s) qualifies when some other student was rejected from s in a
    round at whose end i was tentatively held there, and i was later rejected
    from s herself.  A rejection in the very round a student arrives counts:
    she ends that round held while the other was turned away.  DA records
    the pairs as it runs; this returns them.
    """
    return list(trace.pairs)
