"""Student-proposing deferred acceptance with a round-by-round trace.

Rounds are simultaneous: every currently rejected student proposes in the
same round.  The final outcome is order-independent, but the *round numbers*
recorded in the trace are not, and the interrupting pairs depend on them, so
this convention is part of the contract.

``run_da`` holds the library's one proposal loop; every other mechanism
starts from its outcome.  Each school's tentative roster is a sorted list of
priority ranks, so admitting a proposal is one plain ``insort``.  The loop
logs only each round's proposers; a ``DaTrace`` replays that log into its
round table only when read, so callers that never read it never pay.
``interrupters`` reads Kesten's interrupting pairs off that table.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from functools import cached_property

from matchlab.model import NULL_SCHOOL, Matching, Problem


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


@dataclass(frozen=True, eq=False)
class DaTrace:
    """A DA run's proposal log; ``rounds`` and ``proposals`` are replayed
    from it on first read."""

    _prefs: tuple = field(repr=False)
    _log: list = field(repr=False)  # each round's proposers

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


def run_da(problem: Problem) -> tuple[Matching, DaTrace]:
    """Run deferred acceptance; returns the student-optimal stable matching
    and its execution trace.

    A student who exhausts her list is assigned the null school and stops
    proposing.  Total proposals are bounded by ``n_students * n_schools``.
    """
    n = problem.n_students
    prio_tables, priorities = problem._prio_rank, problem.priorities
    quotas = problem.quotas
    choices = [iter(p) for p in problem.prefs]  # the schools each student has yet to try
    held: list[list[int]] = [[] for _ in range(problem.n_schools)]  # priority ranks, best first
    active = list(range(n))
    log = []  # each round's proposers, unordered
    while active:
        # Taking a round's proposals one at a time ends it as if all came at once.
        log.append(active)
        rejected = []
        for i in active:
            s = next(choices[i], None)
            if s is None:
                continue  # she has exhausted her list
            roster = held[s]
            insort(roster, prio_tables[s][i])
            if len(roster) > quotas[s]:
                rejected.append(priorities[s][roster.pop() - 1])
        active = rejected

    assignment = [NULL_SCHOOL] * n
    for s, roster in enumerate(held):
        for rank in roster:
            assignment[priorities[s][rank - 1]] = s
    matching = Matching(assignment)
    return matching, DaTrace(problem.prefs, log)


def interrupters(problem: Problem, trace: DaTrace) -> list[tuple[int, int, int]]:
    """All interrupting pairs of the trace as ``(student, school,
    rejection_round)``, sorted by (round, student, school).

    A pair (i, s) qualifies when some other student was rejected from s in a
    round at whose end i was tentatively held there, and i was later rejected
    from s herself.  A rejection in the very round a student arrives counts:
    she ends that round held while the other was turned away.
    """
    entry: dict[int, int] = {}  # round in which each student proposed to her current school
    last_reject: dict[int, int] = {}  # latest earlier round with a rejection, per school
    pairs = []
    for r, rnd in enumerate(trace.rounds):
        entry.update((i, r) for new in rnd.applicants.values() for i in new)
        for s, rejected in rnd.rejected.items():
            pairs += [(r + 1, i, s) for i in rejected if last_reject.get(s, -1) >= entry[i]]
            last_reject[s] = r
    return [(i, s, r) for r, i, s in sorted(pairs)]
