"""Efficiency-adjusted deferred acceptance with an arbitrary consent set.

Kesten's EADA reruns deferred acceptance after deleting, batch by batch, the
schools of consenting interrupters.  For full consent, Tang and Yu (JET 2014)
show the outcome equals a peel over underdemanded schools: a school that no
student still in play ranks above her DA seat keeps its students, so they are
fixed and leave the market.  This module runs that peel for every consent set,
starting from the problem's DA outcome, ``envy.da_context``.

A student *desires* a school when she is live (not yet fixed), ranks it
above her seat, and her priority there is above the school's *cap*.  A cap
falls to the priority of each non-consenter fixed below the school; no
student of lower priority may take the school any more.  Each layer:

1. fixes every live student who is unassigned or whose seat no one desires;
2. has each fixed student give up the schools she desired: a consenter's
   pairs with them are deleted, while a non-consenter waives nothing and
   lowers their caps to her priority instead;
3. when pairs were deleted, climbs to the DA outcome of the cut market.

The climb reaches that outcome without running DA.  Every school with a
desirer points at the seat of its top desirer, the desirer of best
priority, and every cycle of that school graph trades, as in JBC, until no
cycle is left.  The matching a layer starts from is stable in the cut
market: lists only shrink, and each fixed student keeps her seat on her
list.  Trading along such cycles keeps it stable and improves the traders,
and a stable matching that no such cycle improves is the student-optimal
one (Erdil and Ergin, AER 2008).  That matching is unique, so whichever
cycles trade, the climb ends where a DA rerun would.  A layer that only
lowered caps needs no climb: each school keeps its top desirer or is left
with none, because a top desirer leaves only as a fixed non-consenter,
whose priority becomes the cap, or under a cap, which shuts out everyone
ranked below her too.  So the school graph gains no cycle.

Desirers only leave: seats improve, students are fixed and caps fall.  Each
school therefore keeps one cursor into its DA enviers, best priority first,
that only moves forward.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchlab.envy import da_context, successor_cycles
from matchlab.jbc import cycle_takes
from matchlab.model import NULL_SCHOOL, InputError, Matching, Problem, _instance_digest, _id_set, trade

ORBIT_LIMIT = 20  # ``eada_orbit`` enumerates 2**n consent sets


@dataclass(frozen=True)
class EadaIteration:
    deleted: tuple[tuple[int, int], ...]  # consenting (student, school) pairs cut before the climb
    matching: Matching  # the DA outcome of the cut market, where the climb ends


@dataclass(frozen=True)
class EadaRun:
    """One climb per peel layer that deleted consenting pairs, in order;
    empty when no consenting student gives anything up.  The last climb
    ends at the outcome ``run_eada`` returns."""

    iterations: tuple[EadaIteration, ...]


def run_eada(problem: Problem, consent) -> tuple[Matching, EadaRun]:
    """Run the mechanism for the given consent set by layer peeling.

    The outcome weakly dominates deferred acceptance and never violates the
    priority of a non-consenting student.  Each entry of ``iterations`` is
    one climb: the consenting pairs its layer cut, and the matching where
    it ends.
    """
    members = _id_set(problem, consent, "consent")
    pref_rank, prio_tables = problem._pref_rank, problem._prio_rank
    matching, digraph = da_context(problem)
    # Per school, the cursor: its DA enviers who may still desire it, best priority last.
    waiting = [list(reversed(ahead)) for ahead in digraph.ahead]
    cap = [problem.n_students + 1] * problem.n_schools
    live = set(range(problem.n_students))

    def top_desirers(seat) -> dict[int, int]:
        top = {}
        for s, queue in enumerate(waiting):
            while queue:
                i = queue[-1]
                if i in live and prio_tables[s][i] < cap[s] and pref_rank[i][s] < pref_rank[i][seat[i]]:
                    top[s] = i
                    break
                queue.pop()
        return top

    iterations = []
    seat = matching.assignment
    top = top_desirers(seat)
    while live:
        fixed = [i for i in live if seat[i] == NULL_SCHOOL or seat[i] not in top]
        if not fixed:
            raise RuntimeError(f"EADA peel: a layer fixed no student, instance {_instance_digest(problem)}")
        live.difference_update(fixed)
        deleted, capped = [], []
        for i in fixed:
            # She gives up the schools she desired: above her seat, under their caps.
            for s in problem.prefs[i][: pref_rank[i][seat[i]] - 1]:
                if prio_tables[s][i] < cap[s]:
                    (deleted if i in members else capped).append((i, s))
        for i, s in capped:  # the caps fall once every cut of the layer is known
            cap[s] = min(cap[s], prio_tables[s][i])
        top = top_desirers(seat)
        if deleted:
            while cycles := successor_cycles({s: seat[i] for s, i in top.items()}):
                matching = trade(matching, cycle_takes(top, cycles))
                seat = matching.assignment
                top = top_desirers(seat)
            iterations.append(EadaIteration(tuple(sorted(deleted)), matching))
    return matching, EadaRun(tuple(iterations))


def eada_orbit(problem: Problem) -> dict[frozenset[int], Matching]:
    """Outcome for every consent set.  Exponential; refuses past ``ORBIT_LIMIT``."""
    n = problem.n_students
    if n > ORBIT_LIMIT:
        raise InputError(f"orbit enumeration limited to {ORBIT_LIMIT} students, got {n}")
    orbit = {}
    for mask in range(1 << n):
        consent = frozenset(i for i in range(n) if mask >> i & 1)
        orbit[consent] = run_eada(problem, consent)[0]
    return orbit
