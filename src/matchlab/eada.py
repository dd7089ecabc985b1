"""Efficiency-adjusted deferred acceptance with an arbitrary consent set.

Kesten's EADA reruns deferred acceptance after deleting, batch by batch, the
schools of consenting interrupters.  For full consent, Tang and Yu (JET 2014)
show the outcome equals a peel over underdemanded schools: a school that no
student still in play ranks above her DA seat keeps its students, so they are
fixed and leave the market.  This module runs that peel for every consent set.
It starts from the problem's DA outcome, ``envy.da_context``, and reruns
``da._propose`` on one mutable copy of the preference lists:

1. From the current DA outcome, a live (not yet fixed) student is fixed when
   she is unassigned, or sits at a school no live student ranks above her own
   seat.
2. Each fixed student's list is cut to her seat, or to nothing.  A consenting
   student's cut pairs are deleted.  A non-consenting student waives nothing:
   at each school she loses, the school's priority cap falls to her priority
   rank, so no student of lower priority may take that school any more.
3. When a cap fell, each live student loses, above her seat, every school
   whose cap her priority falls below.
4. DA reruns only when consenting pairs were deleted; cuts of non-consenters
   alone leave the outcome as it is.

Underdemanded schools stay on the other lists: they lie below every live seat.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchlab import da as da_mod
from matchlab.envy import da_context
from matchlab.model import NULL_SCHOOL, InputError, Matching, Problem, _instance_digest, _student_set

ORBIT_LIMIT = 20  # ``eada_orbit`` enumerates 2**n consent sets


@dataclass(frozen=True)
class EadaIteration:
    deleted: tuple[tuple[int, int], ...]  # consenting (student, school) pairs cut before the rerun
    matching: Matching  # the rerun's outcome


@dataclass(frozen=True)
class EadaRun:
    """One DA rerun per peel layer that deleted consenting pairs, in order;
    empty when no consenting student gives anything up."""

    iterations: tuple[EadaIteration, ...]
    final: Matching


def run_eada(problem: Problem, consent) -> tuple[Matching, EadaRun]:
    """Run the mechanism for the given consent set by layer peeling.

    The outcome weakly dominates deferred acceptance and never violates the
    priority of a non-consenting student.  Each entry of ``iterations`` is
    one DA rerun: the consenting pairs its layer cut, and its outcome.
    """
    members = _student_set(problem, consent, "consent")
    prio_tables = problem._prio_rank
    prefs = [list(p) for p in problem.prefs]
    # Per school, the best priority rank of a non-consenter cut from it; only
    # students ranked above it may still take it.
    cap = [problem.n_students + 1] * problem.n_schools
    matching = da_context(problem)[0]
    live = list(range(problem.n_students))
    iterations = []
    while live:
        seat = matching.assignment
        demanded = set()
        for i in live:
            for s in prefs[i]:
                if s == seat[i]:
                    break
                demanded.add(s)
        fixed = {i for i in live if seat[i] == NULL_SCHOOL or seat[i] not in demanded}
        if not fixed:
            raise RuntimeError(f"EADA peel: a layer fixed no student, instance {_instance_digest(problem)}")
        deleted = []
        lowered = False
        for i in fixed:
            plist = prefs[i]
            k = len(plist) if seat[i] == NULL_SCHOOL else plist.index(seat[i])
            cut, prefs[i] = plist[:k], plist[k : k + 1]
            if i in members:
                deleted += [(i, s) for s in cut]
            else:
                for s in cut:
                    if prio_tables[s][i] < cap[s]:
                        cap[s] = prio_tables[s][i]
                        lowered = True
        live = [i for i in live if i not in fixed]
        if lowered:
            for i in live:
                plist = prefs[i]
                k = plist.index(seat[i])
                plist[:k] = [s for s in plist[:k] if prio_tables[s][i] < cap[s]]
        if deleted:
            matching = da_mod._propose(problem, prefs)[0]
            iterations.append(EadaIteration(tuple(sorted(deleted)), matching))
    return matching, EadaRun(tuple(iterations), matching)


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
