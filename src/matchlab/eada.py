"""Efficiency-adjusted deferred acceptance with an arbitrary consent set.

Repeatedly rerun deferred acceptance, each time deleting the school of the
latest-rejected consenting interrupters from their preference lists, until
the last interrupter rejection involves no consenting student.  Deletions
are batched by round: every consenting interrupting pair rejected at the
latest such round is removed together before the rerun.  The reruns delete
from one mutable copy of the preference lists and read the interrupting
pairs DA's proposal loop records; no instance or trace is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchlab import da as da_mod
from matchlab.model import InputError, Matching, Problem


@dataclass(frozen=True)
class EadaIteration:
    deleted: tuple[tuple[int, int], ...]  # (student, school) pairs removed
    matching: Matching


@dataclass(frozen=True)
class EadaRun:
    iterations: tuple[EadaIteration, ...]
    final: Matching


def _validated_consent(problem: Problem, consent) -> frozenset[int]:
    members = frozenset(consent)
    for i in members:
        if not 0 <= i < problem.n_students:
            raise InputError(f"invalid student id {i} in consent set")
    return members


def run_eada(problem: Problem, consent) -> tuple[Matching, EadaRun]:
    """Run the mechanism for the given consent set.

    The outcome weakly dominates deferred acceptance and never violates the
    priority of a non-consenting student.
    """
    members = _validated_consent(problem, consent)
    prefs = [list(p) for p in problem.prefs]
    matching, pairs, _ = da_mod._propose(problem, prefs)
    iterations = []
    while True:
        consenting = [p for p in pairs if p[1] in members]  # (round, student, school)
        if not consenting:
            break
        last_round = consenting[-1][0]
        batch = sorted((i, s) for r, i, s in consenting if r == last_round)
        for student, school in batch:
            prefs[student].remove(school)
        matching, pairs, _ = da_mod._propose(problem, prefs)
        iterations.append(EadaIteration(tuple(batch), matching))
    return matching, EadaRun(tuple(iterations), matching)


def eada_orbit(problem: Problem, limit: int = 20) -> dict[frozenset[int], Matching]:
    """Outcome for every consent set.  Exponential; refuses past ``limit``."""
    n = problem.n_students
    if n > limit:
        raise InputError(f"orbit enumeration limited to {limit} students, got {n}")
    orbit = {}
    for mask in range(1 << n):
        consent = frozenset(i for i in range(n) if mask >> i & 1)
        orbit[consent] = run_eada(problem, consent)[0]
    return orbit
