"""Verdicts on improvements over deferred acceptance.

A priority violation is acceptable when its victim either gained from the
improvement herself or could never have gained from any improvement; a
matching is *justifiable* when every violation is of that kind.  It is
*strongly justifiable* when it trades along cycles whose edges carry empty
labels, so no improvable student's priority is even potentially at stake.
Both verdicts read the DA outcome and its improvable students from
``envy.da_context``.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchlab.model import (
    NULL_SCHOOL,
    InputError,
    Matching,
    Problem,
    Violation,
    _seated,
    _wasteful,
    check_feasible,
    priority_rank_of,
    rank_of,
    violations,
)
from matchlab.envy import da_context, decompose_as_packing, on_envy_cycle, packing_label

VICTIM_BENEFICIARY = "beneficiary"
VICTIM_UNIMPROVABLE = "unimprovable"
VICTIM_IMPROVABLE_NON_BENEFICIARY = "improvable-non-beneficiary"


@dataclass(frozen=True)
class Verdict:
    beneficiaries: frozenset[int]
    violations: tuple[tuple[Violation, str], ...]
    justifiable: bool
    strongly_justifiable: bool
    pareto_efficient: bool


@dataclass(frozen=True)
class ChainResult:
    vacuous: bool
    transcript: tuple[tuple[int, int], ...]


def beneficiaries(problem: Problem, da_matching: Matching, matching: Matching) -> frozenset[int]:
    """Students strictly better off under ``matching`` than under DA.

    The matching must weakly dominate DA; anything else is outside the
    domain and raises ``InputError``.
    """
    check_feasible(problem, matching)
    out = set()
    for i in range(problem.n_students):
        r_new = rank_of(problem, i, matching.assignment[i])
        r_da = rank_of(problem, i, da_matching.assignment[i])
        if r_new > r_da:
            raise InputError(
                f"matching is worse than DA for {problem.students[i]}; not a DA improvement"
            )
        if r_new < r_da:
            out.add(i)
    return frozenset(out)


def is_justifiable(problem: Problem, matching: Matching) -> Verdict:
    """Full verdict for a matching that weakly dominates DA.

    Each violation victim is tagged; the matching is justifiable when no
    victim is an improvable student left at her DA seat.
    """
    da_matching, digraph = da_context(problem)
    benef = beneficiaries(problem, da_matching, matching)
    tagged = []
    justifiable = True
    for v in violations(problem, matching):
        if v.victim in benef:
            tag = VICTIM_BENEFICIARY
        elif v.victim not in digraph.improvable:
            tag = VICTIM_UNIMPROVABLE
        else:
            tag = VICTIM_IMPROVABLE_NON_BENEFICIARY
            justifiable = False
        tagged.append((v, tag))
    return Verdict(
        beneficiaries=benef,
        violations=tuple(tagged),
        justifiable=justifiable,
        strongly_justifiable=is_strongly_justifiable(problem, matching),
        pareto_efficient=is_pareto_efficient(problem, matching),
    )


def is_strongly_justifiable(problem: Problem, matching: Matching) -> bool:
    """True iff the matching trades along cycles whose labels are all empty."""
    da_matching, digraph = da_context(problem)
    packing = decompose_as_packing(problem, da_matching, matching)
    if packing is None:
        return False
    return not packing_label(digraph, packing)


def is_pareto_efficient(problem: Problem, matching: Matching) -> bool:
    """True iff no other matching makes someone better off and nobody worse.

    Valid only for non-wasteful matchings under strict preferences, where
    efficiency is equivalent to the strict-envy digraph at the matching
    being acyclic; wasteful input raises ``InputError`` (a wasteful matching
    is never efficient and is outside the domain considered here).
    """
    return _pareto_efficient(problem, matching.assignment, *_seated(problem, matching))


def _pareto_efficient(problem: Problem, seats, rosters, envious, on_cycle=None) -> bool:
    """``is_pareto_efficient`` from a matching's seats, rosters and ``envied``
    lists.  ``on_cycle``, when given, is the set of students on an envy
    cycle at those seats, and no cycle search runs: for the DA matching it
    is the DA context's improvable students."""
    if _wasteful(problem, rosters, envious):
        raise InputError("matching is wasteful; Pareto test requires non-wasteful input")
    if on_cycle is None:
        on_cycle = on_envy_cycle(seats, envious)
    return not on_cycle


def reassignment_chain(
    problem: Problem, matching: Matching, claimant: int, school: int
) -> ChainResult:
    """Simulate the displacement chain set off by a priority claim.

    The claimant takes the school, displacing its lowest-priority occupant.
    Each displaced student then claims her favourite school among those with
    a free seat or whose lowest-priority occupant she outranks (ties, which
    can only involve equally-ranked unlisted schools, break toward the
    lowest school id); claiming the null school ends the chain.  The chain
    is vacuous when it circles back and evicts the original claimant from
    the school she claimed.
    """
    check_feasible(problem, matching)
    if not any(
        v.victim == claimant and v.school == school for v in violations(problem, matching)
    ):
        raise InputError(
            f"no priority violation against {problem.students[claimant]} "
            f"at {problem.schools[school]}"
        )

    assignment = list(matching.assignment)
    rosters = matching.rosters(problem)  # fresh lists, mutated as the chain moves

    transcript = [(claimant, school)]
    mover, target = claimant, school
    for _ in range(problem.n_students * problem.n_schools + 1):
        if assignment[mover] != NULL_SCHOOL:
            rosters[assignment[mover]].remove(mover)
        assignment[mover] = target
        rosters[target].append(mover)
        if len(rosters[target]) <= problem.quotas[target]:
            return ChainResult(vacuous=False, transcript=tuple(transcript))
        displaced = max(rosters[target], key=lambda i: priority_rank_of(problem, target, i))
        rosters[target].remove(displaced)
        assignment[displaced] = NULL_SCHOOL
        if displaced == claimant and target == school:
            return ChainResult(vacuous=True, transcript=tuple(transcript))

        best = None
        for cand in range(problem.n_schools):
            if len(rosters[cand]) < problem.quotas[cand]:
                claimable = True
            else:
                weakest = max(
                    rosters[cand], key=lambda i: priority_rank_of(problem, cand, i)
                )
                claimable = priority_rank_of(problem, cand, displaced) < priority_rank_of(
                    problem, cand, weakest
                )
            if not claimable:
                continue
            key = (rank_of(problem, displaced, cand), cand)
            if best is None or key < best:
                best = key
                target = cand
        if best is None or best[0] >= rank_of(problem, displaced, NULL_SCHOOL):
            # Exiting to the null school; nobody else is displaced.
            return ChainResult(vacuous=False, transcript=tuple(transcript))
        mover = displaced
        transcript.append((mover, target))
    raise RuntimeError("reassignment chain failed to terminate")
