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
    Problem,
    Violation,
    _blocking,
    _check_ids,
    _instance_digest,
    _ranks,
    _seated,
    _wasteful,
    check_feasible,
)
from matchlab.envy import da_context, decompose_as_packing, packing_label

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


def beneficiaries(problem: Problem, matching) -> frozenset[int]:
    """Students strictly better off under ``matching`` than under DA.

    The matching must weakly dominate DA; anything else is outside the
    domain and raises ``InputError``.
    """
    return _gainers(problem, _ranks(problem, check_feasible(problem, matching)))


def _gainers(problem: Problem, ranks) -> frozenset[int]:
    """The students whose rank in ``ranks`` (student order) beats the rank
    of their DA seat; a student worse off than under DA raises
    ``InputError``."""
    da_ranks = _ranks(problem, da_context(problem).seats)
    out = set()
    for i, (r, r_da) in enumerate(zip(ranks, da_ranks)):
        if r < r_da:
            out.add(i)
        elif r > r_da:
            raise InputError(
                f"matching is worse than DA for {problem.students[i]}; not a DA improvement"
            )
    return frozenset(out)


def _judge(problem: Problem, matching):
    """One verdict pass over an outcome: one ``check_feasible``, one roster
    list and one ``envied`` walk.

    Returns, in order: the rank of each student's seat, the students who
    gain over DA, every blocking triple tagged with the class of its
    victim, whether no victim is an improvable non-beneficiary
    (justifiability), and Pareto efficiency.  The paper's three victim
    classes: a *beneficiary* gains over DA; an *unimprovable* student is on
    no envy cycle at DA, so no improvement over DA can help her; an
    *improvable non-beneficiary* is anyone else.

    Errors keep one order: an infeasible matching, then a student worse
    off than under DA, then a wasteful matching.
    """
    seats, rosters, envious = _seated(problem, matching)
    digraph = da_context(problem)
    ranks = _ranks(problem, seats)
    gainers = _gainers(problem, ranks)
    tagged = []
    for v in _blocking(problem, rosters, envious):
        if v.victim in gainers:
            tagged.append((v, VICTIM_BENEFICIARY))
        elif v.victim not in digraph.improvable:
            tagged.append((v, VICTIM_UNIMPROVABLE))
        else:
            tagged.append((v, VICTIM_IMPROVABLE_NON_BENEFICIARY))
    justifiable = all(tag != VICTIM_IMPROVABLE_NON_BENEFICIARY for _, tag in tagged)
    efficient = _pareto_efficient(problem, seats, rosters, envious)
    return ranks, gainers, tuple(tagged), justifiable, efficient


def is_justifiable(problem: Problem, matching) -> Verdict:
    """Full verdict for a matching that weakly dominates DA.

    Each violation victim is tagged; the matching is justifiable when no
    victim is an improvable student left at her DA seat.
    """
    _, gainers, tagged, justifiable, efficient = _judge(problem, matching)
    return Verdict(
        beneficiaries=gainers,
        violations=tagged,
        justifiable=justifiable,
        strongly_justifiable=is_strongly_justifiable(problem, matching),
        pareto_efficient=efficient,
    )


def is_strongly_justifiable(problem: Problem, matching) -> bool:
    """True iff the matching trades along cycles whose labels are all empty."""
    packing = decompose_as_packing(problem, matching)
    return packing is not None and not packing_label(problem, packing)


def is_pareto_efficient(problem: Problem, matching) -> bool:
    """True iff no other matching makes someone better off and nobody worse.

    Valid only for non-wasteful matchings under strict preferences, where
    efficiency is equivalent to the strict-envy digraph at the matching
    being acyclic; wasteful input raises ``InputError`` (a wasteful matching
    is never efficient and is outside the domain considered here).
    """
    return _pareto_efficient(problem, *_seated(problem, matching))


def _pareto_efficient(problem: Problem, seats, rosters, envious) -> bool:
    """``is_pareto_efficient`` from a matching's seats, rosters and ``envied`` lists.

    Peels the envy graph (student -> envied school -> its occupants) from
    its sinks: a school whose occupants are all peeled goes, and so does a
    student who envies no school left.  Whoever is left can reach a cycle,
    so the matching is efficient exactly when every student goes.
    """
    if _wasteful(problem, rosters, envious):
        raise InputError("matching is wasteful; Pareto test requires non-wasteful input")
    holding = [len(roster) for roster in rosters]  # per school, occupants not yet peeled
    wanting = [0] * len(seats)  # per student, envied schools not yet peeled
    for students in envious:  # not wasteful, so each envied school is full
        for i in students:
            wanting[i] += 1
    peel = [i for i, k in enumerate(wanting) if not k]
    for j in peel:  # grows while it is read
        school = seats[j]
        if school != NULL_SCHOOL:
            holding[school] -= 1
            if not holding[school]:
                for i in envious[school]:
                    wanting[i] -= 1
                    if not wanting[i]:
                        peel.append(i)
    return len(peel) == len(seats)


def reassignment_chain(problem: Problem, matching, claimant: int, school: int) -> ChainResult:
    """Simulate the displacement chain set off by a priority claim.

    The claimant takes the school, displacing its lowest-priority occupant.
    Each displaced student then claims her favourite school among those with
    a free seat or whose lowest-priority occupant she outranks (ties, which
    can only involve equally-ranked unlisted schools, break toward the
    lowest school id); claiming the null school ends the chain.  The chain
    is vacuous when it circles back and evicts the original claimant from
    the school she claimed.  A claimant or school that is not a student or
    school id raises ``InputError``, as does a claim that is no violation.
    """
    (claimant,) = _check_ids("student", (claimant,), range(problem.n_students))
    (school,) = _check_ids("school", (school,), range(problem.n_schools))
    seats, rosters, envious = _seated(problem, matching)  # fresh rosters, mutated as the chain moves
    if not any(v.victim == claimant and v.school == school for v in _blocking(problem, rosters, envious)):
        raise InputError(
            f"no priority violation against {problem.students[claimant]} "
            f"at {problem.schools[school]}"
        )

    seat = list(seats)
    transcript = [(claimant, school)]
    mover, target = claimant, school
    for _ in range(problem.n_students * problem.n_schools + 1):
        if seat[mover] != NULL_SCHOOL:
            rosters[seat[mover]].remove(mover)
        seat[mover] = target
        rosters[target].append(mover)
        if len(rosters[target]) <= problem.quotas[target]:
            return ChainResult(vacuous=False, transcript=tuple(transcript))
        displaced = max(rosters[target], key=problem._prio_rank[target].__getitem__)
        rosters[target].remove(displaced)
        seat[displaced] = NULL_SCHOOL
        if displaced == claimant and target == school:
            return ChainResult(vacuous=True, transcript=tuple(transcript))

        ranks = problem._pref_rank[displaced]
        best = min(
            (
                (ranks[cand], cand)
                for cand, prio in enumerate(problem._prio_rank)
                if len(rosters[cand]) < problem.quotas[cand]
                or prio[displaced] < max(map(prio.__getitem__, rosters[cand]))
            ),
            default=None,
        )
        if best is None or best[0] >= ranks[NULL_SCHOOL]:
            # Exiting to the null school; nobody else is displaced.
            return ChainResult(vacuous=False, transcript=tuple(transcript))
        mover, target = displaced, best[1]
        transcript.append((mover, target))
    raise RuntimeError(f"reassignment chain failed to terminate, instance {_instance_digest(problem)}")
