"""The just-below-cutoffs improvement mechanism.

Every school that rejected an improvable student during deferred acceptance
gets one outgoing edge, pointing at the DA school of its just-below-cutoff
student: the highest-priority improvable student who wants the school but is
ranked below its weakest admitted occupant.  Trading simultaneously along
all cycles of this out-degree-one graph improves its participants without
putting any improvable student's priority at stake, and subsets of the
cycles generate exactly the matchings with that property.

The graph reads the per-school contenders of the instance's DA envy
digraph, ``envy.da_context``.  A student proposes down her list, so the
schools that rejected an improvable student are exactly those with a
contender.  DA is stable and non-wasteful, so everyone who envies a school
at DA ranks below its cutoff, and the school's just-below-cutoff student is
its first contender.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchlab.envy import LabelledEnvyDigraph, da_context, successor_cycles
from matchlab.model import (
    InputError,
    Matching,
    Problem,
    envied,
    priority_rank_of,
)


@dataclass(frozen=True)
class SchoolGraph:
    """Out-degree-one graph on the schools that rejected improvable students."""

    nodes: tuple[int, ...]
    succ: dict[int, int]
    jbc_student: dict[int, int]
    cycles: tuple[tuple[int, ...], ...]


def cutoff_student(problem: Problem, da_matching: Matching, school: int) -> int:
    """The lowest-priority student assigned to ``school``."""
    occupants = [i for i, s in enumerate(da_matching.assignment) if s == school]
    if not occupants:
        raise InputError(f"school {problem.schools[school]} has no occupants")
    return max(occupants, key=lambda i: priority_rank_of(problem, school, i))


def below_cutoff_set(problem: Problem, da_matching: Matching, improvable, school: int) -> set[int]:
    """Improvable students who want ``school`` but rank below its cutoff.

    Nonempty exactly when the school rejected an improvable student during
    the DA run; an empty result therefore signals a school outside that set
    and raises ``InputError``.
    """
    envious = envied(problem, da_matching.assignment)[school]
    prio = problem._prio_rank[school]
    cutoff = prio[cutoff_student(problem, da_matching, school)]
    improvable = frozenset(improvable)
    out = {i for i in envious if i in improvable and prio[i] > cutoff}
    if not out:
        raise InputError(
            f"school {problem.schools[school]} rejected no improvable student"
        )
    return out


def _school_graph(digraph: LabelledEnvyDigraph) -> SchoolGraph:
    entrant = {s: leading[0] for s, leading in enumerate(digraph.contenders) if leading}
    succ = {s: digraph.seats[i] for s, i in entrant.items()}
    return SchoolGraph(tuple(entrant), succ, entrant, successor_cycles(succ))


def _execute(problem, da_matching, graph: SchoolGraph, chosen) -> Matching:
    assignment = list(da_matching.assignment)
    for cycle in chosen:
        for s in cycle:
            assignment[graph.jbc_student[s]] = s
    return Matching(tuple(assignment))


def run_jbc(problem: Problem):
    """Run the mechanism; returns the matching and the school graph.

    When deferred acceptance is already efficient there is nothing to trade
    and DA comes back unchanged with an empty graph.
    """
    da_matching, digraph = da_context(problem)
    if not digraph.improvable:
        return da_matching, SchoolGraph((), {}, {}, ())
    graph = _school_graph(digraph)
    return _execute(problem, da_matching, graph, graph.cycles), graph


def strongly_justifiable_family(problem: Problem):
    """All matchings obtained by executing a subset of the mechanism's cycles.

    One matching per subset (the empty subset gives DA back); these are
    exactly the strongly justifiable matchings of the instance.
    """
    da_matching, digraph = da_context(problem)
    if not digraph.improvable:
        return [da_matching]
    graph = _school_graph(digraph)
    k = len(graph.cycles)
    if k > 20:
        raise InputError(f"too many cycles to enumerate subsets ({k})")
    family = []
    for mask in range(1 << k):
        chosen = [graph.cycles[c] for c in range(k) if mask >> c & 1]
        family.append(_execute(problem, da_matching, graph, chosen))
    return family
