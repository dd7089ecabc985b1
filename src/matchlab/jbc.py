"""The just-below-cutoffs improvement mechanism.

Every school that rejected an improvable student during deferred acceptance
gets one outgoing edge, pointing at the DA school of its just-below-cutoff
student: the highest-priority improvable student who wants the school but is
ranked below its weakest admitted occupant.  Trading simultaneously along
all cycles of this out-degree-one graph improves its participants without
putting any improvable student's priority at stake, and subsets of the
cycles generate exactly the matchings with that property.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchlab import da as da_mod
from matchlab.envy import build_envy
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
    return _below_cutoff(problem, da_matching, frozenset(improvable), school, envious)


def _below_cutoff(problem, da_matching, improvable, school, envious) -> set[int]:
    """``below_cutoff_set`` given the students who envy ``school`` at DA."""
    cutoff_rank = priority_rank_of(problem, school, cutoff_student(problem, da_matching, school))
    prio = problem._prio_rank[school]
    out = {i for i in envious if i in improvable and prio[i] > cutoff_rank}
    if not out:
        raise InputError(
            f"school {problem.schools[school]} rejected no improvable student"
        )
    return out


def _school_graph(problem, da_matching, trace, improvable) -> SchoolGraph:
    rejecting = sorted(da_mod.rejecting_schools(problem, trace, improvable))
    envious = envied(problem, da_matching.assignment)
    succ = {}
    entrant = {}
    for s in rejecting:
        candidates = _below_cutoff(problem, da_matching, improvable, s, envious[s])
        entrant[s] = best = min(candidates, key=problem._prio_rank[s].__getitem__)
        succ[s] = da_matching.assignment[best]

    cycles = []
    status: dict[int, tuple] = {}
    for start in rejecting:
        if start in status:
            continue
        walk = []
        pos = {}
        cur = start
        while cur not in status and cur not in pos:
            pos[cur] = len(walk)
            walk.append(cur)
            cur = succ[cur]
        if cur in pos:  # the walk closed on itself: a new cycle
            cycle = walk[pos[cur] :]
            k = cycle.index(min(cycle))
            cycles.append(tuple(cycle[k:]) + tuple(cycle[:k]))
        for v in walk:
            status[v] = True
    cycles.sort()
    return SchoolGraph(tuple(rejecting), succ, entrant, tuple(cycles))


def _execute(problem, da_matching, graph: SchoolGraph, chosen) -> Matching:
    assignment = list(da_matching.assignment)
    for cycle in chosen:
        for s in cycle:
            assignment[graph.jbc_student[s]] = s
    return Matching(tuple(assignment))


def run_jbc(problem: Problem, da_matching=None, trace=None, digraph=None):
    """Run the mechanism; returns the matching and the school graph.

    When deferred acceptance is already efficient there is nothing to trade
    and DA comes back unchanged with an empty graph.
    """
    if da_matching is None or trace is None:
        da_matching, trace = da_mod.run_da(problem)
    if digraph is None:
        digraph = build_envy(problem, da_matching)
    if not digraph.improvable:
        return da_matching, SchoolGraph((), {}, {}, ())
    graph = _school_graph(problem, da_matching, trace, digraph.improvable)
    return _execute(problem, da_matching, graph, graph.cycles), graph


def strongly_justifiable_family(problem: Problem, da_matching=None, trace=None, digraph=None):
    """All matchings obtained by executing a subset of the mechanism's cycles.

    One matching per subset (the empty subset gives DA back); these are
    exactly the strongly justifiable matchings of the instance.
    """
    if da_matching is None or trace is None:
        da_matching, trace = da_mod.run_da(problem)
    if digraph is None:
        digraph = build_envy(problem, da_matching)
    if not digraph.improvable:
        return [da_matching]
    graph = _school_graph(problem, da_matching, trace, digraph.improvable)
    k = len(graph.cycles)
    if k > 20:
        raise InputError(f"too many cycles to enumerate subsets ({k})")
    family = []
    for mask in range(1 << k):
        chosen = [graph.cycles[c] for c in range(k) if mask >> c & 1]
        family.append(_execute(problem, da_matching, graph, chosen))
    return family
