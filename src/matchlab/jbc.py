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
from matchlab.model import InputError, Problem, trade


@dataclass(frozen=True)
class SchoolGraph:
    """Out-degree-one graph on the schools that rejected improvable students."""

    nodes: tuple[int, ...]
    succ: dict[int, int]
    jbc_student: dict[int, int]
    cycles: tuple[tuple[int, ...], ...]


def _school_graph(digraph: LabelledEnvyDigraph) -> SchoolGraph:
    entrant = {s: leading[0] for s, leading in enumerate(digraph.contenders) if leading}
    succ = {s: digraph.seats[i] for s, i in entrant.items()}
    return SchoolGraph(tuple(entrant), succ, entrant, successor_cycles(succ))


def cycle_takes(graph: SchoolGraph, cycles) -> dict[int, int]:
    """The trades of ``cycles`` for ``model.trade``: each school's entrant
    takes the seat of the previous school's entrant, which lies at that school."""
    entrant = graph.jbc_student
    return {
        entrant[s]: entrant[cycle[pos - 1]] for cycle in cycles for pos, s in enumerate(cycle)
    }


def run_jbc(problem: Problem):
    """Run the mechanism; returns the matching and the school graph.

    When deferred acceptance is already efficient there is nothing to trade
    and DA comes back unchanged with an empty graph.
    """
    da_matching, digraph = da_context(problem)
    if not digraph.improvable:
        return da_matching, SchoolGraph((), {}, {}, ())
    graph = _school_graph(digraph)
    return trade(da_matching, cycle_takes(graph, graph.cycles)), graph


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
        family.append(trade(da_matching, cycle_takes(graph, chosen)))
    return family
