"""The just-below-cutoffs improvement mechanism.

Every school that rejected an improvable student during deferred acceptance
has a just-below-cutoff student: the highest-priority improvable student who
wants the school but is ranked below its weakest admitted occupant.  The
school gets one outgoing edge, pointing at her DA school, so the graph is
read off ``SchoolGraph.jbc_student`` and the DA seats.  Trading
simultaneously along all cycles of this out-degree-one graph improves its
participants without putting any improvable student's priority at stake,
and subsets of the cycles generate exactly the matchings with that property.

The graph reads the per-school contenders of the instance's DA envy
digraph, ``envy.da_context``.  A student proposes down her list, so the
schools that rejected an improvable student are exactly those with a
contender.  DA is stable and non-wasteful, so everyone who envies a school
at DA ranks below its cutoff, and the school's just-below-cutoff student is
its first contender.

``run_jbc`` logs the school graph to ``matchlab.jbc`` as INFO records, one
``s -> t  (mover i)`` line per node and one ``cycle: …`` line per cycle;
``solve --graph`` shows them.  Nothing is formatted while INFO is off.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from matchlab.envy import LabelledEnvyDigraph, da_context, successor_cycles
from matchlab.model import InputError, Problem, trade

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SchoolGraph:
    """Out-degree-one graph on the schools that rejected improvable students:
    ``jbc_student`` maps each such school, in id order, to its
    just-below-cutoff student, and the school points at her DA seat."""

    jbc_student: dict[int, int]
    cycles: tuple[tuple[int, ...], ...]


def _school_graph(digraph: LabelledEnvyDigraph) -> SchoolGraph:
    entrant = {s: leading[0] for s, leading in enumerate(digraph.contenders) if leading}
    return SchoolGraph(entrant, successor_cycles({s: digraph.seats[i] for s, i in entrant.items()}))


def cycle_takes(mover: dict[int, int], cycles) -> dict[int, int]:
    """The trades of school ``cycles`` for ``model.trade``: each school's
    mover takes the seat of the previous school's mover, which lies at that
    school."""
    return {mover[s]: mover[cycle[pos - 1]] for cycle in cycles for pos, s in enumerate(cycle)}


def run_jbc(problem: Problem):
    """Run the mechanism; returns the matching and the school graph.

    When deferred acceptance is already efficient no school has a contender,
    so the graph is empty and DA comes back unchanged.
    """
    digraph = da_context(problem)
    graph = _school_graph(digraph)
    if _log.isEnabledFor(logging.INFO):
        schools = problem.schools
        for s, i in graph.jbc_student.items():
            _log.info("%s -> %s  (mover %s)", schools[s], schools[digraph.seats[i]], problem.students[i])
        for cycle in graph.cycles:
            _log.info("cycle: %s", " -> ".join(schools[s] for s in cycle))
    return trade(digraph.seats, cycle_takes(graph.jbc_student, graph.cycles)), graph


def strongly_justifiable_family(problem: Problem):
    """All matchings obtained by executing a subset of the mechanism's cycles.

    One matching per subset (the empty subset gives DA back); these are
    exactly the strongly justifiable matchings of the instance.
    """
    digraph = da_context(problem)
    graph = _school_graph(digraph)
    k = len(graph.cycles)
    if k > 20:
        raise InputError(f"too many cycles to enumerate subsets ({k})")
    family = []
    for mask in range(1 << k):
        chosen = [graph.cycles[c] for c in range(k) if mask >> c & 1]
        family.append(trade(digraph.seats, cycle_takes(graph.jbc_student, chosen)))
    return family
