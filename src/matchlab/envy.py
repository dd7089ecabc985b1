"""Labelled envy digraph over a deferred-acceptance outcome.

Nodes are students; an edge i -> j means i strictly prefers j's assigned
school to her own.  Each edge carries a label: the improvable students who
also want j's school and outrank i there, i.e. the potential victims were i
to take that seat.  Students lying on directed cycles (equivalently, in
strongly connected components of size >= 2) are exactly the ones that some
Pareto improvement over the input matching can help.

Edges come from ``model.envied``, which walks each student's preference
prefix above her own seat, so the graph costs O(sum of ranks + edges), not
O(n^2).  With quotas above one an edge targets a specific student (a seat);
labels depend only on the target's school, so they are computed once per
school and do not depend on which occupant a trade displaces.
"""

from __future__ import annotations

from dataclasses import dataclass

from matchlab.model import (
    NULL_SCHOOL,
    InputError,
    Matching,
    Problem,
    check_feasible,
    envied,
    rank_of,
)


@dataclass(frozen=True)
class LabelledEnvyDigraph:
    """Envy edges, per-edge labels, and the cycle structure of the graph."""

    edges: dict[int, tuple[int, ...]]
    labels: dict[tuple[int, int], frozenset[int]]
    sccs: tuple[tuple[int, ...], ...]
    improvable: frozenset[int]

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.labels


@dataclass(frozen=True)
class CyclePacking:
    """Vertex-disjoint student cycles; the carrier of a seat exchange."""

    cycles: tuple[tuple[int, ...], ...]

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(i for cycle in self.cycles for i in cycle)


def canonical_packing(cycles) -> CyclePacking:
    """Rotate each cycle so its smallest student leads; sort cycles by that."""
    normal = []
    for cycle in cycles:
        k = cycle.index(min(cycle))
        normal.append(tuple(cycle[k:]) + tuple(cycle[:k]))
    normal.sort()
    return CyclePacking(tuple(normal))


def strongly_connected_components(nodes, edges) -> list[list[int]]:
    """Tarjan's algorithm, iterative to cope with deep recursion."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(edges.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                sccs.append(sorted(component))
    return sccs


def envy_edges(problem: Problem, matching: Matching, envious) -> dict[int, tuple[int, ...]]:
    """Edges i -> j for each i in ``envious[s]`` (see ``envied``) and each occupant j
    of s; every target tuple ascends."""
    edges: list[list[int]] = [[] for _ in range(problem.n_students)]
    for school, roster in enumerate(matching.rosters(problem)):
        for i in envious[school]:
            edges[i].extend(roster)
    return {i: tuple(sorted(targets)) for i, targets in enumerate(edges)}


def build_envy(problem: Problem, da_matching: Matching) -> LabelledEnvyDigraph:
    """Build the labelled envy digraph of a (deferred-acceptance) matching."""
    check_feasible(problem, da_matching)
    envious = envied(problem, da_matching.assignment)
    edges = envy_edges(problem, da_matching, envious)
    sccs = strongly_connected_components(range(problem.n_students), edges)
    # A student never envies herself, so nontrivial means size >= 2.
    improvable = frozenset(i for scc in sccs for i in scc if len(scc) >= 2)

    # Per school, each envious student's label: the improvable students who
    # also envy the school and outrank her there.
    per_school: list[dict[int, frozenset[int]]] = []
    for school, students in enumerate(envious):
        label: dict[int, frozenset[int]] = {}
        above: frozenset[int] = frozenset()  # improvable envious students seen so far
        for h in sorted(students, key=problem._prio_rank[school].__getitem__):
            label[h] = above
            if h in improvable:
                above = above | {h}
        per_school.append(label)
    labels = {
        (i, j): per_school[school][i]
        for j, school in enumerate(da_matching.assignment)
        if school != NULL_SCHOOL
        for i in envious[school]
    }
    return LabelledEnvyDigraph(
        edges=edges,
        labels=labels,
        sccs=tuple(tuple(c) for c in sccs),
        improvable=improvable,
    )


def _check_packing(problem: Problem, da_matching: Matching, packing: CyclePacking) -> None:
    seen = set()
    own_rank = {}
    for cycle in packing.cycles:
        if len(cycle) < 2:
            raise InputError("cycles must have at least two students")
        for i in cycle:
            if not 0 <= i < problem.n_students:
                raise InputError(f"invalid student id {i} in packing")
            if i in seen:
                raise InputError(f"student {problem.students[i]} appears in two cycles")
            seen.add(i)
        for pos, i in enumerate(cycle):
            j = cycle[(pos + 1) % len(cycle)]
            target = da_matching.assignment[j]
            if i not in own_rank:
                own_rank[i] = rank_of(problem, i, da_matching.assignment[i])
            if target == NULL_SCHOOL or rank_of(problem, i, target) >= own_rank[i]:
                raise InputError(
                    f"{problem.students[i]} -> {problem.students[j]} is not an envy edge"
                )


def apply_packing(problem: Problem, da_matching: Matching, packing: CyclePacking) -> Matching:
    """Trade along every cycle: each member takes her successor's seat.

    Covered students strictly improve; everyone else keeps her assignment.
    Raises ``InputError`` for overlapping cycles or non-edges.
    """
    _check_packing(problem, da_matching, packing)
    assignment = list(da_matching.assignment)
    for cycle in packing.cycles:
        for pos, i in enumerate(cycle):
            j = cycle[(pos + 1) % len(cycle)]
            assignment[i] = da_matching.assignment[j]
    return Matching(tuple(assignment))


def packing_label(digraph: LabelledEnvyDigraph, packing: CyclePacking) -> frozenset[int]:
    """Union of the labels of all traded edges."""
    out: set[int] = set()
    for cycle in packing.cycles:
        for pos, i in enumerate(cycle):
            j = cycle[(pos + 1) % len(cycle)]
            if (i, j) not in digraph.labels:
                raise InputError("packing uses an edge outside the digraph")
            out |= digraph.labels[(i, j)]
    return frozenset(out)


def decompose_as_packing(problem: Problem, da_matching: Matching, matching: Matching):
    """Recover the cycle packing over ``da_matching`` that yields ``matching``.

    Returns the packing in canonical form (minimum student first in each
    cycle), or ``None`` when the matching does not arise from trading seats
    along envy edges: some mover fails to strictly improve, or the movers do
    not permute the occupied seats school by school.  Which occupant a mover
    displaces is ambiguous for quotas above one; entrants and leavers are
    paired in ascending id order, which never changes edge labels.
    """
    check_feasible(problem, matching)
    movers = [
        i
        for i in range(problem.n_students)
        if matching.assignment[i] != da_matching.assignment[i]
    ]
    if not movers:
        return CyclePacking(())

    entrants: dict[int, list[int]] = {}
    leavers: dict[int, list[int]] = {}
    for i in movers:
        old, new = da_matching.assignment[i], matching.assignment[i]
        if old == NULL_SCHOOL or new == NULL_SCHOOL:
            return None
        if rank_of(problem, i, new) >= rank_of(problem, i, old):
            return None
        entrants.setdefault(new, []).append(i)
        leavers.setdefault(old, []).append(i)
    if set(entrants) != set(leavers):
        return None
    successor = {}
    for school, arriving in entrants.items():
        leaving = sorted(leavers[school])
        if len(arriving) != len(leaving):
            return None
        for i, j in zip(sorted(arriving), leaving):
            successor[i] = j

    cycles = []
    remaining = set(movers)
    while remaining:
        start = min(remaining)
        cycle = [start]
        remaining.discard(start)
        cur = successor[start]
        while cur != start:
            cycle.append(cur)
            remaining.discard(cur)
            cur = successor[cur]
        cycles.append(tuple(cycle))
    return canonical_packing(cycles)
