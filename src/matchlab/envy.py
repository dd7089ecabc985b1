"""Labelled envy digraph over a deferred-acceptance outcome.

Nodes are students; an edge i -> j means i strictly prefers j's assigned
school to her own.  Each edge carries a label: the improvable students who
also want j's school and outrank i there, i.e. the potential victims were i
to take that seat.  Students lying on directed cycles are exactly the ones
that some Pareto improvement over the input matching can help.

Envy comes from ``model.envied``, which walks each student's preference
prefix above her own seat, so it costs O(sum of ranks), not O(n^2).  Cycles
are searched on the student -> school graph (the pointing graph of top
trading cycles), one edge per envy pair; with quotas above one an edge i -> j
targets a seat, one per occupant, and ``edges`` spells those out on demand.

A label depends only on the target's school, and every label is a prefix of
one list per school: its *contenders*, the improvable students who envy it,
best priority first.  The digraph therefore keeps, per school, the
contenders and, per envious student, how many contenders outrank her; the
label of i -> j is the first that-many contenders of j's school.  Whether a
label lies inside a covered set is then one integer compare against the
school's *reach*, the number of its leading contenders that are covered, and
for an improvable envier, whose count is her own place among the contenders,
the admitted ones are a prefix of the contenders: the first reach + 1.
SJBC+ applies that rule in both its phases (``sjbc_plus._reach``).
``labels`` spells every label out on demand.

A cycle packing, the vertex-disjoint student cycles of a seat exchange, is
the tuple of its cycles as ``canonical_packing`` spells them.
``decompose_as_packing`` recovers it from a matching and ``packing_label``
reads its label.

Every mechanism and verdict reads the digraph of the DA outcome through
``da_context``, which builds it once per problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from matchlab.da import run_da
from matchlab.model import (
    NULL_SCHOOL,
    InputError,
    Matching,
    Problem,
    _check_ids,
    check_feasible,
    envied,
)


@dataclass(frozen=True)
class LabelledEnvyDigraph:
    """The improvable students and, per school, the contenders whose
    prefixes label the envy edges into it.

    ``seats`` is the DA assignment.  ``contenders[s]`` lists the improvable
    students who envy school s, best priority first; ``ahead[s]`` maps each
    student who envies s to the number of contenders that outrank her, in
    priority order.
    """

    improvable: frozenset[int]
    seats: tuple[int, ...]
    contenders: tuple[tuple[int, ...], ...]
    ahead: tuple[dict[int, int], ...]

    def has_edge(self, i: int, j: int) -> bool:
        """Whether i envies j's DA seat; ``InputError`` unless both are
        student ids."""
        i, j = _check_ids("student", (i, j), range(len(self.seats)))
        school = self.seats[j]
        return school != NULL_SCHOOL and i in self.ahead[school]

    @cached_property
    def edges(self) -> dict[int, tuple[int, ...]]:
        """Every student's envy edges, targets ascending, spelled out on first read."""
        out: dict[int, list[int]] = {i: [] for i in range(len(self.seats))}
        for j, school in enumerate(self.seats):
            if school != NULL_SCHOOL:
                for i in self.ahead[school]:
                    out[i].append(j)
        return {i: tuple(targets) for i, targets in out.items()}

    @cached_property
    def labels(self) -> dict[tuple[int, int], frozenset[int]]:
        """Every edge's label, spelled out on first read."""
        out = {}
        for i, targets in self.edges.items():
            for j in targets:
                school = self.seats[j]
                out[i, j] = frozenset(self.contenders[school][: self.ahead[school][i]])
        return out


def canonical_packing(cycles) -> tuple[tuple[int, ...], ...]:
    """The packing of vertex-disjoint ``cycles`` as a tuple of its cycles,
    each rotated so its smallest member leads, sorted by that."""
    normal = []
    for cycle in cycles:
        k = cycle.index(min(cycle))
        normal.append(tuple(cycle[k:]) + tuple(cycle[:k]))
    return tuple(sorted(normal))


def successor_cycles(succ: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """The cycles of an out-degree-at-most-one graph (node -> successor), in
    canonical form."""
    cycles, seen = [], set()
    for cur in succ:
        walk = []
        while cur in succ and cur not in seen:
            seen.add(cur)
            walk.append(cur)
            cur = succ[cur]
        if cur in walk:  # the walk closed on itself: a new cycle
            cycles.append(walk[walk.index(cur) :])
    return canonical_packing(cycles)


def cycle_members(n: int, edges) -> frozenset[int]:
    """The nodes of ``range(n)`` on a directed cycle of the loop-free graph
    ``edges`` (node -> iterable of targets): its strong components of two or
    more."""
    targets = [edges.get(v, ()) for v in range(n)]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum([len(t) for t in targets], out=indptr[1:])
    indices = np.fromiter((w for t in targets for w in t), dtype=np.int32, count=indptr[-1])
    # float64 weights and int32 indices are csgraph's own types: no conversion
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    _, component = connected_components(graph, directed=True, connection="strong")
    return frozenset(np.flatnonzero(np.bincount(component)[component] >= 2).tolist())


def on_envy_cycle(seats, envious) -> frozenset[int]:
    """The students on an envy cycle at ``seats``; ``envious[s]`` lists who
    envies school s.  On the reversed student -> school graph, school s is
    node ``n + s`` and points at its enviers, a student at her seat."""
    n = len(seats)
    edges = {n + s: students for s, students in enumerate(envious)}
    edges.update((i, (n + s,)) for i, s in enumerate(seats) if s != NULL_SCHOOL)
    return frozenset(v for v in cycle_members(n + len(envious), edges) if v < n)


def build_envy(problem: Problem) -> LabelledEnvyDigraph:
    """Build the labelled envy digraph of the problem's deferred-acceptance outcome."""
    seats = run_da(problem)[0].assignment
    envious = envied(problem, seats)
    improvable = on_envy_cycle(seats, envious)
    contenders, ahead = [], []
    for school, students in enumerate(envious):
        leading: list[int] = []
        count: dict[int, int] = {}
        for h in sorted(students, key=problem._prio_rank[school].__getitem__):
            count[h] = len(leading)
            if h in improvable:
                leading.append(h)
        contenders.append(tuple(leading))
        ahead.append(count)
    return LabelledEnvyDigraph(
        improvable=improvable,
        seats=seats,
        contenders=tuple(contenders),
        ahead=tuple(ahead),
    )


def da_context(problem: Problem):
    """The DA matching and its envy digraph, built on the first call.

    The digraph is kept on the problem, beside its rank tables; a problem
    is immutable, so it never goes stale.  The matching is read off the
    digraph's DA seats.
    """
    digraph = vars(problem).get("_da_digraph")
    if digraph is None:
        digraph = vars(problem)["_da_digraph"] = build_envy(problem)
    return Matching(digraph.seats), digraph


def packing_label(problem: Problem, packing) -> frozenset[int]:
    """Union of the labels of all traded edges of the DA envy digraph: per
    entered school, the contenders that outrank its lowest-priority entrant.
    ``packing`` is any iterable of student cycles; a member that is not a
    student id raises ``InputError``."""
    cycles = [_check_ids("student", cycle, range(problem.n_students)) for cycle in packing]
    digraph = da_context(problem)[1]
    deepest: dict[int, int] = {}
    for cycle in cycles:
        for pos, i in enumerate(cycle):
            j = cycle[(pos + 1) % len(cycle)]
            if not digraph.has_edge(i, j):
                raise InputError("packing uses an edge outside the digraph")
            school = digraph.seats[j]
            deepest[school] = max(deepest.get(school, 0), digraph.ahead[school][i])
    return frozenset(h for s, k in deepest.items() for h in digraph.contenders[s][:k])


def decompose_as_packing(problem: Problem, matching: Matching):
    """Recover the cycle packing over the DA matching that yields ``matching``.

    Returns the packing as ``canonical_packing`` spells it, a tuple of
    cycles with the minimum student first in each, or ``None`` when the
    matching does not arise from trading seats along envy edges: some mover
    fails to strictly improve, or the movers do not permute the occupied
    seats school by school.  DA's own packing ``()`` is falsy, so callers
    test ``is None``.  Which occupant a mover
    displaces is ambiguous for quotas above one; entrants and leavers are
    paired in ascending id order, which never changes edge labels.
    """
    after, before = check_feasible(problem, matching), da_context(problem)[1].seats
    entrants: dict[int, list[int]] = {}
    leavers: dict[int, list[int]] = {}
    for i, (old, new) in enumerate(zip(before, after)):
        if old == new:
            continue
        if old == NULL_SCHOOL or new == NULL_SCHOOL:
            return None
        if problem._pref_rank[i][new] >= problem._pref_rank[i][old]:
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
    return successor_cycles(successor)
