"""Labelled envy digraph over a deferred-acceptance outcome.

Nodes are students; an edge i -> j means i strictly prefers j's assigned
school to her own.  Each edge carries a label: the improvable students who
also want j's school and outrank i there, i.e. the potential victims were i
to take that seat.  Students lying on directed cycles are exactly the ones
that some Pareto improvement over the input matching can help.

Envy comes from ``model.envied``, which walks each student's preference
prefix above her own seat, so it costs O(sum of ranks), not O(n^2).
``on_envy_cycle`` searches for cycles on the student -> school graph (the
pointing graph of top trading cycles), one edge per envy pair, reversed and
read straight from the seats and the envy lists: student i is node i and
points at node n + seats[i], school s is node n + s and points at its
enviers.  The search is Tarjan's strong-component walk (SIAM J. Comput.
1972), in linear time and without recursion, so this module needs neither
numpy nor scipy.  With quotas above one an edge i -> j targets a seat, one
per occupant, and ``edges`` spells those out on demand.

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
``decompose_as_packing`` recovers it from a matching by its movers, the
students whose seat differs from DA's: sorted by (new seat, id) and by (old
seat, id) they must give the same seats, and the k-th of the first order
takes the seat of the k-th of the second.  ``packing_label`` reads its label.

Every mechanism and verdict reads the digraph of the DA outcome through
``da_context``, which builds it once per problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from matchlab.da import run_da
from matchlab.model import (
    NULL_SCHOOL,
    InputError,
    Problem,
    _check_ids,
    check_feasible,
    envied,
)


@dataclass(frozen=True)
class LabelledEnvyDigraph:
    """The improvable students and, per school, the contenders whose
    prefixes label the envy edges into it.

    ``seats`` are the DA matching.  ``contenders[s]`` lists the improvable
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


def on_envy_cycle(seats, envious) -> frozenset[int]:
    """The students on an envy cycle at ``seats``, where ``envious[s]``
    lists who envies school s: the students in strong components of two or
    more of the reversed student -> school graph.  Student i < n is node i
    and points at node ``n + seats[i]``; school s is node ``n + s`` and
    points at its enviers.

    Tarjan's search walks from each student not yet reached, keeping its
    path as a list of (node, unread edges, place on the node stack) in place
    of recursion, and pops each component off the end of the node stack
    when its root finishes.  It takes time linear in the nodes and edges.
    """
    n = len(seats)
    targets = [(n + s,) if s != NULL_SCHOOL else () for s in seats] + envious
    order, low = [0] * len(targets), [0] * len(targets)  # 1-based discovery order; 0: not reached
    stack, members, count = [], [], 0
    for root in range(n):  # a component with a student is reached from her
        if order[root]:
            continue
        count = order[root] = low[root] = count + 1
        walk = [(root, iter(targets[root]), len(stack))]
        stack.append(root)
        while walk:
            v, unread, place = walk[-1]
            for w in unread:
                if not order[w]:
                    count = order[w] = low[w] = count + 1
                    walk.append((w, iter(targets[w]), len(stack)))
                    stack.append(w)
                    break
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                walk.pop()
                if low[v] < order[v]:  # not a root: hand its low to its parent
                    parent = walk[-1][0]
                    low[parent] = min(low[parent], low[v])
                    continue
                for w in stack[place:]:  # v's component: the stack from v up
                    order[w] = len(order)  # done: no low exceeds it, so it lowers none
                if len(stack) - place > 1:
                    members += [w for w in stack[place:] if w < n]
                del stack[place:]
    return frozenset(members)


def build_envy(problem: Problem) -> LabelledEnvyDigraph:
    """Build the labelled envy digraph of the problem's deferred-acceptance outcome."""
    seats = run_da(problem)[0]
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


def da_context(problem: Problem) -> LabelledEnvyDigraph:
    """The envy digraph of the problem's DA outcome, built on the first call;
    its ``seats`` are the DA matching.

    The digraph is kept on the problem, beside its rank tables; a problem
    is immutable, so it never goes stale.
    """
    digraph = vars(problem).get("_da_digraph")
    if digraph is None:
        digraph = vars(problem)["_da_digraph"] = build_envy(problem)
    return digraph


def packing_label(problem: Problem, packing) -> frozenset[int]:
    """Union of the labels of all traded edges of the DA envy digraph: per
    entered school, the contenders that outrank its lowest-priority entrant.
    ``packing`` is any iterable of student cycles; a packing or cycle that is
    not iterable, or a member that is not a student id, raises ``InputError``."""
    try:
        cycles = [_check_ids("student", cycle, range(problem.n_students)) for cycle in packing]
    except TypeError:
        raise InputError("packing is not an iterable of student cycles") from None
    digraph = da_context(problem)
    deepest: dict[int, int] = {}
    for cycle in cycles:
        for i, j in zip(cycle, cycle[1:] + cycle[:1]):
            if not digraph.has_edge(i, j):
                raise InputError("packing uses an edge outside the digraph")
            school = digraph.seats[j]
            deepest[school] = max(deepest.get(school, 0), digraph.ahead[school][i])
    return frozenset(h for s, k in deepest.items() for h in digraph.contenders[s][:k])


def decompose_as_packing(problem: Problem, matching):
    """Recover the cycle packing over the DA matching that yields ``matching``.

    Returns the packing as ``canonical_packing`` spells it, a tuple of
    cycles with the minimum student first in each, or ``None`` when the
    matching does not arise from trading seats along envy edges: some mover
    fails to strictly improve, or the movers do not permute the occupied
    seats school by school.  DA's own packing ``()`` is falsy, so callers
    test ``is None``.  Which occupant a mover displaces is ambiguous for
    quotas above one; the k-th arrival by (new seat, id) takes the seat of
    the k-th departure by (old seat, id), so a school's entrants and leavers
    pair in ascending id order, which never changes edge labels.
    """
    after, before = check_feasible(problem, matching), da_context(problem).seats
    movers = [i for i, (old, new) in enumerate(zip(before, after)) if old != new]
    # DA seats each student at a school she lists, so a mover to or from the
    # null school either does not improve or leaves the seat sequences unequal
    if any(problem._pref_rank[i][after[i]] >= problem._pref_rank[i][before[i]] for i in movers):
        return None
    arrivals = sorted(movers, key=lambda i: (after[i], i))
    departures = sorted(movers, key=lambda i: (before[i], i))
    if [after[i] for i in arrivals] != [before[i] for i in departures]:
        return None
    return successor_cycles(dict(zip(arrivals, departures)))
