"""Beneficiary-set expansion over the JBC matching, plus a refinement pass.

Expansion works on a bipartite graph whose two sides are copies of the
improvable students.  A permutation with self-loops encodes a trade plan:
non-loop edges are envy edges and decompose into disjoint trading cycles,
loops mean "stay at DA".  An envy edge is admissible while its label is
contained in the current beneficiary set, i.e. the only priorities it can
put at stake belong to students who are gaining anyway.  Labels are
prefixes of each school's contenders, so the enviers admitted at a school
are a prefix of its contenders too: the first reach + 1, where the reach
counts its leading contenders that are covered (``_reach``, the one copy of
the rule, which both phases call).  Each iteration picks,
among permutations that use only admissible edges and keep every current
beneficiary trading, one with the fewest self-loops; newly covered students
enlarge the beneficiary set and may unlock more edges, so this repeats to a
fixed point.  The set only grows, so reaches only advance: each step
carries the previous one's reaches and cost matrix forward and admits only
the contenders its reaches advance over.  An admitted edge is stored once,
as a zero of the matrix.

A maximum matching on the loop-free bipartite graph is not a safe substitute
for the permutation formulation: it may cover unequal left/right vertex sets
(a path, not a cycle), which no self-loop completion can turn into a feasible
trade plan.  Minimising loops over perfect matchings of the loop-augmented
graph is the formulation that is always feasible, and it is solved here as a
0/1-cost assignment problem.

``expansion_step`` makes the one solve, a single ``linear_sum_assignment``
call per step.  The module-level function ``sjbc_plus.linear_sum_assignment``
hands the matrix to scipy's solver, which it imports on the first solve, so
a command that runs no expansion never loads ``scipy.optimize``; it is the
seam through which tests record or steer the solve.  Many permutations
often share the fewest loops, and which one a step takes is scipy's
tie-break.  It decides the trade plan, the refinement's start and so the
final matching, so outputs are byte-stable for a given scipy.  The CLI
goldens in ``tests/test_cli.py`` and the bench's reference digests are what
catch a scipy release that breaks the ties differently, and a test that
pins the solver's permutation on the fixtures' expansion matrices names the
move.  The nodes are listed by id, and ids follow the instance file, so
outputs also depend on the order of students and schools in the file: the
same market listed in another order can give another outcome, with the
same guarantees.

The refinement pass then fixes leftover inefficiency among the final
beneficiaries: it repeatedly executes cycles of envy edges at the *current*
matching whose execution cannot violate the priority of any improvable
student outside the beneficiary set, until none remain.  That is the same
rule, label inside the beneficiary set, applied to the envy of the current
matching; since the beneficiary set is fixed, each school's admitted enviers
are computed once, and each round walks only the beneficiaries' preference
prefixes above their current seats.

Both phases, and JBC under them, read the one DA envy digraph of the
instance from ``envy.da_context``.

Progress goes to this module's logger, ``matchlab.sjbc_plus``, as INFO
records: ``expansion t=…: beneficiaries = {…}`` for the start and each
expansion step, and ``refinement cycle: a -> b -> a`` for each executed
cycle.  ``solve --log-phases`` shows them; JBC's records go to its own
logger and are not among them.  Nothing is formatted while INFO is off.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from matchlab.envy import da_context
from matchlab.jbc import cycle_takes, run_jbc
from matchlab.model import NULL_SCHOOL, Problem, _instance_digest, _id_set, check_feasible, trade

if TYPE_CHECKING:
    import numpy as np

_log = logging.getLogger(__name__)


def linear_sum_assignment(cost):
    """scipy's ``linear_sum_assignment(cost)``, imported on the first call."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


@dataclass(frozen=True)
class ExpansionState:
    """Snapshot of one expansion iteration; ``run_expansion``'s loop counts
    the steps.

    ``reaches`` are each school's reach when the step that made the state
    admitted, and ``cost`` is the assignment cost matrix that step solved,
    with the loops of the state's own beneficiaries closed.  The next step
    advances both.  A state without ``cost``, like the first one, starts
    from no admitted envier.
    """

    beneficiaries: frozenset[int]
    permutation: dict[int, int]
    reaches: tuple[int, ...] = ()
    cost: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def admissible(self) -> dict[int, tuple[int, ...]]:
        """The admissible edges among the improvable students, targets
        ascending: the zeros of ``cost``, whose rows and columns follow the
        students in id order."""
        nodes = sorted(self.permutation)
        if self.cost is None:
            return dict.fromkeys(nodes, ())
        return {i: tuple(nodes[t] for t in (row == 0).nonzero()[0].tolist()) for i, row in zip(nodes, self.cost)}


def _reach(leading, covered, reach=0) -> int:
    """How many of a school's ``leading`` contenders are ``covered``,
    counting on from ``reach`` of them known covered.

    A label lies inside the covered set exactly when its envier has at most
    that many contenders ahead of her, so an improvable envier is admitted
    exactly when she is among the first reach + 1 contenders.
    """
    while reach < len(leading) and leading[reach] in covered:
        reach += 1
    return reach


def expansion_step(problem: Problem, state: ExpansionState) -> ExpansionState:
    """One iteration: re-optimise the permutation under the current set.

    The new beneficiary set is the set of students on non-loop edges; it
    always contains the previous one.  A step that cannot enlarge the set
    returns an equivalent state (same beneficiaries), which callers use as
    the stopping signal.
    """
    import numpy as np

    digraph = da_context(problem)
    nodes = sorted(digraph.improvable)
    index = {v: t for t, v in enumerate(nodes)}
    occupants: dict[int, list[int]] = {}  # per school, its improvable (so seated) occupants
    for j in nodes:
        occupants.setdefault(digraph.seats[j], []).append(j)
    big, covered = len(nodes) + 2, state.beneficiaries
    if state.cost is None:  # no edge yet; only beneficiaries may not stay
        cost = np.full((len(nodes), len(nodes)), big, dtype=np.int64)
        np.fill_diagonal(cost, [big if i in covered else 1 for i in nodes])
        reaches = [-1] * len(digraph.contenders)  # -1: none admitted
    else:
        cost, reaches = state.cost.copy(), list(state.reaches)
    for school, targets in occupants.items():
        leading, old = digraph.contenders[school], reaches[school]
        reach = _reach(leading, covered, max(old, 0))
        if reach == old:
            continue
        reaches[school] = reach
        for i in leading[old + 1 : reach + 1]:  # the newly admitted enviers
            for j in targets:
                cost[index[i], index[j]] = 0
    rows, cols = linear_sum_assignment(cost)
    if int(cost[rows, cols].sum()) >= big:  # cannot happen: the previous plan stays admissible
        message = "no feasible trade permutation; beneficiary set corrupted"
        raise RuntimeError(f"{message}, instance {_instance_digest(problem)}")
    perm = {nodes[r]: nodes[c] for r, c in zip(rows.tolist(), cols.tolist())}
    grown = frozenset(i for i in nodes if perm[i] != i)
    if grown == covered:
        perm = dict(state.permutation)  # no growth: keep the previous plan
    for i in grown - covered:  # new beneficiaries may not stay either
        cost[index[i], index[i]] = big
    return ExpansionState(grown, perm, tuple(reaches), cost)


def run_expansion(problem: Problem):
    """Expand from the JBC matching; returns the matching and its beneficiaries."""
    digraph = da_context(problem)
    if not digraph.improvable:
        return digraph.seats, frozenset()

    _, graph = run_jbc(problem)
    takes = cycle_takes(graph.jbc_student, graph.cycles)  # JBC's trades; everyone else stays
    perm = {i: takes.get(i, i) for i in digraph.improvable}
    state, previous = ExpansionState(frozenset(takes), perm), None
    for t in range(problem.n_students + 1):  # the set grows at every step but the last
        if _log.isEnabledFor(logging.INFO):
            names = ", ".join(problem.students[i] for i in sorted(state.beneficiaries))
            _log.info("expansion t=%d: beneficiaries = {%s}", t, names)
        if state.beneficiaries == previous:
            break
        previous, state = state.beneficiaries, expansion_step(problem, state)

    return trade(digraph.seats, state.permutation), state.beneficiaries


def _find_cycle(nodes, adj):
    """Admissible cycle whose minimum member is smallest, or None.

    For each candidate start (ascending), depth-first search restricted to
    ids at least the start, with neighbours visited in ascending order.
    """
    for start in nodes:
        parent = {start: None}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj.get(u, ()):
                if w == start:
                    path = [u]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
            for w in reversed(adj.get(u, ())):  # pop order: ascending ids
                if w > start and w not in parent:
                    parent[w] = u
                    stack.append(w)
    return None


def run_refinement(problem: Problem, mu_star, b_star) -> tuple[int, ...]:
    """Trade along admissible cycles at the current matching until none remain.

    Cycles run among the fixed beneficiary set only, so the beneficiaries of
    the result equal ``b_star``; every executed cycle strictly improves each
    of its members relative to her current seat.  An infeasible ``mu_star``
    or an id in ``b_star`` that is not a student raises ``InputError``.
    The result is a tuple of plain ints, the seats ``check_feasible``
    returns for ``mu_star`` when no cycle trades.
    """
    seats = check_feasible(problem, mu_star)
    b_star = _id_set(problem, b_star, "b_star")
    digraph = da_context(problem)
    members = sorted(b_star)
    prefs, pref_rank = problem.prefs, problem._pref_rank
    # b_star is fixed, so each school's admitted enviers are too
    allowed = [frozenset(leading[: _reach(leading, b_star) + 1]) for leading in digraph.contenders]

    max_rounds = len(members) * max(problem.n_schools - 1, 1) + 1
    for _ in range(max_rounds):
        wanting = [[] for _ in allowed]  # per school, the members who envy it and are admitted there
        for i in members:  # only their envy: their preference prefixes above their seats
            for school in prefs[i][: pref_rank[i][seats[i]] - 1]:
                if i in allowed[school]:
                    wanting[school].append(i)
        adj: dict[int, list[int]] = {i: [] for i in members}
        for j in members:  # ascending, so every target list ascends
            if seats[j] != NULL_SCHOOL:  # -1 would index the last school's list
                for i in wanting[seats[j]]:
                    adj[i].append(j)
        cycle = _find_cycle(members, adj)
        if cycle is None:
            return seats
        if _log.isEnabledFor(logging.INFO):
            names = " -> ".join(problem.students[i] for i in cycle + [cycle[0]])
            _log.info("refinement cycle: %s", names)
        seats = trade(seats, dict(zip(cycle, cycle[1:] + cycle[:1])))
    raise RuntimeError(f"refinement exceeded its iteration bound, instance {_instance_digest(problem)}")


def run_sjbc_plus(problem: Problem) -> tuple[int, ...]:
    """Full pipeline: deferred acceptance, JBC, expansion, refinement."""
    return run_refinement(problem, *run_expansion(problem))
