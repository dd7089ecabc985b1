"""Beneficiary-set expansion over the JBC matching, plus a refinement pass.

Expansion works on a bipartite graph whose two sides are copies of the
improvable students.  A permutation with self-loops encodes a trade plan:
non-loop edges are envy edges and decompose into disjoint trading cycles,
loops mean "stay at DA".  An envy edge is admissible while its label is
contained in the current beneficiary set, i.e. the only priorities it can
put at stake belong to students who are gaining anyway.  Labels are
prefixes of each school's contenders, so ``envy.admitted`` decides this
with one integer compare per envious student and school.  Each iteration
picks, among permutations that use only admissible edges and keep every
current beneficiary trading, one with the fewest self-loops; newly covered
students enlarge the beneficiary set and may unlock more edges, so this
repeats to a fixed point.

A maximum matching on the loop-free bipartite graph is not a safe substitute
for the permutation formulation: it may cover unequal left/right vertex sets
(a path, not a cycle), which no self-loop completion can turn into a feasible
trade plan.  Minimising loops over perfect matchings of the loop-augmented
graph is the formulation that is always feasible, and it is solved here as a
0/1-cost assignment problem.

Many permutations often share the fewest loops, and which one a step takes
is scipy's ``linear_sum_assignment`` tie-break.  It decides the trade plan,
the refinement's start and so the final matching, so outputs are
byte-stable for a given scipy.  The CLI goldens in ``tests/test_cli.py``
and the bench's reference digests are what catch a scipy release that
breaks the ties differently.

The refinement pass then fixes leftover inefficiency among the final
beneficiaries: it repeatedly executes cycles of envy edges at the *current*
matching whose execution cannot violate the priority of any improvable
student outside the beneficiary set, until none remain.  That is the same
rule, label inside the beneficiary set, applied to the envy of the current
matching.

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
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from matchlab.envy import admissible_adjacency, admitted, da_context
from matchlab.jbc import cycle_takes, run_jbc
from matchlab.model import Matching, Problem, _instance_digest, _student_set, check_feasible
from matchlab.model import envied, trade

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExpansionState:
    """Snapshot of one expansion iteration."""

    t: int
    beneficiaries: frozenset[int]
    permutation: dict[int, int]
    admissible: dict[int, tuple[int, ...]]


def _min_loop_permutation(nodes: list[int], adj: dict[int, tuple[int, ...]], keep_trading):
    """Fewest-self-loop permutation using only ``adj`` edges and loops.

    Students in ``keep_trading`` may not take a loop.  Always feasible as
    long as the caller guarantees some loop-free cover for them (here: the
    previous iteration's permutation stays admissible); None when there is
    none.
    """
    k = len(nodes)
    if k == 0:
        return {}
    index = {v: t for t, v in enumerate(nodes)}
    big = k + 2
    cost = np.full((k, k), big, dtype=np.int64)
    for a in nodes:
        for j in adj[a]:
            cost[index[a], index[j]] = 0
    for a in nodes:
        if a not in keep_trading:
            cost[index[a], index[a]] = 1
    rows, cols = linear_sum_assignment(cost)
    total = int(cost[rows, cols].sum())
    if total >= big:
        return None
    return {nodes[r]: nodes[c] for r, c in zip(rows, cols)}


def expansion_step(problem: Problem, state: ExpansionState) -> ExpansionState:
    """One iteration: re-optimise the permutation under the current set.

    The new beneficiary set is the set of students on non-loop edges; it
    always contains the previous one.  A step that cannot enlarge the set
    returns an equivalent state (same beneficiaries), which callers use as
    the stopping signal.
    """
    _, digraph = da_context(problem)
    nodes = sorted(digraph.improvable)
    allowed = admitted(digraph, state.beneficiaries, digraph.improvable)
    adj = admissible_adjacency(allowed, nodes, digraph.seats, digraph.ahead)  # keys: DA enviers
    perm = _min_loop_permutation(nodes, adj, state.beneficiaries)
    if perm is None:
        message = "no feasible trade permutation; beneficiary set corrupted"
        raise RuntimeError(f"{message}, instance {_instance_digest(problem)}")
    covered = frozenset(i for i in nodes if perm[i] != i)
    if covered == state.beneficiaries:
        perm = dict(state.permutation)  # no growth: keep the previous plan
    return ExpansionState(state.t + 1, covered, perm, adj)


def run_expansion(problem: Problem):
    """Expand from the JBC matching; returns the matching and its beneficiaries."""
    da_matching, digraph = da_context(problem)
    if not digraph.improvable:
        return da_matching, frozenset()

    _, graph = run_jbc(problem)
    takes = cycle_takes(graph, graph.cycles)  # JBC's trades; everyone else stays
    perm = {i: takes.get(i, i) for i in digraph.improvable}
    state, previous = ExpansionState(0, frozenset(takes), perm, {}), None
    for _ in range(problem.n_students + 1):  # the set grows at every step but the last
        if _log.isEnabledFor(logging.INFO):
            names = ", ".join(problem.students[i] for i in sorted(state.beneficiaries))
            _log.info("expansion t=%d: beneficiaries = {%s}", state.t, names)
        if state.beneficiaries == previous:
            break
        previous, state = state.beneficiaries, expansion_step(problem, state)

    return trade(da_matching, state.permutation), state.beneficiaries


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


def run_refinement(problem: Problem, mu_star: Matching, b_star):
    """Trade along admissible cycles at the current matching until none remain.

    Cycles run among the fixed beneficiary set only, so the beneficiaries of
    the result equal ``b_star``; every executed cycle strictly improves each
    of its members relative to her current seat.  An infeasible ``mu_star``
    or an id in ``b_star`` that is not a student raises ``InputError``.
    """
    check_feasible(problem, mu_star)
    b_star = _student_set(problem, b_star, "b_star")
    _, digraph = da_context(problem)
    members = sorted(b_star)
    allowed = admitted(digraph, b_star, b_star)  # b_star is fixed, so the rule is too

    current = mu_star
    max_rounds = len(members) * max(problem.n_schools - 1, 1) + 1
    for _ in range(max_rounds):
        seats = current.assignment
        adj = admissible_adjacency(allowed, members, seats, envied(problem, seats))
        cycle = _find_cycle(members, adj)
        if cycle is None:
            return current
        if _log.isEnabledFor(logging.INFO):
            names = " -> ".join(problem.students[i] for i in cycle + [cycle[0]])
            _log.info("refinement cycle: %s", names)
        current = trade(current, dict(zip(cycle, cycle[1:] + cycle[:1])))
    raise RuntimeError(f"refinement exceeded its iteration bound, instance {_instance_digest(problem)}")


def run_sjbc_plus(problem: Problem) -> Matching:
    """Full pipeline: deferred acceptance, JBC, expansion, refinement."""
    return run_refinement(problem, *run_expansion(problem))
