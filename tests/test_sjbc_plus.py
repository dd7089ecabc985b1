import itertools
import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from matchlab import oracle, sjbc_plus
from matchlab.analysis import beneficiaries, is_justifiable, is_pareto_efficient
from matchlab.da import run_da
from matchlab.eada import run_eada
from matchlab.envy import build_envy, da_context, decompose_as_packing
from matchlab.fixtures import load_fixture
from matchlab.jbc import run_jbc
from matchlab.model import (
    A_DOMINATES,
    InputError,
    Problem,
    matching_to_dict,
    pareto_compare,
)
from matchlab.simgen import GenConfig, gen_instance
from matchlab.sjbc_plus import (
    ExpansionState,
    expansion_step,
    run_expansion,
    run_refinement,
    run_sjbc_plus,
)

from conftest import corr50_markets, large_markets, matching_by_name, mixed_markets, names_of
from test_envy import envies, on_cycle, pairwise_edges

JPE_EX1 = {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4", "i7": "s7"}
MU_J_EXNOEFF = {"i1": "s4", "i2": "s1", "i3": "s3", "i4": "s2", "i5": "s5", "i6": "s6"}


def bootstrap_state(problem):
    da, _ = run_da(problem)
    digraph = build_envy(problem)
    jbc_matching, _ = run_jbc(problem)
    packing = decompose_as_packing(problem, jbc_matching)
    perm = {i: i for i in digraph.improvable}
    for cycle in packing:
        for pos, i in enumerate(cycle):
            perm[i] = cycle[(pos + 1) % len(cycle)]
    return da, digraph, ExpansionState(frozenset(i for cycle in packing for i in cycle), perm)


def test_expansion_step_ex1_covers_everyone(ex1):
    da, digraph, state = bootstrap_state(ex1)
    assert names_of(ex1, state.beneficiaries) == ["i1", "i4", "i5"]
    nxt = expansion_step(ex1, state)
    assert names_of(ex1, nxt.beneficiaries) == ["i1", "i2", "i3", "i4", "i5", "i6"]
    # the permutation decomposes into cycles: left and right cover coincide
    non_loops = {(i, j) for i, j in nxt.permutation.items() if i != j}
    assert {i for i, _ in non_loops} == {j for _, j in non_loops}
    assert state.beneficiaries <= nxt.beneficiaries


def test_expansion_step_exnoeff_stalls(exnoeff):
    da, digraph, state = bootstrap_state(exnoeff)
    assert names_of(exnoeff, state.beneficiaries) == ["i1", "i2", "i4"]
    nxt = expansion_step(exnoeff, state)
    assert nxt.beneficiaries == state.beneficiaries
    assert nxt.permutation == state.permutation


def test_expansion_step_fixed_point_when_everyone_trades(ex1):
    da, digraph, state = bootstrap_state(ex1)
    grown = expansion_step(ex1, state)
    again = expansion_step(ex1, grown)
    assert again.beneficiaries == grown.beneficiaries


def from_scratch_step(problem, state):
    """An expansion step that rebuilds everything: the admitted enviers over
    every ``ahead`` item, the whole admissible adjacency and the cost matrix
    filled edge by edge.  Returns the next state, its adjacency and the
    matrix solved."""
    digraph = da_context(problem)
    nodes = sorted(digraph.improvable)
    allowed = []
    for leading, ahead in zip(digraph.contenders, digraph.ahead):
        reach = 0
        while reach < len(leading) and leading[reach] in state.beneficiaries:
            reach += 1
        allowed.append({i for i, k in ahead.items() if k <= reach and i in digraph.improvable})
    adj = {i: tuple(j for j in nodes if i in allowed[digraph.seats[j]]) for i in nodes}
    k, index = len(nodes), {v: t for t, v in enumerate(nodes)}
    cost = np.full((k, k), k + 2, dtype=np.int64)
    for a in nodes:
        for j in adj[a]:
            cost[index[a], index[j]] = 0
        if a not in state.beneficiaries:
            cost[index[a], index[a]] = 1
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].sum() < k + 2
    perm = {nodes[r]: nodes[c] for r, c in zip(rows, cols)}
    covered = frozenset(i for i in nodes if perm[i] != i)
    if covered == state.beneficiaries:
        perm = dict(state.permutation)
    return ExpansionState(covered, perm), adj, cost


def test_expansion_steps_match_the_from_scratch_step(monkeypatch):
    # Each step admits only the enviers its reaches advance over and edits
    # the previous cost matrix; it must reach every state, and hand the
    # solver every matrix, that rebuilding from scratch gives.
    steps, matrices = [], []
    step, solve = sjbc_plus.expansion_step, sjbc_plus.linear_sum_assignment

    def recorded_step(problem, state):
        steps.append((state, step(problem, state)))
        return steps[-1][1]

    def recorded_solve(cost):
        matrices.append(cost.copy())
        return solve(cost)

    monkeypatch.setattr(sjbc_plus, "expansion_step", recorded_step)
    monkeypatch.setattr(sjbc_plus, "linear_sum_assignment", recorded_solve)
    total = 0
    for problem in mixed_markets(2929, 120) + large_markets() + corr50_markets(40):
        steps.clear()
        matrices.clear()
        run_expansion(problem)
        assert len(matrices) == len(steps)
        for k, ((before, after), cost) in enumerate(zip(steps, matrices)):
            expected, expected_adj, expected_cost = from_scratch_step(problem, before)
            assert k == 0 or before is steps[k - 1][1]  # each step starts from the last
            assert after.beneficiaries == expected.beneficiaries
            assert after.permutation == expected.permutation
            assert after.admissible == expected_adj
            assert cost.dtype == expected_cost.dtype and np.array_equal(cost, expected_cost)
        total += len(steps)
    assert total > 300


# Per fixture, each expansion step's cost matrix (rows left to right, "x" for
# the big cost) and the columns linear_sum_assignment returned for it.  Both
# explus matrices have two optimal permutations, so theirs is scipy's
# tie-break: a scipy release that breaks ties differently fails here, beside
# the goldens it moves.  The other matrices have one optimum each.
PINNED_ASSIGNMENTS = {
    "ex1": [
        ("x0000x 01xxxx xx1xx0 xxxx0x 0x0xxx xxx0x1", [1, 0, 5, 4, 2, 3]),
        ("x00000 0xxxxx xxxxx0 xxxx0x 0x00x0 xxx0xx", [1, 0, 5, 4, 2, 3]),
    ],
    "exd": [
        ("10xx0 xxx0x 00xx0 x0xxx xx00x", [4, 3, 0, 1, 2]),
        ("x0xx0 xxx0x 00xx0 x0xxx xx00x", [4, 3, 0, 1, 2]),
    ],
    "exe": [
        ("xx00x 0xxx0 x0xxx xxx1x 000x1", [2, 4, 1, 3, 0]),
        ("xx00x 0xxx0 x0xxx xx01x 000xx", [3, 4, 1, 2, 0]),
        ("xx00x 0xxx0 x0xxx xx0xx 000xx", [3, 4, 1, 2, 0]),
    ],
    "exnoeff": [("xx00x 0xxx0 x0xxx xxx1x x00x1", [2, 0, 1, 3, 4])],
    "explus": [
        ("1x00 xx00 x0xx 00x1", [2, 3, 1, 0]),
        ("x000 0x00 x0xx 00xx", [2, 3, 1, 0]),
    ],
}


def test_assignment_tie_break_is_pinned_on_the_fixtures(monkeypatch):
    solved, solve = [], sjbc_plus.linear_sum_assignment

    def recorded_solve(cost):
        rows, cols = solve(cost)
        solved.append((cost.copy(), rows.tolist(), cols.tolist()))
        return rows, cols

    monkeypatch.setattr(sjbc_plus, "linear_sum_assignment", recorded_solve)
    tied = []
    for name, pinned in PINNED_ASSIGNMENTS.items():
        solved.clear()
        run_expansion(load_fixture(name))
        k = len(solved[0][0])
        symbols = {0: "0", 1: "1", k + 2: "x"}
        matrices = [" ".join("".join(symbols[c] for c in row.tolist()) for row in cost) for cost, _, _ in solved]
        assert matrices == [matrix for matrix, _ in pinned], f"{name}: the expansion moved"
        assert [cols for _, _, cols in solved] == [cols for _, cols in pinned], f"{name}: the tie-break moved"
        for step, (cost, rows, cols) in enumerate(solved):
            totals = {p: cost[range(k), p].sum() for p in itertools.permutations(range(k))}
            best = min(totals.values())
            optima = [list(p) for p, total in totals.items() if total == best]
            assert rows == list(range(k)) and cols in optima
            if len(optima) > 1:
                tied.append((name, step, len(optima)))
    assert tied == [("explus", 0, 2), ("explus", 1, 2)]


def test_run_expansion_goldens(ex1, exnoeff):
    mu_star, b_star = run_expansion(ex1)
    assert names_of(ex1, b_star) == ["i1", "i2", "i3", "i4", "i5", "i6"]
    assert mu_star == matching_by_name(ex1, JPE_EX1)

    mu_star, b_star = run_expansion(exnoeff)
    assert mu_star == matching_by_name(exnoeff, MU_J_EXNOEFF)
    assert names_of(exnoeff, b_star) == ["i1", "i2", "i4"]


def test_run_expansion_efficient_da():
    from matchlab.model import Problem

    problem = Problem(
        students=("a", "b"),
        schools=("x", "y"),
        quotas=(1, 1),
        prefs=((0,), (1,)),
        priorities=((0, 1), (0, 1)),
    )
    da, _ = run_da(problem)
    matching, b_star = run_expansion(problem)
    assert matching == da
    assert b_star == frozenset()


def test_run_refinement_explus_fixes_bad_selection(explus):
    # feeding the refinement the dominated four-cycle selection must end at
    # the serial-dictatorship outcome for the order i2, i3, i4, i5, i1
    bad = matching_by_name(
        explus, {"i1": "s3", "i2": "s2", "i3": "s4", "i4": "s5", "i5": "s1"}
    )
    b_star = frozenset(explus.student_id(n) for n in ("i2", "i3", "i4", "i5"))
    final = run_refinement(explus, bad, b_star)
    assert final == matching_by_name(
        explus, {"i1": "s3", "i2": "s4", "i3": "s2", "i4": "s5", "i5": "s1"}
    )


def test_run_refinement_leaves_pe_matching_alone(ex1):
    mu_star, b_star = run_expansion(ex1)
    assert run_refinement(ex1, mu_star, b_star) == mu_star


def test_run_refinement_rejects_malformed_input(ex1):
    # The seats pass check_feasible and the beneficiaries must be students,
    # checked once at entry: nothing comes back unchanged or as an IndexError.
    mu_star, b_star = run_expansion(ex1)
    crowded = (0,) * ex1.n_students
    cases = (
        (crowded, b_star, "over quota"),
        (mu_star[:-1], b_star, "matching length"),
        (mu_star, b_star | {99}, "invalid student id 99"),
    )
    for seats, members, text in cases:
        with pytest.raises(InputError, match=text):
            run_refinement(ex1, seats, members)


def test_run_refinement_exnoeff_unchanged(exnoeff):
    # the i1/i5 exchange would need i6 (outside the beneficiary set) to give
    # way at s4, so no admissible cycle exists
    mu_star, b_star = run_expansion(exnoeff)
    assert run_refinement(exnoeff, mu_star, b_star) == mu_star


def test_run_sjbc_plus_goldens(ex1, exnoeff, explus):
    assert run_sjbc_plus(ex1) == matching_by_name(ex1, JPE_EX1)
    assert run_sjbc_plus(exnoeff) == matching_by_name(exnoeff, MU_J_EXNOEFF)
    plus = run_sjbc_plus(explus)
    assert plus == matching_by_name(
        explus, {"i1": "s3", "i2": "s4", "i3": "s2", "i4": "s5", "i5": "s1"}
    )
    assert is_pareto_efficient(explus, plus)


def test_run_sjbc_plus_exd_extends_jbc(exd):
    jbc_matching, _ = run_jbc(exd)
    plus = run_sjbc_plus(exd)
    assert beneficiaries(exd, jbc_matching) <= beneficiaries(exd, plus)
    assert names_of(exd, beneficiaries(exd, jbc_matching)) == ["i2", "i3", "i5", "i6"]


def test_exe_behaviour_under_actual_label_semantics(exe):
    # With labels confined to students who actually rank the contested school,
    # the expansion escapes the initial set {i1, i2, i4} (first via i6, whose
    # entry at s1 can only wrong i2, then via i5) and ends at the unique
    # justifiable matching covering all five improvable students.
    plus = run_sjbc_plus(exe)
    assert names_of(exe, beneficiaries(exe, plus)) == ["i1", "i2", "i4", "i5", "i6"]
    verdict = is_justifiable(exe, plus)
    assert verdict.justifiable
    assert verdict.pareto_efficient


def test_outcome_guarantees_random():
    for n in (4, 5, 6, 7):
        for rep in range(25):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=210 + n), rep)
            da, _ = run_da(problem)
            digraph = build_envy(problem)
            jbc_matching, _ = run_jbc(problem)
            plus = run_sjbc_plus(problem)
            if digraph.improvable:
                assert pareto_compare(problem, plus, da) == A_DOMINATES
                verdict = is_justifiable(problem, plus)
                assert verdict.justifiable
                assert beneficiaries(problem, jbc_matching) <= verdict.beneficiaries
            else:
                assert plus == da


def test_expansion_permutation_always_cycle_structured():
    for n in (5, 6, 7):
        for rep in range(15):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=230 + n), rep)
            digraph = build_envy(problem)
            if not digraph.improvable:
                continue
            _, digraph2, state = bootstrap_state(problem)
            for _ in range(n):
                state = expansion_step(problem, state)
                non_loops = {(i, j) for i, j in state.permutation.items() if i != j}
                assert {i for i, _ in non_loops} == {j for _, j in non_loops}
                for i, j in non_loops:
                    assert digraph2.has_edge(i, j)


def admissible_edges(problem, da, improvable, matching, gainers):
    """The naive refinement graph over ``gainers`` at ``matching``, and how
    many envy edges among them it leaves out.  Edge i -> j: i envies j's
    current seat, and i's DA label there, taken by definition (the
    improvable students who envy that school at DA and outrank i there),
    lies inside ``gainers``."""
    edges, blocked = {}, 0
    enviers = {}  # per school, (priority, h) for each improvable h who envies it at DA
    for i in gainers:
        edges[i] = []
        for j in gainers:
            school = matching[j]
            if j == i or not envies(problem, matching, i, school):
                continue
            if school not in enviers:
                enviers[school] = [
                    (oracle.priority_scan(problem, school, h), h)
                    for h in improvable
                    if envies(problem, da, h, school)
                ]
            rank = oracle.priority_scan(problem, school, i)
            label = {h for priority, h in enviers[school] if priority < rank}
            if label <= gainers:
                edges[i].append(j)
            else:
                blocked += 1
    return edges, blocked


def test_no_admissible_cycle_left_among_beneficiaries_beyond_oracle_sizes():
    # On the fixed markets of ``large_markets``: at the SJBC+ outcome, the
    # graph over its beneficiaries has no cycle.
    admissible = blocked = 0
    for problem in large_markets():
        da, _ = run_da(problem)
        improvable = on_cycle(pairwise_edges(problem, da))
        plus = run_sjbc_plus(problem)
        gainers = oracle.beneficiaries_scan(problem, da, plus)
        edges, cut = admissible_edges(problem, da, improvable, plus, gainers)
        assert not on_cycle(edges), problem
        admissible += sum(map(len, edges.values()))
        blocked += cut
    assert admissible and blocked


def assert_guarantees(problem, outcomes):
    """SJBC+'s guarantees, checked by scans, on each of ``outcomes``: it
    weakly dominates DA and is justifiable, every victim gains or is not
    improvable, JBC's beneficiaries gain, and no admissible cycle is left
    among the beneficiaries."""
    da, _ = run_da(problem)
    improvable = on_cycle(pairwise_edges(problem, da))
    jbc_gainers = oracle.beneficiaries_scan(problem, da, run_jbc(problem)[0])
    for plus in outcomes:
        assert oracle.dominates_weakly(problem, plus, da)
        assert is_justifiable(problem, plus).justifiable
        gainers = oracle.beneficiaries_scan(problem, da, plus)
        victims = {v for v, _, _ in oracle.violations_scan(problem, plus)}
        assert victims <= gainers | (set(range(problem.n_students)) - improvable)
        assert jbc_gainers <= gainers
        assert not on_cycle(admissible_edges(problem, da, improvable, plus, gainers)[0])


def test_guarantees_hold_under_every_tie_break(monkeypatch):
    # Expansion takes the fewest-loop permutation that scipy returns, and
    # several are often optimal.  The same nodes in another order pose an
    # equally optimal problem that scipy ties differently, so three seeded
    # shuffles per market try other trade plans.  SJBC+'s guarantees must
    # hold for each of them, not only for scipy's pick.
    rng, solve, calls = random.Random(), sjbc_plus.linear_sum_assignment, []

    def shuffled(cost):
        calls.append(len(cost))
        order = list(range(len(cost)))
        rng.shuffle(order)
        rows, cols = solve(cost[np.ix_(order, order)])
        order = np.array(order)
        perm = np.empty_like(cols)
        perm[order[rows]] = order[cols]  # the answer in the nodes' own order
        return np.arange(len(cost)), perm

    large = large_markets() + mixed_markets(1818, 40)
    small = [
        gen_instance(GenConfig(n=n, model=model, rho=rho, replications=1, seed=1818 + n), rep)
        for n in (5, 6, 7)
        for model, rho in (("iid", None), ("correlated", 0.5))
        for rep in range(150)
    ]
    picks = [run_sjbc_plus(problem) for problem in large + small]
    monkeypatch.setattr(sjbc_plus, "linear_sum_assignment", shuffled)

    changed = 0
    for problem, pick in zip(large, picks):
        plans = []
        for k in range(3):
            rng.seed(k)
            plans.append(run_sjbc_plus(problem))
        changed += sum(plus != pick for plus in plans)
        assert_guarantees(problem, plans)

    # At oracle sizes a shuffle rarely changes the outcome; the oracle judges
    # each one that does (the property battery judges scipy's pick).  Seeding
    # again before the report gives its own SJBC+ run the same trade plans.
    judged = 0
    for problem, pick in zip(small, picks[len(large) :]):
        for k in range(3):
            rng.seed(k)
            if run_sjbc_plus(problem) == pick:
                continue
            rng.seed(k)
            claims = oracle.oracle_report(problem).claims
            assert claims["sjbc_plus_outcome_justifiable"], problem
            assert claims["sjbc_plus_undominated_without_more_beneficiaries"], problem
            judged += 1

    assert calls and changed and judged
    print(
        f"shuffled tie-breaks changed {changed} of {3 * len(large)} SJBC+ outcomes "
        f"beyond oracle sizes and {judged} of {3 * len(small)} at oracle sizes"
    )


def relabelled(problem, rng):
    """The same market with its student and school ids permuted by ``rng``
    and the names kept, as a file listing them in another order gives."""
    students, schools = list(range(problem.n_students)), list(range(problem.n_schools))
    rng.shuffle(students)
    rng.shuffle(schools)
    student_id = {old: new for new, old in enumerate(students)}
    school_id = {old: new for new, old in enumerate(schools)}
    return Problem(
        students=tuple(problem.students[i] for i in students),
        schools=tuple(problem.schools[s] for s in schools),
        quotas=tuple(problem.quotas[s] for s in schools),
        prefs=tuple(tuple(school_id[s] for s in problem.prefs[i]) for i in students),
        priorities=tuple(tuple(student_id[i] for i in problem.priorities[s]) for s in schools),
        completed_priorities=frozenset(school_id[s] for s in problem.completed_priorities),
    )


def outcomes_by_name(problem):
    """Per mechanism, its outcome by name and the verdict on it by name."""
    half = [problem.student_id(name) for name in sorted(problem.students)[::2]]
    found = {
        "da": run_da(problem)[0],
        "jbc": run_jbc(problem)[0],
        "eada, full consent": run_eada(problem, range(problem.n_students))[0],
        "eada, every second name consents": run_eada(problem, half)[0],
        "sjbc+": run_sjbc_plus(problem),
    }
    students, schools = problem.students, problem.schools
    named = {}
    for mechanism, matching in found.items():
        verdict = is_justifiable(problem, matching)
        named[mechanism] = (
            matching_to_dict(problem, matching)["assignment"],
            sorted(students[i] for i in verdict.beneficiaries),
            sorted(
                (students[v.victim], schools[v.school], students[v.occupant], tag)
                for v, tag in verdict.violations
            ),
            verdict.justifiable,
            verdict.strongly_justifiable,
            verdict.pareto_efficient,
        )
    return found["sjbc+"], named


def test_outcomes_do_not_depend_on_the_file_order():
    # Listing the students and schools of a market in another order permutes
    # their ids and keeps their names.  DA, JBC and EADA give the same
    # outcome by name, and each verdict is the same wherever the outcomes
    # are.  The order is part of SJBC+'s tie-break, since expansion's
    # assignment problem lists its nodes by id, so SJBC+ may differ, but each
    # of its outcomes keeps SJBC+'s guarantees.  Two n = 500 markets come
    # last, so the relabellings of the others stay as they were.
    rng = random.Random(77)
    markets = mixed_markets(2024, 120) + large_markets()
    markets += [
        gen_instance(GenConfig(n=500, model=model, rho=rho, replications=1, seed=4242), 0)
        for model, rho in (("iid", None), ("correlated", 0.5))
    ]
    changed = 0
    for problem in markets:
        other = relabelled(problem, rng)
        _, named = outcomes_by_name(problem)
        plus, renamed = outcomes_by_name(other)
        assert_guarantees(other, [plus])
        if named["sjbc+"][0] != renamed["sjbc+"][0]:
            changed += 1
            del named["sjbc+"], renamed["sjbc+"]
        assert named == renamed, problem
    print(f"relabelling changed {changed} of {len(markets)} SJBC+ outcomes")
