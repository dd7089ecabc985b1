import pytest

from matchlab.analysis import beneficiaries, is_justifiable, is_pareto_efficient
from matchlab.da import run_da
from matchlab.envy import build_envy, decompose_as_packing
from matchlab.jbc import run_jbc
from matchlab.model import A_DOMINATES, InputError, Matching, pareto_compare
from matchlab.simgen import GenConfig, gen_instance
from matchlab.sjbc_plus import (
    ExpansionState,
    expansion_step,
    run_expansion,
    run_refinement,
    run_sjbc_plus,
)

from conftest import matching_by_name, names_of

JPE_EX1 = {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4", "i7": "s7"}
MU_J_EXNOEFF = {"i1": "s4", "i2": "s1", "i3": "s3", "i4": "s2", "i5": "s5", "i6": "s6"}


def bootstrap_state(problem):
    da, _ = run_da(problem)
    digraph = build_envy(problem, da)
    jbc_matching, _ = run_jbc(problem)
    packing = decompose_as_packing(problem, jbc_matching)
    perm = {i: i for i in digraph.improvable}
    for cycle in packing.cycles:
        for pos, i in enumerate(cycle):
            perm[i] = cycle[(pos + 1) % len(cycle)]
    return da, digraph, ExpansionState(0, frozenset(packing.covered), perm, {})


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
    crowded = Matching((0,) * ex1.n_students)
    cases = (
        (crowded, b_star, "over quota"),
        (Matching(mu_star.assignment[:-1]), b_star, "matching length"),
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
            digraph = build_envy(problem, da)
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
            da, trace = run_da(problem)
            digraph = build_envy(problem, da)
            if not digraph.improvable:
                continue
            _, digraph2, state = bootstrap_state(problem)
            for _ in range(n):
                state = expansion_step(problem, state)
                non_loops = {(i, j) for i, j in state.permutation.items() if i != j}
                assert {i for i, _ in non_loops} == {j for _, j in non_loops}
                for i, j in non_loops:
                    assert digraph2.has_edge(i, j)
