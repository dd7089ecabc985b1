import pytest

from matchlab.analysis import (
    VICTIM_BENEFICIARY,
    VICTIM_IMPROVABLE_NON_BENEFICIARY,
    VICTIM_UNIMPROVABLE,
    beneficiaries,
    is_justifiable,
    is_pareto_efficient,
    is_strongly_justifiable,
    reassignment_chain,
)
from matchlab.da import run_da
from matchlab.envy import build_envy, canonical_packing, apply_packing, packing_label, decompose_as_packing
from matchlab.model import InputError, violations
from matchlab.simgen import GenConfig, gen_instance

from conftest import matching_by_name, names_of

EADA_FULL_EX1 = {"i1": "s6", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s4", "i7": "s7"}
JPE_EX1 = {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4", "i7": "s7"}
JBC_EX1 = {"i1": "s4", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s6", "i7": "s7"}


def test_beneficiaries_goldens(ex1):
    da, _ = run_da(ex1)
    assert names_of(ex1, beneficiaries(ex1, da, matching_by_name(ex1, JBC_EX1))) == [
        "i1",
        "i4",
        "i5",
    ]
    assert beneficiaries(ex1, da, da) == frozenset()
    assert names_of(ex1, beneficiaries(ex1, da, matching_by_name(ex1, JPE_EX1))) == [
        "i1",
        "i2",
        "i3",
        "i4",
        "i5",
        "i6",
    ]


def test_beneficiaries_rejects_non_improvements(ex1):
    da, _ = run_da(ex1)
    worse = matching_by_name(
        ex1, {"i1": "s1", "i2": "s2", "i3": "s3", "i4": "s4", "i5": "s5", "i6": "s6", "i7": "s4"}
    )
    with pytest.raises(InputError):
        beneficiaries(ex1, da, worse)


def test_is_justifiable_eada_full_fails(ex1):
    verdict = is_justifiable(ex1, matching_by_name(ex1, EADA_FULL_EX1))
    assert not verdict.justifiable
    tags = {
        (ex1.students[v.victim], tag): True for v, tag in verdict.violations
    }
    assert ("i3", VICTIM_IMPROVABLE_NON_BENEFICIARY) in tags
    assert ("i7", VICTIM_UNIMPROVABLE) in tags
    assert ("i5", VICTIM_BENEFICIARY) in tags


def test_is_justifiable_single_long_cycle(ex1):
    da, _ = run_da(ex1)
    S = ex1.student_id
    long_cycle = apply_packing(
        ex1, da, canonical_packing([(S("i1"), S("i3"), S("i6"), S("i4"), S("i5"))])
    )
    verdict = is_justifiable(ex1, long_cycle)
    assert verdict.justifiable
    assert not verdict.strongly_justifiable


def test_is_justifiable_da_trivially(ex1):
    da, _ = run_da(ex1)
    verdict = is_justifiable(ex1, da)
    assert verdict.justifiable
    assert verdict.violations == ()
    assert verdict.strongly_justifiable  # the empty packing


def test_is_strongly_justifiable_goldens(ex1):
    da, _ = run_da(ex1)
    assert is_strongly_justifiable(ex1, matching_by_name(ex1, JBC_EX1))
    assert not is_strongly_justifiable(ex1, matching_by_name(ex1, JPE_EX1))
    assert is_strongly_justifiable(ex1, da)


def test_strongly_justifiable_implies_justifiable():
    for n in (4, 5, 6):
        for rep in range(20):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=90 + n), rep)
            da, _ = run_da(problem)
            g = build_envy(problem, da)
            from test_envy import random_packing
            import random

            packing = random_packing(g, random.Random(rep))
            if packing is None:
                continue
            m = apply_packing(problem, da, packing)
            verdict = is_justifiable(problem, m)
            if verdict.strongly_justifiable:
                assert verdict.justifiable


def test_label_containment_matches_definition():
    for n in (4, 5, 6):
        for rep in range(20):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=110 + n), rep)
            da, _ = run_da(problem)
            g = build_envy(problem, da)
            from test_envy import random_packing
            import random

            packing = random_packing(g, random.Random(rep * 3 + 1))
            if packing is None:
                continue
            m = apply_packing(problem, da, packing)
            verdict = is_justifiable(problem, m)
            label_ok = packing_label(g, packing) <= verdict.beneficiaries
            assert label_ok == verdict.justifiable


def test_is_pareto_efficient_goldens(ex1, exnoeff):
    assert is_pareto_efficient(ex1, matching_by_name(ex1, JPE_EX1))
    assert not is_pareto_efficient(ex1, matching_by_name(ex1, JBC_EX1))
    mu_j = matching_by_name(
        exnoeff, {"i1": "s4", "i2": "s1", "i3": "s3", "i4": "s2", "i5": "s5", "i6": "s6"}
    )
    assert not is_pareto_efficient(exnoeff, mu_j)


def test_is_pareto_efficient_rejects_wasteful(ex1):
    wasteful = matching_by_name(
        ex1, {"i1": "s1", "i2": "s2", "i3": "s3", "i4": "s4", "i5": "s5", "i6": "s6"}
    )
    with pytest.raises(InputError):
        is_pareto_efficient(ex1, wasteful)


def test_is_pareto_efficient_matches_oracle_on_smalls():
    from matchlab import oracle

    for n in (4, 5):
        for rep in range(10):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=130 + n), rep)
            everything = list(oracle.enumerate_matchings(problem))
            for m in everything[:: max(1, len(everything) // 12)]:
                expected = not any(
                    oracle.dominates_strictly(problem, other, m) for other in everything
                )
                assert is_pareto_efficient(problem, m) == expected


def test_reassignment_chain_walkthrough(ex1):
    jpe = matching_by_name(ex1, JPE_EX1)
    result = reassignment_chain(ex1, jpe, ex1.student_id("i1"), ex1.school_id("s4"))
    assert not result.vacuous
    named = [(ex1.students[i], ex1.schools[s]) for i, s in result.transcript]
    assert named == [("i1", "s4"), ("i6", "s6"), ("i3", "s3"), ("i5", "s1"), ("i2", "s2")]


def test_reassignment_chain_requires_a_violation(ex1):
    da, _ = run_da(ex1)
    with pytest.raises(InputError):
        reassignment_chain(ex1, da, ex1.student_id("i1"), ex1.school_id("s4"))


def test_reassignment_chain_on_eada_full_outcome(ex1):
    # Claims against the full-consent outcome are expected to circle back on
    # the claimant (the outcome is essentially stable in the literature); we
    # log the verdict rather than pinning it.
    m = matching_by_name(ex1, EADA_FULL_EX1)
    victims = {(v.victim, v.school) for v in violations(ex1, m)}
    assert victims
    claimant, school = sorted(victims)[0]
    result = reassignment_chain(ex1, m, claimant, school)
    assert result.transcript[0] == (claimant, school)
    assert isinstance(result.vacuous, bool)
    print(
        f"note: chain for {ex1.students[claimant]} at {ex1.schools[school]} "
        f"is {'vacuous' if result.vacuous else 'non-vacuous'}"
    )


def test_verdict_consistency_random():
    # justifiable == no improvable-non-beneficiary victim, by construction
    for n in (4, 5, 6):
        problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=150 + n), 0)
        da, _ = run_da(problem)
        g = build_envy(problem, da)
        from test_envy import random_packing
        import random

        for rep in range(10):
            packing = random_packing(g, random.Random(rep))
            if packing is None:
                continue
            m = apply_packing(problem, da, packing)
            verdict = is_justifiable(problem, m)
            assert verdict.justifiable == all(
                tag != VICTIM_IMPROVABLE_NON_BENEFICIARY for _, tag in verdict.violations
            )
            assert verdict.beneficiaries == packing.covered
