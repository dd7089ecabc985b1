import random

import pytest

from matchlab import oracle
from matchlab.analysis import (
    VICTIM_BENEFICIARY,
    VICTIM_IMPROVABLE_NON_BENEFICIARY,
    VICTIM_UNIMPROVABLE,
    Verdict,
    beneficiaries,
    is_justifiable,
    is_pareto_efficient,
    is_strongly_justifiable,
    reassignment_chain,
)
from matchlab.da import run_da
from matchlab.eada import run_eada
from matchlab.envy import build_envy, canonical_packing, da_context, on_envy_cycle, packing_label
from matchlab.jbc import run_jbc
from matchlab.model import NULL_SCHOOL, InputError, Matching, Problem, _seated, violations
from matchlab.simgen import GenConfig, gen_instance
from matchlab.sjbc_plus import run_sjbc_plus

from conftest import apply_packing, corr50_markets, large_markets, matching_by_name, mixed_markets, names_of
from test_envy import on_cycle, pairwise_edges, serial_dictatorship

EADA_FULL_EX1 = {"i1": "s6", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s4", "i7": "s7"}
JPE_EX1 = {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4", "i7": "s7"}
JBC_EX1 = {"i1": "s4", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s6", "i7": "s7"}


def test_beneficiaries_goldens(ex1):
    da, _ = run_da(ex1)
    assert names_of(ex1, beneficiaries(ex1, matching_by_name(ex1, JBC_EX1))) == [
        "i1",
        "i4",
        "i5",
    ]
    assert beneficiaries(ex1, da) == frozenset()
    assert names_of(ex1, beneficiaries(ex1, matching_by_name(ex1, JPE_EX1))) == [
        "i1",
        "i2",
        "i3",
        "i4",
        "i5",
        "i6",
    ]


def test_beneficiaries_rejects_non_improvements(ex1):
    worse = matching_by_name(
        ex1, {"i1": "s1", "i2": "s2", "i3": "s3", "i4": "s4", "i5": "s5", "i6": "s6", "i7": "s4"}
    )
    with pytest.raises(InputError):
        beneficiaries(ex1, worse)


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
            g = build_envy(problem)
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
            g = build_envy(problem)
            from test_envy import random_packing
            import random

            packing = random_packing(g, random.Random(rep * 3 + 1))
            if packing is None:
                continue
            m = apply_packing(problem, da, packing)
            verdict = is_justifiable(problem, m)
            label_ok = packing_label(problem, packing) <= verdict.beneficiaries
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


def test_pareto_peel_matches_the_envy_cycle_search():
    # The verdict peels the envy graph instead of searching it for strong
    # components; on every outcome of the mechanisms both must agree.
    verdicts = set()
    for problem in mixed_markets(3131, 120) + large_markets() + corr50_markets(40):
        half = range(0, problem.n_students, 2)
        outcomes = (
            run_da(problem)[0],
            run_jbc(problem)[0],
            run_sjbc_plus(problem),
            run_eada(problem, range(problem.n_students))[0],
            run_eada(problem, half)[0],
        )
        for matching in outcomes:
            seats, _, envious = _seated(problem, matching)
            efficient = not on_envy_cycle(seats, envious)
            assert is_pareto_efficient(problem, matching) == efficient, problem
            verdicts.add(efficient)
    assert verdicts == {True, False}


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


def test_reassignment_chain_rejects_malformed_ids(ex1):
    # Ids are checked at entry, with rank_of's texts; a negative claimant
    # must not read as the last student.
    plus = run_sjbc_plus(ex1)
    claim = min((v.victim, v.school) for v in violations(ex1, plus))
    cases = {
        (99, claim[1]): "invalid student id 99",
        (-1, claim[1]): "invalid student id -1",
        (True, claim[1]): "invalid student id True",
        (claim[0], 99): "invalid school id 99",
        (claim[0], None): "invalid school id None",
    }
    for (claimant, school), text in cases.items():
        with pytest.raises(InputError, match=f"^{text}$"):
            reassignment_chain(ex1, plus, claimant, school)
    assert reassignment_chain(ex1, plus, *claim).transcript[0] == claim


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
        g = build_envy(problem)
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
            assert verdict.beneficiaries == {i for cycle in packing for i in cycle}


# ---------------------------------------------------------------------------
# The verdict pass against its first composition and against plain scans


def reference_is_justifiable(problem, matching):
    """``is_justifiable`` as first composed: ``beneficiaries``, then
    ``violations`` tagged by victim class, ``is_strongly_justifiable`` and
    ``is_pareto_efficient``, each with its own feasibility check."""
    digraph = da_context(problem)[1]
    benef = beneficiaries(problem, matching)
    tagged = []
    justifiable = True
    for v in violations(problem, matching):
        if v.victim in benef:
            tag = VICTIM_BENEFICIARY
        elif v.victim not in digraph.improvable:
            tag = VICTIM_UNIMPROVABLE
        else:
            tag = VICTIM_IMPROVABLE_NON_BENEFICIARY
            justifiable = False
        tagged.append((v, tag))
    return Verdict(
        beneficiaries=benef,
        violations=tuple(tagged),
        justifiable=justifiable,
        strongly_justifiable=is_strongly_justifiable(problem, matching),
        pareto_efficient=is_pareto_efficient(problem, matching),
    )


def test_is_justifiable_matches_reference():
    # DA, JBC, SJBC+ and EADA with a seeded consent set on quotas 1-3,
    # truncated lists, unequal sides and the simulation's square markets.
    rng = random.Random(4300)
    tags, efficient = set(), set()
    for problem in mixed_markets(4300, 60):
        consent = frozenset(i for i in range(problem.n_students) if rng.random() < 0.5)
        outcomes = (
            da_context(problem)[0],
            run_jbc(problem)[0],
            run_sjbc_plus(problem),
            run_eada(problem, consent)[0],
        )
        for matching in outcomes:
            verdict = is_justifiable(problem, matching)
            assert verdict == reference_is_justifiable(problem, matching), (problem, matching)
            tags.update(tag for _, tag in verdict.violations)
            efficient.add(verdict.pareto_efficient)
    assert tags == {VICTIM_BENEFICIARY, VICTIM_UNIMPROVABLE, VICTIM_IMPROVABLE_NON_BENEFICIARY}
    assert efficient == {True, False}


def verdict_or_error(fn, problem, matching):
    try:
        return fn(problem, matching)
    except InputError as exc:
        return f"InputError: {exc}"


def test_is_justifiable_errors_match_reference():
    # Infeasible before worse than DA before wasteful.  A matching that
    # weakly dominates DA fills every school as DA does and is never
    # wasteful, so waste always shows as a student worse off than under DA.
    rng = random.Random(4301)
    checked = 0
    for problem in mixed_markets(4301, 30):
        n, da = problem.n_students, da_context(problem)[0]
        crowd = problem.quotas[0] + 1
        over = Matching((0,) * crowd + (NULL_SCHOOL,) * (n - crowd))
        nobody = Matching((NULL_SCHOOL,) * n)
        short = Matching(da.assignment[:-1])
        for matching in (over, nobody, short, serial_dictatorship(rng, problem)):
            expected = verdict_or_error(reference_is_justifiable, problem, matching)
            assert verdict_or_error(is_justifiable, problem, matching) == expected
        if n >= crowd:
            assert "over quota" in verdict_or_error(is_justifiable, problem, over)
        if any(s != NULL_SCHOOL for s in da.assignment):
            assert verdict_or_error(is_justifiable, problem, nobody).startswith(
                "InputError: matching is worse than DA for "
            )
            assert "wasteful" in verdict_or_error(is_pareto_efficient, problem, nobody)
            checked += 1
    assert checked > 20


def scan_certificates(problem, consent, tags, efficient, strong):
    """Check DA's stability, the verdicts of DA, SJBC+, JBC and EADA at full
    consent and at ``consent`` against exhaustive scans and a plain
    reachability search, and ``consent``-EADA's guarantees over DA.  The
    tags, Pareto verdicts and strong verdicts seen join the three sets."""
    da, _ = run_da(problem)
    assert oracle.stable_scan(problem, da)
    improvable = on_cycle(pairwise_edges(problem, da))
    outcomes = {
        "da": da,
        "sjbc_plus": run_sjbc_plus(problem),
        "jbc": run_jbc(problem)[0],
        "eada_full": run_eada(problem, range(problem.n_students))[0],
        "eada_half": run_eada(problem, consent)[0],
    }
    half = outcomes["eada_half"]
    assert oracle.dominates_weakly(problem, half, da)
    assert oracle.respects_scan(problem, half, set(range(problem.n_students)) - consent)
    for name, matching in outcomes.items():
        verdict = is_justifiable(problem, matching)
        strongly = oracle._strongly_justifiable_scan(problem, da, matching, improvable)
        assert verdict.strongly_justifiable == strongly, name
        strong.add(strongly)
        found = [(v.victim, v.occupant, v.school) for v, _ in verdict.violations]
        assert sorted(found) == sorted(oracle.violations_scan(problem, matching)), name
        gainers = oracle.beneficiaries_scan(problem, da, matching)
        assert verdict.beneficiaries == gainers, name
        for v, tag in verdict.violations:
            if v.victim in gainers:
                assert tag == VICTIM_BENEFICIARY
            elif v.victim not in improvable:
                assert tag == VICTIM_UNIMPROVABLE
            else:
                assert tag == VICTIM_IMPROVABLE_NON_BENEFICIARY
            tags.add(tag)
        acyclic = not on_cycle(pairwise_edges(problem, matching))
        assert verdict.pareto_efficient == acyclic, name
        efficient.add(acyclic)
    assert is_justifiable(problem, outcomes["sjbc_plus"]).justifiable
    assert is_justifiable(problem, outcomes["jbc"]).strongly_justifiable


def test_verdicts_match_scans_beyond_oracle_sizes():
    # Polynomial certificates on markets too large to enumerate, at a seeded
    # half consent: the 30 of ``large_markets``, then two n = 200 markets of
    # the simulation in their own loop.  Seeds and counts are fixed; consent
    # is drawn apart from the markets.
    markets = large_markets()
    assert [sum(p.quotas) > p.n_students for p in markets] == [k % 2 == 0 for k in range(30)]
    consent_rng = random.Random(5151)
    tags, efficient, strong = set(), set(), set()
    for problem in markets:
        consent = frozenset(i for i in range(problem.n_students) if consent_rng.random() < 0.5)
        scan_certificates(problem, consent, tags, efficient, strong)
    assert tags >= {VICTIM_BENEFICIARY, VICTIM_UNIMPROVABLE}
    assert efficient == strong == {True, False}
    for model, rho in (("iid", None), ("correlated", 0.5)):
        problem = gen_instance(GenConfig(n=200, model=model, rho=rho, replications=1, seed=4242), 0)
        consent = frozenset(i for i in range(200) if consent_rng.random() < 0.5)
        scan_certificates(problem, consent, set(), set(), set())
