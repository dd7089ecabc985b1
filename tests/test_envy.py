import inspect
import random

import pytest

import matchlab
from matchlab import oracle
from matchlab.analysis import (
    _pareto_efficient,
    beneficiaries,
    is_justifiable,
    is_pareto_efficient,
    is_strongly_justifiable,
)
from matchlab.da import run_da
from matchlab.eada import run_eada
from matchlab.envy import (
    build_envy,
    canonical_packing,
    cycle_members,
    da_context,
    decompose_as_packing,
    packing_label,
)
from matchlab.fixtures import load_fixture
from matchlab.jbc import run_jbc, strongly_justifiable_family
from matchlab.sjbc_plus import _find_cycle, expansion_step, run_expansion, run_refinement, run_sjbc_plus
from matchlab.model import NULL_SCHOOL, InputError, Matching, Problem, _rosters, envied, is_nonwasteful, trade, violations
from matchlab.simgen import GenConfig, draw_instance_and_consent, evaluate_instance, gen_instance

from conftest import apply_packing, large_markets, matching_by_name, mixed_markets, names_of, random_market


def label_names(problem, digraph, a, b):
    key = (problem.student_id(a), problem.student_id(b))
    return names_of(problem, digraph.labels[key])


def test_scc_basic():
    edges = {0: (1,), 1: (2,), 2: (0,), 3: (1,), 4: ()}
    assert cycle_members(5, edges) == {0, 1, 2}


def test_ex1_labels_and_improvable(ex1):
    g = build_envy(ex1)
    assert label_names(ex1, g, "i1", "i6") == ["i3", "i5"]
    assert label_names(ex1, g, "i1", "i4") == []
    assert label_names(ex1, g, "i5", "i4") == ["i1", "i6"]
    assert label_names(ex1, g, "i2", "i1") == ["i5"]
    assert label_names(ex1, g, "i6", "i4") == ["i1"]
    assert names_of(ex1, g.improvable) == ["i1", "i2", "i3", "i4", "i5", "i6"]
    # every labelled student is herself improvable and envies the target
    for (i, j), lab in g.labels.items():
        for h in lab:
            assert h in g.improvable
            assert g.has_edge(h, j)


def test_exnoeff_labels(exnoeff):
    g = build_envy(exnoeff)
    assert label_names(exnoeff, g, "i6", "i2") == ["i4"]
    assert label_names(exnoeff, g, "i6", "i4") == ["i1"]
    assert label_names(exnoeff, g, "i5", "i4") == ["i1", "i6"]
    assert names_of(exnoeff, g.improvable) == ["i1", "i2", "i4", "i5", "i6"]


def test_no_envy_when_everyone_gets_top_choice():
    problem = Problem(
        students=("a", "b", "c"),
        schools=("x", "y", "z"),
        quotas=(1, 1, 1),
        prefs=((0, 1), (1, 0), (2, 1)),
        priorities=((0, 1, 2), (0, 1, 2), (0, 1, 2)),
    )
    g = build_envy(problem)
    assert all(not targets for targets in g.edges.values())
    assert g.improvable == frozenset()


def test_efficient_da_with_envy_edges_has_no_cycles():
    # serial-dictatorship-like market: common preferences, common priorities
    problem = Problem(
        students=("a", "b", "c"),
        schools=("x", "y", "z"),
        quotas=(1, 1, 1),
        prefs=((0, 1, 2),) * 3,
        priorities=((0, 1, 2),) * 3,
    )
    g = build_envy(problem)
    assert any(targets for targets in g.edges.values())
    assert g.improvable == frozenset()


def test_apply_packing_golden(ex1):
    da, _ = run_da(ex1)
    S = ex1.student_id
    jbc_cycle = canonical_packing([(S("i1"), S("i4"), S("i5"))])
    assert apply_packing(ex1, da, jbc_cycle) == matching_by_name(
        ex1, {"i1": "s4", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s6", "i7": "s7"}
    )
    assert apply_packing(ex1, da, ()) == da
    jpe_packing = canonical_packing(
        [(S("i1"), S("i2")), (S("i3"), S("i6"), S("i4"), S("i5"))]
    )
    assert apply_packing(ex1, da, jpe_packing) == matching_by_name(
        ex1, {"i1": "s2", "i2": "s1", "i3": "s6", "i4": "s5", "i5": "s3", "i6": "s4", "i7": "s7"}
    )


def test_apply_packing_rejects_bad_input(ex1):
    da, _ = run_da(ex1)
    S = ex1.student_id
    with pytest.raises(InputError):  # i4 -> i1 is not an envy edge
        apply_packing(ex1, da, ((S("i4"), S("i1")),))
    with pytest.raises(InputError):  # overlapping cycles
        apply_packing(ex1, da, ((S("i1"), S("i4"), S("i5")), (S("i1"), S("i2"))))


def test_packing_label_golden(ex1):
    S = ex1.student_id
    assert packing_label(ex1, canonical_packing([(S("i1"), S("i4"), S("i5"))])) == frozenset()
    two = canonical_packing([(S("i1"), S("i2"))])
    assert names_of(ex1, packing_label(ex1, two)) == ["i5"]
    last = canonical_packing([(S("i1"), S("i2")), (S("i3"), S("i6"), S("i4"), S("i5"))])
    assert names_of(ex1, packing_label(ex1, last)) == ["i1", "i5"]
    assert packing_label(ex1, ()) == frozenset()


def test_decompose_goldens(ex1):
    da, _ = run_da(ex1)
    S = ex1.student_id
    jbc = matching_by_name(
        ex1, {"i1": "s4", "i2": "s2", "i3": "s3", "i4": "s5", "i5": "s1", "i6": "s6", "i7": "s7"}
    )
    assert decompose_as_packing(ex1, jbc) == canonical_packing(
        [(S("i1"), S("i4"), S("i5"))]
    )
    assert decompose_as_packing(ex1, da) == ()
    # i1 parked at s3 while its DA holder i3 keeps a seat elsewhere is not a
    # permutation of DA seats
    odd = matching_by_name(
        ex1, {"i1": "s3", "i2": "s2", "i3": "s1", "i4": "s4", "i5": "s5", "i6": "s6", "i7": "s7"}
    )
    assert decompose_as_packing(ex1, odd) is None


def test_apply_then_decompose_round_trip():
    rng = random.Random(11)
    for n in (4, 5, 6, 7):
        for rep in range(25):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=40 + n), rep)
            da, _ = run_da(problem)
            g = build_envy(problem)
            packing = random_packing(g, rng)
            if packing is None:
                continue
            matching = apply_packing(problem, da, packing)
            assert decompose_as_packing(problem, matching) == packing


def random_packing(digraph, rng):
    """A random canonical cycle packing of the digraph, or None."""
    cycles = []
    used = set()
    nodes = sorted(digraph.improvable)
    rng.shuffle(nodes)
    for start in nodes:
        if start in used:
            continue
        path = [start]
        seen = {start}
        cur = start
        while True:
            options = [
                j for j in digraph.edges[cur] if j not in used and (j == start or j not in seen)
            ]
            if not options:
                break
            cur = rng.choice(options)
            if cur == start:
                cycles.append(tuple(path))
                used.update(path)
                break
            path.append(cur)
            seen.add(cur)
        if rng.random() < 0.4:
            break
    if not cycles:
        return None
    return canonical_packing(cycles)


def test_label_members_become_victims_when_left_behind():
    # For an edge i -> j with h in its label, trading along any cycle through
    # i -> j while h stays at DA must violate h's priority at j's DA school.
    checked = 0
    for n in (5, 6, 7):
        for rep in range(80):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=80 + n), rep)
            da, _ = run_da(problem)
            g = build_envy(problem)
            for (i, j), lab in g.labels.items():
                if not lab or i not in g.improvable:
                    continue
                cycle = cycle_through_edge(g, i, j)
                if cycle is None:
                    continue
                matching = apply_packing(problem, da, canonical_packing([cycle]))
                school = da.assignment[j]
                for h in lab:
                    if h in cycle:
                        continue
                    assert any(
                        v.victim == h and v.school == school and v.occupant == i
                        for v in violations(problem, matching)
                    )
                    checked += 1
    assert checked > 20


def cycle_through_edge(digraph, i, j):
    """Some simple cycle using edge i -> j, as a tuple starting at i."""
    stack = [(j, (i, j))]
    seen = {j}
    while stack:
        node, path = stack.pop()
        for nxt in digraph.edges[node]:
            if nxt == i:
                return path
            if nxt not in seen and nxt in digraph.improvable:
                seen.add(nxt)
                stack.append((nxt, path + (nxt,)))
    return None


def test_improvable_matches_oracle_on_smalls():
    from matchlab import oracle

    for n in (4, 5, 6):
        for rep in range(15):
            problem = gen_instance(GenConfig(n=n, model="iid", replications=1, seed=60 + n), rep)
            da, _ = run_da(problem)
            g = build_envy(problem)
            dominating = [
                m
                for m in oracle.enumerate_matchings(problem)
                if oracle.dominates_strictly(problem, m, da)
            ]
            by_definition = frozenset(
                i
                for i in range(n)
                if any(m.assignment[i] != da.assignment[i] for m in dominating)
            )
            assert g.improvable == by_definition


def test_quota_two_edges_target_students():
    problem = Problem(
        students=("a", "b", "c"),
        schools=("x", "y"),
        quotas=(2, 1),
        prefs=((0,), (0,), (0, 1)),
        priorities=((0, 1, 2), (0, 1, 2)),
    )
    g = build_envy(problem)  # DA seats a, b at x and c at y
    c = 2
    assert set(g.edges[c]) == {0, 1}  # c envies each occupant of x separately
    assert g.improvable == frozenset()


def random_feasible(rng, problem):
    free = list(problem.quotas)
    assignment = []
    for _ in range(problem.n_students):
        school = rng.choice([s for s in range(problem.n_schools) if free[s]] + [-1])
        if school != -1:
            free[school] -= 1
        assignment.append(school)
    return Matching(tuple(assignment))


def serial_dictatorship(rng, problem):
    """A random non-wasteful matching: students pick in a shuffled order."""
    order = list(range(problem.n_students))
    rng.shuffle(order)
    free = list(problem.quotas)
    assignment = [-1] * problem.n_students
    for i in order:
        for school in problem.prefs[i]:
            if free[school]:
                free[school] -= 1
                assignment[i] = school
                break
    return Matching(tuple(assignment))


def envies(problem, matching, i, school):
    return school != -1 and oracle.prefers(problem, i, school, matching.assignment[i])


def pairwise_edges(problem, matching):
    return {
        i: tuple(
            j
            for j in range(problem.n_students)
            if j != i and envies(problem, matching, i, matching.assignment[j])
        )
        for i in range(problem.n_students)
    }


def on_cycle(edges):
    # i lies on a cycle iff i reaches itself; plain search from each node
    out = set()
    for start in edges:
        seen, stack = set(), list(edges[start])
        while stack:
            v = stack.pop()
            if v == start:
                out.add(start)
                break
            if v not in seen:
                seen.add(v)
                stack.extend(edges.get(v, ()))
    return out


def labels_by_definition(problem, da, edges, improvable):
    """Per edge i -> j, the improvable students who envy j's DA school and
    outrank i there."""
    labels = {}
    for i, targets in edges.items():
        for j in targets:
            school = da.assignment[j]
            labels[(i, j)] = frozenset(
                h
                for h in improvable
                if envies(problem, da, h, school)
                and oracle.priority_scan(problem, school, h)
                < oracle.priority_scan(problem, school, i)
            )
    return labels


def test_envy_scans_match_pairwise_definitions_many_to_one():
    rng = random.Random(2008)
    quotas_seen = set()
    for _ in range(1500):
        problem = random_market(rng)
        quotas_seen.update(problem.quotas)
        da, _ = run_da(problem)
        g = build_envy(problem)
        edges = pairwise_edges(problem, da)
        improvable = on_cycle(edges)
        assert g.edges == edges
        assert g.improvable == improvable
        assert g.labels == labels_by_definition(problem, da, edges, improvable)

        for matching in (random_feasible(rng, problem), serial_dictatorship(rng, problem)):
            found = [(v.victim, v.occupant, v.school) for v in violations(problem, matching)]
            assert sorted(found) == sorted(oracle.violations_scan(problem, matching))
            taken = [matching.assignment.count(s) for s in range(problem.n_schools)]
            wasteful = any(
                taken[s] < problem.quotas[s] and envies(problem, matching, i, s)
                for i in range(problem.n_students)
                for s in range(problem.n_schools)
            )
            assert is_nonwasteful(problem, matching) == (not wasteful)
            if not wasteful:
                efficient = not on_cycle(pairwise_edges(problem, matching))
                assert is_pareto_efficient(problem, matching) == efficient
    assert quotas_seen == {1, 2, 3}


# ---------------------------------------------------------------------------
# The refinement's admissibility rule against the label definition


def improvable_labels(problem):
    """Per (improvable student, school she envies at DA), the label of her
    envy edges into it: a label depends on the target's DA school only."""
    da, _ = run_da(problem)
    edges = pairwise_edges(problem, da)
    improvable = on_cycle(edges)
    return {
        (i, da.assignment[j]): label
        for (i, j), label in labels_by_definition(problem, da, edges, improvable).items()
        if i in improvable
    }


def refinement_by_definition(problem, label, mu_star, b_star):
    """``run_refinement`` from the definitions, ``label`` being what
    ``improvable_labels`` returns.  At the current seats, an edge i -> j
    between members of ``b_star`` is admissible when i envies j's school
    now, i is improvable, and the label of her DA envy edge into that school
    lies inside ``b_star``.  Cycles are searched and traded as
    ``run_refinement`` does."""
    members = sorted(b_star)
    current = mu_star
    while True:
        seats = current.assignment
        adj = {
            i: [
                j
                for j in members
                if (i, seats[j]) in label
                and label[i, seats[j]] <= b_star
                and envies(problem, current, i, seats[j])
            ]
            for i in members
        }
        cycle = _find_cycle(members, adj)
        if cycle is None:
            return current
        current = trade(current, dict(zip(cycle, cycle[1:] + cycle[:1])))


def test_refinement_matches_the_label_definition():
    # From the expansion's outcome and from DA; with the expansion's
    # beneficiaries, with random sets that hold non-improvable students, and
    # with one improvable beneficiary unassigned, so that her null seat is
    # no edge's target.
    rng = random.Random(2031)
    runs = traded = unseated = 0
    for problem in mixed_markets(2031, 200) + large_markets():
        da, _ = run_da(problem)
        mu_star, b_star = run_expansion(problem)
        label = improvable_labels(problem)
        some = frozenset(i for i in range(problem.n_students) if rng.random() < 0.5)
        cases = [(start, members) for start in (mu_star, da) for members in (b_star, some)]
        if b_star:
            gone = rng.choice(sorted(b_star))
            seats = list(mu_star.assignment)
            seats[gone] = NULL_SCHOOL
            cases.append((Matching(tuple(seats)), b_star))
            unseated += 1
        for start, members in cases:
            expected = refinement_by_definition(problem, label, start, members)
            assert run_refinement(problem, start, members) == expected
            runs += 1
            traded += expected != start
    assert runs > 1000 and traded > 100 and unseated > 50


def test_packing_label_is_union_of_definitional_labels():
    rng = random.Random(2032)
    nonempty = 0
    for problem in mixed_markets(2032, 600):
        da, _ = run_da(problem)
        g = build_envy(problem)
        labels = labels_by_definition(problem, da, g.edges, g.improvable)
        packings = [random_packing(g, rng) for _ in range(3)]
        packings.append(decompose_as_packing(problem, run_jbc(problem)[0]))
        traded = [(i, j) for i in sorted(g.improvable) for j in g.edges[i] if j in g.improvable]
        for i, j in rng.sample(traded, min(len(traded), 20)):
            cycle = cycle_through_edge(g, i, j)
            packings.append(cycle and canonical_packing([cycle]))
        for packing in packings:
            if packing is None:
                continue
            expected = frozenset().union(
                *(
                    labels[(i, cycle[(pos + 1) % len(cycle)])]
                    for cycle in packing
                    for pos, i in enumerate(cycle)
                )
            )
            assert packing_label(problem, packing) == expected
            nonempty += bool(expected)
    assert nonempty > 100


def test_packing_label_rejects_non_edges(ex1):
    S = ex1.student_id
    for cycle in ((S("i4"), S("i1")), (S("i1"), 99), (99, S("i1")), (S("i1"), -1)):
        with pytest.raises(InputError):
            packing_label(ex1, (cycle,))


def test_cycle_members_match_reachability():
    rng = random.Random(2033)
    for _ in range(500):
        n = rng.randint(0, 12)
        density = rng.random() / 2
        edges = {
            v: tuple(w for w in range(n) if w != v and rng.random() < density)
            for v in range(n)
            if rng.random() < 0.9
        }
        assert cycle_members(n, edges) == on_cycle(edges)


def test_da_context_is_built_once_per_problem(monkeypatch):
    # Mechanisms and verdicts share one DA envy digraph per problem, built on
    # the first read and kept on the problem without changing its value.
    calls = {"run_da": 0, "build_envy": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr("matchlab.envy.run_da", counted("run_da", run_da))
    monkeypatch.setattr("matchlab.envy.build_envy", counted("build_envy", build_envy))
    monkeypatch.setattr("matchlab.model._last_problem", None)
    problem = load_fixture("ex1")
    plus = run_sjbc_plus(problem)
    run_jbc(problem)
    strongly_justifiable_family(problem)
    is_justifiable(problem, plus)
    is_strongly_justifiable(problem, plus)
    beneficiaries(problem, plus)
    packing_label(problem, decompose_as_packing(problem, plus))
    oracle.oracle_report(problem)
    assert calls == {"run_da": 1, "build_envy": 1}

    monkeypatch.setattr("matchlab.model._last_problem", None)
    again = load_fixture("ex1")
    assert da_context(again)[1] is not da_context(problem)[1]
    assert da_context(again)[1] == da_context(problem)[1]
    assert calls == {"run_da": 2, "build_envy": 2}

    monkeypatch.setattr("matchlab.model._last_problem", None)
    fresh = load_fixture("ex1")
    assert problem == fresh and hash(problem) == hash(fresh) and repr(problem) == repr(fresh)

    # No public function takes the DA context or a DA matching from its
    # caller, and none takes a log: what a run reports goes to its module's
    # logger.
    assert list(inspect.signature(da_context).parameters) == ["problem"]
    assert list(inspect.signature(expansion_step).parameters) == ["problem", "state"]
    public = [getattr(matchlab, name) for name in matchlab.__all__]
    functions = [fn for fn in public if inspect.isfunction(fn)]
    assert len(functions) > 25 and {packing_label, run_sjbc_plus} <= set(functions)
    for fn in functions:
        taken = set(inspect.signature(fn).parameters)
        assert "log" not in taken, fn.__name__
        assert not {"da_matching", "digraph"} & taken, fn.__name__
    assert list(inspect.signature(build_envy).parameters) == ["problem"]

    # EADA's peel starts from the context and climbs from it: one simulated
    # instance runs DA's proposal loop once, for the context, although its
    # EADA runs climb after deleting pairs.  It searches for envy cycles once,
    # for the context, and peels the envy graph once per outcome's Pareto
    # verdict, DA's included.
    calls["run_da"] = calls["cycle_members"] = calls["peel"] = 0
    monkeypatch.setattr("matchlab.envy.cycle_members", counted("cycle_members", cycle_members))
    monkeypatch.setattr("matchlab.analysis._pareto_efficient", counted("peel", _pareto_efficient))
    sim, consent = draw_instance_and_consent(GenConfig(n=20, model="iid", replications=1, seed=7), 0)
    evaluate_instance(sim, consent)
    loops, searches, peels = calls["run_da"], calls["cycle_members"], calls["peel"]
    climbs = sum(len(run_eada(sim, c)[1].iterations) for c in (range(sim.n_students), consent))
    assert climbs > 0 and loops == 1
    assert searches == 1 and peels == 4


def test_verdict_reads_rosters_and_envy_once(monkeypatch):
    # Once the DA context exists, a verdict on a matching that dominates DA,
    # or on DA itself, builds one roster list, walks envy once and peels the
    # envy graph once for its Pareto verdict.  Neither searches for cycles.
    problem = load_fixture("ex1")
    da = da_context(problem)[0]
    plus = run_sjbc_plus(problem)
    assert plus != da
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr("matchlab.model.envied", counted("envied", envied))
    monkeypatch.setattr("matchlab.model._rosters", counted("rosters", _rosters))
    monkeypatch.setattr("matchlab.envy.cycle_members", counted("cycle_members", cycle_members))
    monkeypatch.setattr("matchlab.analysis._pareto_efficient", counted("peel", _pareto_efficient))
    for matching in (plus, da):
        calls.update(envied=0, rosters=0, cycle_members=0, peel=0)
        is_justifiable(problem, matching)
        assert calls == {"envied": 1, "rosters": 1, "cycle_members": 0, "peel": 1}
