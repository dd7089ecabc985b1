import gc
import inspect
import random
import time

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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
    da_context,
    decompose_as_packing,
    on_envy_cycle,
    packing_label,
)
from matchlab.fixtures import load_fixture
from matchlab.jbc import run_jbc, strongly_justifiable_family
from matchlab.sjbc_plus import _find_cycle, expansion_step, run_expansion, run_refinement, run_sjbc_plus
from matchlab.model import NULL_SCHOOL, InputError, Problem, _rosters, envied, is_nonwasteful, trade, violations
from matchlab.simgen import GenConfig, draw_instance_and_consent, evaluate_instance, gen_instance

from conftest import apply_packing, large_markets, matching_by_name, mixed_markets, names_of, random_market


def label_names(problem, digraph, a, b):
    key = (problem.student_id(a), problem.student_id(b))
    return names_of(problem, digraph.labels[key])


def test_scc_basic():
    # Students 0, 1, 2 sit at schools 0, 1, 2 and envy around a 3-cycle;
    # student 3 envies into it from school 3, which nobody envies, and
    # student 4 is unseated and envies school 2.
    seats = (0, 1, 2, 3, NULL_SCHOOL)
    envious = [[2], [0, 3], [1, 4], []]
    assert on_envy_cycle(seats, envious) == {0, 1, 2}


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
    # With quotas above one and truncated lists the pairing of entrants and
    # leavers is a choice, so the recovered packing need not be P; it is
    # canonical, trades back to the same matching and carries P's label.
    shared = other = 0
    for problem in mixed_markets(2035, 240):
        da = run_da(problem)[0]
        for _ in range(8):
            packing = random_packing(da_context(problem), rng)
            if packing is None:
                continue
            matching = apply_packing(problem, da, packing)
            found = decompose_as_packing(problem, matching)
            assert found == canonical_packing(found)
            assert apply_packing(problem, da, found) == matching
            assert packing_label(problem, found) == packing_label(problem, packing)
            shared += any(problem.quotas[da[i]] > 1 for cycle in packing for i in cycle)
            other += found != packing
    assert shared > 150 and other > 0


def test_decompose_refuses_exactly_what_the_scan_refuses():
    # Random feasible matchings, and DA traded along a random packing as is,
    # with two seats swapped and with one student unseated: movers to or from
    # the null school, movers who do not improve and unequal school multisets
    # all occur, against the oracle's plain scan.
    rng = random.Random(3535)
    kinds = dict.fromkeys(("null", "worse", "unequal", "none", "packing"), 0)
    for problem in mixed_markets(3535, 240):
        n, da = problem.n_students, run_da(problem)[0]
        traded = apply_packing(problem, da, random_packing(da_context(problem), rng) or ())
        i, j = rng.randrange(n), rng.randrange(n)
        swapped, unseated = list(traded), list(traded)
        swapped[i], swapped[j], unseated[i] = traded[j], traded[i], NULL_SCHOOL
        for matching in (random_feasible(rng, problem), traded, tuple(swapped), tuple(unseated)):
            found = decompose_as_packing(problem, matching)
            assert (found is None) == (oracle._decompose_scan(problem, da, matching) is None)
            movers = [k for k in range(n) if da[k] != matching[k]]
            kinds["null"] += any(NULL_SCHOOL in (da[k], matching[k]) for k in movers)
            kinds["worse"] += any(not oracle.prefers(problem, k, matching[k], da[k]) for k in movers)
            kinds["unequal"] += sorted(da[k] for k in movers) != sorted(matching[k] for k in movers)
            kinds["none" if found is None else "packing"] += 1
    assert min(kinds.values()) > 100, kinds


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
                school = da[j]
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
                if any(m[i] != da[i] for m in dominating)
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
    return tuple(assignment)


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
    return tuple(assignment)


def envies(problem, matching, i, school):
    return school != -1 and oracle.prefers(problem, i, school, matching[i])


def pairwise_edges(problem, matching):
    return {
        i: tuple(
            j
            for j in range(problem.n_students)
            if j != i and envies(problem, matching, i, matching[j])
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
            school = da[j]
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
            taken = [matching.count(s) for s in range(problem.n_schools)]
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
        (i, da[j]): label
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
        seats = current
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
            seats = list(mu_star)
            seats[gone] = NULL_SCHOOL
            cases.append((tuple(seats), b_star))
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
    # a packing or a cycle that is not iterable
    for packing in (5, [5], [None]):
        with pytest.raises(InputError, match="^packing is not an iterable of student cycles$"):
            packing_label(ex1, packing)


def test_envy_cycles_match_reachability():
    # Random seats and envy lists, with unseated students, several students
    # per school and schools that nobody envies, against a plain search of
    # the student -> student envy graph: i -> j when i envies j's school.
    rng = random.Random(2033)
    unseated = shared = unenvied = cyclic = 0
    for _ in range(500):
        n, m = rng.randint(0, 12), rng.randint(1, 6)
        seats = tuple(rng.randrange(NULL_SCHOOL, m) for _ in range(n))
        density = rng.random()
        envious = [
            [i for i in range(n) if seats[i] != s and rng.random() < density] if rng.random() < 0.8 else []
            for s in range(m)
        ]
        edges = {
            i: tuple(j for j in range(n) if seats[j] != NULL_SCHOOL and i in envious[seats[j]])
            for i in range(n)
        }
        members = on_envy_cycle(seats, envious)
        assert members == on_cycle(edges)
        unseated += NULL_SCHOOL in seats
        shared += len({s for s in seats if s != NULL_SCHOOL}) < n - seats.count(NULL_SCHOOL)
        unenvied += [] in envious
        cyclic += bool(members)
    assert min(unseated, shared, unenvied, cyclic) > 100


def on_envy_cycle_by_csgraph(seats, envious):
    """The reference: the students in strong components of two or more of
    the same student -> school graph, as ``scipy.sparse.csgraph`` finds
    them."""
    n = len(seats)
    targets = [(n + s,) if s != NULL_SCHOOL else () for s in seats] + list(envious)
    indptr = np.cumsum([0] + [len(t) for t in targets])
    indices = np.array([w for t in targets for w in t], dtype=np.int64)
    graph = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(len(targets),) * 2)
    _, component = connected_components(graph, directed=True, connection="strong")
    return frozenset(np.flatnonzero(np.bincount(component)[component[:n]] >= 2).tolist())


def test_envy_cycles_match_csgraph_on_da_digraphs():
    for problem in mixed_markets(2024, 120) + large_markets():
        seats = run_da(problem)[0]
        envious = envied(problem, seats)
        assert on_envy_cycle(seats, envious) == on_envy_cycle_by_csgraph(seats, envious)


def test_envy_cycles_match_csgraph_on_random_structures():
    # Unseated students, several students per school, schools that nobody
    # envies and empty markets, at densities from none to all.
    rng = random.Random(4040)
    empty = unseated = shared = unenvied = cyclic = 0
    for _ in range(6000):
        n, m = rng.randint(0, 30), rng.randint(1, 10)
        seats = tuple(rng.randrange(NULL_SCHOOL, m) for _ in range(n))
        density = rng.random() ** 2
        envious = [
            [i for i in range(n) if seats[i] != s and rng.random() < density] if rng.random() < 0.8 else []
            for s in range(m)
        ]
        for students in envious:  # in no particular order
            rng.shuffle(students)
        members = on_envy_cycle(seats, envious)
        assert members == on_envy_cycle_by_csgraph(seats, envious)
        empty += n == 0
        unseated += NULL_SCHOOL in seats
        shared += len({s for s in seats if s != NULL_SCHOOL}) < n - seats.count(NULL_SCHOOL)
        unenvied += [] in envious
        cyclic += bool(members)
    assert min(empty, unseated, shared, unenvied, cyclic) > 100


def test_envy_cycle_search_is_iterative_and_linear():
    # Student k sits at school k and school k is envied by student k + 1,
    # so the walk from student 0 runs through every node: a chain, or with
    # school n - 1 envied by student 0 one cycle.  A recursive search
    # would raise RecursionError; a quadratic one would take ~16 times as
    # long on four times the nodes.  The collector is off while timing: its
    # passes scale with the whole test process's heap, not with the search.
    def timed(n, closed):
        envious = [[k + 1] for k in range(n - 1)] + [[0] if closed else []]
        best = float("inf")
        gc.disable()
        try:
            for _ in range(3):
                start = time.perf_counter()
                members = on_envy_cycle(tuple(range(n)), envious)
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        assert members == (frozenset(range(n)) if closed else frozenset())
        return best

    for closed in (False, True):
        assert timed(10_000, closed) < 8 * timed(2_500, closed)  # 20,000 nodes against 5,000


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
    assert da_context(again) is not da_context(problem)
    assert da_context(again) == da_context(problem)
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
    calls["run_da"] = calls["on_envy_cycle"] = calls["peel"] = 0
    monkeypatch.setattr("matchlab.envy.on_envy_cycle", counted("on_envy_cycle", on_envy_cycle))
    monkeypatch.setattr("matchlab.analysis._pareto_efficient", counted("peel", _pareto_efficient))
    sim, consent = draw_instance_and_consent(GenConfig(n=20, model="iid", replications=1, seed=7), 0)
    evaluate_instance(sim, consent)
    loops, searches, peels = calls["run_da"], calls["on_envy_cycle"], calls["peel"]
    climbs = sum(len(run_eada(sim, c)[1].iterations) for c in (range(sim.n_students), consent))
    assert climbs > 0 and loops == 1
    assert searches == 1 and peels == 4


def test_verdict_reads_rosters_and_envy_once(monkeypatch):
    # Once the DA context exists, a verdict on a matching that dominates DA,
    # or on DA itself, builds one roster list, walks envy once and peels the
    # envy graph once for its Pareto verdict.  Neither searches for cycles.
    problem = load_fixture("ex1")
    da = da_context(problem).seats
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
    monkeypatch.setattr("matchlab.envy.on_envy_cycle", counted("on_envy_cycle", on_envy_cycle))
    monkeypatch.setattr("matchlab.analysis._pareto_efficient", counted("peel", _pareto_efficient))
    for matching in (plus, da):
        calls.update(envied=0, rosters=0, on_envy_cycle=0, peel=0)
        is_justifiable(problem, matching)
        assert calls == {"envied": 1, "rosters": 1, "on_envy_cycle": 0, "peel": 1}
