"""Polytope feasibility searches: general, symmetric, radius, Hurwitz."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpoly.search
from mpoly import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    Graph,
    Matrix,
    NotSymmetric,
    SearchStatus,
    SimplexPoint,
    build_instance,
    certify,
    convex_combination,
    det_closed_form,
    eigenvalues,
    hurwitz_search,
    instance_graph,
    is_threshold_proof,
    max_independent_set,
    minimize_spectral_radius,
    nonneg_parts,
    search_general,
    search_symmetric,
    spectral_radius,
    witness_from_independent_set,
)
from mpoly.oracle import Branch, _greedy_seed
from mpoly.simplex import rationalize

import corpus


def planted_symmetric_family(rng, dim=5, k=3):
    """k symmetric matrices, one of which is a well-margined M-matrix."""
    raw = rng.random((dim, dim))
    nonneg = (raw + raw.T) / 2
    rho = spectral_radius(Matrix.float64(nonneg.tolist()))
    planted = Matrix.float64((rho + 1.0) * np.eye(dim) - nonneg)
    others = []
    for _ in range(k - 1):
        sym = rng.normal(size=(dim, dim))
        others.append(Matrix.float64((sym + sym.T) / 2))
    where = int(rng.integers(0, k))
    family = others[:where] + [planted] + others[where:]
    return family, where


def shifted_symmetric_family(rng, dim=12, k=4):
    """k symmetric vertices s I - N, N >= 0, each just below the M-matrix
    boundary (s = rho(N) U(0.96, 1)), so only mixtures can cross it."""
    family = []
    for _ in range(k):
        raw = rng.random((dim, dim)) * rng.integers(0, 2, size=(dim, dim))
        nonneg = (raw + raw.T) / 2
        shift = spectral_radius(Matrix.float64(nonneg)) * rng.uniform(0.96, 1.0)
        family.append(Matrix.float64(shift * np.eye(dim) - nonneg))
    return family


def negative_definite_family(rng, dim=4, k=3):
    mats = []
    for _ in range(k):
        g = rng.normal(size=(dim, dim))
        mats.append(Matrix.float64(-(g @ g.T + 0.5 * np.eye(dim))))
    return mats


class TestSearchGeneral:
    def test_single_certifiable_matrix(self):
        out = search_general([Matrix.exact([[2, -1], [-1, 2]])], budget=100)
        assert out.status is SearchStatus.FEASIBLE
        assert out.certificate.weights == (1,)

    def test_reduction_instance_feasible(self):
        inst = build_instance(corpus.empty(2), 1)
        out = search_general(inst.gadgets, budget=1000, seed=0)
        assert out.status is SearchStatus.FEASIBLE
        assert out.certificate.is_exact
        assert det_closed_form(corpus.empty(2), 1, out.certificate) > 0

    def test_truly_infeasible_instance_stays_unknown(self):
        # single edge with j = 1: the determinant is identically zero; the
        # float copy is not recognised as a gadget family, so it stays UNKNOWN
        g = corpus.complete(2)
        inst = build_instance(g, 1)
        out = search_general([m.to_float() for m in inst.gadgets], budget=5000, seed=0)
        assert out.status is SearchStatus.UNKNOWN
        assert out.certificate is None
        exact = search_general(inst.gadgets, budget=5000, seed=0)
        assert exact.status is SearchStatus.INFEASIBLE
        assert exact.certificate is None
        assert exact.threshold_proof == ((0, 1),)
        assert is_threshold_proof(g, exact.threshold_proof, 1)

    def test_never_infeasible(self):
        # off the exact gadget path the search never answers INFEASIBLE
        g = corpus.complete(3)
        inst = build_instance(g, 2)
        out = search_general([m.to_float() for m in inst.gadgets], budget=2000, seed=1)
        assert out.status is not SearchStatus.INFEASIBLE
        exact = search_general(inst.gadgets, budget=2000, seed=1)
        assert exact.status is SearchStatus.INFEASIBLE
        assert is_threshold_proof(g, exact.threshold_proof, 2)

    def test_feasible_certificates_recertify(self):
        # with k = n <= 4 the grid pass makes the search complete, so the
        # set of FEASIBLE outcomes must match the oracle exactly; the float
        # copies are not recognised, so the grid pass, not the gadget
        # decision, finds every witness
        found = expected = 0
        for g in corpus.small_graphs(4):
            alpha = max_independent_set(g).alpha
            grid = sum(len(p) for p in mpoly.search._grid_passes(g.n))
            for j in range(1, g.n + 1):
                expected += alpha > j
                floats = [m.to_float() for m in build_instance(g, j).gadgets]
                out = search_general(floats, budget=20_000, seed=0)
                if out.status is SearchStatus.FEASIBLE:
                    assert alpha > j
                    assert 0 < out.budget_spent <= grid, (g, j)
                    report = certify(convex_combination(floats, out.certificate))
                    assert report.consensus == "YES"
                    found += 1
        assert found == expected == 20

    def test_equivalence_chain_at_certificates(self):
        g = corpus.cycle(5)
        j = 1
        inst = build_instance(g, j)
        out = search_general(inst.gadgets, budget=20_000, seed=0)
        assert out.status is SearchStatus.FEASIBLE
        pt = out.certificate
        combo = convex_combination(inst.gadgets, pt)
        assert det_closed_form(g, j, pt) > 0
        assert certify(combo).consensus == "YES"
        parts = nonneg_parts(g, j)
        m_pi = convex_combination([p.to_float() for p in parts], pt)
        assert spectral_radius(m_pi) < 1.0
        assert max(z.real for z in eigenvalues(-combo.to_float())) < 0

    # the next three take the float copy of an alpha = j family, whose exact
    # family is answered INFEASIBLE from its threshold tree

    def test_monotone_trace_and_budget(self):
        inst = build_instance(corpus.cycle(5), 2)
        out = search_general([m.to_float() for m in inst.gadgets], budget=3000, seed=0)
        assert out.status is SearchStatus.UNKNOWN
        assert 0 < out.budget_spent <= 3000

    def test_deterministic_given_seed(self):
        floats = [m.to_float() for m in build_instance(corpus.cycle(7), 3).gadgets]
        a = search_general(floats, budget=4000, seed=11)
        b = search_general(floats, budget=4000, seed=11)
        assert a.budget_spent > 0
        assert a.status == b.status
        assert a.budget_spent == b.budget_spent
        assert a.to_json_dict() == b.to_json_dict()

    def test_budget_never_overspent(self):
        # k = 5: a vertex pass of 5 points, 24 start points, then rounds of
        # 24 * (k + 4) evaluations; alpha = 2 <= j, so the search never stops early
        floats = [m.to_float() for m in build_instance(corpus.cycle(5), 2).gadgets]
        for budget in range(1, 5 + 24 + 3 * 24 * 9 + 1):
            out = search_general(floats, budget=budget, seed=0)
            assert out.status is SearchStatus.UNKNOWN
            assert out.budget_spent <= budget

    def test_exact_inputs_give_exact_certificate(self, monkeypatch):
        # alpha = 4 > j = 3; no vertex and no start point is feasible, so the
        # certificate comes out of an ascent round (with recognition off,
        # since the greedy independent set of the Petersen graph has 4
        # vertices and would answer at once)
        g = corpus.petersen()
        inst = build_instance(g, 3)
        out = ascent_only(inst.gadgets, monkeypatch, seed=0)
        assert out.status is SearchStatus.FEASIBLE
        assert out.budget_spent > 10 + 24
        assert out.certificate.is_exact
        assert det_closed_form(g, 3, out.certificate) > 0
        floats = search_general([m.to_float() for m in inst.gadgets], seed=0)
        assert floats.status is SearchStatus.FEASIBLE
        assert not floats.certificate.is_exact

    def test_lowest_start_wins_a_round(self, monkeypatch):
        # path on 5 vertices, j = 2 < alpha = 3: vertices and the uniform
        # start are infeasible; starts 2 and 4 are both feasible at once, and
        # start 4 has the better merit (the independent set's own point);
        # recognition is off, since the greedy set {0, 2, 4} answers at once
        path = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        inst = build_instance(path, 2)
        uniform = np.full(5, 0.2)
        low = np.array([0.3, 0.05, 0.3, 0.05, 0.3])
        high = np.array([1, 0, 1, 0, 1]) / 3
        rows = np.array([uniform] * 23)
        rows[1], rows[3] = low, high
        monkeypatch.setattr(
            mpoly.search, "sample_simplex_rows", lambda rng, count, k: rows[:count]
        )
        closed = [det_closed_form(path, 2, rationalize(w)) for w in (low, high)]
        assert 0 < closed[0] < closed[1]
        out = ascent_only(inst.gadgets, monkeypatch, seed=0)
        assert out.certificate == rationalize(low)
        assert out.budget_spent == 5 + 24

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatch):
            search_general([])
        with pytest.raises(DimensionMismatch):
            search_general([Matrix.identity(2), Matrix.identity(3)])

    def test_grid_pass_finds_small_family_witnesses(self):
        # k = 3 <= 4, so the grid alone guarantees the find: no vertex is
        # feasible, and the grid batch of 45 points follows the 3 vertices
        g = corpus.empty(3)
        floats = [m.to_float() for m in build_instance(g, 2).gadgets]
        out = search_general(floats, budget=50_000, seed=0)
        assert out.status is SearchStatus.FEASIBLE
        assert out.budget_spent == 3 + 45


def with_entry(m: Matrix, r: int, c: int, value) -> Matrix:
    rows = [list(row) for row in m.rows()]
    rows[r][c] = value
    return Matrix.exact(rows)


def ascent_only(mats, monkeypatch, **kwargs):
    """search_general with gadget recognition switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(mpoly.search, "instance_graph", lambda mats: None)
        return search_general(mats, **kwargs)


def greedy_set(g: Graph) -> list:
    """The min-degree greedy independent set that the gadget decision tries
    first, ascending."""
    seed = _greedy_seed(g.neighbor_masks(), (1 << g.n) - 1)
    return [v for v in range(g.n) if seed >> v & 1]


def count_descents(monkeypatch) -> list:
    """The calls of the spectral descent from here on, one entry each."""
    calls = []
    real = mpoly.search._descend_spectral
    monkeypatch.setattr(mpoly.search, "_descend_spectral",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def hurwitz_over(graphs, budget=300):
    """(g, j, outcome) of hurwitz_search on the negated gadget family of
    every graph in `graphs` at every j."""
    return [(g, j, hurwitz_search([-m for m in build_instance(g, j).gadgets],
                                  budget=budget, seed=0))
            for g in graphs for j in range(1, g.n + 1)]


K3_J2 = build_instance(corpus.complete(3), 2).gadgets


class TestGadgetCover:
    def test_exact_gadget_family_is_infeasible_with_a_cover(self):
        g = corpus.cycle(5)
        out = search_general(build_instance(g, 3).gadgets, budget=5000, seed=0)
        assert out.status is SearchStatus.INFEASIBLE
        assert out.certificate is None
        assert out.budget_spent == 0
        assert not isinstance(out.threshold_proof, Branch)
        assert is_threshold_proof(g, out.threshold_proof, 3)
        payload = out.to_json_dict()["threshold_proof"]
        assert payload == {
            "tree": [[v + 1 for v in p] for p in out.threshold_proof],
            "rests_on": "Cauchy-Schwarz"}

    def test_json_has_no_cover_key_without_a_cover(self, monkeypatch):
        feasible = search_general(build_instance(corpus.cycle(5), 1).gadgets, seed=0)
        monkeypatch.setattr(mpoly.oracle, "THRESHOLD_NODE_CAP", 0)
        unknown = search_general(K3_J2, budget=500, seed=0)
        assert unknown.status is SearchStatus.UNKNOWN
        for out in (feasible, unknown):
            assert out.threshold_proof is None
            assert set(out.to_json_dict()) == {
                "status", "certificate", "margins", "budget_spent"}

    # each family is one step away from a recognisable gadget family; the
    # statuses are those of the search before recognition existed
    @pytest.mark.parametrize("name, family, status", [
        ("float backing", [m.to_float() for m in K3_J2], SearchStatus.UNKNOWN),
        ("entry moved by 1/den",
         [with_entry(K3_J2[0], 1, 1, K3_J2[0].entry(1, 1) + Fraction(1, 2))]
         + list(K3_J2[1:]), SearchStatus.UNKNOWN),
        ("corner 2/3", [with_entry(m, 3, 3, Fraction(2, 3)) for m in K3_J2],
         SearchStatus.UNKNOWN),
        ("asymmetric c_i", list(K3_J2[:2]) + [with_entry(K3_J2[2], 0, 3, 0)],
         SearchStatus.UNKNOWN),
        ("k != n", list(K3_J2[:2]), SearchStatus.UNKNOWN),
        ("asymmetric c_i, feasible",
         [with_entry(m, 2, 3, -1) if i == 0 else m for i, m in enumerate(
             build_instance(Graph.from_edges(3, [(0, 1)]), 1).gadgets)],
         SearchStatus.FEASIBLE),
    ])
    def test_near_gadget_families_take_the_ascent(self, monkeypatch, name, family,
                                                 status):
        out = search_general(family, budget=3000, seed=0)
        assert out.status is status, name
        assert out.threshold_proof is None
        assert out == ascent_only(family, monkeypatch, budget=3000, seed=0)

    def test_node_cap_hit_takes_the_ascent(self, monkeypatch):
        # the tree search stops before its root, so the family is left to
        # the ascent, which cannot answer INFEASIBLE
        monkeypatch.setattr(mpoly.oracle, "THRESHOLD_NODE_CAP", 0)
        out = search_general(K3_J2, budget=3000, seed=0)
        assert out.status is SearchStatus.UNKNOWN
        assert out.budget_spent > 0
        assert out == ascent_only(K3_J2, monkeypatch, budget=3000, seed=0)

    def test_cover_that_fails_the_check_is_not_reported(self, monkeypatch):
        # the re-check, not the tree search, decides INFEASIBLE: a bad
        # partition is dropped, and the family is left to the ascent
        monkeypatch.setattr(mpoly.search, "decide_threshold",
                            lambda g, j: ("proof", ((0, 1),)))
        out = search_general(K3_J2, budget=3000, seed=0)
        assert out.status is SearchStatus.UNKNOWN
        assert out.threshold_proof is None
        assert out == ascent_only(K3_J2, monkeypatch, budget=3000, seed=0)

    def test_witness_that_fails_the_check_is_not_reported(self, monkeypatch):
        # {0, 1} is an edge of K3: no point is made of it, and the family is
        # left to the ascent
        monkeypatch.setattr(mpoly.search, "decide_threshold",
                            lambda g, j: ("witness", (0, 1)))
        out = search_general(K3_J2, budget=3000, seed=0)
        assert out.status is SearchStatus.UNKNOWN
        assert out == ascent_only(K3_J2, monkeypatch, budget=3000, seed=0)

    def test_exhaustive_agreement_with_the_oracle(self):
        uncovered = []
        for g in corpus.small_graphs():
            alpha = max_independent_set(g).alpha
            for j in range(1, g.n + 1):
                out = search_general(build_instance(g, j).gadgets, budget=2000, seed=0)
                if out.status is SearchStatus.INFEASIBLE:
                    assert alpha <= j, (g, j)
                    assert out.budget_spent == 0
                    assert is_threshold_proof(g, out.threshold_proof, j), (g, j)
                    if isinstance(out.threshold_proof, Branch):
                        uncovered.append((g.n, len(g.edges), j))
                else:
                    assert out.threshold_proof is None
                    assert alpha > j, (g, j)
        # every graph on at most 5 vertices but C5 is perfect, so it has a
        # partition into alpha cliques; C5 needs 3 cliques and has alpha 2,
        # and a 2-node tree proves alpha <= 2
        assert uncovered == [(5, 5, 2)]


def alpha_equals_j_without_a_partition():
    """(g, j) with alpha(g) = j and no partition into j cliques: odd holes
    C5, C7 and C9 and the odd antihole, the complement of C7."""
    graphs = [corpus.cycle(5), corpus.cycle(7), corpus.complement(corpus.cycle(7)),
              corpus.cycle(9)]
    return [(g, max_independent_set(g).alpha) for g in graphs]


def count_linprog(monkeypatch) -> list:
    """The calls of search.linprog from here on, one entry each."""
    calls = []
    real = mpoly.search.linprog
    monkeypatch.setattr(mpoly.search, "linprog",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def refuse_exact_set(g):
    """Stands in for max_independent_set when its node budget runs out."""
    raise BudgetExceeded("node budget")


class TestThresholdTree:
    """An exact gadget family with alpha = j and no partition into j cliques
    is INFEASIBLE from a threshold tree that is_threshold_proof re-checks,
    with no evaluation spent, no LP solved and no exact maximum independent
    set computed."""

    def test_alpha_equals_j_families_are_infeasible(self, monkeypatch):
        lp_calls = count_linprog(monkeypatch)
        monkeypatch.setattr(mpoly.search, "max_independent_set", refuse_exact_set)
        for g, j in alpha_equals_j_without_a_partition():
            out = search_general(build_instance(g, j).gadgets, seed=0)
            assert out.status is SearchStatus.INFEASIBLE, (g, j)
            assert out.budget_spent == 0
            assert out.certificate is None
            assert isinstance(out.threshold_proof, Branch)
            assert is_threshold_proof(g, out.threshold_proof, j)
            payload = out.to_json_dict()["threshold_proof"]
            assert payload["rests_on"] == "Motzkin-Straus theorem"
            assert corpus.tree_from_json(payload["tree"]) == out.threshold_proof
        assert lp_calls == []

    def test_gadget_path_solves_no_lp(self, monkeypatch):
        # every (G, j) on at most 6 vertices, and Petersen, is decided
        lp_calls = count_linprog(monkeypatch)
        monkeypatch.setattr(mpoly.search, "max_independent_set", refuse_exact_set)
        for g in corpus.small_graphs(6) + [corpus.petersen()]:
            for j in range(1, g.n + 1):
                gadgets = build_instance(g, j).gadgets
                for out in (search_general(gadgets, seed=0),
                            hurwitz_search([-m for m in gadgets], seed=0)):
                    assert out.status is not SearchStatus.UNKNOWN, (g, j)
                    assert out.budget_spent == 0
        assert lp_calls == []

    def test_petersen_at_four_is_infeasible_at_once(self):
        # triangle-free on 10 vertices, so no 4 cliques cover it, and every
        # fractional clique cover weighs at least 5 = j + 1; a 3-node tree
        # proves alpha <= 4
        g = corpus.petersen()
        assert max_independent_set(g).alpha == 4
        out = search_general(build_instance(g, 4).gadgets, budget=500, seed=0)
        assert out.status is SearchStatus.INFEASIBLE
        assert out.budget_spent == 0
        assert isinstance(out.threshold_proof, Branch)
        assert is_threshold_proof(g, out.threshold_proof, 4)
        assert set(out.to_json_dict()) == {
            "status", "certificate", "margins", "budget_spent", "threshold_proof"}

    def test_petersen_runs_no_ascent_and_no_descent(self, monkeypatch):
        descents = count_descents(monkeypatch)
        perm = [3, 7, 0, 9, 5, 1, 8, 2, 6, 4]
        g = corpus.petersen()
        relabelled = Graph.from_edges(10, [(perm[u], perm[v]) for u, v in g.edges])
        for graph in (g, relabelled):
            gadgets = build_instance(graph, 4).gadgets
            out = search_general(gadgets, seed=0)
            negated = hurwitz_search([-m for m in gadgets], seed=0)
            assert negated == out
            assert out.status is SearchStatus.INFEASIBLE
            assert out.budget_spent == 0
            assert out.certificate is None and out.margins is None
            assert is_threshold_proof(graph, out.threshold_proof, 4)
        assert descents == []

    def test_without_the_checker_alpha_equals_j_takes_the_ascent(
            self, monkeypatch):
        monkeypatch.setattr(mpoly.search, "is_threshold_proof",
                            lambda g, tree, j: False)
        for g, j in alpha_equals_j_without_a_partition():
            gadgets = build_instance(g, j).gadgets
            out = search_general(gadgets, budget=300, seed=0)
            assert out.status is SearchStatus.UNKNOWN, (g, j)
            assert out == ascent_only(gadgets, monkeypatch, budget=300, seed=0)
            negated = hurwitz_search([-m for m in gadgets], budget=300, seed=0)
            assert negated.status is SearchStatus.UNKNOWN, (g, j)
            assert negated.budget_spent > 0

    def test_capped_tree_is_unknown_after_the_ascent(self, monkeypatch):
        # the root of C5 at j = 2 is a chain, and its with-child passes the cap
        monkeypatch.setattr(mpoly.oracle, "THRESHOLD_NODE_CAP", 1)
        gadgets = build_instance(corpus.cycle(5), 2).gadgets
        out = search_general(gadgets, budget=300, seed=0)
        assert out.status is SearchStatus.UNKNOWN
        assert out == ascent_only(gadgets, monkeypatch, budget=300, seed=0)

    def test_negated_family_is_infeasible(self):
        g = corpus.cycle(5)
        gadgets = build_instance(g, 2).gadgets
        out = hurwitz_search([-m for m in gadgets], budget=300, seed=0)
        assert out.status is SearchStatus.INFEASIBLE
        assert out.budget_spent == 0
        assert out == search_general(gadgets, seed=0)

    def test_family_past_thirty_vertices_is_decided(self, monkeypatch):
        # 40 vertices with alpha = 7, decided with no exact alpha
        lp_calls = count_linprog(monkeypatch)
        monkeypatch.setattr(mpoly.search, "max_independent_set", refuse_exact_set)
        g = corpus.gnp(40, 0.5, 3)
        below, at = (build_instance(g, j).gadgets for j in (6, 7))
        feasible = search_general(below, seed=0)
        assert feasible.status is SearchStatus.FEASIBLE
        assert det_closed_form(g, 6, feasible.certificate) > 0
        infeasible = search_general(at, seed=0)
        assert infeasible.status is SearchStatus.INFEASIBLE
        assert is_threshold_proof(g, infeasible.threshold_proof, 7)
        assert feasible.budget_spent == infeasible.budget_spent == 0
        assert hurwitz_search([-m for m in below], seed=0).status is SearchStatus.FEASIBLE
        assert hurwitz_search([-m for m in at], seed=0) == infeasible
        assert lp_calls == []

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 9), p=st.sampled_from(corpus.GNP_P_CYCLE),
           graph_seed=st.integers(0, 2**32 - 1), perm_seed=st.integers(0, 2**32 - 1))
    def test_gnp_property(self, n, p, graph_seed, perm_seed):
        g = corpus.gnp(n, p, graph_seed)
        perm = [int(v) for v in np.random.default_rng(perm_seed).permutation(n)]
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
        alpha = corpus.exhaustive_alpha(g)
        for j in range(1, n + 1):
            out = search_general(build_instance(g, j).gadgets, budget=300, seed=0)
            relabelled = search_general(build_instance(h, j).gadgets, budget=300, seed=0)
            assert out.status is relabelled.status, (g, j, perm)
            for res, graph in ((out, g), (relabelled, h)):
                assert res.budget_spent == 0
                if alpha > j:
                    assert res.status is SearchStatus.FEASIBLE
                    support = [v for v, w in enumerate(res.certificate.weights) if w]
                    assert len(support) > j
                    assert not any(graph.has_edge(u, v)
                                   for u in support for v in support)
                else:
                    assert res.status is SearchStatus.INFEASIBLE
                    assert is_threshold_proof(graph, res.threshold_proof, j)


def greedy_feasible_cases():
    """(g, j) over corpus.small_graphs() and every j where the greedy
    independent set has more than j vertices."""
    return [(g, j) for g in corpus.small_graphs() for j in range(1, g.n + 1)
            if len(greedy_set(g)) > j]


SIX_VERTEX_GREEDY_MISS = Graph.from_edges(
    6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4), (2, 5), (4, 5)])


class TestGadgetWitness:
    """An exact gadget family whose greedy independent set S has |S| > j is
    FEASIBLE at the uniform point on S, with no evaluation spent; one with
    alpha > j >= |S| is FEASIBLE at the uniform point on the independent set
    of more than j vertices that a branch of the threshold tree finds."""

    def test_every_small_graph_where_the_greedy_set_exceeds_j(self):
        cases = greedy_feasible_cases()
        assert len(cases) >= 50
        for g, j in cases:
            inst = build_instance(g, j)
            out = search_general(inst.gadgets, budget=2000, seed=0)
            assert out.status is SearchStatus.FEASIBLE, (g, j)
            assert max_independent_set(g).alpha > j
            assert out.budget_spent == 0
            assert out.threshold_proof is None
            weights = out.certificate.weights
            support = [v for v, w in enumerate(weights) if w]
            assert all(weights[v] == Fraction(1, len(support)) for v in support)
            assert len(support) > j
            assert not any(g.has_edge(u, v) for u in support for v in support)
            assert det_closed_form(g, j, out.certificate) > 0
            report = certify(convex_combination(inst.gadgets, out.certificate))
            assert report.is_z and report.consensus == "YES"
            assert out.margins == dict(report.margins)
            assert set(out.to_json_dict()) == {
                "status", "certificate", "margins", "budget_spent"}

    def test_small_greedy_set_takes_the_exact_set(self):
        # min-degree greedy takes 0, which leaves the triangle {2, 4, 5}, so
        # its set is {0, 2}; alpha = 3 at {1, 3, 5} only, and the tree
        # branches to it once the greedy partition needs more than 2 cliques
        g = SIX_VERTEX_GREEDY_MISS
        assert greedy_set(g) == [0, 2]
        assert max_independent_set(g).alpha == 3
        inst = build_instance(g, 2)
        out = search_general(inst.gadgets, seed=0)
        assert out.status is SearchStatus.FEASIBLE
        assert out.budget_spent == 0
        assert out.certificate == witness_from_independent_set(g, {1, 3, 5})
        report = certify(convex_combination(inst.gadgets, out.certificate))
        assert report.is_z and report.consensus == "YES"
        assert out.margins == dict(report.margins)

    def test_capped_tree_takes_the_ascent(self, monkeypatch):
        # the tree stops at the first with-child of its root, and the ascent
        # finds a witness for this family on its own
        g = SIX_VERTEX_GREEDY_MISS
        gadgets = build_instance(g, 2).gadgets
        monkeypatch.setattr(mpoly.oracle, "THRESHOLD_NODE_CAP", 1)
        out = search_general(gadgets, seed=0)
        assert out == ascent_only(gadgets, monkeypatch, seed=0)
        assert out.status is SearchStatus.FEASIBLE
        assert out.budget_spent > 0
        assert det_closed_form(g, 2, out.certificate) > 0

    def test_no_witness_without_z(self, monkeypatch):
        c5 = build_instance(corpus.cycle(5), 1).gadgets
        assert search_general(c5, budget=3000, seed=0).status is SearchStatus.FEASIBLE
        real = mpoly.search.certify
        monkeypatch.setattr(
            mpoly.search, "certify",
            lambda m: dataclasses.replace(real(m), is_z=False),
        )
        out = search_general(c5, budget=3000, seed=0)
        assert out.status is not SearchStatus.FEASIBLE
        assert out.certificate is None
        assert out.budget_spent > 0  # the rejected point fell through to the ascent

    def test_one_certify_call_per_answer(self, monkeypatch):
        calls = []
        real = mpoly.search.certify
        monkeypatch.setattr(
            mpoly.search, "certify", lambda m: calls.append(m) or real(m))
        for g, j in greedy_feasible_cases():
            calls.clear()
            out = search_general(build_instance(g, j).gadgets, seed=0)
            assert out.status is SearchStatus.FEASIBLE
            assert len(calls) == 1, (g, j)


class TestWitnessRule:
    """FEASIBLE needs a certify report that is Z with consensus YES."""

    @staticmethod
    def searches():
        c5 = [m.to_float() for m in build_instance(corpus.cycle(5), 1).gadgets]
        planted, _ = planted_symmetric_family(np.random.default_rng(3))
        return (search_general(c5, budget=5000, seed=0),
                search_symmetric(planted, tolerance=1e-6))

    def test_feasible_with_the_real_certify(self):
        for out in self.searches():
            assert out.status is SearchStatus.FEASIBLE

    def test_no_witness_without_z(self, monkeypatch):
        real = mpoly.search.certify
        monkeypatch.setattr(
            mpoly.search, "certify",
            lambda m: dataclasses.replace(real(m), is_z=False),
        )
        for out in self.searches():
            assert out.status is not SearchStatus.FEASIBLE
            assert out.certificate is None


class TestSearchSymmetric:
    def test_planted_vertex(self):
        family = [
            Matrix.float64([[2, -1], [-1, 2]]),
            Matrix.float64([[-5, 0], [0, -5]]),
        ]
        out = search_symmetric(family, tolerance=1e-6)
        assert out.status is SearchStatus.FEASIBLE
        w = out.certificate.to_floats()
        assert w[0] > 0.9

    def test_all_negative_definite_certified_infeasible(self):
        family = [Matrix.identity(2) - Matrix.float64([[2, 0], [0, 2]]),
                  Matrix.float64([[-2, 0], [0, -2]])]
        out = search_symmetric(family, tolerance=1e-6)
        assert out.status is SearchStatus.INFEASIBLE
        assert out.certificate is None

    def test_interior_witness(self):
        family = [
            Matrix.float64([[1, -3], [-3, 1]]),
            Matrix.identity(2),
        ]
        out = search_symmetric(family, tolerance=1e-6)
        assert out.status is SearchStatus.FEASIBLE
        combo = convex_combination(family, out.certificate)
        assert certify(combo).consensus == "YES"

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            search_symmetric([Matrix.float64([[0, 1], [0, 0]])])
        # max |A - A'| is compared with 1e-12 max |A_ij|, not with 1e-12
        with pytest.raises(NotSymmetric):
            search_symmetric([Matrix.float64(1e-13 * np.array([[1, 2], [0, 1]]))])

    def test_rounding_level_asymmetry_passes_at_any_scale(self):
        # a symmetric M-matrix with one entry off by 1e-15 relative
        raw = np.random.default_rng(7).random((4, 4))
        sym = 5.0 * np.eye(4) - (raw + raw.T)
        sym[0, 1] *= 1.0 + 1e-15
        for c in (1.0, 1e6):
            out = search_symmetric([Matrix.float64(c * sym)])
            assert out.status is SearchStatus.FEASIBLE, c

    def test_shifted_families_stop_at_first_witness(self, monkeypatch):
        # the gap between the first certified witness and the optimum takes
        # 20 to 40 cutting planes to close; none of those rounds is needed
        real = mpoly.search.linprog
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(mpoly.search, "linprog", counted)
        per_family = []
        for seed in range(6):
            family = shifted_symmetric_family(np.random.default_rng(seed))
            calls.clear()
            out = search_symmetric(family, tolerance=1e-6)
            per_family.append(len(calls))
            assert out.status is SearchStatus.FEASIBLE
            combo = convex_combination(family, out.certificate)
            assert certify(combo).consensus == "YES"
            margins = out.margins
            assert margins["best_lambda_min"] > 1e-6
            assert margins["optimum_upper_bound"] >= margins["best_lambda_min"]
        assert max(per_family) <= 3

    def test_subsumes_general_search_on_symmetric_families(self):
        rng = np.random.default_rng(41)
        agreements = 0
        for _ in range(10):
            family, _ = planted_symmetric_family(rng)
            general = search_general(family, budget=8000, seed=0)
            if general.status is SearchStatus.FEASIBLE:
                sym = search_symmetric(family, tolerance=1e-6)
                assert sym.status is SearchStatus.FEASIBLE
                agreements += 1
        assert agreements >= 5


class TestMinimizeSpectralRadius:
    def test_single_matrix_at_one(self):
        pt, rho = minimize_spectral_radius([Matrix.float64([[0, 1], [1, 0]])])
        assert rho == pytest.approx(1.0, abs=1e-9)
        assert pt.weights == (1.0,)

    def test_reduction_parts_empty_graph(self):
        parts = nonneg_parts(corpus.empty(2), 1)
        floats = [p.to_float() for p in parts]
        combo = convex_combination(floats, SimplexPoint.uniform(2, exact=False))
        assert spectral_radius(combo) == pytest.approx(np.sqrt(0.5), abs=1e-9)
        pt, rho = minimize_spectral_radius(floats, budget=5000, seed=0)
        assert rho <= np.sqrt(0.5) + 1e-6

    def test_zero_matrix_available(self):
        pair = [Matrix.float64([[0]]), Matrix.float64([[3]])]
        pt, rho = minimize_spectral_radius(pair, budget=2000, seed=0)
        assert rho == pytest.approx(0.0, abs=1e-9)
        assert pt.weights[0] == pytest.approx(1.0)

    def test_rejects_negative_entries(self):
        with pytest.raises(DomainError):
            minimize_spectral_radius([Matrix.float64([[0, -0.1], [0, 0]])])
        # the float view of -1/10^400 is -0.0, but the exact sign is negative
        tiny = Matrix.exact([[0, Fraction(-1, 10**400)], [0, 0]])
        with pytest.raises(DomainError, match="negative entry"):
            minimize_spectral_radius([tiny])

    def test_gadget_parts_give_the_closed_form_minimum(self, monkeypatch):
        descents = count_descents(monkeypatch)
        # on the six-vertex graph the greedy set is smaller than alpha
        for g in corpus.small_graphs() + [SIX_VERTEX_GREEDY_MISS]:
            alpha = max_independent_set(g).alpha
            for j in range(1, g.n + 1):
                pt, rho = minimize_spectral_radius(nonneg_parts(g, j), seed=0)
                a = 1 - 1 / j
                closed_form = (a + math.sqrt(a * a + 4 / alpha)) / 2
                assert rho == pytest.approx(closed_form, rel=0, abs=1e-12), (g, j)
                support = [v for v, w in enumerate(pt.weights) if w]
                assert len(support) == alpha
                # uniform on the support, which must be independent
                assert pt == witness_from_independent_set(g, support)
                assert (rho < 1 - 1e-9) == (alpha > j), (g, j)
        assert descents == []

    def test_forty_vertex_gadget_parts_take_no_descent(self, monkeypatch):
        descents = count_descents(monkeypatch)
        g = corpus.gnp(40, 0.5, 3)
        pt, rho = minimize_spectral_radius(nonneg_parts(g, 7), seed=0)
        support = [v for v, w in enumerate(pt.weights) if w]
        assert len(support) == 7
        assert pt == witness_from_independent_set(g, support)
        assert rho == pytest.approx((6 / 7 + math.sqrt((6 / 7) ** 2 + 4 / 7)) / 2,
                                    rel=0, abs=1e-12)
        assert descents == []

    def test_other_families_take_the_descent(self, monkeypatch):
        parts = nonneg_parts(corpus.cycle(5), 1)
        moved = [with_entry(parts[0], 0, 0, Fraction(1, 2))] + parts[1:]
        descents = count_descents(monkeypatch)
        for family in ([p.to_float() for p in parts], moved):
            minimize_spectral_radius(family, budget=500, seed=0)
        assert len(descents) == 2
        monkeypatch.setattr(mpoly.search, "max_independent_set", refuse_exact_set)
        minimize_spectral_radius(parts, budget=500, seed=0)
        assert len(descents) == 3

    # C5 has alpha 2: three cliques prove only alpha <= 3, {0, 1} is an edge,
    # and {0} is independent but smaller than alpha
    @pytest.mark.parametrize("bad", [{"proof": ((0, 1), (2, 3), (4,))},
                                     {"witness": frozenset({0, 1})},
                                     {"witness": frozenset({0})}],
                             ids=["proof", "dependent-witness", "short-witness"])
    def test_oracle_answer_that_fails_its_check_takes_the_descent(self, monkeypatch,
                                                                  bad):
        parts = nonneg_parts(corpus.cycle(5), 1)
        real = mpoly.search.max_independent_set
        descents = count_descents(monkeypatch)
        monkeypatch.setattr(mpoly.search, "max_independent_set",
                            lambda g: dataclasses.replace(real(g), **bad))
        got = minimize_spectral_radius(parts, budget=500, seed=0)
        assert len(descents) == 1
        monkeypatch.setattr(mpoly.search, "max_independent_set", refuse_exact_set)
        assert minimize_spectral_radius(parts, budget=500, seed=0) == got

    def test_exact_minimum_is_never_above_the_descent(self):
        for g in corpus.small_graphs(4):
            for j in range(1, g.n + 1):
                parts = nonneg_parts(g, j)
                _, rho = minimize_spectral_radius(parts, seed=0)
                _, descended = minimize_spectral_radius(
                    [p.to_float() for p in parts], seed=0)
                assert rho <= descended + 1e-12, (g, j)

    def test_cross_check_against_certification(self):
        rng = np.random.default_rng(42)
        for g in corpus.small_graphs(4)[::5]:
            j = int(rng.integers(1, g.n + 1))
            parts = [p.to_float() for p in nonneg_parts(g, j)]
            pt, rho = minimize_spectral_radius(parts, budget=4000, seed=0)
            combo = convex_combination(parts, pt)
            report = certify(Matrix.identity(combo.n) - combo)
            if rho < 1.0 - 1e-6:
                assert report.consensus == "YES"
            elif rho > 1.0 + 1e-6:
                assert report.consensus == "NO"


class TestExactPathsReadNumerators:
    def test_gadget_paths_make_no_fraction_view(self, monkeypatch):
        # the gadget paths read exact matrices through their integer
        # numerators: with the Fraction views refusing, every outcome stays
        c5, petersen = corpus.cycle(5), corpus.petersen()
        cases = [(c5, 1), (c5, 2), (petersen, 3), (petersen, 4)]
        near = [with_entry(K3_J2[0], 1, 1, Fraction(3, 2))] + list(K3_J2[1:])

        def outcomes():
            found = [instance_graph(near)]
            for g, j in cases:
                gadgets = build_instance(g, j).gadgets
                found += [
                    instance_graph(gadgets),
                    search_general(gadgets, seed=0),
                    hurwitz_search([-m for m in gadgets], seed=0),
                    minimize_spectral_radius(nonneg_parts(g, j), seed=0),
                ]
            return found

        expected = outcomes()
        assert expected[0] is None
        assert [expected[1 + 4 * i] for i in range(4)] == cases

        def refuse(*args):
            raise AssertionError("a Fraction view of an exact matrix was read")

        for name in ("rows", "entry", "exact"):
            monkeypatch.setattr(Matrix, name, refuse)
        assert outcomes() == expected


class TestHurwitzSearch:
    def test_negated_feasible_instance(self):
        inst = build_instance(corpus.empty(2), 1)
        negated = [-g.to_float() for g in inst.gadgets]
        out = hurwitz_search(negated, budget=5000, seed=0)
        assert out.status is SearchStatus.FEASIBLE
        combo = convex_combination(negated, out.certificate)
        assert max(z.real for z in eigenvalues(combo)) < -1e-9

    def test_rotation_matrix_is_marginal(self):
        out = hurwitz_search([Matrix.float64([[0, 1], [-1, 0]])], budget=500)
        assert out.status is SearchStatus.UNKNOWN

    def test_negative_identity(self):
        out = hurwitz_search([-Matrix.identity(3)], budget=500)
        assert out.status is SearchStatus.FEASIBLE

    def test_gadget_decision_over_small_graphs(self):
        unknown = []
        for g in corpus.small_graphs() + [SIX_VERTEX_GREEDY_MISS]:
            alpha = max_independent_set(g).alpha
            for j in range(1, g.n + 1):
                gadgets = build_instance(g, j).gadgets
                negated = [-m for m in gadgets]
                out = hurwitz_search(negated, budget=500, seed=0)
                if out.status is SearchStatus.FEASIBLE:
                    assert alpha > j and out.budget_spent == 0, (g, j)
                    report = certify(convex_combination(gadgets, out.certificate))
                    assert report.is_z and report.consensus == "YES"
                    abscissa = -report.margins["POS_STABLE"]
                    assert out.margins == {**report.margins,
                                           "spectral_abscissa": abscissa}
                    combo = convex_combination(negated, out.certificate).to_float()
                    assert max(z.real for z in eigenvalues(combo)) == \
                        pytest.approx(abscissa, rel=1e-9)
                elif out.status is SearchStatus.INFEASIBLE:
                    assert alpha <= j and out.budget_spent == 0, (g, j)
                    assert is_threshold_proof(g, out.threshold_proof, j), (g, j)
                else:
                    unknown.append((g.n, len(g.edges), j))
        # C5 at j = 2, with alpha = j and no partition into 2 cliques, is
        # answered from its threshold tree
        assert unknown == []

    def test_no_infeasible_without_the_cover_check(self, monkeypatch):
        monkeypatch.setattr(mpoly.search, "is_threshold_proof",
                            lambda g, tree, j: False)
        for g, j, out in hurwitz_over(corpus.small_graphs(4)):
            assert out.status is not SearchStatus.INFEASIBLE, (g, j)

    def test_no_gadget_witness_without_z(self, monkeypatch):
        real = mpoly.search.certify
        monkeypatch.setattr(
            mpoly.search, "certify",
            lambda m: dataclasses.replace(real(m), is_z=False),
        )
        for g, j, out in hurwitz_over(corpus.small_graphs(4)):
            gadget_path = out.budget_spent == 0
            assert not (out.status is SearchStatus.FEASIBLE and gadget_path), (g, j)

    def test_relabelling_keeps_the_status(self):
        rng = np.random.default_rng(11)
        for g in corpus.small_graphs():
            perm = [int(v) for v in rng.permutation(g.n)]
            h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            for (_, j, a), (_, _, b) in zip(hurwitz_over([g]), hurwitz_over([h])):
                assert a.status is b.status, (g, perm, j)


class TestSpectralDescent:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gadget=st.booleans())
    def test_batched_gradient_matches_forward_differences(self, seed, gadget):
        # positive families have a simple Perron root; negated gadget
        # families have a simple top eigenvalue at generic points
        rng = np.random.default_rng(seed)
        if gadget:
            n = int(rng.integers(2, 8))
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.4]
            inst = build_instance(Graph.from_edges(n, edges), int(rng.integers(1, n + 1)))
            stack = np.stack([-m.as_array() for m in inst.gadgets])
        else:
            k, d = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            stack = rng.uniform(0.05, 1.0, size=(k, d, d))
        k = len(stack)
        points = rng.dirichlet(np.ones(k), size=6)
        radius = not gadget
        values, grads, smooth = mpoly.search._spectral_gradients(stack, points, radius)
        assert smooth.all()
        assert np.array_equal(
            values, mpoly.search._spectral_values(stack, points, radius)
        )
        h = mpoly.search.SPECTRAL_FD_STEP
        for point, value, grad in zip(points, values, grads):
            probes = point + h * np.eye(k)
            fd = (mpoly.search._spectral_values(stack, probes, radius) - value) / h
            assert np.abs(grad - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    @staticmethod
    def _gradients_quietly(stack, points, radius):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return mpoly.search._spectral_gradients(stack, points, radius)

    @staticmethod
    def _assert_matches_forward_differences(stack, points, radius, values, grads):
        h = mpoly.search.SPECTRAL_FD_STEP
        for point, value, grad in zip(points, values, grads):
            probes = point + h * np.eye(len(stack))
            fd = (mpoly.search._spectral_values(stack, probes, radius) - value) / h
            assert np.abs(grad - fd).max() <= 1e-5 * max(1.0, np.abs(fd).max())

    def test_degenerate_rows_are_gated_without_warnings(self):
        rng = np.random.default_rng(3)
        points = np.vstack([np.eye(2), rng.dirichlet(np.ones(2), size=4)])
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        # a 4 x 4 Jordan block in a rotated basis: eig splits its eigenvalue
        # by about 1e-4, but its left and right vectors stay orthogonal
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = q @ (np.eye(4) + np.eye(4, k=1)) @ q.T
        for stack in (np.zeros((2, 3, 3)), np.stack([jordan, np.eye(2)]),
                      np.stack([rotated, rotated])):
            for radius in (True, False):
                _, _, smooth = self._gradients_quietly(stack, points, radius)
                assert not smooth.any()

    def test_perron_rows_match_forward_differences_and_ties_are_gated(self):
        # at j = 1 the radius of every combination of the parts is repeated
        rng = np.random.default_rng(5)
        for j in (1, 2):
            stack = np.stack([p.to_float().as_array()
                              for p in nonneg_parts(corpus.cycle(6), j)])
            k = len(stack)
            points = np.vstack([np.eye(k), np.full((1, k), 1 / k),
                                rng.dirichlet(np.ones(k), size=6)])
            values, grads, smooth = self._gradients_quietly(stack, points, True)
            combos = np.tensordot(points, stack, axes=(1, 0))
            moduli = np.sort(np.abs(np.linalg.eigvals(combos)), axis=1)
            simple = moduli[:, -1] - moduli[:, -2] > mpoly.search.EIG_GAP
            assert smooth.tolist() == simple.tolist()
            assert smooth.any() == (j == 2)
            self._assert_matches_forward_differences(
                stack, points[smooth], True, values[smooth], grads[smooth]
            )

    def test_smoothness_does_not_depend_on_scale(self):
        # each eigenvalue gap is taken relative to the row's spectrum
        rng = np.random.default_rng(7)
        stack = rng.random((3, 4, 4))
        points = np.vstack([np.full((1, 3), 1 / 3), rng.dirichlet(np.ones(3), size=4)])
        for radius, sign in ((True, 1.0), (False, -1.0)):
            for c in (1.0, 1e-9):
                _, _, smooth = self._gradients_quietly(sign * c * stack, points, radius)
                assert smooth.all(), (radius, c)

    def test_badly_balanced_family_keeps_its_gradient(self):
        # D B D^-1 with D = diag(1e5, 1e-5): the eigenvalues are those of B,
        # O(1) apart, while max |A_ij| is about 1e10
        d, d_inv = np.diag([1e5, 1e-5]), np.diag([1e-5, 1e5])
        stack = np.stack([d @ b @ d_inv for b in (np.ones((2, 2)), np.diag([2.0, 1.0]))])
        points = np.array([[0.5, 0.5], [0.9, 0.1]])
        values, grads, smooth = self._gradients_quietly(stack, points, False)
        assert smooth.all()
        self._assert_matches_forward_differences(stack, points, False, values, grads)

    def test_simple_top_beside_a_jordan_block_keeps_its_gradient(self):
        # at the first vertex, diag(3) + [[1, 1], [0, 1]], the top eigenvalue
        # 3 is simple while the eigenvector matrix is nearly singular
        jordan = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        stack = np.stack([jordan, np.diag([1.0, 2.0, 0.5])])
        points = np.array([[1.0, 0.0], [0.5, 0.5], [0.9, 0.1]])
        for radius in (True, False):
            values, grads, smooth = self._gradients_quietly(stack, points, radius)
            assert smooth.all()
            self._assert_matches_forward_differences(
                stack, points, radius, values, grads
            )

    def test_doubled_top_eigenvalue_falls_back_and_keeps_budget(self):
        # above w0 = w1 the top eigenvalue w0 + 2 w1 is doubled, so those rows
        # take forward differences; nothing is Hurwitz, so every budget is used
        family = [Matrix.float64(np.diag([1.0, 1.0, 2.0])),
                  Matrix.float64(np.diag([2.0, 2.0, 1.0]))]
        stack = np.stack([m.as_array() for m in family])
        points = np.array([[0.25, 0.75], [0.75, 0.25]])
        _, _, smooth = mpoly.search._spectral_gradients(stack, points, False)
        assert smooth.tolist() == [False, True]
        for budget in range(1, 601):
            out = hurwitz_search(family, budget=budget, seed=0)
            assert out.status is SearchStatus.UNKNOWN
            assert out.budget_spent <= budget

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_rejected(self, budget):
        # a budget of 0 used to spend the uniform point's evaluation anyway
        with pytest.raises(DomainError):
            minimize_spectral_radius([Matrix.float64([[0, 1], [1, 0]])],
                                     budget=budget)
        with pytest.raises(DomainError):
            hurwitz_search([-Matrix.identity(2)], budget=budget)
        with pytest.raises(DomainError):
            search_general([Matrix.identity(2)], budget=budget)

    def test_deterministic_given_seed(self):
        parts = [p.to_float() for p in nonneg_parts(corpus.cycle(6), 2)]
        assert minimize_spectral_radius(parts, seed=5) == \
            minimize_spectral_radius(parts, seed=5)
        negated = [-g.to_float() for g in build_instance(corpus.cycle(6), 2).gadgets]
        a = hurwitz_search(negated, seed=5)
        b = hurwitz_search(negated, seed=5)
        assert a.status is SearchStatus.FEASIBLE
        assert (a.certificate, a.margins, a.budget_spent) == \
            (b.certificate, b.margins, b.budget_spent)
        for budget in (40, 400):
            a = hurwitz_search(negated, budget=budget, seed=5)
            b = hurwitz_search(negated, budget=budget, seed=5)
            assert a.to_json_dict() == b.to_json_dict()

    def test_lowest_start_wins_a_tie(self, monkeypatch):
        # diagonal family whose value is max(w.r, w.s) with s a swap of r
        # (coordinates 0<->1 and 2<->3): low and its swap high tie at -1 in
        # the first round; the vertices and the uniform point are not Hurwitz
        r = np.array([1.0, -3.0, 1.0, -3.0, 4.0])
        s = r[[1, 0, 3, 2, 4]]
        family = [Matrix.float64(np.diag([r[m], s[m]])) for m in range(5)]
        low = np.array([0.5, 0.25, 0.0, 0.25, 0.0])
        high = low[[1, 0, 3, 2, 4]]
        for first, second in ((low, high), (high, low)):
            rows = np.array([np.full(5, 0.2)] * 15)
            rows[1], rows[3] = first, second
            monkeypatch.setattr(
                mpoly.search, "sample_simplex_rows", lambda rng, count, k: rows[:count]
            )
            out = hurwitz_search(family, seed=0)
            assert out.status is SearchStatus.FEASIBLE
            assert out.certificate == SimplexPoint.from_floats(first)
            assert out.margins == {"spectral_abscissa": -1.0}
            # uniform pass, vertices, then the first round's eig of the 15
            # drawn starts: the uniform pass already scored start 0
            assert out.budget_spent == 1 + 5 + 15


PATH5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def float_gadgets(g: Graph, j: int) -> list:
    return [m.to_float() for m in build_instance(g, j).gadgets]


class TestBudgetAccounting:
    # budget_spent at every budget 1..80, as one run of numbers; the status
    # is FEASIBLE from the given budget on (None: UNKNOWN throughout)
    PINNED = {
        ("path5", "general"): (9, """
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24
            25 26 27 28 29 29 29 29 29 29 29 29 29 29 29 29 29 29 29 29 29
            29 29 29 29 29 29 29 29 29 29 29 29 29 29 29 29 29 29 29 29 29
            29 29 29 29 29 29 29 29 29 29 29 29 29 29"""),
        ("path5", "hurwitz"): (15, """
            1 2 3 4 5 6 6 6 6 6 6 6 6 6 10 10 10 10 10 10 10 10 10 10 15 15 15
            15 15 15 15 15 15 15 20 20 20 20 20 20 20 20 20 20 9 9 9 9 9 9 9 9 9
            9 10 10 10 10 10 10 10 10 10 10 11 11 11 11 11 11 11 11 11 11 12 12
            12 12 12 12"""),
        ("k2", "general"): (None, """
            1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26
            27 28 29 30 31 32 33 34 35 35 35 35 35 35 41 41 41 41 41 41 47 47 47
            47 47 47 53 53 53 53 53 53 59 59 59 59 59 59 65 65 65 65 65 65 71 71
            71 71 71 71 77 77 77 77"""),
        ("k2", "hurwitz"): (None, """
            1 2 3 4 5 6 7 8 9 10 11 12 12 12 12 12 12 16 16 16 16 16 16 16 21 21
            21 21 21 21 21 26 26 26 26 26 26 26 31 31 31 31 31 31 31 36 36 36 36
            36 36 36 41 41 41 41 41 41 41 46 46 46 46 46 46 46 51 51 51 51 51 51
            51 56 56 56 56 56 56 56"""),
    }

    @pytest.mark.parametrize("family, search", sorted(PINNED))
    def test_status_and_spent_at_every_small_budget(self, family, search):
        # path5 at j = 2 (k = 5, no grid) turns FEASIBLE within the budgets;
        # K2 at j = 1 (k = 2, a 9-point grid) never does, so its rounds run
        # on; hurwitz_search takes the negated family
        floats = float_gadgets(PATH5, 2) if family == "path5" else \
            float_gadgets(corpus.complete(2), 1)
        run = search_general if search == "general" else \
            (lambda mats, **kw: hurwitz_search([-m for m in mats], **kw))
        first_feasible, spent = self.PINNED[family, search]
        for budget, expected in zip(range(1, 81), map(int, spent.split()), strict=True):
            out = run(floats, budget=budget, seed=0)
            feasible = first_feasible is not None and budget >= first_feasible
            assert out.status is (
                SearchStatus.FEASIBLE if feasible else SearchStatus.UNKNOWN
            ), budget
            assert out.budget_spent == expected, budget

    def test_grid_witness_scores_no_drawn_start(self):
        # the star K(1,3) at j = 2: neither the uniform point nor a vertex is
        # Hurwitz, but the grid point (0, 3/8, 3/8, 1/4) is, so the descent
        # stops after the uniform point, the 4 vertices and the 165-point grid
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        passes = [len(p) for p in mpoly.search._grid_passes(4)]
        assert passes == [4, 165]
        out = hurwitz_search([-m for m in float_gadgets(star, 2)], seed=0)
        assert out.status is SearchStatus.FEASIBLE
        assert out.certificate.weights == (0.0, 0.375, 0.375, 0.25)
        assert out.budget_spent == 1 + 4 + 165
