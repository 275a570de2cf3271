"""Polytope feasibility searches: general, symmetric, radius, Hurwitz."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mpoly.search
from mpoly import (
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
    max_independent_set,
    minimize_spectral_radius,
    nonneg_parts,
    search_general,
    search_symmetric,
    spectral_radius,
)
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
        # single edge with j = 1: the determinant is identically zero
        inst = build_instance(corpus.complete(2), 1)
        out = search_general(inst.gadgets, budget=5000, seed=0)
        assert out.status is SearchStatus.UNKNOWN
        assert out.certificate is None

    def test_never_infeasible(self):
        inst = build_instance(corpus.complete(3), 2)
        out = search_general(inst.gadgets, budget=2000, seed=1)
        assert out.status is not SearchStatus.INFEASIBLE

    def test_feasible_certificates_recertify(self):
        # with k = n <= 4 the grid pass makes the search complete, so the
        # set of FEASIBLE outcomes must match the oracle exactly
        found = expected = 0
        for g in corpus.small_graphs(4):
            alpha = max_independent_set(g).alpha
            for j in range(1, g.n + 1):
                expected += alpha > j
                inst = build_instance(g, j)
                out = search_general(inst.gadgets, budget=20_000, seed=0)
                if out.status is SearchStatus.FEASIBLE:
                    assert alpha > j
                    report = certify(
                        convex_combination(inst.gadgets, out.certificate)
                    )
                    assert report.consensus == "YES"
                    found += 1
        assert found == expected
        assert found >= 15

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

    def test_monotone_trace_and_budget(self):
        inst = build_instance(corpus.cycle(5), 2)
        out = search_general(inst.gadgets, budget=3000, seed=0)
        merits = [m for _, m in out.objective_trace]
        assert merits == sorted(merits)
        assert out.budget_spent <= 3000

    def test_deterministic_given_seed(self):
        inst = build_instance(corpus.cycle(7), 3)
        a = search_general(inst.gadgets, budget=4000, seed=11)
        b = search_general(inst.gadgets, budget=4000, seed=11)
        assert a.status == b.status
        assert a.budget_spent == b.budget_spent
        assert a.objective_trace == b.objective_trace

    def test_budget_never_overspent(self):
        # k = 5: a vertex pass of 5 points, 24 start points, then rounds of
        # 24 * (k + 4) evaluations; alpha = 2 <= j, so the search never stops early
        inst = build_instance(corpus.cycle(5), 2)
        for budget in range(1, 5 + 24 + 3 * 24 * 9 + 1):
            out = search_general(inst.gadgets, budget=budget, seed=0)
            assert out.status is SearchStatus.UNKNOWN
            assert out.budget_spent <= budget

    def test_exact_inputs_give_exact_certificate(self):
        # alpha = 4 > j = 3; no vertex and no start point is feasible, so the
        # certificate comes out of an ascent round
        g = corpus.petersen()
        inst = build_instance(g, 3)
        out = search_general(inst.gadgets, seed=0)
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
        # start 4 has the better merit (the independent set's own point)
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
        out = search_general(inst.gadgets, seed=0)
        assert out.certificate == rationalize(low)
        assert out.budget_spent == 5 + 24

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatch):
            search_general([])
        with pytest.raises(DimensionMismatch):
            search_general([Matrix.identity(2), Matrix.identity(3)])

    def test_grid_pass_finds_small_family_witnesses(self):
        # k = 3 <= 4, so the grid alone guarantees the find
        g = corpus.empty(3)
        inst = build_instance(g, 2)
        out = search_general(inst.gadgets, budget=50_000, seed=0)
        assert out.status is SearchStatus.FEASIBLE


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

    def test_trace_monotone(self):
        inst = build_instance(corpus.cycle(4), 2)
        negated = [-g.to_float() for g in inst.gadgets]
        out = hurwitz_search(negated, budget=3000, seed=3)
        merits = [m for _, m in out.objective_trace]
        assert merits == sorted(merits)


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

    def test_deterministic_given_seed(self):
        parts = [p.to_float() for p in nonneg_parts(corpus.cycle(6), 2)]
        assert minimize_spectral_radius(parts, seed=5) == \
            minimize_spectral_radius(parts, seed=5)
        negated = [-g.to_float() for g in build_instance(corpus.cycle(6), 2).gadgets]
        a = hurwitz_search(negated, seed=5)
        b = hurwitz_search(negated, seed=5)
        assert a.status is SearchStatus.FEASIBLE
        assert (a.certificate, a.margins, a.objective_trace, a.budget_spent) == \
            (b.certificate, b.margins, b.objective_trace, b.budget_spent)
        for budget in (40, 400):
            a = hurwitz_search(negated, budget=budget, seed=5)
            b = hurwitz_search(negated, budget=budget, seed=5)
            assert a.to_json_dict() == b.to_json_dict()
            assert a.objective_trace == b.objective_trace

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
            assert out.budget_spent == 1 + 5 + 16
