"""Polytope feasibility searches: general, symmetric, radius, Hurwitz."""

import dataclasses
import warnings
from fractions import Fraction

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
    is_clique_cover,
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
        assert is_clique_cover(g, exact.clique_cover, 1)

    def test_never_infeasible(self):
        # off the exact gadget path the search never answers INFEASIBLE
        g = corpus.complete(3)
        inst = build_instance(g, 2)
        out = search_general([m.to_float() for m in inst.gadgets], budget=2000, seed=1)
        assert out.status is not SearchStatus.INFEASIBLE
        exact = search_general(inst.gadgets, budget=2000, seed=1)
        assert exact.status is SearchStatus.INFEASIBLE
        assert is_clique_cover(g, exact.clique_cover, 2)

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


def with_entry(m: Matrix, r: int, c: int, value) -> Matrix:
    rows = [list(row) for row in m.rows()]
    rows[r][c] = value
    return Matrix.exact(rows)


def ascent_only(mats, monkeypatch, **kwargs):
    """search_general with gadget recognition switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(mpoly.search, "instance_graph", lambda mats: None)
        return search_general(mats, **kwargs)


K3_J2 = build_instance(corpus.complete(3), 2).gadgets


class TestGadgetCover:
    def test_exact_gadget_family_is_infeasible_with_a_cover(self):
        g = corpus.cycle(5)
        out = search_general(build_instance(g, 3).gadgets, budget=5000, seed=0)
        assert out.status is SearchStatus.INFEASIBLE
        assert out.certificate is None
        assert out.objective_trace == ()
        assert out.budget_spent == 0
        assert is_clique_cover(g, out.clique_cover, 3)
        payload = out.to_json_dict()
        assert payload["clique_cover"] == [[v + 1 for v in p] for p in out.clique_cover]

    def test_json_has_no_cover_key_without_a_cover(self):
        feasible = search_general(build_instance(corpus.cycle(5), 1).gadgets, seed=0)
        unknown = search_general(build_instance(corpus.cycle(5), 2).gadgets,
                                 budget=500, seed=0)
        for out in (feasible, unknown):
            assert out.clique_cover is None
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
        assert out.clique_cover is None
        assert out == ascent_only(family, monkeypatch, budget=3000, seed=0)

    def test_node_cap_hit_takes_the_ascent(self, monkeypatch):
        monkeypatch.setattr(mpoly.oracle, "CLIQUE_COVER_NODE_CAP", 0)
        out = search_general(K3_J2, budget=3000, seed=0)
        assert out.status is SearchStatus.UNKNOWN
        assert out == ascent_only(K3_J2, monkeypatch, budget=3000, seed=0)

    def test_cover_that_fails_the_check_is_not_reported(self, monkeypatch):
        # the re-check, not the cover search, decides INFEASIBLE
        monkeypatch.setattr(mpoly.search, "clique_cover", lambda g, j: ((0, 1),))
        out = search_general(K3_J2, budget=3000, seed=0)
        assert out.status is SearchStatus.UNKNOWN
        assert out.clique_cover is None

    def test_exhaustive_agreement_with_the_oracle(self):
        uncovered = []
        for g in corpus.small_graphs():
            alpha = max_independent_set(g).alpha
            for j in range(1, g.n + 1):
                out = search_general(build_instance(g, j).gadgets, budget=2000, seed=0)
                if out.status is SearchStatus.INFEASIBLE:
                    assert alpha <= j, (g, j)
                    assert is_clique_cover(g, out.clique_cover, j), (g, j)
                    assert out.budget_spent == 0
                else:
                    assert out.clique_cover is None
                    if alpha <= j:
                        uncovered.append((g.n, len(g.edges), j))
        # every graph on at most 5 vertices but C5 is perfect, so it has a
        # partition into alpha cliques; C5 needs 3 cliques and has alpha 2
        assert uncovered == [(5, 5, 2)]


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
            # uniform pass, vertices, then the first round's eig of the 15
            # drawn starts: the uniform pass already scored start 0
            assert out.budget_spent == 1 + 5 + 15
