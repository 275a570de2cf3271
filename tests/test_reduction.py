"""Gadget construction, closed-form determinant, witnesses, nonnegative parts."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from mpoly import (
    DimensionMismatch,
    DomainError,
    Graph,
    Matrix,
    NotIndependent,
    SimplexPoint,
    build_instance,
    certify,
    convex_combination,
    det,
    det_closed_form,
    instance_graph,
    is_z_matrix,
    leading_principal_minors,
    max_independent_set,
    nonneg_parts,
    parse_graph,
    quadratic_form,
    schur_complement,
    spectral_radius,
    witness_from_independent_set,
    write_graph,
)
from mpoly.linalg import matrices_from_json, matrices_to_json

import corpus


SINGLE_EDGE = Graph.from_edges(2, [(0, 1)])
EMPTY2 = corpus.empty(2)
C5 = corpus.cycle(5)


def random_j(rng, n):
    return int(rng.integers(1, n + 1))


class TestGraph:
    def test_rejects_self_loops_and_bad_vertices(self):
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(1, 1)])
        with pytest.raises(DomainError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(DomainError):
            Graph(0, frozenset())

    def test_adjacency_symmetric_zero_one_zero_diagonal(self):
        rows = C5.adjacency_rows()
        for i in range(5):
            assert rows[i][i] == 0
            for j in range(5):
                assert rows[i][j] == rows[j][i]
                assert rows[i][j] in (0, 1)

    def test_parse_round_trip(self):
        text = "c comment line\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
        g = parse_graph(text)
        assert g == C5
        assert parse_graph(write_graph(g)) == g

    def test_parse_errors(self):
        with pytest.raises(DomainError):
            parse_graph("e 1 2\n")  # edge before header
        with pytest.raises(DomainError):
            parse_graph("p edge 2 1\ne 1 1\n")  # self loop
        with pytest.raises(DomainError):
            parse_graph("p edge 2 2\ne 1 2\ne 2 1\n")  # duplicate edge
        with pytest.raises(DomainError):
            parse_graph("p edge 2 2\ne 1 2\n")  # count mismatch
        with pytest.raises(DomainError):
            parse_graph("p edge 2 1\ne 1 3\n")  # out of range
        with pytest.raises(DomainError):
            parse_graph("p edge 0 0\n")  # no vertices
        with pytest.raises(DomainError):
            parse_graph(f"p edge {sys.maxsize + 1} 0\n")  # no list holds n rows


class TestSimplexPoint:
    def test_exact_sum_enforced(self):
        with pytest.raises(DomainError):
            SimplexPoint((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(DomainError):
            SimplexPoint((Fraction(-1, 2), Fraction(3, 2)))

    def test_float_sum_slack(self):
        SimplexPoint((0.5, 0.5 + 5e-13))
        with pytest.raises(DomainError):
            SimplexPoint((0.5, 0.6))

    def test_uniform_and_vertex(self):
        assert sum(SimplexPoint.uniform(3).weights) == 1
        assert SimplexPoint.vertex(3, 1).weights == (0, 1, 0)


class TestBuildInstance:
    def test_single_edge_gadget_by_substitution(self):
        inst = build_instance(SINGLE_EDGE, 1)
        expected = Matrix.exact([[1, 0, -1], [0, 1, -1], [-1, 0, 1]])
        assert inst.gadgets[0] == expected

    def test_empty_graph_gadget(self):
        inst = build_instance(EMPTY2, 2)
        expected = Matrix.exact([[1, 0, -1], [0, 1, 0], [-1, 0, "1/2"]])
        assert inst.gadgets[0] == expected

    def test_every_gadget_is_z(self):
        rng = np.random.default_rng(20)
        for g in corpus.small_graphs(4):
            inst = build_instance(g, random_j(rng, g.n))
            for gadget in inst.gadgets:
                assert is_z_matrix(gadget)
                assert gadget.n == g.n + 1

    def test_j_out_of_range(self):
        with pytest.raises(DomainError):
            build_instance(SINGLE_EDGE, 0)
        with pytest.raises(DomainError):
            build_instance(SINGLE_EDGE, 3)

    def test_entry_alphabet(self):
        inst = build_instance(C5, 3)
        allowed = {Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3)}
        for gadget in inst.gadgets:
            assert {x for row in gadget.rows() for x in row} <= allowed

    def test_serialized_gadget_size_grows_quadratically(self):
        sizes = {}
        for n in (4, 8, 16, 32):
            g = corpus.cycle(n)
            inst = build_instance(g, n)
            sizes[n] = len(matrices_to_json([inst.gadgets[0]]))
        # one gadget holds (n+1)^2 entries of bounded width: quadratic growth
        assert sizes[8] / sizes[4] < 5.0
        assert sizes[16] / sizes[8] < 5.0
        assert sizes[32] / sizes[16] < 5.0


def reference_gadgets(g: Graph, j: int) -> list[Matrix]:
    """The gadgets entry by entry: identity block, column -(e_i + c_i),
    row -e_i and corner 1/j."""
    n, adj = g.n, g.adjacency_rows()
    gadgets = []
    for i in range(n):
        rows = [
            [int(r == c) for c in range(n)] + [-(int(r == i) + adj[r][i])]
            for r in range(n)
        ]
        rows.append([-int(c == i) for c in range(n)] + [Fraction(1, j)])
        gadgets.append(Matrix.exact(rows))
    return gadgets


class TestSharedRows:
    G, J = corpus.cycle(7), 3

    def test_gadgets_share_top_rows_and_equal_the_reference(self):
        gadgets = build_instance(self.G, self.J).gadgets
        n = self.G.n
        tops = {id(m._num[r]) for m in gadgets for r in range(n)}
        assert len(tops) <= 2 * n < n * n
        for r in range(n):
            # equal top rows are one object
            by_value = {m._num[r]: m._num[r] for m in gadgets}
            assert all(m._num[r] is by_value[m._num[r]] for m in gadgets)
        assert list(gadgets) == reference_gadgets(self.G, self.J)

    def test_operations_leave_the_shared_rows_unchanged(self):
        gadgets = build_instance(self.G, self.J).gadgets
        before = [[list(r) for r in m._num] for m in gadgets]
        witness = witness_from_independent_set(
            self.G, max_independent_set(self.G).witness)
        for m in gadgets:
            certify(m)
            det(m)
            leading_principal_minors(m)
            schur_complement(m, self.G.n)
            assert -(-m) == m
        certify(convex_combination(gadgets, witness))
        nonneg_parts(self.G, self.J)
        assert [[list(r) for r in m._num] for m in gadgets] == before
        assert list(gadgets) == reference_gadgets(self.G, self.J)

    def test_instance_graph_rejects_one_perturbed_entry(self):
        gadgets = list(build_instance(self.G, self.J).gadgets)
        rows = [list(r) for r in gadgets[2].rows()]
        rows[0][0] += Fraction(1, self.J)
        perturbed = gadgets[:2] + [Matrix.exact(rows)] + gadgets[3:]
        assert instance_graph(perturbed) is None
        # the other gadgets hold row 0 too, and it did not change
        assert instance_graph(gadgets) == (self.G, self.J)


class TestInstanceGraph:
    def test_recognises_every_small_instance(self):
        for g in corpus.small_graphs(5):
            for j in range(1, g.n + 1):
                assert instance_graph(build_instance(g, j).gadgets) == (g, j)

    def test_recognises_a_json_round_trip(self):
        gadgets = build_instance(C5, 2).gadgets
        assert instance_graph(matrices_from_json(matrices_to_json(gadgets))) == (C5, 2)

    def test_rejects_families_one_step_away(self):
        gadgets = list(build_instance(C5, 2).gadgets)

        def changed(i, r, c, value):
            rows = [list(row) for row in gadgets[i].rows()]
            rows[r][c] = value
            return gadgets[:i] + [Matrix.exact(rows)] + gadgets[i + 1:]

        assert instance_graph([m.to_float() for m in gadgets]) is None
        # entries move by 1/den = 1/2
        assert instance_graph(changed(0, 1, 1, Fraction(3, 2))) is None
        assert instance_graph(changed(4, 2, 5, Fraction(-1, 2))) is None
        # the corner is read from the first matrix only
        for i in range(5):
            assert instance_graph(changed(i, 5, 5, Fraction(1, 3))) is None
        assert instance_graph(changed(0, 5, 5, Fraction(2, 3))) is None
        # vertex 0 claims neighbour 2 (read from matrix 0), matrix 2 does not
        assert instance_graph(changed(0, 2, 5, -1)) is None
        # vertex 4 claims neighbour 2 (not read), matrix 2 does not
        assert instance_graph(changed(4, 2, 5, -1)) is None
        assert instance_graph(gadgets[:4]) is None
        assert instance_graph(gadgets + [gadgets[0]]) is None
        assert instance_graph([]) is None


class TestConvexCombination:
    def test_vertex_weight_returns_first_matrix(self):
        inst = build_instance(C5, 2)
        pt = SimplexPoint.vertex(5, 0)
        assert convex_combination(inst.gadgets, pt) == inst.gadgets[0]

    def test_uniform_empty_graph(self):
        inst = build_instance(EMPTY2, 1)
        combo = convex_combination(inst.gadgets, SimplexPoint.uniform(2))
        expected = Matrix.exact(
            [[1, 0, "-1/2"], [0, 1, "-1/2"], ["-1/2", "-1/2", 1]]
        )
        assert combo == expected

    def test_z_closed_under_combination(self):
        rng = np.random.default_rng(21)
        for g in corpus.small_graphs(4)[::3]:
            inst = build_instance(g, random_j(rng, g.n))
            pt = corpus.random_rational_simplex_point(rng, g.n)
            assert is_z_matrix(convex_combination(inst.gadgets, pt))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            convex_combination(
                [Matrix.identity(2, exact=True)], SimplexPoint.uniform(2)
            )

    def test_block_structure_matches_assembled_form(self):
        # identity block, column -(I+C)pi, row -pi, corner 1/j
        rng = np.random.default_rng(22)
        g = C5
        pt = corpus.random_rational_simplex_point(rng, 5)
        inst = build_instance(g, 2)
        combo = convex_combination(inst.gadgets, pt)
        rows = combo.rows()
        adj = g.adjacency_rows()
        for r in range(5):
            for c in range(5):
                assert rows[r][c] == (1 if r == c else 0)
            expected = -(pt[r] + sum(adj[r][c] * pt[c] for c in range(5)))
            assert rows[r][5] == expected
            assert rows[5][r] == -pt[r]
        assert rows[5][5] == Fraction(1, 2)

    def test_schur_complement_at_graph_size_is_closed_form(self):
        from mpoly import schur_complement

        rng = np.random.default_rng(29)
        g = C5
        j = 2
        pt = corpus.random_rational_simplex_point(rng, 5)
        combo = convex_combination(build_instance(g, j).gadgets, pt)
        comp = schur_complement(combo, g.n)
        assert comp.n == 1
        assert comp.entry(0, 0) == det_closed_form(g, j, pt)

    def test_entry_write_count_is_cubic(self):
        for n in (3, 6, 10):
            inst = build_instance(corpus.cycle(n), 2)
            total = sum(gadget.n * gadget.n for gadget in inst.gadgets)
            assert total == n * (n + 1) ** 2

    def test_gadget_minors_all_one_then_det(self):
        rng = np.random.default_rng(23)
        for g in [SINGLE_EDGE, C5, corpus.complete(4)]:
            j = random_j(rng, g.n)
            inst = build_instance(g, j)
            pt = corpus.random_rational_simplex_point(rng, g.n)
            combo = convex_combination(inst.gadgets, pt)
            minors = leading_principal_minors(combo)
            assert minors[: g.n] == [1] * g.n
            assert minors[-1] == det(combo)


class TestDetClosedForm:
    def test_empty_graph_uniform(self):
        assert det_closed_form(EMPTY2, 1, SimplexPoint.uniform(2)) == Fraction(1, 2)

    def test_single_edge_identically_zero(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            pt = corpus.random_rational_simplex_point(rng, 2)
            assert det_closed_form(SINGLE_EDGE, 1, pt) == 0

    def test_matches_direct_determinant_exactly(self):
        rng = np.random.default_rng(25)
        graphs = corpus.small_graphs(5)
        for i in range(200):
            g = graphs[int(rng.integers(0, len(graphs)))]
            j = random_j(rng, g.n)
            pt = corpus.random_rational_simplex_point(rng, g.n)
            inst = build_instance(g, j)
            combo = convex_combination(inst.gadgets, pt)
            assert det_closed_form(g, j, pt) == det(combo)

    def test_float_backing_agrees(self):
        rng = np.random.default_rng(26)
        graphs = corpus.small_graphs(5)
        for _ in range(50):
            g = graphs[int(rng.integers(0, len(graphs)))]
            j = random_j(rng, g.n)
            pt_exact = corpus.random_rational_simplex_point(rng, g.n)
            pt_float = SimplexPoint.from_floats(pt_exact.to_floats())
            inst = build_instance(g, j)
            combo = convex_combination(
                [m.to_float() for m in inst.gadgets], pt_float
            )
            closed = det_closed_form(g, j, pt_float)
            direct = det(combo)
            assert abs(closed - direct) <= 1e-9 * max(1.0, abs(direct))


class TestFeasibility:
    def test_examples(self):
        assert det_closed_form(EMPTY2, 1, SimplexPoint.uniform(2)) > 0
        assert not (det_closed_form(SINGLE_EDGE, 1, SimplexPoint.uniform(2)) > 0)
        assert det_closed_form(corpus.empty(3), 2, SimplexPoint.uniform(3)) > 0

    def test_feasible_point_certifies_yes(self):
        from mpoly import certify

        inst = build_instance(corpus.empty(3), 2)
        pt = SimplexPoint.uniform(3)
        assert det_closed_form(corpus.empty(3), 2, pt) > 0
        rep = certify(convex_combination(inst.gadgets, pt))
        assert rep.consensus == "YES"

    def test_boundary_exactness_j_equals_alpha(self):
        for g in corpus.corpus_n8():
            alpha = max_independent_set(g).alpha
            witness = witness_from_independent_set(
                g, max_independent_set(g).witness
            )
            value = det_closed_form(g, alpha, witness)
            assert value == 0

    def test_soundness_and_completeness_at_desk_scale(self):
        from mpoly import motzkin_straus_min

        for g in corpus.small_graphs(4) + list(corpus.corpus_n8()[-12:]):
            res = max_independent_set(g)
            witness = witness_from_independent_set(g, res.witness)
            for j in range(1, g.n + 1):
                expected = res.alpha > j
                assert (det_closed_form(g, j, witness) > 0) == expected
                if not expected:
                    # the quadratic form can never dip below 1/alpha
                    ms = motzkin_straus_min(g, restarts=10 * g.n, seed=3)
                    assert Fraction(1, j) - ms.value <= 1e-6


class TestWitness:
    def test_uniform_weights(self):
        pt = witness_from_independent_set(corpus.empty(3), {0, 1, 2})
        assert pt.weights == (Fraction(1, 3),) * 3

    def test_single_vertex(self):
        pt = witness_from_independent_set(SINGLE_EDGE, {0})
        assert pt.weights == (1, 0)

    def test_c5_pair_quadratic_form(self):
        pt = witness_from_independent_set(C5, {0, 2})
        assert quadratic_form(C5, pt) == Fraction(1, 2)

    def test_rejects_dependent_or_empty_sets(self):
        with pytest.raises(NotIndependent):
            witness_from_independent_set(C5, {0, 1})
        with pytest.raises(NotIndependent):
            witness_from_independent_set(C5, set())
        with pytest.raises(DomainError):
            witness_from_independent_set(C5, {7})

    def test_form_value_exactly_reciprocal_size(self):
        for g in corpus.small_graphs(5)[::5]:
            res = max_independent_set(g)
            pt = witness_from_independent_set(g, res.witness)
            assert quadratic_form(g, pt) == Fraction(1, res.alpha)


class TestNonnegParts:
    def test_empty_graph_part(self):
        parts = nonneg_parts(EMPTY2, 1)
        assert parts[0] == Matrix.exact([[0, 0, 1], [0, 0, 0], [1, 0, 0]])

    def test_identity_minus_part_equals_gadget(self):
        rng = np.random.default_rng(27)
        for g in corpus.small_graphs(4)[::2]:
            j = random_j(rng, g.n)
            inst = build_instance(g, j)
            parts = nonneg_parts(g, j)
            eye = Matrix.identity(g.n + 1, exact=True)
            for gadget, part in zip(inst.gadgets, parts):
                assert gadget == eye - part
                assert all(x >= 0 for row in part.rows() for x in row)

    def test_corner_entry(self):
        parts = nonneg_parts(C5, 5)
        assert parts[0].entry(5, 5) == Fraction(4, 5)

    def test_mmatrix_iff_contractive_radius(self):
        rng = np.random.default_rng(28)
        graphs = corpus.small_graphs(5)
        checked = 0
        for _ in range(120):
            g = graphs[int(rng.integers(0, len(graphs)))]
            j = random_j(rng, g.n)
            pt = corpus.random_rational_simplex_point(rng, g.n)
            d = det_closed_form(g, j, pt)
            if abs(float(d)) <= 1e-6:
                continue
            parts = nonneg_parts(g, j)
            combo = convex_combination([p.to_float() for p in parts], pt)
            rho = spectral_radius(combo)
            assert (d > 0) == (rho < 1.0), (g, j, pt)
            checked += 1
        assert checked > 80
