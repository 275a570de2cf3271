"""Matrix primitives: determinants, minors, Schur complements, eigenvalues."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mpoly import (
    Backing,
    DimensionMismatch,
    DomainError,
    Graph,
    Matrix,
    SingularBlock,
    build_instance,
    collatz_wielandt_ratio,
    convex_combination,
    det,
    eigenvalues,
    is_z_matrix,
    leading_principal_minors,
    max_independent_set,
    schur_complement,
    spectral_radius,
    witness_from_independent_set,
)
from mpoly.linalg import (
    _bareiss,
    leading_minors_batch,
    matrices_from_json,
    matrices_to_json,
)

import corpus


def exact(rows):
    return Matrix.exact(rows)


def fl(rows):
    return Matrix.float64(rows)


def char_poly_coeffs(m: Matrix) -> list:
    """Exact characteristic polynomial coefficients via Faddeev-LeVerrier."""
    n = m.n
    rows = [[Fraction(x) for x in row] for row in m.rows()]

    def matmul(a, b):
        return [
            [sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]

    coeffs = [Fraction(1)]
    work = [row[:] for row in rows]
    for k in range(1, n + 1):
        ck = sum(work[i][i] for i in range(n)) / k
        coeffs.append(-ck)
        if k == n:
            break
        for i in range(n):
            work[i][i] -= ck
        work = matmul(rows, work)
    return coeffs


class TestConstruction:
    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            Matrix.exact([])

    def test_one_by_one_supported(self):
        assert det(exact([[5]])) == 5
        assert det(fl([[5.0]])) == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "grid",
        [
            [[1.0, 2.0]],
            np.zeros((2, 2, 2)),
            [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
            np.zeros(3),
        ],
        ids=["one-row", "array-three-deep", "lists-three-deep", "array-one-deep"],
    )
    def test_non_square_rejected(self, grid):
        with pytest.raises(DomainError, match="entry grid must be square"):
            Matrix.float64(grid)

    def test_float_entries_never_promote_to_exact(self):
        with pytest.raises(DomainError):
            Matrix.exact([[0.5]])

    def test_rational_entries_reduced_positive_denominator(self):
        m = exact([["2/4", Fraction(3, -6)], ["0/7", "1"]])
        assert m.entry(0, 0) == Fraction(1, 2)
        assert m.entry(0, 0).denominator == 2
        assert m.entry(0, 1) == Fraction(-1, 2)
        assert m.entry(0, 1).denominator == 2
        assert m.entry(1, 0) == 0

    def test_nonfinite_floats_rejected(self):
        with pytest.raises(DomainError):
            Matrix.float64([[float("nan")]])


# finite float64 grids; the sign of zero, subnormals and the ends of the
# range are drawn often
FINITE = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.0**-1030, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
FINITE_GRIDS = st.integers(1, 6).flatmap(
    lambda n: arrays(np.float64, (n, n), elements=FINITE)
)


class TestFloatConversion:
    @given(FINITE_GRIDS)
    def test_array_and_list_inputs_agree_bit_for_bit(self, a):
        m = Matrix.float64(a)
        assert m == Matrix.float64(a.tolist())
        assert m.as_array().tobytes() == a.tobytes()

    def test_the_matrix_keeps_its_own_read_only_copy(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = Matrix.float64(a)
        assert a.flags.writeable
        a[0, 0] = 9.0
        assert m.entry(0, 0) == 1.0
        assert not m.as_array().flags.writeable
        with pytest.raises(ValueError):
            m.as_array()[0, 0] = 9.0

    def test_python_views_keep_the_sign_of_zero(self):
        m = fl(np.array([[-0.0, 0.0], [1.5, -0.0]]))
        for view in (m.rows(), m.to_json_dict()["entries"]):
            assert all(type(x) is float for r in view for x in r)
            signs = [[math.copysign(1.0, x) for x in r] for r in view]
            assert signs == [[-1.0, 1.0], [1.0, -1.0]]
        assert m.dumps() == '{"entries":[[-0.0,0.0],[1.5,-0.0]],"exact":false,"n":2}'


class TestDet:
    def test_identity(self):
        assert det(Matrix.identity(3, exact=True)) == 1
        assert det(Matrix.identity(3)) == pytest.approx(1.0)

    def test_two_by_two_by_hand(self):
        # 2*2 - (-1)(-1) = 3
        assert det(exact([[2, -1], [-1, 2]])) == 3
        assert det(fl([[2, -1], [-1, 2]])) == pytest.approx(3.0, rel=1e-10)

    def test_three_by_three_with_halves(self):
        # cofactor expansion gives 1/2
        m = exact([[1, 0, "-1/2"], [0, 1, "-1/2"], ["-1/2", "-1/2", 1]])
        assert det(m) == Fraction(1, 2)

    def test_singular_returns_zero(self):
        assert det(exact([[1, 1], [1, 1]])) == 0
        assert det(fl([[1, 1], [1, 1]])) == pytest.approx(0.0, abs=1e-12)

    def test_exact_float_agreement_on_random_integer_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            grid = rng.integers(-5, 6, size=(n, n))
            d_exact = det(exact(grid.tolist()))
            d_float = det(fl(grid.tolist()))
            if d_exact == 0:
                assert abs(d_float) <= 1e-9
            else:
                assert abs(d_float - float(d_exact)) <= 1e-9 * abs(float(d_exact))


class TestLeadingPrincipalMinors:
    def test_identity(self):
        assert leading_principal_minors(Matrix.identity(3, exact=True)) == [1, 1, 1]

    def test_by_hand(self):
        assert leading_principal_minors(exact([[2, -1], [-1, 2]])) == [2, 3]

    def test_last_minor_equals_det_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            nums = rng.integers(-4, 5, size=(n, n))
            dens = rng.integers(1, 5, size=(n, n))
            rows = [
                [Fraction(int(nums[i, j]), int(dens[i, j])) for j in range(n)]
                for i in range(n)
            ]
            m = exact(rows)
            minors = leading_principal_minors(m)
            assert minors[-1] == det(m)

    def test_zero_pivot_stall_falls_back(self):
        m = exact([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        minors = leading_principal_minors(m)
        assert minors == [0, -1, det(m)]

    def test_matches_per_submatrix_determinants(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            grid = rng.integers(-3, 4, size=(n, n))
            # zero out a leading block sometimes to force stalls
            if rng.random() < 0.5:
                grid[0, 0] = 0
            m = exact(grid.tolist())
            minors = leading_principal_minors(m)
            for k in range(1, n + 1):
                assert minors[k - 1] == det(exact(grid[:k, :k].tolist()))

    def test_float_minors(self):
        minors = leading_principal_minors(fl([[2, -1], [-1, 2]]))
        assert minors == pytest.approx([2.0, 3.0], rel=1e-10)


def eager_eliminate(row_i: list[int], row_k: list[int], k: int, pivot: int,
                    prev: int):
    """One Bareiss step on the columns after k, in place:
    row_i[j] <- (pivot * row_i[j] - row_i[k] * row_k[j]) / prev.

    The division is exact (Bareiss 1968). When row_i[k] is zero only the
    nonzero entries need rescaling, which keeps sparse rows cheap.
    """
    f = row_i[k]
    if f:
        for j in range(k + 1, len(row_i)):
            row_i[j] = (row_i[j] * pivot - f * row_k[j]) // prev
    else:
        for j in range(k + 1, len(row_i)):
            if row_i[j]:
                row_i[j] = row_i[j] * pivot // prev


def eager_bareiss(aug: list[list[int]], k: int) -> list[int]:
    """The reference for ``_bareiss``: the same pass, which rescales every
    row that is zero in the pivot column at every step."""
    pivots = []
    prev = 1
    for c in range(k):
        row = aug[c]
        pivots.append(row[c])
        if row[c] == 0:
            donor = next((aug[r] for r in range(c + 1, k) if aug[r][c]), None)
            if donor is None:
                return pivots
            for j in range(c, len(row)):
                row[j] += donor[j]
        pivot = row[c]
        # columns up to c are not read again, so they are left as they are;
        # rows above the pivot only carry d A^-1 B, so without B they stay
        for i in range(0 if len(row) > k else c + 1, len(aug)):
            if i != c:
                eager_eliminate(aug[i], row, c, pivot, prev)
        prev = pivot
    return pivots


def with_identity(rows) -> list[list[int]]:
    """[M | I], the rows that the inverse pass eliminates."""
    n = len(rows)
    return [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]


@st.composite
def bareiss_inputs(draw):
    """(rows, k): [M | I] with k = n, M with k = n, or M with 1 <= k < n, for
    M with entries -3..3 at a drawn density."""
    n = draw(st.integers(1, 9))
    density = draw(st.integers(0, 10))
    m = [
        [draw(st.integers(-3, 3)) if draw(st.integers(1, 10)) <= density else 0
         for _ in range(n)]
        for _ in range(n)
    ]
    forms = ["inverse", "minors", "schur"] if n > 1 else ["inverse", "minors"]
    form = draw(st.sampled_from(forms))
    if form == "inverse":
        return with_identity(m), n
    if form == "minors":
        return m, n
    return m, draw(st.integers(1, n - 1))


def c7_combination(j: int) -> list[list[int]]:
    """[M | I] for the corpus C7 gadget combination at its MIS witness."""
    g = corpus.cycle(7)
    witness = witness_from_independent_set(g, max_independent_set(g).witness)
    combination = convex_combination(build_instance(g, j).gadgets, witness)
    return with_identity(combination._num)


# rows 2 to 4 are zero in columns 0 and 1, so they are skipped at steps 0
# and 1; pivot 2 is zero, and row 4 mends it, so the pivot of step 3 (the
# order-4 leading minor after the mend) shows which multiple of it was added
STALE_DONOR = (
    with_identity([[2, 1, 0, 0, 0], [1, 3, 0, 0, 0], [0, 0, 0, 1, 0],
                   [0, 0, 0, 1, 1], [0, 0, 1, 1, 2]]),
    5,
)


class TestBareissSkipsRescales:
    @settings(max_examples=400, deadline=None)
    @given(bareiss_inputs())
    @example(STALE_DONOR)
    @example((c7_combination(2), 8))  # alpha(C7) = 3, so det > 0 at j = 2
    @example((c7_combination(3), 8))  # and det = 0 at j = 3
    def test_matches_the_eager_pass(self, case):
        rows, k = case
        lazy, eager = [list(r) for r in rows], [list(r) for r in rows]
        pivots = _bareiss(lazy, k)
        assert pivots == eager_bareiss(eager, k)
        if pivots[-1]:
            assert [r[k:] for r in lazy] == [r[k:] for r in eager]

    def test_a_stale_donor_mends_the_zero_pivot(self):
        rows, k = STALE_DONOR
        assert _bareiss([list(r) for r in rows], k) == [2, 5, 0, 5, 5]


def per_minor_dets(stack: np.ndarray) -> np.ndarray:
    """The reference: one np.linalg.det call per leading order."""
    n = stack.shape[-1]
    dets = [np.linalg.det(stack[:, :k, :k]) for k in range(1, n + 1)]
    return np.stack(dets, axis=1)


def hadamard_scales(stack: np.ndarray) -> np.ndarray:
    """Hadamard's bound on each leading minor: the product of its row norms."""
    n = stack.shape[-1]
    norms = [np.linalg.norm(stack[:, :k, :k], axis=2) for k in range(1, n + 1)]
    return np.stack([row_norms.prod(axis=1) for row_norms in norms], axis=1)


# multiples of 1/8 cancel exactly (zero pivots) or to within rounding (pivot
# growth) far more often than arbitrary floats do
ENTRIES = st.one_of(
    st.integers(-24, 24).map(lambda v: v / 8),
    st.floats(-8, 8).filter(lambda x: x == 0 or abs(x) > 1e-3),
)
FLOAT_STACKS = st.tuples(st.integers(1, 4), st.integers(1, 7)).flatmap(
    lambda cn: arrays(np.float64, (cn[0], cn[1], cn[1]), elements=ENTRIES)
)

# the third pivot cancels to rounding noise, and the pivots after it grow
GROWING_PIVOTS = np.array(
    [
        [
            [-3.0, -1.0, 0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0, 1.0, 0.0],
            [-2.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
        ]
    ]
)


@st.composite
def gadget_combinations(draw):
    """Float combinations of a random gadget family, as the search forms them."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    inst = build_instance(Graph.from_edges(n, edges), draw(st.integers(1, n)))
    family = np.stack([g.as_array() for g in inst.gadgets])
    weights = draw(arrays(np.float64, (3, n), elements=st.integers(0, 9).map(float)))
    weights[:, 0] += 1.0
    return np.tensordot(weights / weights.sum(axis=1, keepdims=True), family, axes=1)


class TestLeadingMinorsBatch:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(FLOAT_STACKS, gadget_combinations()))
    @example(np.array([[[0.0, 1.0], [1.0, 0.0]]]))  # singular leading block
    @example(np.array([[[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]]))
    @example(GROWING_PIVOTS)
    @example(np.array([[[1.0, 2.0], [-3.0, 5.0]]]))  # not a Z-matrix
    def test_matches_per_minor_det(self, stack):
        got = leading_minors_batch(stack)
        err = np.abs(got - per_minor_dets(stack))
        assert (err <= 1e-12 * hadamard_scales(stack)).all()

    def test_zero_pivot_midway(self):
        # the second pivot is exactly zero, so the third order needs det
        stack = np.array([[[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]])
        assert leading_minors_batch(stack).tolist() == [[1.0, 0.0, -1.0]]

    def test_singular_leading_block(self):
        stack = np.array([[[0.0, 1.0], [1.0, 0.0]], [[2.0, -1.0], [-1.0, 2.0]]])
        minors = leading_minors_batch(stack)
        assert minors.ravel() == pytest.approx([0.0, -1.0, 2.0, 3.0])


# finite floats of any size; a sum past the float64 range is left out
SUMMANDS = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


class TestMatrixSums:
    @given(st.integers(1, 6).flatmap(lambda n: arrays(np.float64, (2, n, n),
                                                      elements=SUMMANDS)))
    @example(np.array([[[-0.0, 1.5]] * 2, [[0.0, -2.0]] * 2]))
    def test_float_sums_are_numpy_bit_for_bit(self, pair):
        # up to the sign of a zero: the sum is one tensordot, which writes
        # every zero as +0.0, and x + 0.0 does the same to numpy's result
        a, b = fl(pair[0]), fl(pair[1])
        for got, want in ((a + b, np.add(*pair)), (a - b, np.subtract(*pair))):
            assert got.backing is Backing.FLOAT64
            assert got.as_array().tobytes() == (want + 0.0).tobytes()

    def test_exact_and_float_give_float64(self):
        a = exact([[Fraction(1, 3), -1], [0, 2]])
        b = fl([[0.5, 0.25], [-1.0, 3.0]])
        expected = a.as_array() + b.as_array()
        for got in (a + b, b + a):
            assert got.backing is Backing.FLOAT64
            assert np.array_equal(got.as_array(), expected)
        assert (a - b).backing is (b - a).backing is Backing.FLOAT64
        assert np.array_equal((a - b).as_array(), a.as_array() - b.as_array())

    @pytest.mark.parametrize("b", [exact([[1]]), fl([[1.0]])], ids=["exact", "float"])
    def test_sizes_must_match(self, b):
        a = exact([[1, 0], [0, 1]])
        for op in (lambda: a + b, lambda: a - b, lambda: b - a):
            with pytest.raises(DimensionMismatch):
                op()

    def test_only_matrices_are_added(self):
        a = exact([[1]])
        for op in (lambda: a + 1, lambda: 1 + a, lambda: a - Fraction(1)):
            with pytest.raises(TypeError):
                op()


class TestSchurComplement:
    def test_two_by_two(self):
        comp = schur_complement(exact([[2, -1], [-1, 2]]), 1)
        assert comp.rows() == ((Fraction(3, 2),),)

    def test_block_diagonal(self):
        m = exact([[2, 1, 0], [1, 2, 0], [0, 0, 7]])
        comp = schur_complement(m, 2)
        assert comp.rows() == ((Fraction(7),),)

    def test_singular_block_raises(self):
        with pytest.raises(SingularBlock):
            schur_complement(exact([[0, 1], [1, 0]]), 1)
        with pytest.raises(SingularBlock):
            schur_complement(fl([[0, 1], [1, 0]]), 1)

    @pytest.mark.parametrize("c", [1e-170, 1e170])
    def test_float_block_far_from_unit_scale(self, c):
        # det of the leading block under- or overflows; the complement does not
        grid = c * np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        comp = schur_complement(fl(grid.tolist()), 2)
        assert comp.entry(0, 0) == pytest.approx(c * 4 / 3, rel=1e-12)

    def test_split_index_validated(self):
        with pytest.raises(DomainError):
            schur_complement(exact([[1]]), 1)

    def test_determinant_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            grid = rng.normal(size=(n, n))
            m = fl(grid.tolist())
            k = int(rng.integers(1, n))
            block_det = float(np.linalg.det(grid[:k, :k]))
            if abs(block_det) < 1e-6:
                continue
            comp = schur_complement(m, k)
            lhs = det(m)
            rhs = block_det * det(comp)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_determinant_identity_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            grid = rng.integers(-4, 5, size=(n, n))
            m = exact(grid.tolist())
            k = int(rng.integers(1, n))
            block = exact(grid[:k, :k].tolist())
            if det(block) == 0:
                continue
            assert det(m) == det(block) * det(schur_complement(m, k))


class TestEigenvalues:
    def test_by_hand_two_by_two(self):
        eigs = eigenvalues(fl([[2, -1], [-1, 2]]))
        assert eigs[0] == pytest.approx(1.0, abs=1e-9)
        assert eigs[1] == pytest.approx(3.0, abs=1e-9)

    def test_identity(self):
        assert eigenvalues(Matrix.identity(4)) == pytest.approx([1, 1, 1, 1])

    def test_swap_matrix(self):
        eigs = eigenvalues(fl([[0, 1], [1, 0]]))
        assert eigs[0] == pytest.approx(-1.0, abs=1e-9)
        assert eigs[1] == pytest.approx(1.0, abs=1e-9)

    def test_exact_backing_rejected(self):
        with pytest.raises(DomainError):
            eigenvalues(Matrix.identity(2, exact=True))

    def test_against_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(10)
        for _ in range(80):
            n = int(rng.integers(1, 5))
            grid = rng.integers(-5, 6, size=(n, n))
            m = exact(grid.tolist())
            coeffs = [float(c) for c in char_poly_coeffs(m)]
            expected = sorted(
                (complex(z) for z in np.roots(coeffs)),
                key=lambda z: (z.real, z.imag),
            )
            got = eigenvalues(m.to_float())
            for a, b in zip(expected, got):
                assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


class TestSpectralRadius:
    def test_symmetric_three_by_three(self):
        m = fl([[0, 0, 0.5], [0, 0, 0.5], [0.5, 0.5, 0]])
        rho = spectral_radius(m)
        assert rho == pytest.approx(np.sqrt(0.5), abs=1e-10)
        # independent check: power iteration on the square of the matrix
        a = m.as_array()
        sq = a @ a
        v = np.ones(3)
        for _ in range(200):
            v = sq @ v
            v /= np.linalg.norm(v)
        assert float(v @ sq @ v) == pytest.approx(rho**2, abs=1e-10)

    def test_zero_matrix(self):
        assert spectral_radius(fl([[0, 0], [0, 0]])) == 0.0

    def test_swap_matrix(self):
        assert spectral_radius(fl([[0, 1], [1, 0]])) == pytest.approx(1.0)

    def test_gershgorin_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            grid = rng.normal(size=(n, n))
            rho = spectral_radius(fl(grid.tolist()))
            assert rho <= float(np.abs(grid).sum(axis=1).max()) + 1e-9


class TestCollatzWielandt:
    def test_symmetric_vector(self):
        m = fl([[0, 1], [1, 0]])
        assert collatz_wielandt_ratio(m, (1, 1)) == pytest.approx(1.0)

    def test_skewed_vector(self):
        m = fl([[0, 1], [1, 0]])
        assert collatz_wielandt_ratio(m, (2, 1)) == pytest.approx(2.0)

    def test_zero_matrix(self):
        assert collatz_wielandt_ratio(fl([[0, 0], [0, 0]]), (0.3, 0.7)) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            collatz_wielandt_ratio(fl([[0, -1], [1, 0]]), (1, 1))
        with pytest.raises(DomainError):
            collatz_wielandt_ratio(fl([[0, 1], [1, 0]]), (1, 0))
        # an upper bound on rho(N) needs a finite positive vector
        for x in ((float("nan"), 1), (float("inf"), 1)):
            with pytest.raises(DomainError):
                collatz_wielandt_ratio(fl([[1, 2], [0.5, 1]]), x)
        with pytest.raises(DimensionMismatch):
            collatz_wielandt_ratio(fl([[0, 1], [1, 0]]), (1, 1, 1))

    def test_exact_sign_read_from_numerators(self):
        # the float view of -1/10^400 is -0.0
        with pytest.raises(DomainError):
            collatz_wielandt_ratio(exact([[1, Fraction(-1, 10**400)], [0, 1]]), (1, 1))

    def test_upper_bounds_spectral_radius(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            grid = rng.random((n, n)) * rng.integers(0, 2, size=(n, n))
            m = fl(grid.tolist())
            rho = spectral_radius(m)
            for _ in range(10):
                x = rng.random(n) + 1e-3
                assert collatz_wielandt_ratio(m, x) >= rho - 1e-9


class TestZMatrix:
    def test_identity(self):
        assert is_z_matrix(Matrix.identity(2, exact=True))

    def test_positive_off_diagonal(self):
        assert not is_z_matrix(fl([[1, 0.5], [0, 1]]))

    def test_float_slack(self):
        assert is_z_matrix(fl([[1, 1e-13], [0, 1]]))
        assert not is_z_matrix(fl([[1, 1e-11], [0, 1]]))
        # the slack is Z_SLACK * max |M_ij|, so scaling changes no answer
        for c in (1e-13, 1.0, 1e3, 1e13):
            assert is_z_matrix(fl(c * np.array([[2, 1e-14], [-1, 2]]))), c
            assert not is_z_matrix(fl(c * np.array([[2, 1], [1, 2]]))), c

    def test_exact_strict(self):
        assert not is_z_matrix(exact([[1, "1/1000000000000000"], [0, 1]]))
        assert is_z_matrix(exact([[5, 0, -1], [0, 5, -2], [-3, 0, 5]]))


class TestJson:
    def test_rational_round_trip_bit_exact(self):
        m = exact([["1/3", "-2/7"], ["0", "5"]])
        text = m.dumps()
        again = Matrix.loads(text)
        assert again == m
        assert again.dumps() == text

    def test_float_round_trip(self):
        m = fl([[0.1, -2.5], [1e-17, 3.0]])
        again = Matrix.loads(m.dumps())
        assert again == m

    def test_matrix_list_round_trip(self):
        mats = [exact([[1, -1], [0, 2]]), exact([["1/2", 0], [0, "1/2"]])]
        text = matrices_to_json(mats)
        assert matrices_from_json(text) == mats
        assert matrices_to_json(matrices_from_json(text)) == text

    def test_schema_errors(self):
        with pytest.raises(DomainError):
            Matrix.loads('{"n": 2, "entries": [[1, 2]]}')
        with pytest.raises(DomainError):
            Matrix.loads('{"entries": [[1]]}')
        with pytest.raises(DomainError):
            Matrix.loads('{"n": 1, "entries": [[0.5]], "exact": true}')
        with pytest.raises(DomainError):
            Matrix.loads('{"n": 1, "entries": [[1]], "exact": "no"}')
        with pytest.raises(DomainError, match="beyond the float64 range"):
            Matrix.loads('{"n": 1, "entries": [[1%s]], "exact": false}' % ("0" * 400))
        with pytest.raises(DomainError):
            matrices_from_json("[" * 100_000 + "]" * 100_000)

    def test_decimal_exponent_past_the_int_digit_limit(self, monkeypatch):
        limit = sys.get_int_max_str_digits()
        assert Matrix.exact([[f"1e-{limit}"]]).entry(0, 0) == Fraction(1, 10**limit)
        with pytest.raises(DomainError, match="exponent"):
            Matrix.exact([[f"1e{limit + 1}"]])
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert Matrix.exact([[f"1e{limit + 1}"]]).entry(0, 0) == 10 ** (limit + 1)

    def test_exact_flag_parses_strings_and_ints(self):
        m = Matrix.loads('{"n": 1, "entries": [["-3/4"]], "exact": true}')
        assert m.entry(0, 0) == Fraction(-3, 4)
        assert m.backing is Backing.EXACT_RATIONAL
