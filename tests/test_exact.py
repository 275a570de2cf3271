"""The exact representation: integer numerators over one common denominator.

Every property here is checked against a plain Fraction-per-entry reference.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mpoly import (
    DomainError,
    Matrix,
    SingularBlock,
    SimplexPoint,
    Status,
    certify,
    check_e17,
    check_n38,
    convex_combination,
    det,
    is_z_matrix,
    leading_principal_minors,
    schur_complement,
)

# small denominators make exact zeros and singular blocks common
SMALL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
# wide numerators and denominators reach past 2**53, where float64 rounds
WIDE = st.one_of(
    st.integers(-(2**80), 2**80).map(Fraction),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
    st.fractions(max_denominator=10**6),
)


def grids(entries, max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


@st.composite
def z_grids(draw, max_n=5):
    """Rational Z-matrices: nonpositive off-diagonal, diagonal around their row sums."""
    n = draw(st.integers(1, max_n))
    off = st.builds(Fraction, st.integers(-12, 0), st.integers(1, 4))
    rows = [[draw(off) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.builds(Fraction, st.integers(0, 24), st.integers(1, 4)))
    return rows


def ref_det(rows) -> Fraction:
    """Gaussian elimination in Fractions with first-nonzero row pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


def ref_solve(a_rows, b_rows):
    """A^-1 B by Gauss-Jordan elimination in Fractions; None when A is singular."""
    n = len(a_rows)
    aug = [list(ra) + list(rb) for ra, rb in zip(a_rows, b_rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if p is None:
            return None
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def scaled(rows, c):
    return [[c * x for x in r] for r in rows]


def permuted(rows, perm):
    return [[rows[p][q] for q in perm] for p in perm]


def transposed(rows):
    return [list(col) for col in zip(*rows)]


class TestRepresentation:
    @given(grids(WIDE))
    def test_json_round_trip(self, rows):
        m = Matrix.exact(rows)
        again = Matrix.loads(m.dumps())
        assert again == m
        assert again.dumps() == m.dumps()
        assert again.rows() == m.rows()

    @given(grids(WIDE))
    def test_entries_and_float_view_match_fractions(self, rows):
        m = Matrix.exact(rows)
        assert m.rows() == tuple(tuple(r) for r in rows)
        arr = m.as_array()
        flt = m.to_float()
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                assert m.entry(i, j) == x
                # bit-identical to float(Fraction), which rounds correctly
                assert arr[i, j] == float(x)
                assert flt.entry(i, j) == float(x)

    def test_entry_beyond_float64_is_a_domain_error(self):
        # the correctly rounded float view has no finite value for 10^400
        m = Matrix.exact([["1e400", "-1"], ["-1", "2"]])
        for view in (m.as_array, m.to_float, lambda: certify(m)):
            with pytest.raises(DomainError, match="beyond the float64 range"):
                view()

    @given(grids(SMALL), st.integers(2, 9))
    @example([[Fraction(1, 2)]], 2)  # "2/4" against 1/2
    def test_unreduced_inputs_compare_equal(self, rows, k):
        # p/q written as the string "(k p)/(k q)"
        text = [[f"{x.numerator * k}/{x.denominator * k}" for x in r] for r in rows]
        assert Matrix.exact(text) == Matrix.exact(rows)
        assert Matrix.exact(text).dumps() == Matrix.exact(rows).dumps()

    @given(grids(SMALL), grids(SMALL))
    def test_arithmetic_matches_fractions(self, rows, other):
        n = min(len(rows), len(other))
        a = [r[:n] for r in rows[:n]]
        b = [r[:n] for r in other[:n]]
        ma, mb = Matrix.exact(a), Matrix.exact(b)
        assert (-ma).rows() == tuple(tuple(-x for x in r) for r in a)
        assert ma.transpose().rows() == tuple(map(tuple, zip(*a)))
        assert (ma + mb).rows() == tuple(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )
        assert (ma - mb).rows() == tuple(
            tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
        )
        # a sum that cancels to integers is stored in lowest terms again
        assert ma - ma == Matrix.exact([[0] * n] * n)


@st.composite
def families(draw):
    """k exact matrices of one size and exact simplex weights, some zero."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    mats = [
        draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=n, max_size=n))
        for _ in range(k)
    ]
    raw = draw(st.lists(st.integers(0, 7), min_size=k, max_size=k))
    raw[draw(st.integers(0, k - 1))] += 1
    weights = [Fraction(x, sum(raw)) for x in raw]
    return mats, weights


class TestConvexCombination:
    @given(families())
    def test_matches_naive_fraction_sum(self, family):
        mats, weights = family
        n = len(mats[0])
        combo = convex_combination(
            [Matrix.exact(m) for m in mats], SimplexPoint(weights)
        )
        naive = [
            [sum(w * m[r][c] for w, m in zip(weights, mats)) for c in range(n)]
            for r in range(n)
        ]
        assert combo.is_exact
        assert combo.rows() == tuple(map(tuple, naive))
        assert combo == Matrix.exact(naive)


# a zero first pivot: the kernel mends it by adding a later row
SWAP = [[Fraction(x) for x in r] for r in ((0, 1), (1, 0))]
STALL = [[Fraction(x) for x in r] for r in ((0, 1, 2), (1, 0, 3), (2, 3, 0))]


class TestExactKernels:
    @given(grids(SMALL, max_n=6))
    @example(SWAP)  # det -1
    @example(STALL)  # leading minors 0, -1, 12
    def test_det_and_minors_match_reference(self, rows):
        m = Matrix.exact(rows)
        assert det(m) == ref_det(rows)
        n = len(rows)
        assert leading_principal_minors(m) == [
            ref_det([r[:k] for r in rows[:k]]) for k in range(1, n + 1)
        ]

    @given(grids(SMALL, max_n=6))
    @example(STALL)
    def test_n38_matches_reference_inverse(self, rows):
        n = len(rows)
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        inverse = ref_solve(rows, eye)
        verdict = check_n38(Matrix.exact(rows))
        if inverse is None:
            assert verdict.status is Status.NO
            assert verdict.margin == 0.0
            return
        smallest = min(x for r in inverse for x in r)
        assert verdict.margin == float(smallest)
        assert verdict.status is (Status.YES if smallest >= 0 else Status.NO)

    @given(grids(SMALL, max_n=6))
    @example(STALL)  # singular at k = 1, mended at k = 2
    def test_schur_complement_matches_reference(self, rows):
        n = len(rows)
        for k in range(1, n):
            x = ref_solve([r[:k] for r in rows[:k]], [r[k:] for r in rows[:k]])
            if x is None:
                with pytest.raises(SingularBlock):
                    schur_complement(Matrix.exact(rows), k)
                continue
            expected = [
                [
                    rows[i][j] - sum(rows[i][t] * x[t][j - k] for t in range(k))
                    for j in range(k, n)
                ]
                for i in range(k, n)
            ]
            assert schur_complement(Matrix.exact(rows), k) == Matrix.exact(expected)

    @given(grids(SMALL))
    def test_z_test_reads_signs(self, rows):
        n = len(rows)
        expected = all(rows[i][j] <= 0 for i in range(n) for j in range(n) if i != j)
        assert is_z_matrix(Matrix.exact(rows)) is expected


POSITIVE = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))


def exact_statuses(rows):
    report = certify(Matrix.exact(rows))
    return report.is_z, report.verdicts["E17"].status, report.verdicts["N38"].status


class TestCertifyInvariance:
    """The exactly decided verdicts (E17, N38) under symmetries of the M-matrix class."""

    @given(st.one_of(z_grids(), grids(SMALL)), POSITIVE)
    def test_positive_rational_scaling(self, rows, c):
        assert exact_statuses(scaled(rows, c)) == exact_statuses(rows)

    @given(st.one_of(z_grids(), grids(SMALL)))
    def test_transposition(self, rows):
        assert exact_statuses(transposed(rows)) == exact_statuses(rows)

    @given(z_grids(), st.data())
    def test_symmetric_permutation_of_z_matrices(self, rows, data):
        perm = data.draw(st.permutations(range(len(rows))))
        assert exact_statuses(permuted(rows, perm)) == exact_statuses(rows)

    @given(grids(SMALL), st.data())
    def test_n38_under_any_symmetric_permutation(self, rows, data):
        # (P A P^T)^-1 = P A^-1 P^T holds the same entries; E17 reads only
        # leading minors and needs Z-structure for this
        perm = data.draw(st.permutations(range(len(rows))))
        before = check_n38(Matrix.exact(rows))
        after = check_n38(Matrix.exact(permuted(rows, perm)))
        assert after == before

    def test_e17_scaling_keeps_the_exact_margin(self):
        # exact E17 reports the smallest minor itself, which scales as c^k
        v = check_e17(Matrix.exact(scaled([[2, -1], [-1, 2]], Fraction(1, 2))))
        assert v.status is Status.YES
        assert v.margin == 0.75
