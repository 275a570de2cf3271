"""Dense square-matrix primitives with dual numeric backing.

A :class:`Matrix` carries either float64 entries (numpy-backed) or exact
rationals, stored as integer numerators over one positive common
denominator in lowest terms; entries are handed out as
:class:`fractions.Fraction`. Determinants, leading principal minors and
Schur complements run in both backings; eigenvalue-based quantities are
float only. Every exact determinant, leading minor, inverse and Schur
complement comes from one fraction-free (Bareiss) Gauss-Jordan kernel,
``_bareiss``, run on the numerators themselves, so sign decisions at the
determinant boundary are unambiguous; float decisions near a boundary are
reported as MARGINAL instead. The kernel skips a row whose entry in the
pivot column is zero, since that step would only rescale it, and scales it
once when it is next read: the skipped factors telescope, so the result is
the eager one bit for bit. After an early return on a singular block,
callers read only the pivots. Library code reads exact matrices through
``_num`` and ``_den`` only; :meth:`Matrix.rows` and :meth:`Matrix.entry`
are Fraction views for callers.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use from multiple threads.
"""

from __future__ import annotations

import enum
import json
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np

from . import config
from .errors import DimensionMismatch, DomainError, NoConvergence, SingularBlock

# Slack for off-diagonal sign checks in float backing, relative to the
# largest |entry| (independent of the global tolerance: Z-structure is a
# structural property, not a margin).
Z_SLACK = 1e-12
# Largest bound on a row of |L||U|, relative to that row's largest input
# entry, for which the batched unpivoted minors are kept: their error
# relative to Hadamard's bound is then at most about n^2 * eps * 64.
MAX_LU_GROWTH = 64.0


class Backing(enum.Enum):
    FLOAT64 = "float64"
    EXACT_RATIONAL = "exact_rational"


def _fraction(text: str) -> Fraction:
    """The rational that 'p/q' or decimal text denotes. As int() refuses
    more digits than sys.get_int_max_str_digits(), unless it is 0, a decimal
    exponent past it is refused: expanding 1e10000000 alone takes seconds."""
    _, e, exponent = text.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    try:
        if not (e and limit and abs(int(exponent)) > limit):
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational entry {text!r}") from exc
    raise DomainError(f"decimal exponent of {text!r} is beyond {limit}")


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise DomainError("boolean is not a valid rational entry")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return _fraction(value)
    raise DomainError(
        f"cannot build an exact rational from {type(value).__name__}; "
        "computed floats are never promoted to rationals"
    )


class Matrix:
    """Immutable dense square matrix in one of two numeric backings.

    An exact matrix stores a grid of integer numerators ``_num`` over one
    positive common denominator ``_den``, so entry (i, j) is
    ``_num[i][j] / _den``. The grid is kept in lowest terms (the gcd of
    ``_den`` and every numerator is 1), so equal matrices have equal storage.
    A float matrix stores a read-only float64 array.
    """

    __slots__ = ("n", "backing", "_num", "_den", "_array")

    def __init__(self, rows, backing: Backing):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0:
            raise DomainError("matrices must have dimension at least 1")
        if any(len(r) != n for r in rows):
            raise DomainError("entry grid must be square")
        self.n = n
        self.backing = backing
        if backing is Backing.EXACT_RATIONAL:
            fracs = [[_as_fraction(x) for x in r] for r in rows]
            # over the lcm of reduced denominators the grid is in lowest terms
            den = math.lcm(*(x.denominator for r in fracs for x in r))
            self._num = tuple(
                tuple(x.numerator * (den // x.denominator) for x in r) for r in fracs
            )
            self._den = den
            self._array = None
        else:
            try:
                arr = np.array(rows, dtype=np.float64)
            except OverflowError as exc:
                raise DomainError("float entry beyond the float64 range") from exc
            if not np.all(np.isfinite(arr)):
                raise DomainError("float matrix entries must be finite")
            arr.flags.writeable = False
            self._num = self._den = None
            self._array = arr

    @classmethod
    def _from_numerators(cls, num, den: int, reduced: bool = False) -> "Matrix":
        """Exact matrix with entries num[i][j] / den, from a trusted square
        integer grid and a nonzero integer den, brought to lowest terms.

        ``reduced=True`` skips that step: the caller guarantees den > 0 and
        gcd(den, all numerators) = 1.
        """
        if not reduced:
            if den < 0:
                num = [[-x for x in r] for r in num]
                den = -den
            g = math.gcd(den, *chain.from_iterable(num))
            if g != 1:
                num = [[x // g for x in r] for r in num]
                den //= g
        m = object.__new__(cls)
        m.n = len(num)
        m.backing = Backing.EXACT_RATIONAL
        m._num = tuple(tuple(r) for r in num)
        m._den = den
        m._array = None
        return m

    @classmethod
    def exact(cls, rows) -> "Matrix":
        """Build an exact-rational matrix from ints, Fractions or 'p/q' strings."""
        return cls(rows, Backing.EXACT_RATIONAL)

    @classmethod
    def float64(cls, rows) -> "Matrix":
        """Build a float64 matrix from any real-number grid."""
        return cls(rows, Backing.FLOAT64)

    @classmethod
    def identity(cls, n: int, exact: bool = False) -> "Matrix":
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        if exact and n >= 1:
            return cls._from_numerators(rows, 1, reduced=True)
        return cls.float64(rows)  # rejects n < 1 in either backing

    @property
    def is_exact(self) -> bool:
        return self.backing is Backing.EXACT_RATIONAL

    def rows(self):
        """Entries as a tuple of row tuples (Fraction or float)."""
        if self.is_exact:
            den = self._den
            return tuple(tuple(Fraction(x, den) for x in r) for r in self._num)
        return tuple(tuple(float(x) for x in row) for row in self._array)

    def entry(self, i: int, j: int):
        if self.is_exact:
            return Fraction(self._num[i][j], self._den)
        return float(self._array[i, j])

    def as_array(self) -> np.ndarray:
        """Float64 ndarray of the entries (read-only for float backing).

        Exact entries are correctly rounded, as ``float(Fraction)`` rounds them;
        an exact entry beyond the float64 range raises DomainError.
        """
        if not self.is_exact:
            return self._array
        num, den = self._num, self._den
        limit = 1 << 53
        if den < limit and all(-limit < x < limit for r in num for x in r):
            # both operands are exact doubles, and IEEE division rounds correctly
            return np.array(num, dtype=np.float64) / den
        try:
            return np.array([[x / den for x in r] for r in num], dtype=np.float64)
        except OverflowError as exc:
            raise DomainError("exact entry beyond the float64 range") from exc

    def to_float(self) -> "Matrix":
        """Float64 copy; the identity for matrices already in float backing."""
        if not self.is_exact:
            return self
        return Matrix.float64(self.as_array())

    def transpose(self) -> "Matrix":
        if self.is_exact:
            return Matrix._from_numerators(
                list(zip(*self._num)), self._den, reduced=True
            )
        return Matrix.float64(self._array.T)

    def __neg__(self) -> "Matrix":
        if self.is_exact:
            return Matrix._from_numerators(
                [[-x for x in r] for r in self._num], self._den, reduced=True
            )
        return Matrix.float64(-self._array)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._pointwise(other, operator.add, np.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._pointwise(other, operator.sub, np.subtract)

    def _pointwise(self, other, int_op, np_op) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch(
                f"dimension mismatch: {self.n} vs {other.n}"
            )
        if self.is_exact and other.is_exact:
            den = math.lcm(self._den, other._den)
            a, b = den // self._den, den // other._den
            return Matrix._from_numerators(
                [
                    [int_op(a * x, b * y) for x, y in zip(ra, rb)]
                    for ra, rb in zip(self._num, other._num)
                ],
                den,
            )
        return Matrix.float64(np_op(self.as_array(), other.as_array()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n or self.backing is not other.backing:
            return False
        if self.is_exact:
            return self._den == other._den and self._num == other._num
        return bool(np.array_equal(self._array, other._array))

    def __repr__(self) -> str:
        return f"Matrix({self.n}x{self.n}, {self.backing.value})"

    # -- JSON wire format -------------------------------------------------
    #
    # {"n": <int>, "entries": [[...], ...], "exact": <bool>}
    # Exact entries are strings like "p/q" (or "p"); float entries are JSON
    # numbers. Rational round-trips are bit-exact.

    def to_json_dict(self) -> dict:
        if self.is_exact:
            entries = [[str(Fraction(x, self._den)) for x in r] for r in self._num]
        else:
            entries = [[float(x) for x in row] for row in self._array]
        return {"n": self.n, "entries": entries, "exact": self.is_exact}

    @classmethod
    def from_json_dict(cls, obj, exact: bool = False) -> "Matrix":
        """The matrix of one wire-format object; `exact` reads its entries
        as exact whatever its "exact" key says."""
        if not isinstance(obj, dict):
            raise DomainError("matrix JSON must be an object")
        try:
            n = obj["n"]
            entries = obj["entries"]
        except KeyError as exc:
            raise DomainError(f"matrix JSON missing field {exc}") from exc
        marked = obj.get("exact", False)
        if not isinstance(marked, bool):
            raise DomainError('matrix field "exact" must be true or false')
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DomainError("matrix dimension must be a positive integer")
        if (
            not isinstance(entries, list)
            or len(entries) != n
            or any(not isinstance(r, list) or len(r) != n for r in entries)
        ):
            raise DomainError("matrix entries must form an n-by-n grid")
        if exact or marked:
            return cls.exact(entries)
        if any(isinstance(x, bool) or not isinstance(x, (int, float))
               for row in entries for x in row):
            raise DomainError("float matrix entries must be numbers")
        return cls.float64(entries)

    def dumps(self) -> str:
        return _canonical_json(self.to_json_dict())

    @classmethod
    def loads(cls, text: str) -> "Matrix":
        return _read_matrices(text, single=True)[0]


def _canonical_json(obj) -> str:
    """The one JSON form of every output: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read_matrices(text: str, single: bool = False, exact: bool = False):
    """The matrices of JSON `text`: one object when `single`, else a
    non-empty array of them. `exact` reads every entry as the rational its
    text denotes, so 2.0 is 2 and 0.1 is 1/10, with no float copy made."""
    try:
        payload = json.loads(text, parse_float=_fraction if exact else None)
    except (ValueError, RecursionError) as exc:  # DomainError included
        raise DomainError(f"invalid JSON: {exc}") from exc
    objs = [payload] if single else payload
    if not isinstance(objs, list) or not objs:
        raise DomainError("expected a non-empty JSON array of matrices")
    return [Matrix.from_json_dict(obj, exact) for obj in objs]


def matrices_to_json(matrices: Sequence[Matrix]) -> str:
    """Serialize a list of matrices deterministically (stable byte output)."""
    return _canonical_json([m.to_json_dict() for m in matrices]) + "\n"


def matrices_from_json(text: str) -> list[Matrix]:
    return _read_matrices(text)


# -- verdicts ---------------------------------------------------------------


class Status(enum.Enum):
    YES = "YES"
    NO = "NO"
    MARGINAL = "MARGINAL"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one boundary decision.

    ``margin`` is the signed distance to the decision boundary in the
    condition's own scale. MARGINAL only ever arises from float-backed
    decisions whose margin lies inside the tolerance band; exact-rational
    decisions are always YES or NO.
    """

    status: Status
    margin: float

    def to_json_dict(self) -> dict:
        return {"status": self.status.value, "margin": _encode_scalar(self.margin)}


def _encode_scalar(x: float):
    if math.isfinite(x):
        return float(x)
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def banded_verdict(margin) -> Verdict:
    """Three-way float decision: MARGINAL within the tolerance band."""
    tol = config.tolerance()
    margin = float(margin)
    if margin > tol:
        return Verdict(Status.YES, margin)
    if margin < -tol:
        return Verdict(Status.NO, margin)
    return Verdict(Status.MARGINAL, margin)


# -- exact elimination kernels ----------------------------------------------


def _bareiss(aug: list[list[int]], k: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows of ``aug``.

    A is the leading k-by-k block; every row below it is eliminated too.
    Works in place and returns the pivots. A zero pivot is mended by adding
    the first later row of A that is nonzero in its column, which keeps
    det(A) and A^-1 B: the state of a row that has not been a pivot is
    linear in its original row. The pivot recorded is the one before the
    mend, so up to the first zero pivot c is the order-(c+1) leading minor
    of A, and the last pivot is det(A). When no row mends a zero pivot, A
    is singular and the pass stops there, its last pivot 0, and the rows
    are left part way: callers then read only the pivots. Otherwise, for
    d = det(A), the columns after A hold d A^-1 B in the rows of A and
    d (D - C A^-1 B) in the rows [C | D] below it (Sylvester's identity).

    A Bareiss step (1968) maps row i to (pivot * row_i - row_i[c] * row_c)
    / prev, with an exact division. A row that is zero in the pivot column
    is only scaled by pivot / prev, and over consecutive such steps these
    factors telescope. So the step skips the row, and the row is scaled
    once when it is next read: as a row to eliminate, as the pivot row, as
    a donor, or at the end of the pass. Each entry x becomes
    x * pivot_t / pivot_s, for s the step the row was last current at and t
    the last step done; the division is exact because the eager result is
    an integer, although pivot_t / pivot_s need not be. Every integer the
    callers read then equals the one of an eager pass, and a gadget
    combination, an identity block with one dense row and column, costs
    O(n^2) integer operations instead of O(n^3).
    """
    pivots = []
    scale = [1]  # scale[s + 1] is the pivot of step s, and scale[0] is 1
    level = [-1] * len(aug)  # the step each row was last current at

    def current(i: int, c: int, t: int) -> list[int]:
        """Row i brought up to step t, on its columns from c on."""
        row, s = aug[i], level[i]
        if s < t:
            up, down = scale[t + 1], scale[s + 1]
            for j in range(c, len(row)):
                if row[j]:
                    row[j] = row[j] * up // down
            level[i] = t
        return row

    for c in range(k):
        # column c of a stale row is tested for zero as it is: a stale entry
        # is the current one times a nonzero factor
        row = current(c, c, c - 1)
        pivots.append(row[c])
        if row[c] == 0:
            r = next((r for r in range(c + 1, k) if aug[r][c]), None)
            if r is None:
                return pivots
            donor = current(r, c, c - 1)
            for j in range(c, len(row)):
                row[j] += donor[j]
        pivot, prev = row[c], scale[-1]
        level[c] = c  # the pivot row is current at its own step as it is
        # columns up to c are not read again, so they are left as they are;
        # rows above the pivot only carry d A^-1 B, so without B they stay
        for i in range(0 if len(row) > k else c + 1, len(aug)):
            if i != c and aug[i][c]:
                row_i = aug[i] if level[i] == c - 1 else current(i, c, c - 1)
                f = row_i[c]
                for j in range(c + 1, len(row_i)):
                    row_i[j] = (row_i[j] * pivot - f * row[j]) // prev
                level[i] = c
        scale.append(pivot)
    for i in range(len(aug)):
        current(i, k, k - 1)
    return pivots


def _block_det(num, den: int, k: int) -> Fraction:
    """det of the leading k-by-k block of num / den."""
    return Fraction(_bareiss([list(r[:k]) for r in num[:k]], k)[-1], den**k)


def _minors(m: Matrix, pivots: list[int]) -> list[Fraction]:
    """Leading principal minors of exact m from the pivots of its elimination.

    The pivots are the minors' numerators up to the first zero; each later
    minor is the determinant of its own block.
    """
    minors = []
    for c, p in enumerate(pivots):
        minors.append(Fraction(p, m._den ** (c + 1)))
        if p == 0:
            break
    return minors + [
        _block_det(m._num, m._den, k) for k in range(len(minors) + 1, m.n + 1)
    ]


def _inverse_pass(m: Matrix) -> tuple[list[int], Fraction | None]:
    """Pivots and smallest inverse entry (None when singular) of exact m,
    from one elimination of [num | I].

    The pass leaves d * num^-1 for d = det(num), and the inverse of
    num / den is den * num^-1.
    """
    n = m.n
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m._num)]
    pivots = _bareiss(aug, n)
    d = pivots[-1]
    if d == 0:
        return pivots, None
    scaled = (x for r in aug for x in r[n:])
    extreme = min(scaled) if d > 0 else max(scaled)
    return pivots, Fraction(extreme * m._den, d)


# -- operations ---------------------------------------------------------------


def det(m: Matrix):
    """Determinant; exact Fraction in rational backing, float otherwise."""
    if m.is_exact:
        return _block_det(m._num, m._den, m.n)
    return float(np.linalg.det(m.as_array()))


def leading_principal_minors(m: Matrix) -> list:
    """Determinants of the top-left k-by-k submatrices, k = 1..n."""
    if m.is_exact:
        return _minors(m, _bareiss([list(r) for r in m._num], m.n))
    arr = m.as_array()
    return [float(np.linalg.det(arr[:k, :k])) for k in range(1, m.n + 1)]


def leading_minors_batch(stack: np.ndarray) -> np.ndarray:
    """Leading principal minors of every matrix in a (count, n, n) float stack.

    One unpivoted LU elimination runs over the whole stack, and minor i is
    the product of the first i pivots. Without pivoting that is accurate only
    while |L||U| stays near |A|, so a matrix in which some row of |L||U|
    may exceed MAX_LU_GROWTH times that row's largest entry (including any
    zero or non-finite pivot) has its minors recomputed with one
    ``np.linalg.det`` call per order.
    """
    stack = np.asarray(stack, dtype=np.float64)
    n = stack.shape[-1]
    # the batch on the last axis keeps every numpy loop long and contiguous
    lu = np.moveaxis(stack, 0, -1).copy()
    row_max = np.abs(lu).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n - 1):
            lu[i + 1 :, i] /= lu[i, i]
            lu[i + 1 :, i + 1 :] -= lu[i + 1 :, i, None] * lu[i, None, i + 1 :]
        minors = np.cumprod(lu[range(n), range(n)], axis=0).T
        # row r of |L||U| is at most sum_k |l_rk| max_c |u_kc|
        size = np.abs(lu)
        lower = np.tri(n, k=-1, dtype=bool)[:, :, None]
        u_max = np.where(lower, 0.0, size).max(axis=1)
        bound = u_max + (np.where(lower, size, 0.0) * u_max).sum(axis=1)
        stable = bound <= MAX_LU_GROWTH * row_max
    bad = np.flatnonzero(~stable.all(axis=0))
    if bad.size:
        minors[bad] = np.stack(
            [np.linalg.det(stack[bad, :i, :i]) for i in range(1, n + 1)], axis=1
        )
    return minors


def schur_complement(m: Matrix, k: int) -> Matrix:
    """Complement D - C A^-1 B of the leading k-by-k block A.

    Raises :class:`SingularBlock` when the leading block is not invertible.
    The complement satisfies det(m) = det(A) * det(complement).
    """
    if not 1 <= k <= m.n - 1:
        raise DomainError(f"split index must be in [1, {m.n - 1}], got {k}")
    if m.is_exact:
        aug = [list(r) for r in m._num]
        d = _bareiss(aug, k)[-1]
        if d == 0:
            raise SingularBlock("leading block is singular")
        # the rows below the block end as d times the numerators' complement
        return Matrix._from_numerators([r[k:] for r in aug[k:]], d * m._den)
    arr = m.as_array()
    try:
        x = np.linalg.solve(arr[:k, :k], arr[:k, k:])
    except np.linalg.LinAlgError as exc:
        raise SingularBlock("leading block is singular") from exc
    return Matrix.float64(arr[k:, k:] - arr[k:, :k] @ x)


def eigenvalues(m: Matrix) -> list[complex]:
    """All eigenvalues with multiplicity, sorted by (real, imag). Float only."""
    if m.is_exact:
        raise DomainError("eigenvalues require float backing; call to_float() first")
    try:
        vals = np.linalg.eigvals(m.as_array())
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration did not converge: {exc}") from exc
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def spectral_radius(m: Matrix) -> float:
    """Largest eigenvalue modulus. Float backing only."""
    return max(abs(z) for z in eigenvalues(m))


def collatz_wielandt_ratio(n_mat: Matrix, x: Sequence[float]) -> float:
    """max_i (N x)_i / x_i for entrywise nonnegative N and positive x.

    Upper-bounds the spectral radius of N for every positive x.
    """
    # exact signs come from the numerators: a tiny negative entry's float is -0.0
    if (min(map(min, n_mat._num)) if n_mat.is_exact else n_mat._array.min()) < 0:
        raise DomainError("matrix must be entrywise nonnegative")
    arr = n_mat.as_array()
    vec = np.asarray([float(v) for v in x], dtype=np.float64)
    if vec.shape != (n_mat.n,):
        raise DimensionMismatch(f"vector length {vec.size} != dimension {n_mat.n}")
    if bool((vec <= 0).any()):
        raise DomainError("vector must be entrywise positive")
    return float(np.max((arr @ vec) / vec))


def is_z_matrix(m: Matrix) -> bool:
    """True when all off-diagonal entries are nonpositive.

    Exact in rational backing. Float backing allows off-diagonal entries up
    to Z_SLACK * max |M_ij|, so the answer does not change when M is scaled
    by a positive number.
    """
    if m.is_exact:
        return all(
            x <= 0 for i, r in enumerate(m._num) for j, x in enumerate(r) if i != j
        )
    arr = m.as_array().copy()
    scale = float(np.abs(arr).max())
    np.fill_diagonal(arr, -np.inf)
    return bool(arr.max() <= Z_SLACK * scale)
