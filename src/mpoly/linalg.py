"""Dense square-matrix primitives with dual numeric backing.

A :class:`Matrix` carries either float64 entries (numpy-backed) or exact
rationals, stored as integer numerators over one positive common
denominator in lowest terms; entries are handed out as
:class:`fractions.Fraction`. Determinants, leading principal minors and
Schur complements run in both backings; eigenvalue-based quantities are
float only. The exact path runs fraction-free (Bareiss) elimination on the
numerators themselves, so sign decisions at the determinant boundary are
unambiguous; float decisions near a boundary are reported as MARGINAL
instead.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use from multiple threads.
"""

from __future__ import annotations

import enum
import json
import math
import operator
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, bool):
        raise DomainError("boolean is not a valid rational entry")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational entry {value!r}") from exc
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
            arr = np.array(rows, dtype=np.float64)
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
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return cls.exact(rows) if exact else cls.float64(rows)

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

        Exact entries are correctly rounded, as ``float(Fraction)`` rounds them.
        """
        if not self.is_exact:
            return self._array
        num, den = self._num, self._den
        limit = 1 << 53
        if den < limit and all(-limit < x < limit for r in num for x in r):
            # both operands are exact doubles, and IEEE division rounds correctly
            return np.array(num, dtype=np.float64) / den
        return np.array([[x / den for x in r] for r in num], dtype=np.float64)

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
            entries = [[str(x) for x in row] for row in self.rows()]
        else:
            entries = [[float(x) for x in row] for row in self._array]
        return {"n": self.n, "entries": entries, "exact": self.is_exact}

    @classmethod
    def from_json_dict(cls, obj) -> "Matrix":
        if not isinstance(obj, dict):
            raise DomainError("matrix JSON must be an object")
        try:
            n = obj["n"]
            entries = obj["entries"]
        except KeyError as exc:
            raise DomainError(f"matrix JSON missing field {exc}") from exc
        exact = bool(obj.get("exact", False))
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DomainError("matrix dimension must be a positive integer")
        if (
            not isinstance(entries, list)
            or len(entries) != n
            or any(not isinstance(r, list) or len(r) != n for r in entries)
        ):
            raise DomainError("matrix entries must form an n-by-n grid")
        if exact:
            return cls.exact(entries)
        for row in entries:
            for x in row:
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise DomainError("float matrix entries must be numbers")
        return cls.float64(entries)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def loads(cls, text: str) -> "Matrix":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(obj)


def matrices_to_json(matrices: Sequence[Matrix]) -> str:
    """Serialize a list of matrices deterministically (stable byte output)."""
    payload = [m.to_json_dict() for m in matrices]
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def matrices_from_json(text: str) -> list[Matrix]:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, list) or not payload:
        raise DomainError("expected a non-empty JSON array of matrices")
    return [Matrix.from_json_dict(obj) for obj in payload]


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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Verdict":
        return cls(Status(obj["status"]), float(obj["margin"]))


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


def _eliminate(row_i: list[int], row_k: list[int], k: int, pivot: int, prev: int):
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


def _det_exact(num, den: int) -> Fraction:
    """det(num / den) by fraction-free Bareiss elimination on the integer
    numerators, with first-nonzero row pivoting."""
    n = len(num)
    m = [list(r) for r in num]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            _eliminate(m[i], m[k], k, pivot, prev)
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], den**n)


def _leading_minors_exact(num, den: int) -> list[Fraction]:
    """All leading principal minors of num / den, one Bareiss pass when no
    pivot stalls.

    Without row swaps the pivot produced after eliminating column k equals
    the order-(k+1) leading minor of the numerator grid, so minor k+1 is
    pivot / den^(k+1). A zero pivot stalls the pass; remaining minors fall
    back to per-submatrix Bareiss.
    """
    n = len(num)
    m = [list(r) for r in num]
    minors: list[Fraction] = []
    scale = 1
    prev = 1
    stalled = False
    for k in range(n):
        scale *= den
        if stalled:
            minors.append(_det_exact([r[: k + 1] for r in num[: k + 1]], den))
            continue
        pivot = m[k][k]
        minors.append(Fraction(pivot, scale))
        if k == n - 1:
            break
        if pivot == 0:
            stalled = True
            continue
        for i in range(k + 1, n):
            _eliminate(m[i], m[k], k, pivot, prev)
        prev = pivot
    return minors


def _bareiss_gauss_jordan(aug: list[list[int]], k: int) -> int:
    """Fraction-free Gauss-Jordan elimination of the integer rows [A | B].

    A is the leading k-by-k block. Works in place and returns d = +-det(A)
    (the sign follows the row swaps); the columns after A then hold
    d * A^-1 B. Returns 0, leaving ``aug`` partly eliminated, when A is
    singular. Each pivot is a leading minor of the row-swapped A.
    """
    prev = 1
    for c in range(k):
        if aug[c][c] == 0:
            pivot_row = next((r for r in range(c + 1, k) if aug[r][c] != 0), None)
            if pivot_row is None:
                return 0
            aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        pivot = aug[c][c]
        # columns up to c are not read again, so they are left as they are
        for i in range(k):
            if i != c:
                _eliminate(aug[i], aug[c], c, pivot, prev)
        prev = pivot
    return prev


def _smallest_inverse_entry(m: Matrix) -> Fraction | None:
    """Smallest entry of the inverse of an exact matrix; None when singular.

    One fraction-free pass over [num | I] gives d * num^-1 for d = +-det(num),
    and the inverse of num / den is den * num^-1.
    """
    n = m.n
    aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m._num)]
    d = _bareiss_gauss_jordan(aug, n)
    if d == 0:
        return None
    scaled = (x for r in aug for x in r[n:])
    extreme = min(scaled) if d > 0 else max(scaled)
    return Fraction(extreme * m._den, d)


# -- operations ---------------------------------------------------------------


def det(m: Matrix):
    """Determinant; exact Fraction in rational backing, float otherwise."""
    if m.is_exact:
        return _det_exact(m._num, m._den)
    return float(np.linalg.det(m.as_array()))


def leading_principal_minors(m: Matrix) -> list:
    """Determinants of the top-left k-by-k submatrices, k = 1..n."""
    if m.is_exact:
        return _leading_minors_exact(m._num, m._den)
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
        num = m._num
        # [A | B] -> [d I | d A^-1 B], then S = (d D - C d A^-1 B) / (d den)
        top = [list(r) for r in num[:k]]
        d = _bareiss_gauss_jordan(top, k)
        if d == 0:
            raise SingularBlock("leading block is singular")
        comp = [
            [
                d * num[i][j] - sum(num[i][t] * top[t][j] for t in range(k))
                for j in range(k, m.n)
            ]
            for i in range(k, m.n)
        ]
        return Matrix._from_numerators(comp, d * m._den)
    arr = m.as_array()
    a = arr[:k, :k]
    if float(np.linalg.det(a)) == 0.0:
        raise SingularBlock("leading block is singular")
    try:
        x = np.linalg.solve(a, arr[:k, k:])
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
    arr = n_mat.as_array()
    if bool((arr < 0).any()):
        raise DomainError("matrix must be entrywise nonnegative")
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
