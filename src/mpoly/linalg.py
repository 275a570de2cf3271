"""Dense square-matrix primitives with dual numeric backing.

A :class:`Matrix` carries either float64 entries (numpy-backed) or exact
rationals (:class:`fractions.Fraction`). Determinants, leading principal
minors and Schur complements run in both backings; eigenvalue-based
quantities are float only. The exact path uses fraction-free (Bareiss)
elimination over scaled integers, so sign decisions at the determinant
boundary are unambiguous; float decisions near a boundary are reported as
MARGINAL instead.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to use from multiple threads.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import config
from .errors import DimensionMismatch, DomainError, NoConvergence, SingularBlock

# Fixed slack for off-diagonal sign checks in float backing (independent of
# the global tolerance: Z-structure is a structural property, not a margin).
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
    """Immutable dense square matrix in one of two numeric backings."""

    __slots__ = ("n", "backing", "_rows", "_array")

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
            self._rows = tuple(tuple(_as_fraction(x) for x in r) for r in rows)
            self._array = None
        else:
            arr = np.array(rows, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise DomainError("float matrix entries must be finite")
            arr.flags.writeable = False
            self._rows = None
            self._array = arr

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
            return self._rows
        return tuple(tuple(float(x) for x in row) for row in self._array)

    def entry(self, i: int, j: int):
        if self.is_exact:
            return self._rows[i][j]
        return float(self._array[i, j])

    def as_array(self) -> np.ndarray:
        """Float64 ndarray view of the entries (read-only for float backing)."""
        if self.is_exact:
            return np.array(
                [[float(x) for x in row] for row in self._rows], dtype=np.float64
            )
        return self._array

    def to_float(self) -> "Matrix":
        """Float64 copy; the identity for matrices already in float backing."""
        if not self.is_exact:
            return self
        return Matrix.float64([[float(x) for x in row] for row in self._rows])

    def transpose(self) -> "Matrix":
        if self.is_exact:
            return Matrix.exact(list(zip(*self._rows)))
        return Matrix.float64(self._array.T)

    def __neg__(self) -> "Matrix":
        if self.is_exact:
            return Matrix.exact([[-x for x in row] for row in self._rows])
        return Matrix.float64(-self._array)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._pointwise(other, lambda a, b: a + b, np.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._pointwise(other, lambda a, b: a - b, np.subtract)

    def _pointwise(self, other, frac_op, np_op) -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch(
                f"dimension mismatch: {self.n} vs {other.n}"
            )
        if self.is_exact and other.is_exact:
            return Matrix.exact(
                [
                    [frac_op(a, b) for a, b in zip(ra, rb)]
                    for ra, rb in zip(self._rows, other._rows)
                ]
            )
        return Matrix.float64(np_op(self.as_array(), other.as_array()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n or self.backing is not other.backing:
            return False
        if self.is_exact:
            return self._rows == other._rows
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
            entries = [[str(x) for x in row] for row in self._rows]
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
        return cls(Status(obj["status"]), _decode_scalar(obj["margin"]))


def _encode_scalar(x: float):
    if math.isfinite(x):
        return float(x)
    if math.isnan(x):
        return "nan"
    return "inf" if x > 0 else "-inf"


def _decode_scalar(x) -> float:
    return float(x)


def banded_verdict(margin, exact: bool) -> Verdict:
    """Three-way sign decision: exact by sign, float within the tolerance band."""
    if exact:
        return Verdict(Status.YES if margin > 0 else Status.NO, float(margin))
    tol = config.tolerance()
    margin = float(margin)
    if margin > tol:
        return Verdict(Status.YES, margin)
    if margin < -tol:
        return Verdict(Status.NO, margin)
    return Verdict(Status.MARGINAL, margin)


# -- exact elimination kernels ----------------------------------------------


def _scaled_integer_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; returns integer rows and row multipliers."""
    ints = []
    mults = []
    for row in rows:
        mult = math.lcm(*(x.denominator for x in row))
        mults.append(mult)
        ints.append([x.numerator * (mult // x.denominator) for x in row])
    return ints, mults


def _det_exact(rows) -> Fraction:
    """Fraction-free Bareiss elimination with first-nonzero row pivoting."""
    n = len(rows)
    m, mults = _scaled_integer_rows(rows)
    scale = math.prod(mults)
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
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], scale)


def _leading_minors_exact(rows) -> list[Fraction]:
    """All leading principal minors, one Bareiss pass when no pivot stalls.

    Without row swaps the pivot produced after eliminating column k equals
    the order-(k+1) leading minor of the scaled integer matrix. A zero pivot
    stalls the pass; remaining minors fall back to per-submatrix Bareiss.
    """
    n = len(rows)
    m, mults = _scaled_integer_rows(rows)
    minors: list[Fraction] = []
    cum = 1
    prev = 1
    stalled = False
    for k in range(n):
        cum *= mults[k]
        if stalled:
            minors.append(_det_exact([r[: k + 1] for r in rows[: k + 1]]))
            continue
        pivot = m[k][k]
        minors.append(Fraction(pivot, cum))
        if k == n - 1:
            break
        if pivot == 0:
            stalled = True
            continue
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    return minors


def _solve_exact(a_rows, b_rows) -> list[list[Fraction]]:
    """Solve A X = B over the rationals by Gauss-Jordan elimination."""
    n = len(a_rows)
    width = len(b_rows[0])
    aug = [list(ra) + list(rb) for ra, rb in zip(a_rows, b_rows)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularBlock("leading block is singular")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _inverse_exact(rows) -> list[list[Fraction]]:
    n = len(rows)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return _solve_exact(rows, eye)


# -- operations ---------------------------------------------------------------


def det(m: Matrix):
    """Determinant; exact Fraction in rational backing, float otherwise."""
    if m.is_exact:
        return _det_exact(m.rows())
    return float(np.linalg.det(m.as_array()))


def leading_principal_minors(m: Matrix) -> list:
    """Determinants of the top-left k-by-k submatrices, k = 1..n."""
    if m.is_exact:
        return _leading_minors_exact(m.rows())
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
        rows = m.rows()
        a = [list(r[:k]) for r in rows[:k]]
        b = [list(r[k:]) for r in rows[:k]]
        c = [list(r[:k]) for r in rows[k:]]
        d = [list(r[k:]) for r in rows[k:]]
        x = _solve_exact(a, b)  # raises SingularBlock when det(A) == 0
        comp = [
            [d[i][j] - sum(c[i][t] * x[t][j] for t in range(k)) for j in range(m.n - k)]
            for i in range(m.n - k)
        ]
        return Matrix.exact(comp)
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

    Exact in rational backing; float backing allows slack of +1e-12.
    """
    if m.is_exact:
        rows = m.rows()
        return all(
            rows[i][j] <= 0 for i in range(m.n) for j in range(m.n) if i != j
        )
    arr = m.as_array().copy()
    np.fill_diagonal(arr, -np.inf)
    return bool(arr.max() <= Z_SLACK)
