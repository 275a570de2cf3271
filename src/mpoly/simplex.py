"""Probability-simplex points and simplex geometry helpers."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError

FLOAT_SUM_SLACK = 1e-12
RATIONALIZE_SCALE = 10**6


class SimplexPoint:
    """Nonnegative weight vector summing to one.

    Carries either exact rational weights (sum exactly 1) or float weights
    (sum within 1e-12 of 1). Immutable.
    """

    __slots__ = ("_weights", "_exact")

    def __init__(self, weights: Sequence):
        weights = tuple(weights)
        if not weights:
            raise DomainError("a simplex point needs at least one weight")
        exact = all(
            isinstance(w, (int, Fraction)) and not isinstance(w, bool)
            for w in weights
        )
        if exact:
            ws = tuple(Fraction(w) for w in weights)
            if any(w < 0 for w in ws):
                raise DomainError("simplex weights must be nonnegative")
            if sum(ws) != 1:
                raise DomainError("exact simplex weights must sum to exactly 1")
        else:
            ws = tuple(float(w) for w in weights)
            if any(not np.isfinite(w) for w in ws):
                raise DomainError("simplex weights must be finite")
            if any(w < 0 for w in ws):
                raise DomainError("simplex weights must be nonnegative")
            if abs(sum(ws) - 1.0) > FLOAT_SUM_SLACK:
                raise DomainError("float simplex weights must sum to 1 within 1e-12")
        self._weights = ws
        self._exact = exact

    @classmethod
    def uniform(cls, k: int, exact: bool = True) -> "SimplexPoint":
        if k < 1:
            raise DomainError("need at least one coordinate")
        if exact:
            return cls(tuple(Fraction(1, k) for _ in range(k)))
        return cls(tuple(1.0 / k for _ in range(k)))

    @classmethod
    def vertex(cls, k: int, index: int) -> "SimplexPoint":
        if not 0 <= index < k:
            raise DomainError("vertex index out of range")
        return cls(tuple(Fraction(int(i == index)) for i in range(k)))

    @classmethod
    def from_floats(cls, weights: Sequence[float]) -> "SimplexPoint":
        """Clamp tiny negatives and renormalize, then validate."""
        arr = np.maximum(np.asarray(weights, dtype=np.float64), 0.0)
        total = float(arr.sum())
        if total <= 0.0:
            raise DomainError("weights must have positive sum")
        return cls(tuple(float(w) for w in arr / total))

    @property
    def is_exact(self) -> bool:
        return self._exact

    @property
    def weights(self) -> tuple:
        return self._weights

    def to_floats(self) -> np.ndarray:
        return np.array([float(w) for w in self._weights], dtype=np.float64)

    def to_json_list(self) -> list:
        if self._exact:
            return [str(w) for w in self._weights]
        return [float(w) for w in self._weights]

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self):
        return iter(self._weights)

    def __getitem__(self, i):
        return self._weights[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplexPoint):
            return NotImplemented
        return self._exact == other._exact and self._weights == other._weights

    def __repr__(self) -> str:
        kind = "exact" if self._exact else "float"
        return f"SimplexPoint({kind}, {self._weights!r})"


def rationalize(weights: Sequence[float]) -> SimplexPoint:
    """Snap float weights to nearby rationals: each is rounded to a multiple
    of 1 / RATIONALIZE_SCALE, then all are divided by their sum."""
    ints = [max(0, round(float(w) * RATIONALIZE_SCALE)) for w in weights]
    total = sum(ints)
    if total == 0:
        ints[int(np.argmax(np.asarray(weights)))] = 1
        total = 1
    return SimplexPoint(tuple(Fraction(p, total) for p in ints))


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex."""
    return project_rows_to_simplex(np.asarray(v, dtype=np.float64)[None, :])[0]


def project_rows_to_simplex(v: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=np.float64)
    rows, k = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    cssv = np.cumsum(u, axis=1) - 1.0
    ks = np.arange(1, k + 1, dtype=np.float64)
    cond = u - cssv / ks > 0
    rho = np.count_nonzero(cond, axis=1)
    rho = np.maximum(rho, 1)
    theta = cssv[np.arange(rows), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


def sample_simplex_rows(rng: np.random.Generator, count: int, k: int) -> np.ndarray:
    """Uniform (Dirichlet(1)) samples from the simplex, one per row."""
    g = rng.exponential(scale=1.0, size=(count, k))
    return g / g.sum(axis=1, keepdims=True)
