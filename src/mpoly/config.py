"""Tolerance knob for float-backed boundary decisions.

Every float comparison against a decision boundary (minor > 0, eigenvalue
real part > 0, spectral radius < 1, ...) uses one absolute tolerance. Exact
rational decisions never consult it.

The value lives in a :class:`contextvars.ContextVar`, so a setting made in
one thread (or one asyncio task) is not seen by another; a new thread
starts at ``DEFAULT_TOLERANCE``.
"""

from __future__ import annotations

import math
from contextvars import ContextVar

DEFAULT_TOLERANCE = 1e-9

_current: ContextVar[float] = ContextVar(
    "mpoly_tolerance", default=DEFAULT_TOLERANCE
)


def tolerance() -> float:
    """Return the absolute tolerance for float boundary comparisons."""
    return _current.get()


def set_tolerance(value: float) -> None:
    """Set the tolerance for the current context; must be positive and
    finite (an infinite tolerance would make every float verdict MARGINAL)."""
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError("tolerance must be positive and finite")
    _current.set(value)


def reset_tolerance() -> None:
    """Restore the default tolerance in the current context."""
    _current.set(DEFAULT_TOLERANCE)
