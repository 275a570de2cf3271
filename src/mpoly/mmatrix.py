"""Nonsingular M-matrix certification via five equivalent characterizations.

The five conditions cross-validate each other on Z-matrices:

* E17: all leading principal minors positive (exact when the input is
  rational; otherwise the smallest pivot of M / max |M_ij| is
  float-banded),
* D16: all (near-)real eigenvalues positive,
* N38: the inverse is entrywise nonnegative,
* POS_STABLE: every eigenvalue has positive real part,
* RHO_SPLIT: with s = max diagonal entry and N = s I - M (nonnegative by
  Z-structure), the spectral radius of N stays below s. Since
  eig(s I - M) = s - eig(M), the margin is s - max_i |s - lambda_i(M)|.

:func:`certify` makes one float copy of M, one Z test and one eigenvalue
computation per call: D16, POS_STABLE and RHO_SPLIT are reductions of that
one spectrum. Eigenvalue-based conditions always run on the float copy and
may report MARGINAL near a boundary; E17 and N38 decide exactly on rational
inputs. Float verdicts are banded relative to the size of the matrix: D16,
POS_STABLE and RHO_SPLIT divide their margins by max |M_ij| and float N38
divides by max |M^-1_ij| before comparing with the tolerance, so scaling M
by a positive number does not move a verdict; D16 also takes an
eigenvalue as near-real relative to max |M_ij|. The margins reported for
these four are the unscaled ones.
Non-Z inputs still get raw verdicts, but the report's ``is_z`` flag marks
that the equivalences do not apply there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import config
from .errors import DomainError, NoConvergence
from .linalg import (
    Matrix,
    Status,
    Verdict,
    banded_verdict,
    _encode_scalar,
    _smallest_inverse_entry,
    eigenvalues,
    is_z_matrix,
    leading_principal_minors,
)

CONDITIONS = ("E17", "D16", "N38", "POS_STABLE", "RHO_SPLIT")

CONSENSUS_YES = "YES"
CONSENSUS_NO = "NO"
CONSENSUS_MARGINAL = "MARGINAL"
CONSENSUS_DISAGREE = "DISAGREE"

_NOT_Z = "rho-split test requires a Z-matrix"


def _max_abs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max())


def _over_scale(value: float, scale: float) -> float:
    """value / scale, or value itself when scale is not positive."""
    return value / scale if scale > 0.0 else value


def _scaled_verdict(margin: float, scale: float) -> Verdict:
    """Float verdict banded on margin / scale; the margin kept is unscaled."""
    status = banded_verdict(_over_scale(margin, scale)).status
    return Verdict(status, float(margin))


def _spectrum(m: Matrix) -> tuple[np.ndarray, float, np.ndarray]:
    """(entries, max |M_ij|, eigenvalues) of the float copy of m."""
    f = m.to_float()
    arr = f.as_array()
    return arr, _max_abs(arr), np.array(eigenvalues(f))


def _d16(scale: float, eigs: np.ndarray) -> Verdict:
    real_parts = eigs.real[np.abs(eigs.imag) < config.tolerance() * (scale or 1.0)]
    if not real_parts.size:
        return Verdict(Status.YES, math.inf)
    return _scaled_verdict(real_parts.min(), scale)


def _positive_stable(scale: float, eigs: np.ndarray) -> Verdict:
    return _scaled_verdict(eigs.real.min(), scale)


def _rho_split(arr: np.ndarray, scale: float, eigs: np.ndarray) -> Verdict:
    s = float(arr.diagonal().max())
    margin = s - float(np.abs(s - eigs).max())  # s - rho(s I - M)
    if s <= 0.0:
        return Verdict(Status.NO, margin)
    return _scaled_verdict(margin, scale)


def check_e17(m: Matrix) -> Verdict:
    """All leading principal minors positive.

    The exact margin is the smallest minor. The float margin is the smallest
    pivot (the ratio of successive leading minors, up to the first one that
    is not positive) of M / max |M_ij|. That matrix does not change under
    M -> c M for c > 0, so the float verdict does not depend on the scale of
    M, and its minors neither under- nor overflow when M is tiny or huge.
    """
    if m.is_exact:
        smallest = min(leading_principal_minors(m))
        return Verdict(Status.YES if smallest > 0 else Status.NO, float(smallest))
    arr = m.as_array()
    unit = arr / (_max_abs(arr) or 1.0)
    pivots = []
    prev = 1.0
    for k in range(1, m.n + 1):
        minor = float(np.linalg.det(unit[:k, :k]))
        pivots.append(minor / prev)
        if not minor > 0.0:
            break
        prev = minor
    return banded_verdict(min(pivots))


def check_d16(m: Matrix) -> Verdict:
    """Every eigenvalue that is (near-)real must be positive.

    Decided on the float copy: an eigenvalue is near-real when its
    imaginary part over max |M_ij| is below the tolerance, and the verdict
    is banded on the smallest near-real eigenvalue over max |M_ij|. A
    matrix without near-real eigenvalues passes vacuously with an infinite
    margin; that cannot happen for a Z-matrix, whose minimal eigenvalue is
    real.
    """
    _, scale, eigs = _spectrum(m)
    return _d16(scale, eigs)


def check_n38(m: Matrix) -> Verdict:
    """The inverse must be entrywise nonnegative; margin is its smallest entry.

    Singular input is a NO with margin -0.0; in float, singular means that
    ``np.linalg.inv`` finds a zero pivot. In float the YES band extends
    down to -tolerance, taken relative to max |M^-1_ij|, because
    well-conditioned inverses routinely contain exact zeros (the identity
    is the canonical YES).
    """
    if m.is_exact:
        smallest = _smallest_inverse_entry(m)
        if smallest is None:
            return Verdict(Status.NO, -0.0)
        return Verdict(Status.YES if smallest >= 0 else Status.NO, float(smallest))
    try:
        inverse = np.linalg.inv(m.as_array())
    except np.linalg.LinAlgError:
        return Verdict(Status.NO, -0.0)
    smallest = float(inverse.min())
    relative = _over_scale(smallest, _max_abs(inverse))
    status = Status.YES if relative >= -config.tolerance() else Status.NO
    return Verdict(status, smallest)


def check_positive_stable(m: Matrix) -> Verdict:
    """Every eigenvalue must have positive real part (float copy).

    Banded on the smallest real part over max |M_ij|.
    """
    _, scale, eigs = _spectrum(m)
    return _positive_stable(scale, eigs)


def check_rho_split(m: Matrix) -> Verdict:
    """Regular-splitting test: rho(s I - M) < s for s = max diagonal entry.

    Requires Z-structure so that N = s I - M is entrywise nonnegative. The
    smallest valid s gives the tightest margin s - rho(N), banded over
    max |M_ij|; rho(N) is max_i |s - lambda_i(M)|. Nonpositive s is an
    outright NO (a Z-matrix with no positive diagonal entry has nonpositive
    trace and cannot be positive stable).
    """
    if not is_z_matrix(m):
        raise DomainError(_NOT_Z)
    return _rho_split(*_spectrum(m))


def _consensus(verdicts) -> str:
    statuses = [v.status for v in verdicts]
    decided = {s for s in statuses if s is not Status.MARGINAL}
    if len(decided) > 1:
        return CONSENSUS_DISAGREE
    if any(s is Status.MARGINAL for s in statuses) or not decided:
        return CONSENSUS_MARGINAL
    return CONSENSUS_YES if decided == {Status.YES} else CONSENSUS_NO


@dataclass(frozen=True)
class CertificationReport:
    """Per-condition verdicts plus consensus over the applicable ones.

    ``consensus`` follows the verdicts that ran: YES/NO when they all agree,
    MARGINAL when tolerance bands prevent a call, DISAGREE otherwise. When
    ``is_z`` is false the M-matrix characterizations do not apply and the
    consensus is only a raw summary; conditions that cannot run on the input
    (RHO_SPLIT on non-Z matrices) land in ``errors``.

    ``margins`` holds each verdict's own margin, and these are not on one
    scale. Exact E17 and N38 report the smallest leading minor and the
    smallest inverse entry. Float E17 reports the smallest pivot over
    max |M_ij|, a scale-free number. D16, POS_STABLE and RHO_SPLIT (always
    computed in float) and float N38 report unscaled margins (an
    eigenvalue, a real part, s - rho, an inverse entry), although their
    verdicts are banded on the margin over max |M_ij| (over max |M^-1_ij|
    for N38). So compare a margin only with the same condition's margin,
    not ``min(margins)`` across conditions.
    """

    input_dim: int
    is_z: bool
    verdicts: dict[str, Verdict]
    consensus: str
    margins: dict[str, float]
    errors: dict[str, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "is_z": self.is_z,
            "consensus": self.consensus,
            "verdicts": {k: v.to_json_dict() for k, v in self.verdicts.items()},
            "margins": {k: _encode_scalar(v) for k, v in self.margins.items()},
            "errors": dict(self.errors),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CertificationReport":
        return cls(
            input_dim=int(obj["input_dim"]),
            is_z=bool(obj["is_z"]),
            verdicts={
                k: Verdict.from_json_dict(v) for k, v in obj["verdicts"].items()
            },
            consensus=str(obj["consensus"]),
            margins={k: float(v) for k, v in obj["margins"].items()},
            errors=dict(obj.get("errors", {})),
        )


def certify(m: Matrix) -> CertificationReport:
    """Run the Z check plus all five conditions and report consensus.

    The float copy, the Z test and the eigenvalues are computed once and
    shared. Per-condition failures (RHO_SPLIT on a non-Z input, an
    eigenvalue iteration that does not converge) are collected into the
    report instead of raising.
    """
    is_z = is_z_matrix(m)
    found = {"E17": check_e17(m), "N38": check_n38(m)}
    errors: dict[str, str] = {}
    try:
        arr, scale, eigs = _spectrum(m)
    except NoConvergence as exc:
        errors = dict.fromkeys(("D16", "POS_STABLE", "RHO_SPLIT"), str(exc))
    else:
        found["D16"] = _d16(scale, eigs)
        found["POS_STABLE"] = _positive_stable(scale, eigs)
        if is_z:
            found["RHO_SPLIT"] = _rho_split(arr, scale, eigs)
    if not is_z:
        errors["RHO_SPLIT"] = _NOT_Z
    verdicts = {name: found[name] for name in CONDITIONS if name in found}
    return CertificationReport(
        input_dim=m.n,
        is_z=is_z,
        verdicts=verdicts,
        consensus=_consensus(verdicts.values()),
        margins={name: v.margin for name, v in verdicts.items()},
        errors=errors,
    )
