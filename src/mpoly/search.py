"""Feasibility search over matrix polytopes.

Four entry points:

* :func:`search_general` hunts for a convex combination that is a
  nonsingular M-matrix by multi-start projected ascent on the smallest
  leading principal minor (an exact M-matrix margin that needs no
  eigensolves), plus a coarse simplex grid for small families. All starts
  advance together, so a round costs a fixed few batched numpy calls. It
  returns FEASIBLE only with a re-certified witness. It returns INFEASIBLE
  only for an exact gadget family of some (G, j) whose vertices it can
  partition into at most j cliques, a cover that is re-checked exactly and
  proves det B(pi) <= 0 for every pi; otherwise it returns UNKNOWN, since
  absence of a found point proves nothing for this problem.
* :func:`search_symmetric` solves the symmetric case, which is concave:
  maximize the smallest eigenvalue over the simplex cut by the linear
  Z-sign constraints, using a cutting-plane scheme whose LP value is a
  certified upper bound on the optimum. It stops at the first certified
  witness, so its margins are those at exit, not at the optimum. It may
  return INFEASIBLE.
* :func:`minimize_spectral_radius` descends on the spectral radius of a
  combination of nonnegative matrices (Perron left/right eigenvector
  gradient when the radius is simple, finite differences otherwise; one
  eig plus one shifted solve per round).
* :func:`hurwitz_search` descends on the spectral abscissa and certifies
  Hurwitz witnesses by re-computing eigenvalues.

All searches are deterministic for a fixed seed. The general search and
the spectral descents move their starts in lockstep rounds that share one
line-search round and one forward-difference helper, and admit to a round
only the starts whose evaluations fit in the budget left. Of the starts
that cross the tolerance in one round, the general search re-certifies the
lowest start index first; the spectral descents keep the best value found,
ties to the lowest start.

Each decision is made in one place. :func:`_certified` is the one witness
rule of both M-matrix searches: a point is a FEASIBLE witness only when
:func:`mmatrix.certify` finds its combination a Z-matrix with consensus YES.
Every outcome but the clique-cover INFEASIBLE one is built by
:meth:`_Tracker.outcome` from the tracker that counted the evaluations.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from . import config
from .errors import DimensionMismatch, DomainError, NotSymmetric
from .linalg import Matrix, Z_SLACK, _encode_scalar, leading_minors_batch
from .mmatrix import CONSENSUS_YES, certify
from .oracle import clique_cover, is_clique_cover
from .reduction import convex_combination, instance_graph
from .simplex import (
    SimplexPoint,
    project_rows_to_simplex,
    rationalize,
    sample_simplex_rows,
)

GRID_DENOM = 8
GRID_MAX_K = 4
MAX_STARTS = 24
SPECTRAL_STARTS = 16
ITERS_PER_START = 60
MERIT_FD_STEP = 1e-6
SPECTRAL_FD_STEP = 1e-7
EIG_GAP = 1e-8
# the four line-search steps of one round, as fractions of a start's step
LINE_SEARCH_SCALES = 0.25 ** np.arange(4)


class SearchStatus(enum.Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE = "INFEASIBLE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SearchOutcome:
    """Search result with the best-so-far merit trace and evaluation count."""

    status: SearchStatus
    certificate: SimplexPoint | None
    objective_trace: tuple
    budget_spent: int
    margins: dict | None = None
    # an INFEASIBLE gadget family's partition of the vertices (0-based) into
    # at most j cliques
    clique_cover: tuple | None = None

    def to_json_dict(self) -> dict:
        """The JSON fields; ``clique_cover`` (1-based vertices, as in graph
        files) appears only when the outcome carries one."""
        cert = None if self.certificate is None else self.certificate.to_json_list()
        margins = None
        if self.margins is not None:
            margins = {k: _encode_scalar(v) for k, v in self.margins.items()}
        out = {
            "status": self.status.value,
            "certificate": cert,
            "margins": margins,
            "budget_spent": self.budget_spent,
        }
        if self.clique_cover is not None:
            out["clique_cover"] = [[v + 1 for v in part] for part in self.clique_cover]
        return out


def _validate_family(mats: Sequence[Matrix]) -> int:
    if not mats:
        raise DimensionMismatch("need at least one matrix")
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise DimensionMismatch("matrices must share one dimension")
    return n


def _grid_passes(k: int) -> list[np.ndarray]:
    """The points both searches score first, as integer weights over
    GRID_DENOM: the k vertices, then for k <= GRID_MAX_K every point of the
    1/GRID_DENOM grid, in lexicographic order."""
    passes = [GRID_DENOM * np.eye(k, dtype=np.int64)]
    if k <= GRID_MAX_K:
        # stars and bars: k - 1 bars in slots 1..GRID_DENOM + k - 1, and
        # the parts are the gaps between consecutive bars
        slots = GRID_DENOM + k - 1
        bars = np.array(list(combinations(range(1, slots + 1), k - 1)), dtype=np.int64)
        edges = np.pad(bars, ((0, 0), (1, 1)), constant_values=(0, slots + 1))
        passes.append(np.diff(edges, axis=1) - 1)
    return passes


class _Tracker:
    """One search's evaluation counter, monotone best-so-far trace and the
    point of the best merit; every outcome of a search but the clique-cover
    INFEASIBLE one is built by :meth:`outcome`."""

    __slots__ = ("spent", "best", "best_point", "trace", "budget")

    def __init__(self, budget: int):
        self.spent = 0
        self.best = -math.inf
        self.best_point = None
        self.trace: list[tuple[int, float]] = []
        self.budget = budget

    def record(self, count: int, merit: float, point=None) -> None:
        """Count `count` evaluations whose best merit is `merit`, reached at
        `point` (kept only when the merit is a new best)."""
        self.spent += count
        if merit > self.best:
            self.best = merit
            self.best_point = point
            self.trace.append((self.spent, float(merit)))

    def left(self) -> int:
        return max(self.budget - self.spent, 0)

    def outcome(self, status, certificate=None, margins=None) -> SearchOutcome:
        trace = tuple(self.trace)
        return SearchOutcome(status, certificate, trace, self.spent, margins)


def _certified(mats: Sequence[Matrix], point: SimplexPoint):
    """The certify report of the combination at `point` when it is a
    Z-matrix with consensus YES, else None: the witness rule of every
    FEASIBLE answer of the M-matrix searches."""
    report = certify(convex_combination(mats, point))
    if report.is_z and report.consensus == CONSENSUS_YES:
        return report
    return None


def _forward_differences(f, x, fx, h):
    """Forward-difference gradients of the batch function `f` at each row of
    x, whose values are fx: one call of f on the k probes x + h e_m of
    every row."""
    k = x.shape[1]
    probes = (x[:, None, :] + h * np.eye(k)).reshape(-1, k)
    return (f(probes).reshape(-1, k) - fx[:, None]) / h


def _line_search_round(x, fx, grads, step, merit):
    """One projected line-search round of ascent on `merit` for each row of x.

    Tries the steps step, step/4, step/16 and step/64 along each row's
    gradient, all in one merit batch; a step counts only after every earlier
    one moved (by 1e-14 or more) and failed. Returns the mask of rows that
    improved by more than 1e-15, and for those rows the first improving
    point, its merit and the next step (1.6 times the one taken, at most 1).
    """
    rows, k = x.shape
    steps = step[:, None] * LINE_SEARCH_SCALES
    cands = project_rows_to_simplex(
        (x[:, None, :] + steps[:, :, None] * grads[:, None, :]).reshape(-1, k)
    ).reshape(rows, -1, k)
    fc = merit(cands.reshape(-1, k)).reshape(rows, -1)
    # a step is tried only after every earlier one moved and failed
    tried = np.cumprod(np.abs(cands - x[:, None, :]).max(axis=2) >= 1e-14, axis=1)
    better = tried.astype(bool) & (fc > fx[:, None] + 1e-15)
    took = better.any(axis=1)
    first = better.argmax(axis=1)[took]
    next_step = np.minimum(steps[took, first] * 1.6, 1.0)
    return took, cands[took, first], fc[took, first], next_step


# -- general (nonsymmetric) M-matrix search ----------------------------------


def _gadget_clique_cover(mats: Sequence[Matrix]) -> tuple | None:
    """A re-checked partition into at most j cliques when `mats` is exactly
    the gadget family of some (G, j), else None."""
    found = instance_graph(mats)
    if found is None:
        return None
    g, j = found
    cover = clique_cover(g, j)
    if cover is None or not is_clique_cover(g, cover, j):
        return None
    return cover


def search_general(
    matrices: Sequence[Matrix], budget: int = 50_000, seed: int = 0
) -> SearchOutcome:
    """Heuristic feasibility search for an M-matrix convex combination.

    An all-exact family that equals ``build_instance(G, j).gadgets`` for
    some (G, j) (see :func:`reduction.instance_graph`) is first given to
    :func:`oracle.clique_cover`. When that finds a partition of the
    vertices into at most j cliques and :func:`oracle.is_clique_cover`
    re-checks it, the answer is INFEASIBLE, with the partition in
    ``clique_cover`` and ``budget_spent = 0``. Every other family, and a
    gadget family without such a partition (or whose partition search hits
    its node cap), takes the search below, which answers FEASIBLE or
    UNKNOWN, never INFEASIBLE.

    Merit is the smallest leading principal minor of the combination. The
    vertices, then (for k <= 4) the 1/8 grid, are each evaluated as one
    batch. Then up to 24 starts (the uniform point, then Dirichlet draws
    from ``default_rng(seed)``) ascend in lockstep rounds: one batch of
    forward-difference probes and one of four projected line-search steps
    per round, of which each start takes the first that improves its merit
    and stops when none does or a step no longer moves. Every candidate
    with merit above the tolerance is independently re-certified by
    :func:`_certified` (in exact arithmetic, at its :func:`rationalize`
    snap, when the inputs are rational) before FEASIBLE is reported, in
    pass order, and lowest start index first within a round. Each batch is
    cut to the budget left, at one evaluation per point and k + 4 per start
    and round, so ``budget_spent <= budget``.
    """
    mats = list(matrices)
    _validate_family(mats)
    k = len(mats)
    exact_inputs = all(m.is_exact for m in mats)
    if exact_inputs:
        cover = _gadget_clique_cover(mats)
        if cover is not None:
            return SearchOutcome(
                SearchStatus.INFEASIBLE, None, (), 0, clique_cover=cover
            )
    stack = np.stack([m.as_array() for m in mats])
    tol = config.tolerance()
    tracker = _Tracker(budget)

    def merit(points: np.ndarray) -> np.ndarray:
        combos = np.tensordot(points, stack, axes=(1, 0))
        vals = leading_minors_batch(combos).min(axis=1)
        tracker.record(len(points), float(vals.max(initial=-math.inf)))
        return vals

    def verified(rows: np.ndarray) -> SearchOutcome | None:
        for row in rows:
            point = rationalize(row) if exact_inputs else SimplexPoint.from_floats(row)
            report = _certified(mats, point)
            if report is not None:
                margins = dict(report.margins)
                return tracker.outcome(SearchStatus.FEASIBLE, point, margins)
        return None

    for comps in _grid_passes(k):
        weights = comps[: tracker.left()] / GRID_DENOM
        res = verified(weights[merit(weights) > tol])
        if res is not None:
            return res

    # multi-start projected first-order ascent, all live starts in lockstep
    rng = np.random.default_rng(seed)
    w = np.vstack([np.full(k, 1.0 / k), sample_simplex_rows(rng, MAX_STARTS - 1, k)])
    w = w[: tracker.left()]
    fv = merit(w)
    step = np.full(len(w), 0.25)
    moved_to = np.arange(len(w))
    while True:
        res = verified(w[moved_to[fv[moved_to] > tol]])
        if res is not None:
            return res
        live = moved_to[fv[moved_to] <= tol][: tracker.left() // (k + 4)]
        if not live.size:
            return tracker.outcome(SearchStatus.UNKNOWN)
        x, fx = w[live], fv[live]
        grads = _forward_differences(merit, x, fx, MERIT_FD_STEP)
        took, w_new, f_new, step_new = _line_search_round(
            x, fx, grads, step[live], merit
        )
        moved_to = live[took]
        w[moved_to], fv[moved_to], step[moved_to] = w_new, f_new, step_new


# -- symmetric convex path ----------------------------------------------------


def _check_symmetric(mats: Sequence[Matrix]) -> None:
    """Raise NotSymmetric unless max |A - A'| <= 1e-12 max |A_ij| for each A."""
    for idx, m in enumerate(mats):
        arr = m.as_array()
        if float(np.abs(arr - arr.T).max()) > 1e-12 * float(np.abs(arr).max()):
            raise NotSymmetric(f"matrix {idx} is not symmetric")


def search_symmetric(
    matrices: Sequence[Matrix], tolerance: float = 1e-6
) -> SearchOutcome:
    """Certified search over symmetric families.

    Maximizes the smallest eigenvalue of the combination over the simplex
    intersected with the Z-sign constraints (each off-diagonal entry of the
    combination <= 0, affine in the weights). The objective is concave, so a
    cutting-plane relaxation gives certified upper bounds: FEASIBLE when a
    verified point exceeds `tolerance`, INFEASIBLE when the certified upper
    bound drops below `-tolerance`, UNKNOWN in the marginal band.

    The vertices are scored first, then one LP point per cutting-plane
    round. Each new best Z point (off-diagonal entries at most Z_SLACK
    times max |B_ij|, the slack of :func:`linalg.is_z_matrix`) with
    smallest eigenvalue above `tolerance` goes to :func:`_certified` at
    once, and the search stops at the first that passes, so FEASIBLE does
    not wait for the gap to close. The margins ``optimum_upper_bound`` (the
    last LP bound, inf before the first LP) and ``best_lambda_min`` are
    taken at exit.
    """
    mats = list(matrices)
    dim = _validate_family(mats)
    _check_symmetric(mats)
    if not tolerance > 0:
        raise DomainError("tolerance must be positive")
    k = len(mats)
    stack = np.stack([m.as_array() for m in mats])
    tracker = _Tracker(10_000)

    # lower: best smallest-eigenvalue among points inside the polytope (up to
    # LP-scale constraint slack); only these drive the optimality gap
    best_lower = -math.inf
    best_z_lam = -math.inf  # best among strictly Z-satisfying candidates
    witness = None  # (point, certification report) of the first certified best
    LP_SLACK = 1e-7

    def lam_min(w: np.ndarray):
        nonlocal best_lower, best_z_lam, witness
        b = np.tensordot(w, stack, axes=(0, 0))
        vals, vecs = np.linalg.eigh(b)
        lam = float(vals[0])
        tracker.record(1, lam)
        off = b.copy()
        np.fill_diagonal(off, -np.inf)
        violation = float(off.max())
        if violation <= LP_SLACK:
            best_lower = max(best_lower, lam)
        if violation <= Z_SLACK * float(np.abs(b).max()) and lam > best_z_lam:
            best_z_lam = lam
            if lam > tolerance:
                point = SimplexPoint.from_floats(w)
                report = _certified(mats, point)
                if report is not None:
                    witness = point, report
        return lam, vecs[:, 0]

    # vertex seeding; lam_min only counts vertices whose matrix satisfies the
    # Z constraints, since other vertices sit outside the feasible polytope
    for w in np.eye(k):
        if witness is not None:
            break
        lam_min(w)

    c = np.zeros(k + 1)
    c[-1] = -1.0  # maximize t
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    b_eq = np.array([1.0])
    bounds = [(0.0, 1.0)] * k + [(None, None)]

    # rows of A_ub . (w, t) <= 0: every off-diagonal entry of the combination,
    # then one cut t <= v' B(w) v per vector v, starting from the unit vectors
    iu, ju = np.triu_indices(dim, 1)
    a_ub = np.vstack([
        np.column_stack([stack[:, iu, ju].T, np.zeros(len(iu))]),
        np.column_stack([-np.diagonal(stack, axis1=1, axis2=2).T, np.ones(dim)]),
    ])

    upper = math.inf
    for _ in range(100):
        if witness is not None:
            break
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=np.zeros(len(a_ub)),
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )
        if res.status == 2:
            # simplex and Z constraints are jointly infeasible: no combination
            # is even a Z-matrix, so none is an M-matrix
            return tracker.outcome(
                SearchStatus.INFEASIBLE, margins={"optimum_upper_bound": -math.inf}
            )
        if res.status != 0:
            break
        upper = float(res.x[-1])
        w = np.maximum(res.x[:k], 0.0)
        w = w / w.sum()
        _, vec = lam_min(w)
        a_ub = np.vstack([a_ub, np.append(-(stack @ vec @ vec), 1.0)])
        if upper < -tolerance:
            break
        if upper - best_lower <= tolerance:
            break

    margins = {"optimum_upper_bound": upper, "best_lambda_min": best_z_lam}
    if witness is not None:
        point, report = witness
        margins.update(report.margins)
        return tracker.outcome(SearchStatus.FEASIBLE, point, margins)
    status = SearchStatus.INFEASIBLE if upper < -tolerance else SearchStatus.UNKNOWN
    return tracker.outcome(status, margins=margins)


# -- spectral-objective descent (shared by radius and abscissa searches) ------


def _top_eigenvalues(vals: np.ndarray, radius: bool):
    """(index, value, smooth?) of the top eigenvalue in each row of `vals`.

    Two eigenvalues count as equal when they differ by at most the gap,
    EIG_GAP times the row's largest |eigenvalue|, so scaling a row does not
    change what is smooth. The radius (largest modulus) is smooth when one
    eigenvalue attains it within the gap and that eigenvalue is real and
    positive (the Perron case). The abscissa (largest real part) is smooth
    when every other eigenvalue within the gap of it is the conjugate of a
    non-real top eigenvalue; a real top eigenvalue must be simple.
    """
    rows = np.arange(len(vals))
    gap = EIG_GAP * np.abs(vals).max(axis=1)
    key = np.abs(vals) if radius else vals.real
    top = key.argmax(axis=1)
    value = key[rows, top]
    lam = vals[rows, top]
    near = key >= (value - gap)[:, None]
    if radius:
        simple = near.sum(axis=1) == 1
        return top, value, simple & (np.abs(lam.imag) <= gap) & (value > gap)
    near[rows, top] = False
    partner = np.abs(vals - lam.conj()[:, None]) <= gap[:, None]
    partner &= (np.abs(lam.imag) > gap)[:, None]
    return top, value, ~(near & ~partner).any(axis=1)


def _spectral_values(stack: np.ndarray, points: np.ndarray, radius: bool):
    """The radius or abscissa of the combination at each row of `points`."""
    combos = np.tensordot(points, stack, axes=(1, 0))
    return _top_eigenvalues(np.linalg.eigvals(combos), radius)[1]


def _spectral_gradients(stack: np.ndarray, points: np.ndarray, radius: bool):
    """(values, analytic gradients, smooth?) at each row of `points`.

    A simple eigenvalue lam with right vector v and left vector u has
    d lam / d w_m = u' A_m v / u'v; its real part is the gradient of the
    radius or abscissa. One batched eig gives lam and v; u is one step of
    shifted inverse iteration started from v, a batched solve of
    (A' - (lam + eta) I) u = v over the smooth rows, scaled to
    max |u_i| = 1. The shift eta is 1e-9 times the smaller of max |A_ij|
    and the distance from lam to the nearest other eigenvalue, so that the
    other left vectors stay out of u on badly balanced matrices, whose
    eigenvalue gaps can be far below max |A_ij|. A row's gradient holds
    only where its value is smooth, lam + eta differs from lam, u is
    finite and nonzero, and |u'v| >= 1e-10. No residual test is made: for
    a backward-stable solve ||u'A - lam u'||_inf is about eta <= 1e-9
    max |A_ij| whenever lam is an eigenvalue to working precision, so such
    a test could not fail. If the solve finds a singular matrix, no row holds.
    """
    combos = np.tensordot(points, stack, axes=(1, 0))
    rows = np.arange(len(points))
    vals, right = np.linalg.eig(combos)
    top, value, smooth = _top_eigenvalues(vals, radius)
    lam = vals[rows, top]
    v = right[rows, :, top]
    scale = np.abs(combos).max(axis=(1, 2))
    dist = np.abs(vals - lam[:, None])
    dist[rows, top] = scale  # so the minimum is at most max |A_ij|
    sigma = lam + 1e-9 * dist.min(axis=1)
    solved = smooth & (sigma != lam)  # a shift lost to rounding is no shift
    shifted = combos[solved].transpose(0, 2, 1) - (
        sigma[solved, None, None] * np.eye(combos.shape[1])
    )
    u = np.zeros_like(v)
    try:
        u[solved] = np.linalg.solve(shifted, v[solved, :, None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    size = np.abs(u).max(axis=1)
    usable = np.isfinite(size) & (size > 0.0)
    u[~usable] = 0.0
    u[usable] /= size[usable, None]
    denom = (u * v).sum(axis=1)
    smooth &= usable & (np.abs(denom) >= 1e-10)
    denom[~smooth] = 1.0
    grads = np.einsum("si,mij,sj->sm", u, stack, v) / denom[:, None]
    return value, grads.real, smooth


def _descend_spectral(
    stack: np.ndarray,
    budget: int,
    seed: int,
    radius: bool,
    stop_below: float = -math.inf,
):
    """Multi-start projected descent on the spectral radius or abscissa.

    The uniform point, the vertices and (for k <= 4) the 1/8 grid are each
    evaluated as one batch. Then 16 starts (the uniform point, then
    Dirichlet draws from ``default_rng(seed)``) descend in lockstep rounds:
    one batched eig and one batched solve for each live start's value and
    right and left eigenvectors, one eigvals batch of forward-difference
    probes for the rows whose analytic gradient is gated off, and the
    general search's line-search round on the negated value. A start stops
    after a round without improvement or ITERS_PER_START rounds. The eig
    counts as an evaluation only for a start whose point no earlier batch
    scored: the drawn starts in their first round. A round admits only the
    live starts whose k + 4 evaluations (k + 5 for an unscored start) fit
    in the budget left, so ``budget_spent <= budget`` for any budget >= 1
    (the uniform point is always evaluated, so a best exists). The descent
    stops once the best value is below ``stop_below``. The best is kept
    over simplex points, not probes, ties to the lowest start in a batch.
    Returns the tracker, whose best is the negated best value and whose
    best point holds its weights.
    """
    k = len(stack)
    tracker = _Tracker(budget)

    def keep(points: np.ndarray, vals: np.ndarray, count: int | None = None):
        if len(vals):
            i = int(np.argmin(vals))  # the lowest index among ties
            count = len(points) if count is None else count
            tracker.record(count, -float(vals[i]), points[i].copy())
        return vals

    def probe(points: np.ndarray) -> np.ndarray:
        # forward-difference probes lie off the simplex: counted, never best
        tracker.record(len(points), -math.inf)
        return _spectral_values(stack, points, radius)

    def evaluate(points: np.ndarray) -> np.ndarray:
        return keep(points, _spectral_values(stack, points, radius))

    def stopped() -> bool:
        return -tracker.best < stop_below

    uniform = np.full((1, k), 1.0 / k)
    evaluate(uniform)
    for comps in _grid_passes(k):
        if stopped():
            return tracker
        evaluate(comps[: tracker.left()] / GRID_DENOM)

    rng = np.random.default_rng(seed)
    w = np.vstack([uniform, sample_simplex_rows(rng, SPECTRAL_STARTS - 1, k)])
    step = np.full(len(w), 0.25)
    scored = np.arange(len(w)) == 0  # the uniform pass scored start 0
    live = np.arange(len(w))
    for _ in range(ITERS_PER_START):
        live = live[np.cumsum(k + 4 + ~scored[live]) <= tracker.left()]
        if not live.size or stopped():
            break
        x = w[live]
        fx, grads, smooth = _spectral_gradients(stack, x, radius)
        keep(x, fx, int((~scored[live]).sum()))
        scored[live] = True
        if stopped():
            break
        rough = ~smooth
        if rough.any():
            grads[rough] = _forward_differences(
                probe, x[rough], fx[rough], SPECTRAL_FD_STEP
            )
        took, w_new, _, step_new = _line_search_round(
            x, -fx, -grads, step[live], lambda p: -evaluate(p)
        )
        live = live[took]
        w[live], step[live] = w_new, step_new
    return tracker


def minimize_spectral_radius(
    matrices: Sequence[Matrix], budget: int = 50_000, seed: int = 0
) -> tuple[SimplexPoint, float]:
    """Best (weights, spectral radius) found over combinations of nonnegative
    matrices. The "radius below one" reading of the result is advisory and
    should be cross-checked by certifying I minus the combination."""
    mats = list(matrices)
    _validate_family(mats)
    for idx, m in enumerate(mats):
        if m.is_exact:
            if any(x < 0 for row in m.rows() for x in row):
                raise DomainError(f"matrix {idx} has a negative entry")
        elif float(m.as_array().min()) < 0.0:
            raise DomainError(f"matrix {idx} has a negative entry")
    stack = np.stack([m.as_array() for m in mats])
    tracker = _descend_spectral(stack, budget, seed, radius=True)
    point = SimplexPoint.from_floats(tracker.best_point)
    return point, float(_spectral_values(stack, point.to_floats()[None], True)[0])


def hurwitz_search(
    matrices: Sequence[Matrix], budget: int = 50_000, seed: int = 0
) -> SearchOutcome:
    """Search for a Hurwitz-stable convex combination.

    Descends on the spectral abscissa and stops after the first round whose
    best value is below -tolerance; FEASIBLE requires the certificate's
    eigenvalues, recomputed from scratch, to all sit below -tolerance.
    Never INFEASIBLE.
    """
    mats = list(matrices)
    _validate_family(mats)
    stack = np.stack([m.as_array() for m in mats])
    tol = config.tolerance()
    tracker = _descend_spectral(stack, budget, seed, radius=False, stop_below=-tol)
    if -tracker.best < -tol:
        point = SimplexPoint.from_floats(tracker.best_point)
        combo = convex_combination(mats, point)
        abscissa = max(z.real for z in np.linalg.eigvals(combo.as_array()))
        if abscissa < -tol:
            return tracker.outcome(
                SearchStatus.FEASIBLE, point, {"spectral_abscissa": float(abscissa)}
            )
    # no value yet leaves best at -inf, so best_abscissa reads inf
    margins = {"best_abscissa": -tracker.best}
    return tracker.outcome(SearchStatus.UNKNOWN, margins=margins)
