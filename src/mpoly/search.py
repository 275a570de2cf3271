"""Feasibility search over matrix polytopes.

Four entry points. Three of them (:func:`search_general`,
:func:`minimize_spectral_radius` and :func:`hurwitz_search`) pose the three
problems that the gadget reduction makes NP-hard. On an exact gadget family
of some (G, j) all three come down to alpha(G) > j, and each answers such a
family from G when it can:

* :func:`search_general` answers a gadget family by one gadget decision,
  the branch and bound :func:`oracle.decide_threshold`, which finds an
  independent set of more than j vertices (FEASIBLE) or a tree of clique
  partitions that proves alpha <= j (INFEASIBLE, in ``threshold_proof``,
  which holds a partition when the tree is one leaf), as its docstring sets
  out; every other family, and a gadget family that the decision leaves
  to it, takes a multi-start projected ascent on the smallest leading
  principal minor (an exact M-matrix margin that needs no eigensolves),
  plus a coarse simplex grid for small families. All starts advance
  together, so a round costs a fixed few batched numpy calls. The ascent
  answers FEASIBLE with a re-certified witness and otherwise UNKNOWN,
  since absence of a found point proves nothing for this problem.
* :func:`search_symmetric` solves the symmetric case, which is concave:
  maximize the smallest eigenvalue over the simplex cut by the linear
  Z-sign constraints, using a cutting-plane scheme whose LP value is a
  certified upper bound on the optimum. It stops at the first certified
  witness, so its margins are those at exit, not at the optimum. It may
  return INFEASIBLE.
* :func:`minimize_spectral_radius` returns the exact minimum on the
  nonnegative parts I - B of a gadget family: the uniform point on a
  maximum independent set, where the rank-2 radius is least. Other
  families descend on the spectral radius (Perron left/right eigenvector
  gradient when the radius is simple, finite differences otherwise; one
  eig plus one inverse of its eigenvector matrices per round).
* :func:`hurwitz_search` answers a negated gadget family by the gadget
  decision of :func:`search_general` (a Z-matrix is positive stable iff
  it is a nonsingular M-matrix). Other families descend on the spectral
  abscissa, and their Hurwitz witnesses are certified by re-computing
  eigenvalues.

All searches are deterministic for a fixed seed. The general search and
the spectral descents move their starts with one engine,
:func:`_ascend`, which owns the lockstep rounds, the budget admission, the
step schedule and the line search; each caller gives only its gradient
and its stop rule. Of the starts that cross the tolerance in one round,
the general search re-certifies the lowest start index first; the
spectral descents keep the best value found, ties to the lowest start.

Each decision is made in one place. :func:`_gadget_answer` is the one
gadget decision of the general and Hurwitz searches. :func:`_certified` is
the one witness rule of both M-matrix searches and of the Hurwitz gadget
answer: a point is a FEASIBLE witness only when :func:`mmatrix.certify`
finds its combination a Z-matrix with consensus YES.
Every outcome is built by :meth:`_Tracker.outcome` from the tracker that
counted the evaluations.
The one LP, the symmetric cutting planes, calls the module name
``linprog``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from . import config
from .errors import BudgetExceeded, DimensionMismatch, DomainError, NotSymmetric
from .linalg import Matrix, Z_SLACK, _encode_scalar, leading_minors_batch
from .mmatrix import CONSENSUS_YES, certify
from .oracle import (
    Branch,
    _tree_json,
    decide_threshold,
    is_threshold_proof,
    max_independent_set,
)
from .reduction import (
    convex_combination,
    instance_graph,
    witness_from_independent_set,
)
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
    """Search result with its evaluation count."""

    status: SearchStatus
    certificate: SimplexPoint | None
    budget_spent: int
    margins: dict | None = None
    # an INFEASIBLE gadget family's tree of oracle.is_threshold_proof, a
    # proof of alpha <= j (0-based): a partition of the vertices into at most
    # j cliques, or a Branch
    threshold_proof: tuple | Branch | None = None

    def to_json_dict(self) -> dict:
        """The JSON fields; ``threshold_proof`` appears only when the outcome
        carries one, as its tree (1-based, see ``oracle._tree_json``) and
        what it rests on: Cauchy-Schwarz for a partition, the
        Motzkin-Straus theorem for a deeper tree."""
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
        if self.threshold_proof is not None:
            deep = isinstance(self.threshold_proof, Branch)
            out["threshold_proof"] = {
                "tree": _tree_json(self.threshold_proof),
                "rests_on": "Motzkin-Straus theorem" if deep else "Cauchy-Schwarz",
            }
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
    """One search's evaluation counter and the point of its best merit;
    every outcome of a search is built by :meth:`outcome`."""

    __slots__ = ("spent", "best", "best_point", "budget")

    def __init__(self, budget: int = 0):
        self.spent = 0
        self.best = -math.inf
        self.best_point = None
        self.budget = budget

    def record(self, count: int, merit: float, point=None) -> None:
        """Count `count` evaluations whose best merit is `merit`, reached at
        `point` (kept only when the merit is a new best)."""
        self.spent += count
        if merit > self.best:
            self.best = merit
            self.best_point = point

    def left(self) -> int:
        return max(self.budget - self.spent, 0)

    def outcome(
        self, status, certificate=None, margins=None, proof=None
    ) -> SearchOutcome:
        """The outcome at the evaluations counted so far; `proof` is an
        INFEASIBLE answer's ``threshold_proof``."""
        return SearchOutcome(status, certificate, self.spent, margins, proof)


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


def _ascend(value, gradient, w, fw, tracker, settle, rounds=math.inf):
    """The one projected-ascent engine: lockstep rounds of ascent on the
    batch function `value` from the rows of w (values fw, both updated in
    place). Returns the outcome that `settle` gives, else None once no row
    goes on or after `rounds` rounds.

    A round calls settle(x, fx) on the rows that moved in the last round
    (all rows at first), which gives an outcome or the mask of rows that go
    on, and admits the leading ones whose k + 4 evaluations fit in
    ``tracker.left()``. gradient(x, fx) (k evaluations or fewer) gives each
    admitted row's direction, and one `value` batch tries the steps s, s/4,
    s/16 and s/64 along it, projected onto the simplex (s starts at 0.25);
    a step counts only after every earlier one moved by 1e-14 or more and
    failed. A row moves to its first step that gains more than 1e-15, with
    next s 1.6 times that step, at most 1; a row that gains nothing stops.
    """
    k = w.shape[1]
    step = np.full(len(w), 0.25)
    moved = np.arange(len(w))
    done = 0
    while done < rounds:
        going = settle(w[moved], fw[moved])
        if isinstance(going, SearchOutcome):
            return going
        live = moved[going][: tracker.left() // (k + 4)]
        if not live.size:
            return None
        x, fx = w[live], fw[live]
        grads = gradient(x, fx)
        steps = step[live, None] * LINE_SEARCH_SCALES
        cands = project_rows_to_simplex(
            (x[:, None, :] + steps[:, :, None] * grads[:, None, :]).reshape(-1, k)
        ).reshape(len(live), -1, k)
        fc = value(cands.reshape(-1, k)).reshape(len(live), -1)
        tried = np.cumprod(np.abs(cands - x[:, None, :]).max(axis=2) >= 1e-14, axis=1)
        better = tried.astype(bool) & (fc > fx[:, None] + 1e-15)
        took = better.any(axis=1)
        first = better.argmax(axis=1)[took]
        moved = live[took]
        w[moved], fw[moved] = cands[took, first], fc[took, first]
        step[moved] = np.minimum(steps[took, first] * 1.6, 1.0)
        done += 1
    return None


# -- general (nonsymmetric) M-matrix search ----------------------------------


def _gadget_answer(gadgets: Sequence[Matrix]) -> SearchOutcome | None:
    """The gadget decision that :func:`search_general` sets out, with
    ``budget_spent = 0``, when `gadgets` is exactly the gadget family of
    some (G, j); None when the family is not recognised, when
    :func:`oracle.decide_threshold` hits its node cap, or when the answer
    fails its check (:func:`_certified` for a witness,
    :func:`oracle.is_threshold_proof` for a proof).
    """
    found = instance_graph(gadgets)
    if found is None:
        return None
    g, j = found
    decided = _Tracker()
    answer = decide_threshold(g, j)
    if answer is None:
        return None
    kind, found = answer
    if kind == "proof":
        if not is_threshold_proof(g, found, j):
            return None
        return decided.outcome(SearchStatus.INFEASIBLE, proof=found)
    point = witness_from_independent_set(g, found)
    report = _certified(gadgets, point)
    if report is None:
        return None
    return decided.outcome(SearchStatus.FEASIBLE, point, dict(report.margins))


def search_general(
    matrices: Sequence[Matrix], budget: int = 50_000, seed: int = 0
) -> SearchOutcome:
    """Heuristic feasibility search for an M-matrix convex combination.

    An all-exact family that equals ``build_instance(G, j).gadgets`` for
    some (G, j) (see :func:`reduction.instance_graph`) is first answered
    from G by the gadget decision, with ``budget_spent = 0``. By the
    reduction det B(pi) = 1/j - pi'(I + C)pi, whose greatest value over
    the simplex is 1/j - 1/alpha (Motzkin-Straus), so some combination is
    a nonsingular M-matrix iff alpha(G) > j. The decision is one call of
    :func:`oracle.decide_threshold`, whose docstring gives the rules of its
    tree. An independent set of more than j vertices is FEASIBLE at the
    uniform exact point on it, once :func:`_certified` accepts it; a reader
    can check that its support is independent in O(n^2). A tree that
    :func:`oracle.is_threshold_proof` re-checks in integers is INFEASIBLE,
    in ``threshold_proof``: a one-leaf tree, a partition of the vertices
    into at most j cliques, proves det B(pi) <= 0 for every pi by
    Cauchy-Schwarz, and a deeper tree proves alpha <= j, from which
    det B(pi) <= 0 follows by Motzkin-Straus. Petersen at j = 4 takes a
    3-node tree: one chain of two links, whose with-trees are leaves.

    Every other family takes the search below, which answers FEASIBLE or
    UNKNOWN, and so does a gadget family in two cases: when the tree
    search visits more than ``oracle.THRESHOLD_NODE_CAP`` nodes, and
    when a check rejects the answer (the search can still certify another
    point, for example under a large tolerance).

    Merit is the smallest leading principal minor of the combination. The
    vertices, then (for k <= 4) the 1/8 grid, are each evaluated as one
    batch. Then up to 24 starts (the uniform point, then Dirichlet draws
    from ``default_rng(seed)``) take :func:`_ascend` on the merit, with
    forward-difference gradients, until no start moves. Every candidate
    with merit above the tolerance is independently re-certified by
    :func:`_certified` (in exact arithmetic, at its :func:`rationalize`
    snap, when the inputs are rational) before FEASIBLE is reported, in
    pass order, and lowest start index first within a round. Each batch is
    cut to the budget left, so ``budget_spent <= budget``. Raises
    DomainError for a budget below 1.
    """
    mats = list(matrices)
    _validate_family(mats)
    if budget < 1:
        raise DomainError("budget must be at least 1")
    k = len(mats)
    exact_inputs = all(m.is_exact for m in mats)
    if exact_inputs:
        res = _gadget_answer(mats)
        if res is not None:
            return res
    stack = np.stack([m.as_array() for m in mats])
    tol = config.tolerance()
    tracker = _Tracker(budget)

    def merit(points: np.ndarray) -> np.ndarray:
        combos = np.tensordot(points, stack, axes=(1, 0))
        tracker.spent += len(points)
        return leading_minors_batch(combos).min(axis=1)

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

    rng = np.random.default_rng(seed)
    w = np.vstack([np.full(k, 1.0 / k), sample_simplex_rows(rng, MAX_STARTS - 1, k)])
    w = w[: tracker.left()]

    def gradient(x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        return _forward_differences(merit, x, fx, MERIT_FD_STEP)

    def settle(x: np.ndarray, fx: np.ndarray):
        # the rows that cross the tolerance are re-certified; the rest go on
        return verified(x[fx > tol]) or fx <= tol

    res = _ascend(merit, gradient, w, merit(w), tracker, settle)
    return res or tracker.outcome(SearchStatus.UNKNOWN)


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

    `tolerance` and ``LP_SLACK`` (the largest off-diagonal entry of a point
    that may still raise the lower bound of the gap) are absolute, in the
    units of the matrix entries, unlike the scale-free float tests of
    ``certify``: scaling the family by c > 0 scales every eigenvalue and
    bound by c but not these two, so the verdict of a family can change
    with its scale.

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
    tracker = _Tracker()

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
        tracker.spent += 1
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
    d lam / d w_m = u' A_m v when u'v = 1; its real part is the gradient of
    the radius or abscissa. One batched eig gives lam and V, the right
    vectors, and row `top` of V^-1 is that u. A row's gradient holds only
    where its value is smooth and u is finite and nonzero with
    max |u_i| <= 1e10, that is |u'v| >= 1e-10 max |u_i| for the unit v;
    if inv finds a singular V, no row holds.
    """
    vals, right = np.linalg.eig(np.tensordot(points, stack, axes=(1, 0)))
    top, value, smooth = _top_eigenvalues(vals, radius)
    v = right[np.arange(len(points)), :, top]
    u = np.zeros_like(v)
    try:
        inverse = np.linalg.inv(right[smooth])
        u[smooth] = inverse[np.arange(len(inverse)), top[smooth]]
    except np.linalg.LinAlgError:
        smooth[:] = False
    size = np.abs(u).max(axis=1)
    smooth &= np.isfinite(size) & (size > 0.0) & (size <= 1e10)
    u[~smooth] = 0.0
    grads = np.einsum("si,mij,sj->sm", u, stack, v)
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
    Dirichlet draws from ``default_rng(seed)``) take up to ITERS_PER_START
    rounds of :func:`_ascend` on the negated value. The drawn starts are
    scored in one batch first, as many as the first round can move. A
    round's gradient is analytic, from one batched eig and one batched
    inverse of its eigenvector matrices (:func:`_spectral_gradients`),
    uncounted since every point it sees is already scored; a row whose
    analytic gradient is gated off takes one eigvals batch of
    forward-difference probes instead. Every batch fits in the budget left,
    so ``budget_spent <= budget`` for any budget >= 1 (the uniform point is
    always evaluated, so a best exists). The descent stops once the best
    value is below ``stop_below``. The best is kept over simplex points, not
    probes, ties to the lowest start in a batch. Returns the tracker, whose
    best is the negated best value and whose best point holds its weights.
    """
    k = len(stack)
    tracker = _Tracker(budget)

    def evaluate(points: np.ndarray) -> np.ndarray:
        vals = _spectral_values(stack, points, radius)
        if len(vals):
            i = int(np.argmin(vals))  # the lowest index among ties
            tracker.record(len(points), -float(vals[i]), points[i].copy())
        return vals

    def probe(points: np.ndarray) -> np.ndarray:
        # forward-difference probes lie off the simplex: counted, never best
        tracker.spent += len(points)
        return _spectral_values(stack, points, radius)

    def stopped() -> bool:
        return -tracker.best < stop_below

    def gradient(x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        # fx holds the negated values
        _, grads, smooth = _spectral_gradients(stack, x, radius)
        rough = ~smooth
        if rough.any():
            grads[rough] = _forward_differences(
                probe, x[rough], -fx[rough], SPECTRAL_FD_STEP
            )
        return -grads

    uniform = np.full((1, k), 1.0 / k)
    fw = -evaluate(uniform)
    for comps in _grid_passes(k):
        if not stopped():
            evaluate(comps[: tracker.left()] / GRID_DENOM)
    if stopped():
        return tracker
    rng = np.random.default_rng(seed)
    drawn = sample_simplex_rows(rng, SPECTRAL_STARTS - 1, k)
    # the first round moves the uniform start for k + 4 evaluations, then
    # each drawn start that fits 1 more to score it and k + 4 to move it
    drawn = drawn[: max(tracker.left() - (k + 4), 0) // (k + 5)]
    w = np.vstack([uniform, drawn])
    fw = np.concatenate([fw, -evaluate(drawn)])
    _ascend(
        lambda p: -evaluate(p), gradient, w, fw, tracker,
        lambda x, fx: np.full(len(fx), not stopped()), ITERS_PER_START,
    )
    return tracker


def minimize_spectral_radius(
    matrices: Sequence[Matrix], budget: int = 50_000, seed: int = 0
) -> tuple[SimplexPoint, float]:
    """(weights, spectral radius) of the best combination of nonnegative
    matrices found, with the radius computed in float at those weights.

    An all-exact family whose matrices are I minus ``build_instance(G, j)``'s
    gadgets (``nonneg_parts(G, j)``) is answered from G with its exact
    minimum. There N(pi) = I - B(pi) = [[0, (I + C) pi], [pi', 1 - 1/j]]
    has rank at most 2, and its nonzero eigenvalues are the roots of
    lam^2 - (1 - 1/j) lam - pi'(I + C) pi, so the radius is
    ((1 - 1/j) + sqrt((1 - 1/j)^2 + 4 pi'(I + C) pi)) / 2, which rises with
    the form. By Motzkin and Straus the form's least value over the simplex
    is 1/alpha, at the uniform point on a maximum independent set, so that
    exact point is returned and the minimum radius is
    ((1 - 1/j) + sqrt((1 - 1/j)^2 + 4/alpha)) / 2, below 1 iff alpha > j.
    Every other family, and a gadget family whose maximum independent set
    :func:`oracle.max_independent_set` does not find (its node budget runs
    out), takes the multi-start descent of :func:`_descend_spectral`,
    whose best point is a local minimum only, so "radius below one" is
    then proven only by certifying I minus the combination. Raises
    DomainError for a negative entry or a budget below 1.
    """
    mats = list(matrices)
    n = _validate_family(mats)
    if budget < 1:
        raise DomainError("budget must be at least 1")
    stack = np.stack([m.as_array() for m in mats])
    for idx, (m, arr) in enumerate(zip(mats, stack)):
        # exact signs from the numerators: -1/10^400 has the float view -0.0
        if (min(map(min, m._num)) if m.is_exact else arr.min()) < 0:
            raise DomainError(f"matrix {idx} has a negative entry")
    point = None
    if all(m.is_exact for m in mats):
        eye = Matrix.identity(n, exact=True)
        found = instance_graph([eye - m for m in mats])
        if found is not None:
            try:
                independent = max_independent_set(found[0]).witness
            except BudgetExceeded:
                pass  # take the descent
            else:
                point = witness_from_independent_set(found[0], independent)
    if point is None:
        tracker = _descend_spectral(stack, budget, seed, radius=True)
        point = SimplexPoint.from_floats(tracker.best_point)
    return point, float(_spectral_values(stack, point.to_floats()[None], True)[0])


def hurwitz_search(
    matrices: Sequence[Matrix], budget: int = 50_000, seed: int = 0
) -> SearchOutcome:
    """Search for a Hurwitz-stable convex combination.

    An all-exact family whose negation is ``build_instance(G, j).gadgets``
    is first answered by the gadget decision of :func:`search_general`,
    which gives the same outcome here. Every gadget combination B(pi) is a
    Z-matrix, and a Z-matrix is positive stable iff it is a nonsingular
    M-matrix (Berman and Plemmons, Ch. 6), so a partition or a threshold
    tree that proves no B(pi) is a nonsingular M-matrix also proves that
    no -B(pi) is Hurwitz, Petersen at j = 4 included. A FEASIBLE answer
    adds a ``spectral_abscissa`` margin, minus the POS_STABLE margin of
    B(pi).

    Every other family, and a gadget family the decision leaves to the
    search, takes a descent on the spectral abscissa that stops after the
    first round whose best value is below -tolerance; FEASIBLE then
    requires the certificate's eigenvalues, recomputed from scratch, to all
    sit below -tolerance, and otherwise the answer is UNKNOWN. Raises
    DomainError for a budget below 1.
    """
    mats = list(matrices)
    _validate_family(mats)
    if budget < 1:
        raise DomainError("budget must be at least 1")
    if all(m.is_exact for m in mats):
        res = _gadget_answer([-m for m in mats])
        if res is not None:
            if res.status is SearchStatus.FEASIBLE:
                abscissa = -res.margins["POS_STABLE"]
                res = replace(res, margins={**res.margins, "spectral_abscissa": abscissa})
            return res
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
