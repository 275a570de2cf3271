"""Ground-truth graph machinery.

One branch and bound, bounded at each node by a greedy split of its
vertices into cliques (the colouring bound of Tomita and Seki's MCQ and
Tomita and Kameda's MCS, applied to the complement): :func:`decide_threshold`
either finds an independent set of more than j vertices or builds a tree
of clique partitions that proves alpha <= j, where a partition of the
vertices into at most j cliques is the one-leaf tree, and
:func:`max_independent_set` runs it once, with t following the best set
found, to an exact alpha with both; an independent integer checker for
the tree, :func:`is_threshold_proof`, and its JSON form; and a
multi-start projected-gradient minimizer for the quadratic form
y' (I + C) y over the probability simplex, whose global minimum equals
1/alpha(G). The minimizer descends Bomze's regularised form
y' (C + I/2) y, whose local minimizers are all strict and are exactly the
uniform points on maximal independent sets (I. M. Bomze, J. Global
Optim. 10 (1997) 143-164), picks the best restart on that form and
reports y' (I + C) y there. Each round of the minimizer takes the
projected-gradient direction of every live restart at the fixed step 1/2
and goes to the exact minimum of the form on the whole ray from the
restart's point to the simplex boundary; a restart keeps its point when
that ray does not lower its form, and retires as soon as it stops moving.
When the best restart's support is independent, the reported minimizer is
the uniform point on it. Restart start points depend only on the seed and
restart index, so results are reproducible and independent of execution
order; ties between restarts resolve to the lowest restart index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, DomainError
from .reduction import Graph
from .simplex import SimplexPoint, project_rows_to_simplex, sample_simplex_rows

DEFAULT_NODE_BUDGET = 100_000_000
STATIONARITY_TOL = 1e-10
# tree nodes decide_threshold may visit before it gives up undecided
THRESHOLD_NODE_CAP = 10_000


@dataclass(frozen=True)
class IndependentSetResult:
    alpha: int
    witness: frozenset
    node_count: int  # nodes of the one branch-and-bound tree
    proof: object  # a tree that is_threshold_proof accepts at alpha


@dataclass(frozen=True)
class Branch:
    """An inner node of a threshold proof, at the claim alpha(G[A]) <= t: a
    chain of `links` (v, with_tree), where with_tree proves
    alpha(G[A' - N[v]]) <= t - 1 for the set A' that the earlier links of
    the chain leave, and each link then takes v out of A'; `rest`, a
    partition of what is left into at most t cliques, closes the chain.
    Every other node is a leaf, a partition of A into at most t cliques."""

    links: tuple
    rest: tuple


def _members(mask: int) -> list[int]:
    """The vertices in `mask`, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _greedy_seed(masks: list[int], avail: int) -> int:
    """Min-degree greedy independent set of the vertices in the mask
    `avail`, ties to the lowest vertex, as a pruning seed (returns a mask)."""
    chosen = 0
    while avail:
        v, low, rest = -1, avail.bit_length(), avail  # no degree reaches low
        while rest and low:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            degree = (masks[u] & avail).bit_count()
            if degree < low:
                v, low = u, degree
        chosen |= 1 << v
        avail &= ~(masks[v] | 1 << v)
    return chosen


def _clique_parts(masks: list[int], order: list[int], avail: int) -> list[list[int]]:
    """The greedy partition of the vertices in the mask `avail` into
    cliques: each vertex, taken in `order`, joins the first part that it is
    adjacent to all of, or else opens a new part. So each part starts at
    the first vertex no earlier part took and takes each later such vertex
    adjacent to the whole part. Parts list their vertices as they joined."""
    parts, joinable = [], []  # joinable[p]: the vertices adjacent to all of part p
    for v in order:
        if avail >> v & 1:
            for p, can in enumerate(joinable):
                if can >> v & 1:
                    parts[p].append(v)
                    joinable[p] = can & masks[v]
                    break
            else:
                parts.append([v])
                joinable.append(masks[v])
    return parts


def _leaf(parts: list[list[int]], avail: int) -> tuple:
    """The nonempty parts within the mask `avail`, each ascending."""
    kept = (sorted(v for v in part if avail >> v & 1) for part in parts)
    return tuple(tuple(part) for part in kept if part)


class _Refuted(Exception):
    """Ends a search with a fixed bound at its first set above the bound."""


def _branch_and_bound(g: Graph, bound: int, fixed: bool, cap: int):
    """The one branch and bound of :func:`decide_threshold` and
    :func:`max_independent_set`.

    A node (A, chosen) claims alpha(G[A]) <= t = bound - |chosen|, where
    `chosen` is the independent set of the with-links above it and A holds
    the vertices adjacent to none of it. The greedy set S of
    ``_greedy_seed`` on G[A] refutes the node when |S| > t: chosen + S
    becomes the best set and its size the bound, or, with a `fixed` bound,
    the search ends (_Refuted). Otherwise ``_clique_parts`` splits A into
    cliques in one fixed order of the vertices, ascending degree with ties
    to the lower vertex, as in the greedy colouring bound of Tomita and
    Seki's MCQ (DMTCS 2003) applied to the complement. At most t parts are
    the leaf. Otherwise the node is a chain over the vertices outside the
    first t parts, highest part first and the last to join first: each
    vertex v gets the with-child (A - N[v], chosen + v) and then leaves A.
    t is read again before each link, so a set found deeper in the tree
    cuts the rest of the chain, and the parts that are left close it. A
    tree that proves a smaller bound passes the checker at a larger one, so
    the tree proves the final bound. Returns (best set as a mask, tree,
    nodes); BudgetExceeded once the nodes pass `cap`. The recursion is one
    level per with-link, at most bound + 1 deep.
    """
    masks = g.neighbor_masks()
    order = sorted(range(g.n), key=lambda v: (masks[v].bit_count(), v))
    best = nodes = 0

    def node(avail: int, chosen: int):
        nonlocal best, bound, nodes
        nodes += 1
        if nodes > cap:
            raise BudgetExceeded(f"exceeded node budget {cap}")
        size = chosen.bit_count()
        seed = _greedy_seed(masks, avail)
        if size + seed.bit_count() > bound:
            best, bound = chosen | seed, size + seed.bit_count()
            if fixed:
                raise _Refuted(best)
        parts = _clique_parts(masks, order, avail)
        if len(parts) <= bound - size:
            return _leaf(parts, avail)
        links = []
        for p, v in reversed([(p, v) for p, part in enumerate(parts) for v in part]):
            if p < bound - size:
                break
            links.append((v, node(avail & ~(masks[v] | 1 << v), chosen | 1 << v)))
            avail &= ~(1 << v)
        return Branch(tuple(links), _leaf(parts, avail))

    tree = node((1 << g.n) - 1, 0)
    return best, tree, nodes


def max_independent_set(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> IndependentSetResult:
    """Exact maximum independent set, with a tree that proves it maximum.

    One pass of :func:`decide_threshold`'s branch and bound in which t
    follows the best set found (see ``_branch_and_bound``), from the
    greedy set of the root; its tree, which :func:`is_threshold_proof`
    accepts, proves alpha <= the size of the best set. Raises
    BudgetExceeded once the tree passes `node_budget` nodes or the search
    recurses past Python's recursion limit. Deterministic for a given
    graph.
    """
    try:
        best, proof, nodes = _branch_and_bound(g, 0, False, node_budget)
    except RecursionError:
        raise BudgetExceeded("exceeded the recursion limit") from None
    return IndependentSetResult(best.bit_count(), frozenset(_members(best)), nodes, proof)


def decide_threshold(g: Graph, j: int):
    """Decide alpha(G) > j by one branch and bound.

    Returns ("witness", vertices), an independent set of more than j
    vertices, ascending; ("proof", tree), a tree that
    :func:`is_threshold_proof` accepts; or None once the search visits
    more than THRESHOLD_NODE_CAP tree nodes or recurses past Python's
    recursion limit. It is the search of ``_branch_and_bound`` with t
    fixed at j at the root, which stops at the first set of more than j
    vertices. So the root tries exactly the greedy set and then the greedy
    partition of V into cliques, the one-leaf proof when it has at most j
    parts.
    """
    try:
        _, proof, _ = _branch_and_bound(g, j, True, THRESHOLD_NODE_CAP)
    except _Refuted as refuted:
        return "witness", tuple(_members(refuted.args[0]))
    except (BudgetExceeded, RecursionError):
        return None
    return "proof", proof


def is_threshold_proof(g: Graph, tree, j: int) -> bool:
    """True when `tree` proves alpha(G) <= j.

    Replays the tree from the root claim alpha(G) <= j in integer vertex
    masks, independently of :func:`decide_threshold`, in O(nodes n^2). A
    :class:`Branch` at the claim alpha(G[A]) <= t needs t >= 1; it walks
    its links in a loop, and a link (v, with_tree) needs v in A and
    with_tree to prove alpha(G[A - N[v]]) <= t - 1, and then takes v out
    of A; this holds since alpha(G[A]) is the larger of
    alpha(G[A - N[v]]) + 1 and alpha(G[A - v]). Its `rest` is then checked
    as a leaf on what is left. A leaf, a partition of A into cliques, needs
    at most t parts, each a clique, that hold every vertex of A exactly
    once and no other vertex. Only the with-trees recurse, one level per
    unit of t, so no tree nests deeper than j + 1 levels. For the gadget
    family at threshold j, a tree proves that no convex combination is a
    nonsingular M-matrix only together with the Motzkin-Straus theorem:
    min over the simplex of pi'(I + C)pi = 1/alpha >= 1/j, so
    det B(pi) = 1/j - pi'(I + C)pi <= 0. A one-leaf tree, a partition of
    the vertices into at most j cliques, needs only Cauchy-Schwarz:
    pi'(I + C)pi >= sum over parts K of pi(K)^2 >= 1/j.
    """
    masks = g.neighbor_masks()

    def holds(node, avail: int, t: int) -> bool:
        if isinstance(node, Branch):
            if t < 1:
                return False
            for v, with_tree in node.links:
                if not (0 <= v < g.n and avail >> v & 1):
                    return False
                if not holds(with_tree, avail & ~(masks[v] | 1 << v), t - 1):
                    return False
                avail &= ~(1 << v)
            node = node.rest
        if len(node) > t:
            return False
        seen = 0
        for part in node:
            clique = 0
            for u in part:
                if not 0 <= u < g.n:
                    return False
                bit = 1 << u
                if seen & bit or masks[u] & clique != clique:
                    return False
                clique |= bit
                seen |= bit
        return seen == avail

    try:
        return holds(tree, (1 << g.n) - 1, j)
    except (TypeError, ValueError):  # a malformed tree proves nothing
        return False


def _tree_json(tree):
    """A threshold proof with 1-based vertices, as in graph files: a leaf is
    its list of parts, a branch
    ``{"links": [{"vertex": v, "with": ...}, ...], "rest": parts}``."""
    if isinstance(tree, Branch):
        return {"links": [{"vertex": v + 1, "with": _tree_json(with_tree)}
                          for v, with_tree in tree.links],
                "rest": _tree_json(tree.rest)}
    return [[v + 1 for v in part] for part in tree]


@dataclass(frozen=True)
class MSolveResult:
    value: float
    minimizer: SimplexPoint
    restarts_used: int
    rounds: int  # rounds of _ms_round
    row_rounds: int  # live restarts summed over the rounds


def _forms(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row-wise quadratic forms x_r' a x_r."""
    return ((x @ a) * x).sum(1)


def _rescale_rows(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The nonnegative rows of z, each divided by its sum, back onto the
    simplex. A long ray multiplies the rounding in sum(d), and a ray of
    pure rounding noise can end with every coordinate clipped to 0, so a
    row whose sum is 0 or not finite takes the row of y instead."""
    total = z.sum(1, keepdims=True)
    bad = ~(np.isfinite(total) & (total > 0.0))[:, 0]
    if bad.any():
        z[bad], total[bad] = y[bad], 1.0
    return z / total


def _ms_round(x: np.ndarray, a: np.ndarray, step: float) -> np.ndarray:
    """One round of the minimizer on the rows of x; returns the next rows.

    The direction is d = P(x - step * grad) - x, with grad = 2 a x. For any
    step > 0 it is a descent direction that is zero exactly at KKT points
    (Calamai and More, Math. Prog. 39 (1987) 93-116), so the step only picks
    the direction. Along the ray x + t d the form is f(x) + t slope +
    t^2 curv, minimized in closed form over t in [0, t_max], where t_max is
    the largest t that keeps the point nonnegative (at least 1, since x + d
    is on the simplex, unless d is zero). A row keeps x unless that minimum
    is strictly below the form at x, so no row's form rises, and a row at a
    stationary point, where d is rounding noise, stays put instead of
    drifting along a flat face.
    """
    ax = x @ a
    d = project_rows_to_simplex(x - (2.0 * step) * ax) - x
    slope = 2.0 * (ax * d).sum(1)
    curv = ((d @ a) * d).sum(1)
    t_max = np.divide(x, -d, out=np.full_like(x, np.inf), where=d < 0.0).min(1)
    t_max[np.isinf(t_max)] = 0.0  # no coordinate decreases: d is zero
    t = np.full_like(t_max, np.inf)  # a concave ray runs to its end
    np.divide(-slope, 2.0 * curv, out=t, where=curv > 0.0)
    t = np.minimum(np.maximum(t, 0.0), t_max)
    z = _rescale_rows(np.maximum(x + t[:, None] * d, 0.0), x)
    better = _forms(z, a) < _forms(x, a)
    return np.where(better[:, None], z, x)


def motzkin_straus_min(
    g: Graph,
    restarts: int | None = None,
    iters: int = 1000,
    seed: int = 0,
) -> MSolveResult:
    """Minimize y' (I + C) y over the simplex by multi-start projected gradient.

    The restarts descend B = C + I/2 instead. On the plain form rows drift
    along flat faces of non-strict minimizers, while every local minimizer
    of B is strict and is the uniform point on a maximal independent set;
    the global ones, of value 1/(2 alpha), are those on maximum independent
    sets, where the plain form is 1/alpha (Bomze 1997). Starts are the
    uniform point plus ``restarts - 1`` seeded Dirichlet(1) samples;
    ``restarts`` defaults to 20 n. Each round moves every live restart x
    along the ray x + t d, t in [0, t_max], where d = P(x - 2 s B x) - x is
    the projected-gradient direction at the fixed step s = 1/2 and t_max
    the largest t that keeps the point nonnegative, to the minimum of
    y' B y on that ray; a restart keeps x when that minimum is not strictly
    below its form, so the form never rises (see ``_ms_round``). A restart
    retires once it moves less than 1e-10, and the run ends when none is
    left or after ``iters`` rounds. The best restart is the one of least
    y' B y, ties to the lowest restart index. When its support (the
    weights of at least 1e-10) is independent in G, the minimizer is the
    uniform point on that support, which has the least form on that face,
    so a weight of rounding noise that a clipped ray left on a neighbour
    does not survive; the reported value is y' (I + C) y re-evaluated at
    the minimizer. ``rounds`` counts the rounds and ``row_rounds`` the live
    restarts summed over them.
    """
    n = g.n
    if restarts is None:
        restarts = 20 * n
    if restarts < 1:
        raise DomainError("restarts must be at least 1")
    if iters < 1:
        raise DomainError("iters must be at least 1")

    c = np.asarray(g.adjacency_rows(), dtype=np.float64)
    b = c + 0.5 * np.eye(n)  # every local minimizer strict (Bomze)

    rng = np.random.default_rng(seed)
    pts = np.empty((restarts, n), dtype=np.float64)
    pts[0] = 1.0 / n
    if restarts > 1:
        pts[1:] = sample_simplex_rows(rng, restarts - 1, n)

    live = np.arange(restarts)
    rounds = row_rounds = 0
    while rounds < iters and live.size:
        x = pts[live]
        # step 1/2: of the steps 1/8..2 it takes the fewest census row-rounds
        nxt = _ms_round(x, b, 0.5)
        rounds += 1
        row_rounds += live.size
        pts[live] = nxt
        live = live[np.abs(nxt - x).max(1) >= STATIONARITY_TOL]

    y = pts[int(np.argmin(_forms(pts, b)))]  # ties to the lowest restart index
    # a weight below the retirement tolerance is rounding that a clipped ray
    # left behind; on an independent face y'By = |y|^2 / 2, least at the
    # uniform point
    support = y >= STATIONARITY_TOL
    if not c[support][:, support].any():
        y = support / support.sum()
    minimizer = SimplexPoint.from_floats(y)
    w = minimizer.to_floats()
    value = float(w @ (c + np.eye(n)) @ w)
    return MSolveResult(value=value, minimizer=minimizer, restarts_used=restarts,
                        rounds=rounds, row_rounds=row_rounds)


def extract_independent_set(g: Graph, pi: SimplexPoint) -> frozenset:
    """Round a simplex point to an independent set.

    Scans the support by descending weight (ties to the lower vertex) and
    keeps every vertex not adjacent to one already kept. Always independent;
    recovers S exactly when pi is uniform on an independent set S.
    """
    if len(pi) != g.n:
        raise DimensionMismatch(f"{len(pi)} weights for {g.n} vertices")
    w = [float(x) for x in pi.weights]
    order = sorted((v for v in range(g.n) if w[v] > 0.0), key=lambda v: (-w[v], v))
    chosen: list[int] = []
    for v in order:
        if all(not g.has_edge(v, u) for u in chosen):
            chosen.append(v)
    return frozenset(chosen)


def alpha_lower_bound(value: float) -> int:
    """Independent-set size implied by an achieved quadratic-form value.

    Any feasible point with form value v certifies alpha >= 1/v; the small
    shift guards against the value sitting a rounding error above 1/alpha.
    """
    value = float(value)
    if not value > 0.0:
        raise DomainError("achieved value must be positive")
    return math.ceil(1.0 / value - 1e-9)
