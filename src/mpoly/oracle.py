"""Ground-truth graph machinery.

One branch and bound, :func:`decide_threshold`, that either finds an
independent set of more than j vertices or builds a tree of clique
partitions that proves alpha <= j, where a partition of the vertices into
at most j cliques is the one-leaf tree; an independent integer checker
for the tree, :func:`is_threshold_proof`, and its JSON form; the climb of
:func:`max_independent_set` on that branch and bound to an exact alpha
with both; and a
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
# nodes the partition search at one tree node, and the threshold tree, may
# each visit before they give up undecided
CLIQUE_COVER_NODE_CAP = 10_000


@dataclass(frozen=True)
class IndependentSetResult:
    alpha: int
    witness: frozenset
    node_count: int  # threshold-tree nodes over every decision of the climb
    proof: object  # a tree that is_threshold_proof accepts at alpha


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


def max_independent_set(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET
) -> IndependentSetResult:
    """Exact maximum independent set, with a tree that proves it maximum.

    Climbs :func:`decide_threshold`'s branch and bound from j = the size of
    the greedy set: each set of more than j vertices found raises j to its
    size, and the first proof, which :func:`is_threshold_proof` accepts,
    ends the climb at alpha = j. Raises BudgetExceeded once the tree nodes
    summed over the climb pass `node_budget` or the search recurses past
    Python's recursion limit. Deterministic for a given graph.
    """
    masks = g.neighbor_masks()
    full = (1 << g.n) - 1
    best, proof, counter = _greedy_seed(masks, full), None, [0]
    try:
        while proof is None:
            found, proof = _decide(masks, full, best.bit_count(), node_budget, counter)
            best = found or best
    except RecursionError:
        raise BudgetExceeded("exceeded the recursion limit") from None
    return IndependentSetResult(best.bit_count(), frozenset(_members(best)),
                                counter[0], proof)


def _clique_partition(
    masks: list[int], within: int, j: int, seed: int
) -> tuple[tuple[int, ...], ...] | None:
    """A partition of the vertices in the mask `within` into at most j
    cliques, or None.

    `seed` is an independent set inside `within` (a mask). It meets every
    clique at most once, so None at once when it has more than j vertices.
    Otherwise each of its vertices opens its own part, which breaks the
    symmetry between parts, and a backtracking search over neighbour masks
    places the rest: a vertex that no part can take opens a new one, and
    otherwise the vertex with the fewest parts to join is tried in each of
    them, then in a new part. None also when no partition exists or when
    the search visits more than CLIQUE_COVER_NODE_CAP nodes; it recurses
    once per placed vertex. Parts are sorted tuples, ordered by their
    smallest vertex.
    """
    seeds = _members(seed)
    if len(seeds) > j:
        return None
    members = [1 << v for v in seeds]
    # joinable[p]: the vertices adjacent to every member of part p
    joinable = [masks[v] for v in seeds]
    nodes = 0

    def extend(uncovered: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > CLIQUE_COVER_NODE_CAP:
            return False
        if not uncovered:
            return True
        reach = shared = 0  # vertices that at least one, two parts can take
        for can in joinable:
            shared |= reach & can
            reach |= can
        lonely = uncovered & ~reach
        single = uncovered & reach & ~shared
        if lonely:
            v = (lonely & -lonely).bit_length() - 1
            options = []
        elif single:
            v = (single & -single).bit_length() - 1
            options = [p for p, can in enumerate(joinable) if can >> v & 1]
        else:
            # the fewest parts to join, ties to the lowest vertex; every
            # vertex has at least two, so the first with two ends the scan
            v, options = -1, None
            rest = uncovered
            while rest:
                u = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                parts = [p for p, can in enumerate(joinable) if can >> u & 1]
                if options is None or len(parts) < len(options):
                    v, options = u, parts
                    if len(parts) == 2:
                        break
        bit = 1 << v
        for p in options:
            was = joinable[p]
            members[p] |= bit
            joinable[p] = was & masks[v]
            if extend(uncovered & ~bit):
                return True
            members[p] &= ~bit
            joinable[p] = was
        if len(members) < j:
            members.append(bit)
            joinable.append(masks[v])
            if extend(uncovered & ~bit):
                return True
            members.pop()
            joinable.pop()
        return False

    if not extend(within & ~seed):
        return None
    return tuple(sorted(tuple(_members(mask)) for mask in members))


@dataclass(frozen=True)
class Branch:
    """An inner node of a threshold proof: at the claim alpha(G[A]) <= t,
    `with_vertex` proves alpha(G[A - N[vertex]]) <= t - 1 and
    `without_vertex` proves alpha(G[A - vertex]) <= t. Every other node is
    a leaf, a partition of A into at most t cliques."""

    vertex: int
    with_vertex: object
    without_vertex: object


def decide_threshold(g: Graph, j: int):
    """Decide alpha(G) > j by one branch and bound.

    Returns ("witness", vertices), an independent set of more than j
    vertices, ascending; ("proof", tree), a tree that
    :func:`is_threshold_proof` accepts; or None once the search visits
    more than CLIQUE_COVER_NODE_CAP tree nodes or recurses past Python's
    recursion limit. A node (A, t) claims alpha(G[A]) <= t, and the root
    is (V, j). The greedy independent set S of ``_greedy_seed`` on G[A]
    refutes the node when it has more than t vertices. Otherwise the
    partition search ``_clique_partition``, seeded with S, makes the
    node a leaf when it partitions A into at most t cliques. Otherwise the
    node branches on the vertex v of A with the most neighbours in A (ties
    to the lowest), into (A - N[v], t - 1) and then (A - v, t): a refuting
    set of the first child plus v, or one of the second, refutes the node.
    So the root tries exactly the greedy set and then a partition of V
    into at most j cliques, the one-leaf proof.
    """
    masks = g.neighbor_masks()
    try:
        found, proof = _decide(masks, (1 << g.n) - 1, j, CLIQUE_COVER_NODE_CAP, [0])
    except (BudgetExceeded, RecursionError):
        return None
    if found is None:
        return "proof", proof
    return "witness", tuple(_members(found))


def _decide(masks: list[int], avail: int, t: int, cap: int, counter: list[int]):
    """The node (avail, t) of :func:`decide_threshold`'s tree: (a refuting
    independent set as a mask, None) or (None, a proof). `counter` holds
    the tree nodes visited so far; BudgetExceeded once it passes `cap`."""
    counter[0] += 1
    if counter[0] > cap:
        raise BudgetExceeded(f"exceeded node budget {cap}")
    seed = _greedy_seed(masks, avail)
    if seed.bit_count() > t:
        return seed, None
    parts = _clique_partition(masks, avail, t, seed)
    if parts is not None:
        return None, parts
    v = max(_members(avail), key=lambda u: ((masks[u] & avail).bit_count(), -u))
    found, with_vertex = _decide(masks, avail & ~(masks[v] | 1 << v), t - 1, cap,
                                 counter)
    if found is not None:
        return found | 1 << v, None
    found, without_vertex = _decide(masks, avail & ~(1 << v), t, cap, counter)
    if found is not None:
        return found, None
    return None, Branch(v, with_vertex, without_vertex)


def is_threshold_proof(g: Graph, tree, j: int) -> bool:
    """True when `tree` proves alpha(G) <= j.

    Replays the tree from the root claim alpha(G) <= j in integer vertex
    masks, independently of :func:`decide_threshold`, in O(nodes n^2). A
    :class:`Branch` on v at the claim alpha(G[A]) <= t needs v in A, its
    ``with_vertex`` tree to prove alpha(G[A - N[v]]) <= t - 1 and its
    ``without_vertex`` tree to prove alpha(G[A - v]) <= t; this holds since
    alpha(G[A]) is the larger of alpha(G[A - N[v]]) + 1 and
    alpha(G[A - v]). Every other node is a leaf, a partition of A into
    cliques, and needs at most t parts, each a clique, that hold every
    vertex of A exactly once and no other vertex. For the gadget family at
    threshold j, a tree proves that no convex combination is a nonsingular
    M-matrix only together with the Motzkin-Straus theorem: min over the
    simplex of pi'(I + C)pi = 1/alpha >= 1/j, so
    det B(pi) = 1/j - pi'(I + C)pi <= 0. A one-leaf tree, a partition of
    the vertices into at most j cliques, needs only Cauchy-Schwarz:
    pi'(I + C)pi >= sum over parts K of pi(K)^2 >= 1/j.
    """
    masks = g.neighbor_masks()

    def holds(node, avail: int, t: int) -> bool:
        if isinstance(node, Branch):
            v = node.vertex
            if not (0 <= v < g.n and avail >> v & 1):
                return False
            return (holds(node.with_vertex, avail & ~(masks[v] | 1 << v), t - 1)
                    and holds(node.without_vertex, avail & ~(1 << v), t))
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

    return holds(tree, (1 << g.n) - 1, j)


def _tree_json(tree):
    """A threshold proof with 1-based vertices, as in graph files: a leaf is
    its list of parts, a branch ``{"vertex": v, "with": ..., "without": ...}``."""
    if isinstance(tree, Branch):
        return {"vertex": tree.vertex + 1, "with": _tree_json(tree.with_vertex),
                "without": _tree_json(tree.without_vertex)}
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
