"""Graph-to-matrix-polytope reduction.

For a graph on n vertices and a threshold j, builds n gadget matrices of
size (n+1) x (n+1) whose convex combinations are nonsingular M-matrices
exactly when the graph has an independent set of size larger than j. Each
gadget has an identity block, a column -(e_i + c_i) (c_i the i'th adjacency
column), a row -e_i, and corner 1/j; all entries lie in {0, -1, 1, 1/j} and
are kept as exact rationals (integer numerators over a common denominator),
so the determinant's sign at the feasibility boundary is decided without
rounding.

Vertices are 1-based in graph files and 0-based everywhere in code.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, NotIndependent
from .linalg import Matrix
from .simplex import SimplexPoint


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are unordered 0-based pairs."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError("graphs need at least one vertex")
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise DomainError(f"invalid edge {e!r} for {self.n} vertices")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        norm = set()
        for u, v in pairs:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            norm.add((min(u, v), max(u, v)))
        return cls(n, frozenset(norm))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def adjacency_rows(self) -> list[list[int]]:
        rows = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            rows[u][v] = rows[v][u] = 1
        return rows

    def neighbor_masks(self) -> list[int]:
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks


def parse_graph(text: str) -> Graph:
    """Parse the line-oriented graph format: 'c' comments, one 'p edge n m'
    header, then m lines 'e u v' with 1-based endpoints."""
    n = None
    declared = None
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise DomainError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise DomainError(f"line {lineno}: expected 'p edge <n> <m>'")
            try:
                n, declared = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DomainError(f"line {lineno}: non-integer sizes") from exc
            if not 1 <= n <= sys.maxsize or declared < 0:
                raise DomainError(f"line {lineno}: invalid sizes n={n} m={declared}")
        elif parts[0] == "e":
            if n is None:
                raise DomainError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise DomainError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise DomainError(f"line {lineno}: non-integer endpoints") from exc
            if not (1 <= u <= n and 1 <= v <= n):
                raise DomainError(f"line {lineno}: endpoint out of range")
            if u == v:
                raise DomainError(f"line {lineno}: self-loop at {u}")
            key = (min(u, v) - 1, max(u, v) - 1)
            if key in seen:
                raise DomainError(f"line {lineno}: duplicate edge {u} {v}")
            seen.add(key)
            pairs.append(key)
        else:
            raise DomainError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise DomainError("missing problem line 'p edge <n> <m>'")
    if declared != len(pairs):
        raise DomainError(f"header declares {declared} edges, found {len(pairs)}")
    return Graph.from_edges(n, pairs)


def write_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {len(g.edges)}"]
    for u, v in sorted(g.edges):
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReductionInstance:
    """The n exact gadget matrices for a (graph, j) pair."""

    source: Graph
    j: int
    gadgets: tuple[Matrix, ...]


def _check_threshold(g: Graph, j) -> None:
    if not isinstance(j, int) or not 1 <= j <= g.n:
        raise DomainError(f"threshold j must satisfy 1 <= j <= {g.n}, got {j}")


def _closed_neighbourhoods(g: Graph) -> list[list[int]]:
    """e_i + c_i for each vertex i: the 0/1 indicator of i and its neighbours."""
    masks = [mask | 1 << i for i, mask in enumerate(g.neighbor_masks())]
    return [[(mask >> r) & 1 for r in range(g.n)] for mask in masks]


def build_instance(g: Graph, j: int) -> ReductionInstance:
    """Construct the n gadget matrices for threshold j, 1 <= j <= n.

    Top row r of every gadget is j e_r with 0 or -j last, so the gadgets
    share these 2n immutable row tuples, and only the last row of each is
    its own.
    """
    _check_threshold(g, j)
    n = g.n
    # numerators over the denominator j: identity block j I, column
    # -j (e_i + c_i), row -j e_i, corner 1 (so already in lowest terms)
    zero = (0,) * n
    tops = []
    for r in range(n):
        row = zero[:r] + (j,) + zero[r + 1:]
        tops.append((row + (0,), row + (-j,)))
    gadgets = []
    for i, column in enumerate(_closed_neighbourhoods(g)):
        rows = [top[x] for top, x in zip(tops, column)]
        rows.append(zero[:i] + (-j,) + zero[i + 1:] + (1,))
        gadgets.append(Matrix._from_numerators(rows, j, reduced=True))
    return ReductionInstance(source=g, j=j, gadgets=tuple(gadgets))


def instance_graph(matrices: Sequence[Matrix]) -> tuple[Graph, int] | None:
    """(G, j) when `matrices` is exactly ``build_instance(G, j).gadgets``.

    Reads j as the denominator of the first matrix, whose corner numerator
    must be 1, and G from the last column of each, where matrix i holds
    -(e_i + c_i), then rebuilds the family and compares it with ``==``, so
    any other family (float backing, a perturbed entry, a corner that is
    not 1/j, k != n) gives None.
    """
    mats = list(matrices)
    n = len(mats)
    if not n or not all(m.is_exact and m.n == n + 1 for m in mats):
        return None
    j = mats[0]._den
    if mats[0]._num[n][n] != 1 or not 1 <= j <= n:
        return None
    g = Graph.from_edges(
        n, [(i, r) for i, m in enumerate(mats) for r in range(i + 1, n)
            if m._num[r][n] == -m._den]
    )
    if build_instance(g, j).gadgets != tuple(mats):
        return None
    return g, j


def nonneg_parts(g: Graph, j: int) -> list[Matrix]:
    """Entrywise nonnegative parts N_i = I - gadget_i, exactly."""
    eye = Matrix.identity(g.n + 1, exact=True)
    return [eye - gadget for gadget in build_instance(g, j).gadgets]


def convex_combination(matrices: Sequence[Matrix], pi: SimplexPoint) -> Matrix:
    """Weighted sum of equally sized matrices; exact when both sides are."""
    mats = list(matrices)
    if not mats:
        raise DimensionMismatch("need at least one matrix")
    n = mats[0].n
    if any(m.n != n for m in mats):
        raise DimensionMismatch("matrices must share one dimension")
    if len(pi) != len(mats):
        raise DimensionMismatch(
            f"{len(pi)} weights for {len(mats)} matrices"
        )
    if pi.is_exact and all(m.is_exact for m in mats):
        terms = [(w, m) for w, m in zip(pi.weights, mats) if w != 0]
        # sum_i (p_i / q_i) (num_i / den_i) over the denominator Q * D, with
        # Q the lcm of the q_i and D the lcm of the den_i
        q = math.lcm(*(w.denominator for w, _ in terms))
        d = math.lcm(*(m._den for _, m in terms))
        acc = [[0] * n for _ in range(n)]
        for w, m in terms:
            coef = w.numerator * (q // w.denominator) * (d // m._den)
            for acc_r, row in zip(acc, m._num):
                for c, x in enumerate(row):
                    if x:
                        acc_r[c] += coef * x
        return Matrix._from_numerators(acc, q * d)
    stack = np.stack([m.as_array() for m in mats])
    return Matrix.float64(np.tensordot(pi.to_floats(), stack, axes=1))


def quadratic_form(g: Graph, pi: SimplexPoint):
    """pi' (I + C) pi; exact Fraction for exact weights, float otherwise."""
    if len(pi) != g.n:
        raise DimensionMismatch(f"{len(pi)} weights for {g.n} vertices")
    w = pi.weights
    total = sum(x * x for x in w)
    for u, v in g.edges:
        total += 2 * w[u] * w[v]
    return total


def det_closed_form(g: Graph, j: int, pi: SimplexPoint):
    """Closed-form determinant 1/j - pi' (I + C) pi of the combined gadget.

    The combined matrix is a Z-matrix with an identity leading block, so
    its leading principal minors below the last are all 1, and it is a
    nonsingular M-matrix at pi iff this value, the last minor, is positive.
    Strict and exact for rational weights.
    """
    _check_threshold(g, j)
    form = quadratic_form(g, pi)
    if pi.is_exact:
        return Fraction(1, j) - form
    return 1.0 / j - form


def witness_from_independent_set(g: Graph, vertices: Iterable[int]) -> SimplexPoint:
    """Uniform exact weights on an independent set (validated)."""
    chosen = sorted(set(vertices))
    if not chosen:
        raise NotIndependent("witness set must be nonempty")
    for v in chosen:
        if not 0 <= v < g.n:
            raise DomainError(f"vertex {v} out of range for {g.n} vertices")
    for a in range(len(chosen)):
        for b in range(a + 1, len(chosen)):
            if g.has_edge(chosen[a], chosen[b]):
                raise NotIndependent(
                    f"vertices {chosen[a]} and {chosen[b]} are adjacent"
                )
    share = Fraction(1, len(chosen))
    member = set(chosen)
    return SimplexPoint(
        tuple(share if v in member else Fraction(0) for v in range(g.n))
    )
