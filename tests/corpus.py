"""Shared graph corpus, brute-force oracles and readers for the test suite.

All randomness is seeded and recorded here so every run sees the same
corpus. Small-order graphs are enumerated exhaustively up to isomorphism
(canonical form = lexicographically smallest edge bitmask over vertex
permutations); larger graphs are seeded G(n, p) samples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from mpoly import Graph, SimplexPoint
from mpoly.oracle import Branch

GNP_SEED_BASE = 20260
GNP_P_CYCLE = (0.2, 0.35, 0.5, 0.65, 0.8)

# Exact 2-by-2 matrices, entries in range, whose smallest leading minor or
# inverse entry lies beyond float64: (entries, that condition, its margin
# saturated to +-inf, consensus)
BEYOND_FLOAT64_MARGINS = [
    ([["1", "-1e300"], ["-1e300", "1"]], "E17", -math.inf, "NO"),
    ([["1", "1"], ["1", str(1 + Fraction(1, 10**320))]], "N38", -math.inf, "DISAGREE"),
    # 1e-320 [[2, -1], [-1, 2]]: inverse entries near 3e319
    ([["2e-320", "-1e-320"], ["-1e-320", "2e-320"]], "N38", math.inf, "YES"),
]


@lru_cache(maxsize=None)
def all_graphs_up_to_iso(n: int) -> tuple:
    """Every simple graph on n vertices, one representative per iso class:
    the least edge mask of each class, in increasing order."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = list(permutations(range(n)))
    remaps = []
    for perm in perms:
        remaps.append(
            [index[tuple(sorted((perm[u], perm[v])))] for (u, v) in pairs]
        )
    # the masks are visited in increasing order, so the first mask of each
    # orbit is its least: the canonical form
    seen = bytearray(1 << len(pairs))
    graphs = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        for remap in remaps:
            other = 0
            for i in range(len(pairs)):
                if mask >> i & 1:
                    other |= 1 << remap[i]
            seen[other] = 1
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        graphs.append(Graph.from_edges(n, edges))
    return tuple(graphs)


def small_graphs(max_n: int = 5) -> list:
    out = []
    for n in range(1, max_n + 1):
        out.extend(all_graphs_up_to_iso(n))
    return out


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def gnp_samples(n_values, count: int, seed_base: int = GNP_SEED_BASE) -> list:
    out = []
    for i in range(count):
        n = n_values[i % len(n_values)]
        p = GNP_P_CYCLE[i % len(GNP_P_CYCLE)]
        out.append(gnp(n, p, seed_base + i))
    return out


@lru_cache(maxsize=1)
def corpus_n7() -> tuple:
    """All graphs on up to 5 vertices plus 100 seeded samples on 6-7."""
    return tuple(small_graphs(5) + gnp_samples((6, 7), 100))


@lru_cache(maxsize=1)
def corpus_n9() -> tuple:
    """All graphs on up to 5 vertices plus 100 seeded samples on 6-9."""
    return tuple(small_graphs(5) + gnp_samples((6, 7, 8, 9), 100))


@lru_cache(maxsize=1)
def corpus_n8() -> tuple:
    """All graphs on up to 5 vertices plus 60 seeded samples on 6-8."""
    return tuple(small_graphs(5) + gnp_samples((6, 7, 8), 60, GNP_SEED_BASE + 500))


def exhaustive_alpha(g: Graph) -> int:
    """Independent brute force over all vertex subsets (n <= ~16)."""
    masks = g.neighbor_masks()
    best = 0
    for subset in range(1 << g.n):
        size = bin(subset).count("1")
        if size <= best:
            continue
        ok = True
        for v in range(g.n):
            if subset >> v & 1 and masks[v] & subset:
                ok = False
                break
        if ok:
            best = size
    return best


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def random_rational_simplex_point(rng: np.random.Generator, k: int) -> SimplexPoint:
    """Random exact point with small integer numerators."""
    nums = [int(x) for x in rng.integers(0, 10, size=k)]
    if sum(nums) == 0:
        nums[int(rng.integers(0, k))] = 1
    total = sum(nums)
    return SimplexPoint(tuple(Fraction(a, total) for a in nums))


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complement(g: Graph) -> Graph:
    return Graph.from_edges(
        g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
              if not g.has_edge(u, v)])


def empty(n: int) -> Graph:
    return Graph.from_edges(n, [])


def co_crown(n: int) -> Graph:
    """The complement of the crown graph on 2 x n vertices: two n-cliques,
    of the even and of the odd vertices, and the matching 2i-(2i+1). Its
    alpha is 2 for n >= 2, and the greedy partition in index order makes n
    cliques of two, so a proof of alpha <= 2 branches on 2n - 4 vertices."""
    edges = [(u, v) for u in range(2 * n) for v in range(u + 2, 2 * n, 2)]
    return Graph.from_edges(2 * n, edges + [(2 * i, 2 * i + 1) for i in range(n)])


def tree_from_json(tree):
    """A threshold proof from its JSON form (1-based), 0-based again."""
    if isinstance(tree, dict):
        return Branch(tuple((link["vertex"] - 1, tree_from_json(link["with"]))
                            for link in tree["links"]),
                      tree_from_json(tree["rest"]))
    return tuple(tuple(v - 1 for v in part) for part in tree)
