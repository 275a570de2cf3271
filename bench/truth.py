"""Ground truth the benchmark checks the program against.

Everything here is written for the benchmark alone, from the definitions in
the paper and the README, and uses only the standard library and numpy. No
function of mpoly is called, so a defect in the code being timed cannot hide
itself in its own check.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

Z_SLACK = 1e-12


def gnp_edges(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    """Edges of a G(n, p) sample, 0-based pairs u < v."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def neighbour_masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def maximum_independent_set(n: int, edges) -> frozenset:
    """A maximum independent set, by branching with degree-0/1 reduction.

    A vertex of degree at most one among the remaining vertices is in some
    maximum independent set, so it is taken without branching; otherwise the
    search branches on a vertex of largest remaining degree. This differs
    from the program's oracle, which branches on every vertex.
    """
    masks = neighbour_masks(n, edges)

    def solve(avail: int) -> int:
        chosen = 0
        while avail:
            low = None
            top, top_deg = -1, -1
            rest = avail
            while rest:
                v = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                deg = (masks[v] & avail).bit_count()
                if deg <= 1:
                    low = v
                    break
                if deg > top_deg:
                    top, top_deg = v, deg
            if low is None:
                take = solve(avail & ~(masks[top] | 1 << top)) | 1 << top
                skip = solve(avail & ~(1 << top))
                better = take if take.bit_count() >= skip.bit_count() else skip
                return chosen | better
            chosen |= 1 << low
            avail &= ~(masks[low] | 1 << low)
        return chosen

    best = solve((1 << n) - 1)
    return frozenset(v for v in range(n) if best >> v & 1)


def is_independent(edges, vertices) -> bool:
    chosen = set(vertices)
    return not any(u in chosen and v in chosen for u, v in edges)


def closed_form_det(edges, j: int, weights) -> Fraction:
    """det of the combined gadget: 1/j - w'(I + C)w, exact in Fractions."""
    w = [Fraction(x) for x in weights]
    form = sum(x * x for x in w) + 2 * sum(w[u] * w[v] for u, v in edges)
    return Fraction(1, j) - form


def uniform_weights(n: int, vertices) -> list[Fraction]:
    share = Fraction(1, len(vertices))
    return [share if v in vertices else Fraction(0) for v in range(n)]


def gadget_arrays(n: int, edges, j: int) -> np.ndarray:
    """The n gadget matrices for threshold j as a float (n, n+1, n+1) stack.

    Gadget i: identity block, column -(e_i + c_i), row -e_i, corner 1/j.
    """
    adj = np.zeros((n, n))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1.0
    stack = np.zeros((n, n + 1, n + 1))
    for i in range(n):
        stack[i, :n, :n] = np.eye(n)
        stack[i, :n, n] = -(np.eye(n)[i] + adj[:, i])
        stack[i, n, i] = -1.0
        stack[i, n, n] = 1.0 / j
    return stack


def exact_combination_rows(n: int, edges, j: int, weights) -> list[list[Fraction]]:
    """The gadget combination at exact weights, entry by entry."""
    w = [Fraction(x) for x in weights]
    adj = [[0] * n for _ in range(n)]
    for u, v in edges:
        adj[u][v] = adj[v][u] = 1
    rows = []
    for r in range(n):
        row = [Fraction(int(r == c)) for c in range(n)]
        row.append(-(w[r] + sum(w[i] for i in range(n) if adj[r][i])))
        rows.append(row)
    rows.append([-x for x in w] + [Fraction(1, j)])
    return rows


def nonneg_part_arrays(n: int, edges, j: int) -> np.ndarray:
    """N_i = I - gadget_i as a float stack (entrywise nonnegative)."""
    return np.eye(n + 1)[None, :, :] - gadget_arrays(n, edges, j)


def combine(stack: np.ndarray, weights) -> np.ndarray:
    return np.tensordot(np.asarray(weights, dtype=np.float64), stack, axes=1)


def is_z(arr: np.ndarray) -> bool:
    off = arr - np.diag(np.diag(arr))
    return bool(off.max() <= Z_SLACK)


def spectral_radius(arr: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(arr)).max())


def spectral_abscissa(arr: np.ndarray) -> float:
    return float(np.linalg.eigvals(arr).real.max())


def smallest_symmetric_eigenvalue(arr: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((arr + arr.T) / 2)[0])
