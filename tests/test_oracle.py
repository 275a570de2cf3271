"""Brute-force independent sets and the simplex quadratic-form minimizer."""

import importlib
import json
import math
import pkgutil
import sys
import warnings
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpoly import (
    BudgetExceeded,
    DomainError,
    Graph,
    SimplexPoint,
    alpha_lower_bound,
    decide_threshold,
    extract_independent_set,
    is_threshold_proof,
    max_independent_set,
    motzkin_straus_min,
    quadratic_form,
    witness_from_independent_set,
)
import mpoly
import mpoly.oracle
from mpoly.oracle import (
    Branch,
    MSolveResult,
    _forms,
    _ms_round,
    _rescale_rows,
    _tree_json,
)
from mpoly.simplex import sample_simplex_rows

import corpus


def is_independent(g: Graph, vertices) -> bool:
    vs = sorted(vertices)
    return all(
        not g.has_edge(vs[a], vs[b])
        for a in range(len(vs))
        for b in range(a + 1, len(vs))
    )


def assert_uniform_on_maximum_set(g: Graph, res: MSolveResult) -> None:
    """The minimizer is uniform, to 1e-12, on an independent support that
    extract_independent_set recovers and whose size the value implies."""
    w = res.minimizer.to_floats()
    support = frozenset(v for v in range(g.n) if w[v] > 0.0)
    assert is_independent(g, support), (g, support)
    assert max(abs(w[v] - 1.0 / len(support)) for v in support) <= 1e-12
    assert extract_independent_set(g, res.minimizer) == support
    assert len(support) == alpha_lower_bound(res.value)


class TestMaxIndependentSet:
    def test_empty_graph(self):
        res = max_independent_set(corpus.empty(5))
        assert res.alpha == 5
        assert res.witness == frozenset(range(5))

    def test_complete_graph(self):
        res = max_independent_set(corpus.complete(4))
        assert res.alpha == 1

    def test_five_cycle(self):
        res = max_independent_set(corpus.cycle(5))
        assert res.alpha == 2
        assert is_independent(corpus.cycle(5), res.witness)

    def test_petersen(self):
        g = corpus.petersen()
        res = max_independent_set(g)
        assert res.alpha == 4
        assert corpus.exhaustive_alpha(g) == 4
        assert len(res.witness) == 4
        assert is_independent(g, res.witness)

    def test_matches_exhaustive_subset_check(self):
        for g in corpus.small_graphs(5)[::3]:
            assert max_independent_set(g).alpha == corpus.exhaustive_alpha(g)
        for g in corpus.gnp_samples((8, 9, 10), 20, 31415):
            assert max_independent_set(g).alpha == corpus.exhaustive_alpha(g)

    def test_witness_is_independent_and_sized(self):
        for g in corpus.gnp_samples((7, 9), 20, 2718):
            res = max_independent_set(g)
            assert len(res.witness) == res.alpha
            assert is_independent(g, res.witness)

    def test_deterministic(self):
        g = corpus.gnp(9, 0.4, 99)
        first = max_independent_set(g)
        second = max_independent_set(g)
        assert first == second

    def test_node_budget(self):
        # C8 is a one-node proof (four edges); Petersen needs a 3-node tree
        assert max_independent_set(corpus.cycle(8), node_budget=1).node_count == 1
        with pytest.raises(BudgetExceeded):
            max_independent_set(corpus.petersen(), node_budget=2)
        assert max_independent_set(corpus.petersen(), node_budget=3).node_count == 3

    def test_forty_vertices_with_a_proof(self):
        g = corpus.gnp(40, 0.5, 3)
        res = max_independent_set(g)
        assert res.alpha == 7 and len(res.witness) == 7
        assert is_independent(g, res.witness)
        assert is_threshold_proof(g, res.proof, 7)
        assert not is_threshold_proof(g, res.proof, 6)

    def test_recursion_limit_is_a_spent_budget(self):
        # the search recurses once per with-link: the fewest frames that
        # run C8's one-node tree do not run Petersen's with-children
        c8, g = corpus.cycle(8), corpus.petersen()
        one_node, tree = at_fewest_frames(lambda: max_independent_set(c8),
                                          lambda: max_independent_set(g))
        assert one_node.alpha == 4 and isinstance(tree, BudgetExceeded)
        assert max_independent_set(g).alpha == 4

    def test_one_clique_of_1100_vertices(self):
        res = max_independent_set(corpus.complete(1100))
        assert res.alpha == 1 and res.node_count == 1
        assert res.proof == (tuple(range(1100)),)

    def test_co_crown_takes_one_long_chain(self):
        # 2 x 600 vertices: the root's chain has 1,196 links, each with a
        # one-clique leaf, at the default recursion limit
        g = corpus.co_crown(600)
        res = max_independent_set(g)
        assert res.alpha == 2 and is_independent(g, res.witness)
        assert isinstance(res.proof, Branch) and len(res.proof.links) == 1196
        assert is_threshold_proof(g, res.proof, 2)
        assert not is_threshold_proof(g, res.proof, 1)
        text = json.dumps(_tree_json(res.proof))
        assert corpus.tree_from_json(json.loads(text)) == res.proof

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 9), p=st.sampled_from(corpus.GNP_P_CYCLE),
           seed=st.integers(0, 2**32 - 1))
    def test_gnp_property(self, n, p, seed):
        g = corpus.gnp(n, p, seed)
        res = max_independent_set(g)
        assert res.alpha == corpus.exhaustive_alpha(g)
        assert len(res.witness) == res.alpha and is_independent(g, res.witness)
        assert is_threshold_proof(g, res.proof, res.alpha)
        assert not is_threshold_proof(g, res.proof, res.alpha - 1)


def greedy_parts(g: Graph) -> list:
    """The greedy clique partition, part by part: each part starts at the
    first vertex that no part holds yet and takes each later such vertex
    adjacent to the whole part, in the order of ascending degree, ties to
    the lower vertex."""
    order = sorted(range(g.n), key=lambda v: (sum(g.has_edge(v, u) for u in range(g.n)
                                                 if u != v), v))
    parts, covered = [], set()
    for first in order:
        if first in covered:
            continue
        part = [first]
        for v in order[order.index(first) + 1:]:
            if v not in covered and all(g.has_edge(v, u) for u in part):
                part.append(v)
        parts.append(part)
        covered.update(part)
    return parts


def at_fewest_frames(*calls) -> list:
    """The outcome of each call, its value or the BudgetExceeded it raises,
    all run at one depth, under the fewest spare frames (see
    ``spare_frames``) at which the first call returns a value."""
    for spare in range(100):
        outcomes = []
        with spare_frames(spare):
            for call in calls:
                try:
                    outcomes.append(call())
                except BudgetExceeded as exc:
                    outcomes.append(exc)
        if not isinstance(outcomes[0], (BudgetExceeded, type(None))):
            return outcomes
    raise AssertionError("no recursion limit lets the first call run")


@contextmanager
def spare_frames(spare: int):
    """Run the body with the recursion limit `spare` frames above the
    lowest limit that can be set at the caller's depth."""
    old, low = sys.getrecursionlimit(), 1
    while True:
        try:
            sys.setrecursionlimit(low)
            break
        except RecursionError:  # below the current depth
            low += 1
    sys.setrecursionlimit(low + spare)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def one_leaf(answer):
    """The partition of a one-leaf proof from decide_threshold, else None."""
    if answer is None or answer[0] != "proof" or isinstance(answer[1], Branch):
        return None
    return answer[1]


class TestCliqueCover:
    """A partition into at most j cliques is the one-leaf threshold proof."""

    # C5 = 0-1-2-3-4-0: alpha 2, but 3 cliques are needed
    C5_COVER = ((0, 1), (2, 3), (4,))

    def test_known_graphs(self):
        c5 = corpus.cycle(5)
        assert isinstance(decide_threshold(c5, 2)[1], Branch)
        assert is_threshold_proof(c5, one_leaf(decide_threshold(c5, 3)), 3)
        assert decide_threshold(corpus.complete(4), 1) == ("proof", ((0, 1, 2, 3),))
        assert decide_threshold(corpus.empty(4), 3)[0] == "witness"
        assert decide_threshold(corpus.empty(4), 4) == ("proof", ((0,), (1,), (2,), (3,)))
        assert isinstance(decide_threshold(corpus.petersen(), 4)[1], Branch)
        cover = one_leaf(decide_threshold(corpus.petersen(), 5))
        assert is_threshold_proof(corpus.petersen(), cover, 5)

    def test_one_leaf_iff_the_greedy_partition_fits(self):
        # decide_threshold returns a one-leaf proof iff the greedy clique
        # partition has at most j parts, and then the leaf is that partition
        for g in corpus.small_graphs(5) + corpus.gnp_samples((6, 9), 15):
            parts = greedy_parts(g)
            for j in range(1, g.n + 1):
                cover = one_leaf(decide_threshold(g, j))
                assert (cover is not None) == (len(parts) <= j), (g, j)
                if cover is not None:
                    assert is_threshold_proof(g, cover, j)
                    assert cover == tuple(tuple(sorted(part)) for part in parts)

    def test_node_cap_gives_none(self, monkeypatch):
        # the one-leaf proof at the root is one node
        monkeypatch.setattr(mpoly.oracle, "THRESHOLD_NODE_CAP", 0)
        assert decide_threshold(corpus.cycle(5), 3) is None
        monkeypatch.setattr(mpoly.oracle, "THRESHOLD_NODE_CAP", 1)
        assert decide_threshold(corpus.cycle(5), 3) == ("proof", self.C5_COVER)

    def test_checker_accepts_a_valid_cover(self):
        assert is_threshold_proof(corpus.cycle(5), self.C5_COVER, 3)
        assert is_threshold_proof(corpus.cycle(5), [list(p) for p in self.C5_COVER], 4)

    # each mutation breaks one clause of the checker and keeps the others
    @pytest.mark.parametrize("parts, j", [
        (((0, 1), (2, 3)), 3),  # vertex 4 dropped
        (((0, 1), (2, 3), (4, 0)), 3),  # vertex 0 twice; 4-0 is an edge
        (((0, 2), (1,), (3, 4)), 3),  # 0 and 2 are not adjacent
        (C5_COVER, 2),  # three parts for j = 2
        (((0, 1), (2,), (3,), (4,)), 3),  # four parts for j = 3
        (((0, 1), (2, 3), (4,), (5,)), 4),  # vertex 5 is not in the graph
    ])
    def test_checker_rejects_mutations(self, parts, j):
        assert not is_threshold_proof(corpus.cycle(5), parts, j)


def tree_nodes(tree) -> int:
    """A chain is one node, over the nodes of its with-trees."""
    if isinstance(tree, Branch):
        return 1 + sum(tree_nodes(with_tree) for _, with_tree in tree.links)
    return 1


class TestDecideThreshold:
    def test_exact_over_small_graphs(self):
        largest = 0
        for g in corpus.small_graphs(6):
            alpha = corpus.exhaustive_alpha(g)
            for j in range(1, g.n + 1):
                kind, found = decide_threshold(g, j)
                if kind == "witness":
                    assert alpha > j and len(found) > j, (g, j)
                    assert is_independent(g, found) and list(found) == sorted(found)
                else:
                    assert kind == "proof" and alpha <= j, (g, j)
                    assert is_threshold_proof(g, found, j), (g, j)
                    largest = max(largest, tree_nodes(found))
        assert largest == 2

    def test_odd_holes_and_petersen_take_small_trees(self):
        # alpha = j and no partition into j cliques
        cases = [(corpus.cycle(n), n // 2, 2) for n in (5, 7, 9, 11)]
        cases += [(corpus.complement(corpus.cycle(7)), 2, 2), (corpus.petersen(), 4, 3)]
        for g, j, nodes in cases:
            kind, tree = decide_threshold(g, j)
            assert kind == "proof" and tree_nodes(tree) == nodes, (g, j)
            assert is_threshold_proof(g, tree, j)
            assert not is_threshold_proof(g, tree, j - 1)

    def test_graphs_past_the_exact_cap_are_decided(self):
        # 40 vertices: a witness of 7 vertices at j = 6, and a 10-node tree
        # at j = 7, so alpha = 7
        g = corpus.gnp(40, 0.5, 3)
        kind, witness = decide_threshold(g, 6)
        assert kind == "witness" and len(witness) == 7
        assert is_independent(g, witness)
        kind, tree = decide_threshold(g, 7)
        assert kind == "proof" and tree_nodes(tree) == 10
        assert is_threshold_proof(g, tree, 7)

    def test_node_cap_gives_none(self, monkeypatch):
        # C5 at j = 2 is a root chain of one link and its with-tree
        monkeypatch.setattr(mpoly.oracle, "THRESHOLD_NODE_CAP", 1)
        assert decide_threshold(corpus.cycle(5), 2) is None
        monkeypatch.setattr(mpoly.oracle, "THRESHOLD_NODE_CAP", 2)
        assert decide_threshold(corpus.cycle(5), 2)[0] == "proof"

    def test_recursion_limit_gives_none(self):
        # the search recurses once per with-link, so past the recursion
        # limit the decision is undecided instead of raising: the fewest
        # frames that decide Petersen at j = 5 from one leaf do not run the
        # with-children of its tree at j = 4
        g = corpus.petersen()
        one_leaf_answer, decided = at_fewest_frames(lambda: decide_threshold(g, 5),
                                                    lambda: decide_threshold(g, 4))
        assert one_leaf(one_leaf_answer) is not None
        assert decided is None
        assert decide_threshold(g, 4)[0] == "proof"

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 9), p=st.sampled_from(corpus.GNP_P_CYCLE),
           graph_seed=st.integers(0, 2**32 - 1), perm_seed=st.integers(0, 2**32 - 1))
    def test_relabelling_keeps_alpha_and_every_answer_kind(self, n, p, graph_seed,
                                                           perm_seed):
        g = corpus.gnp(n, p, graph_seed)
        perm = [int(v) for v in np.random.default_rng(perm_seed).permutation(n)]
        h = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
        res, relabelled = max_independent_set(g), max_independent_set(h)
        assert res.alpha == relabelled.alpha
        assert is_threshold_proof(h, relabelled.proof, relabelled.alpha)
        for j in range(1, n + 1):
            kind, _ = decide_threshold(g, j)
            relabelled_kind, found = decide_threshold(h, j)
            assert kind == relabelled_kind, (g, perm, j)
            if relabelled_kind == "proof":
                assert is_threshold_proof(h, found, j)


class TestThresholdProof:
    # on C5 = 0-1-2-3-4-0 at j = 2: a chain of one link on 0, whose
    # with-tree {2, 3} is one clique at t = 1, closed by the path 1-2-3-4
    # as two cliques at t = 2
    C5_TREE = Branch(((0, ((2, 3),)),), ((1, 2), (3, 4)))

    def test_checker_accepts_a_valid_tree(self):
        c5 = corpus.cycle(5)
        assert is_threshold_proof(c5, self.C5_TREE, 2)
        assert is_threshold_proof(c5, Branch([[0, [[3, 2]]]], [[4, 3], [1, 2]]), 2)
        # a chain of two links: 0, then 1 with A - N[1] = {3, 4} at t = 1
        assert is_threshold_proof(c5, Branch(((0, ((2, 3),)), (1, ((3, 4),))),
                                             ((2, 3), (4,))), 2)
        # a partition is the one-leaf tree
        assert is_threshold_proof(c5, ((0, 1), (2, 3), (4,)), 3)
        assert not is_threshold_proof(c5, ((0, 1), (2, 3), (4,)), 2)

    # each mutation breaks one clause of the checker and keeps the others
    @pytest.mark.parametrize("tree, j", [
        pytest.param(Branch(((0, ((2, 3),)),), ((1,), (2,), (3, 4))), 2,
                     id="leaf-with-more-than-t-cliques"),
        pytest.param(Branch(((0, ((2, 3),)),), ((1, 3), (2, 4))), 2,
                     id="part-not-a-clique"),
        pytest.param(Branch(((0, ((2, 3), (0,))),), ((1, 2), (3, 4))), 3,
                     id="vertex-outside-A"),
        pytest.param(Branch(((0, ((2, 3),)),), ((1, 2), (2, 3), (4,))), 3,
                     id="vertex-covered-twice"),
        pytest.param(Branch(((0, ((2, 3),)),), ((1, 2), (3,))), 2,
                     id="vertex-uncovered"),
        pytest.param(Branch(((0, ((2, 3),)),), ((1, 2), (3, 4), (5,))), 3,
                     id="vertex-not-in-the-graph"),
        # the second link's 0 already left A = {1, 2, 3, 4}, but its
        # with-tree and the rest would check
        pytest.param(Branch(((0, ((2, 3),)), (0, ((2, 3),))), ((1, 2), (3, 4))),
                     2, id="branch-vertex-outside-A"),
        # 0 left A with its link, but the rest holds it, and would check on
        # the whole of C5
        pytest.param(Branch(((0, ((2, 3),)),), ((0, 1), (2, 3), (4,))), 3,
                     id="linked-vertex-in-the-rest"),
        # two cliques on {2, 3} hold at t = 2, not at t - 1 = 1
        pytest.param(Branch(((0, ((2,), (3,))),), ((1, 2), (3, 4))), 2,
                     id="with-child-checked-at-t"),
        # the with-tree of the link on 2 is an empty chain at t = 0, which
        # would check on the empty set A - N[2] of its parent {2, 3}
        pytest.param(Branch(((0, Branch(((2, Branch((), ())),), ((3,),))),),
                            ((1, 2), (3, 4))), 2, id="branch-at-t-below-1"),
    ])
    def test_checker_rejects_mutations(self, tree, j):
        assert not is_threshold_proof(corpus.cycle(5), tree, j)

    # each is C5_TREE or a partition of C5 with one node out of shape
    @pytest.mark.parametrize("tree, j", [
        pytest.param(Branch(((0, ((2, 3),)),), Branch(((1, ((3, 4),)),), ((2,),))),
                     2, id="rest-a-branch"),
        pytest.param(Branch(((0, ((2, 3),), 1),), ((1, 2), (3, 4))), 2,
                     id="link-not-a-pair"),
        pytest.param(Branch((0,), ((1, 2), (3, 4))), 2, id="link-a-vertex"),
        pytest.param(3, 3, id="bare-integer"),
        pytest.param(Branch((("0", ((2, 3),)),), ((1, 2), (3, 4))), 2,
                     id="link-vertex-a-string"),
        pytest.param(((0, 1.0), (2, 3), (4,)), 3, id="leaf-vertex-a-float"),
    ])
    def test_checker_rejects_malformed_trees(self, tree, j):
        assert not is_threshold_proof(corpus.cycle(5), tree, j)

    def test_petersen_tree(self):
        # triangle-free on 10 vertices, so no 4 cliques cover it, and every
        # fractional clique cover weighs at least 5 = j + 1; the tree
        # proves alpha <= 4 all the same
        g = corpus.petersen()
        kind, tree = decide_threshold(g, 4)
        assert kind == "proof" and isinstance(tree, Branch)
        assert is_threshold_proof(g, tree, 4)
        assert not is_threshold_proof(g, tree, 3)


class TestMotzkinStrausMin:
    def test_triangle_form_is_constant_one(self):
        res = motzkin_straus_min(corpus.complete(3), restarts=5, seed=0)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_empty_graph_minimum_at_uniform(self):
        res = motzkin_straus_min(corpus.empty(4), restarts=5, seed=0)
        assert res.value == pytest.approx(0.25, abs=1e-9)
        assert res.minimizer.to_floats() == pytest.approx([0.25] * 4, abs=1e-6)

    def test_five_cycle(self):
        res = motzkin_straus_min(corpus.cycle(5), restarts=50, seed=0)
        assert abs(res.value - 0.5) <= 1e-6
        assert res.restarts_used == 50

    def test_value_matches_form_at_minimizer(self):
        res = motzkin_straus_min(corpus.cycle(7), restarts=20, seed=1)
        recomputed = quadratic_form(corpus.cycle(7), res.minimizer)
        assert abs(res.value - recomputed) <= 1e-12

    def test_never_beats_global_minimum(self):
        for g in corpus.gnp_samples((6, 8), 12, 424242):
            alpha = corpus.exhaustive_alpha(g)
            res = motzkin_straus_min(g, restarts=4, iters=200, seed=5)
            assert res.value >= 1.0 / alpha - 1e-9

    def test_identity_at_desk_scale(self):
        graphs = corpus.small_graphs(5)[::4] + corpus.gnp_samples((6, 9), 10, 777)
        for g in graphs:
            alpha = corpus.exhaustive_alpha(g)
            res = motzkin_straus_min(g, seed=0)  # default 20n restarts
            assert 1.0 / alpha - 1e-9 <= res.value <= 1.0 / alpha + 1e-6, g

    def test_deterministic_given_seed(self):
        g = corpus.cycle(6)
        a = motzkin_straus_min(g, restarts=30, seed=7)
        b = motzkin_straus_min(g, restarts=30, seed=7)
        assert a.value == b.value
        assert a.minimizer == b.minimizer

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            motzkin_straus_min(corpus.cycle(5), restarts=0)
        with pytest.raises(DomainError):
            motzkin_straus_min(corpus.cycle(5), restarts=5, iters=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9),
        st.sampled_from(corpus.GNP_P_CYCLE),
        st.integers(0, 2**32 - 1),
    )
    def test_identity_on_random_gnp(self, n, p, graph_seed):
        g = corpus.gnp(n, p, graph_seed)
        alpha = corpus.exhaustive_alpha(g)
        res = motzkin_straus_min(g, seed=0)
        assert 1.0 / alpha - 1e-9 <= res.value <= 1.0 / alpha + 1e-6
        assert_uniform_on_maximum_set(g, res)

    def test_minimizer_is_uniform_on_a_maximum_set(self):
        # the local minimizers of y'(C + I/2)y are the uniform points on
        # maximal independent sets, and the best restart is picked on that
        # form, so the reported point is the uniform point on its support
        graphs = corpus.small_graphs(6) + corpus.gnp_samples(
            (7, 8, 9, 10, 12), 30, 9090)
        for g in graphs:
            assert_uniform_on_maximum_set(g, motzkin_straus_min(g, seed=0))

    @pytest.mark.parametrize("n, graph_seed, support", [
        (6, 1310010430, {2, 5}),  # the plain step retired 6.7e-12 from uniform
        (9, 3504418029, {1, 2, 6}),  # a clipped ray left 2.8e-17 on vertex 3
    ])
    def test_snaps_an_independent_support_to_its_uniform_point(
            self, n, graph_seed, support):
        # on an independent face the uniform point has the least form
        g = corpus.gnp(n, 0.8, graph_seed)
        res = motzkin_straus_min(g, seed=0)
        uniform = [1.0 / len(support) if v in support else 0.0 for v in range(n)]
        assert res.minimizer.to_floats() == pytest.approx(uniform, abs=1e-15)
        assert_uniform_on_maximum_set(g, res)

    def test_round_count(self):
        # 380 rounds and 54,381 row-rounds at the step 1/2 on C + I/2; the
        # step 1/(2 lambda_max) took 567 and 117,504, and I + C 1,040 rounds
        results = [motzkin_straus_min(g, seed=0)
                   for g in corpus.gnp_samples(tuple(range(12, 31)), 19, 4040)]
        assert sum(r.rounds for r in results) <= 380
        assert sum(r.row_rounds for r in results) <= 70_000

    def test_form_never_rises_in_a_round(self):
        # up to rounding: the ray starts at x and a row moves only where the
        # ray lowers its form; on I + C and on C + I/2 with the step
        # 1/(2 lambda_max), and on C + I/2 with the step 1/2 that
        # motzkin_straus_min takes
        cases = ((1.0, None), (0.5, None), (0.5, 0.5))  # (shift, fixed step)
        for g, (shift, fixed) in product(corpus.gnp_samples((2, 5, 9, 14), 20, 99),
                                         cases):
            a = np.asarray(g.adjacency_rows()) + shift * np.eye(g.n)
            step = fixed or 1.0 / (2.0 * np.linalg.eigvalsh(a).max())
            x = sample_simplex_rows(np.random.default_rng(g.n), 30, g.n)
            before = _forms(x, a)
            for _ in range(100):
                x = _ms_round(x, a, step)
                after = _forms(x, a)
                assert np.all(after <= before + 1e-14)
                assert np.all(x >= 0.0)
                assert np.abs(x.sum(1) - 1.0).max() <= 1e-12
                before = after

    @pytest.mark.parametrize("n, p, graph_seed", [(10, 0.2, 23), (10, 0.35, 19)])
    def test_ray_clipped_to_zero_keeps_the_point(self, monkeypatch, n, p,
                                                 graph_seed):
        # on these graphs a ray of pure rounding noise ends with every
        # coordinate clipped to 0; that row keeps its point, silently
        clipped = 0

        def counted(z, y):
            nonlocal clipped
            total = z.sum(1)
            clipped += int((~(np.isfinite(total) & (total > 0.0))).sum())
            return _rescale_rows(z, y)

        monkeypatch.setattr(mpoly.oracle, "_rescale_rows", counted)
        g = corpus.gnp(n, p, graph_seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = motzkin_straus_min(g, seed=1)
        assert clipped >= 1
        alpha = corpus.exhaustive_alpha(g)
        assert 1.0 / alpha - 1e-9 <= res.value <= 1.0 / alpha + 1e-6
        assert abs(res.value - quadratic_form(g, res.minimizer)) <= 1e-12

    def test_single_round_and_single_restart(self):
        g = corpus.cycle(7)
        for restarts, iters in ((1, 1), (1, 1000), (20, 1)):
            res = motzkin_straus_min(g, restarts=restarts, iters=iters, seed=4)
            assert isinstance(res, MSolveResult)
            assert res.restarts_used == restarts
            assert 1 <= res.rounds <= iters
            assert res.rounds <= res.row_rounds <= res.rounds * restarts
            assert len(res.minimizer) == g.n
            assert math.isfinite(res.value)
            assert res.value >= 1.0 / 3 - 1e-9
            assert abs(res.value - quadratic_form(g, res.minimizer)) <= 1e-12


class TestExtractIndependentSet:
    def test_recovers_uniform_support(self):
        pt = witness_from_independent_set(corpus.cycle(5), {0, 2})
        assert extract_independent_set(corpus.cycle(5), pt) == {0, 2}

    def test_uniform_over_triangle_gives_single_vertex(self):
        got = extract_independent_set(corpus.complete(3), SimplexPoint.uniform(3))
        assert len(got) == 1

    def test_solver_minimizer_rounds_to_maximum_set(self):
        g = corpus.cycle(5)
        res = motzkin_straus_min(g, restarts=50, seed=0)
        rounded = extract_independent_set(g, res.minimizer)
        assert is_independent(g, rounded)
        assert len(rounded) == 2

    def test_always_independent_on_adversarial_points(self):
        rng = np.random.default_rng(55)
        for g in corpus.gnp_samples((5, 8), 20, 808):
            raw = rng.random(g.n)
            pt = SimplexPoint.from_floats(raw)
            assert is_independent(g, extract_independent_set(g, pt))


class TestAlphaLowerBound:
    def test_examples(self):
        assert alpha_lower_bound(0.5) == 2
        assert alpha_lower_bound(0.26) == 4
        assert alpha_lower_bound(1.0) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            alpha_lower_bound(0.0)

    def test_safe_on_solver_output(self):
        for g in corpus.small_graphs(5)[::6] + corpus.gnp_samples((7,), 8, 612):
            alpha = corpus.exhaustive_alpha(g)
            res = motzkin_straus_min(g, restarts=10, seed=2)
            assert alpha_lower_bound(res.value) <= alpha


def test_no_module_keeps_a_cache():
    # results depend on their arguments alone, so no module holds a memo
    # that one call fills for the next; __main__ runs the CLI on import
    for info in pkgutil.iter_modules(mpoly.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"mpoly.{info.name}")
        cached = [name for name, obj in vars(module).items()
                  if hasattr(obj, "cache_info")]
        assert cached == [], info.name
