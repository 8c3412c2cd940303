"""Neighbor / neighborhood / random-walk kernels and the theorem check."""

import numpy as np
import pytest

from lase import graph as G
from lase import kernels as K
from lase import layers as L

from util import neighbors, random_digraph, random_graph, theorem1_per_k


def tiny_graph(nf, links, lf):
    return G.AttributedGraph(np.asarray(nf, float), [None] * len(nf), links,
                             np.asarray(lf, float), 1)


class TestNeighborKernel:
    def test_outer_product_basis(self):
        m = K.neighbor_feature([1, 0], [0, 1])
        assert np.array_equal(m, [[0, 1], [0, 0]])

    def test_zero_link(self):
        assert np.array_equal(K.neighbor_feature([1, 2], [0, 0]), np.zeros((2, 2)))

    def test_rank_one(self):
        m = K.neighbor_feature([1, 2], [3, 4])
        assert np.array_equal(m, [[3, 4], [6, 8]])
        assert np.linalg.matrix_rank(m) == 1

    def test_orthogonal_nodes(self):
        assert K.neighbor_kernel(([1, 0], [1]), ([0, 1], [1])) == 0.0

    def test_direct_value(self):
        assert K.neighbor_kernel(([1, 2], [3]), ([1, 2], [3])) == 45.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            K.neighbor_kernel(([1, 2], [3]), ([1], [3]))

    @pytest.mark.parametrize("seed", range(10))
    def test_factorized_equals_tensor_inner_product(self, seed):
        rng = np.random.default_rng(seed)
        fv, fw = rng.normal(size=4), rng.normal(size=4)
        fe, fe2 = rng.normal(size=3), rng.normal(size=3)
        fact = K.neighbor_kernel((fv, fe), (fw, fe2))
        tens = float(np.sum(K.neighbor_feature(fv, fe) * K.neighbor_feature(fw, fe2)))
        assert fact == pytest.approx(tens, abs=1e-12, rel=1e-12)


class TestNeighborhoodKernel:
    def test_base_case(self):
        g1 = tiny_graph([[1, 2]], [], np.zeros((0, 1)))
        g2 = tiny_graph([[3, 4]], [], np.zeros((0, 1)))
        cfg = K.KernelConfig(0.5, 0)
        assert K.neighborhood_kernel(g1, g2, 0, 0, cfg) == 11.0

    @pytest.mark.parametrize("u, u2, bad", [(-1, 0, "u=-1"), (2, 0, "u=2"),
                                            (0, -1, "u2=-1"), (0, 3, "u2=3")])
    def test_node_id_outside_graph(self, u, u2, bad):
        """An id outside its graph is named, not wrapped or left to numpy."""
        g1 = tiny_graph([[1.0], [2.0]], [(0, 1)], [[1.0]])
        g2 = tiny_graph([[1.0], [1.0], [3.0]], [(1, 2)], [[2.0]])
        with pytest.raises(ValueError, match=r"^%s is not a node id" % bad):
            K.neighborhood_kernel(g1, g2, u, u2, K.KernelConfig(0.5, 1))

    def test_isolated_node_zero(self):
        g1 = tiny_graph([[1.0], [2.0]], [(0, 1)], [[1.0]])
        g2 = tiny_graph([[1.0], [1.0]], [], np.zeros((0, 1)))
        cfg = K.KernelConfig(0.5, 1)
        assert K.neighborhood_kernel(g1, g2, 0, 0, cfg) == 0.0

    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(3)
        cfg = K.KernelConfig(0.5, 2)

        def naive(g1, g2, a, b, level):
            s = float(g1.node_features[a] @ g2.node_features[b])
            if level == 0:
                return s
            acc = 0.0
            for v, ea in neighbors(g1, a):
                for v2, eb in neighbors(g2, b):
                    acc += naive(g1, g2, v, v2, level - 1) * float(
                        g1.link_features[ea] @ g2.link_features[eb])
            return s * cfg.decay * acc

        for make in (random_graph, random_digraph):
            g1 = make(rng, max_nodes=5)
            g2 = make(rng, max_nodes=5)
            for u in range(g1.n_nodes):
                for u2 in range(g2.n_nodes):
                    assert K.neighborhood_kernel(g1, g2, u, u2, cfg) == pytest.approx(
                        naive(g1, g2, u, u2, cfg.hops), rel=1e-12, abs=1e-12)

    def test_sum_equals_rw_kernel(self):
        rng = np.random.default_rng(12)
        for make in (random_graph, random_digraph):
            for _ in range(5):
                g1, g2 = make(rng, max_nodes=6), make(rng, max_nodes=6)
                for hops in (0, 1, 2, 3):
                    cfg = K.KernelConfig(0.5, hops)
                    terms = np.array([
                        [K.neighborhood_kernel(g1, g2, u, u2, cfg)
                         for u2 in range(g2.n_nodes)]
                        for u in range(g1.n_nodes)])
                    dp = K.rw_kernel_dp(g1, g2, cfg)
                    scale = max(1.0, np.abs(terms).sum())
                    assert abs(terms.sum() - dp) <= 1e-12 * scale


class TestRandomWalkKernel:
    def test_single_node_graphs(self):
        g1 = tiny_graph([[1, 2]], [], np.zeros((0, 1)))
        g2 = tiny_graph([[3, 4]], [], np.zeros((0, 1)))
        cfg = K.KernelConfig(0.5, 0)
        assert K.rw_kernel_enumerate(g1, g2, cfg) == 11.0

    def test_edgeless_graph_zero(self):
        g1 = tiny_graph([[1.0], [2.0]], [(0, 1)], [[1.0]])
        g2 = tiny_graph([[1.0], [1.0]], [], np.zeros((0, 1)))
        cfg = K.KernelConfig(0.5, 1)
        assert K.rw_kernel_enumerate(g1, g2, cfg) == 0.0
        assert K.rw_kernel_dp(g1, g2, cfg) == 0.0

    def test_dp_equals_enumeration(self):
        rng = np.random.default_rng(4)
        for make in (random_graph, random_digraph):
            for _ in range(15):
                g1 = make(rng, max_nodes=6)
                g2 = make(rng, max_nodes=6)
                for hops in (0, 1, 2, 3):
                    cfg = K.KernelConfig(0.5, hops)
                    dp = K.rw_kernel_dp(g1, g2, cfg)
                    en = K.rw_kernel_enumerate(g1, g2, cfg)
                    assert abs(dp - en) / max(1.0, abs(en)) < 1e-9

    def test_count_walks_equals_enumeration(self):
        rng = np.random.default_rng(10)
        for make in (random_graph, random_digraph):
            for _ in range(10):
                g = make(rng, max_nodes=6)
                for hops in (0, 1, 2, 3):
                    nw, _ = K.enumerate_walks(g, hops + 1)
                    assert K.count_walks(g, hops) == nw.shape[0]

    @pytest.mark.parametrize("d_node, d_link", [(2, 2), (3, 1), (3, 3)])
    def test_dimension_mismatch_is_error(self, d_node, d_link):
        rng = np.random.default_rng(13)
        g1 = random_graph(rng, d_node=3, d_link=2)
        g2 = random_graph(rng, d_node=d_node, d_link=d_link)
        what = "node" if d_node != 3 else "link"
        for hops in (0, 2):
            cfg = K.KernelConfig(0.5, hops)
            for a, b in ((g1, g2), (g2, g1)):
                with pytest.raises(ValueError, match=what):
                    K.rw_kernel_dp(a, b, cfg)
                with pytest.raises(ValueError, match=what):
                    K.neighborhood_kernel(a, b, 0, 0, cfg)

    def test_over_budget_is_typed_error(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, max_nodes=8, p_link=1.0)
        cfg = K.KernelConfig(0.5, 3)
        walks = K.count_walks(g, 3)
        with pytest.raises(K.WalkBudgetError):
            K.check_enumeration_budget(g, g, 3, budget=int(walks) + 1)
        with pytest.raises(ValueError):
            K.enumerate_walks(g, 4, budget=int(walks) - 1)
        assert K.rw_kernel_enumerate(g, g, cfg) == pytest.approx(
            K.rw_kernel_dp(g, g, cfg), rel=1e-9)

    def test_negative_hops_and_empty_walks_are_errors(self):
        with pytest.raises(ValueError, match="hops must be"):
            K.KernelConfig(0.5, -1)
        g = random_graph(np.random.default_rng(11))
        with pytest.raises(ValueError, match="at least one node"):
            K.enumerate_walks(g, 0)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        g1 = random_graph(rng, max_nodes=6)
        g2 = random_graph(rng, max_nodes=6)
        cfg = K.KernelConfig(0.4, 2)
        assert K.rw_kernel_dp(g1, g2, cfg) == pytest.approx(
            K.rw_kernel_dp(g2, g1, cfg), rel=1e-12)

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(6)
        graphs = [random_graph(rng, max_nodes=6) for _ in range(6)]
        cfg = K.KernelConfig(0.5, 2)
        gram = np.array([[K.rw_kernel_dp(a, b, cfg) for b in graphs]
                         for a in graphs])
        eigs = np.linalg.eigvalsh((gram + gram.T) / 2)
        assert eigs.min() > -1e-8

    def test_gram_exactly_symmetric(self):
        """Below MAP_WIDTH each entry is one inner product of the two
        graphs' maps, so the Gram equals its transpose bit for bit (the hop
        recursion's sums, above it, need not)."""
        rng = np.random.default_rng(9)
        graphs = [random_graph(rng, max_nodes=7) for _ in range(3)]
        graphs += [random_digraph(rng, max_nodes=7) for _ in range(3)]
        for hops in range(5):
            assert 3 ** (hops + 1) * 2 ** hops <= K.MAP_WIDTH
            cfg = K.KernelConfig(0.5, hops)
            gram = np.array([[K.rw_kernel_dp(a, b, cfg) for b in graphs]
                             for a in graphs])
            assert np.array_equal(gram, gram.T), hops

    def test_walk_map_is_built_once_per_graph(self, monkeypatch):
        rng = np.random.default_rng(15)
        g1, g2, g3 = (random_graph(rng, max_nodes=6) for _ in range(3))
        built = []
        build = G.AttributedGraph._build_walk_map

        def counted(g, hops):
            built.append((g, hops))
            return build(g, hops)
        monkeypatch.setattr(G.AttributedGraph, "_build_walk_map", counted)
        cfg = K.KernelConfig(0.5, 3)
        first = K.rw_kernel_dp(g1, g2, cfg)
        phi = g1.walk_map(3)
        assert K.rw_kernel_dp(g1, g2, cfg) == first
        K.rw_kernel_dp(g3, g1, cfg)
        assert g1.walk_map(3) is phi
        assert built == [(g1, 3), (g2, 3), (g3, 3)]


class TestTheorem1:
    def make_stack(self, g, depth, seed, decay=0.5):
        return L.LayerStack("rw", g.d_node, g.d_link, hidden=4, depth=depth,
                            kernel_mode=True, constant_decay=decay, seed=seed)

    def test_base_case_dot_product_sum(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng)
        stack = self.make_stack(g, 1, seed=1)
        h0 = L.full_forward(g, stack)["H"][0]
        k = 2
        expected = sum(float(stack.layers[0].W.data[k] @ g.node_features[u])
                       for u in range(g.n_nodes))
        assert float(h0[:, k].sum()) == pytest.approx(expected, rel=1e-12)

    def test_zero_link_matrix_gives_zero(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng)
        stack = self.make_stack(g, 1, seed=2)
        stack.layers[1].U.data[...] = 0.0
        lhs, rhs = K.check_theorem1(g, stack, None, 0)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_equality_random_instances(self, depth):
        rng = np.random.default_rng(depth)
        for trial in range(10):
            g = random_graph(rng)
            stack = self.make_stack(g, depth, seed=int(rng.integers(2 ** 31)))
            k = int(rng.integers(stack.hidden))
            lhs, rhs = K.check_theorem1(g, stack, None, k)
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-9

    def test_equality_on_directed_graphs(self):
        rng = np.random.default_rng(14)
        for depth in (1, 2, 3):
            for trial in range(10):
                g = random_digraph(rng)
                stack = self.make_stack(g, depth,
                                        seed=int(rng.integers(2 ** 31)))
                k = int(rng.integers(stack.hidden))
                lhs, rhs = K.check_theorem1(g, stack, None, k)
                assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-9

    def test_rhs_equals_enumeration_against_path_graph(self):
        rng = np.random.default_rng(15)
        for make in (random_graph, random_digraph):
            for depth in (1, 2, 3):
                for trial in range(5):
                    g = make(rng)
                    stack = self.make_stack(g, depth, seed=trial)
                    cfg = K.KernelConfig(stack.constant_decay, depth)
                    for k in range(stack.hidden):
                        _, rhs = K.check_theorem1(g, stack, None, k)
                        en = K.rw_kernel_enumerate(
                            g, K.param_path_graph(stack, k), cfg)
                        assert abs(rhs - en) <= 1e-12 * max(1.0, abs(en))

    def test_acceptance_instances_match_enumeration(self):
        """test_01's instances, redrawn: its right-hand side (the hop
        recursion) equals walk enumeration against the path graph."""
        rng = np.random.default_rng(0)
        for depth in (1, 2, 3):
            for _ in range(50):
                g = random_graph(rng, max_nodes=8, d_node=3, d_link=2)
                stack = L.LayerStack("rw", 3, 2, hidden=4, depth=depth,
                                     kernel_mode=True, constant_decay=0.5,
                                     seed=int(rng.integers(2 ** 31)))
                k = int(rng.integers(stack.hidden))
                _, rhs = K.check_theorem1(g, stack, None, k)
                en = K.rw_kernel_enumerate(g, K.param_path_graph(stack, k),
                                           K.KernelConfig(0.5, depth))
                assert abs(rhs - en) <= 1e-12 * max(1.0, abs(en))

    def test_beyond_enumeration_budget(self, monkeypatch):
        rng = np.random.default_rng(16)
        n, depth = 30, 4
        links = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = G.AttributedGraph(rng.normal(size=(n, 3)), [None] * n, links,
                              rng.normal(size=(len(links), 2)), 1)
        assert K.count_walks(g, depth) > K.ENUM_BUDGET
        calls = []
        monkeypatch.setattr(K, "enumerate_walks",
                            lambda *a, **kw: calls.append(a))
        stack = self.make_stack(g, depth, seed=3)
        for k in range(stack.hidden):
            lhs, rhs = K.check_theorem1(g, stack, None, k)
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-9
        assert calls == []

    def test_decay_outside_kernel_config_range(self):
        rng = np.random.default_rng(17)
        g = random_graph(rng)
        stack = self.make_stack(g, 2, seed=4, decay=1.5)
        for k in range(stack.hidden):
            lhs, rhs = K.check_theorem1(g, stack, None, k)
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-9

    @pytest.mark.parametrize("k", [-1, 4, 5])
    def test_coordinate_out_of_range(self, k):
        rng = np.random.default_rng(9)
        g = random_graph(rng)
        stack = self.make_stack(g, 2, seed=0)
        assert stack.hidden == 4
        with pytest.raises(ValueError, match="outside 0..3"):
            K.check_theorem1(g, stack, None, k)

    @pytest.mark.parametrize("decay, hops", [(0.5, 1), (0.25, 2)])
    def test_config_must_match_stack(self, decay, hops):
        g = random_graph(np.random.default_rng(9))
        stack = self.make_stack(g, 2, seed=0)
        with pytest.raises(ValueError, match="disagrees with the layer stack"):
            K.check_theorem1(g, stack, K.KernelConfig(decay, hops), 0)

    def test_requires_kernel_mode(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng)
        stack = L.LayerStack("rw", g.d_node, g.d_link, hidden=4, depth=1, seed=0)
        with pytest.raises(ValueError):
            K.check_theorem1(g, stack, None, 0)


def _per_node_ok(lhs, rhs):
    return bool(np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(1.0, np.abs(rhs))))


def _sums_ok(lhs, rhs):
    a, b = lhs.sum(axis=0), rhs.sum(axis=0)
    return bool(np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))))


class TestTheorem1Nodes:
    """``theorem1_nodes``: the identity per node, and the pass the graph
    keeps for ``check_theorem1``."""

    def make_stack(self, g, depth, seed, hidden=4):
        return L.LayerStack("rw", g.d_node, g.d_link, hidden=hidden,
                            depth=depth, kernel_mode=True, seed=seed)

    @pytest.mark.parametrize("make", [random_graph, random_digraph])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_identity_per_node(self, make, depth):
        rng = np.random.default_rng(40 + depth)
        for trial in range(10):
            g = make(rng)
            stack = self.make_stack(g, depth, seed=trial)
            lhs, rhs = K.theorem1_nodes(g, stack)
            assert lhs.shape == rhs.shape == (g.n_nodes, stack.hidden)
            assert _per_node_ok(lhs, rhs)

    @pytest.mark.parametrize("make", [random_graph, random_digraph])
    def test_only_top_columns_of_the_union_are_nonzero(self, make):
        rng = np.random.default_rng(44)
        for depth in (1, 2, 3):
            g = make(rng)
            stack = self.make_stack(g, depth, seed=depth)
            m = K._walk_matrix(g, K.param_path_graph(stack), depth,
                               stack.constant_decay)
            top = np.zeros(m.shape[1], dtype=bool)
            top[depth::depth + 1] = True
            assert not m[:, ~top].any()
            assert np.array_equal(m[:, top], K.theorem1_nodes(g, stack)[1])

    def test_union_holds_each_coordinates_path(self):
        g = random_graph(np.random.default_rng(45))
        stack = self.make_stack(g, 3, seed=1)
        union = K.param_path_graph(stack)
        assert union.n_nodes == stack.hidden * 4
        for k in range(stack.hidden):
            path = K.param_path_graph(stack, k)
            nodes = slice(4 * k, 4 * k + 4)
            assert np.array_equal(union.node_features[nodes],
                                  path.node_features)
            assert np.array_equal(union.links[3 * k:3 * k + 3],
                                  path.links + 4 * k)
            assert np.array_equal(union.link_features[3 * k:3 * k + 3],
                                  path.link_features)

    def test_permuted_rows_fail_per_node_but_not_in_sums(self):
        """The per-node check sees what the column sums cannot: a forward
        whose rows land on the wrong nodes."""
        rng = np.random.default_rng(46)
        g = random_graph(rng, max_nodes=8)
        while g.n_nodes < 4:
            g = random_graph(rng, max_nodes=8)
        stack = self.make_stack(g, 2, seed=3)
        lhs, rhs = K.theorem1_nodes(g, stack)
        moved = np.roll(lhs, 1, axis=0)
        assert _per_node_ok(lhs, rhs) and _sums_ok(lhs, rhs)
        assert not _per_node_ok(moved, rhs)
        assert _sums_ok(moved, rhs)

    def test_one_forward_for_every_coordinate(self, monkeypatch):
        g = random_graph(np.random.default_rng(47))
        stack = self.make_stack(g, 3, seed=2, hidden=16)
        calls = []
        forward = K.layers.full_forward
        monkeypatch.setattr(K.layers, "full_forward",
                            lambda *a: calls.append(a) or forward(*a))
        pairs = [K.check_theorem1(g, stack, None, k) for k in range(16)]
        assert len(calls) == 1
        monkeypatch.undo()
        assert pairs == [theorem1_per_k(g, stack, k) for k in range(16)]

    def test_in_place_parameter_change_recomputes(self):
        g = random_graph(np.random.default_rng(48))
        stack = self.make_stack(g, 1, seed=4)
        lhs, rhs = K.check_theorem1(g, stack, None, 0)
        assert lhs != 0.0 and rhs != 0.0
        stack.layers[1].U.data[...] = 0.0
        assert K.check_theorem1(g, stack, None, 0) == (0.0, 0.0)

    def test_amplifier_flag_is_part_of_the_key(self):
        """Equal parameters under another amplifier give another forward."""
        g = random_graph(np.random.default_rng(52))
        plain = self.make_stack(g, 2, seed=9)
        squashed = L.LayerStack("rw", g.d_node, g.d_link, hidden=4, depth=2,
                                kernel_mode=True, amplifier_sigmoid=True,
                                seed=9)
        first = K.theorem1_nodes(g, plain)[0]
        lhs = K.theorem1_nodes(g, squashed)[0]
        assert not np.array_equal(lhs, first)
        assert np.array_equal(lhs, L.full_forward(g, squashed)["H"][-1])

    def test_alternating_stacks_share_one_slot(self, monkeypatch):
        g = random_graph(np.random.default_rng(49))
        a, b = (self.make_stack(g, 2, seed=s) for s in (5, 6))
        expect = {id(s): [theorem1_per_k(g, s, k) for k in range(4)]
                  for s in (a, b)}
        calls = []
        forward = K.layers.full_forward
        monkeypatch.setattr(K.layers, "full_forward",
                            lambda *x: calls.append(x) or forward(*x))
        for stack in (a, b, a, b):
            assert [K.check_theorem1(g, stack, None, k)
                    for k in range(4)] == expect[id(stack)]
        assert len(calls) == 4
        assert [name for name in vars(g) if "theorem1" in name] == ["_theorem1"]

    def test_memo_hit_still_validates(self):
        g = random_graph(np.random.default_rng(50))
        stack = self.make_stack(g, 2, seed=7)
        K.check_theorem1(g, stack, None, 0)
        with pytest.raises(ValueError, match="outside 0..3"):
            K.check_theorem1(g, stack, None, 4)
        with pytest.raises(ValueError, match="disagrees with the layer stack"):
            K.check_theorem1(g, stack, K.KernelConfig(0.5, 1), 0)
        other = L.LayerStack("rw", g.d_node, g.d_link, hidden=4, depth=2,
                             seed=7)
        with pytest.raises(ValueError, match="kernel-mode rw stack"):
            K.theorem1_nodes(g, other)

    def test_arrays_are_read_only(self):
        g = random_graph(np.random.default_rng(51))
        stack = self.make_stack(g, 2, seed=8)
        for a in K.theorem1_nodes(g, stack):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
