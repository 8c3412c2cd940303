"""Layer family: gates, amplifiers, the four architectures, gradients."""

import numpy as np
import pytest

from lase import autodiff as ad
from lase import graph as G
from lase import kernels as K
from lase import layers as L
from lase import sampling as S
from lase import training as T

from util import dot, finite_diff_worst, wl_relabel


def small_graph(seed=7, n=20):
    return G.synth_graph("interaction", n, seed=seed)


class TestGate:
    def test_zero_weights_give_half(self):
        g, _ = small_graph()
        stack = L.LayerStack("sage", g.d_node, g.d_link, hidden=4, depth=1, seed=0)
        p = stack.layers[1]
        p.V.data[...] = 0.0
        h = ad.Tensor2(np.ones(g.d_node))
        fe = ad.Tensor2(np.ones(g.d_link))
        assert L.gate(h, h, fe, p, stack).item() == 0.5

    def test_kernel_mode_constant(self):
        g, _ = small_graph()
        stack = L.LayerStack("rw", g.d_node, g.d_link, hidden=4, depth=1,
                             kernel_mode=True, constant_decay=0.3, seed=0)
        h = ad.Tensor2(np.full((4, 1), 9.0))
        fe = ad.Tensor2(np.ones(g.d_link))
        assert L.gate(h, h, fe, stack.layers[1], stack) == 0.3

    @pytest.mark.parametrize("kernel_mode, per_layer", [(True, 2), (False, 3)])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_gathers_per_rw_layer(self, kernel_mode, per_layer, depth,
                                  monkeypatch):
        """An rw layer gathers its neighbors' columns, the W f(u) column of
        each arc's destination and, unless the gate is kernel mode's
        constant, the destination's own column h_u."""
        g, _ = small_graph()
        stack = L.LayerStack("rw", g.d_node, g.d_link, hidden=4, depth=depth,
                             kernel_mode=kernel_mode, seed=0)
        calls = []
        gather = ad.gather

        def counted(a, idx):
            calls.append(len(idx))
            return gather(a, idx)

        monkeypatch.setattr(ad, "gather", counted)
        L.full_forward(g, stack)
        assert calls == [len(g.arc_src)] * (per_layer * depth)

    def test_gate_range(self):
        rng = np.random.default_rng(0)
        g, _ = small_graph()
        stack = L.LayerStack("sage", g.d_node, g.d_link, hidden=4, depth=1, seed=1)
        p = stack.layers[1]
        for _ in range(200):
            h_u = ad.Tensor2(rng.normal(size=g.d_node) * 10)
            h_v = ad.Tensor2(rng.normal(size=g.d_node) * 10)
            fe = ad.Tensor2(rng.normal(size=g.d_link) * 10)
            lam = L.gate(h_u, h_v, fe, p, stack).item()
            assert 0.0 < lam < 1.0


class TestAmplifier:
    def setup_method(self):
        g, _ = small_graph()
        self.stack = L.LayerStack("sage", g.d_node, g.d_link, hidden=4,
                                  depth=1, seed=2)
        self.p = self.stack.layers[1]

    def test_all_ones_amp_is_identity(self):
        # Rows of U summing to 1 with fe = ones make U fe = 1s.
        self.p.U.data[...] = 1.0 / self.stack.d_link
        h = ad.Tensor2([1.0, -2.0, 3.0])
        fe = ad.Tensor2(np.ones(self.stack.d_link))
        out = L.amplifier(h, fe, self.p, self.stack)
        assert np.allclose(out.data, h.data, atol=1e-12)

    def test_zero_u_gives_zero(self):
        self.p.U.data[...] = 0.0
        h = ad.Tensor2([1.0, -2.0, 3.0])
        fe = ad.Tensor2(np.ones(self.stack.d_link))
        out = L.amplifier(h, fe, self.p, self.stack)
        assert np.array_equal(out.data, np.zeros((3, 1)))

    def test_zero_u_with_sigmoid_halves(self):
        self.stack.amplifier_sigmoid = True
        self.p.U.data[...] = 0.0
        h = ad.Tensor2([2.0, -4.0, 6.0])
        fe = ad.Tensor2(np.ones(self.stack.d_link))
        out = L.amplifier(h, fe, self.p, self.stack)
        assert np.allclose(out.data[:, 0], [1.0, -2.0, 3.0])

    def test_gradient_on_u(self):
        rng = np.random.default_rng(3)
        h = rng.uniform(-1, 1, 3)
        fe = rng.uniform(-1, 1, self.stack.d_link)

        def loss_fn():
            out = L.amplifier(ad.Tensor2(h), ad.Tensor2(fe), self.p, self.stack)
            return dot(out, out)

        assert finite_diff_worst([("U", self.p.U)], loss_fn) < 1e-4


class TestForwardShapes:
    def test_rw_single_neighbor_product(self):
        nf = np.array([[1.0, 2.0], [0.5, -1.0]])
        lf = np.array([[1.0]])
        g = G.AttributedGraph(nf, [None, None], [(0, 1)], lf, 1)
        stack = L.LayerStack("rw", 2, 1, hidden=3, depth=1, kernel_mode=True,
                             constant_decay=1.0, seed=4)
        stack.layers[1].U.data[...] = 1.0  # U fe = ones
        h = L.full_forward(g, stack)["H"]
        w0, w1 = stack.layers[0].W.data, stack.layers[1].W.data
        expected = (w0 @ nf[1]) * (w1 @ nf[0])
        assert np.allclose(h[1][0], expected, atol=1e-12)

    def test_isolated_node_zero_vector(self):
        nf = np.ones((3, 2))
        g = G.AttributedGraph(nf, [None] * 3, [(0, 1)], np.ones((1, 1)), 1)
        for arch in ("rw", "wl", "sage"):
            stack = L.LayerStack(arch, 2, 1, hidden=3, depth=1, seed=5)
            h = L.full_forward(g, stack)["H"][-1]
            if arch == "sage":
                # neighbor half is zero; self transform remains
                z2 = stack.layers[1].W2.data @ np.zeros(2)
                assert np.allclose(h[2][stack.hidden:],
                                   np.maximum(z2, 0.0))
            else:
                assert np.array_equal(h[2], np.zeros(stack.hidden))

    def test_sage_self_only_when_w2_zero(self):
        g, _ = small_graph()
        stack = L.LayerStack("sage", g.d_node, g.d_link, hidden=4, depth=1,
                             combine="sum", seed=6)
        stack.layers[1].W2.data[...] = 0.0
        h = L.full_forward(g, stack)["H"][-1]
        for u in range(g.n_nodes):
            expected = np.maximum(stack.layers[1].W1.data @ g.node_features[u], 0)
            assert np.allclose(h[u], expected, atol=1e-12)

    @pytest.mark.parametrize("arch, kw, match", [
        ("rw", {"depth": 0}, "depth must be"),
        ("sage", {"kernel_mode": True}, "rw architecture"),
    ])
    def test_bad_stack_is_an_error(self, arch, kw, match):
        with pytest.raises(ValueError, match=match):
            L.LayerStack(arch, 2, 1, hidden=3, **kw)

    def test_concat_empty_neighborhood(self):
        nf = np.ones((3, 2))
        g = G.AttributedGraph(nf, [None] * 3, [(0, 1)], np.ones((1, 1)), 1)
        stack = L.LayerStack("concat", 2, 1, hidden=3, depth=1, seed=7)
        h = L.full_forward(g, stack)["H"][-1]
        assert np.array_equal(h[2], np.zeros(3))


class TestWlRelabel:
    def test_p2_zero_decouples_neighborhood(self):
        g, _ = small_graph()
        stack = L.LayerStack("wl", g.d_node, g.d_link, hidden=4, depth=1,
                             wl_depth=3, seed=8)
        stack.P2.data[...] = 0.0
        r = wl_relabel(g, stack, 2)
        expected = g.node_features.copy()
        for _ in range(2):
            expected = 1 / (1 + np.exp(-(expected @ stack.P1.data.T)))
        assert np.allclose(r, expected, atol=1e-12)

    def test_isolated_node(self):
        nf = np.array([[0.5, 0.5], [1.0, 1.0], [2.0, 0.0]])
        g = G.AttributedGraph(nf, [None] * 3, [(0, 1)], np.ones((1, 1)), 1)
        stack = L.LayerStack("wl", 2, 1, hidden=3, depth=1, wl_depth=2, seed=9)
        r = wl_relabel(g, stack, 1)
        expected = 1 / (1 + np.exp(-(stack.P1.data @ nf[2])))
        assert np.allclose(r[2], expected, atol=1e-12)

    def test_relabel_multiset_permutation_invariant(self):
        g, _ = small_graph(seed=11, n=24)
        perm = np.random.default_rng(1).permutation(g.n_nodes)
        inv = np.argsort(perm)
        links = [(int(perm[s]), int(perm[d])) for s, d in g.links]
        g2 = G.AttributedGraph(g.node_features[inv], [None] * g.n_nodes,
                               links, g.link_features, g.n_labels)
        stack = L.LayerStack("wl", g.d_node, g.d_link, hidden=3, depth=1,
                             wl_depth=2, seed=10)
        r1 = wl_relabel(g, stack, 1)
        r2 = wl_relabel(g2, stack, 1)
        s1 = sorted(tuple(row) for row in np.round(r1, 9))
        s2 = sorted(tuple(row) for row in np.round(r2, 9))
        assert s1 == s2


class TestFigure3:
    def test_concat_blind_sage_and_rw_discriminate(self):
        g, _ = G.synth_graph("concat-blind", 12, seed=12)
        u, u2 = G.concat_blind_duos(g)[0]
        stack = L.LayerStack("concat", g.d_node, g.d_link, hidden=6, depth=1,
                             seed=13)
        h = L.full_forward(g, stack)["H"][-1]
        assert np.max(np.abs(h[u] - h[u2])) < 1e-12
        hits = {"rw": 0, "sage": 0}
        for arch in hits:
            for s in range(20):
                st = L.LayerStack(arch, g.d_node, g.d_link, hidden=6, depth=1,
                                  seed=100 + s)
                hh = L.full_forward(g, st)["H"][-1]
                if np.max(np.abs(hh[u] - hh[u2])) > 1e-6:
                    hits[arch] += 1
        assert hits["rw"] >= 19 and hits["sage"] >= 19


class TestInvariance:
    def test_link_order_invariance(self):
        g, _ = small_graph(seed=14, n=18)
        order = np.random.default_rng(2).permutation(g.n_links)
        links = [g.links[i] for i in order]
        lf = g.link_features[order]
        g2 = G.AttributedGraph(g.node_features, g.labels, links, lf,
                               g.n_labels)
        cfg = K.KernelConfig(0.5, 2)
        assert K.rw_kernel_dp(g, g, cfg) == K.rw_kernel_dp(g2, g2, cfg)
        kstack = L.LayerStack("rw", g.d_node, g.d_link, hidden=4, depth=2,
                              kernel_mode=True, seed=15)
        for k in range(kstack.hidden):
            assert (K.check_theorem1(g, kstack, cfg, k)
                    == K.check_theorem1(g2, kstack, cfg, k))
        batch = [3, 0, 11, 7]
        plan = S.SamplePlan(strategy="uniform", sample_size=2)
        for arch in ("rw", "wl", "sage", "concat"):
            stack = L.LayerStack(arch, g.d_node, g.d_link, hidden=4, depth=2,
                                 seed=15)
            h1 = L.full_forward(g, stack)["H"][-1]
            h2 = L.full_forward(g2, stack)["H"][-1]
            assert np.array_equal(h1, h2)
            st1, st2 = S.SamplerState(), S.SamplerState()
            S.refresh(st1, g, stack, plan, batch)
            S.refresh(st2, g2, stack, plan, batch)
            with ad.Tape():
                t1 = L.forward(g, stack, batch).data
                t2 = L.forward(g2, stack, batch).data
                s1 = L.forward(g, stack, batch, plan, st1,
                               np.random.default_rng(3)).data
                s2 = L.forward(g2, stack, batch, plan, st2,
                               np.random.default_rng(3)).data
            assert np.array_equal(t1, t2)
            assert np.array_equal(s1, s2)


class TestTapedMatchesFull:
    @pytest.mark.parametrize("kw", [
        dict(arch="rw"), dict(arch="wl"), dict(arch="sage"),
        dict(arch="concat"), dict(arch="sage", combine="hadamard"),
        dict(arch="rw", amplifier_sigmoid=True)])
    def test_batch_columns_equal_full_rows(self, kw):
        g, _ = small_graph(seed=18, n=20)
        stack = L.LayerStack(d_node=g.d_node, d_link=g.d_link, hidden=4,
                             depth=2, seed=19, **kw)
        full = L.full_forward(g, stack)["H"][-1]
        batch = [5, 17, 2, 9, 0]
        with ad.Tape():
            taped = L.forward(g, stack, batch).data
        assert taped.shape == (stack.out_dim, len(batch))
        scale = np.max(np.abs(full))
        assert np.max(np.abs(taped.T - full[batch])) <= 1e-12 * scale


class TestGradients:
    @pytest.mark.parametrize("arch", L.ARCHITECTURES)
    def test_full_stack_finite_difference(self, arch):
        g, split = small_graph(seed=16, n=16)
        run = T.TrainRun(arch=arch, hidden=4, depth=2, seed=1, max_epochs=1)
        model = T.build_model(g, run)
        batch = list(split.train)[:4]

        def loss_fn():
            return T.batch_loss(g, model, batch)

        assert finite_diff_worst(model.parameters(), loss_fn) < 1e-4

    @pytest.mark.parametrize("strategy", ["uniform", "gate", "minvar"])
    @pytest.mark.parametrize("arch", L.ARCHITECTURES)
    def test_sampled_stack_finite_difference(self, arch, strategy):
        """Gradients through the importance-sampled forward, whose sums
        scale each drawn summand by its coefficient.  One refresh fixes the
        distributions and a fresh generator per evaluation the draws, so
        every evaluation runs over the same sampled field.  Gaussian
        features keep the ReLUs away from their kinks."""
        g, split = G.synth_graph("random", 24, seed=3)
        run = T.TrainRun(arch=arch, hidden=4, depth=2, seed=2, max_epochs=1)
        model = T.build_model(g, run)
        batch = list(split.train)[:4]
        plan = S.SamplePlan(strategy=strategy, sample_size=2)
        state = S.SamplerState()
        S.refresh(state, g, model.stack, plan, batch)

        def loss_fn():
            return T.batch_loss(g, model, batch, plan, state,
                                np.random.default_rng(5))

        assert finite_diff_worst(model.parameters(), loss_fn) < 1e-4
