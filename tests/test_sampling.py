"""Sampling distributions, estimator unbiasedness and variance."""

import gc
import tracemalloc
import types

import numpy as np
import pytest

from lase import autodiff as ad
from lase import graph as G
from lase import layers as L
from lase import sampling as S
from lase import training as T

from util import degree


def hub_graph(leaves, seed=0):
    """A ring of ``leaves`` nodes, 1 to ``leaves``, each also linked to node
    0, the hub."""
    rng = np.random.default_rng(seed)
    links = ([(0, v) for v in range(1, leaves + 1)]
             + [(v, v % leaves + 1) for v in range(1, leaves + 1)])
    return G.AttributedGraph(rng.random((leaves + 1, 3)),
                             [v % 2 for v in range(leaves + 1)], links,
                             rng.random((len(links), 2)), 2)


def rows_of(nodes, served):
    """(node, probability row) of each row of a ``sampling.layer_probs``
    result for ``nodes``."""
    order, ptr, _, p, _ = served
    return zip(np.asarray(nodes)[order].tolist(),
               [p[a:b] for a, b in zip(ptr, ptr[1:])])


def record_served(monkeypatch, seen):
    """Call seen(state, l, u, row) for each distribution a sampled field
    draws from: each ``plan_probs`` result (the walk above layer 1) and each
    row of a ``layer_probs`` result (layer 1).  Returns the unwrapped
    ``plan_probs``."""
    layer_probs, plan_probs = S.layer_probs, S.plan_probs

    def rows(g, state, l, nodes):
        out = layer_probs(g, state, l, nodes)
        for u, row in rows_of(nodes, out):
            seen(state, l, u, row)
        return out

    def row(g, stack, state, plan, l, u):
        out = plan_probs(g, stack, state, plan, l, u)
        seen(state, l, u, out)
        return out

    monkeypatch.setattr(S, "layer_probs", rows)
    monkeypatch.setattr(S, "plan_probs", row)
    return plan_probs


def stack_and_ctx(seed=0, n=40):
    g, split = G.synth_graph("interaction", n, seed=seed)
    stack = L.LayerStack("sage", g.d_node, g.d_link, hidden=4, depth=1,
                         seed=seed)
    return g, split, stack, L.full_forward(g, stack)


class TestDistributions:
    def test_uniform_degree_four(self):
        assert np.array_equal(S.probs_uniform(4), np.full(4, 0.25))

    def test_empty_neighborhood_error(self):
        with pytest.raises(ValueError, match="empty neighborhood"):
            S.probs_uniform(0)
        with pytest.raises(ValueError, match="empty neighborhood"):
            S.probs_from_gates([])
        with pytest.raises(ValueError, match="empty neighborhood"):
            S.probs_minvar_weights([], np.zeros((0, 2)))

    def test_equal_norms_gate_equals_minvar(self):
        lam = np.array([0.2, 0.5, 0.3])
        gmat = np.array([[1.0, 0.0], [0.0, -1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        assert np.allclose(S.probs_from_gates(lam),
                           S.probs_minvar_weights(lam, gmat))

    def test_minvar_norm_ratio(self):
        lam = np.array([0.5, 0.5])
        gmat = np.array([[1.0], [3.0]])
        assert np.allclose(S.probs_minvar_weights(lam, gmat), [0.25, 0.75])

    def test_probabilities_floored_and_normalized(self):
        lam = np.array([0.0, 1.0])
        p = S.probs_from_gates(lam)
        assert p.min() >= S.EPS / 2 and p.sum() == pytest.approx(1.0, abs=1e-12)


class TestDraw:
    @pytest.mark.parametrize("kind", ["uniform", "random", "floored"])
    def test_draw_matches_generator_choice(self, kind):
        """The same indices as ``Generator.choice`` with replacement, and the
        generator left in the same state; ``draw_rows`` gives them too, for
        the twelve distributions laid end to end."""
        for seed in range(12):
            ps = []
            for deg in range(1, 13):
                r = np.random.default_rng((seed, deg))
                if kind == "uniform":
                    p = S.probs_uniform(deg)
                elif kind == "random":
                    p = S.probs_from_gates(r.random(deg))
                else:
                    p = S.probs_from_gates(r.random(deg) * (r.random(deg) < 0.5))
                ps.append(p)
                for s in (1, 3, 8):
                    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = S.draw(p, s, a)
                    assert np.array_equal(got, b.choice(deg, size=s, p=p))
                    assert a.random() == b.random()
            ptr = np.cumsum([0] + [len(p) for p in ps])
            cdf = np.concatenate([p.cumsum() / p.cumsum()[-1] for p in ps])
            for s in (1, 3, 8):
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = (S.draw_rows(ptr, cdf, a.random((len(ps), s)))
                       - ptr[:-1, None])
                for row, p in zip(got, ps):
                    assert np.array_equal(row, b.choice(len(p), size=s, p=p))
                assert a.random() == b.random()

    @pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [-0.1, 0.6, 0.5]])
    def test_draw_rejects_what_choice_rejects(self, bad):
        p = np.array(bad)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(3, size=2, p=p)
        with pytest.raises(ValueError, match="negative or NaN"):
            S.draw(p, 2, np.random.default_rng(0))

    def test_uncovered_node_is_an_error(self):
        """A (layer, node) no refresh has weighed has NaN weights; drawing
        from them is an error, not a silent draw of its first neighbor."""
        g, _, stack, _ = stack_and_ctx(seed=5)
        plan = S.SamplePlan(strategy="minvar", sample_size=2)
        state = S.SamplerState()
        u, v = [u for u in range(g.n_nodes) if degree(g, u)][:2]
        S.refresh(state, g, stack, plan, [u])
        assert np.isfinite(S.plan_probs(g, stack, state, plan, 1, u)).all()
        p = S.plan_probs(g, stack, state, plan, 1, v)
        assert np.isnan(p).all()
        with pytest.raises(ValueError, match="negative or NaN"):
            S.draw(p, 2, np.random.default_rng(0))
        with pytest.raises(ValueError, match="negative or NaN"):
            L.forward(g, stack, [v], plan, state, np.random.default_rng(0))

    @pytest.mark.parametrize("arch", ["sage", "concat"])
    def test_uncovered_node_below_the_top_is_an_error(self, arch):
        """At depth 2 a drawn layer-1 node whose arc weights are NaN makes
        the batched layer-1 draw an error."""
        g, split = G.synth_graph("interaction", 40, seed=5)
        stack = L.LayerStack(arch, g.d_node, g.d_link, hidden=4, depth=2,
                             seed=5)
        plan = S.SamplePlan(strategy="minvar", sample_size=2)
        state = S.SamplerState()
        u = split.train[0]
        S.refresh(state, g, stack, plan, [u])
        nodes, _ = L._sampled_field(g, stack, [u], plan, state,
                                    np.random.default_rng(0))
        v = next(v for v in nodes[1].tolist() if degree(g, v))
        state.weights[1][g.arc_ptr[v]:g.arc_ptr[v + 1]] = np.nan
        with pytest.raises(ValueError, match="negative or NaN"):
            L.forward(g, stack, [u], plan, state, np.random.default_rng(0))

    @pytest.mark.parametrize("strategy", ["uniform", "minvar"])
    def test_layer_probs_serve_each_row_once_by_degree(self, strategy):
        """Rows come in order of degree and hold each node's arcs,
        distribution and cdf once: as many entries as the degrees summed."""
        g = hub_graph(50)
        stack = L.LayerStack("sage", g.d_node, g.d_link, hidden=4, depth=1,
                             seed=0)
        plan = S.SamplePlan(strategy=strategy, sample_size=2)
        state = S.SamplerState()
        S.refresh(state, g, stack, plan)
        nodes = np.array([5, 0, 7, 5, 3])
        order, ptr, arcs, p, cdf = S.layer_probs(g, state, 1, nodes)
        assert order.tolist() == [0, 2, 3, 4, 1]  # the hub, node 0, last
        assert np.array_equal(np.diff(ptr), [3, 3, 3, 3, 50])
        assert len(arcs) == len(p) == len(cdf) == ptr[-1]
        for (u, row), lo, hi in zip(rows_of(nodes, (order, ptr, arcs, p, cdf)),
                                    ptr, ptr[1:]):
            assert np.array_equal(arcs[lo:hi], np.arange(g.arc_ptr[u],
                                                         g.arc_ptr[u + 1]))
            want = (S.probs_uniform(degree(g, u)) if strategy == "uniform"
                    else S.plan_probs(g, stack, state, plan, 1, u))
            assert np.array_equal(row, want)
            assert np.array_equal(cdf[lo:hi], want.cumsum() / want.cumsum()[-1])

    def test_sampled_field_memory_follows_the_degrees(self):
        """A hub does not widen the rows of the other nodes: a depth-2 field
        whose layer 1 holds a hub of degree 4000 and about 190 leaves draws
        in under 1 MB, where rows padded to the hub's degree take over 20."""
        g = hub_graph(4000)
        stack = L.LayerStack("sage", g.d_node, g.d_link, hidden=4, depth=2,
                             seed=0)
        plan = S.SamplePlan(strategy="gate", sample_size=8)
        state = S.SamplerState()
        batch = np.arange(1, 4001, 60)
        S.refresh(state, g, stack, plan, batch)
        tracemalloc.start()
        try:
            nodes, _ = L._sampled_field(g, stack, batch, plan, state,
                                        np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 in nodes[1] and len(nodes[1]) > 150
        assert peak < 2 ** 20, peak

    def test_sampled_field_leaves_no_cyclic_garbage(self):
        """The field a batch drew is freed when the caller drops it, not at
        the collector's next full pass."""
        g, split = G.synth_graph("interaction", 40, seed=7)
        stack = L.LayerStack("sage", g.d_node, g.d_link, hidden=4, depth=2,
                             seed=7)
        plan = S.SamplePlan(strategy="minvar", sample_size=3)
        state = S.SamplerState()
        S.refresh(state, g, stack, plan, split.train[:8])
        gc.collect()
        gc.disable()
        try:
            L._sampled_field(g, stack, split.train[:8], plan, state,
                             np.random.default_rng(0))
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestNumpyRowReductions:
    """Two numpy behaviours the batched draws rely on, bit for bit; a numpy
    that changes its reduction order fails here."""

    @staticmethod
    def blocks(seed):
        """Random positive (rows, d) weight blocks for degrees 1-64, taken
        from a longer array the way ``sampling.layer_probs`` takes them: a
        run of rows * d entries, reshaped."""
        rng = np.random.default_rng(seed)
        for d in range(1, 65):
            for rows in (1, 2, 7, 40):
                flat = np.maximum(rng.random((rows + 3) * d + 5) ** 3, S.EPS)
                ofs = int(rng.integers(0, 3 * d + 6))
                yield flat[ofs:ofs + rows * d].reshape(rows, d)

    def test_row_sums_equal_each_rows_sum(self):
        for W in self.blocks(0):
            assert W.flags.c_contiguous
            want = np.array([w.sum() for w in W])
            assert np.array_equal(W.sum(axis=1), want), W.shape
            assert np.array_equal(W.sum(axis=1, keepdims=True)[:, 0], want)

    def test_row_cumsums_equal_each_rows_cumsum(self):
        for W in self.blocks(1):
            P = W / W.sum(axis=1, keepdims=True)
            got = np.empty(P.size + 2)[1:-1].reshape(P.shape)
            P.cumsum(axis=1, out=got)
            for p, row in zip(P, got):
                assert np.array_equal(row, p.cumsum()), P.shape


class TestSummand:
    def test_full_sum_matches_layer_term(self):
        g, _, stack, ctx = stack_and_ctx(seed=1)
        stack2 = L.LayerStack("sage", g.d_node, g.d_link, hidden=4, depth=1,
                              combine="sum", seed=1)
        ctx = L.full_forward(g, stack2)
        h = ctx["H"]
        for u in range(6):
            if not degree(g, u):
                continue
            lam, gmat = S.neighborhood_terms(g, ctx, 1, u)
            nbsum = np.zeros(gmat.shape[1])
            for j in range(lam.size):
                nbsum = nbsum + lam[j] * gmat[j]
            p = stack2.layers[1]
            expected = np.maximum(p.W1.data @ h[0][u] + p.W2.data @ nbsum, 0.0)
            assert np.allclose(h[1][u], expected, atol=1e-12)


def kernel_stack(g, depth, seed=5):
    """Kernel-mode rw stack: constant gates, no activations, so the output
    is linear in every neighbor sum and the sampled forward is unbiased at
    any depth."""
    return L.LayerStack("rw", g.d_node, g.d_link, hidden=3, depth=depth,
                        kernel_mode=True, constant_decay=0.5, seed=seed)


def path_graph(n=4, seed=0):
    rng = np.random.default_rng(seed)
    links = [(u, u + 1) for u in range(n - 1)]
    return G.AttributedGraph(rng.normal(size=(n, 3)), [None] * n, links,
                             rng.normal(size=(n - 1, 2)), 1)


class TestEstimator:
    """``layers.forward`` under a sampling plan: the estimator training runs,
    (1/s) sum_j gate * term / p_j per (layer, node)."""

    def test_degree_one_exact(self):
        g = path_graph()
        stack = L.LayerStack("sage", g.d_node, g.d_link, hidden=4, depth=1,
                             seed=0)
        full = L.forward(g, stack, [0, 3]).data
        rng = np.random.default_rng(0)
        for s in (1, 3, 10):
            plan = S.SamplePlan(strategy="uniform", sample_size=s)
            state = S.SamplerState()
            S.refresh(state, g, stack, plan)
            est = L.forward(g, stack, [0, 3], plan, state, rng)
            assert np.allclose(est.data, full, rtol=0, atol=1e-12)

    def test_zero_summands_give_zero(self):
        g, _ = G.synth_graph("interaction", 40, seed=5)
        stack = kernel_stack(g, depth=2)
        for p in stack.layers[1:]:
            p.U.data[...] = 0.0
        plan = S.SamplePlan(strategy="uniform", sample_size=5)
        state = S.SamplerState()
        S.refresh(state, g, stack, plan)
        est = L.forward(g, stack, list(range(8)), plan, state,
                        np.random.default_rng(1))
        assert np.array_equal(est.data, np.zeros((3, 8)))

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("strategy", ["uniform", "minvar"])
    def test_sampled_forward_unbiased(self, depth, strategy):
        g, _ = G.synth_graph("interaction", 40, seed=5)
        stack = kernel_stack(g, depth)
        plan = S.SamplePlan(strategy=strategy, sample_size=2)
        state = S.SamplerState()
        S.refresh(state, g, stack, plan)
        batch = [u for u in range(g.n_nodes) if degree(g, u)][:6]
        full = L.forward(g, stack, batch).data
        rng = np.random.default_rng(21)
        n = 1500
        ests = np.stack([L.forward(g, stack, batch, plan, state, rng).data
                         for _ in range(n)])
        mean = ests.mean(axis=0)
        se = ests.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - full) <= 4.5 * se + 1e-12)

    @pytest.mark.parametrize("strategy", ["uniform", "gate", "minvar"])
    def test_unbiasedness(self, strategy):
        rng = np.random.default_rng(11)
        lam = rng.uniform(0.1, 0.9, size=6)
        gmat = rng.normal(size=(6, 3))
        if strategy == "uniform":
            p = S.probs_uniform(6)
        elif strategy == "gate":
            p = S.probs_from_gates(lam)
        else:
            p = S.probs_minvar_weights(lam, gmat)
        full = (lam[:, None] * gmat).sum(axis=0)
        n = 40000
        draws = rng.choice(6, size=n, p=p)
        ests = lam[draws, None] * gmat[draws] / p[draws, None]
        mean = ests.mean(axis=0)
        se = ests.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - full) <= 3.5 * se + 1e-12)


class TestVariance:
    def test_degree_one_zero_variance(self):
        assert S.estimator_variance([0.4], [[1.0, 2.0]], [1.0]) == 0.0

    def test_symmetric_pair_optimum(self):
        lam = np.array([1.0, 1.0])
        gmat = np.array([[1.0], [1.0]])
        best = S.estimator_variance(lam, gmat, [0.5, 0.5])
        for q in (0.2, 0.35, 0.65, 0.8):
            assert best <= S.estimator_variance(lam, gmat, [q, 1 - q]) + 1e-12

    def test_one_dim_same_sign_collapse(self):
        lam = np.array([0.5, 0.25, 0.8])
        gmat = np.array([[1.0], [4.0], [0.5]])
        p = S.probs_minvar_weights(lam, gmat)
        assert S.estimator_variance(lam, gmat, p) == pytest.approx(0.0, abs=1e-12)

    def test_analytic_matches_empirical(self):
        rng = np.random.default_rng(12)
        lam = rng.uniform(0.1, 0.9, size=5)
        gmat = rng.normal(size=(5, 2))
        p = S.probs_uniform(5)
        analytic = S.estimator_variance(lam, gmat, p)
        draws = rng.choice(5, size=200000, p=p)
        ests = lam[draws, None] * gmat[draws] / p[draws, None]
        empirical = float(np.sum(np.var(ests, axis=0)))
        assert empirical == pytest.approx(analytic, rel=0.05)

    def test_minvar_is_optimal(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            deg = int(rng.integers(2, 9))
            lam = rng.uniform(0.05, 0.95, size=deg)
            gmat = rng.normal(size=(deg, 3))
            pm = S.probs_minvar_weights(lam, gmat)
            vm = S.estimator_variance(lam, gmat, pm)
            assert vm <= S.estimator_variance(
                lam, gmat, S.probs_from_gates(lam)) + 1e-9
            assert vm <= S.estimator_variance(
                lam, gmat, S.probs_uniform(deg)) + 1e-9


class TestRefresh:
    def test_interval_one_recomputes_every_batch(self):
        g, split, stack, _ = stack_and_ctx(seed=2)
        plan = S.SamplePlan(strategy="minvar", sample_size=2, refresh_interval=1)
        state = S.SamplerState()
        assert S.refresh(state, g, stack, plan)
        assert S.refresh(state, g, stack, plan)
        assert state.refresh_count == 2

    def test_large_interval_computes_once(self):
        g, split, stack, _ = stack_and_ctx(seed=3)
        plan = S.SamplePlan(strategy="minvar", sample_size=2,
                            refresh_interval=1000)
        state = S.SamplerState()
        for _ in range(10):
            S.refresh(state, g, stack, plan)
        assert state.refresh_count == 1

    def test_idempotent_under_fixed_params(self):
        g, split, stack, _ = stack_and_ctx(seed=4)
        plan = S.SamplePlan(strategy="minvar", sample_size=2, refresh_interval=1)
        s1, s2 = S.SamplerState(), S.SamplerState()
        S.refresh(s1, g, stack, plan)
        S.refresh(s2, g, stack, plan)
        for l in range(1, stack.depth + 1):
            assert np.array_equal(s1.weights[l], s2.weights[l])
            for u in range(g.n_nodes):
                if degree(g, u):
                    assert np.array_equal(
                        S.plan_probs(g, stack, s1, plan, l, u),
                        S.plan_probs(g, stack, s2, plan, l, u))

    @pytest.mark.parametrize("arch", ["sage", "rw", "wl", "concat"])
    @pytest.mark.parametrize("strategy", ["gate", "minvar"])
    def test_matches_per_node_distributions(self, arch, strategy):
        g, _ = G.synth_graph("interaction", 40, seed=7)
        stack = L.LayerStack(arch, g.d_node, g.d_link, hidden=4, depth=2,
                             seed=7)
        plan = S.SamplePlan(strategy=strategy, sample_size=2)
        state = S.SamplerState()
        S.refresh(state, g, stack, plan)
        ctx = L.full_forward(g, stack)
        for l in (1, 2):
            for u in range(g.n_nodes):
                if not degree(g, u):
                    continue
                lam, gmat = S.neighborhood_terms(g, ctx, l, u)
                expected = (S.probs_from_gates(lam) if strategy == "gate"
                            else S.probs_minvar_weights(lam, gmat))
                got = S.plan_probs(g, stack, state, plan, l, u)
                assert np.array_equal(got, expected), (l, u)

    @pytest.mark.parametrize("interval", [1, 3])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("arch", ["sage", "rw", "wl", "concat"])
    @pytest.mark.parametrize("strategy", ["gate", "minvar"])
    def test_batch_refresh_matches_full_refresh(self, strategy, arch, depth,
                                                interval, monkeypatch):
        """Every distribution a batch is served after ``refresh(..., batch)``
        equals the one of an eager refresh over every node taken at the same
        time.  With interval 3 an Adam step separates the batches, so a node
        first visited after it must still be weighed under the parameters of
        the refresh."""
        served, layers_served = [], set()
        plan_probs = record_served(
            monkeypatch, lambda state, l, u, row: served.append((l, u, row)))
        g, split = G.synth_graph("interaction", 40, seed=7)
        run = T.TrainRun(arch=arch, hidden=4, depth=depth, lr=0.05, seed=7)
        model = T.build_model(g, run)
        opt = T.make_optimizer(run, model)
        plan = S.SamplePlan(strategy=strategy, sample_size=2,
                            refresh_interval=interval)
        batched, eager = S.SamplerState(), S.SamplerState()
        rng = np.random.default_rng(3)
        for ofs in range(0, 24, 4):
            batch = split.train[ofs:ofs + 4]
            due = S.refresh(batched, g, model.stack, plan, batch)
            assert S.refresh(eager, g, model.stack, plan) == due
            served.clear()
            with ad.Tape() as tape:
                loss = T.batch_loss(g, model, batch, plan, batched, rng)
                model.zero_grad()
                tape.backward(loss)
            opt.step()
            assert served
            for l, u, p in served:
                layers_served.add(l)
                expected = plan_probs(g, model.stack, eager, plan, l, u)
                np.testing.assert_allclose(p, expected, rtol=1e-12, atol=0,
                                           err_msg=str((l, u)))
        assert layers_served == set(range(1, depth + 1))

    @pytest.mark.parametrize("strategy", ["gate", "minvar"])
    def test_sampled_batches_never_fall_back(self, strategy, monkeypatch):
        served = {}

        def recorded(state, l, u, row):
            """Whether the row served is its node's normalized refresh
            weights, not a uniform fallback."""
            w = state.weights[l][g.arc_ptr[u]:g.arc_ptr[u + 1]]
            served.setdefault((l, u), []).append(
                np.array_equal(row, w / w.sum()))

        record_served(monkeypatch, recorded)
        g, split = G.synth_graph("interaction", 80, seed=9)
        plan = S.SamplePlan(strategy=strategy, sample_size=3,
                            refresh_interval=3)
        run = T.TrainRun(arch="sage", hidden=4, depth=2, batch_size=8,
                         max_epochs=1, patience=1, seed=0, plan=plan)
        T.train(g, split, run)
        assert all(all(hits) for hits in served.values())
        assert {l for l, _ in served} == {1, 2}
        assert {u for l, u in served if l == 1} - set(split.train)

    def test_sampled_training_weighs_only_batch_fields(self, monkeypatch):
        """A depth-2 minvar training never runs a full-graph forward for the
        sampler, and every distribution it serves is built from arcs weighed
        since the last refresh."""
        calls, served = [], []

        def counted(*args):
            calls.append(args)
            return L.full_forward(*args)

        monkeypatch.setattr(S, "layers", types.SimpleNamespace(
            **{**vars(L), "full_forward": counted}))
        def recorded(state, l, u, row):
            lo, hi = g.arc_ptr[u], g.arc_ptr[u + 1]
            served.append((l, np.isfinite(state.weights[l][lo:hi]).all()))

        record_served(monkeypatch, recorded)
        g, split = G.synth_graph("interaction", 80, seed=9)
        plan = S.SamplePlan(strategy="minvar", sample_size=3,
                            refresh_interval=3)
        run = T.TrainRun(arch="sage", hidden=4, depth=2, batch_size=8,
                         max_epochs=2, patience=2, seed=0, plan=plan)
        T.train(g, split, run)
        assert calls == []
        assert {l for l, _ in served} == {1, 2}
        assert all(finite for _, finite in served)

    def test_uniform_refresh_runs_no_forward(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return L.full_forward(*args)

        monkeypatch.setattr(S, "layers", types.SimpleNamespace(
            full_forward=counted))
        g, split = G.synth_graph("interaction", 60, seed=8)
        plan = S.SamplePlan(strategy="uniform", sample_size=2,
                            refresh_interval=2)
        run = T.TrainRun(arch="sage", hidden=4, depth=2, batch_size=8,
                         max_epochs=2, patience=2, seed=0, plan=plan)
        _, hist = T.train(g, split, run)
        assert calls == []
        refreshes = -(-hist.n_batches // 2)
        covered = sum(1 for u in range(g.n_nodes) if degree(g, u))
        assert hist.refresh_work == refreshes * 2 * covered

    @pytest.mark.parametrize("strategy", ["uniform", "minvar"])
    def test_sampled_forward_before_refresh_is_an_error(self, strategy):
        """Rows come only from a refresh: without one, or without a state,
        a sampled forward draws nothing and raises."""
        g, _, stack, _ = stack_and_ctx(seed=5)
        plan = S.SamplePlan(strategy=strategy, sample_size=2)
        u = next(u for u in range(g.n_nodes) if degree(g, u))
        for state in (S.SamplerState(), None):
            rng = np.random.default_rng(0)
            with pytest.raises(ValueError, match="refresh first"):
                L.forward(g, stack, [u], plan, state, rng)
            assert rng.random() == np.random.default_rng(0).random()

    def test_uniform_weights_are_written_once(self):
        """Under the uniform strategy every arc weighs 1, written by the
        first refresh and kept by later ones; each row is 1/deg exactly."""
        g, _, stack, _ = stack_and_ctx(seed=5)
        plan = S.SamplePlan(strategy="uniform", sample_size=2)
        state = S.SamplerState()
        S.refresh(state, g, stack, plan)
        weights = state.weights
        assert S.refresh(state, g, stack, plan)
        assert state.weights is weights
        for l in range(1, stack.depth + 1):
            assert np.array_equal(weights[l], np.ones(len(g.arc_src)))
        for u in range(g.n_nodes):
            if degree(g, u):
                assert np.array_equal(S.plan_probs(g, stack, state, plan, 1, u),
                                      S.probs_uniform(degree(g, u)))
