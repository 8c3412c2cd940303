"""End-to-end acceptance checks.

Each test prints a single ``[PASS]``/``[FAIL]`` line for its criterion (run
pytest with ``-s`` to see them as they happen).
"""

import contextlib

import numpy as np
import pytest

from lase import graph as G
from lase import kernels as K
from lase import layers as L
from lase import sampling as S
from lase import training as T

from util import random_graph, finite_diff_worst


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print("[FAIL] %s" % name)
        raise
    print("[PASS] %s" % name)


class TestAcceptance:
    def test_01_theorem1_equality(self):
        with criterion("theorem-1: network sum equals walk enumeration"):
            rng = np.random.default_rng(0)
            worst = 0.0
            for depth in (1, 2, 3):
                for _ in range(50):
                    g = random_graph(rng, max_nodes=8, d_node=3, d_link=2)
                    stack = L.LayerStack("rw", 3, 2, hidden=4, depth=depth,
                                         kernel_mode=True, constant_decay=0.5,
                                         seed=int(rng.integers(2 ** 31)))
                    k = int(rng.integers(stack.hidden))
                    lhs, rhs = K.check_theorem1(g, stack, None, k)
                    worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
            assert worst < 1e-9

    def test_02_rw_kernel_dp_equals_enumeration(self):
        with criterion("rw kernel: dynamic program equals enumeration"):
            rng = np.random.default_rng(1)
            worst = 0.0
            for _ in range(100):
                g1 = random_graph(rng, max_nodes=8)
                g2 = random_graph(rng, max_nodes=8)
                hops = int(rng.integers(0, 4))  # walks of up to 4 nodes
                cfg = K.KernelConfig(decay=float(rng.uniform(0.2, 0.9)),
                                     hops=hops)
                dp = K.rw_kernel_dp(g1, g2, cfg)
                en = K.rw_kernel_enumerate(g1, g2, cfg)
                worst = max(worst, abs(dp - en) / max(1.0, abs(en)))
            assert worst < 1e-9

    def test_03_concat_blindness(self):
        with criterion("concat is blind where rw/sage discriminate"):
            g, _ = G.synth_graph("concat-blind", 12, seed=0)
            u, u2 = G.concat_blind_duos(g)[0]
            stack = L.LayerStack("concat", g.d_node, g.d_link, hidden=8,
                                 depth=1, seed=0)
            h = L.full_forward(g, stack)["H"][-1]
            assert float(np.max(np.abs(h[u] - h[u2]))) < 1e-12
            for arch in ("rw", "sage"):
                hits = 0
                for s in range(100):
                    st = L.LayerStack(arch, g.d_node, g.d_link, hidden=8,
                                      depth=1, seed=1000 + s)
                    hh = L.full_forward(g, st)["H"][-1]
                    if float(np.max(np.abs(hh[u] - hh[u2]))) > 1e-6:
                        hits += 1
                assert hits >= 99

    def test_04_gradient_suite(self):
        with criterion("finite-difference gradients for all architectures"):
            g, split = G.synth_graph("interaction", 16, seed=2)
            batch = list(split.train)[:4]
            for arch in L.ARCHITECTURES:
                run = T.TrainRun(arch=arch, hidden=8, depth=2, seed=3,
                                 max_epochs=1)
                model = T.build_model(g, run)

                def loss_fn():
                    return T.batch_loss(g, model, batch)

                assert finite_diff_worst(model.parameters(), loss_fn) < 1e-4

    def _neighborhoods(self, seed, count=20, max_deg=10):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            deg = int(rng.integers(2, max_deg + 1))
            lam = rng.uniform(0.05, 0.95, size=deg)
            gmat = rng.normal(size=(deg, 4))
            out.append((lam, gmat))
        return out, rng

    def _probs(self, strategy, lam, gmat):
        if strategy == "uniform":
            return S.probs_uniform(lam.size)
        if strategy == "gate":
            return S.probs_from_gates(lam)
        return S.probs_minvar_weights(lam, gmat)

    def test_05_estimator_unbiasedness(self):
        with criterion("sampled estimator is unbiased for every strategy"):
            hoods, rng = self._neighborhoods(seed=4)
            n = 100000
            for lam, gmat in hoods:
                full = (lam[:, None] * gmat).sum(axis=0)
                for strategy in ("uniform", "gate", "minvar"):
                    p = self._probs(strategy, lam, gmat)
                    draws = rng.choice(lam.size, size=n, p=p)
                    ests = lam[draws, None] * gmat[draws] / p[draws, None]
                    mean = ests.mean(axis=0)
                    se = ests.std(axis=0, ddof=1) / np.sqrt(n)
                    assert np.all(np.abs(mean - full) <= 3.0 * se + 1e-12)

    def test_06_minvar_variance_optimality(self):
        with criterion("min-variance weights beat gate and uniform"):
            hoods, rng = self._neighborhoods(seed=5)
            for lam, gmat in hoods:
                pm = self._probs("minvar", lam, gmat)
                vm = S.estimator_variance(lam, gmat, pm)
                for other in ("uniform", "gate"):
                    po = self._probs(other, lam, gmat)
                    assert vm <= S.estimator_variance(lam, gmat, po) + 1e-9
                draws = rng.choice(lam.size, size=200000, p=pm)
                ests = lam[draws, None] * gmat[draws] / pm[draws, None]
                empirical = float(np.sum(np.var(ests, axis=0)))
                assert empirical == pytest.approx(vm, rel=0.05, abs=1e-9)

    def test_07_interaction_task_separation(self):
        with criterion("sage learns the interaction task, concat trails"):
            g, split = G.synth_graph("interaction", 1000, seed=3)
            base = dict(hidden=16, depth=1, lr=1e-2, max_epochs=25,
                        patience=25, batch_size=64, seed=0)
            _, sage = T.train(g, split, T.TrainRun(arch="sage", **base))
            _, conc = T.train(g, split, T.TrainRun(arch="concat", **base))
            assert sage.test_f1 >= 0.9
            assert sage.test_f1 - conc.test_f1 >= 0.1

    def test_08_snr_degrades_accuracy(self):
        with criterion("accuracy falls as link-attribute noise grows"):
            g, split = G.synth_graph("interaction", 1000, seed=3)
            run = T.TrainRun(arch="sage", hidden=16, depth=1, lr=1e-2,
                             max_epochs=25, patience=25, batch_size=64, seed=0)
            rows = T.snr_sweep(g, split, run, [np.inf, 4.0, 2.0, 1.0, 0.5])
            f1s = [f1 for _, f1 in rows]
            inversions = sum(1 for a, b in zip(f1s, f1s[1:]) if b > a + 1e-12)
            worst_gap = max((b - a for a, b in zip(f1s, f1s[1:])), default=0.0)
            assert inversions <= 1 and worst_gap <= 0.02

    def test_09_refresh_interval_tradeoff(self):
        with criterion("stale sampling distributions trade accuracy for work"):
            g, split = G.synth_graph("interaction", 600, seed=3)
            plan = S.SamplePlan(strategy="minvar", sample_size=3,
                                refresh_interval=1)
            run = T.TrainRun(arch="sage", hidden=16, depth=1, lr=1e-2,
                             max_epochs=35, patience=35, batch_size=16,
                             seed=0, plan=plan)
            rows = T.refresh_sweep(g, split, run, [1, 8, 64])
            vals = [v for _, v, _ in rows]
            works = {k: w for k, _, w in rows}
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 0.03
            for k in (1, 8, 64):
                ratio = works[k] / works[1]
                assert abs(ratio - 1.0 / k) <= 0.3 / k

    def test_10_training_determinism(self):
        with criterion("identical seeds give byte-identical metrics"):
            g, split = G.synth_graph("interaction", 120, seed=6)
            plan = S.SamplePlan(strategy="minvar", sample_size=2,
                                refresh_interval=2)
            run = T.TrainRun(arch="sage", hidden=8, depth=1, lr=1e-2,
                             max_epochs=5, patience=5, seed=0, plan=plan)
            _, h1 = T.train(g, split, run)
            _, h2 = T.train(g, split, run)
            assert T.metrics_csv(h1).encode() == T.metrics_csv(h2).encode()
