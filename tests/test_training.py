"""Training loop, metrics, contamination and the experiment drivers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lase import autodiff as ad
from lase import graph as G
from lase import sampling as S
from lase import training as T


def quick_run(**kw):
    base = dict(arch="sage", hidden=8, depth=1, lr=1e-2, batch_size=32,
                max_epochs=4, patience=4, seed=0)
    base.update(kw)
    return T.TrainRun(**base)


class TestRunConfig:
    def test_from_dict_accepts_json_forms(self):
        run = T.TrainRun.from_dict({"lr": 1, "snr": "inf", "hidden": 4,
                                    "plan": {"strategy": "minvar"}})
        assert run.lr == 1 and run.snr == math.inf
        assert run.plan == S.SamplePlan(strategy="minvar")
        assert T.TrainRun.from_dict(run.to_dict()) == run
        assert T.TrainRun.from_dict({"snr": None}).snr is None


class TestMicroF1:
    def test_all_correct(self):
        assert T.micro_f1([0, 1, 2], [0, 1, 2]) == 1.0

    def test_three_of_four(self):
        assert T.micro_f1([0, 1, 1, 0], [0, 1, 1, 1]) == 0.75

    def test_matches_sklearn_oracle(self):
        sklearn_metrics = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, size=200)
        y_pred = rng.integers(0, 4, size=200)
        ours = T.micro_f1(list(y_true), list(y_pred))
        ref = sklearn_metrics.f1_score(y_true, y_pred, average="micro")
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_equals_accuracy(self):
        rng = np.random.default_rng(1)
        y_true = list(rng.integers(0, 3, size=50))
        y_pred = list(rng.integers(0, 3, size=50))
        acc = np.mean([t == p for t, p in zip(y_true, y_pred)])
        assert T.micro_f1(y_true, y_pred) == pytest.approx(acc, abs=1e-12)

    def test_empty_set_error(self):
        with pytest.raises(ValueError):
            T.micro_f1([], [])

    def test_no_hits_and_rounding(self):
        assert T.micro_f1([0, 1, 1], [1, 0, 0]) == 0.0
        assert repr(T.micro_f1([0, 1, 2, 0, 1], [0, 2, 0, 1, 0])) == (
            "0.20000000000000004")


class TestTrain:
    def test_zero_lr_keeps_params(self):
        g, split = G.synth_graph("interaction", 40, seed=1)
        run = quick_run(lr=0.0, max_epochs=2, patience=2)
        model0 = T.build_model(g, run)
        before = model0.snapshot()
        model, _ = T.train(g, split, run)
        assert np.array_equal(before, model.snapshot())

    @pytest.mark.parametrize("bad", [-20, -1, 20])
    @pytest.mark.parametrize("where", ["train", "val", "test"])
    def test_node_id_outside_graph(self, where, bad):
        """An id outside [0, n) is named before any batch runs, not wrapped
        to another node (-20 is node 0 of this 20-node graph)."""
        g, split = G.synth_graph("interaction", 20, seed=1)
        ids = {k: list(getattr(split, k)) for k in ("train", "val", "test")}
        ids[where].insert(1, bad)
        msg = r"^%s node id %d is not in \[0, 20\)$" % (where, bad)
        with pytest.raises(ValueError, match=msg):
            T.train(g, G.Split(**ids), quick_run(max_epochs=1))
        model = T.build_model(g, quick_run())
        with pytest.raises(ValueError, match=r"^val node id %d " % bad):
            T.evaluate(g, model, ids[where], name="val")

    def test_empty_node_sets_are_errors(self):
        g, split = G.synth_graph("interaction", 40, seed=1)
        with pytest.raises(ValueError, match="empty node set"):
            T.evaluate(g, T.build_model(g, quick_run()), [])
        with pytest.raises(ValueError, match="empty train split"):
            T.train(g, G.Split((), split.val, split.test), quick_run())

    def test_divergence_is_typed(self):
        """Every op checks its own output, so a diverging run fails inside an
        op; ``train`` reports that as ``TrainingDiverged``."""
        g, split = G.synth_graph("interaction", 40, seed=1)
        with np.errstate(all="ignore"), pytest.raises(
                T.TrainingDiverged, match="non-finite value produced by"):
            T.train(g, split, quick_run(lr=1e300))

    def test_random_labels_near_chance(self):
        g, split = G.synth_graph("random", 600, seed=2)
        run = quick_run(max_epochs=3, patience=3)
        _, hist = T.train(g, split, run)
        assert abs(hist.test_f1 - 1.0 / g.n_labels) <= 0.1

    def test_deterministic_history(self):
        g, split = G.synth_graph("interaction", 60, seed=3)
        run = quick_run(max_epochs=3, patience=3)
        _, h1 = T.train(g, split, run)
        _, h2 = T.train(g, split, run)
        assert h1.train_loss == h2.train_loss
        assert h1.val_f1 == h2.val_f1
        assert h1.test_f1 == h2.test_f1

    def test_sampled_training_deterministic(self):
        g, split = G.synth_graph("interaction", 60, seed=4)
        plan = S.SamplePlan(strategy="minvar", sample_size=2, refresh_interval=2)
        run = quick_run(max_epochs=3, patience=3, plan=plan)
        _, h1 = T.train(g, split, run)
        _, h2 = T.train(g, split, run)
        assert h1.train_loss == h2.train_loss

    @pytest.mark.parametrize("depth, strategy, ops", [
        (1, "full", 13),  # the train-full benchmark configuration
        (2, "minvar", 28),  # the train-minvar benchmark configuration
    ])
    def test_tape_ops_per_batch(self, depth, strategy, ops):
        """The tape size of one sage batch is pinned: one op per
        layer-level tensor downstream of a parameter."""
        g, split = G.synth_graph("interaction", 60, seed=3)
        plan = S.SamplePlan(strategy=strategy, sample_size=3)
        run = quick_run(hidden=16, depth=depth, plan=plan)
        model = T.build_model(g, run)
        state = S.SamplerState()
        batch = list(split.train)[:16]
        if strategy != "full":
            S.refresh(state, g, model.stack, plan, batch)
        with ad.Tape() as tape:
            T.batch_loss(g, model, batch, plan, state,
                         np.random.default_rng(0))
        assert len(tape._nodes) == ops

    def test_single_sgd_step_decreases_loss(self):
        g, split = G.synth_graph("interaction", 40, seed=5)
        run = quick_run(optimizer="sgd", lr=1e-4)
        model = T.build_model(g, run)
        batch = list(split.train)[:16]
        with ad.Tape() as tape:
            loss = T.batch_loss(g, model, batch)
            model.zero_grad()
            tape.backward(loss)
        before = loss.item()
        T.Sgd(model, 1e-4).step()
        after = T.batch_loss(g, model, batch).item()
        assert after < before

    def test_early_stop_restores_best(self):
        g, split = G.synth_graph("interaction", 80, seed=6)
        run = quick_run(max_epochs=8, patience=2)
        model, hist = T.train(g, split, run)
        best = max(hist.val_f1)
        assert T.evaluate(g, model, split.val) == pytest.approx(best, abs=1e-12)

    def test_checkpoint_roundtrip(self, tmp_path):
        g, split = G.synth_graph("interaction", 40, seed=7)
        run = quick_run(max_epochs=2, patience=2)
        model, _ = T.train(g, split, run)
        prefix = str(tmp_path / "model")
        model.save(prefix, meta={"seed": run.seed})
        model2 = T.build_model(g, run)
        meta = model2.load(prefix)
        assert meta["seed"] == run.seed
        assert model2.predict(g, split.test) == model.predict(g, split.test)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("arch", ["rw", "wl", "sage", "concat"])
    def test_parameters_live_in_the_arena(self, arch, optimizer, tmp_path):
        """After ``build_model``, ``load`` and ``restore`` every parameter's
        data and gradient are views of the arena, so a step moves the values
        loaded; a ``frozen()`` copy taken before the step keeps its values."""
        g, split = G.synth_graph("interaction", 40, seed=7)
        run = quick_run(arch=arch, depth=2, optimizer=optimizer)
        trained, _ = T.train(g, split, replace(run, max_epochs=1))
        prefix = str(tmp_path / "model")
        trained.save(prefix)
        model = T.build_model(g, run)

        def in_arena():
            params = model.parameters()
            assert sum(t.data.size for _, t in params) == model.data.size
            for name, t in params:
                assert np.shares_memory(t.data, model.data), name
                assert np.shares_memory(t.grad, model.grad), name

        in_arena()
        snap = model.snapshot()
        model.load(prefix)
        in_arena()
        assert np.array_equal(model.snapshot(), trained.snapshot())
        loaded = model.snapshot()
        frozen = model.stack.frozen()
        before = [t.data.copy() for _, t in frozen.parameters()]
        opt = T.make_optimizer(run, model)
        with ad.Tape() as tape:
            loss = T.batch_loss(g, model, split.train[:8])
            model.zero_grad()
            tape.backward(loss)
        assert model.grad.any()
        opt.step()
        assert not np.array_equal(loaded, model.snapshot())
        for b, (_, t) in zip(before, frozen.parameters()):
            assert np.array_equal(b, t.data)
        model.restore(snap)
        in_arena()
        assert np.array_equal(model.snapshot(), snap)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        g, _ = G.synth_graph("interaction", 40, seed=7)
        model = T.build_model(g, quick_run())
        prefix = str(tmp_path / "model")
        ad.save_checkpoint(prefix, model.parameters()[:2])
        before = model.snapshot()
        with pytest.raises(ValueError, match="do not match"):
            model.load(prefix)
        assert np.array_equal(before, model.snapshot())


class TestContaminate:
    def test_infinite_snr_unchanged(self):
        g, _ = G.synth_graph("interaction", 40, seed=8)
        g2 = T.contaminate_links(g, math.inf, seed=0)
        assert np.array_equal(g.link_features, g2.link_features)

    def test_snr_one_noise_scale(self):
        rng = np.random.default_rng(9)
        nf = np.ones((600, 1))
        links = [(i, i + 1) for i in range(0, 598, 2)]
        # Wide feature matrix so we get >= 1e5 noise samples.
        lf = rng.normal(size=(len(links), 400))
        g = G.AttributedGraph(nf, [0] * 600, links, lf, 1)
        a = float(np.std(lf))
        g2 = T.contaminate_links(g, 1.0, seed=1)
        noise = g2.link_features - lf
        assert noise.size >= 1e5
        assert float(np.std(noise)) == pytest.approx(a, rel=0.02)

    def test_zero_variance_error(self):
        nf = np.ones((12, 1))
        links = [(i, i + 1) for i in range(11)]
        g = G.AttributedGraph(nf, [0] * 12, links, np.ones((11, 2)), 1)
        with pytest.raises(ValueError, match="zero-variance"):
            T.contaminate_links(g, 2.0)

    def test_bad_snr(self):
        g, _ = G.synth_graph("interaction", 40, seed=10)
        with pytest.raises(ValueError):
            T.contaminate_links(g, 0.0)


class TestExperiments:
    def test_snr_duplicates_identical(self):
        g, split = G.synth_graph("interaction", 50, seed=11)
        run = quick_run(max_epochs=2, patience=2)
        rows = T.snr_sweep(g, split, run, [2.0, 2.0])
        assert rows[0] == rows[1]

    def test_snr_inf_equals_clean_run(self):
        g, split = G.synth_graph("interaction", 50, seed=12)
        run = quick_run(max_epochs=2, patience=2)
        _, clean = T.train(g, split, run)
        rows = T.snr_sweep(g, split, run, [math.inf])
        assert rows[0][1] == clean.test_f1

    def test_snr_sweep_needs_values(self):
        g, split = G.synth_graph("interaction", 40, seed=12)
        with pytest.raises(ValueError, match="nonempty"):
            T.snr_sweep(g, split, quick_run(), [])

    def test_refresh_sweep_work_scales(self):
        g, split = G.synth_graph("interaction", 60, seed=14)
        plan = S.SamplePlan(strategy="minvar", sample_size=2)
        run = quick_run(max_epochs=4, patience=4, batch_size=8, plan=plan)
        rows = T.refresh_sweep(g, split, run, [1, 4])
        work = {k: w for k, _, w in rows}
        assert work[1] > work[4]

    def test_metrics_csv_shape(self):
        g, split = G.synth_graph("interaction", 40, seed=15)
        run = quick_run(max_epochs=2, patience=2)
        _, hist = T.train(g, split, run)
        lines = T.metrics_csv(hist).strip().split("\n")
        assert lines[0] == "epoch,loss,val_f1"
        assert len(lines) == 1 + len(hist.train_loss)
