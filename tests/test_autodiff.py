"""Tensor ops, backward rules and the checkpoint format."""

import numpy as np
import pytest

from lase import autodiff as ad
from lase import graph as G
from lase import layers as L
from lase import sampling as S
from lase import training as T

from util import dot, finite_diff_worst


def t(data, grad=False):
    return ad.Tensor2(np.asarray(data, dtype=float), requires_grad=grad)


class TestForward:
    def test_matvec_identity(self):
        y = ad.matvec(t(np.eye(2)), t([3, 4]))
        assert np.array_equal(y.data[:, 0], [3, 4])

    def test_matvec_zero(self):
        y = ad.matvec(t(np.zeros((2, 2))), t([3, 4]))
        assert np.array_equal(y.data, np.zeros((2, 1)))

    def test_matvec_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matvec(t(np.eye(2)), t([1, 2, 3]))

    @pytest.mark.parametrize("w, xs, b", [
        ((1, 4), [(2, 3), (2, 2)], None),  # block columns disagree
        ((1, 4), [(2, 3), (1, 3)], None),  # blocks cover 3 of 4 columns
        ((1, 4), [(4, 3)], (2, 1)),  # bias rows disagree
    ])
    def test_affine_shape_mismatch(self, w, xs, b):
        with pytest.raises(ValueError):
            ad.affine(t(np.ones(w)), [t(np.ones(x)) for x in xs],
                      None if b is None else t(np.ones(b)))

    @pytest.mark.parametrize("op, args, match", [
        (ad.add, ((2, 1), (3, 1)), "add shape"),
        (ad.hadamard, ((2, 2), (2, 1)), "hadamard shape"),
        (lambda a, b: ad.concat([a, b]), ((2, 1), (2, 2)), "equal column"),
        (ad.scale, ((2, 3), (1, 2)), r"\(1, 3\) row"),
    ])
    def test_shape_mismatch(self, op, args, match):
        with pytest.raises(ValueError, match=match):
            op(*(t(np.ones(shape)) for shape in args))

    def test_tensor_of_3d_data(self):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            ad.Tensor2(np.zeros((2, 2, 2)))

    def test_item_of_non_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            t([1.0, 2.0]).item()

    def test_hadamard(self):
        c = ad.hadamard(t([1, 2]), t([3, 4]))
        assert np.array_equal(c.data[:, 0], [3, 8])

    def test_hadamard_identity_element(self):
        a = t([0.3, -1.2])
        assert np.array_equal(ad.hadamard(a, t([1, 1])).data, a.data)

    def test_concat(self):
        c = ad.concat([t([1]), t([2, 3])])
        assert np.array_equal(c.data[:, 0], [1, 2, 3])

    def test_concat_single_part_identity(self):
        a = t([1.5, 2.5])
        assert np.array_equal(ad.concat([a]).data, a.data)

    def test_concat_empty(self):
        with pytest.raises(ValueError):
            ad.concat([])

    def test_sigmoid_zero(self):
        assert ad.sigmoid(t([0.0])).item() == 0.5

    def test_softmax_uniform(self):
        loss = ad.softmax_cross_entropy(t([0.0, 0.0, 0.0]), 1)
        assert loss.item() == pytest.approx(np.log(3), rel=1e-12)

    def test_softmax_bad_label(self):
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(t([0.0, 0.0]), 2)

    def test_nonfinite_is_error(self):
        big = t([800.0])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            ad.hadamard(ad.matvec(t([[1e308]]), big), ad.matvec(t([[1e308]]), big))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gather_and_segment_sum_are_errors(self, bad):
        a = t([[1.0, bad, 2.0]])
        assert ad.gather(a, [0, 2]).data.tolist() == [[1.0, 2.0]]
        with pytest.raises(FloatingPointError, match="gather"):
            ad.gather(a, [2, 1])
        with pytest.raises(FloatingPointError, match="segment_sum"):
            ad.segment_sum(a, np.array([0, 1, 0]), 2)

    def test_overflowing_segment_sum_is_error(self):
        a = t([[1e308, 1e308, -1e308]])
        assert ad.segment_sum(a, np.array([0, 1, 1]), 2).data.tolist() == [
            [1e308, 0.0]]
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                       match="segment_sum"):
            ad.segment_sum(a, np.array([0, 0, 1]), 2)

    def test_linearity_of_matvec(self):
        rng = np.random.default_rng(1)
        w = t(rng.normal(size=(4, 3)))
        x, y = rng.normal(size=3), rng.normal(size=3)
        a, b = 0.7, -1.3
        lhs = ad.matvec(w, t(a * x + b * y)).data
        rhs = a * ad.matvec(w, t(x)).data + b * ad.matvec(w, t(y)).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_forward_deterministic(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 5))
        x = rng.normal(size=5)
        r1 = ad.matvec(t(w), t(x)).data
        r2 = ad.matvec(t(w), t(x)).data
        assert np.array_equal(r1, r2)


class TestBackward:
    def test_inner_gradient(self):
        w = t([1.0, 2.0], grad=True)
        x = np.array([5.0, -3.0])
        with ad.Tape() as tape:
            loss = dot(w, t(x))
            tape.backward(loss)
        assert np.array_equal(w.grad[:, 0], x)

    def test_half_norm_gradient(self):
        w = t([3.0, -4.0], grad=True)
        with ad.Tape() as tape:
            loss = ad.scale(dot(w, w), 0.5)
            tape.backward(loss)
        assert np.allclose(w.grad, w.data)

    def test_matvec_zero_weight_gradient(self):
        x = t([1.0, 2.0], grad=True)
        with ad.Tape() as tape:
            loss = dot(ad.matvec(t(np.zeros((2, 2))), x), t([1.0, 1.0]))
            tape.backward(loss)
        assert np.array_equal(x.grad, np.zeros((2, 1)))

    def test_gradients_accumulate_for_shared_params(self):
        w = t([1.0, 1.0], grad=True)
        x = np.array([2.0, 3.0])
        with ad.Tape() as tape:
            loss = ad.add(dot(w, t(x)), dot(w, t(x)))
            tape.backward(loss)
        assert np.array_equal(w.grad[:, 0], 2 * x)

    def test_backward_requires_scalar(self):
        with ad.Tape() as tape:
            v = t([1.0, 2.0])
            with pytest.raises(ad.TapeError):
                tape.backward(v)

    def test_consumed_tape_rejected(self):
        w = t([1.0], grad=True)
        with ad.Tape() as tape:
            loss = dot(w, w)
            tape.backward(loss)
            with pytest.raises(ad.TapeError):
                tape.backward(loss)

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        w = t(rng.uniform(-1, 1, (4, 3)), grad=True)
        u = t(rng.uniform(-1, 1, (4, 3)), grad=True)
        b = t(rng.uniform(-1, 1, 4), grad=True)
        x = rng.uniform(-1, 1, 3)
        label = int(rng.integers(4))

        def loss_fn():
            h = ad.hadamard(ad.sigmoid(ad.matvec(w, ad.Tensor2(x))),
                            ad.relu(ad.matvec(u, ad.Tensor2(x))))
            logits = ad.add(h, b)
            ce = ad.softmax_cross_entropy(logits, label)
            return ad.add(ce, ad.scale(dot(ad.concat([h, b]),
                                                ad.concat([h, b])), 0.1))

        worst = finite_diff_worst([("w", w), ("u", u), ("b", b)], loss_fn)
        assert worst < 1e-4


def _model_batch(arch, depth, strategy):
    """A model, a batch and the arguments of a sampled ``batch_loss`` (after
    a refresh) on a small interaction graph."""
    g, split = G.synth_graph("interaction", 40, seed=3)
    model = T.build_model(g, T.TrainRun(arch=arch, hidden=4, depth=depth,
                                        seed=2))
    batch = split.train[:6]
    plan = S.SamplePlan(strategy=strategy, sample_size=2)
    state = S.SamplerState()
    if strategy != "full":
        S.refresh(state, g, model.stack, plan, batch)
    return g, model, batch, (plan, state, np.random.default_rng(1))


class TestPruning:
    """The tape records only ops downstream of a tracked tensor, and no
    backward rule computes an untracked input's gradient."""

    def test_ops_on_untracked_inputs_record_nothing(self):
        w, x = t(np.eye(2)), t([3.0, 4.0])
        with ad.Tape() as tape:
            y = ad.concat([ad.sigmoid(ad.matvec(w, x)), ad.gather(x, [0])])
            z = ad.affine(w, (ad.hadamard(x, x),), t([[1.0], [2.0]]))
        assert tape._nodes == [] and not y.tracked and not z.tracked

    def test_ops_off_the_tape_are_untracked(self):
        w = t(np.eye(2), grad=True)
        assert w.tracked and not ad.matvec(w, t([3.0, 4.0])).tracked

    def test_only_ops_downstream_of_a_leaf_are_recorded(self):
        w, x = t([[1.0, 2.0]], grad=True), t([3.0, 4.0])
        with ad.Tape() as tape:
            c = ad.relu(x)
            y = ad.add(ad.matvec(w, c), ad.matvec(t([[1.0, 1.0]]), c))
        assert len(tape._nodes) == 2 and tape._nodes[-1][0] is y
        assert y.tracked and not c.tracked

    @pytest.mark.parametrize("arch", L.ARCHITECTURES)
    @pytest.mark.parametrize("strategy", ["full", "minvar"])
    def test_no_gradient_is_computed_for_an_untracked_input(
            self, arch, strategy, monkeypatch):
        """A spy on every recorded backward rule: the gradient of each
        untracked input is None, that of each tracked input an array."""
        g, model, batch, sampled = _model_batch(arch, 2, strategy)
        seen = {"untracked": 0, "tracked": 0}
        record = ad.Tape.record

        def spy(tape, out, inputs, vjp):
            def checked(grad):
                grads = list(vjp(grad))
                assert len(grads) == len(inputs)
                for x, gx in zip(inputs, grads):
                    assert (gx is None) != x.tracked
                    seen["tracked" if x.tracked else "untracked"] += 1
                return grads
            record(tape, out, inputs, checked)

        monkeypatch.setattr(ad.Tape, "record", spy)
        with ad.Tape() as tape:
            loss = T.batch_loss(g, model, batch, *sampled)
            model.zero_grad()
            tape.backward(loss)
        assert seen["tracked"] and seen["untracked"]

    @pytest.mark.parametrize("arch", L.ARCHITECTURES)
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("strategy", ["full", "minvar"])
    def test_every_leaf_gets_the_unpruned_gradient(self, arch, depth,
                                                   strategy, monkeypatch):
        """Every parameter's gradient is bit for bit the one of a tape on
        which the node and link features are tracked leaves too, so that
        every op of the forward is recorded and differentiated."""
        def grads():
            g, model, batch, sampled = _model_batch(arch, depth, strategy)
            with ad.Tape() as tape:
                loss = T.batch_loss(g, model, batch, *sampled)
                model.zero_grad()
                tape.backward(loss)
            assert all(t.grad.any() for _, t in model.parameters())
            return loss.item(), model.grad.copy(), len(tape._nodes)

        pruned = grads()
        monkeypatch.setattr(L, "_cols", lambda mat, ids: ad.Tensor2(
            mat[ids].T, requires_grad=True))
        whole = grads()
        assert pruned[0] == whole[0]
        assert np.array_equal(pruned[1], whole[1])
        # rw's layer 0 is a product with W0, so nothing of it is constant
        assert pruned[2] < whole[2] or arch == "rw"


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        named = [("a.W", t(rng.normal(size=(3, 2)))),
                 ("b.V", t(rng.normal(size=(1, 5))))]
        prefix = str(tmp_path / "ckpt")
        ad.save_checkpoint(prefix, named, meta={"seed": 7})
        loaded, meta = ad.load_checkpoint(prefix)
        assert meta == {"seed": 7}
        for (n1, t1), (n2, t2) in zip(named, loaded):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)
