"""Tensor ops and backward rules, the guard that the package runs each
public function, and a model's parameter tensors through its checkpoint."""

import ast
import importlib
import inspect
import os

import numpy as np
import pytest

from lase import autodiff as ad
from lase import graph as G
from lase import layers as L
from lase import sampling as S
from lase import training as T

from util import (add, concat, dot, finite_diff_worst, hadamard, matvec,
                  sigmoid)


def t(data, grad=False):
    return ad.Tensor2(np.asarray(data, dtype=float), requires_grad=grad)


class TestForward:
    def test_matvec_identity(self):
        y = matvec(t(np.eye(2)), t([3, 4]))
        assert np.array_equal(y.data[:, 0], [3, 4])

    def test_matvec_zero(self):
        y = matvec(t(np.zeros((2, 2))), t([3, 4]))
        assert np.array_equal(y.data, np.zeros((2, 1)))

    def test_matvec_shape_mismatch(self):
        with pytest.raises(ValueError):
            matvec(t(np.eye(2)), t([1, 2, 3]))

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
        (add, ((2, 1), (3, 1)), "add shape"),
        (hadamard, ((2, 2), (2, 1)), "hadamard shape"),
        (lambda a, b: concat([a, b]), ((2, 1), (2, 2)), "equal column"),
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
        c = hadamard(t([1, 2]), t([3, 4]))
        assert np.array_equal(c.data[:, 0], [3, 8])

    def test_hadamard_identity_element(self):
        a = t([0.3, -1.2])
        assert np.array_equal(hadamard(a, t([1, 1])).data, a.data)

    def test_concat(self):
        c = concat([t([1]), t([2, 3])])
        assert np.array_equal(c.data[:, 0], [1, 2, 3])

    def test_concat_single_part_identity(self):
        a = t([1.5, 2.5])
        assert np.array_equal(concat([a]).data, a.data)

    def test_concat_empty(self):
        with pytest.raises(ValueError):
            concat([])

    def test_sigmoid_zero(self):
        assert sigmoid(t([0.0])).item() == 0.5

    def test_softmax_uniform(self):
        loss = ad.softmax_cross_entropy(t([0.0, 0.0, 0.0]), 1)
        assert loss.item() == pytest.approx(np.log(3), rel=1e-12)

    def test_softmax_bad_label(self):
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(t([0.0, 0.0]), 2)

    def test_nonfinite_is_error(self):
        big = t([800.0])
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            hadamard(matvec(t([[1e308]]), big), matvec(t([[1e308]]), big))

    def test_fused_ops_name_the_step_that_overflowed(self):
        """An activation that would hide an overflow (sigmoid(-inf) = 0,
        relu(-inf) = 0) does not: the fused op names the step that
        overflowed, as the separate ops did."""
        x, one = t([[10.0], [10.0]]), t([[1.0]])
        low, high = t([[-1e308, -1e308]]), t([[1e200]])
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="by affine$"):
                ad.sigmoid_affine(low, (x,))
            with pytest.raises(FloatingPointError, match="by affine$"):
                ad.combine(one, one, low, x, "concat")
            with pytest.raises(FloatingPointError, match="by hadamard$"):
                ad.combine(high, one, high, one, "hadamard")
            # the squash hides an overflow as sigmoid(-inf) = 0 and
            # sigmoid(inf) = 1
            with pytest.raises(FloatingPointError, match="by affine$"):
                ad.combine(one, one, low, x, "sum", squash=True)
            for sign in (1.0, -1.0):
                with pytest.raises(FloatingPointError, match="by add$"):
                    ad.combine(t([[sign * 1e308]]), one, t([[sign * 1e308]]),
                               one, "sum", squash=True)

    @pytest.mark.parametrize("h, w1, w2, x2, squash, step", [
        ([[1.0, 1.0]], 1e308, 1.0, [[1.0, 1.0, 1.0]], False, "affine"),
        ([[1.0, 1.0]], -1e308, 1.0, [[1.0, 1.0, 1.0]], True, "affine"),
        ([[1e200, 1e200]], 1e200, 1e200, [[1.0, 1.0, 1e200]], False,
         "hadamard"),
        ([[1.0, 1.0]], 1.0, 1e200, [[1.0, 1.0, 1e200]], False, "affine"),
        ([[1e200, 1e200]], 1.0, 1e200, [[1.0, 1.0, 1.0]], True, "hadamard"),
    ])
    def test_amplify_gather_names_the_step_that_overflowed(
            self, h, w1, w2, x2, squash, step):
        """h (*) sigmoid?(w1 x1) (*) (w2 x2)[:, [0, 1]] names the first of
        its steps that overflowed, in the order of the ops it replaced
        (``amplify``'s product, its hadamard, the product of w2, the gather,
        the hadamard): also when the squash hides the overflow, or when it
        is in a column of w2 x2 that the gather leaves out."""
        x1 = t([[10.0, 10.0]])
        with np.errstate(all="ignore"), pytest.raises(
                FloatingPointError, match="by %s$" % step):
            ad.amplify_gather(t(h), t([[w1]]), x1, t([[w2]]), t(x2), [0, 1],
                              squash)

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
        lhs = matvec(w, t(a * x + b * y)).data
        rhs = a * matvec(w, t(x)).data + b * matvec(w, t(y)).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_forward_deterministic(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 5))
        x = rng.normal(size=5)
        r1 = matvec(t(w), t(x)).data
        r2 = matvec(t(w), t(x)).data
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
            loss = dot(matvec(t(np.zeros((2, 2))), x), t([1.0, 1.0]))
            tape.backward(loss)
        assert np.array_equal(x.grad, np.zeros((2, 1)))

    def test_gradients_accumulate_for_shared_params(self):
        w = t([1.0, 1.0], grad=True)
        x = np.array([2.0, 3.0])
        with ad.Tape() as tape:
            loss = add(dot(w, t(x)), dot(w, t(x)))
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
            h = hadamard(sigmoid(matvec(w, ad.Tensor2(x))),
                         ad.relu(matvec(u, ad.Tensor2(x))))
            logits = add(h, b)
            ce = ad.softmax_cross_entropy(logits, label)
            return add(ce, ad.scale(dot(concat([h, b]), concat([h, b])), 0.1))

        worst = finite_diff_worst([("w", w), ("u", u), ("b", b)], loss_fn)
        assert worst < 1e-4


def _weighted_total(out):
    """Every entry of ``out`` times a fixed random weight, summed to (1, 1)."""
    w = ad.Tensor2(np.random.default_rng(0).normal(size=out.shape))
    rows = matvec(ad.Tensor2(np.ones((1, out.shape[0]))), hadamard(out, w))
    return matvec(rows, ad.Tensor2(np.ones((out.shape[1], 1))))


def _fd_case(name, rng):
    """(named leaves, the op applied to them) for finite differences."""
    def leaf(*shape):
        return t(rng.normal(size=shape), grad=True)

    a, b, x, fe = leaf(3, 5), leaf(3, 5), leaf(2, 5), leaf(4, 5)
    w, w2 = leaf(3, 2), leaf(3, 4)
    idx = np.array([4, 0, 4, 2, 1, 4])
    op = name.split("-")
    if op[0] in ("affine", "sigmoid_affine"):
        v, bias = leaf(3, 6), leaf(3, 1)
        fn = getattr(ad, op[0])
        return [v, x, fe, bias], lambda: fn(v, (x, fe), bias)
    if op[0] == "scale":
        s, c = leaf(1, 5), rng.uniform(0.5, 2.0, (1, 5))
        if op[1] == "constant":
            return [a], lambda: ad.scale(a, 0.7, c)
        return [a, s], lambda: ad.scale(a, s, c)
    if op[0] == "amplify":
        return [a, w2, fe], lambda: ad.amplify(a, w2, fe, op[1] == "sigmoid")
    if op[0] == "amplify_gather":
        # columns 3, 5 and 6 of W x2 are left out, column 4 read twice
        x2 = leaf(2, 7) if op[2] == "tracked" else t(rng.normal(size=(2, 7)))
        leaves = [a, w2, fe, w] + ([x2] if op[2] == "tracked" else [])
        return leaves, lambda: ad.amplify_gather(a, w2, fe, w, x2, idx[:5],
                                                 op[1] == "sigmoid")
    if op[0] == "combine":
        return [w, x, w2, fe], lambda: ad.combine(w, x, w2, fe, op[1],
                                                  op[-1] == "sigmoid")
    if op[0] == "softmax_cross_entropy":
        return [a], lambda: ad.softmax_cross_entropy(a, [0, 2, 1, 1, 0])
    return [a, b, w, x], {
        "matvec": lambda: matvec(w, x),
        "add": lambda: add(a, b),
        "hadamard": lambda: hadamard(a, b),
        "gather": lambda: ad.gather(a, idx),
        "segment_sum": lambda: ad.segment_sum(b, idx[:5], 6),
        "concat": lambda: concat([a, x, b]),
        "sigmoid": lambda: sigmoid(a),
        "relu": lambda: ad.relu(a),
    }[op[0]]


FD_CASES = ["affine", "matvec", "add", "hadamard", "scale-row",
            "scale-constant", "gather", "segment_sum", "concat", "sigmoid",
            "relu", "softmax_cross_entropy", "sigmoid_affine", "amplify-plain",
            "amplify-sigmoid", "amplify_gather-plain-tracked",
            "amplify_gather-sigmoid-tracked", "amplify_gather-plain-constant",
            "amplify_gather-sigmoid-constant", "combine-sum",
            "combine-hadamard", "combine-concat", "combine-sum-sigmoid",
            "combine-hadamard-sigmoid", "combine-concat-sigmoid"]


class TestOpGradients:
    """A finite-difference check of every op, each of its modes apart."""

    @pytest.mark.parametrize("name", FD_CASES)
    def test_op_finite_difference(self, name):
        leaves, op = _fd_case(name, np.random.default_rng(4))
        params = [("leaf%d" % i, x) for i, x in enumerate(leaves)]
        assert finite_diff_worst(params, lambda: _weighted_total(op())) < 1e-4

    def test_every_recording_op_has_a_case(self):
        """Every public function of ``autodiff`` whose source calls ``_make``
        records an op, and so needs a case above."""
        recording = {name for name, fn in inspect.getmembers(
            ad, inspect.isfunction) if not name.startswith("_")
            and fn.__module__ == ad.__name__
            and "_make(" in inspect.getsource(fn)}
        assert {"affine", "combine", "softmax_cross_entropy"} <= recording
        assert recording <= {name.split("-")[0] for name in FD_CASES}


# Public names that no package code reaches, kept on purpose, with why.
KEPT = {
    "sampling.probs_uniform": "the paper's uniform proposal, an oracle of "
                              "test_05 and test_06",
    "sampling.probs_from_gates": "the paper's gate proposal, an oracle of "
                                 "test_05 and test_06",
    "sampling.probs_minvar_weights": "the paper's minimum-variance proposal, "
                                     "an oracle of test_05 and test_06",
    "training.refresh_sweep": "the refresh-interval experiment test_09 runs",
    "kernels.neighbor_feature": "the paper's neighbor feature tensor, "
                                "exported from lase",
    "kernels.neighbor_kernel": "the paper's neighbor kernel, exported from "
                               "lase",
    "kernels.neighborhood_kernel": "the paper's l-hop neighborhood kernel, "
                                   "exported from lase",
    "graph.AttributedGraph.adjacency": "perfbench/spans.py reads it",
}


def _public_members(module):
    """{"module.name" or "module.Class.name": name} for each public function
    of ``module``, and each public method and property of its classes."""
    short = module.__name__.split(".")[-1]
    out = {}
    for name, v in vars(module).items():
        if (name.startswith("_")
                or getattr(v, "__module__", None) != module.__name__):
            continue
        if inspect.isfunction(v):
            out["%s.%s" % (short, name)] = name
        elif inspect.isclass(v):
            out.update(("%s.%s.%s" % (short, name, m), m)
                       for m, mv in vars(v).items() if not m.startswith("_")
                       and (inspect.isfunction(mv) or isinstance(
                           mv, (property, classmethod, staticmethod))))
    return out


def _package_reads(module, tree):
    """The public names ``tree``, the source of ``lase.module``, reads:
    "module.name" for each function of its own it reads by a name no local
    variable shadows, and for each function of another module it reads as
    ``alias.name`` after ``from . import module [as alias]`` or by name
    after ``from .module import name``; and the bare name of every
    attribute it reads, for methods."""
    modules, names = {}, {}
    local = {n.arg if isinstance(n, ast.arg) else n.id for n in ast.walk(tree)
             if isinstance(n, ast.arg) or (isinstance(n, ast.Name)
                                           and isinstance(n.ctx, ast.Store))}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.level == 1:
            for a in n.names:
                if n.module is None:
                    modules[a.asname or a.name] = a.name
                else:
                    names[a.asname or a.name] = "%s.%s" % (n.module, a.name)
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            read.add(n.attr)
            if isinstance(n.value, ast.Name) and n.value.id in modules:
                read.add("%s.%s" % (modules[n.value.id], n.attr))
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            if n.id in names:
                read.add(names[n.id])
            elif n.id not in local:
                read.add("%s.%s" % (module, n.id))
    return read


def test_every_public_function_runs_in_the_package():
    """Each public function of a ``lase`` module is read by package code
    (by its own module, or by another through an import of it), and each
    public method and property is read as an attribute, unless it is kept
    on purpose in ``KEPT``: code only the tests use belongs in
    ``tests/util.py``."""
    src = os.path.dirname(ad.__file__)
    read, public = set(), {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                read |= _package_reads(name[:-3], ast.parse(fh.read()))
            public.update(_public_members(
                importlib.import_module("lase." + name[:-3])))
    assert {"autodiff.scatter_add", "layers.forward",
            "training.Model.snapshot"} <= set(public)
    unread = {key for key, name in public.items()
              if (key if key.count(".") == 1 else name) not in read}
    assert unread == set(KEPT)


def _model_batch(arch, depth, strategy):
    """A model, a batch and the field of its ``batch_loss`` on a small
    interaction graph: a sampled one, drawn after a refresh, or None."""
    g, split = G.synth_graph("interaction", 40, seed=3)
    model = T.build_model(g, T.TrainRun(arch=arch, hidden=4, depth=depth,
                                        seed=2))
    batch = split.train[:6]
    if strategy == "full":
        return g, model, batch, None
    plan = S.SamplePlan(strategy=strategy, sample_size=2)
    state = S.SamplerState()
    S.refresh(state, g, model.stack, plan, batch)
    return g, model, batch, S.sampled_field(g, model.stack, batch, plan,
                                            state, np.random.default_rng(1))


class TestPruning:
    """The tape records only ops downstream of a tracked tensor, and no
    backward rule computes an untracked input's gradient."""

    def test_ops_on_untracked_inputs_record_nothing(self):
        w, x = t(np.eye(2)), t([3.0, 4.0])
        with ad.Tape() as tape:
            y = concat([sigmoid(matvec(w, x)), ad.gather(x, [0])])
            z = ad.affine(w, (hadamard(x, x),), t([[1.0], [2.0]]))
        assert tape._nodes == [] and not y.tracked and not z.tracked

    def test_ops_off_the_tape_are_untracked(self):
        w = t(np.eye(2), grad=True)
        assert w.tracked and not matvec(w, t([3.0, 4.0])).tracked

    def test_only_ops_downstream_of_a_leaf_are_recorded(self):
        w, x = t([[1.0, 2.0]], grad=True), t([3.0, 4.0])
        with ad.Tape() as tape:
            c = ad.relu(x)
            y = add(matvec(w, c), matvec(t([[1.0, 1.0]]), c))
        assert len(tape._nodes) == 2 and tape._nodes[-1][0] is y
        assert y.tracked and not c.tracked

    @pytest.mark.parametrize("arch", L.ARCHITECTURES)
    @pytest.mark.parametrize("strategy", ["full", "minvar"])
    def test_no_gradient_is_computed_for_an_untracked_input(
            self, arch, strategy, monkeypatch):
        """A spy on every recorded backward rule: the gradient of each
        untracked input is None, that of each tracked input an array."""
        g, model, batch, field = _model_batch(arch, 2, strategy)
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
            loss = T.batch_loss(g, model, batch, field)
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
            g, model, batch, field = _model_batch(arch, depth, strategy)
            with ad.Tape() as tape:
                loss = T.batch_loss(g, model, batch, field)
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
        """A model's parameter tensors come back from its checkpoint by name,
        bit for bit, into a model built from another seed, with its meta."""
        g, _ = G.synth_graph("interaction", 40, seed=3)
        model = T.build_model(g, T.TrainRun(arch="rw", hidden=3, seed=2))
        model.restore(np.random.default_rng(3).normal(size=model.data.size))
        prefix = str(tmp_path / "ckpt")
        model.save(prefix, meta={"seed": 7})
        loaded = T.build_model(g, T.TrainRun(arch="rw", hidden=3, seed=4))
        assert not np.array_equal(loaded.data, model.data)
        assert loaded.load(prefix) == {"seed": 7}
        for (n1, t1), (n2, t2) in zip(model.parameters(),
                                      loaded.parameters()):
            assert n1 == n2
            assert np.array_equal(t1.data, t2.data)
