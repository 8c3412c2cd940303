"""Pinned forward and kernel values against a fixture.

``data/parity.json`` holds, for two small graphs, ``full_forward``'s ``"H"``
outputs and one ``batch_loss`` value with its gradients per architecture,
plus kernel values on each graph and a directed copy of it:
``rw_kernel_dp`` at hops 0-3 and the ``neighborhood_kernel`` matrix at hops 2
for three graph pairs, ``enumerate_walks`` arrays of 1-4 nodes, and
Theorem-1 pairs for every coordinate of a kernel-mode stack on the
undirected graph: ``check_theorem1``'s left-hand side, and the walk sum
against the parameter path rows by enumeration (``_walk_sum_against_path``,
kept here as the oracle that produced the pinned values).  It also holds the
sampled fields ``layers._sampled_field`` draws for three batches per
architecture, depth 1-3 and sampling strategy, each after a refresh: node
lists, and per layer the drawn arc ids, destinations and coefficients.  Forward values,
neighborhood matrices and the theorem's left-hand sides must match to 1e-12,
relative to the largest magnitude of each array, and each ``rw_kernel_dp``
value to 1e-12 of itself; walk arrays and the enumerated right-hand sides
must match exactly, and so must the sampled fields, which fix every draw.
``check_theorem1``'s right-hand side (the hop recursion
against ``param_path_graph``) and ``rw_kernel_enumerate`` against that graph
must match the pinned right-hand sides to 1e-12 of their largest magnitude.
``PYTHONPATH=src python tests/test_parity.py`` adds the entries the fixture
lacks, computed by the current code; delete an entry to recompute it.

The hop recursion's bincount segment sums are also checked bit for bit
against an ``np.add.at`` oracle (``_propagate_add_at``, the segment sum the
recursion used before): ``kernels._walk_matrix`` and ``kernels.count_walks``
must equal the recursion built on it exactly.  So must ``autodiff``'s column
scatters, ``segment_sum`` and ``gather``'s gradient, against the ``np.add.at``
scatter they used before (``_scatter_add_at``), and the parameter arena's
Adam and SGD steps against the per-tensor updates they replaced
(``_AdamPerTensor``, ``_SgdPerTensor``), and the gate and classifier head,
one ``autodiff.affine`` each, against the op compositions they replaced
(``_gate_ops``, ``_head_ops``): outputs and every gradient bit for bit.
``training.micro_f1``'s one hit count must equal the pooled TP / FP / FN
counts it replaced (``_micro_f1_pooled``) exactly, and the refresh work
``train`` derives from its refresh count the per-refresh sum the sampler
kept before (``test_refresh_work_matches_per_refresh_sum``).  Likewise ``layers._sampled_field``
must equal, bit for bit and in the generator state it leaves, the per-visit
walk it replaced (``_sampled_field_per_visit``), and ``layers._whole_field``
the field ``_full_field`` searches for below every node, with the
``full_forward`` and eager-refresh weights over each equal bit for bit.
"""

import json
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from lase import autodiff as ad
from lase import graph as G
from lase import kernels as K
from lase import layers as L
from lase import sampling as S
from lase import training as T

from util import degree, random_digraph, random_graph

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                       "parity.json")
RTOL = 1e-12

STACKS = {
    "rw": dict(arch="rw"),
    "wl": dict(arch="wl"),
    "wl-depth3": dict(arch="wl", wl_depth=3),
    "sage": dict(arch="sage"),
    "concat": dict(arch="concat"),
    "sage-sum": dict(arch="sage", combine="sum"),
    "sage-hadamard": dict(arch="sage", combine="hadamard"),
    "sage-amp-sigmoid": dict(arch="sage", amplifier_sigmoid=True),
    "rw-amp-sigmoid": dict(arch="rw", amplifier_sigmoid=True),
    "rw-kernel": dict(arch="rw", kernel_mode=True, constant_decay=0.4),
}


def graphs():
    """An interaction graph, and a random graph plus one isolated node."""
    g1, s1 = G.synth_graph("interaction", 14, seed=21)
    g, _ = G.synth_graph("random", 12, seed=22)
    nf = np.vstack([g.node_features, np.full((1, g.d_node), 0.5)])
    g2 = G.AttributedGraph(nf, g.labels + [1], g.links, g.link_features,
                           g.n_labels)
    return {"interaction": (g1, s1.train[:5]),
            "random+isolated": (g2, (0, 3, 5, 8, 12))}


def compute():
    out = {}
    for gname, (g, batch) in graphs().items():
        for sname, kw in STACKS.items():
            stack = L.LayerStack(d_node=g.d_node, d_link=g.d_link, hidden=4,
                                 depth=2, seed=5, **kw)
            hs = L.full_forward(g, stack)["H"]
            out["%s/%s" % (gname, sname)] = [h.tolist() for h in hs]
        for arch in L.ARCHITECTURES:
            run = T.TrainRun(arch=arch, hidden=4, depth=2, seed=6)
            model = T.build_model(g, run)
            with ad.Tape() as tape:
                loss = T.batch_loss(g, model, list(batch))
                model.zero_grad()
                tape.backward(loss)
            out["%s/loss-%s" % (gname, arch)] = {
                "loss": loss.item(),
                "grads": {name: t.grad.tolist()
                          for name, t in model.parameters()}}
    return out


def directed(g):
    """Directed copy of g with every other link reversed."""
    links = [(d, s) if i % 2 else (s, d) for i, (s, d) in enumerate(g.links)]
    return G.AttributedGraph(g.node_features, g.labels, links,
                             g.link_features, g.n_labels, undirected=False)


def theorem1_stack(g):
    return L.LayerStack(d_node=g.d_node, d_link=g.d_link, hidden=4, depth=2,
                        seed=5, **STACKS["rw-kernel"])


def _param_path_rows(stack, k):
    """Row-k node and link feature sequences of the parameter path graph.

    The path has depth+1 nodes whose features are the k-th rows of the
    node-transform matrices, and depth links whose features are the k-th rows
    of the link-transform matrices.
    """
    node_rows = [np.asarray(stack.layers[0].W.data[k, :])]
    link_rows = []
    for p in stack.layers[1:]:
        node_rows.append(np.asarray(p.W.data[k, :]))
        link_rows.append(np.asarray(p.U.data[k, :]))
    return node_rows, link_rows


def _walk_sum_against_path(g, node_rows, link_rows, decay):
    """Walk sum of g against a fixed feature path (full-path traversal)."""
    m = len(node_rows)
    nw, lw = K.enumerate_walks(g, m)
    if nw.shape[0] == 0:
        return 0.0
    total = np.ones(nw.shape[0])
    for i in range(m):
        total *= g.node_features[nw[:, i]] @ node_rows[i]
    for i in range(m - 1):
        total *= g.link_features[lw[:, i]] @ link_rows[i]
    return float(decay ** (m - 1) * total.sum())


def _propagate_add_at(g, x, w):
    """Row u sums ``w[a] * x[v]`` over the arcs a = v -> u, in arc order."""
    out = np.zeros(x.shape)
    np.add.at(out, g.arc_dst, w * x[g.arc_src])
    return out


def _walk_matrix_add_at(g1, g2, hops, decay):
    s = g1.node_features @ g2.node_features.T
    w1 = g1.link_features[g1.arc_link]
    w2 = g2.link_features[g2.arc_link]
    m = s
    for _ in range(hops):
        acc = np.zeros_like(s)
        for k in range(g1.d_link):
            half = _propagate_add_at(g1, m, w1[:, k:k + 1]).T
            acc += _propagate_add_at(g2, half, w2[:, k:k + 1]).T
        m = s * decay * acc
    return m


def _count_walks_add_at(g, hops):
    c = np.ones((g.n_nodes, 1))
    for _ in range(hops):
        c = _propagate_add_at(g, c, 1.0)
    return float(c.sum())


def _with_isolated(g, extra=3):
    """g plus ``extra`` isolated nodes, between and after its own nodes."""
    n = g.n_nodes + extra
    old = np.linspace(0, n - 1, g.n_nodes).round().astype(int)
    nf = np.zeros((n, g.d_node))
    nf[old] = g.node_features
    nf[np.setdiff1d(np.arange(n), old)] = 0.25
    links = [(int(old[s]), int(old[d])) for s, d in g.links]
    return G.AttributedGraph(nf, [None] * n, links, g.link_features, 1,
                             undirected=g.undirected)


def _without_links(g):
    return G.AttributedGraph(g.node_features, g.labels, [],
                             np.zeros((0, g.d_link)), 1,
                             undirected=g.undirected)


ORACLE_KINDS = {
    "undirected": lambda rng: random_graph(rng, max_nodes=9),
    "directed": lambda rng: random_digraph(rng, max_nodes=9),
    "isolated": lambda rng: _with_isolated(random_graph(rng, max_nodes=7)),
    "isolated-directed":
        lambda rng: _with_isolated(random_digraph(rng, max_nodes=7)),
    "no-links": lambda rng: _without_links(random_graph(rng, max_nodes=6)),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_KINDS))
def test_hop_recursion_matches_add_at_oracle(kind):
    rng = np.random.default_rng(sorted(ORACLE_KINDS).index(kind))
    make = ORACLE_KINDS[kind]
    for _ in range(20):
        g1, g2 = make(rng), make(rng)
        if kind.startswith("isolated"):
            assert np.diff(g1.arc_ptr).min() == 0
        for hops in range(4):
            for a, b in ((g1, g2), (g2, g1), (g1, g1)):
                new = K._walk_matrix(a, b, hops, 0.5)
                old = _walk_matrix_add_at(a, b, hops, 0.5)
                assert new.shape == old.shape == (a.n_nodes, b.n_nodes)
                assert np.array_equal(new, old)
            assert K.count_walks(g1, hops) == _count_walks_add_at(g1, hops)


def test_hop_recursion_against_a_linkless_graph():
    rng = np.random.default_rng(7)
    g, empty = random_graph(rng, max_nodes=9), _without_links(
        random_graph(rng, max_nodes=6))
    assert empty.arc_src.size == 0
    for hops in range(4):
        for a, b in ((g, empty), (empty, g)):
            new = K._walk_matrix(a, b, hops, 0.5)
            assert np.array_equal(new, _walk_matrix_add_at(a, b, hops, 0.5))
            assert hops == 0 or not new.any()


def _scatter_add_at(x, idx, n):
    """(rows, n) zeros with column j of x added into column idx[j] by
    ``np.add.at``: the scatter ``segment_sum`` and ``gather``'s gradient
    used before their bincount."""
    out = np.zeros((x.shape[0], n))
    np.add.at(out, (slice(None), idx), x)
    return out


def _gather_vjp(a, idx, g):
    """``gather``'s gradient of ``a`` at the output gradient ``g``, as the
    tape records it."""
    with ad.Tape() as tape:
        ad.gather(ad.Tensor2(a, requires_grad=True), idx)
    (_, _, vjp), = tape._nodes
    (out,) = vjp(g)
    return out


def _scatter_cases():
    """(id, x, idx, n) inputs of the scatters."""
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 40)) * 10.0 ** rng.integers(-8, 9, size=(5, 40))
    idx = rng.integers(0, 7, size=40)
    empty = np.zeros(0, dtype=np.intp)
    strided = rng.normal(size=(10, 80))[::2, ::2]
    assert not strided.flags.c_contiguous
    return [("repeated-unsorted", x, idx, 7),
            ("sorted-descending", x, np.sort(idx)[::-1], 9),
            ("empty-index", x[:, :0], empty, 4),
            ("one-row", x[:1], idx, 7),
            ("one-row-no-columns", x[:1, :0], empty, 0),
            ("strided", strided, idx, 7),
            ("fortran-order-list-index", np.asfortranarray(x), idx.tolist(),
             8)]


def _dot_all(t):
    """The sum of every entry of ``t`` as a (1, 1) tensor, by ``matvec``s
    with rows of ones (each product by 1.0 is exact)."""
    rows = ad.matvec(ad.Tensor2(np.ones((1, t.shape[0]))), t)
    return ad.matvec(rows, ad.Tensor2(np.ones((t.shape[1], 1))))


@pytest.mark.parametrize("x, idx, n", [c[1:] for c in _scatter_cases()],
                         ids=[c[0] for c in _scatter_cases()])
def test_scatters_match_add_at_oracle(x, idx, n):
    want = _scatter_add_at(x, idx, n)
    got = ad.segment_sum(ad.Tensor2(x), idx, n).data
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    got = _gather_vjp(np.zeros((x.shape[0], n)), idx, x)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_gather_gradient_through_the_tape_matches_add_at_oracle():
    rng = np.random.default_rng(12)
    a = ad.Tensor2(rng.normal(size=(3, 6)), requires_grad=True)
    idx = np.array([5, 0, 5, 2, 5, 0, 1])
    w = rng.normal(size=(3, idx.size)) * 1e6
    with ad.Tape() as tape:
        loss = _dot_all(ad.hadamard(ad.gather(a, idx), ad.Tensor2(w)))
        tape.backward(loss)
    assert np.array_equal(a.grad, _scatter_add_at(w, idx, 6))


class _SgdPerTensor:
    """The per-tensor SGD update the arena step replaced."""

    def __init__(self, params, lr, weight_decay=0.0):
        self.params, self.lr, self.weight_decay = params, lr, weight_decay

    def step(self):
        for _, t in self.params:
            g = t.grad + self.weight_decay * t.data
            t.data -= self.lr * g


class _AdamPerTensor:
    """The per-tensor Adam update the arena step replaced."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in params}
        self.v = {name: np.zeros_like(t.data) for name, t in params}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, t in self.params:
            g = t.grad + self.weight_decay * t.data
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / (1 - b1 ** self.t)
            vhat = self.v[name] / (1 - b2 ** self.t)
            t.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("arch", ["wl", "sage"])
def test_arena_step_matches_per_tensor_oracle(optimizer, arch):
    """25 steps of the arena's Adam and SGD, with weight decay and the
    gradients of real batches, equal the per-tensor updates bit for bit."""
    g, split = G.synth_graph("interaction", 40, seed=3)
    run = T.TrainRun(arch=arch, hidden=4, depth=2, optimizer=optimizer,
                     lr=0.05, weight_decay=0.01, seed=5)
    model = T.build_model(g, run)
    opt = T.make_optimizer(run, model)
    copies = [(name, ad.Tensor2(t.data.copy(), requires_grad=True))
              for name, t in model.parameters()]
    oracle = (_AdamPerTensor(copies, run.lr, run.beta1, run.beta2,
                             weight_decay=run.weight_decay)
              if optimizer == "adam" else
              _SgdPerTensor(copies, run.lr, run.weight_decay))
    for step in range(25):
        batch = split.train[(4 * step) % 24:(4 * step) % 24 + 4]
        with ad.Tape() as tape:
            loss = T.batch_loss(g, model, batch)
            model.zero_grad()
            tape.backward(loss)
        for (_, t), (_, c) in zip(model.parameters(), copies):
            c.grad[...] = t.grad
        opt.step()
        oracle.step()
        for (name, t), (_, c) in zip(model.parameters(), copies):
            assert np.array_equal(t.data, c.data), (step, name)


def _micro_f1_pooled(y_true, y_pred):
    """The micro-F1 ``training.micro_f1`` computed before: F1 of precision
    and recall from pooled TP / FP / FN counts."""
    tp = fp = fn = 0
    for t, p in zip(y_true, y_pred):
        if t == p:
            tp += 1
        else:
            fp += 1
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def test_micro_f1_matches_pooled_counts():
    """Every hit count of every set size up to 200, compared by repr."""
    for n in range(1, 201):
        for hits in range(n + 1):
            y_true, y_pred = [0] * n, [0] * hits + [1] * (n - hits)
            assert (repr(T.micro_f1(y_true, y_pred))
                    == repr(_micro_f1_pooled(y_true, y_pred))), (hits, n)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("strategy", ["uniform", "gate", "minvar"])
def test_refresh_work_matches_per_refresh_sum(strategy, depth, monkeypatch):
    """For k in {1, 3, 8}: ``history.refresh_work`` equals depth x the
    non-isolated nodes summed over the ``sampling.refresh`` calls that
    started a refresh, and each ``refresh_sweep`` row equals the row the
    sweep built from that sum: (k, val F1 at the best epoch, work per
    batch)."""
    g, _ = G.synth_graph("interaction", 60, seed=14)
    g = G.AttributedGraph(  # plus 5 labelled isolated nodes
        np.vstack([g.node_features, np.ones((5, g.d_node))]),
        g.labels + [0] * 5, g.links, g.link_features, g.n_labels)
    split = G.make_split(g, seed=15)
    non_isolated = int(np.count_nonzero(np.diff(g.arc_ptr)))
    assert non_isolated == g.n_nodes - 5
    refresh, work = S.refresh, []

    def summed(state, g, stack, plan, batch=None):
        due = refresh(state, g, stack, plan, batch)
        work.append(stack.depth * non_isolated if due else 0)
        return due

    monkeypatch.setattr(S, "refresh", summed)
    plan = S.SamplePlan(strategy=strategy, sample_size=2)
    run = T.TrainRun(hidden=4, depth=depth, lr=1e-2, batch_size=8,
                     max_epochs=3, patience=3, plan=plan)
    rows = T.refresh_sweep(g, split, run, [1, 3, 8])
    for k, row in zip([1, 3, 8], rows):
        work.clear()
        k_run = replace(run, plan=replace(plan, refresh_interval=k))
        _, hist = T.train(g, split, k_run)
        assert hist.refresh_work == sum(work) > 0
        assert row == (k, hist.val_f1[hist.best_epoch],
                       sum(work) / hist.n_batches)


def _matvec_op(w, x):
    """W X as its own op, with the gradients g X^T and W^T g: the matrix
    product before ``affine``."""
    return ad._make(w.data @ x.data, "matvec", (w, x),
                    lambda g: (g @ x.data.T, w.data.T @ g))


def _add_bias_op(a, b):
    """a plus the column b added to every column, as its own op."""
    return ad._make(a.data + b.data, "add_bias", (a, b),
                    lambda g: (g, np.sum(g, axis=1, keepdims=True)))


def _gate_ops(h_u, h_v, fe, p, stack):
    """``layers.gate`` as 10 ops: three ``gather``s of V's column blocks,
    three products, two ``add``s, the bias and the sigmoid."""
    if stack.kernel_mode:
        return stack.constant_decay
    z, ofs = None, 0
    for x in (h_u, fe, h_v):
        zx = _matvec_op(ad.gather(p.V, np.arange(ofs, ofs + x.shape[0])), x)
        z = zx if z is None else ad.add(z, zx)
        ofs += x.shape[0]
    return ad.sigmoid(_add_bias_op(z, p.b))


def _head_ops(model, h):
    """The classifier logits as a product and a bias op."""
    return _add_bias_op(_matvec_op(model.C, h), model.c)


def _leaf(rng, *shape):
    return ad.Tensor2(rng.normal(size=shape), requires_grad=True)


def _backward(loss_of, leaves):
    """(output values, each leaf's gradient) of ``_dot_all`` of the output
    weighted by a fixed random matrix."""
    for t in leaves:
        t.grad[...] = 0.0
    with ad.Tape() as tape:
        out = loss_of()
        w = np.random.default_rng(0).normal(size=out.shape)
        tape.backward(_dot_all(ad.hadamard(out, ad.Tensor2(w))))
    return out.data, [t.grad.copy() for t in leaves]


@pytest.mark.parametrize("seed", range(3))
def test_affine_gate_and_head_match_op_compositions(seed):
    rng = np.random.default_rng(seed)
    d, dl, k = 5, 3, 17
    p = SimpleNamespace(V=_leaf(rng, 1, 2 * d + dl), b=_leaf(rng, 1, 1))
    h_u, h_v = _leaf(rng, d, k), _leaf(rng, d, k)
    fe = ad.Tensor2(rng.normal(size=(dl, k)))
    stack = SimpleNamespace(kernel_mode=False)
    leaves = [p.V, p.b, h_u, h_v]
    new = _backward(lambda: L.gate(h_u, h_v, fe, p, stack), leaves)
    old = _backward(lambda: _gate_ops(h_u, h_v, fe, p, stack), leaves)
    for a, b in zip([new[0]] + new[1], [old[0]] + old[1]):
        assert np.array_equal(a, b)

    model = SimpleNamespace(C=_leaf(rng, 3, d), c=_leaf(rng, 3, 1))
    leaves = [model.C, model.c, h_u]
    new = _backward(lambda: ad.affine(model.C, (h_u,), model.c), leaves)
    old = _backward(lambda: _head_ops(model, h_u), leaves)
    for a, b in zip([new[0]] + new[1], [old[0]] + old[1]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("gname", ["interaction", "random+isolated"])
@pytest.mark.parametrize("arch", ["rw", "wl", "sage"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_batch_loss_matches_op_compositions(gname, arch, depth, monkeypatch):
    """A batch's loss and every parameter gradient are bit for bit those
    of the gate and head built from single ops."""
    g, batch = graphs()[gname]
    model = T.build_model(g, T.TrainRun(arch=arch, hidden=4, depth=depth,
                                        seed=6))

    def run(loss_of):
        with ad.Tape() as tape:
            loss = loss_of()
            model.zero_grad()
            tape.backward(loss)
        return loss.item(), model.grad.copy()

    new = run(lambda: T.batch_loss(g, model, list(batch)))
    monkeypatch.setattr(L, "gate", _gate_ops)
    labels = [g.labels[u] for u in batch]
    old = run(lambda: ad.scale(ad.softmax_cross_entropy(
        _head_ops(model, L.forward(g, model.stack, list(batch))), labels),
        1.0 / len(batch)))
    assert new[0] == old[0]
    assert np.array_equal(new[1], old[1])


def compute_kernels():
    out = {}
    for gname, (g, _) in graphs().items():
        gd = directed(g)
        pairs = {"undirected": (g, g), "mixed": (g, gd), "directed": (gd, gd)}
        out["%s/kernel-dp" % gname] = {
            pname: [K.rw_kernel_dp(a, b, K.KernelConfig(0.5, hops))
                    for hops in range(4)]
            for pname, (a, b) in pairs.items()}
        cfg = K.KernelConfig(0.5, 2)
        out["%s/kernel-neighborhood" % gname] = {
            pname: [[K.neighborhood_kernel(a, b, u, u2, cfg)
                     for u2 in range(b.n_nodes)] for u in range(a.n_nodes)]
            for pname, (a, b) in pairs.items()}
        out["%s/kernel-walks" % gname] = {
            "%s-%d" % (kind, m): [w.tolist() for w in K.enumerate_walks(h, m)]
            for kind, h in (("undirected", g), ("directed", gd))
            for m in range(1, 5)}
        stack = theorem1_stack(g)
        out["%s/kernel-theorem1" % gname] = [
            [K.check_theorem1(g, stack, None, k)[0],
             _walk_sum_against_path(g, *_param_path_rows(stack, k),
                                    stack.constant_decay)]
            for k in range(stack.hidden)]
    return out


def _sampled_field_per_visit(g, stack, batch, plan, state, rng):
    """The sampled field drawn one (layer, node) at a time.

    ``layers._sampled_field`` as it was before its draws were batched: a
    recursive visit per (layer, node), with one ``plan_probs`` lookup and one
    ``draw`` each.  Kept as the oracle that the batched field must equal in
    every node, arc, coefficient and generator state.
    """
    s = plan.sample_size
    ptr = g.arc_ptr.tolist()
    empty = np.zeros(0, dtype=np.intp), np.zeros(0)
    drawn = [set()] + [{} for _ in range(stack.depth)]  # u -> arcs, coefs

    def visit(l, u):
        lo, hi = ptr[u], ptr[u + 1]
        drawn[l][u], below = empty, [u] if stack.arch != "concat" else []
        if hi > lo:
            p = S.plan_probs(g, stack, state, plan, l, u)
            j = S.draw(p, s, rng)
            drawn[l][u] = lo + j, 1.0 / (s * p[j])
            below += g.arc_src[lo + j].tolist()
        if l == 1:
            drawn[0].update(below)
            return
        for v in below:
            if v not in drawn[l - 1]:
                visit(l - 1, v)

    for u in batch:
        if u not in drawn[-1]:
            visit(stack.depth, u)
    del visit  # it refers to itself: free the field now, not at a gc pass
    nodes = [np.array(sorted(d), dtype=np.intp) for d in drawn[:-1]]
    nodes.append(np.array(batch, dtype=np.intp))
    arcs = [None]
    for l in range(1, stack.depth + 1):
        parts = [drawn[l][u] for u in nodes[l].tolist()]
        arcs.append((np.concatenate([ids for ids, _ in parts]),
                     np.repeat(np.arange(len(parts)), [len(i) for i, _ in parts]),
                     np.concatenate([c for _, c in parts]).reshape(1, -1)))
    return nodes, arcs


def _with_hub(g):
    """g plus one node linked to every node of g."""
    n = g.n_nodes
    return G.AttributedGraph(
        np.vstack([g.node_features, np.full((1, g.d_node), 0.5)]),
        g.labels + [g.labels[0]],
        np.vstack([g.links, [(n, v) for v in range(n)]]),
        np.vstack([g.link_features, np.full((n, g.d_link), 0.5)]),
        g.n_labels)


def oracle_batches(g, batch):
    """Batches for the per-visit oracle: the graph's batch, reversed, with
    repeated nodes, a strided range and every node."""
    b = list(batch)
    return [b, b[::-1], [b[1], b[0], b[1], b[2], b[0], b[1]],
            list(range(1, g.n_nodes, 3)), list(range(g.n_nodes))]


@pytest.mark.parametrize("arch", L.ARCHITECTURES)
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_sampled_field_matches_per_visit_oracle(arch, depth):
    """Nodes, arc ids, destinations, coefficients and the generator state
    after every batch equal the per-visit oracle's, for every strategy,
    sample sizes 1, 3 and 8 and refresh intervals 1 and 3, also on a graph
    with one node linked to all others."""
    cases = graphs()
    g, batch = cases["interaction"]
    cases["interaction+hub"] = _with_hub(g), list(batch) + [g.n_nodes]
    for gname, (g, batch) in cases.items():
        for strategy in ("uniform", "gate", "minvar"):
            for s in (1, 3, 8):
                for interval in (1, 3):
                    case = (gname, strategy, s, interval)
                    stack = L.LayerStack(arch, g.d_node, g.d_link, hidden=4,
                                         depth=depth, seed=5)
                    plan = S.SamplePlan(strategy=strategy, sample_size=s,
                                        refresh_interval=interval)
                    state = S.SamplerState()
                    rng, oracle_rng = (np.random.default_rng(9),
                                       np.random.default_rng(9))
                    for b in oracle_batches(g, batch):
                        S.refresh(state, g, stack, plan, b)
                        nodes, arcs = L._sampled_field(g, stack, b, plan,
                                                       state, rng)
                        want_nodes, want_arcs = _sampled_field_per_visit(
                            g, stack, b, plan, state, oracle_rng)
                        assert len(nodes) == len(want_nodes) == depth + 1
                        for a, w in zip(nodes, want_nodes):
                            assert a.dtype == w.dtype, case
                            assert np.array_equal(a, w), case
                        assert arcs[0] is None and len(arcs) == len(want_arcs)
                        for got, want in zip(arcs[1:], want_arcs[1:]):
                            for a, w in zip(got, want):
                                assert a.dtype == w.dtype, case
                                assert a.shape == w.shape, case
                                assert np.array_equal(a, w), case
                        assert (rng.bit_generator.state
                                == oracle_rng.bit_generator.state), case


@pytest.mark.parametrize("arch", L.ARCHITECTURES)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sampled_batch_of_isolated_nodes(arch, depth):
    """A batch of isolated nodes draws nothing, leaves the generator as it
    was, and its sampled forward equals its full-neighborhood forward."""
    g, _ = graphs()["random+isolated"]
    batch = [12, 12]
    assert degree(g, 12) == 0
    stack = L.LayerStack(arch, g.d_node, g.d_link, hidden=4, depth=depth,
                         seed=5)
    plan = S.SamplePlan(strategy="minvar", sample_size=3)
    state, rng = S.SamplerState(), np.random.default_rng(9)
    S.refresh(state, g, stack, plan, batch)
    before = rng.bit_generator.state
    _, arcs = L._sampled_field(g, stack, batch, plan, state, rng)
    assert rng.bit_generator.state == before
    assert all(ids.size == dst.size == coef.size == 0
               for ids, dst, coef in arcs[1:])
    sampled = L.forward(g, stack, batch, plan, state, rng).data
    assert np.array_equal(sampled, L.forward(g, stack, batch).data)


@pytest.mark.parametrize("gname", ["interaction", "directed",
                                   "random+isolated", "no-links"])
@pytest.mark.parametrize("sname", ["rw", "wl", "sage", "concat", "rw-kernel"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_whole_field_matches_searched_field(gname, sname, depth):
    """``_whole_field`` is the field ``_full_field`` finds below every node,
    and ``full_forward`` and the eager refresh give over it, bit for bit,
    what they give over the searched field."""
    g = graphs()[gname if gname == "random+isolated" else "interaction"][0]
    if gname == "directed":
        g = directed(g)
    elif gname == "no-links":
        g = G.AttributedGraph(g.node_features, g.labels, [],
                              np.zeros((0, g.d_link)), g.n_labels)
    nodes, arcs = L._whole_field(g, depth)
    want_nodes, want_arcs = L._full_field(g, np.arange(g.n_nodes), depth)
    assert len(nodes) == len(want_nodes) == depth + 1
    for a, b in zip(nodes, want_nodes):
        assert np.array_equal(a, b)
    assert arcs[0] is want_arcs[0] is None
    for (ids, dst, coef), (want_ids, want_dst, want_coef) in zip(
            arcs[1:], want_arcs[1:]):
        assert np.array_equal(ids, want_ids) and np.array_equal(dst, want_dst)
        assert coef is want_coef is None

    stack = L.LayerStack(d_node=g.d_node, d_link=g.d_link, hidden=4,
                         depth=depth, seed=5, **STACKS[sname])
    new = L.full_forward(g, stack)
    old = L.field_forward(g, stack, want_nodes, want_arcs)
    for key in ("H", "gates", "terms"):
        assert len(new[key]) == len(old[key]) == depth + 1
        for l, (a, b) in enumerate(zip(new[key], old[key])):
            assert (a is b is None if key != "H" and l == 0
                    else np.array_equal(a, b)), (key, l)

    # A refresh for the batch of every node weighs over the searched field.
    for strategy in ("gate", "minvar"):
        plan, eager, searched = (S.SamplePlan(strategy), S.SamplerState(),
                                 S.SamplerState())
        S.refresh(eager, g, stack, plan)
        S.refresh(searched, g, stack, plan, np.arange(g.n_nodes))
        for l in range(1, depth + 1):
            assert not np.isnan(eager.weights[l]).any(), (strategy, l)
            assert np.array_equal(eager.weights[l], searched.weights[l]), (
                strategy, l)


def compute_sampled():
    out = {}
    for gname, (g, batch) in graphs().items():
        batches = [list(batch), list(batch)[::-1], list(range(1, g.n_nodes, 3))]
        for arch in L.ARCHITECTURES:
            for depth in (1, 2, 3):
                for strategy in ("uniform", "gate", "minvar"):
                    stack = L.LayerStack(arch, g.d_node, g.d_link, hidden=4,
                                         depth=depth, seed=5)
                    plan = S.SamplePlan(strategy=strategy, sample_size=3)
                    state, rng = S.SamplerState(), np.random.default_rng(9)
                    fields = []
                    for b in batches:
                        S.refresh(state, g, stack, plan, b)
                        nodes, arcs = L._sampled_field(g, stack, b, plan,
                                                       state, rng)
                        fields.append({
                            "nodes": [n.tolist() for n in nodes],
                            "arcs": [[ids.tolist(), dst.tolist(),
                                      coef[0].tolist()]
                                     for ids, dst, coef in arcs[1:]]})
                    key = "%s/sampled-%s-%d-%s" % (gname, arch, depth,
                                                   strategy)
                    out[key] = fields
    return out


def _close(new, old):
    new, old = np.asarray(new, float), np.asarray(old, float)
    assert new.shape == old.shape
    scale = max(np.max(np.abs(old), initial=0.0), 1e-300)
    return np.max(np.abs(new - old), initial=0.0) <= RTOL * scale


@pytest.fixture(scope="module")
def pinned_and_current():
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh), {**compute(), **compute_kernels(),
                               **compute_sampled()}


def test_fixture_covers_every_case(pinned_and_current):
    pinned, current = pinned_and_current
    assert sorted(pinned) == sorted(current)


@pytest.mark.parametrize("gname", ["interaction", "random+isolated"])
@pytest.mark.parametrize("sname", sorted(STACKS))
def test_hidden_arrays_match_fixture(pinned_and_current, gname, sname):
    pinned, current = pinned_and_current
    key = "%s/%s" % (gname, sname)
    assert len(current[key]) == len(pinned[key])
    for new, old in zip(current[key], pinned[key]):
        assert _close(new, old)


@pytest.mark.parametrize("gname", ["interaction", "random+isolated"])
@pytest.mark.parametrize("arch", L.ARCHITECTURES)
def test_batch_loss_and_gradients_match_fixture(pinned_and_current, gname,
                                                arch):
    pinned, current = pinned_and_current
    key = "%s/loss-%s" % (gname, arch)
    assert _close(current[key]["loss"], pinned[key]["loss"])
    assert sorted(current[key]["grads"]) == sorted(pinned[key]["grads"])
    for name, old in pinned[key]["grads"].items():
        assert _close(current[key]["grads"][name], old), name


@pytest.mark.parametrize("gname", ["interaction", "random+isolated"])
@pytest.mark.parametrize("arch", L.ARCHITECTURES)
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_predict_matches_full_graph_logits(gname, arch, depth):
    """``Model.predict`` on a node list is the argmax of the full-graph
    logits' rows, and the forward over those nodes gives ``full_forward``'s
    rows in list order."""
    g, _ = graphs()[gname]
    split = G.make_split(g, seed=1)
    isolated = np.flatnonzero(np.diff(g.arc_ptr) == 0)[:1].tolist()
    assert isolated or gname == "interaction"
    node_sets = {"val": split.val, "test": split.test,
                 "all": range(g.n_nodes), "isolated": isolated,
                 "repeated": [split.test[0], split.val[0]] + [split.test[0]] * 2}
    model = T.build_model(g, T.TrainRun(arch=arch, hidden=4, depth=depth,
                                        seed=7))
    h = L.full_forward(g, model.stack)["H"][-1]
    logits = h @ model.C.data.T + model.c.data[:, 0]
    for name, nodes in node_sets.items():
        nodes = list(nodes)
        if not nodes:
            continue
        assert model.predict(g, nodes) == np.argmax(logits[nodes],
                                                    axis=1).tolist(), name
        cols = L.forward(g, model.stack, nodes).data.T
        assert _close(cols, h[nodes]), name


@pytest.mark.parametrize("gname", ["interaction", "random+isolated"])
@pytest.mark.parametrize("arch", L.ARCHITECTURES)
def test_sampled_fields_match_fixture(pinned_and_current, gname, arch):
    """Every drawn arc, destination and coefficient equals the pinned one."""
    pinned, current = pinned_and_current
    keys = [k for k in pinned if k.startswith("%s/sampled-%s-" % (gname, arch))]
    assert len(keys) == 9
    for key in keys:
        assert len(current[key]) == len(pinned[key]) == 3
        for new, old in zip(current[key], pinned[key]):
            assert len(new["nodes"]) == len(old["nodes"])
            for a, b in zip(new["nodes"], old["nodes"]):
                assert np.array_equal(a, b), key
            assert len(new["arcs"]) == len(old["arcs"])
            for a, b in zip(new["arcs"], old["arcs"]):
                for x, y in zip(a, b):
                    assert np.array_equal(x, y), key


@pytest.mark.parametrize("gname", ["interaction", "random+isolated"])
def test_kernels_match_fixture(pinned_and_current, gname):
    pinned, current = pinned_and_current
    key = "%s/kernel-dp" % gname
    assert sorted(current[key]) == sorted(pinned[key])
    for pname, old in pinned[key].items():
        for hops, (new, value) in enumerate(zip(current[key][pname], old)):
            assert _close(new, value), (pname, hops)
    key = "%s/kernel-neighborhood" % gname
    assert sorted(current[key]) == sorted(pinned[key])
    for pname, old in pinned[key].items():
        assert _close(current[key][pname], old), pname
    key = "%s/kernel-walks" % gname
    assert current[key] == pinned[key]
    key = "%s/kernel-theorem1" % gname
    new, old = np.array(current[key]), np.array(pinned[key])
    assert _close(new[:, 0], old[:, 0])
    assert new[:, 1].tolist() == old[:, 1].tolist()
    g, _ = graphs()[gname]
    stack = theorem1_stack(g)
    cfg = K.KernelConfig(stack.constant_decay, stack.depth)
    rhs = [K.check_theorem1(g, stack, None, k)[1] for k in range(stack.hidden)]
    assert _close(rhs, old[:, 1])
    assert _close([K.rw_kernel_enumerate(g, K.param_path_graph(stack, k), cfg)
                   for k in range(stack.hidden)], old[:, 1])


if __name__ == "__main__":
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        pinned = json.load(fh)
    current = {**compute(), **compute_kernels(), **compute_sampled()}
    pinned.update({k: v for k, v in current.items() if k not in pinned})
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, sort_keys=True)
        fh.write("\n")
