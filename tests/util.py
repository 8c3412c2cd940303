"""Shared test helpers: random small graphs, per-node neighbor lookups,
finite-difference checking, the interaction labelling rule and WL
relabeling as arrays, the single ops the fused ops of ``lase.autodiff``
replaced (``matvec``, ``add``, ``hadamard``, ``concat``, ``sigmoid``), and
the per-coordinate Theorem-1 check (``theorem1_per_k``), kept as their
bit-for-bit oracles."""

from itertools import accumulate

import numpy as np

from lase import autodiff as ad
from lase import graph as G
from lase import kernels as K
from lase import layers as L
from lase.graph import AttributedGraph, random_graph


def random_digraph(rng, max_nodes=8, **kw):
    """Directed graph: random_graph's links, each reversed with probability
    1/2, plus a reverse copy of about a third of them (new features)."""
    g = random_graph(rng, max_nodes=max_nodes, **kw)
    links = [(d, s) if rng.random() < 0.5 else (s, d) for s, d in g.links]
    back = [(d, s) for s, d in links if rng.random() < 0.3]
    lf = np.vstack([g.link_features, rng.normal(size=(len(back), g.d_link))])
    return AttributedGraph(g.node_features, g.labels, links + back, lf, 1,
                           undirected=False)


def neighbors(g, u):
    """Node u's (neighbor id, link id) pairs, sorted: its arcs in order."""
    lo, hi = g.arc_ptr[u], g.arc_ptr[u + 1]
    return tuple(zip(g.arc_src[lo:hi].tolist(), g.arc_link[lo:hi].tolist()))


def degree(g, u):
    """The number of arcs into node u."""
    return int(g.arc_ptr[u + 1] - g.arc_ptr[u])


def interaction_label(g, u):
    """Replay the interaction generator's labelling rule for node u."""
    return int(G._pairing_rule(g)[u] > 0.0)


def wl_relabel(g, stack, d):
    """Relabeling rounds r(0)=f(u) .. r(d) as an array; rows are nodes."""
    return L._relabel(g, stack, *L._whole_field(g, d)).data.T


def matvec(w, x):
    """Y = W X with W (m, n) and X (n, k): W applied to every column of X."""
    return ad.affine(w, (x,))


def add(a, b):
    if a.shape != b.shape:
        raise ValueError("add shape mismatch: %s vs %s" % (a.shape, b.shape))
    return ad._make(a.data + b.data, "add", (a, b),
                    lambda g: (g if a.tracked else None,
                               g if b.tracked else None))


def hadamard(a, b):
    if a.shape != b.shape:
        raise ValueError("hadamard shape mismatch: %s vs %s" % (a.shape, b.shape))

    def vjp(g):
        return (g * b.data if a.tracked else None,
                g * a.data if b.tracked else None)

    return ad._make(a.data * b.data, "hadamard", (a, b), vjp)


def concat(parts):
    """Vertically stack tensors with equal column counts."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat of an empty list")
    if len({p.shape[1] for p in parts}) != 1:
        raise ValueError("concat expects equal column counts")
    out = np.concatenate([p.data for p in parts], axis=0)
    cuts = list(accumulate((p.shape[0] for p in parts), initial=0))

    def vjp(g):
        return [g[lo:hi] if p.tracked else None
                for p, lo, hi in zip(parts, cuts, cuts[1:])]

    return ad._make(out, "concat", parts, vjp)


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * y * (1.0 - y),)

    return ad._make(y, "sigmoid", (a,), vjp)


def dot(a, b):
    """The inner product of two equal-shape columns as a (1, 1) tensor: their
    ``hadamard`` product summed by a ``matvec`` with a row of ones."""
    return matvec(ad.Tensor2(np.ones((1, a.shape[0]))), hadamard(a, b))


def finite_diff_worst(params, loss_fn, h=1e-6):
    """Max relative error between backward and central-difference gradients.

    ``loss_fn`` must rebuild the loss from scratch on each call (it is
    evaluated off-tape for the differences).  Entries where both gradients
    are below 1e-6 in magnitude are treated as matching: the difference
    quotient carries ~1e-10 of float64 roundoff noise at ``h`` = 1e-6, so a
    relative comparison is meaningless below that scale.
    """
    with ad.Tape() as tape:
        loss = loss_fn()
        for _, t in params:
            t.grad[...] = 0.0
        tape.backward(loss)
    worst = 0.0
    for _, t in params:
        it = np.nditer(t.data, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = t.data[idx]
            t.data[idx] = orig + h
            lp = loss_fn().item()
            t.data[idx] = orig - h
            lm = loss_fn().item()
            t.data[idx] = orig
            fd = (lp - lm) / (2 * h)
            an = t.grad[idx]
            if abs(fd) < 1e-6 and abs(an) < 1e-6:
                continue
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
    return worst


def theorem1_per_k(g, stack, k):
    """Coordinate k's Theorem-1 pair as ``kernels.check_theorem1`` computed
    it before one pass served every coordinate: the column-k sum of a
    whole-graph forward, and the hop recursion's walk-pair sum against
    coordinate k's own path graph."""
    lhs = float(L.full_forward(g, stack)["H"][-1][:, k].sum())
    path = K.param_path_graph(stack, k)
    return lhs, float(K._walk_matrix(g, path, stack.depth,
                                     stack.constant_decay).sum())
