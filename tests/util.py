"""Shared test helpers: random small graphs, finite-difference checking,
and the interaction labelling rule and WL relabeling as arrays."""

import numpy as np

from lase import autodiff as ad
from lase import graph as G
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


def interaction_label(g, u):
    """Replay the interaction generator's labelling rule for node u."""
    return int(G._pairing_rule(g)[u] > 0.0)


def wl_relabel(g, stack, d):
    """Relabeling rounds r(0)=f(u) .. r(d) as an array; rows are nodes."""
    return L._relabel(g, stack, *L._whole_field(g, d)).data.T


def dot(a, b):
    """The inner product of two equal-shape columns as a (1, 1) tensor: their
    ``hadamard`` product summed by a ``matvec`` with a row of ones."""
    return ad.matvec(ad.Tensor2(np.ones((1, a.shape[0]))), ad.hadamard(a, b))


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
