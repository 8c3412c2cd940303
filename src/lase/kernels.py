"""Link-attributed graph kernels.

The neighbor kernel is the Frobenius inner product of two rank-1 neighbor
feature tensors, which factorizes into a product of node-feature and
link-feature inner products.  On top of it sit an l-hop neighborhood kernel
(memoized recursion over node pairs) and a random-walk kernel evaluated two
independent ways: literal walk enumeration and dynamic programming.

Walk convention: a walk with ``hops`` links visits ``hops + 1`` nodes; the
decay prefactor is ``decay ** hops`` (one factor per traversed link), which
makes the enumeration, the DP and the unrolled neighborhood recursion agree
exactly.  Walks may revisit nodes and links; undirected links are traversed
as directed sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelConfig:
    decay: float = 0.5
    hops: int = 2

    def __post_init__(self):
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")
        if self.hops < 0:
            raise ValueError("hops must be >= 0")


ENUM_BUDGET = 10 ** 7


class WalkBudgetError(ValueError):
    """Walk enumeration would exceed ENUM_BUDGET walks or walk pairs."""


def neighbor_feature(fv, fe):
    """Rank-1 neighbor feature tensor: outer product of node and link attrs."""
    fv = np.asarray(fv, dtype=np.float64)
    fe = np.asarray(fe, dtype=np.float64)
    return np.outer(fv, fe)


def neighbor_kernel(a, b):
    """Inner product of two neighbor tensors, in factorized form."""
    fv, fe = a
    fw, fe2 = b
    fv, fe = np.asarray(fv, float), np.asarray(fe, float)
    fw, fe2 = np.asarray(fw, float), np.asarray(fe2, float)
    if fv.shape != fw.shape or fe.shape != fe2.shape:
        raise ValueError("neighbor kernel dimension mismatch")
    return float(fv @ fw) * float(fe @ fe2)


def _gram_nodes(g1, g2):
    if g1.d_node != g2.d_node:
        raise ValueError("node feature dimension mismatch between graphs")
    return g1.node_features @ g2.node_features.T


def _gram_links(g1, g2):
    if g1.d_link != g2.d_link:
        raise ValueError("link feature dimension mismatch between graphs")
    return g1.link_features @ g2.link_features.T


def neighborhood_kernel(g1, g2, u, u2, cfg):
    """l-hop neighborhood kernel between node u of g1 and u2 of g2."""
    s = _gram_nodes(g1, g2)
    e = _gram_links(g1, g2)
    memo = {}

    def rec(a, b, level):
        if level == 0:
            return s[a, b]
        key = (a, b, level)
        if key in memo:
            return memo[key]
        acc = 0.0
        for v, ea in g1.neighbors(a):
            for v2, eb in g2.neighbors(b):
                acc += rec(v, v2, level - 1) * e[ea, eb]
        val = s[a, b] * cfg.decay * acc
        memo[key] = val
        return val

    return float(rec(u, u2, cfg.hops))


def count_walks(g, hops):
    """Number of directed walks with ``hops`` links: the entry sum of A^hops
    (in float64, exact up to 2**53, which is far above any budget)."""
    c = np.ones(g.n_nodes)
    for _ in range(hops):
        c = np.bincount(g.arc_dst, weights=c[g.arc_src], minlength=g.n_nodes)
    return float(c.sum())


def check_enumeration_budget(g1, g2, hops, budget=ENUM_BUDGET):
    """Raise WalkBudgetError, before any enumeration, if the walk pairs of
    g1 and g2 at ``hops`` exceed ``budget``."""
    w1, w2 = count_walks(g1, hops), count_walks(g2, hops)
    if max(w1, w2) > budget or w1 * w2 > budget:
        raise WalkBudgetError("%.0f x %.0f walks at %d hops exceed the "
                              "enumeration budget of %d walk pairs"
                              % (w1, w2, hops, budget))


def enumerate_walks(g, n_nodes_in_walk, budget=ENUM_BUDGET):
    """All directed walk sequences with the given node count.

    Returns (node_seqs, link_seqs) as integer arrays of shape
    (n_walks, n_nodes_in_walk) and (n_walks, n_nodes_in_walk - 1).
    """
    if n_nodes_in_walk < 1:
        raise ValueError("walks need at least one node")
    if count_walks(g, n_nodes_in_walk - 1) > budget:
        raise WalkBudgetError("more than %d walks of %d nodes"
                              % (budget, n_nodes_in_walk))
    walks_nodes, walks_links = [], []

    def extend(nodes, links):
        if len(nodes) == n_nodes_in_walk:
            walks_nodes.append(tuple(nodes))
            walks_links.append(tuple(links))
            return
        for v, eid in g.neighbors(nodes[-1]):
            nodes.append(v)
            links.append(eid)
            extend(nodes, links)
            nodes.pop()
            links.pop()

    for u in range(g.n_nodes):
        extend([u], [])
    count = len(walks_nodes)
    nw = np.array(walks_nodes, dtype=np.intp).reshape(count, n_nodes_in_walk)
    lw = np.array(walks_links, dtype=np.intp).reshape(count, n_nodes_in_walk - 1)
    return nw, lw


def rw_kernel_enumerate(g1, g2, cfg):
    """Random-walk kernel by literal enumeration of all walk pairs."""
    check_enumeration_budget(g1, g2, cfg.hops)
    m = cfg.hops + 1
    s = _gram_nodes(g1, g2)
    e = _gram_links(g1, g2)
    n1, l1 = enumerate_walks(g1, m)
    n2, l2 = enumerate_walks(g2, m)
    if n1.shape[0] == 0 or n2.shape[0] == 0:
        return 0.0
    prod = np.ones((n1.shape[0], n2.shape[0]))
    for i in range(m):
        prod *= s[n1[:, i][:, None], n2[:, i][None, :]]
    for i in range(m - 1):
        prod *= e[l1[:, i][:, None], l2[:, i][None, :]]
    return float(cfg.decay ** cfg.hops * prod.sum())


def rw_kernel_dp(g1, g2, cfg):
    """Random-walk kernel by dynamic programming over node pairs."""
    s = _gram_nodes(g1, g2)
    e = _gram_links(g1, g2)
    m = s.copy()
    for _ in range(cfg.hops):
        nxt = np.zeros_like(m)
        for a in range(g1.n_nodes):
            for b in range(g2.n_nodes):
                acc = 0.0
                for v, ea in g1.neighbors(a):
                    for v2, eb in g2.neighbors(b):
                        acc += m[v, v2] * e[ea, eb]
                nxt[a, b] = s[a, b] * cfg.decay * acc
        m = nxt
    return float(m.sum())


# ---------------------------------------------------------------------------
# Network / kernel correspondence
# ---------------------------------------------------------------------------

def param_path_rows(stack, k):
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


def walk_sum_against_path(g, node_rows, link_rows, decay):
    """Walk sum of g against a fixed feature path (full-path traversal)."""
    m = len(node_rows)
    nw, lw = enumerate_walks(g, m)
    if nw.shape[0] == 0:
        return 0.0
    total = np.ones(nw.shape[0])
    for i in range(m):
        total *= g.node_features[nw[:, i]] @ node_rows[i]
    for i in range(m - 1):
        total *= g.link_features[lw[:, i]] @ link_rows[i]
    return float(decay ** (m - 1) * total.sum())


def check_theorem1(g, stack, cfg, k):
    """Network-sum vs walk-enumeration for coordinate k.

    lhs: sum over nodes of coordinate k of the kernel-mode forward pass.
    rhs: walk enumeration of g against the parameter path graph.
    """
    from . import layers

    if not stack.kernel_mode or stack.arch != "rw":
        raise ValueError("theorem check requires a kernel-mode rw stack")
    if cfg is not None and (cfg.hops != stack.depth
                            or cfg.decay != stack.constant_decay):
        raise ValueError("kernel config disagrees with the layer stack")
    h = layers.full_hidden_arrays(g, stack)[-1]
    lhs = float(h[:, k].sum())
    node_rows, link_rows = param_path_rows(stack, k)
    rhs = walk_sum_against_path(g, node_rows, link_rows, stack.constant_decay)
    return lhs, rhs
