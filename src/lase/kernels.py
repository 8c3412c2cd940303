"""Link-attributed graph kernels.

The neighbor kernel is the Frobenius inner product of two rank-1 neighbor
feature tensors, which factorizes into a product of node-feature and
link-feature inner products.  An l-hop neighborhood kernel is read off one
hop recursion over the graphs' arc arrays; the random-walk kernel is the
inner product of the two graphs' walk maps, or that recursion's sum where the
maps are too wide; a second random-walk kernel enumerates the walk pairs
literally.

Hop recursion (Vishwanathan et al., "Graph Kernels", JMLR 2010): M[u, u2]
sums the kernel products of the walk pairs from u in g1 and u2 in g2.  With
the link Gram factorized over link-feature coordinates k, one hop is
M <- S (*) decay * sum_k R1_k M R2_k^T, where S is the node Gram and row u of
R_k x sums fe[link, k] x[v] over the arcs v -> u (v a neighbor of u).  A hop
gathers M's rows at the arcs' sources once; each R_k product is one
``autodiff.scatter_add`` over flat (arc, column) indices, built once per call
for each graph.  It holds O(n1 n2 + A1 n2 + n1 A2)
numbers for A arcs, the gathered rows and the index arrays included: no
arc-pair matrix and no dense adjacency.

Walk maps (Kriege et al., "A unifying view of explicit and implicit feature
maps of graph kernels", DMKD 2019): with linear node and link base kernels,
the random-walk kernel is ``decay**hops * <phi(g1), phi(g2)>``, where phi(g)
(``AttributedGraph.walk_map``) sums over every walk the tensor product of its
node and link features, W = d_node**(hops + 1) * d_link**hops numbers.  Each
walk is split at its middle link, hop a = ceil(hops / 2): a left part (the
prefixes of a - 1 links ending at the link's start, n x d_node**a *
d_link**(a - 1)) and a right part (the suffixes from its end, built by the
hop recursion's gather and ``autodiff.scatter_add``) meet in one gemm per
link-feature coordinate over the arcs; no dense adjacency is formed.  A
graph keeps each map it builds, W float64s (128 KB for the benchmark's
d_node = d_link = 4 at 3 hops), so a Gram builds one map per graph, not one
recursion per pair.
``rw_kernel_dp`` takes the maps when W <= MAP_WIDTH and the hop recursion
otherwise.  MAP_WIDTH was set by measurement: over the 36 pairs of six
random graphs of 40-120 nodes, a cold pair (both maps built) beat the
recursion at every (d_node, d_link, hops) of width up to 20000 and lost at
some from 25000 on, as the map's gemm grows with W and the recursion with
hops * d_link * n.  ``neighborhood_kernel`` and ``theorem1_nodes``' right
side need per-node sums, so they stay on the hop recursion.

Walk convention: a walk with ``hops`` links visits ``hops + 1`` nodes; the
decay prefactor is ``decay ** hops`` (one factor per traversed link), which
makes the enumeration, the DP and the unrolled neighborhood recursion agree
exactly.  Walks may revisit nodes and links; undirected links are traversed
as directed sequences.

Theorem 1: coordinate k of the kernel-mode ``rw`` network's top layer at
node u equals the walk-pair sum from u against a directed parameter path
graph (``param_path_graph(stack, k)``), so the summed activations equal the
random-walk kernel.  ``theorem1_nodes`` checks it per node for every
coordinate at once: one forward, and one hop recursion against the disjoint
union of the paths (``param_path_graph(stack)``), whose walk matrix is zero
outside the paths' top nodes.  It needs no enumeration budget and holds on
directed graphs; ``rw_kernel_enumerate`` against a path graph is its
small-graph oracle.  The graph keeps the last pass: the two (n, hidden)
arrays and each coordinate's sums, which ``check_theorem1`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers
from .graph import AttributedGraph


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
MAP_WIDTH = 20000


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


def _check_dims(g1, g2):
    if g1.d_node != g2.d_node:
        raise ValueError("node feature dimension mismatch between graphs")
    if g1.d_link != g2.d_link:
        raise ValueError("link feature dimension mismatch between graphs")


def _segment_index(g, width):
    """Flat positions ``arc_dst[a] * width + j`` of an (A, width) arc array
    in an (n, width) output, in arc order: ``ad.scatter_add``'s index for
    summing the rows ``x[g.arc_src]`` into row u over the arcs v -> u."""
    return (g.arc_dst[:, None] * width + np.arange(width)).ravel()


def _walk_matrix(g1, g2, hops, decay):
    """(n1, n2) walk-pair sums of ``hops`` links from each (u, u2)."""
    _check_dims(g1, g2)
    s = g1.node_features @ g2.node_features.T
    w1 = g1.link_features[g1.arc_link]
    w2 = g2.link_features[g2.arc_link]
    index1 = _segment_index(g1, g2.n_nodes)
    index2 = _segment_index(g2, g1.n_nodes)
    m = s
    for _ in range(hops):
        rows = m[g1.arc_src]
        acc = np.zeros_like(s)
        for k in range(g1.d_link):
            half = ad.scatter_add(index1, w1[:, k:k + 1] * rows, s.shape).T
            acc += ad.scatter_add(index2, w2[:, k:k + 1] * half[g2.arc_src],
                                  s.T.shape).T
        m = s * decay * acc
    return m


def neighborhood_kernel(g1, g2, u, u2, cfg):
    """l-hop neighborhood kernel between node u of g1 and u2 of g2; a node
    id outside its graph is a ValueError."""
    for name, v, g in (("u", u, g1), ("u2", u2, g2)):
        if not 0 <= v < g.n_nodes:
            raise ValueError("%s=%d is not a node id in [0, %d)"
                             % (name, v, g.n_nodes))
    return float(_walk_matrix(g1, g2, cfg.hops, cfg.decay)[u, u2])


def count_walks(g, hops):
    """Number of directed walks with ``hops`` links: the entry sum of A^hops
    (in float64, exact up to 2**53, which is far above any budget)."""
    c = np.ones((g.n_nodes, 1))
    index = _segment_index(g, 1)
    for _ in range(hops):
        c = ad.scatter_add(index, c[g.arc_src], c.shape)
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
    """All directed walk sequences with the given node count, in depth-first
    order; every walk is grown at once by each neighbor of its last node.

    Returns (node_seqs, link_seqs) as integer arrays of shape
    (n_walks, n_nodes_in_walk) and (n_walks, n_nodes_in_walk - 1).
    """
    if n_nodes_in_walk < 1:
        raise ValueError("walks need at least one node")
    if count_walks(g, n_nodes_in_walk - 1) > budget:
        raise WalkBudgetError("more than %d walks of %d nodes"
                              % (budget, n_nodes_in_walk))
    nw = np.arange(g.n_nodes, dtype=np.intp).reshape(-1, 1)
    lw = np.zeros((g.n_nodes, 0), dtype=np.intp)
    for _ in range(n_nodes_in_walk - 1):
        ids, walk = g.arcs_into(nw[:, -1])
        nw = np.column_stack([nw[walk], g.arc_src[ids]])
        lw = np.column_stack([lw[walk], g.arc_link[ids]])
    return nw, lw


def rw_kernel_enumerate(g1, g2, cfg):
    """Random-walk kernel by literal enumeration of all walk pairs."""
    check_enumeration_budget(g1, g2, cfg.hops)
    _check_dims(g1, g2)
    m = cfg.hops + 1
    s = g1.node_features @ g2.node_features.T
    e = g1.link_features @ g2.link_features.T
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
    """Random-walk kernel: ``decay**hops`` times the inner product of the
    graphs' walk maps when they are at most MAP_WIDTH numbers wide, else the
    entry sum of the hop recursion's walk-pair matrix."""
    _check_dims(g1, g2)
    if g1.d_node ** (cfg.hops + 1) * g1.d_link ** cfg.hops <= MAP_WIDTH:
        return cfg.decay ** cfg.hops * float(
            g1.walk_map(cfg.hops) @ g2.walk_map(cfg.hops))
    return float(_walk_matrix(g1, g2, cfg.hops, cfg.decay).sum())


# ---------------------------------------------------------------------------
# Network / kernel correspondence
# ---------------------------------------------------------------------------

def param_path_graph(stack, k=None):
    """Directed parameter path graph of coordinate k, or with ``k=None`` the
    disjoint union of every coordinate's path, coordinate k's node l being
    node ``k * (depth + 1) + l``.

    Node l (0..depth) carries row k of layer l's node transform W, and link
    (l, l - 1) row k of layer l's link transform U.  A link (s, d) is the arc
    d -> s, so the one walk of ``depth`` hops starts at the top node and steps
    down to node 0 along the arcs the forward sums over: the top layer pairs
    with the walk's start in g, on directed graphs as well.
    """
    coords = range(stack.hidden) if k is None else [k]
    rows = [p.W.data[c] for c in coords for p in stack.layers]
    links = [(base + l, base + l - 1)
             for base in range(0, len(rows), stack.depth + 1)
             for l in range(1, stack.depth + 1)]
    link_rows = [p.U.data[c] for c in coords for p in stack.layers[1:]]
    return AttributedGraph(rows, [None] * len(rows), links, link_rows, 0,
                           undirected=False)


def _require_kernel_rw(stack):
    if not stack.kernel_mode or stack.arch != "rw":
        raise ValueError("theorem check requires a kernel-mode rw stack")


def theorem1_nodes(g, stack):
    """Theorem 1 per node, for every coordinate at once: two read-only
    (n_nodes, hidden) arrays, the kernel-mode forward's top layer H[-1] and
    the top-node columns of the hop recursion of g against
    ``param_path_graph(stack)`` at ``depth`` hops.  Row u, column k of the
    right one sums the walk pairs from u against coordinate k's path.

    One forward and one recursion serve every coordinate.  The graph keeps
    the two arrays and each coordinate's two sums (``check_theorem1``) for
    the last stack it was asked about; any change to that stack's shape,
    decay or parameter values, in place or not, is a new pass.  A
    coordinate's rhs sum adds its (n, depth + 1) column block of the walk
    matrix, zero columns included, in row-major order: bit for bit the sum
    of the walk matrix against that coordinate's own path.
    """
    _require_kernel_rw(stack)
    key = (stack.depth, stack.hidden, stack.constant_decay,
           stack.amplifier_sigmoid,
           b"".join(t.data.tobytes() for _, t in stack.parameters()))
    if g._theorem1 is None or g._theorem1[0] != key:
        lhs = layers.full_forward(g, stack)["H"][-1]
        m = _walk_matrix(g, param_path_graph(stack), stack.depth,
                         stack.constant_decay)
        width = stack.depth + 1
        rhs = m[:, stack.depth::width].copy()
        lhs_sums = [float(lhs[:, k].sum()) for k in range(stack.hidden)]
        rhs_sums = [float(m[:, k * width:(k + 1) * width].copy().sum())
                    for k in range(stack.hidden)]
        for a in (lhs, rhs):
            a.setflags(write=False)
        g._theorem1 = (key, lhs, rhs, lhs_sums, rhs_sums)
    return g._theorem1[1:3]


def check_theorem1(g, stack, cfg, k):
    """Network sum vs random-walk kernel against the parameter path graph,
    for coordinate k in ``0..stack.hidden - 1``.

    lhs: sum over nodes of coordinate k of the kernel-mode forward pass.
    rhs: the hop recursion's walk-pair sum of g against
    ``param_path_graph(stack, k)`` at ``depth`` hops; ``rw_kernel_enumerate``
    on the same pair is its small-graph oracle.  Both are the sums
    ``theorem1_nodes`` keeps on g, so checking every k of one stack runs one
    forward and one recursion.
    """
    _require_kernel_rw(stack)
    if cfg is not None and (cfg.hops != stack.depth
                            or cfg.decay != stack.constant_decay):
        raise ValueError("kernel config disagrees with the layer stack")
    if not 0 <= k < stack.hidden:
        raise ValueError("coordinate k=%d outside 0..%d"
                         % (k, stack.hidden - 1))
    theorem1_nodes(g, stack)
    _, _, _, lhs_sums, rhs_sums = g._theorem1
    return lhs_sums[k], rhs_sums[k]
