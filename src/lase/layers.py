"""Gate / amplifier / aggregator layer family for link-attributed graphs.

Four architectures share the same skeleton: a learned scalar gate per
neighbor, an amplifier that modulates the neighbor state elementwise by a
linear map of the link attributes, and an aggregator that sums the gated
terms.

``rw``      h0(u) = W0 f(u);  h_l(u) = act(sum_v gate * h_{l-1}(v) (*) U fe (*) W f(u))
``wl``      as rw but with relabeled node features r(u) in place of f(u)
``sage``    h0(u) = f(u);  h_l(u) = act(W1 h_{l-1}(u) o W2 sum_v gate * h_{l-1}(v) (*) U fe)
``concat``  h_l(u) = act(W1 sum_v h_{l-1}(v) + W2 sum_v fe)   (ablation baseline)

The paper's literal ``rw`` form keeps the central hidden state inside the
sum; the chained form above is implemented because it is the one whose
node-sum reproduces the random-walk kernel in kernel mode (Theorem 1, see
kernels.check_theorem1).

Kernel mode replaces every gate by a constant decay and removes activations,
turning the rw stack into an exact walk-sum evaluator.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad

ARCHITECTURES = ("rw", "wl", "sage", "concat")
COMBINE_OPS = ("sum", "hadamard", "concat")


def _glorot(rng, rows, cols):
    a = np.sqrt(6.0 / (rows + cols))
    return ad.Tensor2(rng.uniform(-a, a, size=(rows, cols)), requires_grad=True)


class LayerStack:
    """Parameters plus wiring for one architecture at a fixed depth."""

    def __init__(self, arch, d_node, d_link, hidden=64, depth=2,
                 combine="concat", amplifier_sigmoid=False, kernel_mode=False,
                 constant_decay=0.5, wl_depth=2, seed=0):
        if arch not in ARCHITECTURES:
            raise ValueError("unknown architecture %r" % (arch,))
        if combine not in COMBINE_OPS:
            raise ValueError("unknown combine op %r" % (combine,))
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if hidden < 1:
            raise ValueError("hidden must be >= 1")
        if wl_depth < 1:
            raise ValueError("wl_depth must be >= 1")
        if kernel_mode and arch != "rw":
            raise ValueError("kernel mode is defined for the rw architecture")
        self.arch = arch
        self.d_node = d_node
        self.d_link = d_link
        self.hidden = hidden
        self.depth = depth
        self.combine = combine
        self.amplifier_sigmoid = amplifier_sigmoid
        self.kernel_mode = kernel_mode
        self.constant_decay = constant_decay
        self.wl_depth = wl_depth

        rng = np.random.default_rng(seed)
        self.dims = self._layer_dims()
        self.layers = []
        self.P1 = self.P2 = self.Q = None
        if arch == "wl":
            self.P1 = _glorot(rng, d_node, d_node)
            self.P2 = _glorot(rng, d_node, d_node)
            self.Q = _glorot(rng, d_node, d_node)
        for l in range(depth + 1):
            self.layers.append(self._init_layer(rng, l))

    def _layer_dims(self):
        if self.arch in ("rw", "wl"):
            return [self.hidden] * (self.depth + 1)
        dims = [self.d_node]
        for _ in range(self.depth):
            if self.arch == "sage" and self.combine == "concat":
                dims.append(2 * self.hidden)
            else:
                dims.append(self.hidden)
        return dims

    def _init_layer(self, rng, l):
        d_in = self.dims[l - 1] if l > 0 else None
        if self.arch in ("rw", "wl"):
            if l == 0:
                return SimpleNamespace(W=_glorot(rng, self.hidden, self.d_node))
            return SimpleNamespace(
                W=_glorot(rng, self.hidden, self.d_node),
                U=_glorot(rng, self.hidden, self.d_link),
                V=_glorot(rng, 1, 2 * d_in + self.d_link),
                b=ad.Tensor2(np.zeros((1, 1)), requires_grad=True))
        if self.arch == "sage":
            if l == 0:
                return SimpleNamespace()
            return SimpleNamespace(
                W1=_glorot(rng, self.hidden, d_in),
                W2=_glorot(rng, self.hidden, d_in),
                U=_glorot(rng, d_in, self.d_link),
                V=_glorot(rng, 1, 2 * d_in + self.d_link),
                b=ad.Tensor2(np.zeros((1, 1)), requires_grad=True))
        # concat
        if l == 0:
            return SimpleNamespace()
        return SimpleNamespace(W1=_glorot(rng, self.hidden, d_in),
                           W2=_glorot(rng, self.hidden, self.d_link))

    @property
    def out_dim(self):
        return self.dims[-1]

    def frozen(self):
        """A stack with this one's wiring whose parameters are constant
        copies of their current values."""
        out = copy.copy(self)
        out.P1, out.P2, out.Q = (t if t is None else ad.Tensor2(t.data.copy())
                                 for t in (self.P1, self.P2, self.Q))
        out.layers = [SimpleNamespace(**{name: ad.Tensor2(t.data.copy())
                                         for name, t in vars(p).items()})
                      for p in self.layers]
        return out

    def parameters(self):
        out = []
        for name, t in (("P1", self.P1), ("P2", self.P2), ("Q", self.Q)):
            if t is not None:
                out.append((name, t))
        for l, p in enumerate(self.layers):
            for name, t in vars(p).items():
                out.append(("layer%d.%s" % (l, name), t))
        return out


# ---------------------------------------------------------------------------
# Forward pass over arc arrays
#
# A layer's receptive field is a sorted node list per layer below the top
# plus, per layer l >= 1, the arcs feeding its nodes: graph arc ids, the
# position of each arc's destination in layer l's node list, and a row of
# sampling coefficients (None under full neighborhoods).  Every tensor has one
# column per node or per arc.  Under a Tape the ops record their gradients
# (training); without one they run forward-only (evaluation, refresh and the
# Theorem-1 check).
# ---------------------------------------------------------------------------

def gate(h_u, h_v, fe, p, stack):
    """Neighbor gates sigmoid(V [h_u; fe; h_v] + b), one per column; a plain
    constant in kernel mode.

    V is applied block by block, so the stacked input is never built: that
    would be the largest per-arc tensor of a layer.
    """
    if stack.kernel_mode:
        return stack.constant_decay
    z, ofs = None, 0
    for x in (h_u, fe, h_v):
        zx = ad.matvec(ad.gather(p.V, np.arange(ofs, ofs + x.shape[0])), x)
        z = zx if z is None else ad.add(z, zx)
        ofs += x.shape[0]
    return ad.sigmoid(ad.add_bias(z, p.b))


def amplifier(h_v, fe, p, stack):
    """h_v scaled elementwise by (optionally squashed) U fe."""
    a = ad.matvec(p.U, fe)
    if stack.amplifier_sigmoid:
        a = ad.sigmoid(a)
    return ad.hadamard(h_v, a)


def _cols(mat, ids):
    """Constant tensor whose columns are the rows ``ids`` of ``mat``."""
    return ad.Tensor2(mat[ids].T)


def _positions(g, nodes):
    """Position map of a node list without repeats: ``pos[nodes[i]] == i``.

    Only the entries of ``nodes`` are written, so read it only at members:
    for a sorted list that is the index a binary search would find.
    """
    pos = np.empty(g.n_nodes, dtype=np.intp)
    pos[nodes] = np.arange(len(nodes))
    return pos


def _full_field(g, top, depth):
    """Node lists and arcs of full neighborhoods below the ``top`` nodes."""
    nodes, arcs = [None] * (depth + 1), [None] * (depth + 1)
    nodes[depth] = top
    for l in range(depth, 0, -1):
        arcs[l] = (*g.arcs_into(nodes[l]), None)
        below = np.zeros(g.n_nodes, dtype=bool)
        below[nodes[l]] = below[g.arc_src[arcs[l][0]]] = True
        nodes[l - 1] = np.flatnonzero(below)
    return nodes, arcs


def _sampled_field(g, stack, batch, plan, state, rng):
    """Node lists and drawn arcs of a sampled batch.

    Draws come depth first from the batch, so the draw sequence is fixed by
    the batch and the seed: at each newly visited (layer, node) above layer
    1, draw s neighbors with replacement from ``sampling.plan_probs`` by
    ``sampling.draw`` (the inverse-CDF lookup of ``Generator.choice``), then
    visit the node one layer down (every architecture but concat reads it),
    then each drawn neighbor.  The new layer-1 nodes one visit reaches take
    their uniforms as one block, and all layer-1 draws run after the walk as
    one ``sampling.layer_probs`` and ``sampling.draw_rows`` lookup: the same
    nodes, arcs, coefficients and generator state as one ``draw`` per
    visit.  Layer 0 draws nothing.  A call before any ``sampling.refresh``
    is a ValueError; after one, the generator's state is unspecified.
    """
    from . import sampling

    if getattr(state, "weights", None) is None:
        raise ValueError("a sampled forward needs a sampling.refresh first")
    s, depth, ptr = plan.sample_size, stack.depth, g.arc_ptr
    own = stack.arch != "concat"
    batch = np.array(batch, dtype=np.intp)
    seen = [set() for _ in range(depth + 1)]
    drawn = [([], [], []) for _ in range(depth + 1)]  # nodes, arc ids, coefs
    ones, x = [], [np.empty(0)]  # layer-1 drawing nodes, their uniforms

    def reach(l, reached):
        """Visit each of ``reached`` at layer l, in order."""
        if l == 1:
            m = len(ones)
            for u in reached:
                if u not in seen[1]:
                    seen[1].add(u)
                    if ptr[u + 1] > ptr[u]:
                        ones.append(u)
            if len(ones) > m:
                x.append(rng.random(s * (len(ones) - m)))
            return
        for u in reached:
            if u in seen[l]:
                continue
            seen[l].add(u)
            below = [u] if own else []
            if ptr[u + 1] > ptr[u]:
                p = sampling.plan_probs(g, stack, state, plan, l, u)
                j = sampling.draw(p, s, rng)
                a = ptr[u] + j
                nodes_l, ids, coefs = drawn[l]
                nodes_l.append(u)
                ids += a.tolist()
                coefs += (1.0 / (s * p[j])).tolist()
                below += g.arc_src[a].tolist()
            reach(l - 1, below)

    reach(depth, batch.tolist())
    del reach  # it refers to itself: free the field now, not at a gc pass
    ones = np.array(ones, dtype=np.intp)
    order, at, a, p, cdf = sampling.layer_probs(g, state, 1, ones)
    k = sampling.draw_rows(at, cdf, np.concatenate(x).reshape(-1, s)[order])
    rows = [None, (ones[order], a[k], 1.0 / (s * p[k]))]
    rows += [(np.array(nodes_l, dtype=np.intp),
              np.array(ids, dtype=np.intp).reshape(-1, s),
              np.array(coefs).reshape(-1, s)) for nodes_l, ids, coefs in drawn[2:]]

    nodes = ([None] + [np.array(sorted(d), dtype=np.intp) for d in seen[1:-1]]
             + [batch])
    below = np.zeros(g.n_nodes, dtype=bool)
    below[g.arc_src[rows[1][1].ravel()]] = True
    if own:
        below[nodes[1]] = True
    nodes[0] = np.flatnonzero(below)
    arcs = [None]
    for l in range(1, depth + 1):
        # a column with neighbors takes its node's drawn row; others none
        cols = np.flatnonzero(ptr[nodes[l] + 1] > ptr[nodes[l]])
        rnodes, ids, coefs = rows[l]
        r = _positions(g, rnodes)[nodes[l][cols]]
        arcs.append((ids[r].ravel(), np.repeat(cols, s),
                     coefs[r].reshape(1, -1)))
    return nodes, arcs


def _relabel(g, stack, nodes, arcs):
    """Relabeling rounds over a full-neighborhood field; columns are nodes[-1]."""
    r = _cols(g.node_features, nodes[0])
    for d in range(1, len(nodes)):
        ids, dst, _ = arcs[d]
        pos = _positions(g, nodes[d - 1])
        msg = ad.sigmoid(ad.matvec(stack.Q, r))
        nsum = ad.segment_sum(ad.gather(msg, pos[g.arc_src[ids]]), dst,
                              len(nodes[d]))
        own = ad.gather(r, pos[nodes[d]])
        r = ad.sigmoid(ad.add(ad.matvec(stack.P1, own), ad.matvec(stack.P2, nsum)))
    return r


def _layer(g, stack, l, nodes, pos, arcs, h, r):
    """Layer l over its field: (hidden, per-arc gates, per-arc summands).

    ``pos[k]`` is the position map of nodes[k] (``_positions``).  Gates and
    summands are the lambda and g(v|u) of sampling's estimator; a constant
    gate (kernel mode, and 1 for concat) is a float.
    """
    p = stack.layers[l]
    ids, dst, coef = arcs
    m = len(nodes[l])
    src = pos[l - 1][g.arc_src[ids]]
    fe = _cols(g.link_features, g.arc_link[ids])
    hv = ad.gather(h, src)

    if stack.arch == "concat":
        core = ad.concat([hv, fe])
        if coef is not None:
            hv, fe = ad.scale(hv, coef), ad.scale(fe, coef)
        z = ad.add(ad.matvec(p.W1, ad.segment_sum(hv, dst, m)),
                   ad.matvec(p.W2, ad.segment_sum(fe, dst, m)))
        return ad.relu(z), 1.0, core

    # Off the tape each per-arc tensor is freed once used, so a full forward
    # holds at most three at a time (gathered neighbors, amplifier, summand).
    own = pos[l - 1][nodes[l]]
    lam = gate(ad.gather(h, own[dst]), hv, fe, p, stack)
    if stack.arch == "sage":
        core = amplifier(hv, fe, p, stack)
    else:
        x = (_cols(g.node_features, nodes[l]) if stack.arch == "rw"
             else ad.gather(r, pos[0][nodes[l]]))
        core = ad.hadamard(amplifier(hv, fe, p, stack),
                           ad.gather(ad.matvec(p.W, x), dst))
    del hv
    term = ad.scale(core, lam)
    if coef is not None:
        term = ad.scale(term, coef)
    nbsum = ad.segment_sum(term, dst, m)

    if stack.arch == "sage":
        z1 = ad.matvec(p.W1, ad.gather(h, own))
        z2 = ad.matvec(p.W2, nbsum)
        if stack.combine == "sum":
            z = ad.add(z1, z2)
        elif stack.combine == "hadamard":
            z = ad.hadamard(z1, z2)
        else:
            z = ad.concat([z1, z2])
        return ad.relu(z), lam, core
    return (nbsum if stack.kernel_mode else ad.relu(nbsum)), lam, core


def _run(g, stack, nodes, arcs):
    """(hidden, gates, summands) per layer over a field; layer 0 has no
    gates or summands."""
    r = None
    if stack.arch == "wl":
        r = _relabel(g, stack, *_full_field(g, nodes[0], stack.wl_depth - 1))
    if stack.arch == "rw":
        h = ad.matvec(stack.layers[0].W, _cols(g.node_features, nodes[0]))
    elif stack.arch == "wl":
        h = ad.matvec(stack.layers[0].W, r)
    else:
        h = _cols(g.node_features, nodes[0])
    out = [(h, None, None)]
    pos = [_positions(g, nodes[l]) for l in range(stack.depth)]
    for l in range(1, stack.depth + 1):
        out.append(_layer(g, stack, l, nodes, pos, arcs[l], out[-1][0], r))
    return out


def forward(g, stack, batch, plan=None, state=None, rng=None):
    """Top-layer hidden tensor (out_dim, len(batch)), columns in batch order.

    ``plan=None`` (or strategy "full") means full neighborhoods.  With a
    sampling plan, each layer's neighbor sum is replaced by the
    importance-sampled estimator (1/s) sum_j gate * term / p_j, drawn with
    ``rng`` from the rows ``sampling.refresh`` wrote into ``state``;
    probabilities are constants of the draw and take no gradient.
    """
    if plan is not None and plan.strategy != "full":
        nodes, arcs = _sampled_field(g, stack, batch, plan, state, rng)
    else:
        nodes, arcs = _full_field(g, np.array(batch, dtype=np.intp),
                                  stack.depth)
    return _run(g, stack, nodes, arcs)[-1][0]


def field_forward(g, stack, nodes, arcs):
    """Untaped forward over a full-neighborhood field of ``_full_field``.

    Returns {"H": [array (len(nodes[l]), dim_l) per layer], "gates": [None,
    array (A_l,) per layer], "terms": [None, array (dim, A_l) per layer]}:
    rows of H follow nodes[l], and gates and terms follow layer l's arcs.
    """
    out = _run(g, stack, nodes, arcs)
    return {"H": [h.data.T for h, _, _ in out],
            "gates": [None] + [lam.data[0] if isinstance(lam, ad.Tensor2)
                               else np.full(len(a[0]), lam)
                               for (_, lam, _), a in zip(out[1:], arcs[1:])],
            "terms": [None] + [core.data for _, _, core in out[1:]]}


def full_forward(g, stack):
    """``field_forward`` over every node: rows of H are nodes, and gates and
    terms are per arc, in the graph's arc order."""
    return field_forward(g, stack, *_full_field(g, np.arange(g.n_nodes),
                                                stack.depth))


def wl_relabel(g, stack, d):
    """Relabeling rounds r(0)=f(u) .. r(d) as an array; rows are nodes."""
    return _relabel(g, stack, *_full_field(g, np.arange(g.n_nodes), d)).data.T
