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
turning the rw stack into an exact walk-sum evaluator; its layers gather no
gate inputs, since the constant reads none.

Each step of a layer is one autodiff op: the gate is ``sigmoid_affine``, the
amplifier ``amplify`` (for rw and wl, ``amplify_gather``, with the product by
W f(u) or W r(u)), the summand (term times gate, times the estimator's
coefficients) one ``scale``, and the sage and concat outputs
relu(W1 x1 o W2 x2) one ``combine``.  Untaped, a sage layer runs 8 ops and a
kernel-mode rw layer 4.  A wl relabel round runs 5: the message sigmoid(Q r)
is one ``sigmoid_affine``, the new label sigmoid(P1 r(u) + P2 sum_v msg(v))
one ``combine`` with the squash, and the other three are the gathers of the
messages and of r(u) and the segment sum.  One builder, ``_field``, makes
full fields and, for the sampler, sampled ones, top down, with positions;
``forward`` runs over either.  Feature columns are built once per forward
over every node, and once per layer over other fields.
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
# A receptive field (``_field``) is a node list per layer and, per layer
# l >= 1, the arcs feeding its nodes.  Every tensor has one column per node
# or per arc.  Under a Tape the ops downstream of a parameter record their
# gradients (training); without one they run forward-only (evaluation,
# refresh and the Theorem-1 check).
# ---------------------------------------------------------------------------

def gate(h_u, h_v, fe, p, stack):
    """Neighbor gates sigmoid(V [h_u; fe; h_v] + b), one per column; in
    kernel mode the plain constant decay, which reads no input (``_layer``
    passes h_u=None there).

    ``affine`` applies V block by block, so the stacked input is never built:
    that would be the largest per-arc tensor of a layer.
    """
    if stack.kernel_mode:
        return stack.constant_decay
    return ad.sigmoid_affine(p.V, (h_u, fe, h_v), p.b)


def _cols(mat, ids):
    """Constant tensor whose columns are the rows ``ids`` of ``mat``."""
    return ad.Tensor2(mat[ids].T)


def _field(g, top, depth, pick, own):
    """Node lists and arcs of a receptive field, built top down from the
    ``top`` nodes.  Layer l's arcs are ``pick(l, nodes[l])``: graph arc ids,
    the position in nodes[l] of each arc's destination, and a row of estimator
    coefficients (None: full neighborhoods).  nodes[l - 1] is the sorted set
    of the arcs' sources, plus nodes[l] when ``own`` is set.  Each layer's
    arcs tuple carries two more arrays: the positions in nodes[l - 1] of each
    arc's source and of each node of nodes[l] (None without ``own``).
    """
    nodes, arcs = [None] * (depth + 1), [None] * (depth + 1)
    nodes[depth] = top
    for l in range(depth, 0, -1):
        ids, dst, coef = pick(l, nodes[l])
        src = g.arc_src[ids]
        below = np.zeros(g.n_nodes, dtype=bool)
        below[src] = True
        if own:
            below[nodes[l]] = True
        nodes[l - 1] = np.flatnonzero(below)
        pos = np.empty(g.n_nodes, dtype=np.intp)  # read only at members
        pos[nodes[l - 1]] = np.arange(len(nodes[l - 1]))
        arcs[l] = (ids, dst, coef, pos[src], pos[nodes[l]] if own else None)
    return nodes, arcs


def _whole_field(g, depth):
    """``_full_field`` below every node, known without a search: each layer
    holds every node, each layer's arcs are every arc, and every position
    is a node id."""
    every = np.arange(g.n_nodes)
    arcs = (np.arange(len(g.arc_src)), g.arc_dst, None, g.arc_src, every)
    return [every] * (depth + 1), [None] + [arcs] * depth


def _full_field(g, top, depth):
    """Node lists and arcs of full neighborhoods below the ``top`` nodes."""
    return _field(g, top, depth,
                  lambda l, nodes: (*g.arcs_into(nodes), None), True)


def _relabel(g, stack, nodes, arcs):
    """Relabeling rounds over a full-neighborhood field; columns are nodes[-1]."""
    r = _cols(g.node_features, nodes[0])
    for d in range(1, len(nodes)):
        _, dst, _, src, own = arcs[d]
        msg = ad.sigmoid_affine(stack.Q, (r,))
        nsum = ad.segment_sum(ad.gather(msg, src), dst, len(nodes[d]))
        r = ad.combine(stack.P1, ad.gather(r, own), stack.P2, nsum, "sum",
                       squash=True)
    return r


def _layer(stack, l, m, arcs, fe, h, x):
    """Layer l over its field: (hidden, per-arc gates, per-arc summands).

    ``m`` is the length of nodes[l], ``arcs`` layer l's arcs tuple with
    their source positions and own positions (``_field``), and ``fe`` the
    arcs' link-feature columns.  ``x`` is the per-node input of rw and wl
    (node features or relabels of nodes[l]).  Gates and summands are the
    lambda and g(v|u) of the sampled estimator; a constant gate (kernel mode,
    and 1 for concat) is a float.
    """
    p = stack.layers[l]
    _, dst, coef, src, own = arcs
    hv = ad.gather(h, src)

    if stack.arch == "concat":
        # field_forward's terms, a constant: no gradient passes through them
        core = ad.Tensor2(np.concatenate([hv.data, fe.data]))
        if coef is not None:
            hv, fe = ad.scale(hv, coef), ad.scale(fe, coef)
        return (ad.combine(p.W1, ad.segment_sum(hv, dst, m),
                           p.W2, ad.segment_sum(fe, dst, m), "sum"),
                1.0, core)

    # Off the tape each per-arc array is freed once used, so a full forward
    # holds at most five at a time: the gathered neighbors and, inside rw's
    # and wl's summand op, U fe, its product with them, the gathered W x and
    # the summand (six with the squash, which keeps U fe too).
    # The kernel-mode gate is a constant and reads no h_u: gather none.
    lam = gate(None if stack.kernel_mode else ad.gather(h, own[dst]),
               hv, fe, p, stack)
    if stack.arch == "sage":
        core = ad.amplify(hv, p.U, fe, stack.amplifier_sigmoid)
    else:
        core = ad.amplify_gather(hv, p.U, fe, p.W, x, dst,
                                 stack.amplifier_sigmoid)
    del hv
    nbsum = ad.segment_sum(ad.scale(core, lam, coef), dst, m)
    if stack.arch == "sage":
        return (ad.combine(p.W1, ad.gather(h, own), p.W2, nbsum,
                           stack.combine), lam, core)
    return (nbsum if stack.kernel_mode else ad.relu(nbsum)), lam, core


def _run(g, stack, nodes, arcs):
    """(hidden, gates, summands) per layer over a field; layer 0 has no
    gates or summands.

    A layer's inputs that no parameter reaches (link-feature columns, rw's
    node-feature columns and the map of wl's columns into nodes[0]) are
    built again only where its arcs are not the object the layer below used:
    once per forward over ``_whole_field``, whose layers share one arcs
    tuple, and per layer over the other fields.  The positions come with
    the field.
    """
    r = x = None
    if stack.arch == "wl":
        r = _relabel(g, stack, *_full_field(g, nodes[0], stack.wl_depth - 1))
        h = ad.affine(stack.layers[0].W, (r,))
    elif stack.arch == "rw":
        x = _cols(g.node_features, nodes[0])
        h = ad.affine(stack.layers[0].W, (x,))
    else:
        h = _cols(g.node_features, nodes[0])
    out = [(h, None, None)]
    for l in range(1, stack.depth + 1):
        if arcs[l] is not arcs[l - 1]:
            fe = _cols(g.link_features, g.arc_link[arcs[l][0]])
            if stack.arch == "rw" and nodes[l] is not nodes[l - 1]:
                # x holds the columns of nodes[l - 1]
                x = _cols(g.node_features, nodes[l])
            elif stack.arch == "wl":  # the columns of r, chained by own
                at = arcs[l][4] if l == 1 else at[arcs[l][4]]
        if stack.arch == "wl":
            x = ad.gather(r, at)
        out.append(_layer(stack, l, len(nodes[l]), arcs[l], fe,
                          out[-1][0], x))
    return out


def forward(g, stack, batch, field=None):
    """Top-layer hidden tensor (out_dim, len(batch)), columns in batch order.

    ``field`` is a prebuilt receptive field whose top layer is ``batch``:
    for a sampled batch, the one the sampler drew, whose per-arc
    coefficients turn each neighbor sum into the importance-sampled
    estimator (1/s) sum_j gate * term / p_j.  ``None`` means full
    neighborhoods.
    """
    if field is None:
        field = _full_field(g, np.array(batch, dtype=np.intp), stack.depth)
    return _run(g, stack, *field)[-1][0]


def field_forward(g, stack, nodes, arcs):
    """Untaped forward over a full-neighborhood field: ``_full_field``'s, or
    ``_whole_field``'s for every node, which builds no receptive field.

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
    terms are per arc, in the graph's arc order.  The field is
    ``_whole_field``: no receptive field is searched for."""
    return field_forward(g, stack, *_whole_field(g, stack.depth))
