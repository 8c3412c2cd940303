"""Dense float64 tensors with a reverse-mode gradient tape.

Everything is a 2-D array with one column per item (a node or an arc); a
single vector is an (n, 1) column.  A tensor is *tracked* when it is a
``requires_grad`` leaf, or the output of an op run inside a ``Tape`` with at
least one tracked input.  The tape records only ops whose output is tracked,
that is ops downstream of a parameter, and each backward rule computes
gradients only for its tracked inputs (``None`` for the rest): an op on
constants alone, such as a gather of node features, costs its forward and
nothing more.  Outside any tape nothing is tracked or recorded, which is the
fast no-grad path.  ``affine`` is the one linear op.  Per-op overhead
outweighs the arithmetic at these sizes, so a layer's compositions are single
ops: ``sigmoid_affine`` (the gate and the relabel's message),
``amplify`` (a column scaled by a linear map, optionally squashed),
``amplify_gather`` (``amplify`` times gathered columns of a second linear
map), ``combine`` (relu, or with ``squash`` sigmoid, of two linear maps
summed, multiplied or stacked), ``scale`` by a row and a constant row, and
the mean ``softmax_cross_entropy``.  Each runs the numpy expressions of the
ops it replaced in the same order, forward and backward, so every value is
bit for bit theirs.  This module holds only the tensors, the tape and the
ops the package runs; it knows no file format (checkpoints are
``training.Model``'s) and imports nothing else of the package.
Broadcasting happens only where an op says so (``scale`` by a scalar or a
row of per-column factors, ``affine``'s bias column); any other shape
disagreement raises.  Segment sums (``segment_sum``, the gradient of
``gather``, the kernels' hop recursion and the graphs' walk maps) are one
``scatter_add`` each.
"""

from __future__ import annotations

import numpy as np


class Tensor2:
    """A rows x cols float64 value, optionally a gradient-carrying leaf."""

    __slots__ = ("data", "requires_grad", "grad", "tracked")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError("Tensor2 data must be 1-D or 2-D")
        self.data = arr
        self.requires_grad = self.tracked = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ValueError("item() requires a scalar tensor")
        return float(self.data[0, 0])

    def __repr__(self):
        return "Tensor2(%r, requires_grad=%r)" % (self.data, self.requires_grad)


class TapeError(RuntimeError):
    """Misuse of the tape: a non-scalar loss, or a consumed tape."""


_ACTIVE = []


class Tape:
    """Execution-ordered record of the ops on tracked tensors; backward
    replays it in reverse."""

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE.pop()
        assert popped is self
        return False

    def record(self, out, inputs, vjp):
        self._nodes.append((out, inputs, vjp))

    def backward(self, loss):
        if self._consumed:
            raise TapeError("tape already consumed; build a fresh tape")
        if loss.data.size != 1:
            raise TapeError("backward requires a scalar loss")
        self._consumed = True
        grads = {id(loss): np.ones((1, 1))}
        if loss.requires_grad:
            loss.grad += grads[id(loss)]
        for out, inputs, vjp in reversed(self._nodes):
            g = grads.get(id(out))
            if g is None:
                continue
            for t, gt in zip(inputs, vjp(g)):
                if gt is None:  # an untracked input
                    continue
                if t.requires_grad:  # a leaf: no op reads its gradient
                    t.grad += gt
                    continue
                acc = grads.get(id(t))
                if acc is None:
                    grads[id(t)] = gt.copy()
                else:
                    acc += gt


def _finite(arr, op):
    if not np.isfinite(arr).all():
        raise FloatingPointError("non-finite value produced by %s" % op)
    return arr


def _make(data, op, inputs, vjp):
    """The output tensor of an op; tracked, and recorded on the active tape,
    when the op runs on a tape and any input is tracked."""
    out = Tensor2(_finite(data, op))
    if _ACTIVE and any(t.tracked for t in inputs):
        out.tracked = True
        _ACTIVE[-1].record(out, inputs, vjp)
    return out


def _affine(w, xs, b):
    """(Y, inputs, backward rule) of ``affine``: the rule maps Y's gradient
    to the gradients of its inputs, for the fused ops to share."""
    (m, n), (rows, cols) = w.data.shape, xs[0].data.shape
    blocks = [w.data]  # one block is W itself: a product with a view costs more
    if len(xs) > 1:
        blocks, rows = [], 0
        for x in xs:
            blocks.append(w.data[:, rows:rows + x.data.shape[0]])
            rows += x.data.shape[0]
    if rows != n or len(xs) > 1 and {x.data.shape[1] for x in xs} != {cols}:
        raise ValueError("affine shape mismatch: %s vs %s"
                         % (w.shape, [x.shape for x in xs]))
    if b is not None and b.data.shape != (m, 1):
        raise ValueError("affine bias shape mismatch: %s vs %s"
                         % (w.shape, b.shape))
    y = None
    for wx, x in zip(blocks, xs):
        y = wx @ x.data if y is None else y + wx @ x.data
    if b is not None:
        y = y + b.data

    def vjp(g):
        gw = None
        if w.tracked:
            gw = [g @ x.data.T for x in xs]
            gw = gw[0] if len(gw) == 1 else np.concatenate(gw, axis=1)
        out = [gw] + [wx.T @ g if x.tracked else None
                      for wx, x in zip(blocks, xs)]
        if b is not None:
            out.append(np.sum(g, axis=1, keepdims=True) if b.tracked else None)
        return out

    return y, (w, *xs) if b is None else (w, *xs, b), vjp


def affine(w, xs, b=None):
    """Y = sum_i W[:, block_i] X_i (+ b): W's columns split into consecutive
    blocks, one per X_i, applied in order; then the column b (rows, 1), if
    given, added to every column.  The stacked input is never built."""
    y, inputs, vjp = _affine(w, xs, b)
    return _make(y, "affine", inputs, vjp)


def sigmoid_affine(w, xs, b=None):
    """sigmoid(affine(w, xs, b)) as one op.  The pre-activation is checked
    for finiteness as ``affine``'s output, since the sigmoid would hide an
    overflow."""
    z, inputs, vjp = _affine(w, xs, b)
    y = 1.0 / (1.0 + np.exp(-_finite(z, "affine")))
    return _make(y, "sigmoid", inputs, lambda g: vjp(g * y * (1.0 - y)))


def _amplify(h, z, vjp, squash):
    """(H (*) a, backward rule) for a = z, or sigmoid(z) with ``squash``,
    where z and its rule ``vjp`` are ``_affine``'s: the rule maps the
    product's gradient to the gradients of h and of the affine's inputs."""
    a = 1.0 / (1.0 + np.exp(-z)) if squash else z
    if h.shape != a.shape:
        raise ValueError("hadamard shape mismatch: %s vs %s" % (h.shape, a.shape))

    def rule(g):
        ga = g * h.data
        if squash:
            ga = ga * a * (1.0 - a)
        return [g * a if h.tracked else None] + vjp(ga)

    return h.data * a, rule


def amplify(h, w, x, squash=False):
    """H (*) (W X), or H (*) sigmoid(W X) with ``squash``, as one op: each
    column of h scaled elementwise by a linear map of x's column."""
    z, inputs, vjp = _affine(w, (x,), None)
    y, rule = _amplify(h, _finite(z, "affine"), vjp, squash)
    return _make(y, "hadamard", (h, *inputs), rule)


def amplify_gather(h, w1, x1, w2, x2, idx, squash=False):
    """amplify(h, w1, x1, squash) (*) (W2 X2)[:, idx] as one op: each column
    of h scaled by a linear map of x1's column and by the column idx[j] of
    a linear map of x2, which may repeat or leave out columns."""
    z, inputs, vjp1 = _affine(w1, (x1,), None)
    ha, rule1 = _amplify(h, z, vjp1, squash)
    in1 = (h, *inputs)
    b, in2, vjp2 = _affine(w2, (x2,), None)
    bg = b[:, idx]
    if ha.shape != bg.shape:
        raise ValueError("hadamard shape mismatch: %s vs %s"
                         % (ha.shape, bg.shape))
    y = ha * bg
    # The product hides neither an overflow nor a NaN, except the squash's
    # and those in columns of W2 X2 that idx leaves out.
    if (not np.isfinite(y).all() or not np.isfinite(b).all()
            or squash and not np.isfinite(z).all()):
        for part, op in ((z, "affine"), (ha, "hadamard"), (b, "affine"),
                         (bg, "gather"), (y, "hadamard")):
            _finite(part, op)

    def rule(g):
        """The hadamard's rule, then the gather's, the product's and
        amplify's, each only when a tracked input needs it."""
        g2 = g * ha if any(t.tracked for t in in2) else None
        out = ([None] * 2 if g2 is None
               else vjp2(_scatter_cols(g2, idx, b.shape[1])))
        if not any(t.tracked for t in in1):
            return [None] * 3 + out
        return rule1(g * bg) + out

    return _make(y, "hadamard", in1 + in2, rule)


_COMBINED = {"sum": "add", "hadamard": "hadamard", "concat": "concat"}


def combine(w1, x1, w2, x2, how, squash=False):
    """relu(W1 X1 o W2 X2) as one op, where o is ``how``: "sum",
    "hadamard" or "concat" (W2 X2's rows below W1 X1's); with ``squash``,
    a sigmoid in place of the relu."""
    if how not in _COMBINED:
        raise ValueError("unknown combine op %r" % (how,))
    z1, in1, vjp1 = _affine(w1, (x1,), None)
    z2, in2, vjp2 = _affine(w2, (x2,), None)
    if how == "concat":
        if z1.shape[1] != z2.shape[1]:
            raise ValueError("concat expects equal column counts")
        z = np.concatenate([z1, z2], axis=0)
    elif z1.shape != z2.shape:
        raise ValueError("%s shape mismatch: %s vs %s"
                         % (_COMBINED[how], z1.shape, z2.shape))
    else:
        z = z1 + z2 if how == "sum" else z1 * z2
    if not np.isfinite(z).all():  # name the first step that overflowed
        for part, op in ((z1, "affine"), (z2, "affine"), (z, _COMBINED[how])):
            _finite(part, op)
    y = 1.0 / (1.0 + np.exp(-z)) if squash else np.maximum(z, 0.0)

    def vjp(g):
        g = g * y * (1.0 - y) if squash else g * (z > 0.0)
        if how == "sum":
            g1 = g2 = g
        elif how == "hadamard":
            g1, g2 = g * z2, g * z1
        else:
            g1, g2 = g[:len(z1)], g[len(z1):]
        return vjp1(g1) + vjp2(g2)

    return _make(y, "sigmoid" if squash else "relu", in1 + in2, vjp)


def scale(a, s, c=None):
    """s * a, column by column, then times ``c`` if given.  ``s`` is a
    (1, cols) row of per-column factors, a Tensor2 or a constant (a float or
    a numpy row); ``c`` is a constant row.  The backward rule forms g * c
    first, as a second ``scale`` by c would."""
    tensor = isinstance(s, Tensor2)
    if tensor and s.shape != (1, a.shape[1]):
        raise ValueError("scale factor must be a (1, %d) row" % a.shape[1])
    sd = s.data if tensor else s
    y = a.data * sd
    if c is not None:
        y = y * c

    def vjp(g):
        if c is not None:
            g = g * c
        ga = g * sd if a.tracked else None
        if not tensor:
            return (ga,)
        return (ga, np.sum(g * a.data, axis=0, keepdims=True) if s.tracked
                else None)

    return _make(y, "scale", (a, s) if tensor else (a,), vjp)


def scatter_add(index, values, shape):
    """Zeros of ``shape`` (rows, cols) with each entry of ``values`` added,
    in input order, into the flat row-major position its entry of the flat
    ``index`` names; every position must lie in [0, rows * cols).

    One weighted ``np.bincount``: bincount adds its weights in input order,
    so every sum is bit for bit the one ``np.add.at`` gives.  The caller
    builds the index, once for all the sums that share it.
    """
    rows, cols = shape
    return np.bincount(index, weights=values.ravel(),
                       minlength=rows * cols).reshape(rows, cols)


def _scatter_cols(x, idx, n):
    """(rows, n) zeros with column j of x added into column idx[j]: a
    ``scatter_add`` over the positions ``row * n + idx``.  ``idx`` must lie
    in [0, n)."""
    rows = x.shape[0]
    flat = np.arange(rows)[:, None] * n + np.asarray(idx, dtype=np.intp)
    return scatter_add(flat.ravel(), x, (rows, n))


def gather(a, idx):
    """Columns a[:, idx]; an index may repeat."""
    return _make(a.data[:, idx], "gather", (a,),
                 lambda g: (_scatter_cols(g, idx, a.shape[1]),))


def segment_sum(a, idx, n):
    """(rows, n) sums: column j of a is added into column idx[j], in order."""
    return _make(_scatter_cols(a.data, idx, n), "segment_sum", (a,),
                 lambda g: (g[:, idx],))


def relu(a):
    y = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return _make(y, "relu", (a,), vjp)


def softmax_cross_entropy(logits, label):
    """Mean cross-entropy of per-column labels against column logits: the
    sum over columns times 1 / cols.

    ``label`` is one label per column of ``logits`` (an int for one column).
    """
    k, cols = logits.shape
    label = np.array(label, dtype=np.intp).reshape(-1)
    if label.size != cols or np.any((label < 0) | (label >= k)):
        raise ValueError("labels %s do not fit %d logit columns of %d classes"
                         % (label.tolist(), cols, k))
    z = logits.data
    cols_idx = np.arange(cols)
    m = np.max(z, axis=0)
    ez = np.exp(z - m)
    total = np.sum(ez, axis=0)
    probs = ez / total
    loss = np.sum(-(z[label, cols_idx] - m - np.log(total)))
    inv = 1.0 / cols

    def vjp(g):
        d = probs.copy()
        d[label, cols_idx] -= 1.0
        return ((g * inv)[0, 0] * d,)

    return _make(np.array([[loss]]) * inv, "softmax_cross_entropy",
                 (logits,), vjp)
