"""Dense float64 tensors with a reverse-mode gradient tape.

Everything is a 2-D array with one column per item (a node or an arc); a
single vector is an (n, 1) column.  Ops executed inside a ``Tape`` context
record their backward rules; outside any tape they run forward-only, which
doubles as the fast no-grad path.  Broadcasting happens only where an op says
so (``scale`` by a scalar or a row of per-column factors, ``add_bias`` of a
column); any other shape disagreement raises.  Column scatters (``segment_sum``
and the gradient of ``gather``) are one ``np.bincount`` each, whose sums are
bit for bit those of ``np.add.at``.
"""

from __future__ import annotations

import json

import numpy as np

from .fileio import atomic_write


class Tensor2:
    """A rows x cols float64 value, optionally a gradient-carrying leaf."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError("Tensor2 data must be 1-D or 2-D")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.size != 1:
            raise ValueError("item() requires a scalar tensor")
        return float(self.data[0, 0])

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return "Tensor2(%r, requires_grad=%r)" % (self.data, self.requires_grad)


class TapeError(RuntimeError):
    """Misuse of the tape: a non-scalar loss, or a consumed tape."""


_ACTIVE = []


class Tape:
    """Execution-ordered record of ops; backward replays it in reverse."""

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


def _make(data, op, inputs=None, vjp=None):
    out = Tensor2(_finite(data, op))
    if _ACTIVE and vjp is not None:
        _ACTIVE[-1].record(out, inputs, vjp)
    return out


def matvec(w, x):
    """Y = W X with W (m, n) and X (n, k): W applied to every column of X."""
    m, n = w.shape
    if x.shape[0] != n:
        raise ValueError("matvec shape mismatch: %s vs %s" % (w.shape, x.shape))
    y = w.data @ x.data

    def vjp(g):
        return g @ x.data.T, w.data.T @ g

    return _make(y, "matvec", (w, x), vjp)


def add_bias(a, b):
    """a + b with the column b (rows, 1) added to every column of a."""
    if b.shape != (a.shape[0], 1):
        raise ValueError("add_bias shape mismatch: %s vs %s" % (a.shape, b.shape))

    def vjp(g):
        return g, np.sum(g, axis=1, keepdims=True)

    return _make(a.data + b.data, "add_bias", (a, b), vjp)


def add(a, b):
    if a.shape != b.shape:
        raise ValueError("add shape mismatch: %s vs %s" % (a.shape, b.shape))
    return _make(a.data + b.data, "add", (a, b), lambda g: (g, g))


def hadamard(a, b):
    if a.shape != b.shape:
        raise ValueError("hadamard shape mismatch: %s vs %s" % (a.shape, b.shape))

    def vjp(g):
        return g * b.data, g * a.data

    return _make(a.data * b.data, "hadamard", (a, b), vjp)


def scale(a, s):
    """s * a, column by column: ``s`` is a (1, cols) row of per-column
    factors, a Tensor2 or a constant (a float or a numpy row)."""
    if not isinstance(s, Tensor2):
        return _make(a.data * s, "scale", (a,), lambda g: (g * s,))
    if s.shape != (1, a.shape[1]):
        raise ValueError("scale factor must be a (1, %d) row" % a.shape[1])

    def vjp(g):
        return g * s.data, np.sum(g * a.data, axis=0, keepdims=True)

    return _make(a.data * s.data, "scale", (a, s), vjp)


def _scatter_cols(x, idx, n):
    """(rows, n) zeros with column j of x added into column idx[j].

    One ``np.bincount`` over the flat row-major positions ``row * n + idx``:
    bincount adds its weights in input order, so every sum is bit for bit
    the one ``np.add.at`` gives.  ``idx`` must lie in [0, n).
    """
    rows = x.shape[0]
    flat = np.arange(rows)[:, None] * n + np.asarray(idx, dtype=np.intp)
    return np.bincount(flat.ravel(), weights=x.ravel(),
                       minlength=rows * n).reshape(rows, n)


def gather(a, idx):
    """Columns a[:, idx]; an index may repeat."""
    return _make(a.data[:, idx], "gather", (a,),
                 lambda g: (_scatter_cols(g, idx, a.shape[1]),))


def segment_sum(a, idx, n):
    """(rows, n) sums: column j of a is added into column idx[j], in order."""
    return _make(_scatter_cols(a.data, idx, n), "segment_sum", (a,),
                 lambda g: (g[:, idx],))


def concat(parts):
    """Vertically stack tensors with equal column counts."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat of an empty list")
    if len({p.shape[1] for p in parts}) != 1:
        raise ValueError("concat expects equal column counts")
    out = np.concatenate([p.data for p in parts], axis=0)
    cuts = np.cumsum([p.shape[0] for p in parts])[:-1]
    return _make(out, "concat", tuple(parts), lambda g: tuple(np.split(g, cuts)))


def sigmoid(a):
    y = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * y * (1.0 - y),)

    return _make(y, "sigmoid", (a,), vjp)


def relu(a):
    y = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return _make(y, "relu", (a,), vjp)


def softmax_cross_entropy(logits, label):
    """Summed cross-entropy of per-column labels against column logits.

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

    def vjp(g):
        d = probs.copy()
        d[label, cols_idx] -= 1.0
        return (g[0, 0] * d,)

    return _make(np.array([[loss]]), "softmax_cross_entropy", (logits,), vjp)


# ---------------------------------------------------------------------------
# Checkpoint format: <path>.json manifest + <path>.bin little-endian float64
# blob, tensors flattened row-major and concatenated in manifest order.
# ---------------------------------------------------------------------------

def save_checkpoint(path_prefix, named_tensors, meta=None):
    manifest = {"meta": meta or {}, "tensors": []}
    blob = bytearray()
    for name, t in named_tensors:
        r, c = t.shape
        manifest["tensors"].append({"name": name, "rows": r, "cols": c})
        blob += np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    atomic_write(path_prefix + ".bin", bytes(blob))
    atomic_write(path_prefix + ".json",
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _check_manifest(manifest, where):
    """A ValueError naming the key unless the manifest is an object whose
    ``tensors`` is a list of objects, each with a string ``name`` and
    non-negative integer ``rows`` and ``cols``, and whose ``meta`` is an
    object."""
    if not isinstance(manifest, dict):
        raise ValueError("%s: expected a JSON object" % where)
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise ValueError("%s: 'tensors' must be a list" % where)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError("%s: tensors[%d] must be an object" % (where, i))
        if not isinstance(entry.get("name"), str):
            raise ValueError("%s: tensors[%d] 'name' must be a string"
                             % (where, i))
        for key in ("rows", "cols"):
            v = entry.get(key)
            if type(v) is not int or v < 0:
                raise ValueError("%s: tensors[%d] %r must be a non-negative "
                                 "integer, not %r" % (where, i, key, v))
    if not isinstance(manifest.get("meta"), dict):
        raise ValueError("%s: 'meta' must be an object" % where)


def load_checkpoint(path_prefix):
    """(named tensors, meta) of a checkpoint, after checking its manifest and
    that the blob holds exactly the float64s the manifest lists."""
    with open(path_prefix + ".json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(path_prefix + ".bin", "rb") as fh:
        blob = fh.read()
    _check_manifest(manifest, path_prefix + ".json")
    entries = manifest["tensors"]
    if sum(e["rows"] * e["cols"] * 8 for e in entries) != len(blob):
        raise ValueError("checkpoint blob size disagrees with manifest")
    tensors, ofs = [], 0
    for entry in entries:
        r, c = entry["rows"], entry["cols"]
        n = r * c * 8
        arr = np.frombuffer(blob[ofs:ofs + n], dtype="<f8").reshape(r, c)
        ofs += n
        tensors.append((entry["name"], Tensor2(arr.copy())))
    return tensors, manifest["meta"]
