"""Mini-batch training, micro-F1 evaluation and the validation experiments.

A ``Model`` keeps every parameter and gradient in one flat arena, so the
optimizers update all parameters with one elementwise formula per step.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, asdict, replace

import numpy as np

from . import autodiff as ad
from . import layers, sampling


class TrainingDiverged(FloatingPointError):
    """A non-finite value arose during optimization."""


_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def _check_fields(cls, d, what):
    """Check the JSON object ``d`` as keyword arguments of dataclass ``cls``:
    a non-object, an unknown key or a value of the wrong type raises."""
    if not isinstance(d, dict):
        raise ValueError("%s must be a JSON object, not %s"
                         % (what, type(d).__name__))
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError("%s: unknown keys %s" % (what, ", ".join(unknown)))
    for name, v in d.items():
        f, want = known[name], _JSON_TYPES.get(known[name].type, object)
        if not (v is None and f.default is None or isinstance(v, want)
                and (type(v) is bool) == (want is bool)):
            raise ValueError("%s: %s must be of type %s, not %r"
                             % (what, name, f.type, v))


@dataclass
class TrainRun:
    arch: str = "sage"
    hidden: int = 64
    depth: int = 2
    combine: str = "concat"
    amplifier_sigmoid: bool = False
    wl_depth: int = 2
    optimizer: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 10
    plan: sampling.SamplePlan = field(default_factory=sampling.SamplePlan)
    seed: int = 0
    snr: float = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.snr is not None and not self.snr > 0:
            raise ValueError("snr must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if isinstance(self.plan, dict):
            self.plan = sampling.SamplePlan(**self.plan)

    def to_dict(self):
        d = asdict(self)
        if d["snr"] == math.inf:
            d["snr"] = "inf"
        return d

    @classmethod
    def from_dict(cls, d):
        if isinstance(d, dict) and d.get("snr") == "inf":
            d = {**d, "snr": math.inf}
        _check_fields(cls, d, "config")
        _check_fields(sampling.SamplePlan, d.get("plan", {}), "config plan")
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class MetricHistory:
    """Per-epoch records and run totals.  ``refresh_work``, the (layer, node)
    distributions the refreshes made available, is derived once by ``train``:
    refreshes x depth x non-isolated nodes (0 when unsampled)."""

    train_loss: list = field(default_factory=list)
    val_f1: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    test_f1: float = None
    best_epoch: int = -1
    n_batches: int = 0
    refresh_work: int = 0

    def rows(self):
        return [(e, self.train_loss[e], self.val_f1[e])
                for e in range(len(self.train_loss))]


class Model:
    """A layer stack plus a one-layer softmax classifier head.

    Every parameter's ``data`` and ``grad`` are views of two flat arrays,
    ``self.data`` and ``self.grad`` (the arena), laid out in ``parameters()``
    order, so an optimizer step and ``zero_grad`` are one array op each.
    Code that changes a parameter writes into its arrays in place.  A
    snapshot is a copy of the arena, and ``restore`` writes one back.
    """

    def __init__(self, stack, n_labels, seed=0):
        rng = np.random.default_rng(seed)
        self.stack = stack
        self.n_labels = n_labels
        a = np.sqrt(6.0 / (n_labels + stack.out_dim))
        self.C = ad.Tensor2(rng.uniform(-a, a, (n_labels, stack.out_dim)),
                            requires_grad=True)
        self.c = ad.Tensor2(np.zeros((n_labels, 1)), requires_grad=True)
        params = [t for _, t in self.parameters()]
        self.data = np.concatenate([t.data.ravel() for t in params])
        self.grad = np.zeros_like(self.data)
        ofs = 0
        for t in params:
            end = ofs + t.data.size
            t.data = self.data[ofs:end].reshape(t.shape)
            t.grad = self.grad[ofs:end].reshape(t.shape)
            ofs = end

    def parameters(self):
        return self.stack.parameters() + [("clf.C", self.C), ("clf.c", self.c)]

    def zero_grad(self):
        self.grad.fill(0.0)

    def predict(self, g, nodes):
        """Predicted labels of ``nodes``, in their order: the forward over
        their full-neighborhood receptive field, run without a tape."""
        h = layers.forward(g, self.stack, nodes)
        logits = ad.affine(self.C, (h,), self.c).data
        return np.argmax(logits, axis=0).tolist()

    def snapshot(self):
        return self.data.copy()

    def restore(self, snap):
        self.data[...] = snap

    def save(self, path_prefix, meta=None):
        ad.save_checkpoint(path_prefix, self.parameters(), meta)

    def load(self, path_prefix):
        """Copy a checkpoint's tensors in; its names, count and shapes must
        match ``parameters()`` exactly, or nothing is copied."""
        named, meta = ad.load_checkpoint(path_prefix)
        mine = self.parameters()
        have = [(name, t.shape) for name, t in named]
        want = [(name, t.shape) for name, t in mine]
        if have != want:
            raise ValueError("checkpoint tensors %s do not match the model's %s"
                             % (have, want))
        for (_, src), (_, t) in zip(named, mine):
            t.data[...] = src.data
        return meta


def build_model(g, run):
    stack = layers.LayerStack(
        run.arch, g.d_node, g.d_link, hidden=run.hidden, depth=run.depth,
        combine=run.combine, amplifier_sigmoid=run.amplifier_sigmoid,
        wl_depth=run.wl_depth, seed=run.seed)
    return Model(stack, g.n_labels, seed=run.seed + 1)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def micro_f1(y_true, y_pred):
    """Micro-averaged F1 of single-label predictions.  Each miss is a false
    positive and a false negative, so precision and recall both equal the hit
    rate a.  F1 = 2a*a / (a + a) is kept over a, as it rounds the way the
    pooled counts did: 1 hit in 5 gives 0.20000000000000004."""
    if len(y_true) == 0:
        raise ValueError("micro_f1 of an empty set")
    a = sum(t == p for t, p in zip(y_true, y_pred)) / len(y_true)
    return 2 * a * a / (a + a) if a else 0.0


def _require_labels(g, nodes, name):
    """Raise a ValueError naming the first id of ``nodes`` outside [0, n),
    else the first node with no label."""
    u = next((u for u in nodes if not 0 <= u < g.n_nodes), None)
    if u is not None:
        raise ValueError("%s node id %d is not in [0, %d)"
                         % (name, u, g.n_nodes))
    u = next((u for u in nodes if g.labels[u] is None), None)
    if u is not None:
        raise ValueError("%s node %d has no label" % (name, u))


def evaluate(g, model, nodes, name="evaluated"):
    """Micro-F1 of the model over the labelled node set ``name``."""
    nodes = list(nodes)
    if not nodes:
        raise ValueError("evaluate on an empty node set")
    _require_labels(g, nodes, name)
    return micro_f1([g.labels[u] for u in nodes], model.predict(g, nodes))


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

# Each step is one elementwise update of the model's whole arena: every
# element gets the same operations in the same order as a per-tensor update.

class Sgd:
    def __init__(self, model, lr, weight_decay=0.0):
        self.data, self.grad = model.data, model.grad
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self):
        g = self.grad + self.weight_decay * self.data
        self.data -= self.lr * g


class Adam:
    def __init__(self, model, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.data, self.grad = model.data, model.grad
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g = self.grad + self.weight_decay * self.data
        self.m = b1 * self.m + (1 - b1) * g
        self.v = b2 * self.v + (1 - b2) * g * g
        mhat = self.m / (1 - b1 ** self.t)
        vhat = self.v / (1 - b2 ** self.t)
        self.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def make_optimizer(run, model):
    if run.optimizer == "sgd":
        return Sgd(model, run.lr, run.weight_decay)
    if run.optimizer == "adam":
        return Adam(model, run.lr, run.beta1, run.beta2,
                    weight_decay=run.weight_decay)
    raise ValueError("unknown optimizer %r" % (run.optimizer,))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def batch_loss(g, model, batch, plan=None, state=None, rng=None):
    """Mean cross-entropy over a batch (taped)."""
    h = layers.forward(g, model.stack, batch, plan=plan, state=state, rng=rng)
    logits = ad.affine(model.C, (h,), model.c)
    total = ad.softmax_cross_entropy(logits, [g.labels[u] for u in batch])
    return ad.scale(total, 1.0 / len(batch))


def train(g, split, run):
    """Train a model; returns (model, MetricHistory).

    Deterministic for a fixed (graph, split, run): all randomness is drawn
    from streams derived from run.seed.
    """
    if not split.train:
        raise ValueError("empty train split")
    for name, ids in (("train", split.train), ("val", split.val),
                      ("test", split.test)):
        _require_labels(g, ids, name)
    if run.snr is not None:
        g = contaminate_links(g, run.snr, seed=run.seed)
    model = build_model(g, run)
    opt = make_optimizer(run, model)
    shuffle_rng = np.random.default_rng((run.seed, 101))
    sample_rng = np.random.default_rng((run.seed, run.plan.seed, 202))

    sampled = run.plan.strategy != "full"
    state = sampling.SamplerState() if sampled else None
    history = MetricHistory()
    best = (-1.0, -1, None)  # epoch 0 always beats val F1 -1

    train_ids = list(split.train)
    try:
        for epoch in range(run.max_epochs):
            t0 = time.perf_counter()
            order = shuffle_rng.permutation(len(train_ids))
            losses = []
            for ofs in range(0, len(train_ids), run.batch_size):
                batch = [train_ids[i] for i in order[ofs:ofs + run.batch_size]]
                if sampled:
                    sampling.refresh(state, g, model.stack, run.plan, batch)
                with ad.Tape() as tape:
                    loss = batch_loss(g, model, batch, plan=run.plan,
                                      state=state, rng=sample_rng)
                    model.zero_grad()
                    tape.backward(loss)
                opt.step()
                losses.append(loss.item())
                history.n_batches += 1
            val = evaluate(g, model, split.val) if split.val else 0.0
            history.train_loss.append(float(np.mean(losses)))
            history.val_f1.append(val)
            history.epoch_seconds.append(time.perf_counter() - t0)
            if val > best[0]:
                best = (val, epoch, model.snapshot())
            elif epoch - best[1] >= run.patience:
                break
    except FloatingPointError as exc:  # every op checks its own output
        raise TrainingDiverged(str(exc)) from exc
    model.restore(best[2])
    history.best_epoch = best[1]
    if sampled:  # each refresh serves every non-isolated node at each layer
        history.refresh_work = (state.refresh_count * model.stack.depth
                                * int(np.count_nonzero(np.diff(g.arc_ptr))))
    if split.test:
        history.test_f1 = evaluate(g, model, split.test)
    return model, history


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def contaminate_links(g, snr, seed=0):
    """Add zero-mean gaussian noise of std A(link_attrs)/snr to link features."""
    if not snr > 0:
        raise ValueError("snr must be positive")
    if math.isinf(snr):
        return g
    a = float(np.std(g.link_features))
    if a == 0.0:
        raise ValueError("zero-variance link features: SNR undefined")
    rng = np.random.default_rng((seed, 0x5e7))
    noise = rng.normal(scale=a / snr, size=g.link_features.shape)
    return g.with_link_features(g.link_features + noise)


def snr_sweep(g, split, run, snr_values):
    """Independent trainings per SNR; rows of (snr, test micro-F1)."""
    if not snr_values:
        raise ValueError("snr_values must be nonempty")
    rows = []
    for snr in snr_values:
        _, hist = train(g, split, replace(run, snr=snr))
        rows.append((snr, hist.test_f1))
    return rows


def refresh_sweep(g, split, run, intervals):
    """Final val accuracy and per-batch refresh work for each interval k."""
    rows = []
    for k in intervals:
        plan = replace(run.plan, refresh_interval=k)
        if plan.strategy == "full":
            plan = replace(plan, strategy="minvar")
        _, hist = train(g, split, replace(run, plan=plan))
        rows.append((k, hist.val_f1[hist.best_epoch],
                     hist.refresh_work / hist.n_batches))
    return rows


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def metrics_csv(history):
    lines = ["epoch,loss,val_f1"]
    for e, loss, val in history.rows():
        lines.append("%d,%s,%s" % (e, repr(float(loss)), repr(float(val))))
    return "\n".join(lines) + "\n"
