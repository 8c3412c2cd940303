"""Monte Carlo neighborhood-sum estimation.

Every layer's neighbor aggregation has the shape sum_v lambda_v * g(v|u) with
a scalar gate lambda and an architecture-specific summand g.  That sum is an
expectation under any categorical distribution p over N(u) of
lambda * g / p, so drawing s neighbors with replacement gives an unbiased
estimator for the three strategies:

  uniform  p = 1/deg   (unit weights)
  gate     p proportional to lambda
  min_var  p proportional to lambda * ||g||   (single-draw variance optimum)

``refresh`` runs before each batch and keeps the clock: every
``refresh_interval`` batches it freezes a copy of the parameters and resets
every arc's proposal weight to NaN.  Each call runs one forward, under that
copy, over the batch's full receptive field and writes the weight (lambda, or
lambda * ||g||) of each of its arcs still NaN, floored at EPS so importance
weights never blow up.  The field holds every (layer, node) the batch can
visit, and the weights are those a forward over the whole graph would give at
the refresh.  Under the uniform strategy every arc weighs 1, written once.
Rows come only from a refresh's weights: a sampled forward before any
refresh is a ValueError.

A sampled batch draws in two forms, both with the draws of
``Generator.choice`` with replacement and the generator stream of one
``choice`` call per (layer, node).  Above layer 1, each visit takes its row
from ``plan_probs`` (normalized on first use and kept until the next
refresh) and draws from it by ``draw``, an inverse-CDF lookup.  Layer 1, the
most numerous, draws after the walk as one block: ``layer_probs`` normalizes
all its rows at once, one block per degree, laid end to end, and
``draw_rows`` draws from each row for its own uniforms by the same lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers

STRATEGIES = ("full", "uniform", "gate", "minvar")
EPS = 1e-12


@dataclass
class SamplePlan:
    strategy: str = "full"
    sample_size: int = 5
    refresh_interval: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError("unknown sampling strategy %r" % (self.strategy,))
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.refresh_interval < 1:
            raise ValueError("refresh_interval must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class SamplerState:
    """The parameters frozen at the last refresh, the per-arc proposal
    weights computed under them so far (NaN: not yet), the per-(layer, node)
    distributions normalized from those, and the clock ``refresh`` keeps.
    It keeps no work counter: ``train`` derives one from ``refresh_count``."""

    def __init__(self):
        self.params = None  # frozen LayerStack of the last refresh
        self.weights = None  # per layer: floored weight of each arc, or nan
        self.probs = {}
        self.batches_since_refresh = None  # None: never refreshed
        self.refresh_count = 0


def _floor(w):
    """Proposal weights floored at EPS, so no importance weight blows up."""
    return np.maximum(w, EPS)


def _floor_normalize(p):
    p = _floor(np.asarray(p, dtype=np.float64))
    return p / p.sum()


def draw_rows(ptr, cdf, u):
    """Row i: the positions in ``layer_probs``' flat arrays drawn from the
    cdf row ptr[i]:ptr[i + 1] for the uniforms u[i], by the inverse-CDF
    lookup ``searchsorted(side="right")``: the row's start plus the count of
    its cdf entries at most each uniform.  Takes the cdf's length times
    len(u[i]) in booleans."""
    below = cdf[:, None] <= np.repeat(u, np.diff(ptr), axis=0)
    return ptr[:-1, None] + np.add.reduceat(below, ptr[:-1], axis=0,
                                            dtype=np.intp)


def draw(p, s, rng):
    """s indices drawn with replacement from p by the inverse-CDF lookup of
    ``rng.choice(len(p), size=s, p=p)``: the same indices, the same generator
    state after it, and its error for a p with a negative or NaN entry."""
    if not p.min() >= 0:
        raise ValueError("probabilities contain a negative or NaN entry")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(s), side="right")


def probs_uniform(degree):
    if degree < 1:
        raise ValueError("empty neighborhood")
    return np.full(degree, 1.0 / degree)


def probs_from_gates(lam):
    lam = np.asarray(lam, dtype=np.float64)
    if lam.size < 1:
        raise ValueError("empty neighborhood")
    return _floor_normalize(lam)


def probs_minvar_weights(lam, gmat):
    lam = np.asarray(lam, dtype=np.float64)
    gmat = np.asarray(gmat, dtype=np.float64)
    if lam.size < 1:
        raise ValueError("empty neighborhood")
    return _floor_normalize(lam * np.linalg.norm(gmat, axis=1))


def neighborhood_terms(g, ctx, l, u):
    """(gates, summands) over N(u) at layer l, in arc order (by neighbor id).

    A slice of the per-arc arrays of a ``layers.full_forward`` context.
    """
    lo, hi = g.arc_ptr[u], g.arc_ptr[u + 1]
    return ctx["gates"][l][lo:hi], ctx["terms"][l][:, lo:hi].T


def estimator_variance(lam, gmat, p):
    """Analytic single-draw variance, summed over coordinates."""
    lam = np.asarray(lam, float)
    gmat = np.asarray(gmat, float)
    p = np.asarray(p, float)
    if lam.size < 1:
        raise ValueError("empty neighborhood")
    weighted = lam[:, None] * gmat
    second = np.sum(weighted ** 2 / p[:, None], axis=0)
    mean = weighted.sum(axis=0)
    return float(np.sum(second - mean ** 2))


def layer_probs(g, state, l, nodes):
    """The distributions the sampled forward draws from for the (layer l,
    node) rows ``nodes``, each of degree at least 1, laid end to end, so the
    arrays hold the nodes' degrees summed.

    Returns (order, ptr, arcs, p, cdf).  Row i is node nodes[order[i]],
    order sorting the nodes by degree, stably, and holds entries
    ptr[i]:ptr[i + 1] of three flat arrays: arcs, the ids of the arcs into
    its node in arc order; p, their probabilities; cdf, p's cumulative sums
    over their last, as ``rng.choice`` forms them.  A row's probabilities
    are ``plan_probs``': its node's arc weights from the last refresh,
    normalized.  The rows of one degree are normalized and summed as one
    C-contiguous block, whose row sums and cumulative sums equal each row's
    own ``w.sum()`` and ``cumsum()`` bit for bit.  A negative or NaN
    probability (a node no refresh weighed) is a ValueError, as in ``draw``.
    """
    nodes = np.asarray(nodes, dtype=np.intp)
    deg = g.arc_ptr[nodes + 1] - g.arc_ptr[nodes]
    order = deg.argsort(kind="stable")
    deg = deg[order]
    ptr = np.zeros(len(deg) + 1, dtype=np.intp)
    deg.cumsum(out=ptr[1:])
    arcs = g.arcs_into(nodes[order])[0]
    w = state.weights[l][arcs]
    p, cdf = np.empty(len(arcs)), np.empty(len(arcs))
    first = np.ones(len(deg), dtype=bool)  # the first row of each degree
    first[1:] = deg[1:] != deg[:-1]
    starts, ends, sizes = np.flatnonzero(first).tolist(), ptr.tolist(), deg.tolist()
    for a, b in zip(starts, starts[1:] + [len(deg)]):
        d, lo, hi = sizes[a], ends[a], ends[b]
        W, P = w[lo:hi].reshape(-1, d), p[lo:hi].reshape(-1, d)
        np.divide(W, W.sum(axis=1, keepdims=True), out=P)
        P.cumsum(axis=1, out=cdf[lo:hi].reshape(-1, d))
    cdf /= cdf[ptr[1:] - 1].repeat(deg)
    if p.size and not p.min() >= 0:
        raise ValueError("probabilities contain a negative or NaN entry")
    return order, ptr, arcs, p, cdf


def plan_probs(g, stack, state, plan, l, u):
    """Distribution the sampled forward draws from for (layer l, node u),
    which has at least one neighbor: the arc weights over N(u) that the last
    ``refresh`` wrote, normalized on first use and kept until the next
    refresh."""
    p = state.probs.get((l, u))
    if p is None:
        w = state.weights[l][g.arc_ptr[u]:g.arc_ptr[u + 1]]
        p = state.probs[(l, u)] = w / w.sum()
    return p


def refresh(state, g, stack, plan, batch=None):
    """Advance the refresh clock by one batch, starting a refresh if the
    interval elapsed, then weigh the arcs that ``batch`` can reach.

    Call it once before each batch: the rows a sampled forward draws from
    come only from it.  Returns True when a refresh started.  A refresh
    freezes a copy of the stack's parameters and resets every weight to NaN.
    Each call then runs one forward, under that copy, over the full receptive
    field of the batch (``None``: of every node), and writes the weights of
    the field's arcs still NaN.  The field contains every (layer, node) a
    sampled batch can visit.  Under the uniform strategy every arc weighs 1:
    those weights take no parameters and no forward, so the first refresh
    writes them and later ones keep them.
    """
    due = (state.batches_since_refresh is None
           or state.batches_since_refresh >= plan.refresh_interval)
    if due:
        state.probs = {}
        if plan.strategy != "uniform":
            state.params = stack.frozen()
            state.weights = [None] + [np.full(len(g.arc_src), np.nan)
                                      for _ in range(stack.depth)]
        elif state.weights is None:
            state.weights = [None] + [np.ones(len(g.arc_src))] * stack.depth
        state.batches_since_refresh = 0
        state.refresh_count += 1
    state.batches_since_refresh += 1
    if plan.strategy != "uniform":
        _weigh(state, g, plan, batch)
    return due


def _weigh(state, g, plan, batch):
    """Weigh the batch field's arcs still NaN; no forward runs if none are."""
    depth = state.params.depth
    if batch is None:
        nodes, arcs = layers._whole_field(g, depth)
    else:
        nodes, arcs = layers._full_field(
            g, np.unique(np.asarray(batch, dtype=np.intp)), depth)
    fresh = [None] + [np.isnan(state.weights[l][arcs[l][0]])
                      for l in range(1, depth + 1)]
    if not any(m.any() for m in fresh[1:]):
        return
    ctx = layers.field_forward(g, state.params, nodes, arcs)
    for l in range(1, depth + 1):
        w = ctx["gates"][l]
        if plan.strategy == "minvar":
            w = w * np.linalg.norm(ctx["terms"][l], axis=0)
        state.weights[l][arcs[l][0][fresh[l]]] = _floor(w[fresh[l]])
