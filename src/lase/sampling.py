"""Monte Carlo neighborhood-sum estimation.

Every layer's neighbor aggregation has the shape sum_v lambda_v * g(v|u) with
a scalar gate lambda and an architecture-specific summand g.  That sum is an
expectation under any categorical distribution p over N(u) of
lambda * g / p, so drawing s neighbors with replacement gives an unbiased
estimator for the three strategies:

  uniform  p = 1/deg
  gate     p proportional to lambda
  min_var  p proportional to lambda * ||g||   (single-draw variance optimum)

Every ``refresh_interval`` batches, ``refresh`` runs one full-graph forward
and keeps one proposal weight per arc and layer (lambda, or lambda * ||g||),
floored at EPS so importance weights never blow up.  The weights cover every
arc, so every non-isolated node has a distribution at every layer.
``plan_probs`` normalizes a node's slice of them when a batch first visits
it and keeps the result until the next refresh.  The uniform strategy needs
no weights.
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


class SamplerState:
    """Per-arc proposal weights of the last refresh, the per-(layer, node)
    distributions normalized from them so far, and the refresh clock."""

    def __init__(self):
        self.weights = None  # per layer: floored weight of each arc
        self.probs = {}
        self.batches_since_refresh = None  # None: never refreshed
        self.refresh_count = 0
        self.refresh_work = 0  # distributions made available, total


def _floor_normalize(p):
    p = np.asarray(p, dtype=np.float64)
    p = np.maximum(p, EPS)
    return p / p.sum()


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


def plan_probs(g, stack, state, plan, l, u):
    """Distribution the sampled forward draws from for (layer l, node u).

    The last refresh's arc weights over N(u), normalized on first use and
    kept until the next refresh; uniform under the uniform strategy and
    before the first refresh.
    """
    lo, hi = g.arc_ptr[u], g.arc_ptr[u + 1]
    if (plan.strategy == "uniform" or state is None or state.weights is None
            or lo == hi):
        return probs_uniform(int(hi - lo))
    p = state.probs.get((l, u))
    if p is None:
        w = state.weights[l][lo:hi]
        p = state.probs[(l, u)] = w / w.sum()
    return p


def refresh(state, g, stack, plan):
    """Recompute the per-arc proposal weights if the refresh interval elapsed.

    Returns True when a recomputation happened.  The weights cover every arc,
    so every non-isolated node gets a distribution at every layer.  Under the
    uniform strategy no weights are needed and no forward runs.
    """
    due = (state.batches_since_refresh is None
           or state.batches_since_refresh >= plan.refresh_interval)
    if not due:
        return False
    state.probs = {}
    if plan.strategy != "uniform":
        ctx = layers.full_forward(g, stack)
        state.weights = [None]
        for l in range(1, stack.depth + 1):
            w = ctx["gates"][l]
            if plan.strategy == "minvar":
                w = w * np.linalg.norm(ctx["terms"][l], axis=0)
            state.weights.append(np.maximum(w, EPS))
    non_isolated = int(np.count_nonzero(np.diff(g.arc_ptr)))
    state.refresh_work += stack.depth * non_isolated
    state.batches_since_refresh = 0
    state.refresh_count += 1
    return True
