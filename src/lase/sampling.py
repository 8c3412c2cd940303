"""Monte Carlo neighborhood-sum estimation.

Every layer's neighbor aggregation has the shape sum_v lambda_v * g(v|u) with
a scalar gate lambda and an architecture-specific summand g.  That sum is an
expectation under any categorical distribution p over N(u) of
lambda * g / p, so drawing s neighbors with replacement gives an unbiased
estimator for the three strategies:

  uniform  p = 1/deg
  gate     p proportional to lambda
  min_var  p proportional to lambda * ||g||   (single-draw variance optimum)

Distributions are recomputed every ``refresh_interval`` batches; probabilities
are floored at EPS and renormalized so importance weights never blow up.
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
    """Per-(layer, node) categorical distributions plus the refresh clock."""

    def __init__(self):
        self.probs = {}
        self.batches_since_refresh = None  # None: never refreshed
        self.refresh_count = 0
        self.refresh_work = 0  # distributions recomputed, total


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


def neighborhood_terms(g, stack, ctx, l, u):
    """(gates, summands) over N(u) at layer l, in adjacency order.

    A slice of the per-arc arrays of a ``layers.full_forward`` context.
    """
    lo, hi = g.arc_ptr[u], g.arc_ptr[u + 1]
    return ctx["gates"][l][lo:hi], ctx["terms"][l][:, lo:hi].T


def neighbor_summand(g, stack, l, u, v):
    """The lambda-free per-neighbor term g(v|u) at layer l (full forward)."""
    nbrs = g.neighbors(u)
    idx = [j for j, (w, _) in enumerate(nbrs) if w == v]
    if not idx:
        raise ValueError("%d is not a neighbor of %d" % (v, u))
    ctx = layers.full_forward(g, stack)
    _, gmat = neighborhood_terms(g, stack, ctx, l, u)
    return gmat[idx[0]]


def estimate_neighbor_sum(lam, gmat, p, s, rng):
    """(1/s) sum_j lambda_j g_j / p_j over s draws with replacement."""
    lam = np.asarray(lam, float)
    gmat = np.asarray(gmat, float)
    p = np.asarray(p, float)
    idx = rng.choice(lam.size, size=s, p=p)
    acc = np.zeros(gmat.shape[1])
    for j in idx:
        acc = acc + lam[j] * gmat[j] / p[j]
    return acc / s


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
    """Distribution the sampled forward draws from for (layer l, node u)."""
    deg = len(g.neighbors(u))
    if plan.strategy == "uniform":
        return probs_uniform(deg)
    if state is not None:
        p = state.probs.get((l, u))
        if p is not None:
            return p
    # Not covered by the last refresh (e.g. non-train node in an expanded
    # neighborhood): fall back to uniform.
    return probs_uniform(deg)


def refresh(state, g, stack, plan, nodes=None):
    """Recompute sampling distributions if the refresh interval elapsed.

    Returns True when a recomputation happened.  ``nodes`` defaults to every
    non-isolated node.
    """
    due = (state.batches_since_refresh is None
           or state.batches_since_refresh >= plan.refresh_interval)
    if not due:
        return False
    if nodes is None:
        nodes = [u for u in range(g.n_nodes) if g.degree(u)]
    ctx = layers.full_forward(g, stack)
    for l in range(1, stack.depth + 1):
        for u in nodes:
            if not g.degree(u):
                continue
            if plan.strategy == "uniform":
                p = probs_uniform(g.degree(u))
            else:
                lam, gmat = neighborhood_terms(g, stack, ctx, l, u)
                if plan.strategy == "gate":
                    p = probs_from_gates(lam)
                else:
                    p = probs_minvar_weights(lam, gmat)
            state.probs[(l, u)] = p
            state.refresh_work += 1
    state.batches_since_refresh = 0
    state.refresh_count += 1
    return True
