"""Outside-in tracing: spans and counts around the program's public functions.

``instrument(tracer)`` rebinds functions and methods of the ``lase`` modules
to wrappers that record a span (name, start, end, parent) and update exact
counts, and restores the originals on exit.  The program itself is not
changed; callers reach the wrappers because they look the names up on the
module or class at call time.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

from lase import autodiff, graph, kernels, layers, sampling, training


class Tracer:
    """Spans of one traced unit, in opening order, plus exact counts."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._open = []

    def call(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(None)
        self._open.append(idx)
        self.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._open.pop()

    def summary(self):
        """Per span name: total seconds, self seconds and calls.

        Self time is a span's duration minus the time its child spans cover.
        """
        covered = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            s = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            s["s"] += dur * 1e-9
            s["self_s"] += (dur - covered[i]) * 1e-9
            s["calls"] += 1
        return out

    def to_json(self):
        t0 = min(self.starts, default=0)
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {"names": table,
                "spans": [[index[n], s - t0, e - t0, p] for n, s, e, p in
                          zip(self.names, self.starts, self.ends, self.parents)],
                "counts": dict(self.counts)}


def _arcs(g):
    return sum(len(a) for a in g.adjacency)


def _count_arcs(counts, result, args, kwargs):
    counts["graph.arcs"] += _arcs(result)


def _count_tape_ops(counts, result, args, kwargs):
    counts["autodiff.tape_ops"] += 1


def _count_refresh(counts, result, args, kwargs):
    counts["sampling.refresh.recomputed"] += int(bool(result))


def _count_plan_probs(counts, result, args, kwargs):
    g, stack, state, plan, l, u = args
    counts["sampling.plan_probs.calls"] += 1
    stored = state.probs.get((l, u)) if state is not None else None
    if plan.strategy != "uniform" and result is not stored:
        counts["sampling.fallbacks"] += 1


def _count_dp_terms(counts, result, args, kwargs):
    g1, g2, cfg = args
    counts["kernels.dp_terms"] += cfg.hops * _arcs(g1) * _arcs(g2)


def _count_walks(counts, result, args, kwargs):
    counts["kernels.walks"] += result[0].shape[0]


# (owner, attribute, span name or None for count-only, count hook or None)
TARGETS = (
    (graph, "load_graph", "graph.load_graph", _count_arcs),
    (layers, "forward", "layers.forward", None),
    (layers, "full_forward", "layers.full_forward", None),
    (autodiff.Tape, "backward", "autodiff.backward", None),
    (autodiff.Tape, "record", None, _count_tape_ops),
    (training, "train", "training.train", None),
    (training, "batch_loss", "training.batch_loss", None),
    (training, "evaluate", "training.evaluate", None),
    (training.Adam, "step", "training.optimizer_step", None),
    (training.Sgd, "step", "training.optimizer_step", None),
    (sampling, "refresh", "sampling.refresh", _count_refresh),
    (sampling, "neighborhood_terms", "sampling.neighborhood_terms", None),
    (sampling, "plan_probs", None, _count_plan_probs),
    (kernels, "rw_kernel_dp", "kernels.rw_kernel_dp", _count_dp_terms),
    (kernels, "check_theorem1", "kernels.check_theorem1", None),
    (kernels, "enumerate_walks", "kernels.enumerate_walks", _count_walks),
)


def _wrap(tracer, fn, name, hook):
    if name is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(tracer.counts, result, args, kwargs)
            return result
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if hook is not None:
            hook(tracer.counts, result, args, kwargs)
        return result
    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Route calls into the traced functions through ``tracer``."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _, _ in TARGETS]
    try:
        for owner, attr, name, hook in TARGETS:
            setattr(owner, attr, _wrap(tracer, getattr(owner, attr), name, hook))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def dump(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
