"""The benchmark's jobs: what each workload runs, and how its outputs are checked.

A job writes its inputs as TSV files, loads them through ``graph.load_graph``
(the path ``lase train`` uses), runs one timed *unit* of work, and checks the
unit's outputs.  A unit is deterministic given the job and the seed, so
repeated units in one run must agree exactly.

Import this module only after ``program.load()``.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

from lase import graph, kernels, layers, sampling, training

# The acceptance tests' graphs (test_07, test_09).  Time to a target accuracy
# varies 10-30% between graphs drawn with other synth seeds, more than one
# run can average away, so the training graph is fixed and the workload seed
# permutes the order and orientation of its link lines instead.  The program
# keeps neighbors sorted by id, so every seed gives bit-identical results.
TRAIN_GRAPH_SEED = 3
THEOREM1_TOL = 1e-9
DP_ENUM_TOL = 1e-9
SYMMETRY_TOL = 1e-9


def _permute_links(g, seed):
    """``g`` with its link lines shuffled and half of them reversed."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(g.n_links)
    flip = rng.random(g.n_links) < 0.5
    links = []
    for i in order:
        s, d = g.links[i]
        links.append((d, s) if flip[i] else (s, d))
    return graph.AttributedGraph(g.node_features, g.labels, links,
                                 g.link_features[order], g.n_labels)


def _paths(workdir, stem):
    base = os.path.join(workdir, stem)
    return base + ".nodes.tsv", base + ".links.tsv", base + ".manifest.json"


@dataclass
class UnitResult:
    wall: float
    values: dict
    attempted: int
    failures: list
    fingerprint: object


@dataclass(frozen=True)
class TrainJob:
    """``training.train`` on one fixed interaction graph, to a target val F1."""

    name: str
    n: int
    target: float
    run: dict
    strategy: str = "full"
    sample_size: int = 5

    def write_inputs(self, workdir, seed):
        g, _ = graph.synth_graph("interaction", self.n, seed=TRAIN_GRAPH_SEED)
        graph.save_graph(_permute_links(g, seed), *_paths(workdir, self.name))

    def load(self, workdir, seed):
        g = graph.load_graph(*_paths(workdir, self.name))
        split = graph.make_split(g, seed=TRAIN_GRAPH_SEED + 1)
        plan = sampling.SamplePlan(strategy=self.strategy,
                                   sample_size=self.sample_size,
                                   refresh_interval=1)
        run = training.TrainRun(plan=plan, seed=0, **self.run)
        training.build_model(g, run)  # set-up cost; train() builds its own
        return g, split, run

    def unit(self, state, clock):
        """One training.  With an enabled clock, a reference probe runs
        before it, before each ``training.batch_loss`` and after each
        ``training.evaluate`` (once per epoch, then once on the test split).
        Each epoch's seconds, less the probes inside it, are scaled by the
        factor of the stretches between the probes that bound it."""
        g, split, run = state
        evaluate, batch_loss = training.evaluate, training.batch_loss
        bounds = [len(clock.probes)]  # probe before the unit, after each evaluate
        if clock.enabled:
            clock.mark()

            def probed_batch_loss(*args, **kwargs):
                clock.mark()
                return batch_loss(*args, **kwargs)

            def probed_evaluate(*args, **kwargs):
                result = evaluate(*args, **kwargs)
                clock.mark()
                bounds.append(len(clock.probes) - 1)
                return result
            training.batch_loss = probed_batch_loss
            training.evaluate = probed_evaluate
        t0 = time.perf_counter()
        try:
            _, hist = training.train(g, split, run)
        except training.TrainingDiverged as exc:
            return UnitResult(time.perf_counter() - t0, {}, 1,
                              ["training diverged: %s" % exc], None)
        finally:
            training.evaluate, training.batch_loss = evaluate, batch_loss
        wall = time.perf_counter() - t0
        n = len(hist.epoch_seconds)
        if not clock.enabled:
            bounds *= n + 2
        if len(bounds) != n + 2:
            raise RuntimeError("expected %d evaluate calls, saw %d"
                               % (n + 1, len(bounds) - 1))
        raw_epochs, epochs = [], []
        for e, s in enumerate(hist.epoch_seconds):
            s -= clock.walls(bounds[e], bounds[e + 1])
            raw_epochs.append(s)
            epochs.append(s * clock.factor(bounds[e], bounds[e + 1]))
        raw_train = wall - clock.walls(bounds[0], bounds[-1])
        hit = next((e for e, v in enumerate(hist.val_f1) if v >= self.target),
                   None)
        failures = []
        if hit is None:
            failures.append("val micro-F1 never reached %.2f in %d epochs "
                            "(best %.4f)" % (self.target, len(hist.val_f1),
                                             max(hist.val_f1)))
        values = {
            "epoch_seconds": epochs,
            "raw_epoch_seconds": raw_epochs,
            "train_visits": len(split.train) * n,
            "train_wall": raw_train * clock.factor(bounds[0], bounds[-1]),
            "raw_train_wall": raw_train,
            "time_to_target": (sum(epochs[:hit + 1])
                               if hit is not None else None),
            "test_f1": hist.test_f1,
            "refresh_work": hist.refresh_work,
        }
        fingerprint = (tuple(hist.val_f1), tuple(hist.train_loss),
                       hist.test_f1, hist.refresh_work)
        return UnitResult(wall, values, 1, failures, fingerprint)

    def gates(self, state, seed):
        return 0, []

    @staticmethod
    def metrics(units):
        units = [u for u in units if u.values]
        epochs = [s for u in units for s in u.values["epoch_seconds"]]
        targets = [u.values["time_to_target"] for u in units
                   if u.values.get("time_to_target") is not None]
        visits = sum(u.values["train_visits"] for u in units)
        wall = sum(u.values["train_wall"] for u in units)
        out = {"epoch_s": statistics.median(epochs),
               "train_nodes_per_s": visits / wall,
               "test_f1": statistics.median(u.values["test_f1"] for u in units)}
        # A unit that missed the target is a failed operation; if all did,
        # report the whole training time so the result stays well formed.
        out["time_to_target_s"] = statistics.median(
            targets or [sum(u.values["epoch_seconds"]) for u in units])
        samples = {"epoch_s": len(epochs), "time_to_target_s": len(targets),
                   "trainings": len(units)}
        raw = {"epoch_s": statistics.median(
                   s for u in units for s in u.values["raw_epoch_seconds"]),
               "train_nodes_per_s": visits / sum(u.values["raw_train_wall"]
                                                 for u in units)}
        return out, samples, raw


@dataclass(frozen=True)
class KernelJob:
    """A full random-walk-kernel Gram matrix plus Theorem-1 checks."""

    name: str
    sizes: tuple
    hidden: int
    enum_pairs: int
    hops: int = 3
    decay: float = 0.5
    # None: the graphs are drawn from the workload seed.  Otherwise they are
    # drawn from this seed, and the workload seed permutes their link lines.
    graph_seed: int | None = None

    def _graph_seed(self, seed, i):
        return seed * 1000 + i

    def write_inputs(self, workdir, seed):
        for i, n in enumerate(self.sizes):
            if self.graph_seed is None:
                g, _ = graph.synth_graph("random", n,
                                         seed=self._graph_seed(seed, i))
            else:
                g, _ = graph.synth_graph(
                    "random", n, seed=self._graph_seed(self.graph_seed, i))
                g = _permute_links(g, self._graph_seed(seed, i))
            graph.save_graph(g, *_paths(workdir, "%s-%d" % (self.name, i)))

    def load(self, workdir, seed):
        gs = [graph.load_graph(*_paths(workdir, "%s-%d" % (self.name, i)))
              for i in range(len(self.sizes))]
        stack = layers.LayerStack("rw", gs[0].d_node, gs[0].d_link,
                                  hidden=self.hidden, depth=self.hops,
                                  kernel_mode=True, constant_decay=self.decay,
                                  seed=seed)
        return gs, stack

    def unit(self, state, clock):
        """One Gram matrix, then the Theorem-1 checks; with an enabled
        clock, a reference probe runs around each kernel (the scalar loop,
        which ``rw_kernel_dp``'s speed follows) and each check (the even
        mix)."""
        gs, stack = state
        cfg = kernels.KernelConfig(decay=self.decay, hops=self.hops)
        t0 = time.perf_counter()
        entries, gram_raw, gram_s = clock.stretches(
            lambda ab: kernels.rw_kernel_dp(ab[0], ab[1], cfg),
            [(a, b) for a in gs for b in gs], array_share=0.0)
        gram = np.array(entries).reshape(len(gs), len(gs))
        pairs, th_raw, th_s = clock.stretches(
            lambda gk: kernels.check_theorem1(gk[0], stack, None, gk[1]),
            [(g, k) for g in gs for k in range(stack.hidden)],
            array_share=0.5)
        wall = time.perf_counter() - t0

        failures = []
        for i in range(len(gs)):
            for j in range(len(gs)):
                v, w = gram[i, j], gram[j, i]
                if not math.isfinite(v):
                    failures.append("gram[%d,%d] is not finite" % (i, j))
                elif abs(v - w) > SYMMETRY_TOL * max(1.0, abs(v)):
                    failures.append("gram[%d,%d]=%r but gram[%d,%d]=%r"
                                    % (i, j, v, j, i, w))
        for idx, (lhs, rhs) in enumerate(pairs):
            if not abs(lhs - rhs) <= THEOREM1_TOL * max(1.0, abs(rhs)):
                failures.append("theorem 1 fails on graph %d coordinate %d: "
                                "%r vs %r" % (idx // stack.hidden,
                                              idx % stack.hidden, lhs, rhs))
        values = {"gram": gram_s, "raw_gram": gram_raw,
                  "theorem1": th_s, "raw_theorem1": th_raw}
        fingerprint = (gram.tobytes(), tuple(pairs))
        return UnitResult(wall, values, gram.size + len(pairs), failures,
                          fingerprint)

    def gates(self, state, seed):
        """rw_kernel_dp against literal walk enumeration on small graphs."""
        cfg = kernels.KernelConfig(decay=self.decay, hops=self.hops)
        failures = []
        for i in range(self.enum_pairs):
            a, _ = graph.synth_graph("random", 10 + i % 3,
                                     seed=self._graph_seed(seed, 500 + 2 * i))
            b, _ = graph.synth_graph("random", 12 - i % 3,
                                     seed=self._graph_seed(seed, 501 + 2 * i))
            dp = kernels.rw_kernel_dp(a, b, cfg)
            en = kernels.rw_kernel_enumerate(a, b, cfg)
            if not abs(dp - en) <= DP_ENUM_TOL * max(1.0, abs(en)):
                failures.append("rw_kernel_dp %r != enumeration %r on pair %d"
                                % (dp, en, i))
        return self.enum_pairs, failures

    @staticmethod
    def metrics(units):
        out = {"gram_s": statistics.median(u.values["gram"] for u in units),
               "theorem1_s": statistics.median(u.values["theorem1"]
                                               for u in units)}
        raw = {"gram_s": statistics.median(u.values["raw_gram"] for u in units),
               "theorem1_s": statistics.median(u.values["raw_theorem1"]
                                               for u in units)}
        return out, {"gram_s": len(units), "theorem1_s": len(units)}, raw


TRAIN_FULL = TrainJob(
    "train-full", n=1000, target=0.9,
    run=dict(arch="sage", hidden=16, depth=1, batch_size=64, lr=1e-2,
             max_epochs=12, patience=12))

TRAIN_MINVAR = TrainJob(
    "train-minvar", n=600, target=0.8, strategy="minvar", sample_size=3,
    run=dict(arch="sage", hidden=16, depth=2, batch_size=16, lr=1e-2,
             max_epochs=6, patience=6))

KERNELS = KernelJob("kernels", sizes=(40, 56, 72, 88, 104, 120), hidden=16,
                    enum_pairs=6)

# Side jobs give every workload the metrics its main job does not produce;
# they run untraced, outside the main job's timed units.
TRAIN_SIDE = TrainJob(
    "side-train", n=300, target=0.7,
    run=dict(arch="sage", hidden=16, depth=1, batch_size=64, lr=1e-2,
             max_epochs=6, patience=6))

# The side kernel job's graphs are fixed, like the training graphs: their
# Theorem-1 time varies by up to 15% between graphs drawn with other seeds,
# and a training workload runs only a few side units.
KERNEL_SIDE = KernelJob("side-kernels", sizes=(30, 40, 50, 60), hidden=8,
                        enum_pairs=2, graph_seed=TRAIN_GRAPH_SEED)


@dataclass(frozen=True)
class Workload:
    main: object
    side: object
    min_side_units: int  # about six seconds of side work


WORKLOADS = {
    "train-full": Workload(TRAIN_FULL, KERNEL_SIDE, min_side_units=6),
    "train-minvar": Workload(TRAIN_MINVAR, KERNEL_SIDE, min_side_units=6),
    "kernels": Workload(KERNELS, TRAIN_SIDE, min_side_units=4),
}
