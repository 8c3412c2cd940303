"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 validation/data error, 3 numerical
failure (divergence or a tolerance breach in a check command).  Output files
are written atomically (temp file + rename) so reruns are all-or-nothing.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import graph as graphmod
from . import kernels, layers, sampling, training
from .fileio import atomic_write, check_output

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_json(path, obj):
    if path is not None:  # an optional output flag may be absent
        atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _load_graph_args(args, suffix=""):
    """The graph of --nodes/--links/--manifest, or of the flags ending in
    ``suffix``; both flags of the pair are required."""
    nodes = getattr(args, "nodes" + suffix)
    links = getattr(args, "links" + suffix)
    if not nodes or not links:
        raise UsageError("%s needs both --nodes%s and --links%s"
                         % (args.command, suffix, suffix))
    return graphmod.load_graph(nodes, links, manifest_path=getattr(
        args, "manifest" + suffix, None))


def _at_least(lo):
    """argparse type: an integer no smaller than ``lo``."""
    def count(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError("must be at least %d" % lo)
        return value
    return count


def _finite(text):
    """argparse type: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite, not %r" % text)
    return value


def _snr_list(text):
    """argparse type: comma-separated SNRs, each a positive float or inf."""
    values = []
    for item in text.split(","):
        try:
            value = float(item)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "%r is not a number" % item) from None
        if not value > 0:
            raise argparse.ArgumentTypeError("%r is not positive" % item)
        values.append(value)
    return values


def build_parser():
    p = _Parser(prog="lase", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_graph_flags(sp, required=True):
        sp.add_argument("--nodes", required=required)
        sp.add_argument("--links", required=required)
        sp.add_argument("--manifest", default=None)

    sp = sub.add_parser("synth", help="generate a synthetic labelled graph")
    sp.add_argument("--kind", choices=graphmod.SYNTH_KINDS, required=True)
    sp.add_argument("--n", type=_at_least(10), default=600)
    sp.add_argument("--seed", type=_at_least(0), default=0)
    add_graph_flags(sp)
    sp.add_argument("--split", default=None, help="write the split JSON here")

    sp = sub.add_parser("train", help="train a model from a config JSON")
    add_graph_flags(sp)
    sp.add_argument("--config", required=True)
    sp.add_argument("--split", default=None)
    sp.add_argument("--seed", type=_at_least(0), default=None)
    sp.add_argument("--out", required=True, help="output path prefix")

    sp = sub.add_parser("eval", help="evaluate a checkpoint on a node split")
    add_graph_flags(sp)
    sp.add_argument("--config", default=None,
                    help="training config JSON (default: the checkpoint's)")
    sp.add_argument("--checkpoint", required=True, help="checkpoint file")
    sp.add_argument("--split", required=True)
    sp.add_argument("--subset", choices=("train", "val", "test"), default="test")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("kernel", help="random-walk kernel of two graphs")
    add_graph_flags(sp, required=False)
    sp.add_argument("--nodes2", default=None)
    sp.add_argument("--links2", default=None)
    sp.add_argument("--hops", type=_at_least(0), default=2)
    sp.add_argument("--decay", type=float, default=0.5)
    sp.add_argument("--gram", type=_at_least(0), default=0,
                    help="write a Gram CSV over this many random graphs to "
                    "--out, or to standard output")
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("check-theorem1",
                        help="network sum vs random-walk kernel against the "
                        "parameter path graph")
    add_graph_flags(sp, required=False)
    sp.add_argument("--hops", type=_at_least(1), default=2)
    sp.add_argument("--decay", type=_finite, default=0.5)
    sp.add_argument("--trials", type=_at_least(1), default=50)
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("figure3-check",
                        help="concat blindness vs rw/sage discrimination")
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--trials", type=_at_least(1), default=100)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("sample-variance",
                        help="analytic vs empirical estimator variance")
    add_graph_flags(sp, required=False)
    sp.add_argument("--kind", choices=graphmod.SYNTH_KINDS, default="interaction")
    sp.add_argument("--n", type=_at_least(10), default=60)
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--neighborhoods", type=_at_least(1), default=10)
    sp.add_argument("--draws", type=_at_least(1), default=20000)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("snr-sweep", help="accuracy vs link-attribute noise")
    add_graph_flags(sp, required=False)
    sp.add_argument("--kind", choices=graphmod.SYNTH_KINDS, default="interaction")
    sp.add_argument("--n", type=_at_least(10), default=600)
    sp.add_argument("--config", default=None)
    sp.add_argument("--split", default=None)
    sp.add_argument("--seed", type=_at_least(0), default=0)
    sp.add_argument("--snr", type=_snr_list, default="inf,4,2,1,0.5",
                    help="comma-separated SNR list; 'inf' for no noise")
    sp.add_argument("--out", required=True)
    return p


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_synth(args):
    g, split = graphmod.synth_graph(args.kind, args.n, seed=args.seed)
    graphmod.save_graph(g, args.nodes, args.links, args.manifest)
    _write_json(args.split, asdict(split))
    print("synth %s: %d nodes, %d links, %d labels"
          % (args.kind, g.n_nodes, g.n_links, g.n_labels))
    return EXIT_OK


def _get_run(args):
    run = training.TrainRun.from_json(args.config)
    if getattr(args, "seed", None) is not None:
        run.seed = args.seed
    return run


def _cmd_train(args):
    g = _load_graph_args(args)
    run = _get_run(args)
    if args.split:
        split = graphmod.load_split(args.split, g.n_nodes)
    else:
        split = graphmod.make_split(g, seed=run.seed)
    # the ops' own finiteness checks report an overflow, as a typed error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        model, hist = training.train(g, split, run)
    model.save(args.out + ".ckpt", meta={"run": run.to_dict()})
    atomic_write(args.out + ".metrics.csv", training.metrics_csv(hist))
    _write_json(args.out + ".summary.json", {
        "test_f1": hist.test_f1, "best_epoch": hist.best_epoch,
        "epochs": len(hist.train_loss), "config": run.to_dict()})
    score = ("no test split" if hist.test_f1 is None
             else "test micro-F1 %.4f" % hist.test_f1)
    print("train: %s (best epoch %d)" % (score, hist.best_epoch))
    return EXIT_OK


def _cmd_eval(args):
    g = _load_graph_args(args)
    if args.config:
        run = _get_run(args)
    else:
        meta = training.checkpoint_meta(args.checkpoint)
        if not isinstance(meta.get("run"), dict):
            raise UsageError("checkpoint %s stores no training config; pass "
                             "--config" % args.checkpoint)
        run = training.TrainRun.from_dict(meta["run"])
    model = training.build_model(g, run)
    model.load(args.checkpoint)
    split = graphmod.load_split(args.split, g.n_nodes)
    nodes = getattr(split, args.subset)
    f1 = training.evaluate(g, model, nodes, args.subset)
    _write_json(args.out, {"subset": args.subset, "micro_f1": f1})
    print("eval: %s micro-F1 %.4f" % (args.subset, f1))
    return EXIT_OK


def _cmd_kernel(args):
    cfg = kernels.KernelConfig(decay=args.decay, hops=args.hops)
    if args.gram:
        given = [f for f in ("nodes", "links", "manifest", "nodes2", "links2")
                 if getattr(args, f)]
        if given:
            raise UsageError("kernel --gram draws its own random graphs and "
                             "reads no --%s" % ", --".join(given))
        gs = [graphmod.synth_graph("random", 12, seed=args.seed + i)[0]
              for i in range(args.gram)]
        gram = np.zeros((args.gram, args.gram))
        for i, a in enumerate(gs):  # each unordered pair once, mirrored
            for j in range(i, args.gram):
                gram[i, j] = gram[j, i] = kernels.rw_kernel_dp(a, gs[j], cfg)
        text = "\n".join(",".join(repr(float(v)) for v in row)
                         for row in gram) + "\n"
        if args.out:
            atomic_write(args.out, text)
            print("kernel: %d x %d Gram matrix written"
                  % (args.gram, args.gram))
        else:
            sys.stdout.write(text)
        return EXIT_OK
    g1 = _load_graph_args(args)
    g2 = _load_graph_args(args, "2") if args.nodes2 or args.links2 else g1
    kernels.check_enumeration_budget(g1, g2, cfg.hops)
    dp = kernels.rw_kernel_dp(g1, g2, cfg)
    en = kernels.rw_kernel_enumerate(g1, g2, cfg)
    rel = abs(dp - en) / max(1.0, abs(en))
    result = {"dp": dp, "enumerate": en, "rel_err": rel}
    _write_json(args.out, result)
    print("kernel: dp %.6g enumerate %.6g rel_err %.3g" % (dp, en, rel))
    return EXIT_OK if rel < 1e-9 else EXIT_NUMERIC


def _cmd_check_theorem1(args):
    rng = np.random.default_rng(args.seed)
    loaded = _load_graph_args(args) if args.nodes or args.links else None
    results = []
    worst = 0.0
    for trial in range(args.trials):
        g = loaded if loaded is not None else graphmod.random_graph(rng)
        stack = layers.LayerStack("rw", g.d_node, g.d_link, hidden=4,
                                  depth=args.hops, kernel_mode=True,
                                  constant_decay=args.decay,
                                  seed=int(rng.integers(2 ** 31)))
        k = int(rng.integers(stack.hidden))
        lhs, rhs = kernels.check_theorem1(g, stack, None, k)
        rel = abs(lhs - rhs) / max(1.0, abs(rhs))
        worst = max(worst, rel)
        results.append({"trial": trial, "lhs": lhs, "rhs": rhs, "rel_err": rel})
    _write_json(args.out, {"results": results, "max_rel_err": worst})
    ok = worst < 1e-9
    print("check-theorem1: %d trials, max rel_err %.3g -> %s"
          % (args.trials, worst, "PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_figure3(args):
    g, _ = graphmod.synth_graph("concat-blind", 12, seed=args.seed)
    u, u2 = graphmod.concat_blind_duos(g)[0]
    rng = np.random.default_rng(args.seed)

    concat_stack = layers.LayerStack("concat", g.d_node, g.d_link, hidden=8,
                                     depth=1, seed=args.seed)
    h = layers.forward(g, concat_stack, [u, u2]).data
    concat_gap = float(np.max(np.abs(h[:, 0] - h[:, 1])))

    separations = {"rw": 0, "sage": 0}
    for arch in separations:
        for _ in range(args.trials):
            stack = layers.LayerStack(arch, g.d_node, g.d_link, hidden=8,
                                      depth=1, seed=int(rng.integers(2 ** 31)))
            hh = layers.forward(g, stack, [u, u2]).data
            if float(np.max(np.abs(hh[:, 0] - hh[:, 1]))) > 1e-6:
                separations[arch] += 1
    ok = concat_gap < 1e-12 and all(
        c >= math.ceil(0.99 * args.trials) for c in separations.values())
    result = {"concat_gap": concat_gap, "trials": args.trials,
              "separated": separations, "pass": ok}
    _write_json(args.out, result)
    print("figure3-check: concat gap %.3g, rw %d/%d, sage %d/%d -> %s"
          % (concat_gap, separations["rw"], args.trials,
             separations["sage"], args.trials, "PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_sample_variance(args):
    if args.nodes or args.links:
        g = _load_graph_args(args)
    else:
        g, _ = graphmod.synth_graph(args.kind, args.n, seed=args.seed)
    stack = layers.LayerStack("sage", g.d_node, g.d_link, hidden=8, depth=1,
                              seed=args.seed)
    ctx = layers.full_forward(g, stack)
    rng = np.random.default_rng(args.seed)
    candidates = np.flatnonzero(np.diff(g.arc_ptr) >= 2)
    chosen = rng.choice(candidates, size=min(args.neighborhoods,
                                             len(candidates)), replace=False)
    dists = {}  # per strategy: each chosen node's row, as training serves it
    for name, strategy in (("uniform", "uniform"), ("gate", "gate"),
                           ("min_var", "minvar")):
        plan, state = sampling.SamplePlan(strategy), sampling.SamplerState()
        sampling.refresh(state, g, stack, plan, np.arange(g.n_nodes))
        order, ptr, _, p, _ = sampling.layer_probs(g, state, 1, chosen)
        dists[name] = dict(zip(chosen[order], np.split(p, ptr[1:-1])))
    lines = ["strategy,neighborhood_id,analytic_var,empirical_var"]
    for u in chosen:
        lam, gmat = sampling.neighborhood_terms(g, ctx, 1, u)
        for name, rows in dists.items():
            p = rows[u]
            analytic = sampling.estimator_variance(lam, gmat, p)
            draws = sampling.draw(p, args.draws, rng)
            ests = (lam[draws, None] * gmat[draws] / p[draws, None])
            empirical = float(np.sum(np.var(ests, axis=0)))
            lines.append("%s,%d,%s,%s" % (name, u, repr(float(analytic)),
                                          repr(float(empirical))))
    atomic_write(args.out, "\n".join(lines) + "\n")
    print("sample-variance: %d neighborhoods written" % len(chosen))
    return EXIT_OK


def _cmd_snr_sweep(args):
    if args.nodes or args.links:
        g = _load_graph_args(args)
        split = (graphmod.load_split(args.split, g.n_nodes) if args.split
                 else graphmod.make_split(g, seed=args.seed))
    else:
        g, split = graphmod.synth_graph(args.kind, args.n, seed=args.seed)
    if args.config:
        run = training.TrainRun.from_json(args.config)
    else:
        run = training.TrainRun(arch="sage", hidden=16, depth=1, lr=1e-2,
                                max_epochs=25, patience=25, seed=args.seed)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rows = training.snr_sweep(g, split, run, args.snr)
    lines = ["snr,test_f1"]
    for snr, f1 in rows:
        lines.append("%s,%s" % (repr(float(snr)), repr(float(f1))))
    atomic_write(args.out, "\n".join(lines) + "\n")
    for snr, f1 in rows:
        print("snr %s -> test micro-F1 %.4f" % (snr, f1))
    return EXIT_OK


def _outputs(args):
    """The paths a command writes, checked before it does its work."""
    if args.command == "train":
        if not os.path.basename(args.out):  # "" or "dir/": no file name
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
        return [args.out + ".ckpt", args.out + ".metrics.csv",
                args.out + ".summary.json"]
    paths = ([args.nodes, args.links, args.manifest, args.split]
             if args.command == "synth" else [args.out])
    return [path for path in paths if path is not None]


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "kernel": _cmd_kernel,
    "check-theorem1": _cmd_check_theorem1,
    "figure3-check": _cmd_figure3,
    "sample-variance": _cmd_sample_variance,
    "snr-sweep": _cmd_snr_sweep,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        for path in _outputs(args):
            check_output(path)
        return _COMMANDS[args.command](args)
    except (UsageError, OSError) as exc:  # OSError: a path flag's file
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # GraphError included
        print("data error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as exc:  # TrainingDiverged included
        print("numerical failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
