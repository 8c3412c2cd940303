"""Byte-identical command outputs against pinned SHA-256 digests.

``data/digests.json`` holds the SHA-256 of every file a fixed set of ``lase``
commands writes: ``synth``; ``train`` for each architecture, sampling
strategy and depth 1 and 3; ``eval`` of each of those checkpoints;
``check-theorem1``; ``kernel --gram``; and ``sample-variance``.  A change
that claims to keep every output bit for bit the same must leave them all
equal.

The digests are those of one numpy and BLAS build, which the file records.
Under another build the test still runs and compares: equal digests pass,
and a failure names both builds alongside the files that moved (a build may
round differently).  It never skips.  If the tolerance-based
``test_parity.py`` passes on the new build, re-pin.

Re-pinning is deliberate: ``PYTHONPATH=src python tests/test_digests.py``
rewrites the file from the current code and prints each digest that moved,
was added or went away.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from lase import cli

PIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                   "digests.json")
ARCHS = ("sage", "rw", "wl", "concat")
STRATEGIES = ("full", "uniform", "gate", "minvar")
DEPTHS = (1, 3)


def build():
    """The numpy version and BLAS build the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def _lase(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    assert code == cli.EXIT_OK, argv


def run_commands():
    """Run the command matrix, writing into the working directory."""
    graph = ("--nodes", "n.tsv", "--links", "l.tsv", "--manifest", "m.json")
    _lase("synth", "--kind", "interaction", "--n", 80, "--seed", 5, *graph,
          "--split", "split.json")
    for arch in ARCHS:
        for strategy in STRATEGIES:
            for depth in DEPTHS:
                name = "%s-%s-%d" % (arch, strategy, depth)
                with open(name + ".json", "w", encoding="utf-8") as fh:
                    json.dump({"arch": arch, "depth": depth, "hidden": 8,
                               "lr": 1e-2, "batch_size": 16, "max_epochs": 3,
                               "patience": 3, "seed": 1,
                               "plan": {"strategy": strategy,
                                        "sample_size": 3}}, fh)
                _lase("train", *graph, "--config", name + ".json",
                      "--split", "split.json", "--out", name)
                _lase("eval", *graph, "--checkpoint", name + ".ckpt",
                      "--split", "split.json", "--out", name + ".eval.json")
    _lase("check-theorem1", "--hops", 3, "--trials", 5, "--seed", 2,
          "--out", "theorem1.json")
    _lase("kernel", "--gram", 3, "--hops", 2, "--seed", 4, "--out",
          "gram.csv")
    _lase("sample-variance", "--n", 60, "--seed", 3, "--neighborhoods", 4,
          "--draws", 500, "--out", "variance.csv")


def compute():
    """{file name: SHA-256} of every file the command matrix writes, minus
    the configs it writes itself."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            run_commands()
        finally:
            os.chdir(cwd)
        configs = {"%s-%s-%d.json" % (a, s, d) for a in ARCHS
                   for s in STRATEGIES for d in DEPTHS}
        out = {}
        for name in sorted(set(os.listdir(tmp)) - configs):
            with open(os.path.join(tmp, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def diff(pinned, current):
    """Lines naming each file whose digest moved, appeared or went away."""
    return (["moved: %s" % k for k in sorted(pinned.keys() & current.keys())
             if pinned[k] != current[k]]
            + ["added: %s" % k for k in sorted(current.keys() - pinned.keys())]
            + ["gone: %s" % k for k in sorted(pinned.keys() - current.keys())])


def test_command_outputs_match_pinned_digests():
    with open(PIN, encoding="utf-8") as fh:
        pinned = json.load(fh)
    changes = diff(pinned["digests"], compute())
    here = build()
    note = ("" if here == pinned["build"] else
            "\npinned under %s, run under %s: if test_parity.py passes here, "
            "re-pin" % (pinned["build"], here))
    assert not changes, "\n".join(changes) + note


if __name__ == "__main__":
    old = {}
    if os.path.exists(PIN):
        with open(PIN, encoding="utf-8") as fh:
            old = json.load(fh)["digests"]
    new = compute()
    with open(PIN, "w", encoding="utf-8") as fh:
        json.dump({"build": build(), "digests": new}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print("\n".join(diff(old, new)) or "no digest moved", file=sys.stderr)
