"""CLI surface: subcommands, exit codes, idempotent outputs."""

import json
import math
import re
from pathlib import Path

import pytest

from lase import autodiff as ad
from lase import cli
from lase import graph as G
from lase import kernels
from lase import layers as L
from lase import sampling as S
from lase import training as T


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def synth_files(tmp_path):
    paths = {
        "nodes": str(tmp_path / "n.tsv"),
        "links": str(tmp_path / "l.tsv"),
        "manifest": str(tmp_path / "m.json"),
        "split": str(tmp_path / "s.json"),
    }
    code = run_cli("synth", "--kind", "interaction", "--n", "60", "--seed", "3",
                   "--nodes", paths["nodes"], "--links", paths["links"],
                   "--manifest", paths["manifest"], "--split", paths["split"])
    assert code == 0
    return paths


def write_config(tmp_path, **kw):
    cfg = dict(arch="sage", hidden=8, depth=1, lr=1e-2, batch_size=32,
               max_epochs=3, patience=3, seed=0)
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def unlabel(synth_files, tmp_path, u):
    """A copy of the synth node file whose node u has no label."""
    lines = Path(synth_files["nodes"]).read_text().splitlines(True)
    fields = lines[u].split("\t")
    lines[u] = "\t".join([fields[0], "-"] + fields[2:])
    nodes = tmp_path / "unlabelled.tsv"
    nodes.write_text("".join(lines))
    return nodes


class TestUsageErrors:
    def test_unknown_flag(self):
        assert run_cli("synth", "--bogus", "1") == cli.EXIT_USAGE

    def test_missing_config(self, synth_files, tmp_path):
        code = run_cli("train", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"],
                       "--config", str(tmp_path / "missing.json"),
                       "--out", str(tmp_path / "out"))
        assert code == cli.EXIT_USAGE
        assert not (tmp_path / "out.metrics.csv").exists()

    def test_no_subcommand(self):
        assert run_cli() == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("check-theorem1", "--nodes", "n.tsv"),
        ("check-theorem1", "--links", "l.tsv"),
        ("sample-variance", "--nodes", "n.tsv", "--out", "v.csv"),
        ("snr-sweep", "--nodes", "n.tsv", "--out", "s.csv"),
        ("kernel", "--links", "l.tsv"),
        ("kernel", "--nodes", "n.tsv", "--links", "l.tsv", "--nodes2", "n.tsv"),
        ("kernel", "--nodes", "n.tsv", "--links", "l.tsv", "--links2", "l.tsv"),
    ])
    def test_unpaired_graph_flag(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        G.save_graph(G.synth_graph("random", 10)[0], "n.tsv", "l.tsv")
        assert run_cli(*argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "needs both" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.tsv", "n.tsv"]

    @pytest.mark.parametrize("flags", [
        ("--nodes", "n.tsv", "--links", "l.tsv"),
        ("--nodes2", "n.tsv", "--links2", "l.tsv"),
        ("--manifest", "m.json"),
    ])
    def test_gram_with_graph_flags(self, flags, tmp_path, monkeypatch,
                                   capsys):
        monkeypatch.chdir(tmp_path)
        G.save_graph(G.synth_graph("random", 10)[0], "n.tsv", "l.tsv")
        assert run_cli("kernel", "--gram", "2", *flags) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--gram" in captured.err and flags[0] in captured.err
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.tsv", "n.tsv"]

    @pytest.mark.parametrize("argv", [
        ("check-theorem1", "--trials", "0"),
        ("figure3-check", "--trials", "0"),
        ("sample-variance", "--draws", "0", "--out", "v.csv"),
        ("sample-variance", "--neighborhoods", "0", "--out", "v.csv"),
        ("kernel", "--gram", "-3", "--out", "g.csv"),
        ("kernel", "--gram", "2", "--hops", "-1"),
        ("kernel", "--nodes", "n.tsv", "--links", "l.tsv", "--hops", "-1"),
        ("check-theorem1", "--hops", "0"),
        ("synth", "--kind", "random", "--n", "5", "--nodes", "n.tsv",
         "--links", "l.tsv"),
        ("sample-variance", "--n", "9", "--out", "v.csv"),
        ("snr-sweep", "--n", "0", "--out", "s.csv"),
        ("synth", "--kind", "random", "--seed", "-1", "--nodes", "n.tsv",
         "--links", "l.tsv"),
        ("kernel", "--gram", "2", "--seed", "-1"),
        ("check-theorem1", "--seed", "-1"),
        ("figure3-check", "--seed", "-1"),
        ("sample-variance", "--seed", "-1", "--out", "v.csv"),
        ("snr-sweep", "--seed", "-1", "--out", "s.csv"),
        ("train", "--config", "c.json", "--seed", "-1", "--out", "run"),
    ])
    def test_count_flag_below_minimum(self, argv, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == cli.EXIT_USAGE
        assert "must be at least" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("snr", ["abc", "4,-1", "0", "1,,2", "inf,nan",
                                     "-inf"])
    def test_snr_entry_not_positive_number(self, snr, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.chdir(tmp_path)
        trainings = []
        monkeypatch.setattr(T, "train", lambda *a, **kw: trainings.append(a))
        assert run_cli("snr-sweep", "--n", "40", "--snr", snr,
                       "--out", "s.csv") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--snr" in err and "Traceback" not in err
        assert trainings == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("decay", ["nan", "inf", "-inf", "x"])
    def test_nonfinite_decay(self, decay, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("check-theorem1", "--decay", decay, "--trials", "2",
                       "--out", "t.json") == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--decay" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestDataErrors:
    def test_bad_graph_file(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t0\t1.0\n1\t0\t2.0\n")
        links = tmp_path / "links.tsv"
        links.write_text("0\t99\t1.0\n")
        code = run_cli("kernel", "--nodes", str(bad), "--links", str(links))
        assert code == cli.EXIT_DATA

    def test_kernel_decay_outside_unit_interval(self, synth_files, tmp_path,
                                                capsys):
        out = tmp_path / "kernel.json"
        code = run_cli("kernel", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"], "--decay", "1.5",
                       "--out", str(out))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "decay must lie in (0, 1)" in err and "Traceback" not in err
        assert not out.exists()

    def test_numerical_failure_exit_code(self, synth_files, tmp_path, capsys):
        """A step size that overflows the forward ends in exit 3, naming the
        op, and leaves no output file; stderr holds that one line and no
        numpy warning."""
        code = run_cli("train", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"],
                       "--config", write_config(tmp_path, lr=1e300),
                       "--out", str(tmp_path / "run"))
        assert code == cli.EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"numerical failure: non-finite value produced by \w+\n", err), err
        assert not list(tmp_path.glob("run*"))

    def test_truncated_checkpoint(self, synth_files, tmp_path):
        cfg = write_config(tmp_path)
        g = G.load_graph(synth_files["nodes"], synth_files["links"],
                         manifest_path=synth_files["manifest"])
        model = T.build_model(g, T.TrainRun.from_json(cfg))
        prefix = str(tmp_path / "short.ckpt")
        ad.save_checkpoint(prefix, model.parameters()[:2])
        code = run_cli("eval", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"],
                       "--manifest", synth_files["manifest"],
                       "--config", cfg, "--checkpoint", prefix,
                       "--split", synth_files["split"])
        assert code == cli.EXIT_DATA

    @pytest.mark.parametrize("tamper, message", [
        ({"tensors": None}, "'tensors' must be a list"),
        ({"tensors": {}}, "'tensors' must be a list"),
        ({"tensors": [7]}, "tensors[0] must be an object"),
        ({"tensors": [{"rows": 1, "cols": 1}]},
         "tensors[0] 'name' must be a string"),
        ({0: {"rows": "2"}}, "tensors[0] 'rows' must be a non-negative integer"),
        ({2: {"rows": -1}}, "tensors[2] 'rows' must be a non-negative integer"),
        ({1: {"cols": True}}, "tensors[1] 'cols' must be a non-negative integer"),
        ({0: {"rows": 0}}, "blob size disagrees with manifest"),
        ({"meta": []}, "'meta' must be an object"),
        ({"meta": None}, "'meta' must be an object"),
        (None, "expected a JSON object"),
    ])
    @pytest.mark.parametrize("with_config", [False, True])
    def test_bad_checkpoint_manifest(self, synth_files, tmp_path, capsys,
                                     tamper, message, with_config):
        """A tampered checkpoint manifest is a data error naming the key,
        found before any tensor is read; nothing is written.  ``tamper``
        sets top-level keys (None: deletes them) and fields of the
        int-numbered tensor entries; None wraps the manifest in a list."""
        cfg = write_config(tmp_path)
        g = G.load_graph(synth_files["nodes"], synth_files["links"],
                         manifest_path=synth_files["manifest"])
        run = T.TrainRun.from_json(cfg)
        prefix = tmp_path / "run.ckpt"
        T.build_model(g, run).save(str(prefix), meta={"run": run.to_dict()})
        path = tmp_path / "run.ckpt.json"
        manifest = json.loads(path.read_text())
        for key, value in (tamper or {}).items():
            if isinstance(key, int):  # fields of the key-th tensor entry
                manifest["tensors"][key].update(value)
            elif value is None:
                del manifest[key]
            else:
                manifest[key] = value
        path.write_text(json.dumps(manifest if tamper else [manifest]))
        out = tmp_path / "eval.json"
        code = run_cli("eval", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"],
                       "--manifest", synth_files["manifest"],
                       *(("--config", cfg) if with_config else ()),
                       "--checkpoint", str(prefix),
                       "--split", synth_files["split"], "--out", str(out))
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("fault, message", [
        (dict(val=None), "'val' must be a list"),
        (dict(test=[999]), "test id 999 is not a node id"),
        (dict(overlap=True), "listed more than once"),
        (dict(train=[0, 1.5]), "train id 1.5 is not a node id"),
    ])
    def test_bad_split(self, synth_files, tmp_path, capsys, command, fault,
                       message):
        cfg = write_config(tmp_path, max_epochs=1)
        graph = ("--nodes", synth_files["nodes"], "--links",
                 synth_files["links"], "--manifest", synth_files["manifest"])
        out = str(tmp_path / "run")
        if command == "eval":
            assert run_cli("train", *graph, "--split", synth_files["split"],
                           "--config", cfg, "--out", out) == 0
        split = json.loads(Path(synth_files["split"]).read_text())
        if "overlap" in fault:
            split["val"].append(split["train"][0])
        else:
            split.update(fault)
        split = {k: v for k, v in split.items() if v is not None}
        bad = tmp_path / "bad_split.json"
        bad.write_text(json.dumps(split))
        tail = (("--config", cfg, "--out", out) if command == "train"
                else ("--checkpoint", out + ".ckpt"))
        assert run_cli(command, *graph, "--split", str(bad),
                       *tail) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("where, with_split", [
        ("train", False), ("train", True), ("val", True), ("test", True)])
    def test_unlabelled_node(self, synth_files, tmp_path, capsys, where,
                             with_split):
        """Without --split the unlabelled nodes are left out of every set;
        a given split that holds one is a data error naming it, raised
        before any training."""
        u = json.loads(Path(synth_files["split"]).read_text())[where][0]
        nodes = unlabel(synth_files, tmp_path, u)
        out = tmp_path / "run"
        code = run_cli("train", "--nodes", str(nodes),
                       "--links", synth_files["links"],
                       "--manifest", synth_files["manifest"],
                       "--config", write_config(tmp_path, max_epochs=1),
                       "--out", str(out),
                       *(("--split", synth_files["split"]) if with_split
                         else ()))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if with_split:
            assert code == cli.EXIT_DATA
            assert "%s node %d has no label" % (where, u) in err
            assert not (tmp_path / "run.metrics.csv").exists()
        else:
            assert code == 0 and (tmp_path / "run.metrics.csv").exists()

    @pytest.mark.parametrize("subset", ["val", "test"])
    def test_eval_unlabelled_node(self, synth_files, tmp_path, capsys, subset):
        """``eval`` on a set holding an unlabelled node names it, as
        ``train`` does."""
        out = str(tmp_path / "run")
        graph = ["--links", synth_files["links"],
                 "--manifest", synth_files["manifest"],
                 "--split", synth_files["split"]]
        assert run_cli("train", "--nodes", synth_files["nodes"], *graph,
                       "--config", write_config(tmp_path, max_epochs=1),
                       "--out", out) == 0
        u = json.loads(Path(synth_files["split"]).read_text())[subset][0]
        nodes = unlabel(synth_files, tmp_path, u)
        capsys.readouterr()
        code = run_cli("eval", "--nodes", str(nodes), *graph,
                       "--checkpoint", out + ".ckpt", "--subset", subset)
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA and "Traceback" not in err
        assert "%s node %d has no label" % (subset, u) in err

    @pytest.mark.parametrize("config, message", [
        ({"hiddn": 4}, "unknown keys hiddn"),
        ({"hidden": "four"}, "hidden must be of type int"),
        ({"hidden": True}, "hidden must be of type int"),
        ({"lr": "0.1"}, "lr must be of type float"),
        ({"plan": {"strategy": "minvar", "sample_sz": 3}},
         "config plan: unknown keys sample_sz"),
        ({"plan": {"sample_size": 2.0}}, "sample_size must be of type int"),
        ([1, 2], "config must be a JSON object"),
        ({"hidden": 0}, "hidden must be >= 1"),
        ({"arch": "wl", "wl_depth": 0}, "wl_depth must be >= 1"),
        ({"arch": "wl", "wl_depth": -1}, "wl_depth must be >= 1"),
        ({"max_epochs": 0}, "max_epochs must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"plan": {"strategy": "minvar", "seed": -2}}, "seed must be >= 0"),
        ({"arch": "gcn"}, "unknown architecture 'gcn'"),
        ({"combine": "max"}, "unknown combine op 'max'"),
        ({"optimizer": "rmsprop"}, "unknown optimizer 'rmsprop'"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"patience": 0}, "patience must be >= 1"),
        ({"snr": 0}, "snr must be positive"),
        ({"plan": {"strategy": "topk"}}, "unknown sampling strategy 'topk'"),
        ({"plan": {"strategy": "minvar", "sample_size": 0}},
         "sample_size must be >= 1"),
        ({"plan": {"strategy": "minvar", "refresh_interval": 0}},
         "refresh_interval must be >= 1"),
    ])
    def test_bad_config(self, synth_files, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = run_cli("train", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"],
                       "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(tmp_path.glob("run*"))

    @pytest.mark.parametrize("manifest, message", [
        ([1], "manifest: expected a JSON object"),
        ({"d_node": "3"}, "'d_node' must be a non-negative integer"),
        ({"d_link": -1}, "'d_link' must be a non-negative integer"),
        ({"n_labels": True}, "'n_labels' must be a non-negative integer"),
        ({"n_labels": 2.0}, "'n_labels' must be a non-negative integer"),
        ({"d_node": None}, "'d_node' must be a non-negative integer"),
        ({"undirected": "no"}, "'undirected' must be true or false"),
        ({"undirected": 0}, "'undirected' must be true or false"),
    ])
    def test_bad_manifest(self, synth_files, tmp_path, capsys, manifest,
                          message):
        path = tmp_path / "bad_manifest.json"
        path.write_text(json.dumps(manifest))
        code = run_cli("kernel", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"],
                       "--manifest", str(path))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_kernel_over_enumeration_budget(self, tmp_path, monkeypatch,
                                            capsys):
        g, _ = G.synth_graph("random", 200, seed=0)
        nodes, links = str(tmp_path / "n.tsv"), str(tmp_path / "l.tsv")
        G.save_graph(g, nodes, links)

        def no_dp(*args):
            raise AssertionError("the DP ran before the budget check")

        monkeypatch.setattr(kernels, "rw_kernel_dp", no_dp)
        code = run_cli("kernel", "--nodes", nodes, "--links", links,
                       "--hops", "3")
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "enumeration budget" in err and "Traceback" not in err


class TestTrainEval:
    def test_train_then_eval(self, synth_files, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert run_cli("train", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"],
                       "--manifest", synth_files["manifest"],
                       "--split", synth_files["split"],
                       "--config", cfg, "--out", out) == 0
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert 0.0 <= summary["test_f1"] <= 1.0
        assert run_cli("eval", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"],
                       "--manifest", synth_files["manifest"],
                       "--config", cfg, "--checkpoint", out + ".ckpt",
                       "--split", synth_files["split"],
                       "--out", str(tmp_path / "eval.json")) == 0
        ev = json.loads((tmp_path / "eval.json").read_text())
        assert ev["micro_f1"] == pytest.approx(summary["test_f1"])

    def test_eval_takes_config_from_checkpoint(self, synth_files, tmp_path):
        cfg = write_config(tmp_path, arch="rw", hidden=6, depth=2, seed=4)
        out = str(tmp_path / "run")
        graph = ("--nodes", synth_files["nodes"], "--links",
                 synth_files["links"], "--manifest", synth_files["manifest"])
        assert run_cli("train", *graph, "--split", synth_files["split"],
                       "--config", cfg, "--seed", "2", "--out", out) == 0
        meta = json.loads((tmp_path / "run.ckpt.json").read_text())["meta"]
        assert meta["run"]["seed"] == 2
        f1 = {}
        for name, flags in (("with", ("--config", cfg)), ("without", ())):
            assert run_cli("eval", *graph, *flags, "--checkpoint",
                           out + ".ckpt", "--split", synth_files["split"],
                           "--out", str(tmp_path / name)) == 0
            f1[name] = json.loads((tmp_path / name).read_text())["micro_f1"]
        assert f1["with"] == f1["without"]

    def test_eval_without_any_config_is_usage_error(self, synth_files,
                                                    tmp_path, capsys):
        g = G.load_graph(synth_files["nodes"], synth_files["links"],
                         manifest_path=synth_files["manifest"])
        model = T.build_model(g, T.TrainRun.from_json(write_config(tmp_path)))
        prefix = str(tmp_path / "bare.ckpt")
        model.save(prefix, meta={"seed": 0})
        code = run_cli("eval", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"],
                       "--manifest", synth_files["manifest"],
                       "--checkpoint", prefix, "--split", synth_files["split"])
        assert code == cli.EXIT_USAGE
        assert "--config" in capsys.readouterr().err

    def test_sgd_train_byte_identical_reruns(self, synth_files, tmp_path,
                                             monkeypatch):
        steps = []
        step = T.Sgd.step
        monkeypatch.setattr(T.Sgd, "step",
                            lambda self: steps.append(1) or step(self))
        cfg = write_config(tmp_path, optimizer="sgd", lr=0.05)
        for out in ("a", "b"):
            assert run_cli("train", "--nodes", synth_files["nodes"],
                           "--links", synth_files["links"],
                           "--manifest", synth_files["manifest"],
                           "--split", synth_files["split"],
                           "--config", cfg, "--out", str(tmp_path / out)) == 0
        assert steps
        for suffix in (".metrics.csv", ".ckpt.bin", ".summary.json"):
            assert ((tmp_path / ("a" + suffix)).read_bytes()
                    == (tmp_path / ("b" + suffix)).read_bytes()), suffix

    def test_train_byte_identical_reruns(self, synth_files, tmp_path):
        cfg = write_config(tmp_path)
        for out in ("a", "b"):
            assert run_cli("train", "--nodes", synth_files["nodes"],
                           "--links", synth_files["links"],
                           "--manifest", synth_files["manifest"],
                           "--split", synth_files["split"],
                           "--config", cfg, "--out", str(tmp_path / out)) == 0
        a = (tmp_path / "a.metrics.csv").read_bytes()
        b = (tmp_path / "b.metrics.csv").read_bytes()
        assert a == b


class TestChecks:
    def test_kernel_pair(self, synth_files, tmp_path):
        out = tmp_path / "kernel.json"
        code = run_cli("kernel", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"], "--hops", "1",
                       "--decay", "0.5", "--out", str(out))
        assert code == 0
        res = json.loads(out.read_text())
        assert res["rel_err"] < 1e-9

    def test_kernel_gram(self, tmp_path, capsys):
        out = tmp_path / "gram.csv"
        assert run_cli("kernel", "--gram", "3", "--hops", "2", "--seed", "4",
                       "--out", str(out)) == 0
        assert capsys.readouterr().out == "kernel: 3 x 3 Gram matrix written\n"
        text = out.read_text()
        gs = [G.synth_graph("random", 12, seed=4 + i)[0] for i in range(3)]
        cfg = kernels.KernelConfig(0.5, 2)
        assert text == "".join(",".join(
            repr(kernels.rw_kernel_dp(gs[min(i, j)], gs[max(i, j)], cfg))
            for j in range(3)) + "\n" for i in range(3))
        gram = [line.split(",") for line in text.splitlines()]
        assert all(gram[i][j] == gram[j][i] for i in range(3) for j in range(3))
        assert run_cli("kernel", "--gram", "3", "--hops", "2",
                       "--seed", "4") == 0
        assert capsys.readouterr().out == text

    def test_check_theorem1(self, tmp_path):
        out = tmp_path / "thm.json"
        code = run_cli("check-theorem1", "--hops", "2", "--decay", "0.5",
                       "--trials", "5", "--seed", "1", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["max_rel_err"] < 1e-9

    def test_check_theorem1_decay_outside_unit_interval(self, tmp_path):
        out = tmp_path / "thm.json"
        assert run_cli("check-theorem1", "--decay", "1.5", "--trials", "3",
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["max_rel_err"] < 1e-9

    def test_check_theorem1_loads_graph_once(self, synth_files, tmp_path,
                                             monkeypatch):
        loads = []
        load_graph = G.load_graph
        monkeypatch.setattr(G, "load_graph",
                            lambda *a, **kw: loads.append(a) or load_graph(*a, **kw))
        out = tmp_path / "thm.json"
        code = run_cli("check-theorem1", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"], "--hops", "1",
                       "--trials", "3", "--out", str(out))
        assert code == 0 and len(loads) == 1
        assert len(json.loads(out.read_text())["results"]) == 3

    def test_check_theorem1_directed_graph(self, tmp_path):
        g, _ = G.synth_graph("interaction", 14, seed=21)
        links = [(d, s) if i % 2 else (s, d)
                 for i, (s, d) in enumerate(g.links)]
        gd = G.AttributedGraph(g.node_features, g.labels, links,
                               g.link_features, g.n_labels, undirected=False)
        paths = [str(tmp_path / name) for name in ("n.tsv", "l.tsv", "m.json")]
        G.save_graph(gd, *paths)
        out = tmp_path / "thm.json"
        code = run_cli("check-theorem1", "--nodes", paths[0], "--links",
                       paths[1], "--manifest", paths[2], "--trials", "5",
                       "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["max_rel_err"] < 1e-9

    def test_figure3_check(self, tmp_path):
        out = tmp_path / "fig3.json"
        code = run_cli("figure3-check", "--seed", "2", "--trials", "20",
                       "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["pass"] is True

    def test_sample_variance_csv(self, tmp_path):
        out = tmp_path / "var.csv"
        code = run_cli("sample-variance", "--kind", "interaction", "--n", "40",
                       "--neighborhoods", "3", "--draws", "2000",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "strategy,neighborhood_id,analytic_var,empirical_var"
        assert len(lines) == 1 + 3 * 3

    def test_sample_variance_serves_training_distributions(self, tmp_path,
                                                           monkeypatch):
        """The command draws from the rows ``refresh`` and ``layer_probs``
        serve, calling none of the paper-formula oracles, and its analytic
        variances equal the oracles' bit for bit."""
        for name in ("probs_uniform", "probs_from_gates",
                     "probs_minvar_weights"):
            monkeypatch.setattr(S, name, None)
        out = tmp_path / "var.csv"
        assert run_cli("sample-variance", "--kind", "random", "--n", "30",
                       "--seed", "7", "--neighborhoods", "4", "--draws", "50",
                       "--out", str(out)) == 0
        monkeypatch.undo()
        g, _ = G.synth_graph("random", 30, seed=7)
        stack = L.LayerStack("sage", g.d_node, g.d_link, hidden=8, depth=1,
                             seed=7)
        ctx = L.full_forward(g, stack)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 12
        for name, u, analytic, _ in rows:
            lam, gmat = S.neighborhood_terms(g, ctx, 1, int(u))
            p = {"uniform": S.probs_uniform(lam.size),
                 "gate": S.probs_from_gates(lam),
                 "min_var": S.probs_minvar_weights(lam, gmat)}[name]
            assert analytic == repr(S.estimator_variance(lam, gmat, p))

    def test_snr_sweep_synthesized_default_run(self, tmp_path):
        """Without --config or graph flags the sweep trains a default
        ``TrainRun`` on a synthesized graph."""
        out = tmp_path / "snr.csv"
        assert run_cli("snr-sweep", "--n", "30", "--snr", "inf,1",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "snr,test_f1"
        assert [line.split(",")[0] for line in lines[1:]] == ["inf", "1.0"]

    def test_snr_sweep_csv(self, synth_files, tmp_path):
        out = tmp_path / "snr.csv"
        cfg = write_config(tmp_path, max_epochs=2, patience=2)
        code = run_cli("snr-sweep", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"],
                       "--manifest", synth_files["manifest"],
                       "--split", synth_files["split"], "--config", cfg,
                       "--snr", "inf,1", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "snr,test_f1"
        assert len(lines) == 3

    def test_snr_sweep_without_split_makes_one(self, synth_files, tmp_path):
        """Graph flags without --split train on ``make_split`` of --seed."""
        out = tmp_path / "snr.csv"
        cfg = write_config(tmp_path, max_epochs=2, patience=2)
        code = run_cli("snr-sweep", "--nodes", synth_files["nodes"],
                       "--links", synth_files["links"], "--config", cfg,
                       "--seed", "2", "--snr", "inf", "--out", str(out))
        assert code == 0
        g = G.load_graph(synth_files["nodes"], synth_files["links"])
        [(_, f1)] = T.snr_sweep(g, G.make_split(g, seed=2),
                                T.TrainRun.from_json(cfg), [math.inf])
        assert out.read_text() == "snr,test_f1\ninf,%r\n" % f1
