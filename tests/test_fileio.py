"""Atomic output: a failed write leaves the previous file as it was."""

import itertools
import os

import numpy as np
import pytest

from lase import graph as G
from lase import training as T
from lase.fileio import atomic_write


def _fail_replace(*args):
    raise OSError("disk full")


def test_atomic_write_roundtrip(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(str(path), "one\n")
    atomic_write(str(path), "two\n")
    assert path.read_text() == "two\n"
    atomic_write(str(tmp_path / "out.bin"), b"\x00\x01")
    assert (tmp_path / "out.bin").read_bytes() == b"\x00\x01"


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    atomic_write(str(path), "previous\n")
    with pytest.raises(TypeError):
        atomic_write(str(path), 12345)  # fails inside the write itself
    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError):
        atomic_write(str(path), "next\n")  # fails after the data is written
    assert path.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failed_write_names_the_path_it_was_given(tmp_path):
    """The error names the file asked for, not the temp file, whether the
    directory is missing or the path is a directory."""
    missing = str(tmp_path / "missing" / "out.txt")
    with pytest.raises(FileNotFoundError) as exc:
        atomic_write(missing, "x")
    assert exc.value.filename == missing and ".tmp-" not in str(exc.value)
    (tmp_path / "d").mkdir()
    with pytest.raises(IsADirectoryError) as exc:
        atomic_write(str(tmp_path / "d"), "x")
    assert exc.value.filename == str(tmp_path / "d")
    assert ".tmp-" not in str(exc.value)
    assert os.listdir(tmp_path) == ["d"] and os.listdir(tmp_path / "d") == []


def test_failed_graph_and_checkpoint_saves_keep_previous_files(tmp_path,
                                                                monkeypatch):
    paths = [str(tmp_path / x) for x in ("n.tsv", "l.tsv", "m.json")]
    g1, _ = G.synth_graph("random", 20, seed=1)
    g2, _ = G.synth_graph("random", 20, seed=2)
    G.save_graph(g1, *paths)
    model = T.build_model(g1, T.TrainRun(hidden=2, depth=1))
    saved = model.snapshot()
    prefix = str(tmp_path / "ckpt")
    model.save(prefix)
    before = sorted(os.listdir(tmp_path))

    monkeypatch.setattr(os, "replace", _fail_replace)
    with pytest.raises(OSError):
        G.save_graph(g2, *paths)
    model.restore(np.zeros_like(saved))
    with pytest.raises(OSError):
        model.save(prefix)
    monkeypatch.undo()

    assert sorted(os.listdir(tmp_path)) == before
    loaded = G.load_graph(*paths[:2], manifest_path=paths[2])
    assert np.array_equal(loaded.node_features, g1.node_features)
    model.load(prefix)
    assert np.array_equal(model.snapshot(), saved)


def test_a_checkpoint_save_failing_at_any_rename_keeps_the_previous(
        tmp_path, monkeypatch):
    """Each ``os.replace`` a checkpoint save makes fails in turn, and no
    other, while the arena is zeroed: the previous checkpoint still loads
    with its own meta and its own arena, and no file is left beside it."""
    g, _ = G.synth_graph("random", 20, seed=1)
    model = T.build_model(g, T.TrainRun(hidden=2, depth=1))
    saved = model.snapshot()
    path = str(tmp_path / "run.ckpt")
    replace, renames = os.replace, []
    monkeypatch.setattr(os, "replace",
                        lambda *a: renames.append(a) or replace(*a))
    model.save(path, meta={"run": "old"})
    before = sorted(os.listdir(tmp_path))
    assert renames
    for i in range(len(renames)):
        calls = itertools.count()

        def fail_one(*args):
            if next(calls) == i:
                _fail_replace()
            return replace(*args)

        monkeypatch.setattr(os, "replace", fail_one)
        model.restore(np.zeros_like(saved))
        with pytest.raises(OSError):
            model.save(path, meta={"run": "new"})
        monkeypatch.setattr(os, "replace", replace)
        assert sorted(os.listdir(tmp_path)) == before
        assert model.load(path) == {"run": "old"}
        assert np.array_equal(model.snapshot(), saved)
