"""Package structure: the direction of imports between ``lase`` modules,
``autodiff`` standing alone, ``fileio`` as the one writer of files and the
one parser of JSON, and the names the benchmark's tracer wraps."""

import ast
import importlib.util
import os

from lase import graph as G
from lase import sampling as S
from lase import training as T

SRC = os.path.dirname(S.__file__)
ROOT = os.path.dirname(os.path.dirname(SRC))

# Each module may import only modules of earlier ranks.
RANKS = (("fileio",), ("autodiff",), ("graph",), ("layers",),
         ("kernels", "sampling"), ("training",), ("cli",))


def _package_imports(tree):
    """The ``lase`` modules ``tree`` imports, at any depth: by ``from .
    import m``, ``from .m import name``, ``import lase.m`` or ``from lase
    import m``."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            full = [a.name for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            base = n.module or ""
            if n.level == 1:
                base = "lase." + base if base else "lase"
            full = ([base] if base != "lase"
                    else ["lase." + a.name for a in n.names])
        else:
            continue
        out.update(m.split(".")[1] for m in full if m.startswith("lase."))
    return out


def test_modules_import_only_earlier_ones():
    """Function-level imports included, so no import cycle can hide inside
    a function; ``__init__`` re-exports and is exempt."""
    rank = {m: r for r, group in enumerate(RANKS) for m in group}
    names = sorted(f[:-3] for f in os.listdir(SRC)
                   if f.endswith(".py") and f != "__init__.py")
    assert names == sorted(rank)
    later = {}
    for name in names:
        with open(os.path.join(SRC, name + ".py"), encoding="utf-8") as fh:
            imported = _package_imports(ast.parse(fh.read()))
        assert imported <= set(rank), (name, imported)
        later[name] = sorted(m for m in imported if rank[m] >= rank[name])
    assert later == {name: [] for name in names}


def test_autodiff_imports_no_package_module():
    """The tensors, the tape and its ops need nothing else of ``lase``: no
    file format or helper is imported at any depth."""
    with open(os.path.join(SRC, "autodiff.py"), encoding="utf-8") as fh:
        assert _package_imports(ast.parse(fh.read())) == set()


def test_package_imports_sees_every_form():
    tree = ast.parse("from . import a, b as c\nfrom .d import x\n"
                     "def f():\n    import lase.e\n    from lase import g\n"
                     "    from lase.h import y\n    import numpy\n")
    assert _package_imports(tree) == {"a", "b", "d", "e", "g", "h"}


def _file_writes(tree):
    """Line numbers of the calls in ``tree`` that write a file themselves:
    an ``open`` whose mode may write, append or create (a mode that is not
    a literal counts), ``fdopen``, ``tofile``, ``write_bytes``,
    ``write_text`` and numpy's ``save`` family."""
    lines = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        name = getattr(f, "id", getattr(f, "attr", ""))
        if name == "open":
            mode = (n.args[1] if len(n.args) > 1 else next(
                (k.value for k in n.keywords if k.arg == "mode"), None))
            writes = mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))
        else:
            writes = name in ("fdopen", "tofile", "write_bytes",
                              "write_text") or (
                name.startswith("save") and isinstance(f, ast.Attribute)
                and getattr(f.value, "id", None) in ("np", "numpy"))
        if writes:
            lines.append(n.lineno)
    return lines


def test_only_fileio_writes_files():
    """Every file the package writes goes through ``fileio.atomic_write``:
    no other module opens a file to write or writes one another way."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                lines = _file_writes(ast.parse(fh.read()))
            assert bool(lines) == (name == "fileio.py"), (name, lines)


def test_file_writes_sees_every_form():
    tree = ast.parse("open(p)\nopen(p, 'rb')\nopen(p, mode='r')\n"
                     "model.save(p)\nnp.load(p)\nf(p).read_bytes()\n"
                     "open(p, 'w')\nopen(p, mode='ab')\nopen(p, 'r+')\n"
                     "open(p, m)\nio.open(p, 'x')\nos.fdopen(fd, 'wb')\n"
                     "np.save(p, a)\nnumpy.savez(p)\na.tofile(p)\n"
                     "Path(p).write_bytes(b)\np.write_text(t)\n")
    assert _file_writes(tree) == list(range(7, 18))


def _json_reads(tree):
    """Line numbers of the calls in ``tree`` that parse JSON themselves:
    ``json.load`` and ``json.loads``, also under a name ``from json
    import`` binds."""
    parsers = ("load", "loads")
    local = {a.asname or a.name for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) and n.module == "json"
             for a in n.names if a.name in parsers}
    lines = []
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        f = n.func
        if (isinstance(f, ast.Attribute) and f.attr in parsers
                and getattr(f.value, "id", None) == "json") or (
                isinstance(f, ast.Name) and f.id in local):
            lines.append(n.lineno)
    return lines


def test_only_fileio_reads_json():
    """Every JSON value the package reads goes through
    ``fileio.read_json``, which names the file in every parse error."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                lines = _json_reads(ast.parse(fh.read()))
            assert bool(lines) == (name == "fileio.py"), (name, lines)


def test_json_reads_sees_every_form():
    tree = ast.parse("json.dumps(x)\nnp.load(p)\nmodel.load(p)\n"
                     "from json import dumps, loads as parse\n"
                     "json.load(fh)\njson.loads(s)\nparse(s)\n")
    assert _json_reads(tree) == [5, 6, 7]


def _spans():
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    """Each (owner, attribute) the tracer rebinds is a function the owner
    itself defines, as ``spans.instrument`` reads it."""
    for owner, attr, _, _ in _spans().TARGETS:
        assert callable(owner.__dict__.get(attr)), (owner, attr)


def test_tracer_sees_the_sampled_walk():
    """A short minvar training at depth 2 reaches the traced sampler and
    forward through their modules: a walk that binds ``plan_probs`` before
    the tracer rebinds it (at import, or as a default argument), or a
    caller that holds ``forward`` so, counts none."""
    spans = _spans()
    g, split = G.synth_graph("interaction", 40, seed=3)
    run = T.TrainRun(arch="sage", hidden=4, depth=2, batch_size=8,
                     max_epochs=1, patience=1, seed=0,
                     plan=S.SamplePlan(strategy="minvar", sample_size=2))
    with spans.instrument(spans.Tracer()) as tracer:
        T.train(g, split, run)
    assert tracer.counts["sampling.plan_probs.calls"] > 0
    summary = tracer.summary()
    assert summary["layers.forward"]["calls"] > 0
    assert summary["sampling.refresh"]["calls"] > 0
