"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The workload's inputs are made from
``--seed``; set-up is timed in fresh interpreters; then the main job's timed
unit repeats while another unit fits in ``--seconds``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, in scaled seconds where they are
times (``reference.py``), ``--trace 1`` runs one untraced unit
and then traced units, and reports the per-layer metrics.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Results, the environment and the spans go to
``.perfbench/`` in the checkout.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import program

SETUP_PROBES = 5
EXACT_UNITS = ("count", "ratio")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def read_spec():
    with open(os.path.join(program.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit(root):
    """HEAD's commit id when the checkout is a git work tree, else None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def code_fingerprint():
    """Hash of the program's and the benchmark's sources."""
    h = hashlib.sha256()
    for d in (os.path.join(program.SRC, "lase"), os.path.dirname(__file__)):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "commit": git_commit(program.ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {v: os.environ[v] for v in program.BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def time_setup(workload, workdir, seed):
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, probe, workload, workdir, str(seed)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        raw, scaled = done.stdout.strip().splitlines()[-1].split()
        times.append((float(raw), float(scaled)))
    return times


def median_wall(units):
    return statistics.median(u.wall for u in units)


def fresh_unit(job, state, clock):
    """One unit, started from a fresh collector state so that the cyclic
    garbage of earlier units is not collected, and timed, inside it."""
    gc.collect()
    return job.unit(state, clock)


def run_untraced(workload, main_state, side_state, deadline, clock):
    """Main units while another fits, side units interleaved and filling the
    rest, so both sample the whole run.  Peak RSS is read after the first
    main unit, before any side unit."""
    main_job, side_job = workload.main, workload.side
    units = [fresh_unit(main_job, main_state, clock)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    side_units = []
    while True:
        side_units.append(fresh_unit(side_job, side_state, clock))
        now = time.perf_counter()
        side_wall = median_wall(side_units)
        if now + median_wall(units) + side_wall <= deadline:
            units.append(fresh_unit(main_job, main_state, clock))
        elif (now + side_wall > deadline
              and len(side_units) >= workload.min_side_units):
            return units, side_units, peak_rss_mb


def run_traced(main_job, state, deadline, tracers):
    """Traced main units while another fits; at least one."""
    import reference
    import spans
    units = []
    while True:
        tracer = spans.Tracer()
        gc.collect()
        with spans.instrument(tracer):
            units.append(main_job.unit(state, reference.Clock(False)))
        tracers.append(tracer)
        if time.perf_counter() + median_wall(units) > deadline:
            return units


class Checks:
    """Attempted operations, failures and consistency errors of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.inconsistent = []

    def add(self, attempted, failures):
        self.attempted += attempted
        self.failures.extend(failures)

    def units(self, units, what):
        for u in units:
            self.add(u.attempted, u.failures)
        if any(u.fingerprint != units[0].fingerprint for u in units[1:]):
            self.inconsistent.append("%s: repeated units gave different "
                                     "results" % what)


def layer_metrics(tracers, units, untraced, spec_names):
    """Per-layer metrics of the traced units: median times, exact counts."""
    per_unit = []
    for tracer, u in zip(tracers, units):
        summary = tracer.summary()
        m = {}
        for name, s in summary.items():
            m[name + ".self_s"] = s["self_s"]
            m[name + ".calls"] = s["calls"]
        m["training.train.s"] = summary.get("training.train", {}).get("s", 0.0)
        m.update(tracer.counts)
        batches = summary.get("autodiff.backward", {}).get("calls", 0)
        m["autodiff.tape_ops_per_batch"] = (
            m.get("autodiff.tape_ops", 0) / batches if batches else 0.0)
        calls = m.get("sampling.plan_probs.calls", 0)
        m["sampling.fallback_ratio"] = (
            m.get("sampling.fallbacks", 0) / calls if calls else 0.0)
        m["sampling.refresh_work"] = u.values.get("refresh_work", 0)
        per_unit.append(m)
    out = {}
    for name, unit in spec_names.items():
        if unit == "s":
            out[name] = statistics.median(m.get(name, 0.0) for m in per_unit)
        else:
            out[name] = per_unit[0].get(name, 0)
    out["trace.overhead_s"] = median_wall(units) - untraced.wall
    return out, per_unit


def check_exact(per_unit, spec_names, key, checks):
    """Exact counts must repeat across traced units and across runs."""
    exact = {n: per_unit[0].get(n, 0) for n, unit in spec_names.items()
             if unit in EXACT_UNITS}
    for m in per_unit[1:]:
        other = {n: m.get(n, 0) for n in exact}
        if other != exact:
            checks.inconsistent.append("exact counts differ between traced "
                                       "units: %r vs %r" % (exact, other))
    path = os.path.join(program.OUT, "counts-%s.json" % key)
    fingerprint = code_fingerprint()
    try:
        with open(path, encoding="utf-8") as fh:
            before = json.load(fh)
    except FileNotFoundError:
        before = None
    if before is not None and before["code"] == fingerprint:
        if before["counts"] != exact:
            checks.inconsistent.append("exact counts differ from an earlier "
                                       "run of the same code and seed: %r vs %r"
                                       % (before["counts"], exact))
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"code": fingerprint, "counts": exact}, fh, sort_keys=True)


def main(argv=None):
    args = parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    program.load()
    import numpy as np
    import jobs
    import reference
    import spans

    spec = read_spec()
    workload = jobs.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit("unknown workload %r; known: %s"
                         % (args.workload, ", ".join(jobs.WORKLOADS)))
    env = environment(np)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    os.makedirs(program.OUT, exist_ok=True)
    main_job, side_job = workload.main, workload.side
    checks = Checks()
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    with tempfile.TemporaryDirectory(dir=program.OUT) as workdir:
        main_job.write_inputs(workdir, args.seed)
        if args.trace:
            load_tracer = spans.Tracer()
            with spans.instrument(load_tracer):
                state = main_job.load(workdir, args.seed)
            untraced = fresh_unit(main_job, state, reference.Clock(False))
            tracers = []
            units = run_traced(main_job, state, deadline, tracers)
            checks.units([untraced] + units, main_job.name)
        else:
            side_job.write_inputs(workdir, args.seed)
            setup = time_setup(args.workload, workdir, args.seed)
            state = main_job.load(workdir, args.seed)
            side_state = side_job.load(workdir, args.seed)
            clock = reference.Clock()
            units, side_units, peak_rss_mb = run_untraced(
                workload, state, side_state, deadline, clock)
            checks.units(units, main_job.name)
            checks.units(side_units, side_job.name)
            checks.add(*side_job.gates(side_state, args.seed))
        checks.add(*main_job.gates(state, args.seed))

    if args.trace:
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, per_unit = layer_metrics(tracers, units, untraced, declared)
        load = load_tracer.summary().get("graph.load_graph", {})
        metrics["graph.load_graph.s"] = load.get("s", 0.0)
        metrics["graph.arcs"] = load_tracer.counts["graph.arcs"]
        check_exact(per_unit, declared, "%s-%d" % (args.workload, args.seed),
                    checks)
        spans.dump(os.path.join(program.OUT, "trace-%s-%d.json"
                                % (args.workload, args.seed)),
                   {"env": env, "load": load_tracer.to_json(),
                    "units": [t.to_json() for t in tracers]})
    else:
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {"setup_s": statistics.median(s for _, s in setup),
                   "peak_rss_mb": peak_rss_mb}
        detail["samples"] = {"setup_s": len(setup)}
        detail["raw"] = {"setup_s": statistics.median(r for r, _ in setup)}
        for job, job_units in ((main_job, units), (side_job, side_units)):
            values, samples, raw = job.metrics(job_units)
            metrics.update(values)
            detail["samples"].update(samples)
            detail["raw"].update(raw)
        detail["setup_s"] = setup
        detail["reference_probes"] = {
            "count": len(clock.probes),
            "median_ratio": statistics.median(clock.probes),
            "min_ratio": min(clock.probes), "max_ratio": max(clock.probes)}
        detail["unit_values"] = {main_job.name: [u.values for u in units],
                                 side_job.name: [u.values for u in side_units]}

    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise RuntimeError("metrics not measured: %s" % ", ".join(missing))
    detail["units"] = len(units)
    detail["failures"] = checks.failures[:20]
    detail["inconsistent"] = checks.inconsistent
    for line in checks.failures[:20] + checks.inconsistent:
        print("CHECK FAILED: " + line, file=sys.stderr)
    failed = len(checks.failures)
    result = {
        "correct": failed == 0 and not checks.inconsistent,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": declared[n]}
                    for n in declared},
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    with open(os.path.join(program.OUT, "result-%s-%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "detail": detail, "result": result}, fh,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
