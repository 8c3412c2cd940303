"""Time one set-up of a workload's main job in a fresh interpreter.

Set-up is everything before the first timed call: imports, ``load_graph``,
the split and ``build_model`` (or the kernel stack).  Prints the raw seconds
and the seconds scaled by the median of five reference probes taken right
after the set-up (the array loop; see ``reference.py``).

    python3 perfbench/probe.py <workload> <input dir> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import program  # noqa: E402

program.load()

import jobs  # noqa: E402


def main():
    workload, workdir, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    jobs.WORKLOADS[workload].main.load(workdir, seed)
    seconds = time.perf_counter() - T0
    import statistics

    import reference
    probes = [reference.probe() for _ in range(5)]
    scaled = seconds / statistics.median(probes)
    print("%r %r" % (seconds, scaled))


if __name__ == "__main__":
    main()
