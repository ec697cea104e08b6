"""One benchmark process: set up a workload, then (role "measure") time it.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --role setup|measure --out DIR

Started by bench/run.py with BLAS/OpenMP threads pinned in the environment.
Set-up is the time from the top of this file to the end of one warm-up
iteration: the numpy/scipy/ddpmlab import, building the workload's inputs
and the warm-up.  Prints one JSON object as its last line of output.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MIN_ITERATIONS = 2  # a traced run needs one untraced and one traced iteration


def _parse():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--role", choices=("setup", "measure"), required=True)
    p.add_argument("--out", required=True)
    return p.parse_args()


def _import_package():
    sys.path.insert(0, SRC)
    import ddpmlab

    where = os.path.dirname(os.path.abspath(ddpmlab.__file__))
    if where != os.path.join(SRC, "ddpmlab"):
        raise SystemExit(f"ddpmlab imported from {where}, not from {SRC}")
    return ddpmlab


def _timed_iteration(workload, tracer):
    if tracer is not None:
        tracer.install()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        result = workload.run()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, cpu, workload.check(result)


def main():
    args = _parse()
    _import_package()
    import workloads  # noqa: E402  (needs ddpmlab on the path)

    workload = workloads.make(args.workload, args.seed, args.out)
    workload.warmup()
    setup_s = time.perf_counter() - T_START
    report = {"setup_s": setup_s}
    if args.role == "measure":
        report.update(_measure(workload, args))
    print(json.dumps(report))


def _measure(workload, args):
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    iterations = []
    start = time.perf_counter()
    while True:
        # with tracing, alternate untraced and traced iterations
        traced = tracer is not None and len(iterations) % 2 == 1
        wall, cpu, outcome = _timed_iteration(workload, tracer if traced else None)
        iterations.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                           "ok": outcome.ok, "digest": outcome.digest,
                           "detail": outcome.detail,
                           "bytes_written": outcome.bytes_written})
        typical = statistics.median(it["wall_s"] for it in iterations)
        if (len(iterations) >= MIN_ITERATIONS
                and time.perf_counter() - start + typical > args.seconds):
            break
    report = {
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "path_steps": workload.path_steps(),
        "working_set_bytes": workload.working_set_bytes(),
        "expected_spans": list(workload.expected_spans),
        "versions": _versions(),
    }
    if tracer is not None:
        report["spans"] = {k: list(v) for k, v in tracer.stats.items()}
        report["counts"] = dict(tracer.counts)
    return report


def _versions():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


if __name__ == "__main__":
    main()
