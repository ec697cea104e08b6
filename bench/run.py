"""ddpmlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see bench/workloads.py):
tv_pipeline, sign_adjudication, pathwise_3d.  The run starts SETUPS worker
processes one after another, each a single process with BLAS/OpenMP threads
pinned to THREADS.  Every worker times its own set-up; the last one then
measures iterations for about S seconds (at least two).

--trace 0 reports the end-to-end metrics:
  wall_s            median wall time of one iteration
  path_steps_per_s  simulated path-steps per second at that median
  setup_s           median set-up time over the SETUPS workers
  peak_rss_mb       peak resident memory of the measuring worker
Iterations whose checks fail count in `failed`; failed/attempted is the
failed ratio.  --trace 1 alternates untraced and traced iterations and
reports the per-layer split instead (see bench/README.md).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exits 2 without a result when the source
tree is missing and 1 when a worker fails.
"""

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

from layers import per_layer_metrics  # noqa: E402

WORKLOADS = ("tv_pipeline", "sign_adjudication", "pathwise_3d")
SETUPS = 3
THREADS = 1
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def _worker_env():
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _run_worker(args, role, index, deadline):
    out = os.path.join(ROOT, ".bench_out", f"{args.workload}-{index}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--role", role, "--out", out]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the measuring worker started")
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {index} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def _cache_bytes(level):
    """L2/L3 size from glibc sysconf (Python's os.sysconf lacks the names)."""
    name = {2: 191, 3: 194}[level]  # _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return 0
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    return max(0, libc.sysconf(name))


def _context(args, report):
    working_set = report["working_set_bytes"]
    l2, l3 = _cache_bytes(2), _cache_bytes(3)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "threads_pinned": THREADS, "setups": SETUPS,
        **report["versions"], "machine": platform.machine(),
        "l2_bytes": l2, "l3_bytes": l3,
        "working_set_bytes": working_set,
        "working_set_over_l3": round(working_set / l3, 3) if l3 > 0 else None,
    }


def main():
    args = _parse()
    if not os.path.isfile(os.path.join(ROOT, "src", "ddpmlab", "__init__.py")):
        print(f"error: no ddpmlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_run_worker(args, "setup", i, deadline)["setup_s"]
                  for i in range(SETUPS - 1)]
        report = _run_worker(args, "measure", SETUPS - 1, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])

    iterations = report["iterations"]
    reference = iterations[0]["digest"]
    failures = {}
    for i, it in enumerate(iterations):
        if not it["ok"]:
            failures[i] = f"check failed: {it['detail']}"
        elif it["digest"] != reference:
            failures[i] = "outputs differ from iteration 0"
    wall = statistics.median(it["wall_s"] for it in iterations if not it["traced"])

    print("# context " + json.dumps(_context(args, report)))
    for i, it in enumerate(iterations):
        print(f"# iteration {i} traced={int(it['traced'])} wall_s={it['wall_s']:.4f} "
              f"cpu_s={it['cpu_s']:.4f} ok={it['ok']} {it['detail']}")
    print(f"# setup_s each: {' '.join(f'{s:.4f}' for s in setups)}")

    if args.trace:
        traced = [it for it in iterations if it["traced"]]
        metrics, gaps = per_layer_metrics(report, traced, wall)
        if gaps:
            # an incomplete trace fails every traced iteration
            for i, it in enumerate(iterations):
                if it["traced"]:
                    failures.setdefault(i, "; ".join(gaps))
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "path_steps_per_s": {"value": report["path_steps"] / wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    failed = len(failures)
    for i, reason in sorted(failures.items()):
        print(f"# FAIL iteration {i}: {reason}", file=sys.stderr)
    print(f"# failed_ratio {failed}/{len(iterations)} = {failed / len(iterations):.4f}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(iterations),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
