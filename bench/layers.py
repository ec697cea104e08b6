"""Per-layer metrics from a traced run, and the guard against silent gaps.

Values are per traced iteration.  A layer is named by the ddpmlab module
that owns it; self time excludes the spans the layer calls into, and noise
construction and draws are charged to simulate.noise, not to their caller.
"""

import statistics

SELF_TIMED = (
    "target.posterior_weights", "target.score", "target.hessian_log",
    "target.marginal_at", "schedule.bridge",
    "simulate.forward_chain", "simulate.ddpm_sample", "simulate.reverse_sde",
    "fbsde.bsde_residual_both", "fbsde.pde_residual",
    "metrics.score_loss", "metrics.fd_bin_edges", "metrics.tv_hist",
    "target.cdf_1d", "bounds.girsanov_bound", "bounds.schrodinger_bound",
    "experiments.run",
)


def per_layer_metrics(report, traced, untraced_wall):
    """Return ({name: {"value", "unit"}}, [gap descriptions])."""
    n = len(traced)
    spans = report["spans"]
    counts = report["counts"]

    def span(name):
        calls, total, self_s = spans.get(name, (0, 0.0, 0.0))
        return calls / n, total / n, self_s / n

    def count(name):
        return counts.get(name, 0.0) / n

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in SELF_TIMED:
        put(f"{name}.self_s", span(name)[2], "s")
    points = count("target.posterior_weights.points")
    put("target.posterior_weights.points", points, "count")
    put("target.posterior_weights.ns_per_point",
        ratio(span("target.posterior_weights")[2], points, 1e9), "ns")
    calls, total, _ = span("target.marginal_at")
    put("target.marginal_at.calls", calls, "count")
    put("target.marginal_at.us_per_call", ratio(total, calls, 1e6), "us")
    put("schedule.bridge.calls", span("schedule.bridge")[0], "count")

    build, draw = count("noise.build_s"), count("noise.draw_s")
    put("simulate.noise.generators", count("noise.generators"), "count")
    put("simulate.noise.normals", count("noise.normals"), "count")
    put("simulate.noise.build_s", build, "s")
    put("simulate.noise.draw_s", draw, "s")
    put("simulate.noise.us_per_path_step",
        ratio(build + draw, count("noise.rows"), 1e6), "us")
    put("simulate.path_steps", count("simulate.path_steps"), "count")
    put("simulate.diverged_paths", count("simulate.diverged_paths"), "count")
    put("simulate.state_bytes", count("simulate.state_bytes"), "B")
    put("experiments.bytes_written",
        sum(it["bytes_written"] for it in traced) / n, "B")
    traced_wall = statistics.median(it["wall_s"] for it in traced)
    put("trace.overhead_ratio", traced_wall / untraced_wall - 1.0, "ratio")

    gaps = []
    for name in report["expected_spans"]:
        seen = count("noise.generators") if name == "simulate.noise" else span(name)[0]
        if not seen:
            gaps.append(f"span {name} recorded no calls")
    if out["simulate.path_steps"]["value"] != report["path_steps"]:
        gaps.append(f"traced simulate.path_steps {out['simulate.path_steps']['value']:g}"
                    f" != computed {report['path_steps']}")
    return out, gaps
