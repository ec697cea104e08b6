"""Configuration-driven experiment runner.

Configs are plain `key = value` text with `#` comments and dotted keys for
nested settings.  Every run echoes the keys its config gave, plus `out` and
any `--seed` override, to config_resolved.txt (defaults are not filled in),
and writes a summary.txt listing each asserted invariant as PASS/FAIL plus
every report-only quantity; the run fails (exit 1) iff any assertion fails.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import fbsde as fbsde_mod
from . import metrics as metrics_mod
from .schedule import (NoiseSchedule, band_check, constant_rate,
                       from_linear_variance, load_schedule)
from .simulate import (ScoreModel, _kept_paths, _shared_noise, ddpm_sample,
                       reverse_sde)
from .target import (MixtureTarget, _require_d, default_axis, gaussian_target,
                     load_target, symmetric_mixture)

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "run", "plotdata"]

# The keys each kind of target and schedule reads; the first kind is the default.
_TARGETS = {"mixture": {"target.separation", "target.weight"},
            "gaussian": {"target.mean", "target.variance"},
            "file": {"target.file"}}
_SCHEDULES = {"linear": {"schedule.n", "schedule.v_start", "schedule.v_end"},
              "constant": {"schedule.n", "schedule.total"},
              "file": {"schedule.file"}}
_BOTH = {"target": _TARGETS, "schedule": _SCHEDULES}
class ConfigError(ValueError):
    pass


@contextmanager
def _as_config_error():
    """Report a library ValueError raised while a run builds its inputs as a
    config error; one raised by a simulation stays a failure of the run."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentConfig:
    experiment: str
    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise ConfigError(f"missing required config key {key!r}")
        return self.values[key]


def _parse_value(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if "," in text:
        return [_parse_value(v) for v in text.split(",")]
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        # a file name stays text, so that "0" names a file, not stdin
        values[key] = val.strip() if key.endswith(".file") else _parse_value(val)
    if "experiment" not in values:
        raise ConfigError("config must set 'experiment'")
    experiment = values["experiment"]
    if not isinstance(experiment, str) or experiment not in _KEYS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    _, own, tables = _KEYS[experiment]
    allowed = own | {"experiment", "seed", "out"}
    kinds = {family: values.get(f"{family}.kind", next(iter(table)))
             for family, table in tables.items()}
    for family, kind in kinds.items():
        if not isinstance(kind, str) or kind not in tables[family]:
            raise ConfigError(f"{family}.kind must be {' or '.join(tables[family])}, "
                              f"got {kind!r}")
        allowed |= {f"{family}.kind"} | tables[family][kind]
    unknown = sorted(set(values) - allowed)
    for key in unknown:
        family = key.partition(".")[0]
        if family in kinds:
            raise ConfigError(f"{key} is not read under {family}.kind = {kinds[family]}")
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return ExperimentConfig(experiment=experiment, values=values)


def _number(cfg: ExperimentConfig, key: str, cast, default=None, low=None,
            below=None):
    """The setting `key` (required without `default`) as a `cast` (int or float)
    value, or as a list of them (one value a list of one) when `default` is a
    list.  Text, a bool, a fractional int, a NaN or infinite float or a list for
    one value is an error, and so is a value below `low` or at or above `below`."""
    value = cfg.require(key) if default is None else cfg.get(key, default)
    many = isinstance(default, list)
    values = value if many and isinstance(value, list) else [value]
    for v in values:
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or (cast is int and isinstance(v, float) and not v.is_integer())):
            raise ConfigError(f"{key} must be {cast.__name__}, got {v!r}")
    try:
        values = [cast(v) for v in values]
    except OverflowError:  # an int literal beyond the largest double
        raise ConfigError(f"{key} must be finite, got an int beyond 1.8e308") from None
    for v in values:
        if cast is float and not math.isfinite(v):
            raise ConfigError(f"{key} must be finite, got {v!r}")
        if (low is not None and v < low) or (below is not None and v >= below):
            span = f">= {low}" if below is None else f"in [{low}, {below})"
            raise ConfigError(f"{key} must be {span}, got {v!r}")
    return values if many else values[0]


def _sweep(cfg, key, cast, default, low=None, why=None):
    """The list setting `key` in ascending order; with `why`, fewer than two
    entries or a repeated one is an error, as the sweep compares neighbours."""
    values = sorted(_number(cfg, key, cast, default, low=low))
    if why and (len(values) < 2 or len(set(values)) < len(values)):
        raise ConfigError(f"{key} needs at least two distinct entries {why}")
    return values


@_as_config_error()
def _build_target(cfg: ExperimentConfig) -> MixtureTarget:
    kind = cfg.get("target.kind", next(iter(_TARGETS)))
    if kind == "file":
        return load_target(cfg.require("target.file"))
    if kind == "gaussian":
        mean = np.array(_number(cfg, "target.mean", float, [0.0]))
        var = _number(cfg, "target.variance", float, 1.0)
        return gaussian_target(mean, np.eye(mean.size) / var)
    return symmetric_mixture(separation=_number(cfg, "target.separation", float, 2.0),
                             weight=_number(cfg, "target.weight", float, 0.5))


@_as_config_error()
def _build_schedule(cfg: ExperimentConfig) -> NoiseSchedule:
    kind = cfg.get("schedule.kind", next(iter(_SCHEDULES)))
    if kind == "file":
        return load_schedule(cfg.require("schedule.file"))
    n = _number(cfg, "schedule.n", int, 100)
    if kind == "constant":
        return constant_rate(n, _number(cfg, "schedule.total", float, 4.0))
    return from_linear_variance(n, _number(cfg, "schedule.v_start", float, 1e-4),
                                _number(cfg, "schedule.v_end", float, 0.02))


class Summary:
    """Collects assertions and report lines for summary.txt."""

    def __init__(self):
        self.lines = []
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        tag = "PASS" if ok else "FAIL"
        if not ok:
            self.failed += 1
        self.lines.append(f"{tag} {name}: {detail}" if detail else f"{tag} {name}")

    def report(self, name: str, detail: str):
        self.lines.append(f"REPORT {name}: {detail}")

    def write(self, path):
        with open(path, "w", newline="\n") as fh:
            for line in self.lines:
                fh.write(line + "\n")
            fh.write("RESULT " + ("FAIL" if self.failed else "PASS") + "\n")


def _echo_config(cfg: ExperimentConfig, out_dir: str):
    with open(os.path.join(out_dir, "config_resolved.txt"), "w", newline="\n") as fh:
        for key in sorted(cfg.values):
            val = cfg.values[key]
            if isinstance(val, list):
                val = ",".join(str(v) for v in val)
            fh.write(f"{key} = {val}\n")


def _sizes(cfg, *keys):
    """The integer settings `keys` among paths, substeps and seed: the counts
    at least 1, the seed a 64-bit Philox key word."""
    ranges = {"paths": (20000, 1, None), "substeps": (2, 1, None),
              "seed": (7, 0, 2**64)}
    return [_number(cfg, key, int, *ranges[key]) for key in keys]


def _run_schedule_audit(cfg, out_dir, summary):
    schedule = _build_schedule(cfg)
    gamma1 = _number(cfg, "gamma1", float)
    gamma2 = _number(cfg, "gamma2", float)
    expect = cfg.get("expect", "pass")
    if expect not in ("pass", "fail"):
        raise ConfigError(f"expect must be pass or fail, got {expect!r}")
    with _as_config_error():
        result = band_check(schedule, gamma1, gamma2)
    rows = [("band_lower_margin", result.worst_lower_index,
             result.lower_margin, 0.0, schedule.n),
            ("band_upper_margin", result.worst_upper_index,
             result.upper_margin, 0.0, schedule.n),
            ("log_log_log_n", 0, result.l3, 0.0, schedule.n)]
    metrics_mod.write_metric_report(os.path.join(out_dir, "band_margins.csv"), rows)
    summary.report("band", f"ok={result.ok} tightest_slack={result.tightest_slack:.6g}")
    summary.check("band_expectation",
                  result.ok == (expect == "pass"),
                  f"expected {expect}, got {'pass' if result.ok else 'fail'}")


def _run_identity(cfg, out_dir, summary):
    target, schedule = _build_target(cfg), _build_schedule(cfg)
    [seed] = _sizes(cfg, "seed")
    samples = _number(cfg, "samples", int, 100000, low=10)  # score_loss reads a tenth
    bias = _number(cfg, "bias", float, 1.0)
    rel_tol = _number(cfg, "rel_tol", float, 0.02)
    model = ScoreModel(target, schedule, mode="perturbed", bias=bias)
    report = metrics_mod.denoise_identity_check(model, samples, seed)
    loss = metrics_mod.score_loss(model, samples // 10, seed)
    rows = [("identity_gap", i + 1, report.per_step_gap[i],
             report.per_step_se[i], report.samples)
            for i in range(schedule.n)]
    rows.append(("pooled_gap", 0, report.pooled_gap, report.pooled_gap_se,
                 report.samples))
    rows.append(("pooled_lhs", 0, report.pooled_lhs, 0.0, report.samples))
    metrics_mod.write_metric_report(os.path.join(out_dir, "identity_report.csv"), rows)
    loss_rows = [("score_loss", 0, loss.loss, loss.std_err, loss.samples)]
    metrics_mod.write_metric_report(os.path.join(out_dir, "loss_report.csv"), loss_rows)
    summary.report("identity", f"pooled_rel_gap={report.pooled_relative_gap:.6g} "
                               f"max_step_z={report.max_step_z:.3f}")
    summary.check("identity_pooled", report.pooled_relative_gap <= rel_tol,
                  f"rel_gap={report.pooled_relative_gap:.6g} tol={rel_tol}")
    summary.check("identity_per_step", report.max_step_z <= 3.0,
                  f"max_z={report.max_step_z:.3f}")
    summary.check("loss_matches_bias", abs(loss.loss - bias * bias * target.d)
                  <= 3.0 * loss.std_err + 1e-12,
                  f"loss={loss.loss:.6g} expected={bias * bias * target.d:.6g}")


def _run_fbsde(cfg, out_dir, summary):
    target, schedule = _build_target(cfg), _build_schedule(cfg)
    paths, substeps, seed = _sizes(cfg, "paths", "substeps", "seed")
    t_index = _number(cfg, "t_index", int, 0, low=0, below=schedule.n * substeps)
    least = fbsde_mod._REGRESSION_PATHS
    if not fbsde_mod._gaussian_oracle(target) and paths < least:
        raise ConfigError(f"regression mode needs at least {least} paths")
    batch = reverse_sde(target, schedule, substeps, paths, seed)
    both = fbsde_mod.bsde_residual_both(batch, t_index)
    rows = [(t_index, batch.times[t_index], s.drift_sign, s.rms, s.max,
             s.paths, s.substeps) for s in both.values()]
    metrics_mod._write_csv(os.path.join(out_dir, "bsde_residuals.csv"),
                           "t_index,t,sign,rms,max,paths,substeps", rows)
    adjudicated = both[fbsde_mod.ADJUDICATED_DRIFT_SIGN]
    opposite = both[-fbsde_mod.ADJUDICATED_DRIFT_SIGN]
    summary.report("bsde", f"rms[{adjudicated.drift_sign:+d}]={adjudicated.rms:.6g} "
                           f"rms[{opposite.drift_sign:+d}]={opposite.rms:.6g}")
    summary.check("bsde_sign_separation", opposite.rms >= 10.0 * adjudicated.rms,
                  f"ratio={opposite.rms / max(adjudicated.rms, 1e-300):.3g}")
    y_index = (batch.times.size - 1) // 2
    yast = fbsde_mod.yast_check(batch, y_index)
    yrows = [("yast_rms", y_index, yast.rms, 0.0, yast.paths),
             ("yast_rel_rms", y_index, yast.rms_relative, 0.0, yast.paths),
             ("yast_tower_gap", y_index, yast.tower_gap, yast.tower_se, yast.paths)]
    metrics_mod.write_metric_report(os.path.join(out_dir, "yast_report.csv"), yrows)
    if yast.mode == "gaussian":
        summary.check("yast_rms", yast.rms <= 0.05, f"rms={yast.rms:.6g}")
    else:
        summary.check("yast_rel_rms", yast.rms_relative <= 0.10,
                      f"rel={yast.rms_relative:.6g}")


@_as_config_error()
def _pde_residuals(cfg, target, schedule):
    """The grid size and pde_residual's (max, rms, max |u|) for each drift
    sign, at the config's t and grid."""
    _require_d(cfg.experiment, target.d, 1)
    t = _number(cfg, "t", float, 0.3)
    pts = default_axis(target, _number(cfg, "grid", int, 2001))[:, None]
    return pts.shape[0], {sign: fbsde_mod.pde_residual(target, schedule, t, pts, sign)
                          for sign in (-1, 1)}


def _run_pde(cfg, out_dir, summary):
    target, schedule = _build_target(cfg), _build_schedule(cfg)
    size, res = _pde_residuals(cfg, target, schedule)
    rows = [(f"pde_{stat}_sign{sign:+d}", 0, res[sign][j], 0.0, size)
            for sign in (-1, 1) for j, stat in ((0, "max"), (1, "rms"))]
    metrics_mod.write_metric_report(os.path.join(out_dir, "pde_residuals.csv"), rows)
    adj = fbsde_mod.ADJUDICATED_DRIFT_SIGN
    umax = res[adj][2]
    summary.report("pde", f"max[{adj:+d}]={res[adj][0]:.3g} "
                          f"max[{-adj:+d}]={res[-adj][0]:.3g} max|u|={umax:.3g}")
    summary.check("pde_adjudicated", res[adj][0] <= 1e-5 * umax)
    summary.check("pde_opposite", res[-adj][0] >= 1e-2 * umax)


def _run_sign_adjudication(cfg, out_dir, summary):
    target, schedule = _build_target(cfg), _build_schedule(cfg)
    [seed] = _sizes(cfg, "seed")
    # not _sizes' 20000 paths: each walks up to 1024 substeps of every step
    paths = _number(cfg, "paths", int, 256, low=1)
    subs = _sweep(cfg, "substeps_list", int, [128, 256, 512, 1024], low=1,
                  why="to check refinement")
    # an index on the coarsest grid, so that every count starts at one time
    t_index = _number(cfg, "t_index", int, 0, low=0, below=schedule.n * subs[0])
    for s_count in subs[1:]:
        if t_index * s_count % subs[0]:
            raise ConfigError(f"t_index {t_index} on the {subs[0]}-substep grid is "
                              f"{t_index * s_count / subs[0]:g} on the {s_count}-substep "
                              f"grid, not a point of it")
    size, pde = _pde_residuals(cfg, target, schedule)
    # longest first, so the run memo holds the one noise block whose prefixes
    # serve every shorter batch
    residuals = []
    for s_count in reversed(subs):
        batch = reverse_sde(target, schedule, s_count, paths, seed)
        start = t_index * s_count // subs[0]
        residuals.append((batch.times[start],
                          fbsde_mod.bsde_residual_both(batch, start)))
    rows = []
    curves = {-1: [], 1: []}
    for t, both in reversed(residuals):
        for sign in (-1, 1):
            st = both[sign]
            curves[sign].append(st.rms)
            rows.append((st.t_index, t, sign, st.rms, st.max, st.paths, st.substeps))
    metrics_mod._write_csv(os.path.join(out_dir, "bsde_residuals.csv"),
                           "t_index,t,sign,rms,max,paths,substeps", rows)
    vanish = -1 if curves[-1][-1] < curves[1][-1] else 1
    factors = [b / a for a, b in zip(curves[vanish], curves[vanish][1:])]
    summary.report("bsde_vanishing_sign", f"{vanish:+d}")
    summary.report("bsde_rms_curve_vanishing",
                   " ".join(f"{v:.6g}" for v in curves[vanish]))
    summary.report("bsde_rms_curve_opposite",
                   " ".join(f"{v:.6g}" for v in curves[-vanish]))
    summary.report("bsde_doubling_factors", " ".join(f"{f:.4f}" for f in factors))
    summary.check("bsde_sign_separation",
                  curves[-vanish][-1] >= 10.0 * curves[vanish][-1],
                  f"ratio={curves[-vanish][-1] / max(curves[vanish][-1], 1e-300):.3g}")
    summary.check("bsde_residual_shrinks", all(f < 1.0 for f in factors),
                  "adjudicated-sign rms decreases under refinement")
    metrics_mod.write_metric_report(
        os.path.join(out_dir, "pde_residuals.csv"),
        [(f"pde_max_sign{sign:+d}", 0, pde[sign][0], 0.0, size) for sign in (-1, 1)])
    pde_vanish = -1 if pde[-1][0] < pde[1][0] else 1
    summary.report("pde_vanishing_sign", f"{pde_vanish:+d}")
    summary.check("signs_agree", vanish == pde_vanish,
                  f"bsde={vanish:+d} pde={pde_vanish:+d}")
    summary.check("adjudicated_is_default",
                  vanish == fbsde_mod.ADJUDICATED_DRIFT_SIGN,
                  "numerically vanishing sign matches the recorded default")


def _run_tv_pipeline(cfg, out_dir, summary):
    target, schedule = _build_target(cfg), _build_schedule(cfg)
    paths, substeps, seed = _sizes(cfg, "paths", "substeps", "seed")
    biases = _sweep(cfg, "biases", float, [0.0, 0.25, 0.5, 1.0])
    samples = _number(cfg, "samples", int, 20000, low=1)
    edges = metrics_mod.fd_bin_edges(target, paths)
    # drawn first, its noise block is the longest; every later batch is a prefix
    exact_batch = reverse_sde(target, schedule, substeps, paths, seed,
                              record="terminal")
    reports = []
    tv_rows = []
    tvs, losses = [], []
    for b in biases:
        model = ScoreModel(target, schedule, mode="perturbed", bias=b)
        batch = ddpm_sample(model, schedule, paths, seed, record="terminal")
        keep = _kept_paths(f"tv-pipeline ddpm_sample at bias {b:g}", batch.diverged)
        value, se, budget = metrics_mod.tv_hist_vs_density(
            batch.terminal_states[keep], target, edges)
        tvs.append((value, se))
        tv_rows.append((f"ddpm_tv_bias{b:g}", 0, value, se, int(keep.sum())))
        loss = metrics_mod.score_loss(model, samples, seed)
        losses.append(loss)
        tv_rows.append((f"score_loss_bias{b:g}", 0, loss.loss, loss.std_err,
                        loss.samples))
        gb = bounds_mod.girsanov_bound(target, schedule, model, paths,
                                       substeps, seed)
        gb.name = f"girsanov_bias{b:g}"
        reports.append(gb)
        summary.check(f"girsanov_holds_bias{b:g}", gb.verdict == "holds",
                      f"lhs={gb.lhs:.6g} rhs={gb.rhs:.6g}")
    sb = bounds_mod.schrodinger_bound(exact_batch)
    reports.append(sb)
    summary.check("schrodinger_holds", sb.verdict == "holds",
                  f"lhs={sb.lhs:.6g} rhs={sb.rhs:.6g} budget={sb.bias_budget:.3g}")
    for i in range(len(biases) - 1):
        lo, hi = tvs[i], tvs[i + 1]
        summary.check(f"tv_monotone_{biases[i]:g}_to_{biases[i + 1]:g}",
                      hi[0] >= lo[0] - 3.0 * math.hypot(lo[1], hi[1]),
                      f"tv({biases[i]:g})={lo[0]:.4g} tv({biases[i + 1]:g})={hi[0]:.4g}")
    for b, loss in zip(biases, losses):
        summary.check(f"loss_tracks_bias{b:g}",
                      abs(loss.loss - b * b * target.d)
                      <= 3.0 * loss.std_err + 1e-12,
                      f"L={loss.loss:.6g} b^2={b * b * target.d:.6g}")
    bounds_mod.write_bound_reports(os.path.join(out_dir, "bounds.csv"), reports)
    metrics_mod.write_metric_report(os.path.join(out_dir, "tv_report.csv"), tv_rows)


def _rank_correlation(a, b):
    """Spearman's rho, equal to the bit to `spearmanr(a, b).statistic`: Pearson's r
    of the average ranks stacked as columns; NaN for a NaN or constant input."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if np.isnan([a, b]).any():
        return math.nan
    ra, rb = (np.sum(x[:, None] > x, 1) + (np.sum(x[:, None] == x, 1) + 1) / 2
              for x in (a, b))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(np.column_stack((ra, rb)), rowvar=False)[1, 0])


def _run_bounds_sweep(cfg, out_dir, summary):
    target = _build_target(cfg)
    paths, seed = _sizes(cfg, "paths", "seed")
    n_list = _sweep(cfg, "n_list", int, [10, 50, 100, 500],
                    why="for the rank correlation")
    total = _number(cfg, "schedule.total", float, 4.0)
    totals = _sweep(cfg, "totals", float, [])
    with _as_config_error():
        schedules = [constant_rate(n, total) for n in n_list]
        rhs_schedules = [constant_rate(n_list[-1], tot) for tot in totals]
    envelope = target.growth_constants()
    edges = metrics_mod.fd_bin_edges(target, paths)
    rows = []
    tvs, composites = [], []
    for n, schedule in zip(n_list, schedules):
        model = ScoreModel(target, schedule, mode="exact")
        batch = ddpm_sample(model, schedule, paths, seed, record="terminal")
        keep = _kept_paths(f"bounds-sweep ddpm_sample at n = {n}", batch.diverged)
        value, se, _ = metrics_mod.tv_hist_vs_density(
            batch.terminal_states[keep], target, edges)
        terms = bounds_mod.tv_bound_terms(schedule, target.d, 0.0, envelope)
        # T3's exp(c2/abar) factor overflows for realistic constants, so the
        # composite is ranked and reported in log space
        log_comp = float(np.logaddexp(math.log(terms["T1"]), terms["log_T3"]))
        tvs.append((value, se))
        composites.append(log_comp)
        rows.append((f"ddpm_tv_n{n}", n, value, se, int(keep.sum())))
        rows.append((f"log_composite_T1_T3_n{n}", n, log_comp, 0.0, paths))
    metrics_mod.write_metric_report(os.path.join(out_dir, "sweep.csv"), rows)
    for i in range(len(n_list) - 1):
        lo, hi = tvs[i], tvs[i + 1]
        summary.check(f"tv_nonincreasing_n{n_list[i]}_to_n{n_list[i + 1]}",
                      hi[0] <= lo[0] + 3.0 * math.hypot(lo[1], hi[1]),
                      f"tv={lo[0]:.4g} -> {hi[0]:.4g}")
    rho = _rank_correlation([-c for c in composites], [-t for t, _ in tvs])
    summary.report("rank_correlation_composite_vs_tv", f"{rho:.4f}")
    summary.check("rank_correlation", rho >= 0.9, f"rho={rho:.4f}")
    if totals:
        rhs_values = []
        for tot, rhs_schedule in zip(totals, rhs_schedules):
            rhs, _, _ = bounds_mod._schrodinger_rhs(target, rhs_schedule)
            rhs_values.append(rhs)
            summary.report(f"schrodinger_rhs_total{tot:g}", f"{rhs:.6g}")
        summary.check("schrodinger_rhs_monotone",
                      all(b <= a + 1e-12 for a, b in zip(rhs_values, rhs_values[1:])),
                      "rhs nonincreasing in -log alpha_bar_n")


# Each experiment's runner, its own keys and the kinds of target and schedule
# it builds; every run also takes experiment, seed and out.
_KEYS = {
    "schedule-audit": (_run_schedule_audit, {"gamma1", "gamma2", "expect"},
                       {"schedule": _SCHEDULES}),
    "identity": (_run_identity, {"bias", "samples", "rel_tol"}, _BOTH),
    "fbsde": (_run_fbsde, {"paths", "substeps", "t_index"}, _BOTH),
    "pde": (_run_pde, {"t", "grid"}, _BOTH),
    "sign-adjudication": (_run_sign_adjudication,
                          {"paths", "substeps_list", "t_index", "t", "grid"}, _BOTH),
    "tv-pipeline": (_run_tv_pipeline, {"paths", "substeps", "biases", "samples"}, _BOTH),
    # sweeps constant-rate schedules only: n comes from n_list
    "bounds-sweep": (_run_bounds_sweep, {"paths", "n_list", "totals"},
                     {"target": _TARGETS, "schedule": {"constant": {"schedule.total"}}}),
}


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Execute a parsed config; returns the process exit status (0/1).  The
    run's batches share their noise blocks (`simulate._shared_noise`).  The
    seed is checked here for every experiment, read or not."""
    _sizes(cfg, "seed")
    out_dir = out_dir or cfg.get("out", "out")
    os.makedirs(out_dir, exist_ok=True)
    cfg.values["out"] = out_dir
    _echo_config(cfg, out_dir)
    summary = Summary()
    with _shared_noise():
        _KEYS[cfg.experiment][0](cfg, out_dir, summary)
    summary.write(os.path.join(out_dir, "summary.txt"))
    return 1 if summary.failed else 0


def plotdata(report_path: str, out_path: str) -> None:
    """Convert a report CSV into gnuplot-ready column data.

    Residual reports become (substeps, rms) blocks per sign; metric reports
    become (i_or_t, value, std_err) rows; bound reports become a (row, rhs)
    block and a (row, lhs, std_err) block.  Blocks are blank-line separated.
    """
    with open(report_path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        with open(out_path, "w", newline="\n"):
            pass
        return
    header = lines[0]
    rows = [ln.split(",") for ln in lines[1:]]
    out = []
    if header.startswith("t_index,t,sign,rms"):
        by_sign = {}
        for r in rows:
            by_sign.setdefault(r[2], []).append((float(r[6]), float(r[3])))
        for sign in sorted(by_sign):
            out.append(f"# sign {sign}")
            for sub, rms in sorted(by_sign[sign]):
                if math.isfinite(sub) and math.isfinite(rms):
                    out.append(f"{sub:.17g} {rms:.17g}")
            out.append("")
    elif header.startswith("name,i_or_t,value"):
        for r in rows:
            v, se = float(r[2]), float(r[3])
            if math.isfinite(v) and math.isfinite(se):
                out.append(f"{r[1]} {v:.17g} {se:.17g}")
    elif header.startswith("bound,term,value,empirical"):
        totals = [r for r in rows if r[1] == "total"]
        out.append("# rhs")
        for i, r in enumerate(totals):
            out.append(f"{i} {float(r[2]):.17g}")
        out.append("")
        out.append("# empirical lhs with std err")
        for i, r in enumerate(totals):
            out.append(f"{i} {float(r[3]):.17g} {float(r[4]):.17g}")
    else:
        raise ValueError("unrecognized report schema (missing columns)")
    with open(out_path, "w", newline="\n") as fh:
        for line in out:
            fh.write(line + "\n")
