"""Explicit error bounds paired with their empirical counterparts.

Bounds with fully explicit constants (the bridge-based TV bound and the
drift-mismatch Girsanov bound) get pass/fail verdicts against Monte Carlo
estimates; inequalities that carry a generic constant or an unquantified
smallness threshold are evaluated as shape reports only and never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import (_write_csv, fd_bin_edges, grid_from_density, kl,
                      tv_hist_two_samples, tv_hist_vs_density)
from .schedule import NoiseSchedule
from .simulate import (ScoreModel, TrajectoryBatch, _check_schedule,
                       _exact_reverse, _exact_step, _frozen_score, _integrate,
                       _kept_paths, _reverse_grid, reverse_sde)
from .target import GrowthConstants, MixtureTarget, _require_d, default_axis

__all__ = [
    "BoundReport",
    "schrodinger_bound",
    "girsanov_bound",
    "tv_bound_terms",
    "banded_schedule_terms",
    "moment_report",
    "write_bound_reports",
]


@dataclass
class BoundReport:
    name: str
    rhs: float
    lhs: float
    lhs_se: float
    bias_budget: float
    verdict: str
    terms: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


def _schrodinger_rhs(target: MixtureTarget, schedule: NoiseSchedule):
    """The right side of `schrodinger_bound` with its terms and notes; it
    depends on the target and the schedule only."""
    m = schedule.bridge(0.0, 1.0).m
    axis = default_axis(target)
    phi_grid = grid_from_density(lambda x: np.exp(-0.5 * np.sum(x * x, axis=-1))
                                 / (2.0 * math.pi) ** (target.d / 2.0), (axis,))
    p1_grid = grid_from_density(target.marginal_at(schedule, 1.0), (axis,))
    kl_phi_p1, _ = kl(phi_grid, p1_grid)
    ex2 = target.second_moment()
    gauss_term = (m * m + m) / (4.0 * (1.0 - m * m)) * (target.d + ex2)
    radicand = -0.5 * kl_phi_p1 + gauss_term
    notes = {}
    if radicand < 0.0:
        notes["radicand_negative"] = radicand
        radicand = 0.0
    return math.sqrt(radicand), {"kl_phi_p1": kl_phi_p1, "gaussian_term": gauss_term,
                                 "m": m, "second_moment": ex2}, notes


def schrodinger_bound(batch: TrajectoryBatch) -> BoundReport:
    """Bridge-based TV bound on the exact reverse process:

        TV(mu_data, law(X*_1)) <= sqrt( -KL(phi || p_1)/2
            + (m^2 + m)/(4 (1 - m^2)) * (d + E|x0|^2) ),   m = sqrt(abar_n).

    The right side is quadrature plus closed forms; the left side is the
    histogram TV between the data density and the batch's terminal states
    (empirical estimator for d = 1).
    """
    target, schedule = _exact_reverse("schrodinger_bound", batch)
    _require_d("schrodinger_bound", target.d, 1)
    rhs, terms, notes = _schrodinger_rhs(target, schedule)
    keep = _kept_paths("schrodinger_bound", batch.diverged)
    terminal = batch.terminal_states[keep]
    edges = fd_bin_edges(target, terminal.shape[0])
    lhs, se, budget = tv_hist_vs_density(terminal, target, edges)
    verdict = "holds" if lhs <= rhs + 3.0 * se + budget else "violated"
    return BoundReport(name="schrodinger", rhs=rhs, lhs=lhs, lhs_se=se,
                       bias_budget=budget, verdict=verdict, terms=terms, notes=notes)


def girsanov_bound(target: MixtureTarget, schedule: NoiseSchedule,
                   score_model: ScoreModel, paths: int, substeps: int,
                   seed: int) -> BoundReport:
    """Drift-mismatch bound between the frozen-score and exact reverse laws:

        TV(law(Xhat_1), law(X*_1))
            <= 1/2 sqrt( E* int_0^1 beta_{1-t} |kappa(t)|^2 dt ),

    kappa(t) = grad log p_{1-t}(X*_t) - s(1 - tau_n(t), X*_{tau_n(t)}) in the
    piecewise-constant form.  The expectation runs along exact-score paths at
    `substeps` per interval; the frozen-score terminal sample is drawn by
    ddpm_sample's update (one-substep model-mode reverse_sde), which has the
    law of Xhat_1 exactly.  Divergent paths are excluded and counted.
    """
    _require_d("girsanov_bound", target.d, 1)
    _check_schedule(score_model, schedule)
    grid, interval, betas = _reverse_grid(schedule, substeps)
    h = 1.0 / betas.size
    frozen_at = _frozen_score(score_model, interval, substeps)
    acc = np.zeros(paths)

    def observe(k, x, truth, rows):
        kap = truth - frozen_at(k, x)
        acc[rows] += betas[k] * np.sum(kap * kap, axis=-1) * h

    exact = _integrate(seed, paths, grid, target.d,
                       _exact_step(target, schedule, grid, betas, observe),
                       "terminal", "reverse", target, schedule)
    hat = reverse_sde(score_model, schedule, 1, paths, seed,
                      score_mode="model", record="terminal")
    keep = _kept_paths(
        "girsanov_bound", exact.diverged | hat.diverged,
        f" ({int(exact.diverged.sum())} on the exact-score path, "
        f"{int(hat.diverged.sum())} on the frozen-score path)")
    excluded = int(paths - keep.sum())
    mean_k = float(acc[keep].mean())
    se_k = float(acc[keep].std() / math.sqrt(keep.sum()))
    rhs = 0.5 * math.sqrt(mean_k)
    rhs_se = se_k / (4.0 * math.sqrt(mean_k)) if mean_k > 0.0 else 0.0
    edges = fd_bin_edges(target, int(keep.sum()))
    lhs, lhs_se = tv_hist_two_samples(hat.terminal_states[keep],
                                      exact.terminal_states[keep], edges)
    se = math.hypot(lhs_se, rhs_se)
    verdict = "holds" if lhs <= rhs + 3.0 * se else "violated"
    return BoundReport(
        name="girsanov",
        rhs=rhs, lhs=lhs, lhs_se=se, bias_budget=0.0, verdict=verdict,
        terms={"kappa_energy": mean_k, "kappa_energy_se": se_k},
        notes={"excluded_paths": excluded, "paths": paths,
               "substeps": substeps},
    )


def tv_bound_terms(schedule: NoiseSchedule, d: int, loss: float,
                   envelope: GrowthConstants) -> dict:
    """Term breakdown of the headline TV bound (report-only; the overall
    constant is generic):

        T1 = d sqrt(abar_n)
        T2 = sqrt(d) (-n log alpha_min) / abar_n * sqrt(L)
        T3 = d^2 exp(c2/abar_n) n (log alpha_min)^2,  c2 = 12 c0 + 8 c1 + 1.
    """
    if loss < 0.0:
        raise ValueError("loss must be nonnegative")
    abar = schedule.alpha_bar_n
    log_amin = math.log(schedule.alpha_min)
    c2 = 12.0 * envelope.c0 + 8.0 * envelope.c1 + 1.0
    t1 = d * math.sqrt(abar)
    t2 = math.sqrt(d) * (-schedule.n * log_amin) / abar * math.sqrt(loss)
    log_t3 = 2.0 * math.log(d) + c2 / abar + math.log(schedule.n) \
        + 2.0 * math.log(-log_amin)
    try:
        t3 = math.exp(log_t3)
    except OverflowError:
        t3 = math.inf
    composite = math.sqrt(t1 + t2 + t3) if math.isfinite(t3) else math.inf
    return {"c2": c2, "T1": t1, "T2": t2, "T3": t3, "log_T3": log_t3,
            "composite": composite, "alpha_bar_n": abar}


def banded_schedule_terms(n: int, gamma1: float, gamma2: float, d: int,
                     loss: float, eps: float) -> dict:
    """Schedule-band form of the bound terms (report-only):

        d (log log n)^(-gamma1/2)
        + sqrt(d) gamma2 (log log n)^(gamma2+1) sqrt(L)
        + d^2 gamma2^2 n^(-(1-eps)) (log log log n)^2.
    """
    if n < 16:
        raise ValueError("n must be >= 16")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    ll = math.log(math.log(n))
    lll = math.log(ll)
    t1 = d * ll ** (-0.5 * gamma1)
    t2 = math.sqrt(d) * gamma2 * ll ** (gamma2 + 1.0) * math.sqrt(loss)
    t3 = d * d * gamma2 * gamma2 * n ** (-(1.0 - eps)) * lll * lll
    return {"T1": t1, "T2": t2, "T3": t3, "loglog_n": ll, "logloglog_n": lll}


def moment_report(batch: TrajectoryBatch, envelope: GrowthConstants) -> dict:
    """Empirical second/fourth moments of X* along the grid, with the
    bound's shape factor (report-only; constant generic)."""
    keep = _kept_paths("moment_report", batch.diverged)
    states = batch.states[keep]
    sq = np.sum(states**2, axis=-1)
    second = sq.mean(axis=0)
    fourth = (sq**2).mean(axis=0)
    n_paths = states.shape[0]
    abar = batch.schedule.alpha_bar_n
    d = batch.d
    log_shape2 = math.log(d) - 0.5 * math.log(abar) \
        + 2.0 * (envelope.c0 + envelope.c1) / abar
    return {
        "times": batch.times,
        "second_moment": second,
        "second_moment_se": sq.std(axis=0) / math.sqrt(n_paths),
        "fourth_moment": fourth,
        "fourth_moment_se": (sq**2).std(axis=0) / math.sqrt(n_paths),
        "log_bound_shape_second": log_shape2,
        "all_finite": bool(np.all(np.isfinite(fourth))),
    }


def write_bound_reports(path, reports) -> None:
    """CSV with schema bound,term,value,empirical,std_err,verdict; refuses NaN."""
    rows = []
    for rep in reports:
        rows.append((rep.name, "total", rep.rhs, rep.lhs, rep.lhs_se, rep.verdict))
        if rep.bias_budget:
            rows.append((rep.name, "bias_budget", rep.bias_budget, "", "", ""))
        rows += [(rep.name, term, value, "", "", "") for term, value in rep.terms.items()]
    _write_csv(path, "bound,term,value,empirical,std_err,verdict", rows)
