"""Distribution distances and score-matching diagnostics.

Total variation follows the halved-integral convention tv = 1/2 int |p - q|
throughout; the sup-over-test-functions definition equals twice this value.
Grid quadrature is plain rectangle rule on uniform axes, which is ample for
the smooth densities this package evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule
from .simulate import ScoreModel, _draw_block
from .target import (GaussianMixtureDensity, GrowthConstants, MixtureTarget,
                     _grid_points, _require_d, default_axis)

__all__ = [
    "DensityGrid",
    "grid_from_density",
    "tv",
    "kl",
    "fd_bin_edges",
    "tv_hist_vs_density",
    "tv_hist_two_samples",
    "score_loss",
    "denoise_identity_check",
    "score_growth_audit",
    "write_metric_report",
]


@dataclass
class DensityGrid:
    """Nonnegative cell values on a uniform tensor grid (d <= 2)."""

    axes: tuple
    values: np.ndarray
    cell_volume: float

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    def mass_deficit(self) -> float:
        return abs(1.0 - self.mass)

    def check_axes(self, other: "DensityGrid"):
        if len(self.axes) != len(other.axes) or not all(
                np.array_equal(a, b) for a, b in zip(self.axes, other.axes)):
            raise ValueError("grids must share identical axes")


def grid_from_density(density, axes) -> DensityGrid:
    """Evaluate a density (mixture object or callable) on uniform axes."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    _require_d("grid_from_density", len(axes), 2)
    vol = math.prod(float(a[1] - a[0]) for a in axes)
    fn = density.pdf if hasattr(density, "pdf") else density
    vals = np.asarray(fn(_grid_points(axes)), dtype=float).reshape([a.size for a in axes])
    if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
        raise ValueError("density values must be finite and nonnegative")
    return DensityGrid(axes=axes, values=vals, cell_volume=vol)


def tv(p: DensityGrid, q: DensityGrid) -> float:
    """1/2 int |p - q| by rectangle quadrature on a shared grid."""
    p.check_axes(q)
    return float(0.5 * np.abs(p.values - q.values).sum() * p.cell_volume)


def kl(p: DensityGrid, q: DensityGrid):
    """int p log(p/q); q-cells below 1e-300 are floored there and counted.

    Returns (value, floored_cell_count).
    """
    p.check_axes(q)
    pv = p.values
    qv = np.maximum(q.values, 1e-300)
    floored = int(np.count_nonzero((q.values < 1e-300) & (pv > 0.0)))
    mask = pv > 0.0
    val = float(np.sum(pv[mask] * (np.log(pv[mask]) - np.log(qv[mask])))
                * p.cell_volume)
    return val, floored


def fd_bin_edges(target: GaussianMixtureDensity, n_samples: int) -> np.ndarray:
    """Freedman-Diaconis bin edges derived from the analytic target (1D).

    Width 2*IQR/n^(1/3) over the default evaluation range, floored at
    64 bins, so the binning is deterministic and target-adapted.
    """
    _require_d("fd_bin_edges", target.d, 1)
    axis = default_axis(target)
    lo, hi = float(axis[0]), float(axis[-1])
    width = 2.0 * target._iqr_1d / max(n_samples, 1) ** (1.0 / 3.0)
    bins = max(64, int(math.ceil((hi - lo) / width)))
    return np.linspace(lo, hi, bins + 1)


def _bin_masses_analytic(target: GaussianMixtureDensity, edges: np.ndarray):
    cdf = target.cdf_1d(edges)
    masses = np.diff(cdf)
    # fold the (tiny) tails into the edge bins so masses sum to one
    masses[0] += cdf[0]
    masses[-1] += 1.0 - cdf[-1]
    return masses


def _bin_fractions(samples: np.ndarray, edges: np.ndarray):
    x = np.clip(samples.ravel(), edges[0], edges[-1])
    counts, _ = np.histogram(x, bins=edges)
    return counts / x.size


def _require_samples(name, *sample_sets):
    if any(np.size(s) == 0 for s in sample_sets):
        raise ValueError(f"{name}: a sample set is empty")


def _tv_se(signs, masses, n):
    d = float(np.sum(signs * masses))
    return 0.5 * math.sqrt(max(0.0, 1.0 - d * d) / n)


def tv_hist_vs_density(samples: np.ndarray, target: GaussianMixtureDensity,
                       edges: np.ndarray):
    """Histogram TV between a sample set and an analytic density.

    Returns (tv, std_err, bias_budget).  The budget is the first-order
    expected L1 size of the multinomial noise, 1/2 sum_b sqrt(2 q_b(1-q_b)/(pi N)),
    printed alongside bound verdicts; binning bias is O(width^2) for the
    smooth densities audited here and is not separately estimated.
    """
    _require_samples("tv_hist_vs_density", samples)
    n = samples.size
    q = _bin_masses_analytic(target, edges)
    p_hat = _bin_fractions(samples, edges)
    value = 0.5 * float(np.abs(q - p_hat).sum())
    signs = np.sign(q - p_hat)
    se = _tv_se(signs, p_hat, n)
    budget = 0.5 * float(np.sum(np.sqrt(2.0 * q * (1.0 - q) / (math.pi * n))))
    return value, se, budget


def tv_hist_two_samples(samples_a: np.ndarray, samples_b: np.ndarray,
                        edges: np.ndarray):
    """Histogram TV between two sample sets on shared bins: (tv, std_err)."""
    _require_samples("tv_hist_two_samples", samples_a, samples_b)
    pa = _bin_fractions(samples_a, edges)
    pb = _bin_fractions(samples_b, edges)
    value = 0.5 * float(np.abs(pa - pb).sum())
    signs = np.sign(pa - pb)
    se = math.hypot(_tv_se(signs, pa, samples_a.size),
                    _tv_se(signs, pb, samples_b.size))
    return value, se


@dataclass
class LossReport:
    loss: float
    std_err: float
    per_step: np.ndarray
    per_step_se: np.ndarray
    samples: int


def _forward_marginals(score_model: ScoreModel, samples: int, seed: int):
    """Draw (x0, Z) pairs from per-sample substreams and yield (i, law_i, m,
    sig, x0, Z) for the model's steps i = 1..n, where x_i = m x0 + sig Z has
    law_i, the model's own: m = sqrt(abar_i), sig = sqrt(1 - abar_i)."""
    target, abars = score_model.target, score_model.schedule.alpha_bars
    u, draws = _draw_block(seed, 0, samples, 2, target.d, with_uniform=True)
    x0, z = target._from_draws(u, draws[0]), draws[1]
    for i, law in enumerate(score_model._laws, 1):
        yield i, law, math.sqrt(abars[i - 1]), math.sqrt(1.0 - abars[i - 1]), x0, z


def score_loss(score_model: ScoreModel, samples: int, seed: int) -> LossReport:
    """Score-matching loss L = (1/n) sum_i E|s_i(x_i) - grad log p_i(x_i)|^2.

    Monte Carlo over the closed-form forward marginals (one shared (x0, Z)
    pair per sample across steps), with the exact score as reference.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = score_model.schedule.n
    per = np.empty(n)
    per_se = np.empty(n)
    pooled = np.zeros(samples)
    for i, law, m, sig, x0, z in _forward_marginals(score_model, samples, seed):
        x_i = m * x0 + sig * z
        truth = law.score(x_i)
        diff = score_model.s_step(i, x_i, truth) - truth
        vals = np.sum(diff * diff, axis=-1)
        per[i - 1] = vals.mean()
        per_se[i - 1] = vals.std() / math.sqrt(samples)
        pooled += vals / n
    return LossReport(loss=float(pooled.mean()),
                      std_err=float(pooled.std() / math.sqrt(samples)),
                      per_step=per, per_step_se=per_se, samples=samples)


@dataclass
class IdentityReport:
    pooled_lhs: float
    pooled_gap: float
    pooled_gap_se: float
    per_step_gap: np.ndarray
    per_step_se: np.ndarray
    samples: int

    @property
    def pooled_relative_gap(self) -> float:
        return abs(self.pooled_gap) / max(self.pooled_lhs, 1e-300)

    @property
    def max_step_z(self) -> float:
        return float(np.max(np.abs(self.per_step_gap)
                            / np.maximum(self.per_step_se, 1e-300)))


def denoise_identity_check(score_model: ScoreModel, samples: int,
                           seed: int) -> IdentityReport:
    """Check, with shared random numbers, the exact identity

        E|s_i(x_i) - grad log p_i(x_i)|^2
            = E|z_i(x_i) - Z|^2 / (1 - abar_i)
              + E[ |grad log p_i(x_i)|^2 - |grad log p_i(x_i | x0)|^2 ].

    The same (x0, Z) pairs feed both sides, with the conditional score
    grad log p_i(x | x0) = -(x - sqrt(abar_i) x0)/(1 - abar_i) = -Z/sigma.
    Antithetic Z pairs cancel the leading 1/sigma noise term, which keeps
    the residual purely Monte Carlo at a usable scale for small 1 - abar_i.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    n = score_model.schedule.n
    n_pairs = samples // 2
    per_gap = np.empty(n)
    per_se = np.empty(n)
    pooled_gap_samples = np.zeros(n_pairs)
    pooled_lhs = 0.0

    def one_side(i, m, sig, law, x0, z_side):
        x_i = m * x0 + sig * z_side
        c = law.score(x_i)
        s = score_model.s_step(i, x_i, c)
        g = -z_side / sig
        lhs = np.sum((s - c) ** 2, axis=-1)
        rhs = (np.sum((s - g) ** 2, axis=-1)
               + np.sum(c * c, axis=-1) - np.sum(g * g, axis=-1))
        return lhs, lhs - rhs

    for i, law, m, sig, x0, z in _forward_marginals(score_model, n_pairs, seed):
        lhs_p, gap_p = one_side(i, m, sig, law, x0, z)
        lhs_m, gap_m = one_side(i, m, sig, law, x0, -z)
        lhs_vals = 0.5 * (lhs_p + lhs_m)
        gap_vals = 0.5 * (gap_p + gap_m)
        per_gap[i - 1] = gap_vals.mean()
        per_se[i - 1] = gap_vals.std() / math.sqrt(n_pairs)
        pooled_gap_samples += gap_vals / n
        pooled_lhs += lhs_vals.mean() / n
    return IdentityReport(
        pooled_lhs=float(pooled_lhs),
        pooled_gap=float(pooled_gap_samples.mean()),
        pooled_gap_se=float(pooled_gap_samples.std() / math.sqrt(n_pairs)),
        per_step_gap=per_gap,
        per_step_se=per_se,
        samples=2 * n_pairs,
    )


@dataclass
class GrowthAudit:
    ok: bool
    worst_margin: float
    worst_t: float
    worst_radius: float


def score_growth_audit(target: MixtureTarget, schedule: NoiseSchedule,
                       envelope: GrowthConstants, t_grid=None, points=None) -> GrowthAudit:
    """Pointwise audit of |grad log p_t(x)| <= c0/m + (c1/m^2)|x|, m = m_{0,t}."""
    _require_d("score_growth_audit", target.d, 2)
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 20)
    if points is None:
        points = _grid_points([default_axis(target, 2001 if target.d == 1 else 101)]
                              * target.d)
    points = np.asarray(points, dtype=float)
    radius = np.sqrt(np.sum(points**2, axis=-1))
    worst = math.inf
    worst_t = worst_r = 0.0
    for law in target.marginal_at(schedule, np.asarray(t_grid, dtype=float)):
        bound = envelope.c0 / law.m + (envelope.c1 / law.m**2) * radius
        margins = bound - np.sqrt(np.sum(law.score(points) ** 2, axis=-1))
        j = int(margins.argmin())
        if margins[j] < worst:
            worst = float(margins[j])
            worst_t, worst_r = law.t, float(radius[j])
    return GrowthAudit(ok=worst >= 0.0, worst_margin=worst,
                       worst_t=worst_t, worst_radius=worst_r)


def write_metric_report(path, rows) -> None:
    """CSV with schema name,i_or_t,value,std_err,samples; refuses NaN."""
    _write_csv(path, "name,i_or_t,value,std_err,samples", rows)


def _write_csv(path, header: str, rows) -> None:
    """A report CSV: floats at 17 significant digits, other cells as text.
    Refuses a non-finite float in any column."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            if not all(math.isfinite(v) for v in row if isinstance(v, float)):
                raise ValueError(f"non-finite value in report row {row}")
            cells = [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
            fh.write(",".join(cells) + "\n")
