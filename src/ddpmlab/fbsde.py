"""Backward-SDE characterization of the score along exact reverse paths.

Along a reverse batch with exact score, set

    Y_t = grad log p_{1-t}(X_t),   Z_t = sqrt(beta_{1-t}) hess log p_{1-t}(X_t)

and test the backward relation

    grad log p_data(X_1) = Y_t + drift_sign * 1/2 int_t^1 beta_{1-r} Y_r dr
                           + int_t^1 Z_r dW_r

with left-point Riemann/Ito sums on the simulation grid.  Both drift signs
are evaluated; on Gaussian targets exactly one makes the residual vanish
under grid refinement, and the same sign wins the companion PDE check.
There the vanishing is deterministic and first order in the step: Z does
not depend on the state, so the Euler update telescopes against the
left-point sums, the noise cancels, and what remains is the left-endpoint
quadrature error of the drift integral, the same on every path.  The
closed-form stationary-OU computation (dY = -beta/2 Y dt - sqrt(beta) dW for
a standard-normal target) selects drift_sign = -1, recorded here as
ADJUDICATED_DRIFT_SIGN; the sign-adjudication experiment demonstrates it
numerically rather than assuming it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .schedule import NoiseSchedule
from .simulate import (TrajectoryBatch, _exact_reverse, _integrate, _kept_paths,
                       _reverse_grid)
from .target import (MixtureTarget, _centered_laws, _grid_points, _require_d,
                     default_axis)

__all__ = [
    "ADJUDICATED_DRIFT_SIGN",
    "ResidualStats",
    "YastReport",
    "f_weight",
    "bsde_residual_both",
    "z_energy",
    "yast_check",
    "pde_residual",
    "h_martingale_check",
]

# Sign of the 1/2 int beta Y dr term selected by the Gaussian oracle.
ADJUDICATED_DRIFT_SIGN = -1
_REGRESSION_PATHS = 10_000  # the fewest kept paths yast_check's regression fits
_BLOCK_FLOATS = 8192  # floats of one block's Hessians in the backward-SDE walk


def _gaussian_oracle(target: MixtureTarget) -> bool:
    """Whether `target` is one unit-covariance component, as yast_check's oracle needs."""
    return target.n_components == 1 and np.allclose(target.covariance, np.eye(target.d))


def f_weight(schedule: NoiseSchedule, t) -> np.ndarray:
    """f(t) = exp(A/2) / (exp(A) - 1) with A = int_0^{1-t} beta."""
    a = schedule.integrated_beta(1.0 - np.asarray(t, dtype=float))
    return np.exp(0.5 * a) / np.expm1(a)


def _along(batch, start):
    """(k, betas, family, X) for each block of T substeps from `start` to the
    end of the batch grid: the block's first index k, its betas (T,), each
    constant over its substep, the family of the laws of X at its reverse
    times, and X (T, paths, d), a slab of the time-major record.  T is the most
    steps whose (T, paths, d, d) Hessians fit _BLOCK_FLOATS, and at least one."""
    times, schedule = batch.times, batch.schedule
    betas = _reverse_grid(schedule, (times.size - 1) // schedule.n)[2]
    family = batch.source._family(schedule, 1.0 - times[start:-1])
    states = batch.states.transpose(1, 0, 2)
    size = max(1, _BLOCK_FLOATS // (batch.paths * batch.d * batch.d))
    for k in range(start, times.size - 1, size):
        end = min(k + size, times.size - 1)
        yield k, betas[k:end], family._view(slice(k - start, end - start)), states[k:end]


def _fold(acc, terms):
    """acc + terms[0] + terms[1] + ..., added in that order: the bits of a loop
    of acc += row.  A reduce along axis 0 adds a C-contiguous block's rows in
    order, unless each row is one number: then it sums them pairwise."""
    terms[0] += acc
    if len(terms) == 1:  # no reduce, and no new (paths, d) array per step
        return terms[0]
    if terms[0].size == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return np.add.reduce(terms, axis=0)


@dataclass
class ResidualStats:
    rms: float
    max: float
    paths: int
    substeps: int
    t_index: int
    drift_sign: int


def bsde_residual_both(batch: TrajectoryBatch, t_index: int) -> dict:
    """Residual statistics for both drift signs from one pass over the batch:
    terminal score, Y_t, and the drift and Ito sums from t_index to the end."""
    target, schedule = _exact_reverse("bsde_residual_both", batch, full=True)
    times = batch.times
    if not 0 <= t_index <= times.size - 1:
        raise ValueError("t_index outside the simulation grid")
    keep = _kept_paths("bsde_residual_both", batch.diverged)
    h = times[1] - times[0]
    drift = np.zeros((batch.paths, batch.d))
    ito = np.zeros((batch.paths, batch.d))
    terminal = target.score(batch.states[:, -1])
    y_t = terminal  # Y_1, as the law at time 0 is the target itself
    noises = batch.noises.transpose(1, 0, 2)
    for k, betas, family, x in _along(batch, t_index):
        y, hess = family._derivatives(x, 2)
        if k == t_index:
            y_t = y[0]
        z = np.sqrt(betas)[:, None, None, None] * hess
        dw = math.sqrt(h) * noises[k:k + betas.size]
        drift = _fold(drift, betas[:, None, None] * y * h)
        ito = _fold(ito, np.einsum("tpij,tpj->tpi", z, dw))
    out = {}
    for sign in (-1, 1):
        res = terminal - y_t - sign * 0.5 * drift - ito
        norms = np.sqrt(np.sum(res**2, axis=-1))[keep]
        out[sign] = ResidualStats(
            rms=float(np.sqrt(np.mean(norms**2))), max=float(norms.max()),
            paths=int(keep.sum()), substeps=(times.size - 1) // schedule.n,
            t_index=t_index, drift_sign=sign)
    return out


def z_energy(batch: TrajectoryBatch) -> float:
    """Monte Carlo E* int_0^1 |Z_t|_F^2 dt; equals d * int_0^1 beta for Gaussians."""
    _exact_reverse("z_energy", batch, full=True)
    keep = _kept_paths("z_energy", batch.diverged)
    h = batch.times[1] - batch.times[0]
    acc = np.zeros(batch.paths)
    for _, betas, family, x in _along(batch, 0):
        energy = np.sum(family.hessian_log(x) ** 2, axis=(-2, -1))
        acc = _fold(acc, betas[:, None] * energy * h)
    return float(acc[keep].mean())


@dataclass
class YastReport:
    mode: str
    rms: float
    rms_relative: float
    tower_gap: float         # |mean(f * realized integral) - mean(Y_t)|
    tower_se: float
    paths: int
    t_index: int


def yast_check(batch: TrajectoryBatch, t_index: int) -> YastReport:
    """Verify the martingale identity Y_t = f(t) E*[int_t^1 g(r) Y_r dr | F_t].

    The target picks the mode.  Gaussian-oracle mode (one component of unit
    covariance): the conditional expectation is known in closed form through
    the OU conditional mean; the headline rms compares f(t) times its
    left-point quadrature on the simulation grid with Y_t, so it carries
    integrator error only.  Regression mode (every other target, at least 1e4
    kept paths): cross-sectional least squares of the realized integral on
    the cubic polynomial basis of X_t, then rms of f(t) * prediction - Y_t,
    relative to rms(Y_t).  Both modes also report the tower-property gap
    mean(f * I) - mean(Y_t) with its SE.
    """
    target, schedule = _exact_reverse("yast_check", batch, full=True)
    times = batch.times
    if not 0 <= t_index < times.size - 1:
        raise ValueError("t_index must leave a nonempty interval [t, 1]")
    t = float(times[t_index])
    mode = "gaussian" if _gaussian_oracle(target) else "regression"
    keep = _kept_paths("yast_check", batch.diverged)
    x_t = batch.states[keep, t_index]
    if mode == "regression" and x_t.shape[0] < _REGRESSION_PATHS:
        raise ValueError(f"regression mode needs at least {_REGRESSION_PATHS} paths")
    f_t = float(f_weight(schedule, t))
    g_t = float(schedule.integrated_beta(1.0 - t))
    h = times[1] - times[0]
    integral = np.zeros((batch.paths, batch.d))  # left-point sum of g(r) Y_r
    quad = 0.0  # Gaussian oracle: the sum of g(r) E*[Y_r | X_t], per unit of -dev
    for k, betas, family, x in _along(batch, t_index):
        y = family.score(x)
        if k == t_index:
            y_t = y[0][keep]
        # per step in Python floats: np.exp may differ from math.exp in the last ulp
        gs = []
        for beta, g_r in zip(betas, schedule.integrated_beta(family.t).tolist()):
            gs.append(beta * math.exp(0.5 * g_r))
            quad += gs[-1] * math.exp(-0.5 * (g_t - g_r)) * h
        integral = _fold(integral, np.array(gs)[:, None, None] * y * h)
    integral = integral[keep]

    tower = f_t * integral - y_t
    tower_gap = float(np.abs(tower.mean(axis=0)).max())
    tower_se = float((tower.std(axis=0) / math.sqrt(x_t.shape[0])).max())

    if mode == "gaussian":
        dev = x_t - math.exp(-0.5 * g_t) * target.means[0]
        resid = f_t * (-dev) * quad - y_t
    else:
        basis = _poly_basis(x_t)
        coef, *_ = np.linalg.lstsq(basis, integral, rcond=None)
        resid = f_t * (basis @ coef) - y_t
    norms = np.sqrt(np.sum(resid**2, axis=-1))
    rms = float(np.sqrt(np.mean(norms**2)))
    scale = float(np.sqrt(np.mean(np.sum(y_t**2, axis=-1))))
    return YastReport(mode=mode, rms=rms, rms_relative=rms / max(scale, 1e-300),
                      tower_gap=tower_gap, tower_se=tower_se,
                      paths=int(x_t.shape[0]), t_index=t_index)


def _poly_basis(x: np.ndarray) -> np.ndarray:
    """Monomials of total degree <= 3 in the columns of x."""
    cols = [np.ones(x.shape[0])]
    if x.shape[1] == 1:
        for p in range(1, 4):
            cols.append(x[:, 0] ** p)
    else:
        for p in range(1, 4):
            for combo in combinations_with_replacement(range(x.shape[1]), p):
                term = np.ones(x.shape[0])
                for j in combo:
                    term = term * x[:, j]
                cols.append(term)
    return np.column_stack(cols)


def pde_residual(target: MixtureTarget, schedule: NoiseSchedule, t: float,
                 points, rhs_sign: int):
    """Residual of the semilinear system for u(t, x) = grad log p_{1-t}(x):

        d/dt u_k + grad u_k . (beta/2 x + beta u) + beta/2 lap u_k
            - rhs_sign * beta/2 u_k.

    Spatial derivatives are analytic; d/dt is a centered difference with
    step 1e-6 within the same beta interval.  Returns (max_abs, rms, max_abs_u).
    """
    if rhs_sign not in (-1, 1):
        raise ValueError("rhs_sign must be +1 or -1")
    pts, beta, dt, (law, plus, minus) = _centered_laws("pde_residual", target,
                                                       schedule, t, points, reverse=True)
    u, hess, lap_u = law._derivatives(pts, 3)
    du_dt = (plus.score(pts) - minus.score(pts)) / (2.0 * dt)
    velocity = 0.5 * beta * pts + beta * u
    convection = np.einsum("...kj,...j->...k", hess, velocity)
    res = du_dt + convection + 0.5 * beta * lap_u - rhs_sign * 0.5 * beta * u
    return (float(np.abs(res).max()), float(np.sqrt(np.mean(res**2))),
            float(np.abs(u).max()))


def h_martingale_check(target: MixtureTarget, schedule: NoiseSchedule,
                       paths: int, seed: int, times) -> dict:
    """Constancy of E[h(t, Y_t)], h(t, y) = exp((d/2) int_0^t beta_{1-u}) p_{1-t}(y).

    The auxiliary process dY = beta_{1-t}/2 Y dt + sqrt(beta_{1-t}) dW with
    Y_0 ~ N(0, I) has exact Gaussian transitions, so checkpoint values carry
    no discretization error.  Returns per-checkpoint means and standard
    errors plus the grid-quadrature value of E[h(0, Y_0)] as reference.
    """
    _require_d("h_martingale_check", target.d, 2)
    times = np.asarray(sorted(set([0.0] + list(times))), dtype=float)
    if times[0] < 0.0 or times[-1] > 1.0:
        raise ValueError("checkpoints must lie in [0, 1]")
    d = target.d
    g_total = float(schedule.integrated_beta(1.0))
    laws = target.marginal_at(schedule, 1.0 - times)
    prefs = [math.exp(0.5 * d * (g_total - float(schedule.integrated_beta(1.0 - t))))
             for t in times]
    ms = [schedule.bridge(1.0 - b, 1.0 - a).m for a, b in zip(times[:-1], times[1:])]

    def step(k, y, z, rows):
        m = ms[k]
        return y / m + math.sqrt(max(0.0, 1.0 / m**2 - 1.0)) * z

    # Y grows like exp(int beta / 2) by design; no path is frozen
    states = _integrate(seed, paths, times, d, step, "full", "auxiliary", target,
                        schedule, limit=math.inf).states
    values = np.column_stack([pref * law.pdf(states[:, k])
                              for k, (pref, law) in enumerate(zip(prefs, laws))])
    means = values.mean(axis=0)
    ses = values.std(axis=0) / math.sqrt(paths)
    axis = default_axis(target)
    pts = _grid_points([axis] * d)
    w = (axis[1] - axis[0]) ** d
    phi = np.exp(-0.5 * np.sum(pts**2, axis=1)) / (2.0 * math.pi) ** (d / 2)
    reference = float(np.sum(phi * laws[0].pdf(pts)) * w)
    drift_z = np.abs(means - means[0]) / np.maximum(ses, 1e-300)
    return {
        "times": times,
        "means": means,
        "std_errs": ses,
        "reference": reference,
        "max_drift_z": float(drift_z[1:].max()) if times.size > 1 else 0.0,
        "min_value": float(values.min()),
    }
