import math
import warnings
from contextlib import nullcontext
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from ddpmlab import fbsde, simulate
from ddpmlab.bounds import schrodinger_bound
from ddpmlab.fbsde import (ADJUDICATED_DRIFT_SIGN, ResidualStats, YastReport, _along,
                           _poly_basis, bsde_residual_both, f_weight,
                           h_martingale_check, pde_residual, yast_check, z_energy)
from ddpmlab.metrics import grid_from_density, score_growth_audit
from ddpmlab.schedule import constant_rate, from_linear_variance
from ddpmlab.simulate import (ScoreModel, _reverse_grid, ddpm_sample, forward_chain,
                              reverse_sde)
from ddpmlab.target import (GaussianMixtureDensity, MixtureTarget, default_axis,
                            fokker_planck_residual, gaussian_target, growth_constants,
                            symmetric_mixture)

GAUSS = gaussian_target([0.0])
SHIFTED = gaussian_target([1.5])
MIX = symmetric_mixture()
SCHED = constant_rate(8, 2.0)


def test_f_weight_identity():
    for t in (0.0, 0.31, 0.77):
        a = SCHED.integrated_beta(1.0 - t)
        f = float(f_weight(SCHED, t))
        assert f * math.expm1(a) == pytest.approx(math.exp(0.5 * a), rel=1e-12)


def test_y_and_z_on_the_standard_gaussian():
    # Y = grad log p = -x and Z = sqrt(beta) hess log p = -sqrt(beta) on the
    # grid laws of the traversal's blocks, and Y_1 = -X_1 from the target itself
    batch = reverse_sde(GAUSS, SCHED, 16, 64, seed=1)
    beta = 2.0  # constant schedule, total 2
    steps = 0
    for k, betas, family, x in _along(batch, 0):
        assert k == steps
        assert np.array_equal(x, batch.states[:, k:k + betas.size].transpose(1, 0, 2))
        assert np.allclose(family.score(x), -x, atol=1e-14)
        assert np.allclose(np.sqrt(betas)[:, None] * family.hessian_log(x)[..., 0, 0],
                           -math.sqrt(beta), atol=1e-12)
        steps += betas.size
    assert steps == batch.times.size - 1
    assert np.allclose(GAUSS.score(batch.states[:, -1]), -batch.states[:, -1], atol=1e-14)


def test_bsde_residual_standard_gaussian_vanishing_sign():
    batch = reverse_sde(GAUSS, SCHED, 64, 128, seed=2)
    both = bsde_residual_both(batch, 0)
    # Euler telescopes exactly against left-point sums for this target
    assert both[-1].rms <= 1e-12
    assert both[-1].rms <= 0.1
    assert both[1].rms >= 0.5


def test_bsde_residual_shifted_gaussian_rates():
    rms = {}
    for substeps in (32, 64, 128):
        batch = reverse_sde(SHIFTED, SCHED, substeps, 128, seed=3)
        both = bsde_residual_both(batch, 0)
        rms[substeps] = both[-1].rms
        assert both[1].rms >= 10.0 * both[-1].rms
    # deterministic quadrature error, first order in the step
    assert rms[64] / rms[32] == pytest.approx(0.5, abs=0.05)
    assert rms[128] / rms[64] == pytest.approx(0.5, abs=0.05)


def test_bsde_residual_terminal_index_is_zero():
    batch = reverse_sde(SHIFTED, SCHED, 16, 32, seed=4)
    stats = bsde_residual_both(batch, batch.times.size - 1)[-1]
    assert stats.rms == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("t_index", [0, 5, 64, 127, 128])
def test_bsde_residual_takes_y_t_from_its_traversal(monkeypatch, t_index):
    # Y_t is the score at the traversal's first point, so the laws are built
    # once, as one family; at the last grid point Y_1 is the terminal score
    batch = reverse_sde(MIX, SCHED, 16, 64, seed=6)  # 128 steps
    built = []
    family = MixtureTarget._family
    monkeypatch.setattr(MixtureTarget, "_family", lambda self, schedule, t: (
        built.append(np.size(t)) or family(self, schedule, t)))
    both = bsde_residual_both(batch, t_index)
    assert built == [128 - t_index]
    if t_index == 128:
        assert both[-1].rms == both[1].rms == 0.0


def test_bsde_requires_noises():
    batch = reverse_sde(SHIFTED, SCHED, 4, 16, seed=5, record="terminal")
    with pytest.raises(ValueError):
        bsde_residual_both(batch, 0)


def test_backward_checks_reject_an_index_a_batch_or_a_schedule_they_cannot_walk():
    batch = reverse_sde(SHIFTED, SCHED, 4, 16, seed=5)
    last = batch.times.size - 1
    for t_index in (-1, last + 1):
        with pytest.raises(ValueError, match=r"^t_index outside the simulation grid$"):
            bsde_residual_both(batch, t_index)
    forward = forward_chain(SHIFTED, SCHED, 16, seed=5)
    with pytest.raises(ValueError, match=r"^bsde_residual_both: expected an "
                                         r"exact-score reverse batch$"):
        bsde_residual_both(forward, 0)
    with pytest.raises(ValueError, match=r"^t_index must leave a nonempty interval "
                                         r"\[t, 1\]$"):
        yast_check(batch, last)
    assert yast_check(batch, last - 1).t_index == last - 1


def test_exact_path_checks_refuse_a_batch_of_another_process():
    # forward, DDPM and model-score reverse paths do not follow the exact
    # reverse law the backward relation and the bridge bound describe
    model = ScoreModel(SHIFTED, SCHED, mode="exact")
    others = [forward_chain(SHIFTED, SCHED, 256, seed=1),
              ddpm_sample(model, SCHED, 256, seed=1),
              reverse_sde(model, SCHED, 16, 256, seed=1, score_mode="model")]
    checks = {"bsde_residual_both": lambda b: bsde_residual_both(b, 0),
              "z_energy": z_energy,
              "yast_check": lambda b: yast_check(b, 0),
              "schrodinger_bound": schrodinger_bound}
    for name, check in checks.items():
        for batch in others:
            with pytest.raises(ValueError, match=rf"^{name}: expected an exact-score "
                                                 r"reverse batch$"):
                check(batch)
    exact = reverse_sde(SHIFTED, SCHED, 16, 256, seed=1)
    assert bsde_residual_both(exact, 0)[-1].rms < 0.01
    assert schrodinger_bound(exact).name == "schrodinger"


def test_z_energy_gaussian_closed_form():
    batch = reverse_sde(GAUSS, SCHED, 16, 32, seed=6)
    total_beta = float(SCHED.integrated_beta(1.0))
    assert z_energy(batch) == pytest.approx(total_beta, rel=1e-12)


def test_z_matches_finite_difference_gradient_of_v():
    # Z = sqrt(beta) hess log p equals f sqrt(beta) grad(Y/f) since f is
    # spatially constant
    batch = reverse_sde(SHIFTED, SCHED, 8, 8, seed=7)
    k = 12
    t = batch.times[k]
    law = SHIFTED.marginal_at(SCHED, 1.0 - t)
    f = float(f_weight(SCHED, t))
    beta = float(-SCHED.n * SCHED.log_alphas[SCHED.n - 1 - k // 8])
    x = batch.states[:, k]
    eps = 1e-6
    grad_v = (law.score(x + eps) - law.score(x - eps)) / (2 * eps) / f
    z = math.sqrt(beta) * law.hessian_log(x)[:, 0, 0]
    assert np.abs(f * math.sqrt(beta) * grad_v[:, 0] - z).max() <= 1e-6


def test_yast_gaussian_oracle_modes():
    batch = reverse_sde(GAUSS, SCHED, 128, 2000, seed=8)
    mid = (batch.times.size - 1) // 2
    rep = yast_check(batch, mid)
    assert rep.mode == "gaussian"
    assert rep.rms <= 0.05
    assert rep.tower_gap <= 4.0 * rep.tower_se
    shifted = reverse_sde(SHIFTED, SCHED, 128, 2000, seed=9)
    rep2 = yast_check(shifted, mid)
    assert rep2.rms <= 0.05
    assert rep2.tower_gap <= 4.0 * rep2.tower_se


def test_yast_regression_mode_mixture():
    sched = constant_rate(16, 4.0)
    batch = reverse_sde(MIX, sched, 8, 30000, seed=10)
    mid = (batch.times.size - 1) // 2
    rep = yast_check(batch, mid)
    assert rep.mode == "regression"
    assert rep.rms_relative <= 0.10


@pytest.mark.parametrize("t_index", [0, 5, 64, 127])
def test_yast_check_takes_y_t_from_its_traversal(monkeypatch, t_index):
    # Y_t is the traversal's first score on the kept paths, and the
    # Gaussian-oracle quadrature is summed in the same loop over one family
    batch = reverse_sde(GAUSS, SCHED, 16, 64, seed=6)  # 128 steps
    built = []
    family = MixtureTarget._family
    monkeypatch.setattr(MixtureTarget, "_family", lambda self, schedule, t: (
        built.append(np.size(t)) or family(self, schedule, t)))
    rep = yast_check(batch, t_index)
    assert built == [128 - t_index]
    assert rep.mode == "gaussian" and rep.paths == 64


def test_yast_regression_requires_paths():
    sched = constant_rate(4, 4.0)
    batch = reverse_sde(MIX, sched, 2, 200, seed=11)
    with pytest.raises(ValueError, match="^regression mode needs at least 10000 paths$"):
        yast_check(batch, 2)


def test_yast_check_takes_regression_for_a_gaussian_of_other_covariance():
    # N(1.5, 4) has one component, but the closed-form oracle needs unit covariance
    wide = gaussian_target([1.5], [[0.25]])
    sched = constant_rate(4, 4.0)
    batch = reverse_sde(wide, sched, 8, 10000, seed=5)
    rep = yast_check(batch, (batch.times.size - 1) // 2)
    assert rep.mode == "regression"
    assert rep.rms_relative <= 0.10


def test_pde_residual_shifted_gaussian_signs():
    pts = default_axis(SHIFTED, 801)[:, None]
    mx_adj, _, umax = pde_residual(SHIFTED, SCHED, 0.3, pts, -1)
    mx_opp, _, _ = pde_residual(SHIFTED, SCHED, 0.3, pts, 1)
    assert mx_adj <= 1e-6 * umax
    assert mx_opp >= 1e-2 * umax
    # opposite-sign residual is |beta u| on this target (grad u = -I, lap 0)
    beta = float(SCHED.beta(1.0 - 0.3))
    assert mx_opp == pytest.approx(beta * umax, rel=1e-4)


def test_pde_residual_symmetry_point():
    pts = np.array([[0.0]])
    for sign in (-1, 1):
        mx, _, _ = pde_residual(GAUSS, SCHED, 0.3, pts, sign)
        assert mx <= 1e-9


def test_pde_residual_mixture_adjudicated_sign():
    pts = default_axis(MIX, 801)[:, None]
    mx, _, umax = pde_residual(MIX, SCHED, 0.3, pts, ADJUDICATED_DRIFT_SIGN)
    assert mx <= 1e-4 * umax


def _counting(monkeypatch, name):
    """Replace GaussianMixtureDensity.name by a wrapper that counts its calls."""
    calls, original = [], getattr(GaussianMixtureDensity, name)
    monkeypatch.setattr(GaussianMixtureDensity, name,
                        lambda self, x: calls.append(name) or original(self, x))
    return calls


def test_one_pi_per_law_in_pde_residual(monkeypatch):
    # u, grad u and lap u read one pi at t, the difference one at each of t +/- dt
    pi = _counting(monkeypatch, "posterior_weights")
    pde_residual(MIX, SCHED, 0.3, default_axis(MIX, 101)[:, None], -1)
    assert len(pi) == 3
    # one component: u and grad u are closed forms, and the Laplacian alone
    # keeps the general kernel (pi = 1) at t
    del pi[:]
    pde_residual(SHIFTED, SCHED, 0.3, default_axis(SHIFTED, 101)[:, None], -1)
    assert len(pi) == 1


@pytest.mark.parametrize("target", [MIX, SHIFTED], ids=["mixture", "gaussian"])
def test_one_pi_per_block_in_bsde_residual_both(monkeypatch, target):
    # Y and Z of a block read one pi, the terminal score one more; with one
    # component the block's Y and Z are score's and hessian_log's closed forms
    batch = reverse_sde(target, SCHED, 16, 300, seed=6)  # 128 steps, blocks of 27
    blocks = len(list(_along(batch, 5)))
    calls = {name: _counting(monkeypatch, name)
             for name in ("posterior_weights", "score", "hessian_log")}
    bsde_residual_both(batch, 5)
    assert blocks == 5
    if target.n_components > 1:
        assert [len(calls[name]) for name in calls] == [blocks + 1, 1, 0]
    else:
        assert [len(calls[name]) for name in calls] == [0, blocks + 1, blocks]


def test_pde_rejects_knot_times():
    with pytest.raises(ValueError):
        pde_residual(MIX, SCHED, 0.25, np.array([[0.0]]), -1)


def test_h_martingale_constancy():
    sched = from_linear_variance(40, 1e-3, 0.05)
    out = h_martingale_check(MIX, sched, 30000, seed=12,
                             times=np.linspace(0.0, 1.0, 10))
    assert out["max_drift_z"] <= 3.0
    assert out["min_value"] >= 0.0
    assert out["means"][0] == pytest.approx(out["reference"],
                                            abs=4.0 * out["std_errs"][0])


def test_h_martingale_constancy_2d():
    # anisotropic d = 2 mixture: the reference integrates over the 2-D grid
    target = MixtureTarget([0.3, 0.7], [[-1.0, 0.5], [1.2, -0.4]],
                           [[2.0, 0.3], [0.3, 0.7]])
    sched = from_linear_variance(40, 1e-3, 0.05)
    out = h_martingale_check(target, sched, 20000, seed=12,
                             times=np.linspace(0.0, 1.0, 6))
    assert out["max_drift_z"] <= 3.0
    assert out["min_value"] >= 0.0
    assert out["means"][0] == pytest.approx(out["reference"],
                                            abs=4.0 * out["std_errs"][0])


EXTREME = constant_rate(20, 690.0)


@lru_cache(maxsize=None)
def all_diverged_batch():
    """Exact reverse batch at alpha_bar_n ~ 2e-300: Euler at beta h ~ 17 sends
    every one of the 200 paths past the 1e6 norm limit."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = reverse_sde(SHIFTED, EXTREME, 2, 200, seed=5)
    assert batch.diverged.all()
    return batch


ALL_DIVERGED = {
    "bsde_residual_both": lambda b: bsde_residual_both(b, 0),
    "z_energy": z_energy,
    "yast_check": lambda b: yast_check(b, 3),
}


@pytest.mark.parametrize("name", sorted(ALL_DIVERGED))
def test_all_diverged_batch_raises_naming_the_function(name):
    batch = all_diverged_batch()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=rf"^{name}: all 200 paths were excluded for "
                                 r"leaving the 1e\+06 norm limit$"):
            ALL_DIVERGED[name](batch)


@pytest.mark.parametrize("sched", [constant_rate(20, 36.0),
                                   from_linear_variance(50, 1e-14, 1e-12),
                                   from_linear_variance(10, 1e-15, 0.999)],
                         ids=["abar_2e-16", "alpha_near_1", "v_end_0.999"])
def test_extreme_schedules_adjudicate_cleanly(sched):
    # alpha_bar_n ~ 2.3e-16, every alpha within 1e-12 of 1, and a last step
    # with variance 0.999: no warning, no diverged path, finite residuals,
    # and the adjudicated sign still leaves the smaller residual
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = reverse_sde(SHIFTED, sched, 2, 200, seed=3)
        both = bsde_residual_both(batch, 0)
        energy = z_energy(batch)
    assert not batch.diverged.any() and np.all(np.isfinite(batch.states))
    adjudicated = both[ADJUDICATED_DRIFT_SIGN]
    opposite = both[-ADJUDICATED_DRIFT_SIGN]
    assert all(math.isfinite(v) for v in (adjudicated.rms, adjudicated.max,
                                          opposite.rms, opposite.max))
    assert adjudicated.paths == opposite.paths == 200
    assert adjudicated.rms < opposite.rms
    # unit covariance: |Z|_F^2 = beta on every path, so the energy is g(1)
    assert energy == pytest.approx(float(sched.integrated_beta(1.0)), rel=1e-12)


G3 = gaussian_target([0.0, 0.5, -1.0])
PTS3 = np.zeros((2, 3))
AX = np.linspace(-1.0, 1.0, 3)
GUARDS = {
    "pde_residual_d3": (lambda: pde_residual(G3, SCHED, 0.3, PTS3, -1),
                        "pde_residual: implemented for d <= 2, got d = 3"),
    "fokker_planck_residual_d3": (lambda: fokker_planck_residual(G3, SCHED, 0.3, PTS3),
                                  "fokker_planck_residual: implemented for d <= 2, got d = 3"),
    "h_martingale_check_d3": (lambda: h_martingale_check(G3, SCHED, 10, 1, [0.5]),
                              "h_martingale_check: implemented for d <= 2, got d = 3"),
    "score_growth_audit_d3": (lambda: score_growth_audit(
        G3, SCHED, growth_constants(G3), t_grid=[0.5], points=PTS3),
        "score_growth_audit: implemented for d <= 2, got d = 3"),
    "grid_from_density_3_axes": (lambda: grid_from_density(G3, (AX, AX, AX)),
                                 "grid_from_density: implemented for d <= 2, got d = 3"),
    "h_martingale_check_above_1": (lambda: h_martingale_check(GAUSS, SCHED, 10, 1, [1.5]),
                                   r"checkpoints must lie in \[0, 1\]"),
    "h_martingale_check_below_0": (lambda: h_martingale_check(GAUSS, SCHED, 10, 1, [-0.1]),
                                   r"checkpoints must lie in \[0, 1\]"),
    "pde_residual_rhs_sign_0": (lambda: pde_residual(GAUSS, SCHED, 0.3, AX, 0),
                                r"rhs_sign must be \+1 or -1"),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_input_guards_raise_their_message(name):
    call, message = GUARDS[name]
    with pytest.raises(ValueError, match=rf"^{message}$"):
        call()


def test_poly_basis_two_dimensional_monomials():
    x = np.random.default_rng(3).normal(size=(50, 2))
    a, b = x[:, 0], x[:, 1]
    expected = np.column_stack([np.ones(50), a, b, a * a, a * b, b * b,
                                a * a * a, a * a * b, a * b * b, b * b * b])
    basis = _poly_basis(x)
    assert basis.shape == (50, 10)
    assert np.array_equal(basis, expected)


# The per-step walk the blocked one replaced: one law and one kernel call per
# grid point, the sums added step by step.  The blocked forms must give its bits.

def _per_step(target, schedule, batch, start):
    betas = _reverse_grid(schedule, (batch.times.size - 1) // schedule.n)[2]
    laws = target.marginal_at(schedule, 1.0 - batch.times[start:-1])
    for k, law in enumerate(laws, start):
        yield k, betas[k], law, batch.states[:, k]


def _bsde_reference(target, schedule, batch, t_index):
    keep = ~batch.diverged
    h = batch.times[1] - batch.times[0]
    drift = np.zeros((batch.paths, batch.d))
    ito = np.zeros((batch.paths, batch.d))
    terminal = target.score(batch.states[:, -1])
    y_t = terminal
    for k, beta, law, xk in _per_step(target, schedule, batch, t_index):
        yk = law.score(xk)
        if k == t_index:
            y_t = yk
        zk = math.sqrt(beta) * law.hessian_log(xk)
        dw = math.sqrt(h) * batch.noises[:, k]
        drift += beta * yk * h
        ito += np.einsum("pij,pj->pi", zk, dw)
    out = {}
    for sign in (-1, 1):
        res = terminal - y_t - sign * 0.5 * drift - ito
        norms = np.sqrt(np.sum(res**2, axis=-1))[keep]
        out[sign] = ResidualStats(
            rms=float(np.sqrt(np.mean(norms**2))), max=float(norms.max()),
            paths=int(keep.sum()), substeps=(batch.times.size - 1) // schedule.n,
            t_index=t_index, drift_sign=sign)
    return out


def _z_energy_reference(target, schedule, batch):
    h = batch.times[1] - batch.times[0]
    acc = np.zeros(batch.paths)
    for _, beta, law, x in _per_step(target, schedule, batch, 0):
        acc += beta * np.sum(law.hessian_log(x) ** 2, axis=(-2, -1)) * h
    return float(acc[~batch.diverged].mean())


def _yast_sums_reference(target, schedule, batch, t_index):
    """Y_t on the kept paths, the realized integral and the oracle quadrature."""
    keep = ~batch.diverged
    g_t = float(schedule.integrated_beta(1.0 - batch.times[t_index]))
    h = batch.times[1] - batch.times[0]
    integral = np.zeros((batch.paths, batch.d))
    quad = 0.0
    for k, beta, law, x in _per_step(target, schedule, batch, t_index):
        yk = law.score(x)
        if k == t_index:
            y_t = yk[keep]
        g_r = float(schedule.integrated_beta(law.t))
        g = beta * math.exp(0.5 * g_r)
        integral += g * yk * h
        quad += g * math.exp(-0.5 * (g_t - g_r)) * h
    return y_t, integral[keep], quad


def _gaussian_yast_reference(target, schedule, batch, t_index):
    """yast_check's Gaussian-oracle report from the per-step sums."""
    y_t, integral, quad = _yast_sums_reference(target, schedule, batch, t_index)
    t = float(batch.times[t_index])
    f_t = float(f_weight(schedule, t))
    g_t = float(schedule.integrated_beta(1.0 - t))
    x_t = batch.states[~batch.diverged, t_index]
    tower = f_t * integral - y_t
    resid = f_t * (-(x_t - math.exp(-0.5 * g_t) * target.means[0])) * quad - y_t
    rms = float(np.sqrt(np.mean(np.sum(resid**2, axis=-1))))
    scale = float(np.sqrt(np.mean(np.sum(y_t**2, axis=-1))))
    return YastReport(mode="gaussian", rms=rms, rms_relative=rms / max(scale, 1e-300),
                      tower_gap=float(np.abs(tower.mean(axis=0)).max()),
                      tower_se=float((tower.std(axis=0) / math.sqrt(x_t.shape[0])).max()),
                      paths=int(x_t.shape[0]), t_index=t_index)


ANISO = MixtureTarget([0.2, 0.5, 0.3], [[-1.0, 0.5, 0.0], [1.2, -0.4, 0.8], [0.1, 1.5, -1.1]],
                      [[2.0, 0.3, -0.2], [0.3, 0.7, 0.1], [-0.2, 0.1, 1.4]])

# (target, schedule, substeps, paths, chunk): 300 one-dimensional paths make
# blocks of 27 steps and 100 three-dimensional ones blocks of 9, neither
# dividing the walk; chunks of 128 paths (the samplers' chunk floor, with no
# budget) copy the noises out of three blocks
BLOCK_CASES = {
    "shifted_uneven": (SHIFTED, SCHED, 16, 300, None),
    "mixture_chunked": (MIX, SCHED, 8, 300, 128),
    "aniso_3d_uneven": (ANISO, constant_rate(5, 2.0), 4, 100, None),
    "one_path": (MIX, SCHED, 4, 1, None),
    "gaussian_uneven": (GAUSS, SCHED, 16, 300, None),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_blocked_walk_equals_the_per_step_walk_bit_for_bit(name):
    target, sched, substeps, paths, chunk = BLOCK_CASES[name]
    with (mock.patch.multiple(simulate, _MIN_CHUNK=chunk, _CHUNK_BUDGET=0) if chunk
          else nullcontext()):
        batch = reverse_sde(target, sched, substeps, paths, seed=13)
    last = batch.times.size - 1
    assert last % max(1, fbsde._BLOCK_FLOATS // (paths * target.d ** 2)) != 0
    for t_index in (0, 5, last - 1, last):
        assert (bsde_residual_both(batch, t_index)
                == _bsde_reference(target, sched, batch, t_index)), t_index
    assert z_energy(batch) == _z_energy_reference(target, sched, batch)
    if fbsde._gaussian_oracle(target):
        for t_index in (0, 5, last - 1):
            assert (yast_check(batch, t_index)
                    == _gaussian_yast_reference(target, sched, batch, t_index)), t_index


def test_blocked_walk_bit_for_bit_on_a_batch_with_diverged_paths():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = reverse_sde(MIX, constant_rate(10, 120.0), 2, 900, seed=3)
    assert 0 < batch.diverged.sum() < batch.paths
    for t_index in (0, 5, 18, 19, 20):
        assert (bsde_residual_both(batch, t_index)
                == _bsde_reference(MIX, batch.schedule, batch, t_index))
    assert z_energy(batch) == _z_energy_reference(MIX, batch.schedule, batch)


@pytest.mark.parametrize("t_index", [0, 5, 63])
def test_blocked_yast_regression_sums_bit_for_bit(monkeypatch, t_index):
    # regression mode fits the realized integral: the lstsq input must be the
    # per-step walk's, and so must Y_t
    sched = constant_rate(16, 4.0)
    batch = reverse_sde(MIX, sched, 4, 10_000, seed=10)
    seen = {}
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, rcond: (
        seen.setdefault("integral", b), lstsq(a, b, rcond=rcond))[1])
    rep = yast_check(batch, t_index)
    y_t, integral, _ = _yast_sums_reference(MIX, sched, batch, t_index)
    assert rep.mode == "regression"
    assert np.array_equal(seen["integral"], integral)
    f_t = float(f_weight(sched, batch.times[t_index]))
    tower = f_t * integral - y_t
    assert rep.tower_gap == float(np.abs(tower.mean(axis=0)).max())


@pytest.mark.parametrize("shape", [(1, 1, 1), (37, 1, 1), (37, 1), (9, 256, 1),
                                   (5, 4, 3), (40, 2)])
def test_block_fold_adds_rows_in_grid_order(shape):
    # the carry plus the block's rows, in order: a reduce along axis 0 sums
    # (37, 1, 1) pairwise, which a loop of += does not
    rng = np.random.default_rng(sum(shape))
    terms = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    carry = rng.normal(size=shape[1:])
    want = carry.copy()
    for row in terms:
        want += row
    assert np.array_equal(fbsde._fold(carry, terms.copy()), want)
