import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm

from ddpmlab import metrics
from ddpmlab.experiments import parse_config, run
from ddpmlab.metrics import (DensityGrid, denoise_identity_check,
                             fd_bin_edges, grid_from_density, kl,
                             score_growth_audit, score_loss,
                             tv_hist_two_samples, tv_hist_vs_density, tv,
                             write_metric_report)
from ddpmlab.schedule import constant_rate, from_linear_variance
from ddpmlab.simulate import ScoreModel, growth_clip, path_generator
from ddpmlab.target import (GaussianMixtureDensity, MixtureTarget, default_axis,
                            gaussian_target, growth_constants, symmetric_mixture)

MIX = symmetric_mixture()
SCHED = from_linear_variance(50, 1e-3, 0.05)
AXIS = np.linspace(-12.0, 12.0, 4001)


def _grid(density):
    return grid_from_density(density, (AXIS,))


def test_tv_self_is_zero():
    g = _grid(MIX)
    assert tv(g, g) == 0.0


def test_tv_gaussian_closed_form():
    value = tv(_grid(gaussian_target([0.0])), _grid(gaussian_target([1.0])))
    assert value == pytest.approx(2.0 * norm.cdf(0.5) - 1.0, abs=1e-6)


def test_tv_metric_axioms_on_mixture_triples():
    rng = np.random.default_rng(0)
    for _ in range(5):
        mus = rng.uniform(-2, 2, size=3)
        gs = [_grid(gaussian_target([m])) for m in mus]
        d01, d10 = tv(gs[0], gs[1]), tv(gs[1], gs[0])
        assert d01 == pytest.approx(d10, abs=1e-15)
        assert tv(gs[0], gs[2]) <= d01 + tv(gs[1], gs[2]) + 1e-12
        assert 0.0 <= d01 <= 1.0


def test_tv_requires_matching_grids():
    g1 = _grid(MIX)
    g2 = grid_from_density(MIX, (np.linspace(-10, 10, 4001),))
    with pytest.raises(ValueError):
        tv(g1, g2)


def test_kl_cases():
    g0, g1 = _grid(gaussian_target([0.0])), _grid(gaussian_target([1.5]))
    assert kl(g0, g0)[0] == pytest.approx(0.0, abs=1e-12)
    val, floored = kl(g0, g1)
    assert val == pytest.approx(1.5**2 / 2.0, abs=1e-6)
    assert floored == 0


def test_kl_phi_p1_decreases_with_total_noise():
    phi = _grid(gaussian_target([0.0]))
    vals = []
    for total in (1.0, 2.0, 4.0, 8.0):
        sched = constant_rate(20, total)
        vals.append(kl(phi, _grid(MIX.marginal_at(sched, 1.0)))[0])
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_pinsker_on_grids():
    pairs = [(gaussian_target([0.0]), gaussian_target([0.7])),
             (MIX, gaussian_target([0.0])),
             (MIX, MIX.marginal_at(SCHED, 0.4))]
    for p, q in pairs:
        gp, gq = _grid(p), _grid(q)
        assert tv(gp, gq) ** 2 <= 0.5 * kl(gp, gq)[0] + 1e-12


def test_density_grid_mass_tracking():
    g = _grid(MIX)
    assert g.mass_deficit() <= 1e-3
    dg = DensityGrid(axes=(AXIS,), values=np.zeros_like(AXIS), cell_volume=1.0)
    assert dg.mass == 0.0


def test_fd_bins_floor():
    edges = fd_bin_edges(MIX, 100)
    assert edges.size - 1 >= 64


def test_fd_bin_edges_build_one_cdf_grid_per_target(tmp_path, monkeypatch):
    # the IQR belongs to the immutable target: a tv-pipeline run's four
    # fd_bin_edges calls (its own, two girsanov_bound and one
    # schrodinger_bound) build one 4001-point CDF grid, and the histogram TVs
    # still read cdf_1d at the bin edges
    sizes, cdf = [], GaussianMixtureDensity.cdf_1d

    def counted(self, x):
        sizes.append(np.size(x))
        return cdf(self, x)

    monkeypatch.setattr(GaussianMixtureDensity, "cdf_1d", counted)
    run(parse_config("experiment = tv-pipeline\nschedule.kind = constant\n"
                     "schedule.n = 10\npaths = 500\nsamples = 300\n"
                     "biases = 0,0.5\n"), str(tmp_path))
    assert sizes.count(4001) == 1 and len(sizes) > 1
    # the edges are those of an IQR read off a grid built afresh, bit for bit
    for target in (symmetric_mixture(), gaussian_target([1.5], [[0.25]])):
        axis = default_axis(target, 4001)
        grid = cdf(target, axis)
        iqr = float(np.interp(0.75, grid, axis)) - float(np.interp(0.25, grid, axis))
        lo, hi = default_axis(target)[[0, -1]]
        for n in (100, 5000, 20000):
            bins = max(64, math.ceil((hi - lo) / (2.0 * iqr / n ** (1.0 / 3.0))))
            want = np.linspace(lo, hi, bins + 1)
            for _ in range(2):
                assert fd_bin_edges(target, n).tobytes() == want.tobytes()


def test_hist_tv_converges_to_grid_tv():
    # empirical histogram TV against the density approaches zero for matched
    # samples as the sample count grows
    def draw(n):
        out = np.empty(n)
        for i in range(n):
            out[i] = MIX.sample(path_generator(21, i), 1)[0, 0]
        return out

    small = draw(2000)
    big = np.concatenate([small, draw(20000)[2000:]])
    edges = fd_bin_edges(MIX, big.size)
    tv_small, _, _ = tv_hist_vs_density(small, MIX, edges)
    tv_big, _, _ = tv_hist_vs_density(big, MIX, edges)
    assert tv_big < tv_small


def test_hist_tv_two_samples_symmetric():
    rng = np.random.default_rng(3)
    a = rng.standard_normal(5000)
    b = rng.standard_normal(5000) + 0.5
    edges = fd_bin_edges(gaussian_target([0.0]), 5000)
    v1, se1 = tv_hist_two_samples(a, b, edges)
    v2, se2 = tv_hist_two_samples(b, a, edges)
    assert v1 == pytest.approx(v2, abs=1e-15)
    assert se1 == pytest.approx(se2, abs=1e-15)
    assert abs(v1 - (2.0 * norm.cdf(0.25) - 1.0)) <= 3.0 * se1 + 0.02


def test_hist_tv_rejects_empty_samples():
    edges = fd_bin_edges(MIX, 100)
    empty = np.empty((0, 1))
    full = np.zeros((5, 1))
    with pytest.raises(ValueError, match="tv_hist_vs_density: a sample set is empty"):
        tv_hist_vs_density(empty, MIX, edges)
    for a, b in ((empty, full), (full, empty)):
        with pytest.raises(ValueError,
                           match="tv_hist_two_samples: a sample set is empty"):
            tv_hist_two_samples(a, b, edges)


def test_score_loss_exact_model_is_zero():
    model = ScoreModel(MIX, SCHED, mode="exact")
    rep = score_loss(model, 500, seed=4)
    assert rep.loss <= 1e-20


def test_score_loss_matches_bias_squared():
    model = ScoreModel(MIX, SCHED, mode="perturbed", bias=0.7)
    rep = score_loss(model, 2000, seed=5)
    assert abs(rep.loss - 0.49) <= 3.0 * rep.std_err + 1e-12


def test_score_loss_clipped_exact_identical():
    exact = ScoreModel(MIX, SCHED, mode="exact")
    clipped = growth_clip(exact, growth_constants(MIX))
    a = score_loss(exact, 300, seed=6)
    b = score_loss(clipped, 300, seed=6)
    assert a.loss == b.loss


def test_clip_never_increases_loss():
    envelope = growth_constants(MIX)
    for bias in (0.5, 5.0, 50.0):
        raw = ScoreModel(MIX, SCHED, mode="perturbed", bias=bias)
        clipped = growth_clip(raw, envelope)
        lr = score_loss(raw, 500, seed=7)
        lc = score_loss(clipped, 500, seed=7)
        assert lc.loss <= lr.loss + 1e-12


def _model_on(target, mode):
    wild = ScoreModel(target, SCHED, mode="perturbed", bias=9.0, noise_amplitude=0.4)
    if mode in ("oracle", "projection"):  # c0 = 1, so that the clip acts at every step
        tight = dataclasses.replace(growth_constants(target), c0=1.0)
        return growth_clip(wild, tight, variant=mode)
    return wild if mode == "perturbed" else ScoreModel(target, SCHED, mode=mode)


MODES = ["exact", "perturbed", "oracle", "projection", "zero"]


@pytest.mark.parametrize("mode", MODES)
def test_score_loss_shares_the_truth_only_with_a_model_on_the_same_target(
        monkeypatch, mode):
    # s_step(i, x, truth) with the model's own law's score is s_step(i, x) bit
    # for bit and leaves truth as it was, so score_loss may hand the model the
    # truth it scored: its report is that of a model scoring x itself
    model = _model_on(MIX, mode)
    x = np.linspace(-40.0, 40.0, 801)[:, None]
    clipped = []
    for i in range(1, SCHED.n + 1):
        truth = model._laws[i - 1].score(x)
        kept = truth.copy()
        truth.flags.writeable = False
        assert model.s_step(i, x, truth).tobytes() == model.s_step(i, x).tobytes()
        assert truth.tobytes() == kept.tobytes()
        if mode in ("oracle", "projection"):
            inner = model._clip[0]
            clipped.append(model.s_step(i, x).tobytes() != inner.s_step(i, x).tobytes())
    assert all(clipped) if mode in ("oracle", "projection") else clipped == []
    given = []
    s_step = ScoreModel.s_step

    def spy(self, i, x, truth=None):
        given.append(truth is not None)
        return s_step(self, i, x, truth)

    monkeypatch.setattr(ScoreModel, "s_step", spy)
    shared = score_loss(model, 400, seed=12)
    assert given and all(given)
    monkeypatch.setattr(ScoreModel, "s_step", lambda self, i, x, truth=None:
                        s_step(self, i, x))
    alone = score_loss(model, 400, seed=12)
    for field in ("loss", "std_err", "per_step", "per_step_se", "samples"):
        assert np.array_equal(getattr(shared, field), getattr(alone, field)), field
    if mode != "exact":
        assert shared.loss > 0.0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("make", [symmetric_mixture, lambda: gaussian_target([1.5], [[0.5]])],
                         ids=["mixture", "gaussian"])
def test_identity_check_scores_each_side_once_with_a_model_on_the_same_target(
        monkeypatch, make, mode):
    # one score call per side and step: the model is handed the truth
    calls = []
    score = GaussianMixtureDensity.score

    def counted(self, x):
        calls.append(len(x))
        return score(self, x)

    monkeypatch.setattr(GaussianMixtureDensity, "score", counted)
    rep = denoise_identity_check(_model_on(make(), mode), 400, seed=13)
    assert calls == [200] * (2 * SCHED.n)
    assert rep.samples == 400
    if mode != "exact":
        assert rep.pooled_lhs > 0.0


@pytest.mark.parametrize("samples", [1, 0, -5])
def test_identity_check_needs_a_pair(monkeypatch, samples):
    # refused before any draw, where it once ran one pair and reported 2 samples
    drawn = []
    monkeypatch.setattr(metrics, "_draw_block", lambda *args, **kw: drawn.append(args))
    model = ScoreModel(MIX, constant_rate(10, 2.0), mode="perturbed", bias=1.0)
    with pytest.raises(ValueError, match=r"^samples must be >= 2$"):
        denoise_identity_check(model, samples, seed=1)
    assert drawn == []
    monkeypatch.undo()
    assert denoise_identity_check(ScoreModel(MIX, constant_rate(10, 2.0)), 2,
                                  seed=1).samples == 2


def test_identity_check_biased_model():
    model = ScoreModel(MIX, SCHED, mode="perturbed", bias=1.0)
    rep = denoise_identity_check(model, 20000, seed=8)
    # identity is exact: the pooled gap is pure Monte Carlo noise
    assert abs(rep.pooled_gap) <= 3.0 * rep.pooled_gap_se
    assert rep.max_step_z <= 3.0
    assert rep.pooled_lhs == pytest.approx(1.0, rel=1e-12)


def test_identity_check_exact_model_consistency():
    model = ScoreModel(MIX, SCHED, mode="exact")
    rep = denoise_identity_check(model, 20000, seed=9)
    assert rep.pooled_lhs <= 1e-20
    # gap is LHS - RHS = -RHS here; must vanish within noise
    assert abs(rep.pooled_gap) <= 3.0 * rep.pooled_gap_se + 1e-12


def test_identity_check_single_step_quadrature_oracle():
    # n = 1, x0 nearly deterministic at 0, alpha_1 = 1/2: both sides reduce
    # to one-dimensional Gaussian integrals
    from ddpmlab.schedule import NoiseSchedule

    tight = gaussian_target([0.0], [[1e12]])
    sched = NoiseSchedule([0.5])
    bias = 0.8
    model = ScoreModel(tight, sched, mode="perturbed", bias=bias)
    rep = denoise_identity_check(model, 40000, seed=10)
    # LHS = |bias|^2 exactly; RHS differs only by Monte Carlo noise
    assert rep.pooled_lhs == pytest.approx(bias**2, rel=1e-3)
    assert abs(rep.pooled_gap) <= 3.0 * rep.pooled_gap_se + 1e-10
    # quadrature for E|s - g|^2 + E|c|^2 - E|g|^2 with g = -Z/sigma
    law = tight.marginal_at(sched, 1.0)
    x = np.linspace(-8, 8, 20001)
    w = x[1] - x[0]
    dens = law.pdf(x[:, None])
    c = law.score(x[:, None])[:, 0]
    s = c + bias
    sig2 = 1.0 - sched.alpha_bars[0]
    # E|s - g|^2 with x_1 = sigma Z (x0 ~ 0): g = -x_1/sigma^2
    g = -x / sig2
    rhs_quad = (np.sum((s - g) ** 2 * dens) + np.sum(c * c * dens)
                - np.sum(g * g * dens)) * w
    assert rhs_quad == pytest.approx(bias**2, rel=1e-3)


def test_identity_gap_shrinks_with_samples():
    model = ScoreModel(MIX, SCHED, mode="perturbed", bias=0.5)
    sizes = (100, 1000, 10000, 100000)
    gaps = []
    for samples in sizes:
        rep = denoise_identity_check(model, samples, seed=11)
        gaps.append(rep.pooled_gap_se)
    slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)


def test_growth_audit_pass_and_fail():
    envelope = growth_constants(MIX)
    ok = score_growth_audit(MIX, SCHED, envelope)
    assert ok.ok and ok.worst_margin >= 0.0
    bad = score_growth_audit(MIX, SCHED,
                             type(envelope)(c0=0.0, c1=envelope.c1, lambda_min=1.0))
    assert not bad.ok
    assert bad.worst_margin < 0.0


def test_metric_report_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_metric_report(tmp_path / "m.csv", [("x", 0, float("nan"), 0.0, 1)])
    write_metric_report(tmp_path / "m.csv", [("x", 0, 1.5, 0.1, 10)])
    assert (tmp_path / "m.csv").read_text().splitlines()[0] == \
        "name,i_or_t,value,std_err,samples"


MIX2 = MixtureTarget([0.3, 0.7], [[-1.0, 0.5], [1.5, -0.5]], [[1.5, 0.4], [0.4, 0.8]])


def test_grid_from_density_on_two_axes():
    ax, ay = default_axis(MIX2, 161), default_axis(MIX2, 201)
    grid = grid_from_density(MIX2, (ax, ay))
    # the first axis indexes rows
    assert grid.values.shape == (161, 201)
    assert grid.values[40, 150] == pytest.approx(
        float(MIX2.pdf(np.array([ax[40], ay[150]]))), rel=1e-12)
    assert grid.cell_volume == pytest.approx((ax[1] - ax[0]) * (ay[1] - ay[0]), rel=1e-15)
    assert grid.mass_deficit() < 1e-6
    later = grid_from_density(MIX2.marginal_at(SCHED, 0.5), (ax, ay))
    assert later.mass_deficit() < 1e-6
    assert tv(grid, grid) == 0.0
    assert 0.0 < tv(grid, later) < 1.0
    value, floored = kl(grid, later)
    assert value > 0.0 and floored == 0


def test_score_growth_audit_default_points_in_two_dimensions():
    ax = default_axis(MIX2, 101)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    points = np.column_stack([xx.ravel(), yy.ravel()])
    envelope = growth_constants(MIX2)
    t_grid = [0.0, 0.3, 0.9]
    audit = score_growth_audit(MIX2, SCHED, envelope, t_grid=t_grid)
    assert audit == score_growth_audit(MIX2, SCHED, envelope, t_grid=t_grid, points=points)
    assert audit.ok


def test_grid_from_density_refuses_negative_values():
    with pytest.raises(ValueError, match=r"^density values must be finite and "
                                         r"nonnegative$"):
        grid_from_density(lambda x: np.where(x[:, 0] > 0.0, -1e-300, 1.0), [AXIS])


def test_score_loss_needs_a_sample():
    model = ScoreModel(MIX, SCHED, mode="exact")
    with pytest.raises(ValueError, match=r"^samples must be >= 1$"):
        score_loss(model, 0, seed=1)
