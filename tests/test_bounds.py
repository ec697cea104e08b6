import math
import warnings

import numpy as np
import pytest

from ddpmlab.bounds import (banded_schedule_terms, girsanov_bound, moment_report,
                            schrodinger_bound, tv_bound_terms,
                            write_bound_reports)
from ddpmlab.metrics import fd_bin_edges
from ddpmlab.schedule import constant_rate, from_linear_variance
from ddpmlab.simulate import ScoreModel, reverse_sde
from ddpmlab.target import (MixtureTarget, gaussian_target, growth_constants,
                            symmetric_mixture)

MIX = symmetric_mixture()


def test_tv_bound_term_breakdown():
    sched = from_linear_variance(1000, 1e-4, 0.02)
    envelope = growth_constants(MIX)
    terms = tv_bound_terms(sched, 1, 0.0, envelope)
    assert terms["T2"] == 0.0
    assert terms["T1"] == pytest.approx(math.sqrt(sched.alpha_bar_n), rel=1e-12)
    # cross-check alpha_bar via the direct product
    assert sched.alpha_bar_n == pytest.approx(float(np.prod(sched.alphas)),
                                              rel=1e-12)
    c_terms = tv_bound_terms(sched, 1, 0.0,
                             type(envelope)(c0=3.0, c1=1.1, lambda_min=1.0))
    assert c_terms["c2"] == pytest.approx(45.8)
    with pytest.raises(ValueError):
        tv_bound_terms(sched, 1, -1.0, envelope)


def test_tv_bound_t3_overflow_reported_in_logs():
    sched = from_linear_variance(1000, 1e-4, 0.02)
    terms = tv_bound_terms(sched, 1, 1e-4, growth_constants(MIX))
    assert math.isfinite(terms["log_T3"])
    assert terms["T3"] == math.inf or terms["T3"] > 0.0


def test_banded_schedule_term_breakdown():
    vals = banded_schedule_terms(1000, 0.15, 30.67, 1, 0.0, 0.1)
    assert vals["T2"] == 0.0
    with_loss = banded_schedule_terms(1000, 0.15, 30.67, 1, 1e-4, 0.1)
    assert with_loss["T3"] <= with_loss["T1"]
    # terms 1 and 3 decrease in n
    for key in ("T1", "T3"):
        seq = [banded_schedule_terms(n, 0.15, 30.67, 1, 1e-4, 0.1)[key]
               for n in (100, 1000, 10000)]
        assert seq[0] > seq[1] > seq[2]
    with pytest.raises(ValueError):
        banded_schedule_terms(10, 0.15, 30.67, 1, 0.0, 0.1)
    with pytest.raises(ValueError):
        banded_schedule_terms(1000, 0.15, 30.67, 1, 0.0, 1.5)


def test_moment_report_standard_gaussian():
    g = gaussian_target([0.0])
    sched = constant_rate(10, 2.0)
    batch = reverse_sde(g, sched, 4, 4000, seed=1)
    rep = moment_report(batch, growth_constants(g))
    assert rep["all_finite"]
    dev = np.abs(rep["second_moment"] - 1.0) / rep["second_moment_se"]
    assert dev.max() <= 4.0


def test_moment_report_shifted_gaussian_ou_oracle():
    # X - m mu0 is a stationary unit-variance OU bridge started from
    # N(-m(0) mu0, 1), so E|X_t|^2 = 1 + (mean drift)^2 in closed form
    mu0 = 1.5
    g = gaussian_target([mu0])
    sched = constant_rate(10, 2.0)
    batch = reverse_sde(g, sched, 8, 6000, seed=2)
    rep = moment_report(batch, growth_constants(g))
    times = rep["times"]
    for idx in range(0, times.size, 20):
        r = times[idx]
        a_r = math.exp(-0.5 * sched.integrated_beta(1.0 - r))
        a_0 = math.exp(-0.5 * sched.integrated_beta(1.0))
        decay = math.exp(-0.5 * (sched.integrated_beta(1.0)
                                 - sched.integrated_beta(1.0 - r)))
        mean = a_r * mu0 - decay * a_0 * mu0
        expected = 1.0 + mean**2
        z = abs(rep["second_moment"][idx] - expected) / rep["second_moment_se"][idx]
        assert z <= 4.0, (r, rep["second_moment"][idx], expected)


def test_schrodinger_bound_standard_gaussian():
    g = gaussian_target([0.0])
    sched = constant_rate(50, 4.0)
    batch = reverse_sde(g, sched, 2, 20000, seed=3, record="terminal")
    rep = schrodinger_bound(batch)
    assert rep.verdict == "holds"
    assert rep.lhs <= 0.05
    assert rep.rhs > 0.0
    assert rep.terms["m"] == pytest.approx(math.sqrt(sched.alpha_bar_n), rel=1e-12)


def test_schrodinger_bound_mixture_and_monotone_rhs():
    sched = from_linear_variance(50, 1e-3, 0.05)
    batch = reverse_sde(MIX, sched, 2, 20000, seed=4, record="terminal")
    rep = schrodinger_bound(batch)
    assert rep.verdict == "holds"
    rhs_values = []
    for total in (1.0, 2.0, 4.0, 8.0):
        s = constant_rate(20, total)
        b = reverse_sde(MIX, s, 1, 2000, seed=5, record="terminal")
        rhs_values.append(schrodinger_bound(b).rhs)
    assert all(b < a for a, b in zip(rhs_values, rhs_values[1:]))


def test_girsanov_bound_biased_model():
    sched = from_linear_variance(50, 1e-3, 0.05)
    model = ScoreModel(MIX, sched, mode="perturbed", bias=0.5)
    rep = girsanov_bound(MIX, sched, model, 20000, 2, seed=6)
    assert rep.verdict == "holds"
    assert rep.notes["excluded_paths"] == 0
    assert rep.lhs <= rep.rhs + 3.0 * rep.lhs_se


def test_girsanov_bound_zero_score_ou_oracle():
    # zero model on N(0,I): kappa = score = -X*, and X* is stationary, so
    # E* int beta |kappa|^2 dt = d * int_0^1 beta = total
    g = gaussian_target([0.0])
    total = 2.0
    sched = constant_rate(25, total)
    model = ScoreModel(g, sched, mode="zero")
    rep = girsanov_bound(g, sched, model, 20000, 2, seed=7)
    energy = rep.terms["kappa_energy"]
    assert abs(energy - total) <= 3.0 * rep.terms["kappa_energy_se"] + 0.05
    assert rep.rhs == pytest.approx(0.5 * math.sqrt(energy), rel=1e-12)
    assert rep.verdict == "holds"


def test_girsanov_exact_model_discretization_only():
    sched = constant_rate(50, 4.0)
    model = ScoreModel(MIX, sched, mode="exact")
    rep = girsanov_bound(MIX, sched, model, 8000, 2, seed=8)
    biased = girsanov_bound(MIX, sched,
                            ScoreModel(MIX, sched, mode="perturbed", bias=0.5),
                            8000, 2, seed=8)
    assert rep.rhs < biased.rhs
    assert rep.verdict == "holds"


def test_girsanov_all_paths_excluded_raises():
    sched = constant_rate(20, 4.0)
    model = ScoreModel(MIX, sched, mode="perturbed", bias=1e7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="all 300 paths were excluded.*0 on the "
                                 "exact-score path, 300 on the frozen-score"):
            girsanov_bound(MIX, sched, model, 300, 2, seed=3)


D3 = MixtureTarget([0.5, 0.5], [[-1.0, 0.0, 0.5], [1.0, 0.0, -0.5]], np.eye(3))
D3_SCHED = constant_rate(20, 4.0)
D1_ONLY = {
    "girsanov_bound": lambda: girsanov_bound(
        D3, D3_SCHED, ScoreModel(D3, D3_SCHED), 10, 1, seed=1),
    "schrodinger_bound": lambda: schrodinger_bound(reverse_sde(D3, D3_SCHED, 1, 10, seed=1)),
    "fd_bin_edges": lambda: fd_bin_edges(D3, 100),
}


@pytest.mark.parametrize("name", sorted(D1_ONLY))
def test_d1_only_functions_name_themselves_and_d(name):
    with pytest.raises(ValueError, match=rf"^{name}: .* d == 1, got d = 3$"):
        D1_ONLY[name]()


def test_girsanov_kappa_energy_matches_public_replay():
    # the kappa energy, refolded from public exact-score states in the bound's
    # summation order: beta |grad log p - s_frozen(interval start)|^2 h per step
    sched = constant_rate(20, 4.0)
    substeps, paths = 3, 200
    model = ScoreModel(MIX, sched, mode="perturbed", bias=0.4,
                       noise_amplitude=0.5)
    rep = girsanov_bound(MIX, sched, model, paths, substeps, seed=4)
    batch = reverse_sde(MIX, sched, substeps, paths, seed=4, record="full")
    times = batch.times
    h = 1.0 / (times.size - 1)
    energy = np.zeros(paths)
    for k in range(times.size - 1):
        interval = sched.n - k // substeps
        beta = -sched.n * sched.log_alphas[interval - 1]
        start = batch.states[:, k - k % substeps]
        truth = MIX.marginal_at(sched, 1.0 - times[k]).score(batch.states[:, k])
        kap = truth - model.s_frozen(interval, start)
        energy += beta * np.sum(kap * kap, axis=-1) * h
    assert rep.notes["excluded_paths"] == 0
    assert rep.terms["kappa_energy"] == float(energy.mean())


def test_bound_report_csv(tmp_path):
    g = gaussian_target([0.0])
    sched = constant_rate(20, 2.0)
    batch = reverse_sde(g, sched, 1, 4000, seed=9, record="terminal")
    rep = schrodinger_bound(batch)
    path = tmp_path / "bounds.csv"
    write_bound_reports(path, [rep])
    lines = path.read_text().splitlines()
    assert lines[0] == "bound,term,value,empirical,std_err,verdict"
    assert lines[1].startswith("schrodinger,total,")
    assert lines[1].endswith(",holds")


def test_girsanov_rhs_halforder_in_n_with_exact_score():
    # with exact scores kappa is pure time discretization; the bound's RHS
    # scales like n^(-1/2) over constant-alpha schedules at fixed total noise
    rhs = []
    ns = [10, 20, 40, 80]
    for n in ns:
        sched = constant_rate(n, 4.0)
        model = ScoreModel(MIX, sched, mode="exact")
        rhs.append(girsanov_bound(MIX, sched, model, 4000, 2, seed=10).rhs)
    slope = np.polyfit(np.log(ns), np.log(rhs), 1)[0]
    assert -0.7 <= slope <= -0.3


def test_bound_verdicts_stable_under_more_paths():
    sched = from_linear_variance(50, 1e-3, 0.05)
    model = ScoreModel(MIX, sched, mode="perturbed", bias=0.5)
    small = girsanov_bound(MIX, sched, model, 4000, 2, seed=11)
    big = girsanov_bound(MIX, sched, model, 16000, 2, seed=11)
    assert small.verdict == big.verdict == "holds"


def test_all_diverged_batch_raises_in_schrodinger_and_moment_report():
    sched = constant_rate(20, 690.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = reverse_sde(MIX, sched, 2, 200, seed=5, record="full")
    assert batch.diverged.all()
    limit = r"all 200 paths were excluded for leaving the 1e\+06 norm limit$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^schrodinger_bound: {limit}"):
            schrodinger_bound(batch)
        with pytest.raises(ValueError, match=rf"^moment_report: {limit}"):
            moment_report(batch, growth_constants(MIX))
