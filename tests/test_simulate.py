import gc
import importlib
import inspect
import math
import os
import re
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddpmlab import simulate
from ddpmlab.bounds import girsanov_bound
from ddpmlab.schedule import constant_rate, from_linear_variance
from ddpmlab.simulate import (ScoreModel, _chunk_size, _draw_block, _shared_noise,
                              ddpm_sample, forward_chain, growth_clip, path_generator,
                              reverse_sde, reverse_transition_density)
from ddpmlab.target import (GrowthConstants, MixtureTarget, gaussian_target,
                            growth_constants, load_target, symmetric_mixture)

MIX = symmetric_mixture()
SCHED = constant_rate(20, 4.0)


def _chunks_of(size):
    """Run the samplers in chunks of `size` paths, through the two constants
    `_chunk_size` reads (a floor of `size`, no budget); the last chunk is
    ragged, unless it would hold one path, which grows every chunk by one
    until none does.  None keeps the default size."""
    if size is None:
        return nullcontext()
    return mock.patch.multiple(simulate, _MIN_CHUNK=size, _CHUNK_BUDGET=0)


def test_forward_chain_stationary_covariance():
    g = gaussian_target([0.0])
    paths = 4000
    batch = forward_chain(g, SCHED, paths, seed=1)
    tol = 5.0 * math.sqrt(2.0 / paths)
    for i in range(SCHED.n + 1):
        var = batch.states[:, i, 0].var()
        assert abs(var - 1.0) <= tol


def test_forward_chain_single_step_kernel():
    # nearly deterministic start, one step: x_1 ~ N(sqrt(alpha) mu, 1 - alpha)
    mu = 2.0
    tight = gaussian_target([mu], [[1e12]])
    s1 = constant_rate(1, 0.5)
    batch = forward_chain(tight, s1, 20000, seed=2)
    a = s1.alphas[0]
    x1 = batch.states[:, 1, 0]
    assert x1.mean() == pytest.approx(math.sqrt(a) * mu, abs=4.0 * math.sqrt((1 - a) / 20000))
    assert x1.var() == pytest.approx(1.0 - a, rel=0.05)


def test_forward_chain_terminal_mean_telescopes():
    batch = forward_chain(gaussian_target([3.0]), SCHED, 20000, seed=3)
    expected = math.sqrt(SCHED.alpha_bar_n) * 3.0
    xn = batch.states[:, -1, 0]
    assert xn.mean() == pytest.approx(expected, abs=4.0 / math.sqrt(20000))


def test_noise_sanity():
    batch = forward_chain(MIX, SCHED, 2000, seed=4)
    mean_dev, var_dev, ok = batch.noise_sanity()
    assert ok, (mean_dev, var_dev)


@settings(deadline=None, max_examples=60)
@given(st.floats(0.05, 0.999), st.floats(0.01, 0.99), st.floats(-5, 5),
       st.floats(-3, 3))
def test_exponential_integrator_update_identity(alpha, abar, x, z):
    # (x - (1-a)/sqrt(1-abar) z)/sqrt(a) == x/sqrt(a) + 2 s (1-sqrt(a))/sqrt(a)
    # with s = -(1+sqrt(a))/(2 sqrt(1-abar)) z
    lhs = (x - (1.0 - alpha) / math.sqrt(1.0 - abar) * z) / math.sqrt(alpha)
    s = -(1.0 + math.sqrt(alpha)) / (2.0 * math.sqrt(1.0 - abar)) * z
    rhs = x / math.sqrt(alpha) + 2.0 * s * (1.0 - math.sqrt(alpha)) / math.sqrt(alpha)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_ddpm_equals_exponential_integrator_pathwise():
    model = ScoreModel(MIX, SCHED, mode="exact")
    dd = ddpm_sample(model, SCHED, 200, seed=5)
    rev = reverse_sde(model, SCHED, 1, 200, seed=5, score_mode="model")
    # ddpm column j holds x*_{n-j}, matching the reverse grid directly
    assert np.abs(dd.states - rev.states).max() <= 1e-12
    # replay the exponential-integrator update x/sqrt(a) + 2 s (1 - sqrt(a))/sqrt(a)
    # + sqrt((1 - a)/a) z, s = s_frozen, on the sampler's own start and noise
    x = dd.states[:, 0]
    for k in range(SCHED.n):
        i = SCHED.n - k
        alpha = SCHED.alphas[i - 1]
        ra = math.sqrt(alpha)
        x = (x / ra + 2.0 * model.s_frozen(i, x) * (1.0 - ra) / ra
             + math.sqrt((1.0 - alpha) / alpha) * dd.noises[:, k])
        assert np.abs(dd.states[:, k + 1] - x).max() <= 1e-12


BENCH_FIXTURE = load_target(os.path.join(os.path.dirname(__file__), os.pardir,
                                         "bench", "pathwise_3d_target.txt"))
SEPARATED = [(f"sep{a:g}", symmetric_mixture(separation=a))
             for a in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)] + [
    (f"fixture_means_x{c}", MixtureTarget(BENCH_FIXTURE.weights,
                                          c * BENCH_FIXTURE.means, BENCH_FIXTURE.q))
    for c in (1, 2, 4)]


@pytest.mark.parametrize("target", [t for _, t in SEPARATED],
                         ids=[name for name, _ in SEPARATED])
def test_ddpm_equals_model_mode_reverse_bit_for_bit(target):
    # one-substep model-mode reverse_sde runs ddpm_sample's own step on the
    # same grid and noise, so the two agree exactly at any component
    # separation, in either record mode and however the paths are chunked
    # (ddpm column j holds x*_{n-j}, matching the reverse grid directly).
    # 2000 unchunked paths include paths that cross between components, where
    # two arithmetic orders drift furthest apart; chunks of 7 step 200 paths,
    # a ragged last chunk included
    sched = from_linear_variance(100, 1e-4, 0.05)
    model = ScoreModel(target, sched, mode="exact")
    for record in ("full", "terminal"):
        for chunk, paths in ((None, 2000), (7, 200)):
            with _chunks_of(chunk):
                dd = ddpm_sample(model, sched, paths, seed=3, record=record)
                rev = reverse_sde(model, sched, 1, paths, seed=3, score_mode="model",
                                  record=record)
            assert not dd.diverged.any()
            np.testing.assert_array_equal(rev.diverged, dd.diverged)
            np.testing.assert_array_equal(rev.states, dd.states)
            np.testing.assert_array_equal(rev.times, dd.times)


def test_ddpm_final_noise_flag():
    s1 = constant_rate(1, 0.5)
    model = ScoreModel(MIX, s1, mode="zero")
    batch = ddpm_sample(model, s1, 500, seed=6, final_noise=False)
    a = s1.alphas[0]
    expected = batch.states[:, 0, 0] / math.sqrt(a)
    assert np.allclose(batch.states[:, 1, 0], expected, atol=1e-14)


def test_ddpm_exact_score_standard_gaussian_variance_recursion():
    # for N(0, I) the update contracts by sqrt(alpha); v_{i-1} = a v_i + (1-a)/a
    g = gaussian_target([0.0])
    model = ScoreModel(g, SCHED, mode="exact")
    batch = ddpm_sample(model, SCHED, 30000, seed=7)
    v = 1.0
    for a in SCHED.alphas[::-1]:
        v = a * v + (1.0 - a) / a
    term_var = batch.terminal_states[:, 0].var()
    assert term_var == pytest.approx(v, rel=0.05)


def _ddpm_gaussian_law(mean, var, schedule, bias, final_noise):
    """Terminal mean and variance of ddpm_sample on the 1-D target N(mean, var)
    with the score shifted by `bias`.  The marginal p_i is N(sqrt(abar_i) mean,
    v_i) with v_i = abar_i var + 1 - abar_i, so each step is affine:
    x -> a_i x + c_i + sigma_i xi from N(0, 1), sigma_1 dropped without final
    noise."""
    m, v = 0.0, 1.0
    for i in range(schedule.n, 0, -1):
        alpha, abar = schedule.alphas[i - 1], schedule.alpha_bars[i - 1]
        v_i = abar * var + 1.0 - abar
        a = (1.0 - (1.0 - alpha) / v_i) / math.sqrt(alpha)
        c = (1.0 - alpha) * (math.sqrt(abar) * mean / v_i + bias) / math.sqrt(alpha)
        noise = schedule.sigmas[i - 1] ** 2 if i > 1 or final_noise else 0.0
        m, v = a * m + c, a * a * v + noise
    return m, v


@pytest.mark.parametrize("schedule", [constant_rate(10, 4.0), constant_rate(100, 4.0),
                                      from_linear_variance(100, 1e-4, 0.02)],
                         ids=["const10", "const100", "lin100"])
@pytest.mark.parametrize("bias", [0.0, 0.5])
@pytest.mark.parametrize("final_noise", [True, False])
def test_ddpm_terminal_law_matches_the_gaussian_closed_form(schedule, bias, final_noise):
    # the terminal law is Gaussian, so the sample variance has SE v sqrt(2/(N-1))
    mean, var, paths = 1.5, 4.0, 40000
    model = ScoreModel(gaussian_target([mean], [[1.0 / var]]), schedule,
                       mode="perturbed", bias=bias)
    batch = ddpm_sample(model, schedule, paths, seed=3, final_noise=final_noise,
                        record="terminal")
    x = batch.terminal_states[:, 0]
    m, v = _ddpm_gaussian_law(mean, var, schedule, bias, final_noise)
    assert not batch.diverged.any()
    assert abs(x.mean() - m) <= 4.0 * math.sqrt(v / paths)
    assert abs(x.var(ddof=1) - v) <= 4.0 * v * math.sqrt(2.0 / (paths - 1))


def _reverse_gaussian_law(target, schedule, substeps):
    """Terminal mean and variance of exact-mode reverse_sde on a 1-D Gaussian.
    The marginal at t is N(m_t mean, v_t), v_t = m_t^2 var + s_t^2, so each
    Euler step x + (beta x / 2 + beta s(x)) h + sqrt(beta h) xi is affine:
    x -> a x + c + sqrt(beta h) xi, from X_0 ~ N(0, 1)."""
    mean, var = target.means[0, 0], target.covariance[0, 0]
    steps = schedule.n * substeps
    h = 1.0 / steps
    m, v = 0.0, 1.0
    for k in range(steps):
        law = target.marginal_at(schedule, 1.0 - k * h)
        v_t = law.m ** 2 * var + law.s ** 2
        beta = -schedule.n * schedule.log_alphas[schedule.n - 1 - k // substeps]
        a = 1.0 + (0.5 - 1.0 / v_t) * beta * h
        c = beta * h * law.m * mean / v_t
        m, v = a * m + c, a * a * v + beta * h
    return m, v


@pytest.mark.parametrize("schedule", [constant_rate(10, 4.0),
                                      from_linear_variance(100, 1e-4, 0.02)],
                         ids=["const10", "lin100"])
@pytest.mark.parametrize("substeps", [1, 3])
def test_reverse_sde_terminal_law_matches_the_gaussian_closed_form(schedule, substeps):
    # the score's x P term is the d = 1 broadcast product on every step
    target, paths = gaussian_target([1.5], [[0.25]]), 40000
    batch = reverse_sde(target, schedule, substeps, paths, seed=5, record="terminal")
    x = batch.terminal_states[:, 0]
    m, v = _reverse_gaussian_law(target, schedule, substeps)
    assert not batch.diverged.any()
    assert abs(x.mean() - m) <= 4.0 * math.sqrt(v / paths)
    assert abs(x.var(ddof=1) - v) <= 4.0 * v * math.sqrt(2.0 / (paths - 1))


def _reverse_model_gaussian_law(mean, var, schedule, substeps, bias):
    """Terminal mean and variance of model-mode reverse_sde (substeps >= 2) on
    a 1-D Gaussian with a biased exact model.  Over interval i the frozen
    score (1 + sqrt(alpha_i)) / 2 (-(x_tau - m_i mean) / v_i + bias) is
    A x_tau + C, so each Euler substep keeps x = p x_tau + q + noise of
    variance w, independent of x_tau; from X_0 ~ N(0, 1)."""
    h = 1.0 / (schedule.n * substeps)
    m, v = 0.0, 1.0
    for i in range(schedule.n, 0, -1):
        alpha, abar = schedule.alphas[i - 1], schedule.alpha_bars[i - 1]
        v_i = abar * var + 1.0 - abar
        c = 0.5 * (1.0 + math.sqrt(alpha))
        big_a, big_c = -c / v_i, c * (math.sqrt(abar) * mean / v_i + bias)
        beta = -schedule.n * schedule.log_alphas[i - 1]
        a = 1.0 + 0.5 * beta * h
        p, q, w = 1.0, 0.0, 0.0
        for _ in range(substeps):
            p, q = a * p + beta * h * big_a, a * q + beta * h * big_c
            w = a * a * w + beta * h
        m, v = p * m + q, p * p * v + w
    return m, v


@pytest.mark.parametrize("schedule", [constant_rate(10, 4.0),
                                      from_linear_variance(100, 1e-4, 0.02)],
                         ids=["const10", "lin100"])
@pytest.mark.parametrize("substeps", [2, 3])
@pytest.mark.parametrize("bias", [0.0, 0.5])
def test_model_reverse_sde_terminal_law_matches_the_gaussian_closed_form(schedule,
                                                                          substeps, bias):
    mean, var, paths = 1.5, 4.0, 40000
    model = ScoreModel(gaussian_target([mean], [[1.0 / var]]), schedule,
                       mode="perturbed", bias=bias)
    batch = reverse_sde(model, schedule, substeps, paths, seed=5,
                        score_mode="model", record="terminal")
    x = batch.terminal_states[:, 0]
    m, v = _reverse_model_gaussian_law(mean, var, schedule, substeps, bias)
    assert not batch.diverged.any()
    assert abs(x.mean() - m) <= 4.0 * math.sqrt(v / paths)
    assert abs(x.var(ddof=1) - v) <= 4.0 * v * math.sqrt(2.0 / (paths - 1))


def test_zero_score_terminal_moment_recursion():
    model = ScoreModel(MIX, SCHED, mode="zero")
    batch = reverse_sde(model, SCHED, 1, 30000, seed=8, score_mode="model")
    v = 1.0
    for a in SCHED.alphas[::-1]:
        v = v / a + (1.0 - a) / a
    term_var = batch.terminal_states[:, 0].var()
    assert term_var == pytest.approx(v, rel=0.05)


def test_reverse_sde_exact_standard_gaussian_stationary():
    g = gaussian_target([0.0])
    batch = reverse_sde(g, SCHED, 4, 4000, seed=9)
    tol = 6.0 * math.sqrt(2.0 / 4000)
    for k in range(0, batch.times.size, 10):
        assert abs(batch.states[:, k, 0].var() - 1.0) <= tol


def test_reverse_sde_replay_from_retained_noises():
    batch = reverse_sde(MIX, SCHED, 3, 50, seed=10)
    times = batch.times
    h = times[1] - times[0]
    x = batch.states[:, 0, :].copy()
    for k in range(times.size - 1):
        beta = float(-SCHED.n * SCHED.log_alphas[SCHED.n - 1 - k // 3])
        law = MIX.marginal_at(SCHED, 1.0 - times[k])
        drift = 0.5 * beta * x + beta * law.score(x)
        x = x + drift * h + math.sqrt(beta * h) * batch.noises[:, k]
        np.testing.assert_array_equal(x, batch.states[:, k + 1, :])


def test_bit_determinism_and_chunk_invariance():
    a = reverse_sde(MIX, SCHED, 2, 300, seed=11)
    with _chunks_of(7):
        b = reverse_sde(MIX, SCHED, 2, 300, seed=11)
    np.testing.assert_array_equal(a.states, b.states)
    c = ddpm_sample(ScoreModel(MIX, SCHED, mode="exact"), SCHED, 300, seed=11)
    with _chunks_of(13):
        d = ddpm_sample(ScoreModel(MIX, SCHED, mode="exact"), SCHED, 300, seed=11)
    np.testing.assert_array_equal(c.states, d.states)
    # a fresh path index always reproduces its stream
    g1 = path_generator(11, 5).standard_normal(8)
    g2 = path_generator(11, 5).standard_normal(8)
    np.testing.assert_array_equal(g1, g2)


@pytest.mark.parametrize("with_uniform", [True, False])
@pytest.mark.parametrize("d", [1, 3])
def test_draw_block_matches_fresh_path_generators(with_uniform, d):
    # the chunk's one re-keyed generator must draw, path by path, exactly
    # what a freshly built path_generator(seed, start + j) draws
    # (the seeds and the last start reach the top of the 64-bit key words)
    steps = 5
    for seed, start in [(11, s) for s in (0, 5, 2**33)] + [
            (2**63 + 5, 2**64 - 8), (2**64 - 1, 0), (2**64 - 1, 2**64 - 8)]:
        for count in (1, 7):
            u, z = _draw_block(seed, start, count, steps, d, with_uniform)
            want_u, want_z = [], []
            for j in range(count):
                gen = path_generator(seed, start + j)
                if with_uniform:
                    want_u.append(gen.random())
                want_z.append(gen.standard_normal((steps, d)))
            np.testing.assert_array_equal(z, np.stack(want_z, axis=1))
            if with_uniform:
                np.testing.assert_array_equal(u, np.array(want_u))
            else:
                assert u is None


@pytest.mark.parametrize("tiles, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                         ids=["1", "T-1", "T", "T+1", "2T+3"])
@pytest.mark.parametrize("with_uniform", [True, False])
@pytest.mark.parametrize("d", [1, 3])
def test_draw_block_columns_match_fresh_draws_across_tiles(d, with_uniform, tiles,
                                                           extra):
    # paths are drawn a tile of T paths at a time, then copied transposed into
    # the time-major block: column j is path_generator(seed, start + j)'s
    # draw, byte for byte, on both sides of every tile boundary
    seed, start, steps = 11, 2**33 + 1, 1024
    count = tiles * (simulate._TILE // (steps * d)) + extra
    u, z = _draw_block(seed, start, count, steps, d, with_uniform)
    assert z.shape == (steps, count, d) and z.flags.c_contiguous
    assert (u is not None) == with_uniform
    for j in range(count):
        gen = path_generator(seed, start + j)
        if with_uniform:
            assert u[j].tobytes() == np.float64(gen.random()).tobytes()
        assert z[:, j].tobytes() == gen.standard_normal((steps, d)).tobytes()


@pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_path_generator_rejects_key_words_outside_64_bits(seed, index):
    # seed and path index are the Philox key words: a ValueError naming the
    # range, never numpy's OverflowError from the uint64 conversion
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\), got "
                       rf"seed {seed}, path index {index}$"):
        path_generator(seed, index)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 12), st.integers(0, 12), st.sampled_from([1, 2, 3]),
       st.booleans(), st.integers(0, 2**40), st.integers(1, 6))
def test_shared_blocks_serve_prefixes_of_fresh_draws(steps, extra, d, with_uniform,
                                                      start, count):
    # Philox streams are counter-based, so the first `steps` rows of a longer
    # draw are a fresh `steps` draw; inside a run the memo serves them, and a
    # longer request after a shorter one is drawn in full
    longer = steps + extra
    fresh_u, fresh_z = _draw_block(5, start, count, steps, d, with_uniform)
    long_u, long_z = _draw_block(5, start, count, longer, d, with_uniform)
    assert np.array_equal(long_z[:steps], fresh_z)
    assert (fresh_u is None) if not with_uniform else np.array_equal(fresh_u, long_u)
    for order in ((longer, steps), (steps, longer)):
        with _shared_noise():
            served = [_draw_block(5, start, count, n, d, with_uniform) for n in order]
        for n, (u, z) in zip(order, served):
            assert np.array_equal(z, long_z[:n])
            assert (u is None) if not with_uniform else np.array_equal(u, long_u)


def test_shared_blocks_are_read_only():
    with _shared_noise():
        for _ in range(2):  # drawn, then served from the memo
            u, z = _draw_block(5, 0, 4, 6, 2, with_uniform=True)
            for block in (u, z):
                with pytest.raises(ValueError, match="read-only"):
                    block[0] = 0.0
        _, z = _draw_block(5, 0, 4, 3, 2, with_uniform=True)
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 0.0
    _, z = _draw_block(5, 0, 4, 6, 2, with_uniform=True)
    z[0] = 0.0  # outside a run every draw is the caller's own


PERT = ScoreModel(MIX, SCHED, mode="perturbed", bias=0.3, noise_amplitude=0.5)

CHUNKED = {
    "forward_full": lambda: forward_chain(MIX, SCHED, 300, 11),
    "forward_terminal": lambda: forward_chain(MIX, SCHED, 300, 11, record="terminal"),
    "reverse_exact_terminal": lambda: reverse_sde(MIX, SCHED, 2, 300, 11,
                                                  record="terminal"),
    "reverse_model_1": lambda: reverse_sde(PERT, SCHED, 1, 300, 11, score_mode="model"),
    "reverse_model_3": lambda: reverse_sde(PERT, SCHED, 3, 300, 11, score_mode="model"),
    "ddpm_terminal": lambda: ddpm_sample(PERT, SCHED, 300, 11, record="terminal"),
}


@pytest.mark.parametrize("case", sorted(CHUNKED))
def test_chunk_invariance_every_sampler(case):
    a = CHUNKED[case]()
    with _chunks_of(7):
        b = CHUNKED[case]()
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.diverged, b.diverged)
    if a.noises is None:
        assert b.noises is None
    else:
        np.testing.assert_array_equal(a.noises, b.noises)


def test_chunk_invariance_girsanov_bound():
    a = girsanov_bound(MIX, SCHED, PERT, 300, 2, seed=11)
    with _chunks_of(7):
        b = girsanov_bound(MIX, SCHED, PERT, 300, 2, seed=11)
    assert (a.rhs, a.lhs, a.lhs_se, a.terms, a.notes) == \
        (b.rhs, b.lhs, b.lhs_se, b.terms, b.notes)


def _anisotropic_mixture(seed, d, k, jitter):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    return MixtureTarget(rng.uniform(0.05, 1.0, k), rng.uniform(-3.0, 3.0, (k, d)),
                         a @ a.T + jitter * np.eye(d))


def _sample(name, target, chunk):
    """201 paths at seed 11 on SCHED, record full, in chunks of `chunk` paths
    (`_chunks_of`): chunks of 2, 4, 5, 8, ... paths would leave the last path
    alone."""
    model = ScoreModel(target, SCHED, mode="perturbed", bias=0.3, noise_amplitude=0.5)
    if name == "ddpm_clipped":
        # an envelope tight enough that the oracle replaces some paths' scores
        model = growth_clip(model, GrowthConstants(c0=0.5, c1=0.2, lambda_min=1.0))
    with _chunks_of(chunk):
        if name == "forward":
            return forward_chain(target, SCHED, 201, 11)
        if name == "reverse_exact":
            return reverse_sde(target, SCHED, 2, 201, 11)
        if name == "reverse_model":
            return reverse_sde(model, SCHED, 3, 201, 11, score_mode="model")
        return ddpm_sample(model, SCHED, 201, 11)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 6), st.floats(0.1, 3.0),
       st.integers(0, 2**32 - 1),
       st.sampled_from(["forward", "ddpm", "ddpm_clipped", "reverse_exact",
                        "reverse_model"]),
       st.integers(2, 64))
def test_chunk_invariance_and_noise_sanity_multivariate(d, k, jitter, seed,
                                                        sampler, chunk):
    # up to d = 3 and six components with an anisotropic shared precision
    target = _anisotropic_mixture(seed, d, k, jitter)
    a, b = _sample(sampler, target, None), _sample(sampler, target, chunk)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.diverged, b.diverged)
    np.testing.assert_array_equal(a.noises, b.noises)
    assert np.all(np.isfinite(a.states))
    assert a.noises.shape == (201, a.times.size - 1, d)
    assert a.noise_sanity()[2], a.noise_sanity()


@pytest.mark.parametrize("sampler", ["ddpm", "ddpm_clipped"])
@pytest.mark.parametrize("chunk", [2, 4, 7, 100])
def test_no_path_is_scored_alone(sampler, chunk):
    # 201 paths: chunks of 2, 4 or 100 would leave path 200 alone, where a
    # one-row product rounds differently; the clipping oracle must not score
    # a chunk's one clipped path alone either
    target = _anisotropic_mixture(3, 3, 6, 0.5)
    np.testing.assert_array_equal(_sample(sampler, target, None).states,
                                  _sample(sampler, target, chunk).states)


SAMPLERS = {
    "forward": lambda paths, record: forward_chain(MIX, SCHED, paths, 1,
                                                   record=record),
    "ddpm": lambda paths, record: ddpm_sample(PERT, SCHED, paths, 1,
                                              record=record),
    "reverse_exact": lambda paths, record: reverse_sde(MIX, SCHED, 2, paths, 1,
                                                       record=record),
    "reverse_model": lambda paths, record: reverse_sde(
        PERT, SCHED, 2, paths, 1, score_mode="model", record=record),
}


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_samplers_reject_unknown_record_and_empty_batches(sampler):
    run = SAMPLERS[sampler]
    with pytest.raises(ValueError, match="record must be 'full' or 'terminal'"):
        run(10, "Full")
    with pytest.raises(ValueError, match="paths must be >= 1"):
        run(0, "full")


def _raises_exactly(error, message):
    return pytest.raises(error, match=rf"^{re.escape(message)}$")


@pytest.mark.parametrize("source, substeps, mode, error, message", [
    (MIX, 0, "exact", ValueError, "substeps must be >= 1"),
    (MIX, 2, "frozen", ValueError, "score_mode must be 'exact' or 'model'"),
    (PERT, 2, "exact", TypeError, "exact mode integrates against an analytic target"),
    (MIX, 2, "model", TypeError, "model mode needs a ScoreModel"),
], ids=["no_substeps", "unknown_mode", "exact_on_a_model", "model_on_a_target"])
def test_reverse_sde_rejects_its_bad_inputs(monkeypatch, source, substeps, mode, error,
                                            message):
    # before any noise is drawn
    monkeypatch.setattr(simulate, "path_generator", lambda *args: pytest.fail("drew"))
    with _raises_exactly(error, message):
        reverse_sde(source, SCHED, substeps, 10, 1, score_mode=mode)


def test_score_model_rejects_an_unknown_mode_and_a_step_off_the_schedule():
    with _raises_exactly(ValueError, "unknown score model mode 'frozen'"):
        ScoreModel(MIX, SCHED, mode="frozen")
    x = np.zeros((3, 1))
    for mode in ("exact", "zero"):
        for i in (0, SCHED.n + 1):
            with _raises_exactly(ValueError, "step index out of range"):
                ScoreModel(MIX, SCHED, mode=mode).s_step(i, x)
        assert ScoreModel(MIX, SCHED, mode=mode).s_step(SCHED.n, x).shape == x.shape


def test_growth_clip_rejects_an_unknown_variant_and_an_oracle_without_a_target():
    envelope = growth_constants(MIX)
    with _raises_exactly(ValueError, "variant must be 'oracle' or 'projection'"):
        growth_clip(PERT, envelope, variant="rescale")
    targetless = ScoreModel(None, SCHED, mode="zero")
    with _raises_exactly(ValueError,
                         "oracle-variant clipping needs an attached analytic target"):
        growth_clip(targetless, envelope)
    # the projection needs no target
    x = np.ones((4, 1))
    assert np.array_equal(growth_clip(targetless, envelope, "projection").s_step(1, x),
                          np.zeros_like(x))


def test_noise_sanity_needs_the_retained_noises():
    batch = forward_chain(MIX, SCHED, 10, 1, record="terminal")
    with _raises_exactly(ValueError, "batch was simulated without noise retention"):
        batch.noise_sanity()


def _chunk_size_reference(paths, steps, d):
    """The default chunk size, restated with its literals: as many paths as
    fit 8e6 floats of noise but at least 256, grown until no chunk holds one
    path of several."""
    size = max(256, min(paths, 8_000_000 // max(1, steps * d)))
    while paths % size == 1 and size < paths:
        size += 1
    return size


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 10**6), st.integers(1, 10**5), st.integers(1, 8))
@example(257, 1, 1)  # the would-leave-one-path rule at the 256-path floor
@example(31251, 256, 1)  # a budget of 31250 paths, one left over
@example(1, 10**5, 8)
def test_chunk_size_is_the_default_formula(paths, steps, d):
    size = _chunk_size(paths, steps, d)
    assert size == _chunk_size_reference(paths, steps, d)
    assert paths % size != 1 or size >= paths


def test_chunks_of_sets_the_chunk_size():
    for size, paths, want in ((7, 300, 7), (2, 201, 3), (128, 300, 128), (11, 500, 11),
                              (4, 201, 6), (100, 201, 101), (13, 10, 13)):
        with _chunks_of(size):
            assert _chunk_size(paths, 41, 3) == want
    assert _chunk_size(300, 41, 3) == 300


def _all_functions():
    """(qualified name, function) for every module-level function and every
    method of a module-level class of the package."""
    modules = [importlib.import_module(f"ddpmlab.{name}") for name in (
        "bounds", "cli", "experiments", "fbsde", "metrics", "schedule", "simulate",
        "target")]
    functions = [(f"{module.__name__}.{name}", member) for module in modules
                 for name, member in vars(module).items() if inspect.isfunction(member)]
    functions += [(f"{module.__name__}.{name}.{method}", member) for module in modules
                  for name, cls in vars(module).items() if inspect.isclass(cls)
                  for method, member in inspect.getmembers(cls, inspect.isfunction)]
    assert len(functions) > 100
    return functions


def test_no_function_takes_a_chunk_setting():
    assert [name for name, f in _all_functions()
            if "chunk" in inspect.signature(f).parameters] == []


def test_checks_take_the_batch_or_the_model_alone():
    # a batch holds the target and schedule that simulated it, a model its
    # own: the checks read them there, and take neither beside it
    want = {"fbsde.bsde_residual_both": ["batch", "t_index"],
            "fbsde.z_energy": ["batch"],
            "fbsde.yast_check": ["batch", "t_index"],
            "bounds.schrodinger_bound": ["batch"],
            "bounds.moment_report": ["batch", "envelope"],
            "metrics.score_loss": ["score_model", "samples", "seed"],
            "metrics.denoise_identity_check": ["score_model", "samples", "seed"]}
    functions = dict(_all_functions())
    for name, params in want.items():
        assert list(inspect.signature(functions[f"ddpmlab.{name}"]).parameters) == params
    # only the functions a benchmark calls with a schedule still take both
    both = {f"{f.__module__}.{f.__qualname__}" for f in functions.values()
            if not f.__name__.startswith("_")
            and {"batch", "score_model", "source"} & set(inspect.signature(f).parameters)
            and {"target", "schedule"} & set(inspect.signature(f).parameters)}
    assert sorted(both) == ["ddpmlab.bounds.girsanov_bound", "ddpmlab.simulate.ddpm_sample",
                            "ddpmlab.simulate.reverse_sde"]


def test_every_sampler_batch_holds_the_source_and_schedule_it_was_given():
    model = ScoreModel(MIX, SCHED, mode="perturbed", bias=0.3)
    for record in ("full", "terminal"):
        for source, batch in ((MIX, forward_chain(MIX, SCHED, 30, 1, record=record)),
                              (MIX, reverse_sde(MIX, SCHED, 2, 30, 1, record=record)),
                              (model, reverse_sde(model, SCHED, 1, 30, 1,
                                                  score_mode="model", record=record)),
                              (model, reverse_sde(model, SCHED, 2, 30, 1,
                                                  score_mode="model", record=record)),
                              (model, ddpm_sample(model, SCHED, 30, 1, record=record))):
            assert batch.source is source and batch.schedule is SCHED


# rows each sampler draws per path on SCHED's 20 steps; only forward_chain's
# blocks lead with a uniform
LOOKUP_ROWS = {"forward": 21, "ddpm": 21, "reverse_model_1": 21,
               "reverse_model_2": 41, "reverse_exact": 41}
LOOKUP_SEED = 70117


def _lookup_batch(name, target, record, chunk):
    """40 paths at LOOKUP_SEED on SCHED; chunk 7 splits them in 6 chunks."""
    model = ScoreModel(target, SCHED, mode="perturbed", bias=0.3, noise_amplitude=0.5)
    with _chunks_of(chunk):
        if name == "forward":
            return forward_chain(target, SCHED, 40, LOOKUP_SEED, record=record)
        if name == "ddpm":
            return ddpm_sample(model, SCHED, 40, LOOKUP_SEED, record=record)
        if name == "reverse_exact":
            return reverse_sde(target, SCHED, 2, 40, LOOKUP_SEED, record=record)
        return reverse_sde(model, SCHED, int(name[-1]), 40, LOOKUP_SEED,
                           score_mode="model", record=record)


def _held_blocks():
    """Blocks of LOOKUP_SEED that the live lookup holds."""
    return sum(key[0] == LOOKUP_SEED for key in list(simulate._live))


def _batch_bytes(batch):
    return (batch.states.tobytes(), batch.diverged.tobytes(),
            None if batch.noises is None else batch.noises.tobytes())


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3),
       st.lists(st.tuples(st.sampled_from(sorted(LOOKUP_ROWS)),
                          st.sampled_from(["full", "terminal"]),
                          st.sampled_from([None, 7])), min_size=1, max_size=6))
def test_draw_block_lends_live_blocks_byte_identically(d, calls):
    # a one-chunk uniform-less block that a live record="full" batch views
    # serves any later call on the same seed, paths and d that needs no more
    # rows; every batch is byte-identical to the same call with no block held
    target = _anisotropic_mixture(d, d, 3, 0.5)
    want = {}
    for call in set(calls):
        assert _held_blocks() == 0
        want[call] = _batch_bytes(_lookup_batch(call[0], target, *call[1:]))
    held, entry = [], None  # entry: (rows, index in held) of the block lent
    with mock.patch.object(simulate, "_fresh_block",
                           wraps=simulate._fresh_block) as fresh:
        for name, record, chunk in calls:
            rows, drawn = LOOKUP_ROWS[name], fresh.call_count
            batch = _lookup_batch(name, target, record, chunk)
            assert _batch_bytes(batch) == want[name, record, chunk]
            with _chunks_of(chunk):
                chunks = -(-40 // _chunk_size(40, rows, d))
            lookup = name != "forward" and chunks == 1
            lent = lookup and entry is not None and entry[0] >= rows
            assert fresh.call_count - drawn == (0 if lent else chunks)
            if record == "full":
                assert not batch.noises.flags.writeable
                if lent:
                    assert np.shares_memory(batch.noises, held[entry[1]].noises)
                else:
                    assert not any(np.shares_memory(batch.noises, b.noises)
                                   for b in held if b.noises is not None)
            else:
                assert batch.noises is None
            if lookup and not lent:  # a terminal batch's block dies with the call
                entry = (rows, len(held)) if record == "full" else None
            held.append(batch)
            assert _held_blocks() == (entry is not None)
    del batch, held
    gc.collect()
    assert _held_blocks() == 0


@pytest.mark.parametrize("record", ["full", "terminal"])
@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("name", sorted(LOOKUP_ROWS))
def test_sampler_layout_is_time_major(name, chunk, record):
    # states and noises are (paths, time, d) views of time-major buffers, so
    # each step reads its noise and writes its states as contiguous rows
    target = _anisotropic_mixture(3, 3, 3, 0.5)
    batch = _lookup_batch(name, target, record, chunk)
    rows = LOOKUP_ROWS[name] if record == "full" else 2
    assert batch.states.shape == (40, rows, 3) and batch.terminal_states.shape == (40, 3)
    assert all(batch.states[:, k].flags.c_contiguous for k in range(rows))
    assert batch.terminal_states.flags.c_contiguous
    if record == "terminal":
        assert batch.noises is None
        return
    assert batch.noises.shape == (40, rows - 1, 3)
    assert all(batch.noises[:, k].flags.c_contiguous for k in range(rows - 1))
    # a one-chunk batch lends its block to a later call; a chunked one does not
    if name != "forward":
        again = _lookup_batch(name, target, "full", chunk)
        assert np.shares_memory(again.noises, batch.noises) == (chunk is None)
        np.testing.assert_array_equal(again.states, batch.states)


def test_draw_block_terminal_batches_hold_no_block():
    for name in sorted(LOOKUP_ROWS):
        batch = _lookup_batch(name, MIX, "terminal", None)
        assert batch.noises is None and _held_blocks() == 0
    # a full batch lends its block only while it lives
    batch = _lookup_batch("ddpm", MIX, "full", None)
    assert _held_blocks() == 1
    del batch
    assert _held_blocks() == 0


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("name", sorted(LOOKUP_ROWS))
def test_noises_are_read_only_at_one_chunk_and_at_many(name, chunk):
    batch = _lookup_batch(name, MIX, "full", chunk)
    with pytest.raises(ValueError, match="read-only"):
        batch.noises[0, 0] = 0.0


def test_score_model_schedule_mismatch_rejected():
    from ddpmlab.bounds import girsanov_bound

    other = constant_rate(10, 4.0)
    model = ScoreModel(MIX, SCHED, mode="exact")
    message = "20-step schedule that differs from the 10-step schedule"
    with pytest.raises(ValueError, match=message):
        ddpm_sample(model, other, 10, seed=1)
    with pytest.raises(ValueError, match=message):
        reverse_sde(model, other, 2, 10, seed=1, score_mode="model")
    with pytest.raises(ValueError, match=message):
        girsanov_bound(MIX, other, model, 10, 2, seed=1)
    # same step count, different alphas
    with pytest.raises(ValueError, match="20-step schedule that differs"):
        ddpm_sample(model, constant_rate(20, 3.0), 10, seed=1)
    # another schedule object with the same alphas is the same schedule
    same = constant_rate(20, 4.0)
    assert same is not SCHED and same == SCHED
    np.testing.assert_array_equal(ddpm_sample(model, same, 10, seed=1).states,
                                  ddpm_sample(model, SCHED, 10, seed=1).states)


def test_strong_convergence_order_one():
    # coupled refinement: coarse increments are pair sums of fine ones;
    # the additive-noise Euler scheme converges at first order, i.e.
    # halving the step roughly halves the strong error
    sched = constant_rate(4, 2.0)
    paths = 400
    levels = [4, 8, 16, 32]
    fine = levels[-1] * 2
    rng = np.random.default_rng(12)
    dw_fine = rng.standard_normal((paths, sched.n * fine, 1)) * math.sqrt(
        1.0 / (sched.n * fine))
    x0 = rng.standard_normal((paths, 1))

    def run(substeps, dw):
        nsteps = sched.n * substeps
        h = 1.0 / nsteps
        grid = np.linspace(0.0, 1.0, nsteps + 1)
        x = x0.copy()
        for k in range(nsteps):
            beta = float(-sched.n * sched.log_alphas[sched.n - 1 - k // substeps])
            law = MIX.marginal_at(sched, 1.0 - grid[k])
            x = x + (0.5 * beta * x + beta * law.score(x)) * h + math.sqrt(beta) * dw[:, k]
        return x

    ref = run(fine, dw_fine)
    errs = []
    for lv in levels:
        ratio = fine // lv
        dw = dw_fine.reshape(paths, sched.n * lv, ratio, 1).sum(axis=2)
        sol = run(lv, dw)
        errs.append(float(np.sqrt(np.mean((sol - ref) ** 2))))
    slope = np.polyfit(np.log([1.0 / (sched.n * lv) for lv in levels]),
                       np.log(errs), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_divergence_guard_reports_paths():
    model = ScoreModel(MIX, SCHED, mode="perturbed", bias=1e7)
    batch = ddpm_sample(model, SCHED, 50, seed=13)
    assert batch.diverged.all()
    assert np.all(np.isfinite(batch.states))


@pytest.mark.parametrize("chunk", [None, 2, 7])
def test_some_diverging_paths_freeze_at_their_last_in_limit_state(chunk):
    # paths grow by their own factor, so some leave the limit at different
    # steps while others never do: a chunk runs all alive for a while, then not.
    # Every other path instead steps to one fixed edge state of the norm rule,
    # so at chunk 2 each edge shares its chunk with a growing path that stays
    # inside the box max|x_i| <= limit / (2 sqrt(d)) for the first steps.
    from ddpmlab.simulate import _integrate

    steps, limit = 12, 1e3
    for d in (1, 2, 3):
        box = limit / (2.0 * math.sqrt(d))

        def on_axis(value):
            return np.concatenate([[value], np.zeros(d - 1)])

        # edge state -> whether the exact rule keeps it; at d >= 2 the diagonal
        # state has every coordinate within limit
        edges = {
            "norm_at_limit": (on_axis(limit), True),
            "norm_above_limit": (on_axis(np.nextafter(limit, np.inf)), False),
            "just_outside_box": (on_axis(np.nextafter(box, np.inf)), True),
            "diagonal_above_limit": (np.full(d, 1.001 * limit / math.sqrt(d)), False),
            "nan": (on_axis(np.nan), False),
            "inf": (np.full(d, np.inf), False),
            "-inf": (on_axis(-np.inf), False),
        }
        paths = 41 + len(edges)  # even, so chunk 2 stays 2
        edge_rows = np.arange(1, 2 * len(edges), 2)
        is_edge = np.zeros(paths, dtype=bool)
        is_edge[edge_rows] = True
        edge = np.zeros((paths, d))
        edge[edge_rows] = [state for state, _ in edges.values()]
        growth = np.zeros((paths, 1))
        growth[~is_edge, 0] = np.linspace(0.5, 3.0, 41)

        def advance(x, z, rows=slice(None)):
            return np.where(is_edge[rows, None], edge[rows], growth[rows] * x + z)

        with _chunks_of(chunk):
            batch = _integrate(3, paths, np.linspace(0.0, 1.0, steps + 1), d,
                               lambda k, x, z, rows: advance(x, z, rows),
                               "full", "test", None, None, limit=limit)
        x = batch.states[:, 0].copy()
        alive = np.ones(paths, dtype=bool)
        frozen_at = np.full(paths, steps)
        for k in range(steps):
            cand = advance(x, batch.noises[:, k])
            fresh = alive & ~(np.sqrt(np.sum(cand * cand, axis=-1)) <= limit)
            frozen_at[fresh] = k
            alive &= ~fresh
            x[alive] = cand[alive]
            np.testing.assert_array_equal(batch.states[:, k + 1], x)
        np.testing.assert_array_equal(batch.diverged, ~alive)
        assert batch.diverged[edge_rows].tolist() == [not kept for _, kept in
                                                      edges.values()]
        grown = batch.diverged & ~is_edge
        assert 0 < grown.sum() < 41
        assert np.unique(frozen_at[grown]).size > 1


@pytest.mark.parametrize("chunk", [None, 3])
def test_a_frozen_path_stays_frozen_while_its_chunk_is_back_in_the_box(chunk):
    # a chunk leaves the box with every path alive (path 2 at step 3), loses
    # path 1 at step 5 and path 4 at step 8, and is inside the box at every
    # other step: the frozen states must be kept on those steps too, and a box
    # exit that freezes nothing must not stop a later freeze from holding
    from ddpmlab.simulate import _integrate

    steps, limit, paths = 12, 1e3, 6
    for d in (1, 3):
        box = limit / (2.0 * math.sqrt(d))
        jumps = {3: (2, np.nextafter(box, np.inf)), 5: (1, 2.0 * limit), 8: (4, np.nan)}

        def step(k, x, z, rows):
            x_new = 0.5 * x + z
            row, value = jumps.get(k, (-1, None))
            if rows.start <= row < rows.stop:
                x_new[row - rows.start, 0] = value
            return x_new

        with _chunks_of(chunk):
            batch = _integrate(5, paths, np.linspace(0.0, 1.0, steps + 1), d, step,
                               "full", "test", None, None, limit=limit)
        assert batch.states[2, 4, 0] > box
        x = batch.states[:, 0].copy()
        alive = np.ones(paths, dtype=bool)
        for k in range(steps):
            cand = step(k, x, batch.noises[:, k], slice(0, paths))
            alive &= np.sqrt(np.sum(cand * cand, axis=-1)) <= limit
            x[alive] = cand[alive]
            np.testing.assert_array_equal(batch.states[:, k + 1], x)
        assert batch.diverged.tolist() == [False, True, False, False, True, False]


@pytest.mark.parametrize("substeps", [1, 2])
def test_model_mode_reverse_steps_leave_scores_and_noise_untouched(substeps):
    # the steps build their result in place: the frozen score reused across
    # substeps and the noise rows they read must come through unchanged, so a
    # run inside _shared_noise (read-only blocks, the second one served from
    # the memo) matches a run outside it and an out-of-place replay
    outside = reverse_sde(PERT, SCHED, substeps, 300, 11, score_mode="model")
    with _shared_noise():
        inside = [reverse_sde(PERT, SCHED, substeps, 300, 11, score_mode="model")
                  for _ in range(2)]
    for batch in inside:
        np.testing.assert_array_equal(batch.states, outside.states)
    n = SCHED.n * substeps
    h = 1.0 / n
    x = outside.states[:, 0]
    for k in range(n):
        i = SCHED.n - k // substeps
        alpha = SCHED.alphas[i - 1]
        z = outside.noises[:, k]
        if substeps == 1:  # ddpm_sample's step
            coeff = (1.0 - alpha) / math.sqrt(1.0 - SCHED.alpha_bars[i - 1])
            x = (x - coeff * PERT.z_step(i, x)) / math.sqrt(alpha) + SCHED.sigmas[i - 1] * z
        else:
            if k % substeps == 0:
                s = PERT.s_frozen(i, x)
            beta = -SCHED.n * SCHED.log_alphas[i - 1]
            drift = 0.5 * beta * x + beta * s
            x = x + drift * h + math.sqrt(beta * h) * z
        np.testing.assert_array_equal(outside.states[:, k + 1], x)


def test_nan_states_count_as_diverged():
    # a NaN norm never compares greater than the limit; it must still freeze
    from ddpmlab.bounds import girsanov_bound

    model = ScoreModel(MIX, SCHED, mode="perturbed", bias=math.nan)
    for batch in (ddpm_sample(model, SCHED, 40, seed=13),
                  reverse_sde(model, SCHED, 1, 40, seed=13, score_mode="model"),
                  reverse_sde(model, SCHED, 3, 40, seed=13, score_mode="model")):
        assert batch.diverged.all()
        assert np.all(np.isfinite(batch.states))
    with pytest.raises(ValueError, match="all 40 paths were excluded.*0 on the "
                                         "exact-score path, 40 on the frozen"):
        girsanov_bound(MIX, SCHED, model, 40, 2, seed=13)


def test_score_model_modes_and_clip():
    envelope = growth_constants(MIX)
    exact = ScoreModel(MIX, SCHED, mode="exact")
    x = np.linspace(-6, 6, 201)[:, None]
    # exact s_i is the marginal score
    law = MIX.marginal_at(SCHED, SCHED.times[7])
    assert np.abs(exact.s_step(7, x) - law.score(x)).max() <= 1e-12
    # z and s relation
    z = exact.z_step(7, x)
    abar = SCHED.alpha_bars[6]
    assert np.allclose(z, -math.sqrt(1 - abar) * exact.s_step(7, x))
    # clip of the exact model is the identity (true score obeys the envelope)
    clipped = growth_clip(exact, envelope)
    assert np.abs(clipped.s_step(7, x) - exact.s_step(7, x)).max() == 0.0
    # oracle-variant clip replaces oversized values by the true score
    wild = ScoreModel(MIX, SCHED, mode="perturbed", bias=500.0)
    fixed = growth_clip(wild, envelope)
    bound = fixed.growth_bound(7, x)
    over = np.abs(wild.s_step(7, x))[:, 0] > bound
    assert over.any()
    assert np.abs(fixed.s_step(7, x) - law.score(x))[over].max() <= 1e-12
    # projection variant lands on the envelope
    proj = growth_clip(wild, envelope, variant="projection")
    norms = np.abs(proj.s_step(7, x))[:, 0]
    assert np.all(norms <= bound * (1 + 1e-12))
    # pointwise error never increases under the oracle clip
    err_clip = np.abs(fixed.s_step(7, x) - law.score(x))
    err_raw = np.abs(wild.s_step(7, x) - law.score(x))
    assert np.all(err_clip <= err_raw + 1e-12)


@pytest.mark.parametrize("setting", [{"bias": 0.3}, {"noise_amplitude": 0.5}],
                         ids=["bias", "noise_amplitude"])
@pytest.mark.parametrize("mode", ["exact", "zero", "clipped"])
def test_score_model_takes_bias_and_amplitude_in_perturbed_mode_only(mode, setting):
    clip = (ScoreModel(MIX, SCHED), growth_constants(MIX), "oracle")
    with pytest.raises(ValueError, match=f"bias and noise_amplitude apply to mode "
                                         f"'perturbed', not '{mode}'"):
        ScoreModel(MIX, SCHED, mode=mode, _clip=clip if mode == "clipped" else None,
                   **setting)


def test_clipped_score_model_comes_from_growth_clip():
    clip = (ScoreModel(MIX, SCHED), growth_constants(MIX), "oracle")
    for mode, args in (("clipped", None), ("exact", clip)):
        with pytest.raises(ValueError, match="mode 'clipped' is built by growth_clip"):
            ScoreModel(MIX, SCHED, mode=mode, _clip=args)


def _every_mode():
    envelope = growth_constants(MIX)
    wild = ScoreModel(MIX, SCHED, mode="perturbed", bias=40.0, noise_amplitude=0.7)
    return {"exact": ScoreModel(MIX, SCHED), "perturbed": wild,
            "oracle": growth_clip(wild, envelope),
            "projection": growth_clip(wild, envelope, variant="projection"),
            "zero": ScoreModel(MIX, SCHED, mode="zero")}


@pytest.mark.parametrize("mode", ["exact", "perturbed", "oracle", "projection", "zero"])
def test_s_step_with_a_given_truth_is_bit_identical(mode):
    model = _every_mode()[mode]
    x = np.linspace(-40.0, 40.0, 301)[:, None]
    for i in (1, 7, SCHED.n):
        truth = model._laws[i - 1].score(x)
        kept = truth.copy()
        got = model.s_step(i, x, truth)
        assert np.array_equal(got, model.s_step(i, x))
        assert np.array_equal(truth, kept) and not np.shares_memory(got, truth)
        got += 1.0  # the result is the caller's to write
        assert np.array_equal(truth, kept)
    if mode in ("oracle", "projection"):  # both clip some rows and keep others
        bound = model.growth_bound(7, x)
        over = np.abs(model._clip[0].s_step(7, x))[:, 0] > bound
        assert over.any() and not over.all()


@pytest.mark.parametrize("d, bias", [(1, [1.0, 2.0]), (1, [[1.0]]), (1, np.zeros(4)),
                                     (3, [1.0, 2.0]), (3, [[1.0], [2.0], [3.0]])])
def test_score_model_rejects_a_bias_of_the_wrong_shape(d, bias):
    # each of these failed only at the first step, in numpy's broadcasting
    target = gaussian_target(np.arange(d, dtype=float))
    shape = re.escape(str(np.shape(bias)))
    with pytest.raises(ValueError, match=rf"bias shape {shape} for a d = {d} target"):
        ScoreModel(target, SCHED, mode="perturbed", bias=bias)


@pytest.mark.parametrize("bias", [0.5, [0.5], [0.5, -1.0, 2.0], math.nan])
def test_score_model_takes_one_bias_or_one_per_dimension(bias):
    x = np.ones((5, 3))
    model = ScoreModel(gaussian_target([0.0, 1.0, 2.0]), SCHED, mode="perturbed", bias=bias)
    assert model.s_step(3, x).shape == x.shape


def test_reverse_transition_density_properties():
    sched = from_linear_variance(50, 1e-3, 0.05)
    y = np.linspace(-12, 12, 4001)[:, None]
    w = y[1, 0] - y[0, 0]
    p = reverse_transition_density(MIX, sched, 0.25, np.array([0.4]), 0.7, y)
    assert p.sum() * w == pytest.approx(1.0, abs=1e-6)
    assert np.all(p >= 0.0)
    # standard-normal target: reverse kernel is the contracting OU kernel
    g = gaussian_target([0.0])
    br = sched.bridge(1 - 0.7, 1 - 0.25)
    val = reverse_transition_density(g, sched, 0.25, np.array([0.8]), 0.7,
                                     np.array([[0.1]]))
    ref = math.exp(-(0.1 - br.m * 0.8) ** 2 / (2 * br.s**2)) \
        / math.sqrt(2 * math.pi * br.s**2)
    assert val[0] == pytest.approx(ref, rel=1e-12)
    with pytest.raises(ValueError):
        reverse_transition_density(MIX, sched, 0.0, np.array([0.4]), 0.7, y)


def test_reverse_exact_terminal_tv_improves_with_substeps():
    from ddpmlab.metrics import fd_bin_edges, tv_hist_vs_density

    sched = constant_rate(20, 4.0)
    edges = fd_bin_edges(MIX, 20000)
    vals = []
    for substeps in (1, 4, 16):
        batch = reverse_sde(MIX, sched, substeps, 20000, seed=15,
                            record="terminal")
        v, se, _ = tv_hist_vs_density(batch.terminal_states[~batch.diverged],
                                      MIX, edges)
        vals.append((v, se))
    for (lo_v, lo_se), (hi_v, hi_se) in zip(vals[1:], vals[:-1]):
        assert lo_v <= hi_v + 3.0 * math.hypot(lo_se, hi_se)


def test_model_mode_euler_zero_score_variance_recursion():
    # EM with a frozen zero score is the linear expansion dX = beta/2 X dt
    # + sqrt(beta) dW; its per-substep variance recursion is exact
    model = ScoreModel(MIX, SCHED, mode="zero")
    substeps = 4
    batch = reverse_sde(model, SCHED, substeps, 30000, seed=16,
                        score_mode="model", record="terminal")
    h = 1.0 / (SCHED.n * substeps)
    v = 1.0
    for k in range(SCHED.n * substeps):
        beta = float(-SCHED.n * SCHED.log_alphas[SCHED.n - 1 - k // substeps])
        v = (1.0 + 0.5 * beta * h) ** 2 * v + beta * h
    assert batch.terminal_states[:, 0].var() == pytest.approx(v, rel=0.05)
