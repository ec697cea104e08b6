import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddpmlab.schedule import (NoiseSchedule, band_check, constant_rate,
                              from_linear_variance, load_schedule,
                              save_schedule)


def test_linear_variance_endpoints():
    s = from_linear_variance(1000, 1e-4, 0.02)
    assert s.alphas[0] == pytest.approx(0.9999, abs=1e-15)
    assert s.alphas[-1] == pytest.approx(0.98, abs=1e-15)


def test_linear_variance_single_step():
    s = from_linear_variance(1, 0.3, 0.3)
    assert s.n == 1
    assert s.alphas[0] == pytest.approx(0.7)


def test_linear_variance_constant():
    s = from_linear_variance(3, 0.1, 0.1)
    assert np.allclose(s.alphas, 0.9)
    assert s.alpha_bars[-1] == pytest.approx(0.729, rel=1e-12)


def test_constructor_rejects_bad_alphas():
    for bad in ([], [0.0], [1.0], [0.5, 1.2], [-0.1]):
        with pytest.raises(ValueError):
            NoiseSchedule(bad)
    with pytest.raises(ValueError):
        from_linear_variance(0, 0.1, 0.2)
    with pytest.raises(ValueError):
        from_linear_variance(5, 0.0, 0.2)
    with pytest.raises(ValueError):
        from_linear_variance(5, 0.3, 0.2)


def test_beta_constant_schedule_is_one():
    n = 16
    s = NoiseSchedule(np.full(n, math.exp(-1.0 / n)))
    for t in np.linspace(0.0, 1.0, 37):
        assert s.beta(t) == pytest.approx(1.0, rel=1e-12)


def test_beta_piecewise_hand_value():
    s = NoiseSchedule([0.9, 0.8])
    assert s.beta(0.75) == pytest.approx(-2.0 * math.log(0.8), rel=1e-14)
    assert s.beta(0.25) == pytest.approx(-2.0 * math.log(0.9), rel=1e-14)
    # right-continuity convention at zero and at the interior knot
    assert s.beta(0.0) == pytest.approx(-2.0 * math.log(0.9), rel=1e-14)
    assert s.beta(0.5) == pytest.approx(-2.0 * math.log(0.9), rel=1e-14)


def test_beta_integrates_to_log_alpha_bar():
    s = from_linear_variance(23, 2e-3, 0.05)
    for i in range(1, s.n + 1):
        assert s.integrated_beta(s.times[i]) == pytest.approx(
            -np.sum(s.log_alphas[:i]), rel=1e-13, abs=1e-15)


def test_beta_domain_errors():
    s = from_linear_variance(4, 0.01, 0.02)
    with pytest.raises(ValueError):
        s.beta(-0.1)
    with pytest.raises(ValueError):
        s.beta(1.1)


def test_bridge_matches_alpha_bars():
    s = from_linear_variance(50, 1e-3, 0.03)
    for i in range(1, s.n + 1):
        br = s.bridge(0.0, s.times[i])
        assert br.m == pytest.approx(math.sqrt(s.alpha_bars[i - 1]), rel=1e-13)
        assert br.s**2 == pytest.approx(1.0 - s.alpha_bars[i - 1], abs=1e-13)


def test_bridge_degenerate_and_constant():
    s = constant_rate(10, 3.0)
    br = s.bridge(0.4, 0.4)
    assert br.m == 1.0 and br.s == 0.0
    assert s.bridge(0.0, 1.0).m == pytest.approx(math.exp(-1.5), rel=1e-14)
    with pytest.raises(ValueError):
        s.bridge(0.5, 0.4)


@pytest.mark.parametrize("s", [from_linear_variance(100, 1e-4, 0.05),
                               constant_rate(20, 690.0),
                               from_linear_variance(50, 1e-14, 1e-12)])
@pytest.mark.parametrize("t", [0.0, 0.3])
def test_bridge_array_end_times_match_scalar_calls(s, t):
    r = np.concatenate(([t, 1.0], np.linspace(t, 1.0, 257),
                        np.random.default_rng(2).uniform(t, 1.0, 50)))
    br = s.bridge(t, r)
    assert br.m.shape == br.s.shape == r.shape
    for j, rj in enumerate(r):
        one = s.bridge(t, float(rj))
        assert type(one.m) is float and type(one.s) is float
        assert (br.m[j], br.s[j]) == (one.m, one.s)
    with pytest.raises(ValueError, match="t <= r"):
        s.bridge(t, np.array([0.9, t - 1e-3]))


@settings(deadline=None, max_examples=50)
@given(st.integers(2, 40), st.floats(1e-4, 0.2), st.floats(0.2, 0.6),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_bridge_semigroup(n, v0, v1, a, b, c):
    s = from_linear_variance(n, v0, v1)
    t, u, r = sorted((a, b, c))
    lhs = s.bridge(t, r).m
    rhs = s.bridge(t, u).m * s.bridge(u, r).m
    assert abs(lhs - rhs) <= 1e-12
    br = s.bridge(t, r)
    assert abs(br.m**2 + br.s**2 - 1.0) <= 1e-12


def test_band_check_ho_remark_values():
    s = from_linear_variance(1000, 1e-4, 0.02)
    res = band_check(s, 0.15, 30.67)
    assert res.ok
    assert res.tightest_slack >= 0.0
    fail = band_check(s, 0.16, 30.67)
    assert not fail.ok
    assert fail.worst_lower_index == 1


def test_band_check_zero_slack():
    # constant schedule sitting exactly on the band edge, up to one ulp of
    # the exp/log roundtrip
    n = 64
    l3 = math.log(math.log(math.log(n)))
    gamma = 2.0
    s = NoiseSchedule(np.full(n, math.exp(-gamma * l3 / n)))
    res = band_check(s, gamma * (1.0 - 1e-12), gamma * (1.0 + 1e-12))
    assert res.ok
    assert res.tightest_slack == pytest.approx(0.0, abs=1e-12)


def test_band_check_requires_n_16():
    with pytest.raises(ValueError):
        band_check(from_linear_variance(15, 0.01, 0.02), 0.1, 10.0)
    with pytest.raises(ValueError):
        band_check(from_linear_variance(16, 0.01, 0.02), 2.0, 1.0)


@settings(deadline=None, max_examples=40)
@given(st.integers(16, 200), st.floats(0.01, 1.0), st.floats(1.0, 50.0),
       st.floats(0.0, 0.5), st.floats(0.0, 10.0))
def test_band_check_monotone(n, g1, g2, shrink, grow):
    s = from_linear_variance(n, 1e-4, 0.02)
    inner = band_check(s, g1, g2)
    outer = band_check(s, g1 * (1.0 - shrink), g2 + grow)
    if inner.ok:
        assert outer.ok


def test_schedule_roundtrip(tmp_path):
    s = from_linear_variance(17, 3e-4, 0.04)
    path = tmp_path / "sched.txt"
    save_schedule(s, path)
    text = path.read_text()
    assert text.startswith("n=17\n")
    loaded = load_schedule(path)
    assert np.array_equal(loaded.alphas, s.alphas)
    path.write_text(text + "\n  \n\n")  # trailing blank lines are allowed
    assert np.array_equal(load_schedule(path).alphas, s.alphas)


@pytest.mark.parametrize("rows", [0, 2, 4, 5])
def test_load_schedule_refuses_alphas_its_header_does_not_count(tmp_path, rows):
    path = tmp_path / "sched.txt"
    path.write_text("n=3\n" + "".join(f"0.{9 - j}\n" for j in range(rows)))
    with pytest.raises(ValueError, match=re.escape(
            f"schedule file {path}: header n=3 counts 3 alpha lines, found {rows}")):
        load_schedule(path)


def test_schedules_compare_by_their_alphas_and_print_n_and_alpha_bar_n():
    a = constant_rate(20, 4.0)
    assert a == constant_rate(20, 4.0) and a == NoiseSchedule(a.alphas.copy())
    assert a != constant_rate(20, 3.0) and a != constant_rate(10, 4.0)
    assert a != a.alphas and a != "constant_rate(20, 4.0)"  # not a schedule
    assert repr(a) == "NoiseSchedule(n=20, alpha_bar_n=0.0183156)"
    assert repr(from_linear_variance(100, 1e-4, 0.02)) == \
        "NoiseSchedule(n=100, alpha_bar_n=0.363563)"


@pytest.mark.parametrize("t", [-1e-12, 1.0 + 1e-12, [0.5, 1.5], -np.inf])
def test_integrated_beta_refuses_times_outside_the_unit_interval(t):
    with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\]$"):
        constant_rate(4, 2.0).integrated_beta(t)


@pytest.mark.parametrize("n", [0, -3])
def test_constant_rate_needs_a_step(n):
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        constant_rate(n, 4.0)


@pytest.mark.parametrize("text", ["0.9\n0.8\n", "N=2\n0.9\n0.8\n", "\n"])
def test_load_schedule_needs_its_n_header(tmp_path, text):
    path = tmp_path / "sched.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"^schedule file must start with 'n=<count>'$"):
        load_schedule(path)
