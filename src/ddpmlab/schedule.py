"""Discrete noise schedules and the time coefficients derived from them.

A schedule is a finite sequence alpha_1..alpha_n in (0,1).  Everything else
(cumulative products, the piecewise-constant rate beta(t) on [0,1], the
mean-decay / noise-scale pair of the OU transition kernel) is deterministic
arithmetic on the log-alphas and is computed from exact partial sums, never
by quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseSchedule",
    "BridgeCoefficients",
    "BandCheckResult",
    "from_linear_variance",
    "constant_rate",
    "band_check",
    "save_schedule",
    "load_schedule",
]


@dataclass(frozen=True)
class BridgeCoefficients:
    """Mean-decay m and noise scale s of the OU kernel between two times
    (floats, or arrays for an array of end times).

    Always satisfies m**2 + s**2 == 1 up to roundoff.
    """

    m: float
    s: float


@dataclass(frozen=True)
class BandCheckResult:
    ok: bool
    lower_margin: float      # min_i (-log alpha_i - gamma1*L3/n)
    upper_margin: float      # min_i (gamma2*L3/n + log alpha_i)
    worst_lower_index: int   # 1-based step index of the tightest lower slack
    worst_upper_index: int
    l3: float                # log log log n

    @property
    def tightest_slack(self) -> float:
        return min(self.lower_margin, self.upper_margin)


class NoiseSchedule:
    """Immutable {alpha_i} schedule with cached log-alpha prefix sums.

    Conventions:
      * t_i = i/n, i = 0..n.
      * g is the piecewise-linear interpolation of the partial sums of
        -log alpha_i on the knots t_i; beta = g' is piecewise constant,
        right-continuous on (t_{i-1}, t_i] with beta(0) := beta(0+).
      * alpha_bar_i = prod_{k<=i} alpha_k = exp(cumsum log alpha).
    """

    def __init__(self, alphas):
        alphas = np.asarray(alphas, dtype=float)
        if alphas.ndim != 1 or alphas.size < 1:
            raise ValueError("schedule needs at least one alpha")
        if np.any(alphas <= 0.0) or np.any(alphas >= 1.0):
            raise ValueError("every alpha_i must lie strictly in (0, 1)")
        self._alphas = alphas.copy()
        self._log_alphas = np.log(self._alphas)
        # g knots: g(t_i) = -sum_{k<=i} log alpha_k, g(t_0) = 0
        self._g_knots = np.concatenate(([0.0], np.cumsum(-self._log_alphas)))
        self._times = np.linspace(0.0, 1.0, self.n + 1)
        self._alpha_bars = np.exp(-self._g_knots[1:])
        self._sigmas = np.sqrt((1.0 - self._alphas) / self._alphas)
        for a in (self._alphas, self._log_alphas, self._g_knots, self._times,
                  self._alpha_bars, self._sigmas):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return self._alphas.size

    @property
    def alphas(self) -> np.ndarray:
        return self._alphas

    @property
    def log_alphas(self) -> np.ndarray:
        return self._log_alphas

    @property
    def alpha_bars(self) -> np.ndarray:
        """alpha_bar_i for i = 1..n."""
        return self._alpha_bars

    @property
    def alpha_bar_n(self) -> float:
        return float(math.exp(-self._g_knots[-1]))

    @property
    def alpha_min(self) -> float:
        return float(self._alphas.min())

    @property
    def times(self) -> np.ndarray:
        """Knot times t_0..t_n."""
        return self._times

    @property
    def sigmas(self) -> np.ndarray:
        """Per-step sampler noise scales, sigma_i^2 = (1 - alpha_i)/alpha_i."""
        return self._sigmas

    def interval_index(self, t):
        """1-based i with t in (t_{i-1}, t_i]; t = 0 maps to i = 1.

        A 1e-9 nudge keeps knot times computed with roundoff (for example
        1 - j/n) in their own interval instead of the one above.
        """
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("t must lie in [0, 1]")
        i = np.ceil(t * self.n - 1e-9).astype(int)
        return np.clip(i, 1, self.n)

    def beta(self, t):
        """beta(t) = -n log alpha_i on the interval containing t (>= 0)."""
        i = self.interval_index(t)
        return -self.n * self._log_alphas[i - 1]

    def integrated_beta(self, t):
        """g(t) = int_0^t beta exactly, by linear interpolation of the knots."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise ValueError("t must lie in [0, 1]")
        return np.interp(t, self._times, self._g_knots)

    def bridge(self, t, r) -> BridgeCoefficients:
        """Kernel coefficients over [t, r]: m = exp(-(g(r)-g(t))/2), s = sqrt(1-m^2).

        m and s are floats for a scalar r and arrays of r's shape otherwise.
        """
        r = np.asarray(r, dtype=float)
        if np.any(t > r):
            raise ValueError("bridge requires t <= r")
        m = np.exp(-0.5 * (self.integrated_beta(r) - self.integrated_beta(t)))
        s = np.sqrt(np.maximum(0.0, 1.0 - m * m))
        if r.ndim == 0:
            m, s = float(m), float(s)
        return BridgeCoefficients(m=m, s=s)

    def __eq__(self, other):
        return isinstance(other, NoiseSchedule) and np.array_equal(self._alphas, other._alphas)

    def __repr__(self):
        return f"NoiseSchedule(n={self.n}, alpha_bar_n={self.alpha_bar_n:.6g})"


def from_linear_variance(n: int, v_start: float, v_end: float) -> NoiseSchedule:
    """Schedule with per-step variances 1 - alpha_i linear from v_start to v_end."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < v_start <= v_end < 1.0):
        raise ValueError("need 0 < v_start <= v_end < 1")
    return NoiseSchedule(1.0 - np.linspace(v_start, v_end, n))


def constant_rate(n: int, total_neg_log_alpha_bar: float) -> NoiseSchedule:
    """Constant-alpha schedule with -log alpha_bar_n equal to the given total."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if total_neg_log_alpha_bar <= 0.0:
        raise ValueError("total -log alpha_bar_n must be positive")
    return NoiseSchedule(np.full(n, math.exp(-total_neg_log_alpha_bar / n)))


def band_check(schedule: NoiseSchedule, gamma1: float, gamma2: float) -> BandCheckResult:
    """Check gamma1*L3/n <= -log alpha_i <= gamma2*L3/n for all i, L3 = log log log n."""
    n = schedule.n
    if n < 16:
        raise ValueError("band check needs n >= 16 so that log log log n > 0")
    if gamma1 > gamma2:
        raise ValueError("gamma1 must not exceed gamma2")
    l3 = math.log(math.log(math.log(n)))
    neg_log = -schedule._log_alphas
    lower = neg_log - gamma1 * l3 / n
    upper = gamma2 * l3 / n - neg_log
    return BandCheckResult(
        ok=bool(lower.min() >= 0.0 and upper.min() >= 0.0),
        lower_margin=float(lower.min()),
        upper_margin=float(upper.min()),
        worst_lower_index=int(lower.argmin()) + 1,
        worst_upper_index=int(upper.argmin()) + 1,
        l3=l3,
    )


def save_schedule(schedule: NoiseSchedule, path) -> None:
    """Write the schedule as text: 'n=<count>' then one alpha per line."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"n={schedule.n}\n")
        for a in schedule.alphas:
            fh.write(f"{a:.17g}\n")


def load_schedule(path) -> NoiseSchedule:
    """Read save_schedule's text: exactly n alpha lines, then only blank lines."""
    with open(path) as fh:
        header, *rows = fh.read().rstrip().split("\n")
    if not header.strip().startswith("n="):
        raise ValueError("schedule file must start with 'n=<count>'")
    n = int(header.strip()[2:])
    if len(rows) != n:
        raise ValueError(f"schedule file {path}: header n={n} counts {n} alpha "
                         f"lines, found {len(rows)}")
    return NoiseSchedule([float(v) for v in rows])
