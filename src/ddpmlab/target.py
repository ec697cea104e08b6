"""Analytic target distributions: shared-precision Gaussian mixtures.

This family is closed under the forward noising kernel, so the law at any
intermediate time, its score, its Hessian of log density, and the Laplacian
of its score are all available in closed form.  That makes it the exact
oracle against which every sampler and bound in this package is audited.

The precision P = Sigma^{-1} is shared, so -x^T P x / 2 cancels between
components: the posterior weights pi_k(x) are a softmax of the affine logits
l_k(x) = x . P mu_k - mu_k . P mu_k / 2 + log w_k.  With m_k = P(mu_k - x),
x cancels again in the centred rows c_k = m_k - sum_j pi_j m_j
= P mu_k - sum_j pi_j P mu_j, so every derivative is a product with P mu_k:

    grad log p      = sum_k pi_k P mu_k - P x
    hess log p      = -P + sum_k pi_k c_k c_k^T           (= -P + Cov_pi(m))
    lap grad log p  = sum_k pi_k |c_k|^2 c_k              (componentwise)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GaussianMixtureDensity",
    "MixtureTarget",
    "MarginalLaw",
    "GrowthConstants",
    "gaussian_target",
    "symmetric_mixture",
    "growth_constants",
    "fokker_planck_residual",
    "default_axis",
    "save_target",
    "load_target",
]


@dataclass(frozen=True)
class GrowthConstants:
    """Gradient/Hessian envelope constants of the data density.

    c0 dominates both |grad log p + Qx| and |hess log p| (Frobenius norm),
    c1 strictly exceeds the largest eigenvalue of Q.
    """

    c0: float
    c1: float
    lambda_min: float


def _factored(weights, means, covariance) -> dict:
    """The cached arrays of mixtures with weights (..., K), means (..., K, d)
    and covariances (..., d, d), stacked along the leading axes: the
    symmetrized covariance, its Cholesky factor and inverse (the precision
    P), the log normalizer, P mu_k, P mu_1 + 0.0 and the logit offsets."""
    cov = 0.5 * (covariance + np.swapaxes(covariance, -1, -2))
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be positive definite") from None
    prec = np.linalg.inv(cov)
    prec = 0.5 * (prec + np.swapaxes(prec, -1, -2))
    for a in (weights, means, cov, prec):
        a.flags.writeable = False
    p_mu = means @ prec
    return dict(weights=weights, means=means, covariance=cov, _chol=chol,
                precision=prec, _p_mu=p_mu, _p_mu_1=p_mu[..., 0, :] + 0.0,
                _log_norm=(-0.5 * means.shape[-1] * math.log(2.0 * math.pi)
                           - np.log(np.diagonal(chol, 0, -2, -1)).sum(axis=-1)),
                _logit_offset=(np.log(weights)
                               - 0.5 * np.sum(means * p_mu, axis=-1))[..., None])


def _product(a, b):
    """a @ b, stacked over any leading axes of a family.  At inner dimension 1
    (d = 1) a broadcast multiply (by a float if b is one number) forms the same
    one product per entry, up to a zero's sign that the kernel's next +0 or
    nonzero term washes out.  A single law's one-number a stays on np.dot, whose
    BLAS axpy skips a zero a: logpdf(inf) stays -inf, not NaN."""
    if b.shape[-2] != 1:
        return a @ b
    if a.size == 1 and b.ndim == 2:
        return np.dot(a, b)
    return a * (b.item() if b.size == 1 else b)


class GaussianMixtureDensity:
    """Mixture of Gaussians with one shared covariance matrix.

    All evaluation methods accept points of shape (..., d) and broadcast
    over the leading axes.  Instances are immutable and thread-safe.

    A family of laws (MixtureTarget._family) holds the same arrays with leading
    time axes, lead = _p_mu.shape[:-2].  Its logpdf, pdf, posterior_weights,
    score, hessian_log and score_laplacian take points of shape lead + (N, d),
    each slice evaluated against its own time's arrays: that law's bits.
    """

    def __init__(self, weights, means, covariance):
        w = np.asarray(weights, dtype=float)
        mu = np.atleast_2d(np.asarray(means, dtype=float))
        cov = np.atleast_2d(np.asarray(covariance, dtype=float))
        if w.ndim != 1 or w.size != mu.shape[0]:
            raise ValueError("one weight per component required")
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        if cov.shape != (mu.shape[1], mu.shape[1]):
            raise ValueError("covariance shape must match the dimension")
        if np.max(np.abs(cov - cov.T)) > 1e-12 * max(1.0, np.max(np.abs(cov))):
            raise ValueError("covariance must be symmetric")
        vars(self).update(_factored(w / w.sum(), mu.copy(), cov))

    @property
    def d(self) -> int:
        return self.means.shape[-1]

    @property
    def n_components(self) -> int:
        return self.means.shape[-2]

    def _per_point(self, a):
        """a, one array per law, with an axis inserted after a family's time
        axes so that it broadcasts over each law's points; a law's a as it is."""
        lead = self._p_mu.ndim - 2
        return np.expand_dims(a, lead) if lead else a

    def _logits(self, x):
        """Logits l_k(x) less their maximum over k, K-major: shape lead + (K, N)
        for the N points of the array x, so reductions over k run along axis -2."""
        points = x.reshape(self._p_mu.shape[:-2] + (-1, x.shape[-1]))
        logits = _product(self._p_mu, np.swapaxes(points, -1, -2))
        logits += self._logit_offset
        top = logits.max(axis=-2)
        logits -= top[..., None, :]
        return logits, top

    def logpdf(self, x):
        x = np.asarray(x, dtype=float)
        logits, top = self._logits(x)
        lead = x.shape[:-1]
        return (self._per_point(self._log_norm) - 0.5 * np.sum(x * (x @ self.precision), -1)
                + top.reshape(lead) + np.log(np.exp(logits).sum(axis=-2)).reshape(lead))

    def pdf(self, x):
        return np.exp(self.logpdf(x))

    def posterior_weights(self, x):
        """pi_k(x), summing to 1 at every x; C-contiguous, shape (..., K).

        With one component pi is exactly 1 at every x, NaN and +/-inf
        included.  score and hessian_log then skip it: 1 P mu is exact and
        every centred row is P mu - P mu = +0, so their closed forms below
        are the general kernel's bits."""
        x = np.asarray(x, dtype=float)
        if self.n_components == 1:
            return np.ones(x.shape[:-1] + (1,))
        pi = self._logits(x)[0]
        np.exp(pi, out=pi)
        total = pi.sum(axis=-2)
        # normalised column by column into the output: a transposed view would
        # hand BLAS a layout whose rounding in score depends on the batch size
        out = np.empty(total.shape + (self.n_components,))
        for k in range(self.n_components):
            np.divide(pi[..., k, :], total, out=out[..., k])
        return out.reshape(x.shape[:-1] + (self.n_components,))

    def score(self, x):
        """grad log p(x) = sum_k pi_k P mu_k - P x, shape (..., d); with one
        component a new (P mu + 0.0) - P x (1 P mu turns a -0 into +0 too)."""
        x = np.asarray(x, dtype=float)
        if self.n_components == 1:
            return np.subtract(self._per_point(self._p_mu_1), _product(x, self.precision))
        return self._derivatives(x, 1)[0]

    def hessian_log(self, x):
        """hess log p(x) = -P + sum_k pi_k c_k c_k^T, shape (..., d, d); with one
        component a new +0 - P at every x (-P would make a +0 of P a -0)."""
        if self.n_components == 1:
            return (np.zeros(np.shape(x)[:-1] + (self.d, self.d))
                    - self._per_point(self.precision))
        return self._derivatives(x, 2)[1]

    def score_laplacian(self, x):
        """Componentwise Laplacian of the score, shape (..., d): the (k, a, a)
        trace of the third derivative, sum_k pi_k |c_k|^2 c_k."""
        return self._derivatives(x, 3)[2]

    def _derivatives(self, x, order):
        """[score, hessian_log, score_laplacian][:order] at the points x from one
        pi, each by its method's operations.  With one component the order-3 read
        alone forms pi (= 1); its rows c_k = +0 give the closed forms' bits."""
        x = np.asarray(x, dtype=float)
        if self.n_components == 1 and order < 3:
            return [self.score(x), self.hessian_log(x)][:order]
        pi = self.posterior_weights(x)
        out = [pi @ self._p_mu]
        if order > 1:
            cen = self._per_point(self._p_mu) - out[0][..., None, :]
            out.append(np.swapaxes(pi[..., None] * cen, -1, -2) @ cen
                       - self._per_point(self.precision))
        if order > 2:
            out.append(np.einsum("...k,...ki,...k->...i", pi, cen, np.sum(cen * cen, axis=-1)))
        out[0] -= _product(x, self.precision)
        return out

    def second_moment(self) -> float:
        """E|X|^2 = sum_k w_k (|mu_k|^2 + tr Sigma)."""
        return float(
            np.dot(self.weights, np.sum(self.means**2, axis=1))
            + np.trace(self.covariance)
        )

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def sample(self, generator, size: int) -> np.ndarray:
        """Draw samples; consumes `size` uniforms then `size*d` normals."""
        u = generator.random(size)
        return self._from_draws(u, generator.standard_normal((size, self.d)))

    def _from_draws(self, u, z) -> np.ndarray:
        """Samples whose components the uniforms u pick; normal rows z shape them."""
        comp = np.minimum(np.searchsorted(np.cumsum(self.weights), u),
                          self.n_components - 1)
        return self.means[comp] + z @ self._chol.T

    def cdf_1d(self, x):
        """Mixture CDF; only defined in dimension 1.  Each component's normal
        CDF is 0.5 erfc(-(x - mu_k) / (sigma sqrt 2)) with libm's erfc
        (math.erfc), within 2**-52 of scipy.special.ndtr at every double."""
        _require_d("cdf_1d", self.d, 1)
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - self.means[:, 0]) / (-math.sqrt(2.0 * self.covariance[0, 0]))
        erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size)
        return (0.5 * erfc.reshape(z.shape)) @ self.weights

    @cached_property
    def _iqr_1d(self) -> float:
        """Interquartile range (1D) off a 4001-point CDF grid, built once."""
        axis = default_axis(self, 4001)
        lo, hi = np.interp([0.25, 0.75], self.cdf_1d(axis), axis)
        return float(hi - lo)


class MixtureTarget(GaussianMixtureDensity):
    """Data distribution: shared-precision Gaussian mixture.

    Constructed from the precision matrix Q so the growth-envelope
    constants refer to the exact matrix used by the bounds.
    """

    def __init__(self, weights, means, precision):
        q = np.atleast_2d(np.asarray(precision, dtype=float))
        if np.max(np.abs(q - q.T)) > 1e-12 * max(1.0, np.max(np.abs(q))):
            raise ValueError("precision must be symmetric")
        q = 0.5 * (q + q.T)
        eigvals = np.linalg.eigvalsh(q)
        if eigvals.min() <= 0.0:
            raise ValueError("precision must be positive definite")
        # inv(q) is symmetric only to cond(q) eps: symmetrised, not checked
        cov = np.linalg.inv(q)
        super().__init__(weights, means, 0.5 * (cov + cov.T))
        self.q = q
        self.q.flags.writeable = False
        self._q_eigvals = eigvals

    def marginal_at(self, schedule, t):
        """Law of the forward process at time t (exact OU pushforward).

        A 1-D array of times gives a tuple of laws: one stacked build (_family)
        split into its rows in one pass, law i holding family._view(i)'s views.
        Every array is bit-identical to GaussianMixtureDensity(w, m mu, m^2 Sigma
        + s^2 I), the validating constructor; a scalar t gives one law."""
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError("t must be a scalar or a 1-D array of times")
        family = self._family(schedule, times.reshape(-1))
        state = vars(family)
        columns = [[value] * times.size if key == "target" else value
                   for key, value in state.items()]
        laws = tuple(MarginalLaw._of(state, row) for row in zip(*columns))
        return laws if times.ndim else laws[0]

    def _family(self, schedule, times):
        """The laws at a 1-D array of times as one MarginalLaw whose arrays keep
        a leading time axis: one bridge call, one batched Cholesky and one
        batched inverse.  Its t, m and s are lists of floats."""
        if not np.all((times >= 0.0) & (times <= 1.0)):
            raise ValueError("t must lie in [0, 1]")
        br = schedule.bridge(0.0, times)
        ms, ss = br.m.tolist(), br.s.tolist()
        # squared as Python floats (libm pow), as a single law's m**2 always
        # was: numpy squaring (m*m) differs from pow in the last ulp for about
        # 1 in 1000 values, and the precision with it
        m2 = np.array([m**2 for m in ms])[:, None, None]
        s2 = np.array([s**2 for s in ss])[:, None, None]
        w = self.weights / self.weights.sum()
        family = object.__new__(MarginalLaw)
        vars(family).update(_factored(np.broadcast_to(w, (times.size, w.size)),
                                      br.m[:, None, None] * self.means,
                                      m2 * self.covariance + s2 * np.eye(self.d)))
        family.t, family.m, family.s, family.target = times.tolist(), ms, ss, self
        return family

    def growth_constants(self) -> GrowthConstants:
        return growth_constants(self)


class MarginalLaw(GaussianMixtureDensity):
    """Time-t law of the noised target: means shrink by m, covariance
    becomes m^2 Sigma + s^2 I with (m, s) the bridge coefficients over [0, t].
    Built by MixtureTarget.marginal_at; carries t, m, s and the target.  A
    family of them (MixtureTarget._family) stacks every array along time.
    """

    @staticmethod
    def _of(keys, values):
        """A law holding each value under its key."""
        law = object.__new__(MarginalLaw)
        # setattr keeps the compact shared-key instance dict
        for key, value in zip(keys, values):
            setattr(law, key, value)
        return law

    def _view(self, index):
        """The law at an int index of a family's time axis, or the family of a
        slice of it; every array a view."""
        return MarginalLaw._of(vars(self), [value if key == "target" else value[index]
                                            for key, value in vars(self).items()])


def gaussian_target(mean, precision=None) -> MixtureTarget:
    """Single-Gaussian target N(mean, Q^{-1}); defaults to identity precision."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    if precision is None:
        precision = np.eye(mean.size)
    return MixtureTarget([1.0], mean[None, :], precision)


def symmetric_mixture(separation: float = 2.0, weight: float = 0.5) -> MixtureTarget:
    """1D two-component mixture w N(-a, 1) + (1-w) N(+a, 1) with unit precision."""
    return MixtureTarget([weight, 1.0 - weight], [[-separation], [separation]], [[1.0]])


def growth_constants(target: MixtureTarget) -> GrowthConstants:
    """Conservative closed-form envelope constants for a mixture target.

    |grad log p + Qx| <= |Q|_F max_k |mu_k| and
    |hess log p| <= |Q|_F + |Q|_F^2 * (max pairwise mean spread)^2;
    c0 is the larger of the two, c1 = 1.1 * lambda_max(Q).
    """
    q_fro = float(np.linalg.norm(target.q, "fro"))
    mu_norm_max = float(np.sqrt(np.sum(target.means**2, axis=1)).max())
    diffs = target.means[:, None, :] - target.means[None, :, :]
    spread = float(np.sqrt(np.sum(diffs**2, axis=-1)).max())
    grad_bound = q_fro * mu_norm_max
    hess_bound = q_fro + q_fro**2 * spread**2
    return GrowthConstants(
        c0=max(grad_bound, hess_bound),
        c1=1.1 * float(target._q_eigvals.max()),
        lambda_min=float(target._q_eigvals.min()),
    )


def default_axis(target: GaussianMixtureDensity, points: int = 2001) -> np.ndarray:
    """Evaluation axis over +/- (max |mu_k| + 6 sigma_max).

    sigma_max is taken as at least 1 so the same axis also covers every
    time marginal (whose covariance interpolates toward the identity).
    """
    mu_max = float(np.sqrt(np.sum(target.means**2, axis=1)).max())
    sig = math.sqrt(max(float(np.linalg.eigvalsh(target.covariance).max()), 1.0))
    half = mu_max + 6.0 * sig
    return np.linspace(-half, half, points)


def _grid_points(axes) -> np.ndarray:
    """The points of the tensor grid on `axes` as rows, the last axis fastest."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _require_d(name: str, d: int, top: int) -> None:
    """Raise unless d <= top (d == 1 when top is 1), naming the caller."""
    if d > top:
        rule = "d == 1" if top == 1 else f"d <= {top}"
        raise ValueError(f"{name}: implemented for {rule}, got d = {d}")


def _centered_laws(name: str, target: MixtureTarget, schedule, t: float, points,
                   reverse: bool = False):
    """Points as rows, beta, dt = 1e-6 and the laws at t, t + dt, t - dt for a
    d <= 2 audit at t off the knots; with `reverse`, each is read at 1 - t."""
    _require_d(name, target.d, 2)
    dt = 1e-6
    knots = schedule.times
    times = np.array([t, t + dt, t - dt])
    if reverse:
        knots, times = 1.0 - knots, 1.0 - times
    if np.min(np.abs(knots - t)) <= 2.0 * dt:
        raise ValueError("t must be interior to a beta interval")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts, float(schedule.beta(times[0])), dt, target.marginal_at(schedule, times)


def fokker_planck_residual(target: MixtureTarget, schedule, t: float, points):
    """Residual of the forward Kolmogorov equation at interior time t.

    d/dt p_t - beta/2 * sum_j d/dy_j (y_j p_t) - beta/2 * lap p_t, with the
    spatial terms analytic and d/dt by a centered difference with step 1e-6
    inside the same beta interval.  Returns (max_abs, rms, max_density).
    """
    pts, beta, dt, (law, plus, minus) = _centered_laws("fokker_planck_residual",
                                                       target, schedule, t, points)
    p, (g, hess) = law.pdf(pts), law._derivatives(pts, 2)
    grad = p[..., None] * g
    # lap p = p (tr hess log p + |grad log p|^2)
    lap = p * (np.trace(hess, axis1=-2, axis2=-1) + np.sum(g * g, axis=-1))
    dp_dt = (plus.pdf(pts) - minus.pdf(pts)) / (2.0 * dt)
    divergence = target.d * p + np.einsum("...i,...i->...", pts, grad)
    res = dp_dt - 0.5 * beta * divergence - 0.5 * beta * lap
    return float(np.abs(res).max()), float(np.sqrt(np.mean(res**2))), float(p.max())


def save_target(target: MixtureTarget, path) -> None:
    """Plain-text block: d=, K=, one 'w,mu...' line per component, then Q rows."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"d={target.d}\n")
        fh.write(f"K={target.n_components}\n")
        for w, mu in zip(target.weights, target.means):
            fh.write(",".join(f"{v:.17g}" for v in (w, *mu)) + "\n")
        for row in target.q:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_target(path) -> MixtureTarget:
    """Read save_target's block: exactly K + d lines after the header, then
    only blank lines."""
    with open(path) as fh:
        lines = fh.read().rstrip().split("\n")
    header = [line.strip() for line in lines[:2]] + ["", ""]
    if not (header[0].startswith("d=") and header[1].startswith("K=")):
        raise ValueError(f"target file {path} must start with 'd=' and 'K=' lines")
    d, k = int(header[0][2:]), int(header[1][2:])
    if len(lines) - 2 != k + d:
        raise ValueError(f"target file {path}: header d={d}, K={k} counts {k + d} "
                         f"lines, found {len(lines) - 2}")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return MixtureTarget([r[0] for r in rows[:k]], [r[1:] for r in rows[:k]], rows[k:])
