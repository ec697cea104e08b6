"""Stochastic processes: forward chain, reverse-time SDE, DDPM sampler.

Noise contract: every path owns an independent Philox substream keyed by
(seed, path index) and consumes its draws in time order (one optional
uniform for the data draw, then standard normals step by step).  Results
are therefore bit-identical for a given (seed, paths, substeps) regardless
of how paths are chunked or scheduled.  Philox is counter-based, so a
stream is fixed by its key and counter alone: each chunk builds one
generator and re-keys it per path (`_draw_block`), which reproduces a
freshly built per-path generator exactly.

The same key and counter also make every stream a prefix of any longer one:
the first k normal rows of a path do not depend on how many rows follow, so
a 101-step block is exactly the first 101 rows of the 201-step block of the
same paths.  Blocks are time-major, (steps, paths, d), so a prefix is a
contiguous slab, and so are the buffers a batch records into: each step
reads and writes one contiguous row, and the batch's states and noises
view the buffers transposed.  Within `_shared_noise` (entered once per `experiments.run`),
`_draw_block` draws each path range once and serves later requests for it
as read-only prefixes.  Outside it, a block is served the same way while a
one-chunk record="full" batch still views it as its `noises`.
"""

from __future__ import annotations

import math
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .schedule import NoiseSchedule
from .target import GaussianMixtureDensity, GrowthConstants, MixtureTarget

__all__ = [
    "TrajectoryBatch",
    "ScoreModel",
    "growth_clip",
    "path_generator",
    "forward_chain",
    "reverse_sde",
    "ddpm_sample",
    "reverse_transition_density",
]

DIVERGENCE_LIMIT = 1e6
_CHUNK_BUDGET = 8_000_000  # floats per (steps x chunk x d) noise block
_MIN_CHUNK = 256  # the fewest paths a chunk takes, however long the batch
_TILE = 32_768  # floats of the path-major tile each block is drawn through


def path_generator(seed: int, path_index: int) -> np.random.Generator:
    """Counter-based substream for one path; seed and path index are the two
    64-bit words of the Philox key."""
    if not (0 <= seed < 2**64 and 0 <= path_index < 2**64):
        raise ValueError(f"seed and path index must be in [0, 2**64), got "
                         f"seed {seed}, path index {path_index}")
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _kept_paths(name: str, diverged, detail: str = "") -> np.ndarray:
    """Mask of the paths within DIVERGENCE_LIMIT; raises a ValueError naming
    `name` when there is none, so no empty selection reaches a statistic."""
    keep = ~np.asarray(diverged)
    if not keep.any():
        raise ValueError(
            f"{name}: all {keep.size} paths were excluded for leaving the "
            f"{DIVERGENCE_LIMIT:g} norm limit{detail}")
    return keep


def _chunk_size(paths: int, steps: int, d: int) -> int:
    # no chunk, the last included, holds one path of several: numpy hands a
    # one-row product to BLAS's vector kernel, which rounds differently
    size = max(_MIN_CHUNK, min(paths, _CHUNK_BUDGET // max(1, steps * d)))
    while paths % size == 1 and size < paths:
        size += 1
    return size


def _fresh_block(seed, start, count, steps, d, with_uniform):
    """One generator per chunk: assigning its fresh state keyed (seed, start + j)
    resets the counter and buffer, so column j of the (steps, count, d) block
    is what path_generator(seed, start + j) draws, drawn into a row of a tile
    (_TILE floats, or one path) that is copied transposed.  The state is a
    dict of plain ints, which the setter converts faster than numpy scalars."""
    normals = np.empty((steps, count, d))
    uniforms = np.empty(count) if with_uniform else None
    tile = np.empty((max(1, min(count, _TILE // (steps * d))), steps, d))
    gen = path_generator(seed, start)
    bit_generator, normal = gen.bit_generator, gen.standard_normal
    key = [seed, start]
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for first in range(0, count, len(tile)):
        rows = tile[:count - first]
        for j, row in enumerate(rows, first):
            key[1] = start + j
            bit_generator.state = state
            if with_uniform:
                uniforms[j] = gen.random()
            normal(out=row)
        normals[:, first:first + len(rows)] = rows.transpose(1, 0, 2)
    return uniforms, normals


# outside a run: (seed, start, count, d) -> normals that some batch still views
_live = weakref.WeakValueDictionary()
# blocks drawn in the current run: (seed, start, count, d, with_uniform) ->
# (uniforms, normals), oldest first; None outside _shared_noise
_blocks: ContextVar[dict | None] = ContextVar("ddpmlab_noise_blocks", default=None)


@contextmanager
def _shared_noise():
    """Let `_draw_block` serve each path range from one draw until exit."""
    token = _blocks.set({})
    try:
        yield
    finally:
        _blocks.reset(token)


def _draw_block(seed, start, count, steps, d, with_uniform=False):
    """Per-path draws for paths [start, start+count): normals (steps, count, d)
    and optionally one leading uniform per path, drawn by `_fresh_block`.

    A held block serves a request no longer than it, read-only, with its
    first `steps` rows: the contiguous slab normals[:steps].  Within
    `_shared_noise` a longer request drops it before drawing, and the memo
    keeps at most _CHUNK_BUDGET floats, oldest out first (a larger block is
    not kept).  Outside it, a uniform-less block is held in `_live` while
    some batch views it."""
    memo = _blocks.get()
    if memo is None and with_uniform:  # only a forward_chain could read it
        return _fresh_block(seed, start, count, steps, d, with_uniform)
    if memo is None:
        normals = _live.get((seed, start, count, d))
        if normals is None or normals.shape[0] < steps:
            _, normals = _fresh_block(seed, start, count, steps, d, False)
            normals.flags.writeable = False
            _live[seed, start, count, d] = normals
        return None, normals[:steps]
    key = (seed, start, count, d, with_uniform)
    if key in memo and memo[key][1].shape[0] >= steps:
        uniforms, normals = memo[key]
        return uniforms, normals[:steps]
    memo.pop(key, None)
    size = count * (steps * d + with_uniform)
    while memo and size + sum(z.size + (0 if u is None else u.size)
                              for u, z in memo.values()) > _CHUNK_BUDGET:
        del memo[next(iter(memo))]
    uniforms, normals = _fresh_block(seed, start, count, steps, d, with_uniform)
    if size <= _CHUNK_BUDGET:
        for block in (uniforms, normals):
            if block is not None:
                block.flags.writeable = False
        memo[key] = (uniforms, normals)
    return uniforms, normals


@dataclass
class TrajectoryBatch:
    """Simulated paths on a time grid, with the driving noise retained.

    states has shape (paths, len(times), d); noises, when retained, holds the
    step draws (paths, len(times)-1, d), read-only and maybe viewing a shared
    block.  Both are transposed views of time-major buffers, so states[:, k]
    is contiguous; np.ascontiguousarray gives a path-major copy.  diverged
    flags the paths frozen for leaving the norm limit.  source (the target, or
    the ScoreModel whose scores drove the paths) and schedule simulated it.
    """

    times: np.ndarray
    states: np.ndarray
    noises: np.ndarray | None
    direction: str
    diverged: np.ndarray
    source: MixtureTarget | ScoreModel
    schedule: NoiseSchedule

    @property
    def paths(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[2]

    @property
    def terminal_states(self) -> np.ndarray:
        return self.states[:, -1, :]

    def noise_sanity(self):
        """Empirical per-step noise mean and variance deviation (diagnostic)."""
        if self.noises is None:
            raise ValueError("batch was simulated without noise retention")
        p = self.paths
        mean_dev = float(np.abs(self.noises.mean(axis=0)).max())
        var_dev = float(np.abs(self.noises.var(axis=0) - 1.0).max())
        return mean_dev, var_dev, bool(
            mean_dev <= 5.0 / math.sqrt(p) and var_dev <= 5.0 * math.sqrt(2.0 / p)
        )


class ScoreModel:
    """Family of per-step denoisers z_i with the derived score forms.

    s_i(x) = -z_i(x)/sqrt(1-abar_i) targets grad log p_i; the interpolated
    s(t, x) = -(1+sqrt(alpha_i))/(2 sqrt(1-abar_i)) z_i(x) for t in
    (t_{i-1}, t_i] (s_frozen) drives the piecewise-frozen reverse dynamics.

    Modes:
      exact      s_i is the true marginal score.
      perturbed  s_i = true + bias + amplitude * sin(omega x + phase_i); the
                 one mode that takes bias and noise_amplitude.
      clipped    wraps another model, enforcing |s_i| <= B_i; built by growth_clip.
      zero       z_i = s_i = 0 (degenerate denoiser, useful as an OU oracle).
    """

    def __init__(self, target: MixtureTarget, schedule: NoiseSchedule,
                 mode: str = "exact", bias=None, noise_amplitude: float = 0.0,
                 _clip=None):
        if mode not in ("exact", "perturbed", "clipped", "zero"):
            raise ValueError(f"unknown score model mode {mode!r}")
        if mode != "perturbed" and (bias is not None or noise_amplitude != 0.0):
            raise ValueError("bias and noise_amplitude apply to mode 'perturbed', "
                             f"not {mode!r}")
        if (mode == "clipped") != (_clip is not None):
            raise ValueError("mode 'clipped' is built by growth_clip only")
        self.target = target
        self.schedule = schedule
        self.mode = mode
        self.bias = None if bias is None else np.atleast_1d(np.asarray(bias, float))
        if self.bias is not None and self.bias.shape not in ((1,), (target.d,)):
            raise ValueError(f"bias shape {self.bias.shape} for a d = {target.d} target")
        self.noise_amplitude = float(noise_amplitude)
        self._clip = _clip  # (inner_model, growth_constants, variant)

    @cached_property
    def _laws(self) -> tuple:
        """Marginal laws p_i at t_1..t_n, from one stacked build on first use."""
        return self.target.marginal_at(self.schedule, self.schedule.times[1:])

    def growth_bound(self, i: int, x) -> np.ndarray:
        """Growth envelope B_i(x) = c0/sqrt(abar_i) + (c1/abar_i)|x|."""
        _, envelope, _ = self._clip
        abar = self.schedule.alpha_bars[i - 1]
        r = np.sqrt(np.sum(np.asarray(x, float) ** 2, axis=-1))
        return envelope.c0 / math.sqrt(abar) + (envelope.c1 / abar) * r

    def s_step(self, i: int, x, truth=None) -> np.ndarray:
        """s_i(x) for step i in 1..n; a given `truth` (grad log p_i(x)) is only read."""
        if not 1 <= i <= self.schedule.n:
            raise ValueError("step index out of range")
        x = np.asarray(x, dtype=float)
        if self.mode == "zero":
            return np.zeros_like(x)
        if self.mode == "clipped":
            inner, _, variant = self._clip
            s = inner.s_step(i, x, truth)
            bound = self.growth_bound(i, x)
            norm = np.sqrt(np.sum(s * s, axis=-1))
            over = norm > bound
            if not np.any(over):
                return s
            s = s.copy()
            if variant == "oracle":  # on every row, so no row is scored alone
                s[over] = (self._laws[i - 1].score(x) if truth is None else truth)[over]
            else:
                s[over] *= (bound[over] / norm[over])[..., None]
            return s
        s = self._laws[i - 1].score(x) if truth is None else truth.copy()
        if self.mode == "perturbed":
            if self.bias is not None:
                s += self.bias
            if self.noise_amplitude != 0.0:
                phase = 2.0 * math.pi * ((i * 0.6180339887498949) % 1.0)
                s += self.noise_amplitude * np.sin(2.0 * x + phase)
        return s

    def z_step(self, i: int, x) -> np.ndarray:
        """Denoiser z_i(x) = -sqrt(1-abar_i) s_i(x)."""
        abar = self.schedule.alpha_bars[i - 1]
        return -math.sqrt(1.0 - abar) * self.s_step(i, x)

    def s_frozen(self, i: int, x) -> np.ndarray:
        """s(t, x) for t in (t_{i-1}, t_i], addressed by the step index.

        Equals -(1+sqrt(alpha_i))/(2 sqrt(1-abar_i)) z_i(x).
        """
        alpha = self.schedule.alphas[i - 1]
        return 0.5 * (1.0 + math.sqrt(alpha)) * self.s_step(i, x)


def growth_clip(score_model: ScoreModel, envelope: GrowthConstants,
                variant: str = "oracle") -> ScoreModel:
    """Clip a model to the growth envelope B_i.

    variant="oracle" substitutes the true marginal score wherever the model
    exceeds B_i (never increases the pointwise error); variant="projection"
    rescales onto the boundary when no analytic target is available.
    """
    if variant not in ("oracle", "projection"):
        raise ValueError("variant must be 'oracle' or 'projection'")
    if variant == "oracle" and score_model.target is None:
        raise ValueError("oracle-variant clipping needs an attached analytic target")
    return ScoreModel(score_model.target, score_model.schedule, mode="clipped",
                      _clip=(score_model, envelope, variant))


def _integrate(seed, paths, times, d, step, record, direction, source, schedule,
               start_state=None, limit=DIVERGENCE_LIMIT) -> TrajectoryBatch:
    """The stepping loop behind every sampler.

    Paths run in chunks on their own noise streams (`_draw_block`).  The
    first normal row of a path is its initial state, or, with `start_state`,
    is passed with one leading uniform to start_state(u, z0).  Step k maps
    a chunk's states x to step(k, x, z, rows), with z the chunk's normal row
    for that step and `rows` the chunk's slice of the batch.  A path whose
    new state is not within `limit` in norm (NaN included) is frozen and
    flagged in `diverged`; a chunk masks its states only once one is.  Norms
    are taken only when a chunk leaves the box max|x_i| <= limit / (2 sqrt(d)),
    one reduction that NaN fails: inside it no norm exceeds limit / 2 beyond rounding.
    record="full" keeps every state on `times` and the step noises z[1:],
    record="terminal" the first and last states: time-major, viewed transposed.
    """
    if record not in ("full", "terminal"):
        raise ValueError(f"record must be 'full' or 'terminal', got {record!r}")
    if paths < 1:
        raise ValueError("paths must be >= 1")
    steps = times.size - 1
    full = record == "full"
    box = limit / (2.0 * math.sqrt(d))
    csize = _chunk_size(paths, steps + 1, d)
    states = np.empty((steps + 1 if full else 2, paths, d))
    noises = np.empty((steps, paths, d)) if full and csize < paths else None
    diverged = np.zeros(paths, dtype=bool)
    for begin in range(0, paths, csize):
        count = min(csize, paths - begin)
        u, z = _draw_block(seed, begin, count, steps + 1, d,
                           with_uniform=start_state is not None)
        x = z[0].copy() if start_state is None else start_state(u, z[0])
        alive = np.ones(count, dtype=bool)
        frozen = False  # some path of the chunk is frozen
        rows = slice(begin, begin + count)
        states[0, rows] = x
        if noises is not None:
            noises[:, rows] = z[1:]
        for k in range(steps):
            x_new = step(k, x, z[k + 1], rows)
            if not np.abs(x_new).max() <= box:
                alive &= np.sqrt(np.sum(x_new * x_new, axis=-1)) <= limit
                frozen = not alive.all()
            x = np.where(alive[:, None], x_new, x) if frozen else x_new
            if full:
                states[k + 1, rows] = x
        if not full:
            states[1, rows] = x
        diverged[rows] = ~alive
    if full:  # one chunk lends the batch its block; several were copied
        noises = (z[1:] if noises is None else noises).transpose(1, 0, 2)
        noises.flags.writeable = False
    return TrajectoryBatch(times=times if full else np.array([0.0, 1.0]),
                           states=states.transpose(1, 0, 2), noises=noises,
                           direction=direction, diverged=diverged, source=source,
                           schedule=schedule)


def _check_schedule(score_model: ScoreModel, schedule: NoiseSchedule) -> None:
    if score_model.schedule != schedule:
        raise ValueError(
            f"the score model was built on a {score_model.schedule.n}-step "
            f"schedule that differs from the {schedule.n}-step schedule passed")


def _exact_reverse(name: str, batch: TrajectoryBatch, full: bool = False):
    """(target, schedule) of an exact-score reverse batch, which with `full`
    kept its noises; a ValueError naming `name` for any other batch."""
    if batch.direction != "reverse" or isinstance(batch.source, ScoreModel):
        raise ValueError(f"{name}: expected an exact-score reverse batch")
    if full and batch.noises is None:
        raise ValueError("batch lacks retained noises; simulate with record='full'")
    return batch.source, batch.schedule


def forward_chain(target: MixtureTarget, schedule: NoiseSchedule, paths: int,
                  seed: int, record: str = "full") -> TrajectoryBatch:
    """Forward Markov chain x_i = sqrt(alpha_i) x_{i-1} + sqrt(1-alpha_i) Z_i."""
    sqrt_a = np.sqrt(schedule.alphas)
    sqrt_v = np.sqrt(1.0 - schedule.alphas)

    def step(k, x, z, rows):
        return sqrt_a[k] * x + sqrt_v[k] * z

    return _integrate(seed, paths, schedule.times, target.d, step, record,
                      "forward", target, schedule, start_state=target._from_draws)


def _reverse_grid(schedule: NoiseSchedule, substeps: int):
    """Reverse grid with `substeps` points per schedule interval, the forward
    step index of the interval covering each substep, and the constant beta
    over each substep (index arithmetic, no knot rounding)."""
    nsteps = schedule.n * substeps
    grid = np.linspace(0.0, 1.0, nsteps + 1)
    interval = schedule.n - np.arange(nsteps) // substeps
    return grid, interval, -schedule.n * schedule.log_alphas[interval - 1]


def _euler(x, score, beta, h, z):
    """x + (0.5 beta x + beta score) h + sqrt(beta h) z, built in place in one
    new array; x, score and z are only read (a frozen score is reused across
    substeps, and a shared noise block is read-only)."""
    drift = 0.5 * beta * x
    drift += beta * score
    drift *= h
    drift += x
    drift += math.sqrt(beta * h) * z
    return drift


def _exact_step(target, schedule, grid, betas, observe=None):
    """Euler-Maruyama step of the reverse SDE with the true marginal score;
    observe(k, x, score, rows), when given, sees the score each step uses."""
    h = 1.0 / betas.size
    scores = [law.score for law in target.marginal_at(schedule, 1.0 - grid[:-1])]
    betas = betas.tolist()

    def step(k, x, z, rows):
        score = scores[k](x)
        if observe is not None:
            observe(k, x, score, rows)
        return _euler(x, score, betas[k], h, z)

    return step


def _frozen_score(score_model, interval, substeps):
    """s(1 - tau_n(t), X_{tau_n(t)}) as a function of (k, x): the model score
    taken at the state where the current interval began."""
    frozen = None

    def at(k, x):
        nonlocal frozen
        if k % substeps == 0:
            frozen = score_model.s_frozen(int(interval[k]), x)
        return frozen

    return at


def reverse_sde(source, schedule: NoiseSchedule, substeps: int, paths: int,
                seed: int, score_mode: str = "exact",
                record: str = "full") -> TrajectoryBatch:
    """Integrate the reverse-time SDE from X*_0 ~ N(0, I).

    score_mode="exact": Euler-Maruyama with the true marginal score at the
    current state (source must be a MixtureTarget).  score_mode="model":
    `source` is a ScoreModel and the drift holds s(1 - tau_n(t), .) frozen at
    the interval-start state.  With substeps == 1 each interval is advanced
    by its exact exponential-integrator update, which is the DDPM recursion:
    the step is ddpm_sample's own, so under shared noise the two samplers
    agree bit for bit.

    Paths whose state exceeds 1e6 in norm are frozen and flagged in
    `diverged` rather than aborting the batch.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if score_mode not in ("exact", "model"):
        raise ValueError("score_mode must be 'exact' or 'model'")
    if score_mode == "exact" and not isinstance(source, GaussianMixtureDensity):
        raise TypeError("exact mode integrates against an analytic target")
    if score_mode == "model" and not isinstance(source, ScoreModel):
        raise TypeError("model mode needs a ScoreModel")
    grid, interval, betas = _reverse_grid(schedule, substeps)
    if score_mode == "exact":
        return _integrate(seed, paths, grid, source.d,
                          _exact_step(source, schedule, grid, betas), record,
                          "reverse", source, schedule)
    _check_schedule(source, schedule)
    frozen_at = _frozen_score(source, interval, substeps)
    h = 1.0 / betas.size

    def euler_step(k, x, z, rows):
        return _euler(x, frozen_at(k, x), betas[k], h, z)

    return _integrate(seed, paths, grid, source.target.d,
                      _ddpm_step(source, schedule, True) if substeps == 1
                      else euler_step, record, "reverse", source, schedule)


def _ddpm_step(score_model, schedule, final_noise):
    """Step k of ddpm_sample's recursion (i = n - k), the one update that it
    and one-substep model-mode reverse_sde both run."""
    n = schedule.n
    alphas = schedule.alphas
    abars = schedule.alpha_bars
    sigmas = schedule.sigmas

    def step(k, x, z, rows):
        i = n - k
        coeff = (1.0 - alphas[i - 1]) / math.sqrt(1.0 - abars[i - 1])
        x_new = x - coeff * score_model.z_step(i, x)
        x_new /= math.sqrt(alphas[i - 1])
        if i > 1 or final_noise:
            x_new += sigmas[i - 1] * z
        return x_new

    return step


def ddpm_sample(score_model: ScoreModel, schedule: NoiseSchedule, paths: int,
                seed: int, final_noise: bool = True,
                record: str = "full") -> TrajectoryBatch:
    """Run the discrete sampler x*_n = xi_n, then for i = n..1

        x*_{i-1} = (x*_i - (1-alpha_i)/sqrt(1-abar_i) z_i(x*_i))/sqrt(alpha_i)
                   + sigma_i xi_i,

    omitting the i = 1 noise when final_noise is False.  States are stored on
    the reverse-time grid: column j holds x*_{n-j}.
    """
    _check_schedule(score_model, schedule)
    return _integrate(seed, paths, schedule.times, score_model.target.d,
                      _ddpm_step(score_model, schedule, final_noise), record,
                      "ddpm", score_model, schedule)


def reverse_transition_density(target: MixtureTarget, schedule: NoiseSchedule,
                               t: float, x, r: float, y) -> np.ndarray:
    """Transition density p*(t, x, r, y) of the exact reverse-time diffusion.

    p* = exp((d/2) int_t^r beta_{1-u} du) * p_{1-r}(y)/p_{1-t}(x) * q(t,x,r,y)
    with q the expanding-OU kernel; evaluated in log space for stability.
    """
    if not (0.0 < t < r < 1.0):
        raise ValueError("need 0 < t < r < 1")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = target.d
    br = schedule.bridge(1.0 - r, 1.0 - t)
    m, s2 = br.m, br.s**2
    int_beta = schedule.integrated_beta(1.0 - t) - schedule.integrated_beta(1.0 - r)
    log_pref = 0.5 * d * int_beta
    log_q = (d * math.log(m) - 0.5 * d * math.log(2.0 * math.pi * s2)
             - 0.5 * (m**2 / s2) * np.sum((y - x / m) ** 2, axis=-1))
    at_r, at_t = target.marginal_at(schedule, 1.0 - np.array([r, t]))
    log_ratio = at_r.logpdf(y) - at_t.logpdf(x)
    return np.exp(log_pref + log_ratio + log_q)

