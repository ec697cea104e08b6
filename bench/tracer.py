"""Per-layer tracing from outside the package.

Tracer.install() replaces public ddpmlab functions and methods with timing
wrappers.  A module-level function is replaced in every ddpmlab namespace
that holds it (for example experiments.ddpm_sample and fbsde.path_generator),
so a call is traced whichever name it is reached through.  Each span records
calls, total time and self time (total minus the time of child spans).
path_generator returns a proxy that counts generators and normals and times
construction apart from the draws.  uninstall() restores every original.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class _NoiseProxy:
    """Generator stand-in that times and counts `random` and `standard_normal`."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def _timed(self, method, args, kwargs, normal):
        tr = self._tracer
        t0 = _clock()
        out = method(*args, **kwargs)
        dur = _clock() - t0
        tr.stack[-1][0] += dur
        tr.counts["noise.draw_s"] += dur
        if normal:
            size = getattr(out, "size", 1)
            shape = getattr(out, "shape", ())
            tr.counts["noise.normals"] += size
            # one path-step is one row of d normals: (steps, d) blocks count rows
            tr.counts["noise.rows"] += shape[0] if len(shape) == 2 else size
        return out

    def random(self, *args, **kwargs):
        return self._timed(self._gen.random, args, kwargs, False)

    def standard_normal(self, *args, **kwargs):
        return self._timed(self._gen.standard_normal, args, kwargs, True)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _points(x):
    shape = getattr(x, "shape", None)
    if not shape:
        return 1
    return math.prod(shape[:-1])


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counts = defaultdict(float)
        self.stack = [[0.0]]  # child-time accumulator of each open span
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stats, stack = self.stats, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                stack[-1][0] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _path_generator(self, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def path_generator(seed, path_index):
            t0 = _clock()
            gen = fn(seed, path_index)
            dur = _clock() - t0
            stack[-1][0] += dur
            counts["noise.build_s"] += dur
            counts["noise.generators"] += 1
            return _NoiseProxy(gen, self)

        return path_generator

    # -- count hooks -------------------------------------------------------

    def _count_points(self, args, kwargs, out):
        self.counts["target.posterior_weights.points"] += _points(_arg(args, kwargs, 1, "x"))

    def _count_batch(self, steps_of):
        def after(args, kwargs, batch):
            c = self.counts
            c["simulate.path_steps"] += batch.paths * steps_of(args, kwargs)
            c["simulate.diverged_paths"] += int(batch.diverged.sum())
            c["simulate.state_bytes"] += batch.states.nbytes + (
                0 if batch.noises is None else batch.noises.nbytes)
        return after

    def _count_girsanov(self, args, kwargs, report):
        # the bound's inline Euler-Maruyama loop is a stepping call of its own
        schedule = _arg(args, kwargs, 1, "schedule")
        paths = _arg(args, kwargs, 3, "paths")
        substeps = _arg(args, kwargs, 4, "substeps")
        self.counts["simulate.path_steps"] += paths * schedule.n * substeps

    # -- installation ------------------------------------------------------

    def install(self):
        from ddpmlab import bounds, experiments, fbsde, metrics, simulate
        from ddpmlab.schedule import NoiseSchedule
        from ddpmlab.target import GaussianMixtureDensity, MixtureTarget

        def sched_steps(args, kwargs):
            return _arg(args, kwargs, 1, "schedule").n

        def reverse_steps(args, kwargs):
            return _arg(args, kwargs, 1, "schedule").n * _arg(args, kwargs, 2, "substeps")

        methods = [
            (GaussianMixtureDensity, "posterior_weights", "target.posterior_weights",
             self._count_points),
            (GaussianMixtureDensity, "score", "target.score", None),
            (GaussianMixtureDensity, "hessian_log", "target.hessian_log", None),
            (GaussianMixtureDensity, "cdf_1d", "target.cdf_1d", None),
            (MixtureTarget, "marginal_at", "target.marginal_at", None),
            (NoiseSchedule, "bridge", "schedule.bridge", None),
        ]
        for owner, attr, name, after in methods:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, after))

        functions = [
            (simulate.forward_chain, "simulate.forward_chain",
             self._count_batch(sched_steps)),
            (simulate.ddpm_sample, "simulate.ddpm_sample",
             self._count_batch(sched_steps)),
            (simulate.reverse_sde, "simulate.reverse_sde",
             self._count_batch(reverse_steps)),
            (fbsde.bsde_residual_both, "fbsde.bsde_residual_both", None),
            (fbsde.pde_residual, "fbsde.pde_residual", None),
            (metrics.score_loss, "metrics.score_loss", None),
            (metrics.fd_bin_edges, "metrics.fd_bin_edges", None),
            (metrics.tv_hist_vs_density, "metrics.tv_hist", None),
            (metrics.tv_hist_two_samples, "metrics.tv_hist", None),
            (bounds.girsanov_bound, "bounds.girsanov_bound", self._count_girsanov),
            (bounds.schrodinger_bound, "bounds.schrodinger_bound", None),
            (experiments.run, "experiments.run", None),
        ]
        replacements = {id(fn): self._wrap(name, fn, after)
                        for fn, name, after in functions}
        replacements[id(simulate.path_generator)] = self._path_generator(
            simulate.path_generator)
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ddpmlab" or key.startswith("ddpmlab."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                new = replacements.get(id(value))
                if new is not None and new.__wrapped__ is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]
