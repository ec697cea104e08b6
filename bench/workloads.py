"""The benchmark's three workloads.

Each workload builds its inputs from the seed, runs one iteration at a time
and checks every iteration against the oracle verdicts: `ok` is False when a
check fails, and `digest` fingerprints the outputs so that iterations can be
compared byte for byte.

    tv_pipeline        `ddpmlab run` tv-pipeline: large batches (20000 paths)
    sign_adjudication  `ddpmlab run` sign-adjudication: many calls on 256 paths
    pathwise_3d        Python API on a d=3, K=6 anisotropic mixture, record full
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

import ddpmlab
from ddpmlab.cli import main as cli_main
from ddpmlab.experiments import parse_config

HERE = os.path.dirname(os.path.abspath(__file__))

# The warm-up iteration runs at 1/WARMUP_DIVISOR of the paths, samples and
# substep counts: enough to pay lazy imports and first-call costs, cheap
# enough to repeat for every set-up measurement.  Its statistical checks are
# not counted, since they were designed for the full sample size.
WARMUP_DIVISOR = 16


@dataclass
class Outcome:
    ok: bool
    digest: str
    detail: str
    bytes_written: int = 0


class CliWorkload:
    """One `ddpmlab run <config> --seed S --out DIR` per iteration."""

    def __init__(self, config_file, seed, out_dir, expected_spans):
        self.seed = seed
        self.out_dir = out_dir
        self.config_path = os.path.join(HERE, "configs", config_file)
        with open(self.config_path) as fh:
            self.config_text = fh.read()
        self.values = parse_config(self.config_text).values
        self.expected_spans = expected_spans

    def warmup(self):
        path = os.path.join(self.out_dir, "warmup.cfg")
        with open(path, "w") as fh:
            fh.write(_scale_sizes(self.config_text, WARMUP_DIVISOR))
        cli_main(["run", path, "--seed", str(self.seed),
                  "--out", os.path.join(self.out_dir, "warmup")])

    def run(self):
        return cli_main(["run", self.config_path, "--seed", str(self.seed),
                         "--out", os.path.join(self.out_dir, "run")])

    def check(self, status) -> Outcome:
        run_dir = os.path.join(self.out_dir, "run")
        names = sorted(os.listdir(run_dir))
        digest = hashlib.sha256()
        written = 0
        summary = b""
        for name in names:
            with open(os.path.join(run_dir, name), "rb") as fh:
                data = fh.read()
            written += len(data)
            if name == "summary.txt":
                summary = data
            if name == "summary.txt" or name.endswith(".csv"):
                digest.update(name.encode() + b"\0" + data + b"\0")
        passed = status == 0 and summary.endswith(b"RESULT PASS\n")
        failures = [line for line in summary.decode().splitlines()
                    if line.startswith("FAIL")]
        detail = f"exit {status}" + "".join(f"; {f}" for f in failures)
        return Outcome(passed, digest.hexdigest(), detail, written)

    def path_steps(self) -> int:
        v = self.values
        n, paths = int(v["schedule.n"]), int(v["paths"])
        if v["experiment"] == "tv-pipeline":
            sub = int(v["substeps"])
            per_bias = paths * n * (1 + sub + 1)  # ddpm, girsanov EM, girsanov hat
            return len(_as_list(v["biases"])) * per_bias + paths * n * sub
        return sum(paths * n * int(s) for s in _as_list(v["substeps_list"]))

    def working_set_bytes(self) -> int:
        """Computed: the largest noise block plus the arrays it fills."""
        v = self.values
        n, paths = int(v["schedule.n"]), int(v["paths"])
        if v["experiment"] == "tv-pipeline":
            # girsanov_bound draws (paths, n*substeps + 1) normals per chunk
            return 8 * paths * (n * int(v["substeps"]) + 1)
        # record full: noise block, states and retained noises
        steps = n * max(int(s) for s in _as_list(v["substeps_list"]))
        return 8 * paths * (3 * steps + 2)


class Pathwise3d:
    """forward_chain, ddpm_sample and one-substep model-mode reverse_sde,
    record full, on the fixed d=3, K=6 mixture."""

    paths = 8000
    expected_spans = ("target.posterior_weights", "target.score",
                      "target.marginal_at", "schedule.bridge", "simulate.noise",
                      "simulate.forward_chain", "simulate.ddpm_sample",
                      "simulate.reverse_sde")

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.target = ddpmlab.load_target(os.path.join(HERE, "pathwise_3d_target.txt"))
        self.schedule = ddpmlab.from_linear_variance(100, 1e-4, 0.05)
        self.terminal_mean = self.target.marginal_at(self.schedule, 1.0).mean()

    def _simulate(self, paths):
        model = ddpmlab.ScoreModel(self.target, self.schedule, mode="exact")
        forward = ddpmlab.forward_chain(self.target, self.schedule, paths,
                                        self.seed, record="full")
        ddpm = ddpmlab.ddpm_sample(model, self.schedule, paths, self.seed,
                                   record="full")
        reverse = ddpmlab.reverse_sde(model, self.schedule, 1, paths, self.seed,
                                      score_mode="model", record="full")
        return forward, ddpm, reverse

    def warmup(self):
        self._simulate(self.paths // WARMUP_DIVISOR)

    def run(self):
        return self._simulate(self.paths)

    def check(self, batches) -> Outcome:
        forward, ddpm, reverse = batches
        max_diff = float(np.abs(ddpm.states - reverse.states).max())
        sane = all(b.noise_sanity()[2] for b in batches)
        diverged = int(ddpm.diverged.sum() + reverse.diverged.sum()
                       + forward.diverged.sum())
        end = forward.terminal_states
        se = end.std(axis=0) / math.sqrt(end.shape[0])
        z = float(np.max(np.abs(end.mean(axis=0) - self.terminal_mean) / se))
        ok = max_diff <= 1e-12 and sane and diverged == 0 and z <= 5.0
        digest = hashlib.sha256()
        for b in batches:
            digest.update(np.ascontiguousarray(b.states).tobytes())
            digest.update(b.diverged.tobytes())
        detail = (f"max_diff={max_diff:.3g} noise_sanity={sane} "
                  f"diverged={diverged} mean_z={z:.3f}")
        return Outcome(ok, digest.hexdigest(), detail)

    def path_steps(self) -> int:
        return 3 * self.paths * self.schedule.n

    def working_set_bytes(self) -> int:
        """Computed: three retained full batches plus one noise block."""
        n, d = self.schedule.n, self.target.d
        batch = 8 * self.paths * d * ((n + 1) + n)
        return 3 * batch + 8 * self.paths * (n + 1) * d


def _as_list(value):
    return value if isinstance(value, list) else [value]


def _scale_sizes(text, divisor):
    floors = {"paths": 16, "samples": 16, "substeps_list": 1}
    lines = []
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        floor = floors.get(key.strip()) if sep else None
        if floor is not None:
            sizes = [str(max(floor, int(v) // divisor)) for v in value.split(",")]
            line = f"{key.strip()} = {','.join(sizes)}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def make(name, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    if name == "tv_pipeline":
        return CliWorkload("tv_pipeline.cfg", seed, out_dir, (
            "target.posterior_weights", "target.score", "target.marginal_at",
            "schedule.bridge", "simulate.noise", "simulate.ddpm_sample",
            "simulate.reverse_sde", "metrics.score_loss", "metrics.fd_bin_edges",
            "metrics.tv_hist", "target.cdf_1d", "bounds.girsanov_bound",
            "bounds.schrodinger_bound", "experiments.run"))
    if name == "sign_adjudication":
        return CliWorkload("sign_adjudication.cfg", seed, out_dir, (
            "target.posterior_weights", "target.score", "target.hessian_log",
            "target.marginal_at", "schedule.bridge", "simulate.noise",
            "simulate.reverse_sde", "fbsde.bsde_residual_both",
            "fbsde.pde_residual", "experiments.run"))
    if name == "pathwise_3d":
        return Pathwise3d(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
