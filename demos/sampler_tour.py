"""Tour of the sampler stack on a bimodal 1D target.

Builds the practitioner-style variance schedule, pushes the target forward,
samples it back with the discrete reverse recursion, and quantifies how close
the output law is to the data, with exact and deliberately biased denoisers.
"""

import numpy as np

import ddpmlab as dl

target = dl.symmetric_mixture()                       # 1/2 N(-2,1) + 1/2 N(2,1)
schedule = dl.from_linear_variance(200, 1e-4, 0.02)   # variances 1e-4 .. 0.02
print(f"schedule: n={schedule.n}, alpha_bar_n={schedule.alpha_bar_n:.4f}")

# the forward chain ends close to, but not exactly at, a standard Gaussian
axis = dl.default_axis(target)
phi = np.exp(-0.5 * axis**2) / np.sqrt(2 * np.pi)
p1 = target.marginal_at(schedule, 1.0).pdf(axis[:, None])
print(f"sup |p_1 - phi| = {np.abs(p1 - phi).max():.4f}")

edges = dl.fd_bin_edges(target, 50_000)
for bias in (0.0, 0.5):
    model = dl.ScoreModel(target, schedule, mode="perturbed", bias=bias)
    batch = dl.ddpm_sample(model, schedule, 50_000, seed=7, record="terminal")
    value, se, _ = dl.tv_hist_vs_density(batch.terminal_states, target, edges)
    print(f"bias {bias:3.1f}: terminal TV to data = {value:.4f} (se {se:.4f})")

# the discrete sampler is the exact exponential-integrator step of the
# frozen-score reverse SDE: at one substep the two run one update, so under
# shared noise they agree path by path, bit for bit
model = dl.ScoreModel(target, schedule, mode="exact")
dd = dl.ddpm_sample(model, schedule, 200, seed=11)
rev = dl.reverse_sde(model, schedule, 1, 200, seed=11, score_mode="model")
print(f"sampler vs one-substep reverse SDE: bit-identical "
      f"{np.array_equal(dd.states, rev.states)}")
