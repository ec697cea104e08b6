"""Evaluate the explicit error bounds against Monte Carlo counterparts.

Two bounds carry explicit constants and get verdicts: the bridge-based TV
bound on the exact reverse process, and the Girsanov drift-mismatch bound
between the frozen-score sampler and the exact reverse flow.  The headline
three-term bound has a generic constant, so only its term breakdown is
reported.
"""

import ddpmlab as dl

target = dl.symmetric_mixture()
schedule = dl.from_linear_variance(100, 1e-4, 0.02)

batch = dl.reverse_sde(target, schedule, 4, 40_000, seed=3, record="terminal")
rep = dl.schrodinger_bound(batch)
print(f"bridge TV bound: lhs {rep.lhs:.4f} <= rhs {rep.rhs:.4f} "
      f"[{rep.verdict}], KL(phi||p_1) = {rep.terms['kl_phi_p1']:.4f}")

for bias in (0.1, 0.5):
    model = dl.ScoreModel(target, schedule, mode="perturbed", bias=bias)
    gb = dl.girsanov_bound(target, schedule, model, 30_000, 2, seed=5)
    print(f"girsanov bound, bias {bias}: lhs {gb.lhs:.4f} <= rhs {gb.rhs:.4f} "
          f"[{gb.verdict}]")

envelope = target.growth_constants()
terms = dl.tv_bound_terms(schedule, target.d, 1e-4, envelope)
print(f"three-term breakdown (report only): T1 {terms['T1']:.4f}, "
      f"T2 {terms['T2']:.4f}, log T3 {terms['log_T3']:.1f}, c2 {terms['c2']:.1f}")

vals = dl.banded_schedule_terms(1000, 0.15, 30.67, 1, 1e-4, 0.1)
print(f"band-schedule form: T1 {vals['T1']:.4f}, T2 {vals['T2']:.4f}, "
      f"T3 {vals['T3']:.2e}")
