"""Numerical adjudication of the backward-equation drift sign.

Along exact reverse paths of a shifted Gaussian, the relation

    grad log p_data(X_1) = Y_t + sign * 1/2 int_t^1 beta Y dr + int Z dW

holds for exactly one sign of the drift term.  The residual of the right
sign collapses under grid refinement while the other stalls, and the same
sign makes the companion PDE residual vanish.
"""

import ddpmlab as dl

target = dl.gaussian_target([1.5])
schedule = dl.constant_rate(8, 2.0)

print("substeps   rms(sign -1)   rms(sign +1)")
for substeps in (64, 128, 256, 512):
    batch = dl.reverse_sde(target, schedule, substeps, 256, seed=42)
    both = dl.bsde_residual_both(batch, t_index=0)
    print(f"{substeps:8d}   {both[-1].rms:12.3e}   {both[1].rms:12.3e}")

points = dl.default_axis(target, 1001)[:, None]
for sign in (-1, 1):
    mx, _, umax = dl.pde_residual(target, schedule, 0.3, points, sign)
    print(f"pde residual, sign {sign:+d}: max {mx:.3e}  (max |u| = {umax:.2f})")

print(f"adjudicated drift sign: {dl.ADJUDICATED_DRIFT_SIGN:+d}")
