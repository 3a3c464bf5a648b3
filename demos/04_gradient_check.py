"""Certifying the analytic feature-map Jacobians with finite differences."""

from nala import KernelSpec, finite_diff_jacobian, jac_phi_k, jac_phi_q, phi_k, phi_q
from nala.gradcheck import admissible_point, max_rel_error
from nala.linalg import make_rng

rng = make_rng(4)
spec = KernelSpec(lam=2.0)
d = 8


print("query map (2d x d Jacobian through norm, direction, exponent, angles):")
for step in (1e-4, 1e-5):
    errs = []
    for _ in range(10):
        q = admissible_point(rng, d, direction=True)
        fd = finite_diff_jacobian(lambda v: phi_q(v, spec), q, step_scale=step)
        errs.append(max_rel_error(jac_phi_q(q, spec), fd))
    print(f"  step {step:.0e}: max rel error over 10 points = {max(errs):.3e}")

print("\nkey map (diagonal power path plus shared angle path):")
for step in (1e-4, 1e-5):
    errs = []
    for _ in range(10):
        k = admissible_point(rng, d, direction=False)
        fd = finite_diff_jacobian(lambda v: phi_k(v, spec), k, step_scale=step)
        errs.append(max_rel_error(jac_phi_k(k, spec), fd))
    print(f"  step {step:.0e}: max rel error over 10 points = {max(errs):.3e}")

print("\nthe shrinking error under a smaller step is the central-difference")
print("truncation term vanishing -- the analytic formulas are what converges.")
