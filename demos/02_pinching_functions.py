"""The scalar pinching quantities and their exact derivative identities.

Three families of scalars measure how far a curvature state is from
losing its lower bounds:

* f and f_inverse - the convex profile x (log x - 2(1-2 rho)) / (2(1-2 rho))
  and its inverse on [e^(1-4 rho), oo), which trade a trace bound for a
  Ricci bound;
* the ratio-log quantity -lam/(mu+nu) - log(-mu-nu)/(2(1-2 rho)), whose
  time derivative along the flow is exactly 2 (mu+nu)^-2 J for a cubic J;
* the xi quantity T/(-nu) - theta log(-nu) - theta log(1 + 2(1+eta rho) t),
  whose derivative has a cubic numerator N with N/(-nu)^3 scale-invariant.

The punchline of this demo: the "derivatives" are not finite-difference
approximations, they are closed forms, and central differences converge
to them at O(h^2).
"""

import math

import numpy as np

from pinchlab import (
    EigenTriple,
    FlowParams,
    QuantityKind,
    deriv_suite,
    f_domain_min,
    f_inverse,
    f_pinch,
    integrate,
    lambda_pinch,
    lambda_pinch_rate,
    xi_pinch_rate,
)
from pinchlab.pinch_functions import j_poly_array, xi_prime_numerator_array

params = FlowParams(rho=-1.0)

print("== 1. f and f_inverse are inverse bijections past the domain edge")
edge = f_domain_min(params)
print(f"   domain edge e^(1-4 rho) = {edge:.6f}")
for x in (edge * 1.5, edge * 20.0, edge * 4000.0):
    y = f_pinch(x, params)
    back = float(f_inverse(y, params))
    print(f"   x={x:14.4f}  f(x)={y:16.6f}  f_inv(f(x))={back:14.4f}  "
          f"rel err {abs(back - x)/x:.1e}")

print()
print("== 2. the ratio-log quantity and its cubic rate")
state = EigenTriple(2.0, -1.0, -1.0)
print(f"   value at (2,-1,-1):  {lambda_pinch(state, params):.12f}")
print(f"   rate (closed form):  {lambda_pinch_rate(state, params):.12f}")
print(f"   2 J / (mu+nu)^2:     "
      f"{2.0 * j_poly_array(*state.as_tuple(), params.rho) / (-2.0)**2:.12f}")

print()
print("== 3. central differences confirm the identity at O(h^2)")
for quantity, p in (
    (QuantityKind.LAMBDA_PINCH, params),
    (QuantityKind.XI_PINCH, FlowParams(rho=0.1, eta=-4.0, theta=1.0)),
):
    rep = deriv_suite(quantity, p, trajectories=8, seed=0)
    print(f"   {quantity.value:13s} worst |cdiff - closed| = {rep.max_discrepancy:.3e} "
          f"at h=1e-4; halving h divides it by {rep.decay_ratio:.2f}")

print()
print("== 4. the xi-rate numerator is homogeneous: scanning a slice suffices")
p = FlowParams(rho=-0.5, eta=1.0, theta=1.0)
l, m, n = 3.0, -0.5, -0.8
num = float(xi_prime_numerator_array(np.array([l]), np.array([m]), np.array([n]), p, 0.0)[0])
s = 1.0 / -n
rate_on_slice = xi_pinch_rate(EigenTriple(l * s, m * s, -1.0), p, 0.0)
print(f"   N(3,-0.5,-0.8) / (-nu)^3 = {num / (-n)**3:.10f}")
print(f"   rate at rescaled state   = {rate_on_slice:.10f}")

print()
print("== 5. watch the ratio-log quantity stay monotone where J >= 0")
traj = integrate(EigenTriple(0.5, -0.8, -0.9), params, 0.0, 0.01)
for t in np.linspace(0.0, traj.t_last, 6):
    st = traj.eval_at(float(t))
    print(f"   t={t:7.4f}  quantity={lambda_pinch(st, params):.8f}  "
          f"J={j_poly_array(*st.as_tuple(), params.rho):.4f}")
