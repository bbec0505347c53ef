"""Tour of the eigenvalue reaction ODE and its integrator.

The state is an ordered triple lam >= mu >= nu evolving under

    lam' = 2 lam^2 + 2 mu nu - 4 rho lam (lam+mu+nu)

(and cyclic variants).  Everything here is scale-covariant: doubling the
state quarters the remaining lifetime.  Positive-trace data blows up in
finite time; the integrator detects that and reports an estimate of the
blow-up instant instead of dying.
"""

import numpy as np

from pinchlab import (
    EigenTriple,
    FlowParams,
    IntegratorConfig,
    integrate,
    isotropic_solution,
    standard_trigger_events,
)

params = FlowParams(rho=-1.0)

print("== 1. the isotropic line is exact and known in closed form")
traj = integrate(EigenTriple(1.0, 1.0, 1.0), params, 0.0, 0.06)
print(f"   integrated {len(traj.times)} accepted nodes on [0, 0.06]")
for t in (0.0, 0.02, 0.04, 0.06):
    num = EigenTriple.sorted_from(*traj.eval_many(t)).lam
    exact = isotropic_solution(1.0, params, t)
    print(f"   t={t:4.2f}  numeric={num:12.6f}  closed form={exact:12.6f}  "
          f"diff={abs(num - exact):.2e}")

print()
print("== 2. positive trace forces finite-time blow-up")
traj = integrate(EigenTriple(1.0, 1.0, 1.0), params, 0.0, 1.0)
t_true = 1.0 / (4.0 * (1.0 - 3.0 * params.rho) * 1.0)
print(f"   terminal status: {traj.terminal.kind}")
print(f"   estimated blow-up t = {traj.terminal.t_est:.12f}")
print(f"   closed-form    t = {t_true:.12f}")

print()
print("== 3. anisotropic data: the ordering is preserved, the trace races ahead")
start = EigenTriple(3.0, -0.5, -0.8)
p0 = FlowParams(rho=0.0)
traj = integrate(start, p0, 0.0, 0.2, events=standard_trigger_events(p0))
ts = np.linspace(0.0, traj.t_last, 7)
rows = traj.eval_many(ts)
print("        t        lam         mu         nu")
for t, (l, m, n) in zip(ts, rows):
    print(f"   {t:8.4f} {l:10.4f} {m:10.4f} {n:10.4f}")
print(f"   still ordered at every node: "
      f"{bool(np.all(rows[:, 0] >= rows[:, 1]) and np.all(rows[:, 1] >= rows[:, 2]))}")

print()
print("== 4. events fire where trigger thresholds are crossed")
for ev in traj.events:
    print(f"   {ev.name:14s} at t = {ev.time:.6f}  (direction {ev.direction:+d})")

print()
print("== 5. tolerances are honest: tighten them and the error follows")
# off the isotropic line: on it the projective stepper is exact (u stands
# still and the clock is integrated in closed form)
start = EigenTriple(1.0, 0.5, -0.5)
ref = integrate(start, p0, 0.0, 0.2, IntegratorConfig(rel_tol=1e-14, abs_tol=1e-16))
for rtol in (1e-6, 1e-9, 1e-12):
    cfg = IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-2)
    tr = integrate(start, p0, 0.0, 0.2, cfg)
    err = float(np.max(np.abs(tr.states_array[-1] - ref.states_array[-1])))
    print(f"   rel_tol={rtol:.0e}  ->  end-state error {err:.2e} "
          f"({tr.stats['accepted']} steps, {tr.stats['rhs_evals']} RHS evaluations)")
