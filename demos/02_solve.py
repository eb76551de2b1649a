"""
Shooting for the trapped solution
=================================

The saddle has exactly one solution that never leaves the region: every
other start blows up through the growing direction.  The shooting stage
finds it by bisecting entry-disk starts at ever earlier times t_j and
watching which side of the disk the escape happens on.  The system is
linear, so one run carries the orbit of every start: the bisection
starts from a cell of a few rounding steps around the start whose
growing coordinate vanishes at the end of that run.

The closed form (variation of constants) is

    x*(t) = ( -0.05 (sin t + cos t),  0.05 (sin t + cos t) )

so we can grade every number the solver produces.
"""

import math
import os

import numpy as np

from vwbound.ode import write_trajectory_csv
from vwbound.problemdoc import load_problem_document
from vwbound.quadratic import certify
from vwbound.shooting import bounded_solution, find_trapped_start

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
os.makedirs(OUT, exist_ok=True)


def exact(t):
    s = 0.05 * (math.sin(t) + math.cos(t))
    return np.array([-s, s])


qp = load_problem_document(os.path.join(HERE, "saddle.problem")).to_problem()
cert = certify(qp)

# one search, shown in isolation: the trapped start at t = -5 is the
# disk coordinate u* with x(-5) = (u*, 0); compare with the closed form
start = find_trapped_start(qp, -5.0, cert.v0, cert.v_star)
print(f"trapped start at t = -5: u* = {start.u[0]:.12g}  "
      f"({start.iterations} probes, bracket {start.bracket_width:.1e})")
print(f"closed form:             {exact(-5.0)[0]:.12g}")
print()

# the full run: a ladder of such searches pushes t_j toward the left
# window edge until the implied initial value xi = x(0) stops moving
sol = bounded_solution(qp, cert)
print("xi ladder (t_j, estimate of x1(0), change):")
prev = None
for j, t_j, xi in sol.xi_sequence:
    step = "" if prev is None else f"  moved {np.max(np.abs(xi - prev)):.2e}"
    print(f"  j={j}  t_j={t_j:6.1f}  x(0) ~ ({xi[0]:+.12f}, {xi[1]:+.12f})"
          + step)
    prev = xi
print(f"converged at j = {sol.converged_at_j}")
print()

print(f"xi          = ({sol.xi[0]:.12g}, {sol.xi[1]:.12g})")
print(f"closed form = ({exact(0.0)[0]:.12g}, {exact(0.0)[1]:.12g})")
print(f"sup V = {sol.sup_v:.12g} at t = {sol.sup_v_time:.4g} "
      f"(closed form: 0.01 at t = pi/4 + k pi)")

# the assembled trajectory covers [-28, 40]; each point is at most a few
# integrator tolerances from the closed form
errs = [np.max(np.abs(x - exact(float(t))))
        for t, x in zip(sol.traj.ts, sol.traj.xs)]
print(f"trajectory nodes: {sol.traj.ts.size}, worst error vs closed form: "
      f"{max(errs):.3e}")

write_trajectory_csv(os.path.join(OUT, "trajectory.csv"), sol.traj,
                     sol.v, sol.w)
print(f"wrote {os.path.join(OUT, 'trajectory.csv')}")
