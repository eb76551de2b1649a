"""
Replaying a trajectory against its certificate
==============================================

Verification is independent of how the trajectory was produced: it takes
the certificate's curves and constants, rebuilds the ceiling envelope,
and measures the slack at every node.  A corrupted certificate is caught
immediately.
"""

import dataclasses
import os

from vwbound.problemdoc import load_problem_document
from vwbound.quadratic import certify
from vwbound.shooting import bounded_solution, verify_bound

HERE = os.path.dirname(os.path.abspath(__file__))

qp = load_problem_document(os.path.join(HERE, "saddle.problem")).to_problem()
cert = certify(qp)
sol = bounded_solution(qp, cert)

# the honest check: measured sup V against three independent ceilings
# (the t-dependent envelope curve, the constant v_*, and the window-free
# closed form)
rep = verify_bound(qp, cert, sol.traj)
print(f"passed: {rep.passed}")
print(f"sup V = {rep.sup_v:.6g} at t = {rep.sup_v_time:.4g} "
      f"over {rep.n_nodes} nodes")
print(f"slack against envelope curve : {rep.slack_envelope:.6g}")
print(f"slack against constant v_*   : {rep.slack_const:.6g}")
print(f"slack against closed form    : {rep.slack_closed_form:.6g}")
print(f"W stays inside its band with margin {rep.w_range_margin:.6g}")
for note in rep.notes:
    print(f"note: {note}")
print()

# now sabotage the certificate: claim a ceiling far below what the
# trajectory actually reaches
bad = dataclasses.replace(cert, v_small_star=1e-4)
rep_bad = verify_bound(qp, bad, sol.traj)
print(f"with a corrupted ceiling, passed: {rep_bad.passed}")
for v in rep_bad.violations:
    print(f"violation: {v}")
