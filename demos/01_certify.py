"""
Certifying a saddle system with oscillatory forcing
===================================================

The problem document ``saddle.problem`` describes

    x1' =  x1 + 0.1 sin t
    x2' = -x2 + 0.1 cos t

with the estimating form V = x1^2 + x2^2 and the guiding form
W = x1^2 - x2^2.  Certification checks, on the window [-40, 40], every
condition needed for a V-bounded solution to exist inside the region
{ |W| <= 0.02, V <= V* }.
"""

import os

from vwbound.problemdoc import load_problem_document
from vwbound.quadratic import certify
from vwbound.report import render_table, report_from_certificate

HERE = os.path.dirname(os.path.abspath(__file__))

# parse the document and build the problem object
qp = load_problem_document(os.path.join(HERE, "saddle.problem")).to_problem()

# run the condition pipeline; this fits the growth constants, chooses V*
# automatically (the document says "v_star = auto") and samples the
# spectral curves on the grid
cert = certify(qp)

# the fitted scalar data: V' and W' are controlled by
#   |dV/dt| <= c1 |Lam_V| sqrt(V) ... fitted as  2 phi <= c1 |Lam_V|
#   and |Lam_V| <= c3 V^sigma lam_W
print("fitted constants:")
print(f"  sigma = {cert.sigma},  c1 = {cert.c1:.6g},  "
      f"c2 = {cert.c2:.6g},  c3 = {cert.c3:.6g}")
print(f"  threshold v0 = {cert.v0},  ceiling guard V* = {cert.v_star:.6g}")
print()

# a certificate distinguishes conditions that hold outright from those
# only checkable on the finite window (the integral divergence ones);
# exit code 2 from the command line means "window-certified"
table = render_table(report_from_certificate(cert, 2, qp.n, "saddle"))
print(table)

# the bound itself: V along any trapped solution stays below v_* --
# about nine times the V it actually reaches (0.01)
print(f"certified ceiling v_* = {cert.v_small_star:.6g}")
print(f"closed-form (window-free) ceiling = "
      f"{cert.growth_pair().f1_inv(0.5 * cert.v0 * 2.0):.6g} at spread 2")
