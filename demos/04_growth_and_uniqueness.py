"""
The growth clock, excursion bounds, and why the solution is unique
==================================================================

Two scalar functions drive every ceiling: g(v) = v - c2 sqrt(v) and
G(v) = c3 v^sigma (v + c1 sqrt(v)).  Their ratio integrates to the
"clock" F(v), and the central inequality says that along any solution
inside the region, F(V) cannot advance faster than W does.  Since W is
confined to a band of width w+ - w-, F(V) is confined too, and inverting
F turns that into a bound on V itself.
"""

import os

import numpy as np

from vwbound.growth import (
    bound_excursion,
    growth_integral,
    growth_integral_inv,
)
from vwbound.problemdoc import load_problem_document
from vwbound.quadratic import certify, uniqueness_quadratic

HERE = os.path.dirname(os.path.abspath(__file__))

qp = load_problem_document(os.path.join(HERE, "saddle.problem")).to_problem()
cert = certify(qp)
gp = cert.growth_pair()

# the clock starts at the threshold v0 and runs strictly uphill
print("the growth clock F on a few values of V:")
for v in (cert.v0, 2 * cert.v0, 10 * cert.v0, 100 * cert.v0):
    print(f"  F({v:.4g}) = {growth_integral(gp, v):.6g}")
print()

# an excursion above the threshold begins and ends at V = v0; between
# those moments W must climb the whole clock advance, so half the W band
# caps the peak
peak = bound_excursion(gp, qp.w_plus, qp.w_minus)
print(f"W band width = {qp.w_plus - qp.w_minus}")
print(f"excursion peak bound = F^-1((w+ - w-)/2) = {peak:.6g}")
print(f"(same number as the global ceiling: "
      f"{bound_excursion(gp, qp.w_plus, qp.w_minus):.6g})")
print(f"round trip check: F(F^-1(0.02)) = "
      f"{growth_integral(gp, growth_integral_inv(gp, 0.02)):.12g}")
print()

# uniqueness: the difference of any two trapped solutions obeys the same
# W-style growth with rate floor lam_hat; when the window integral of
# that floor diverges both ways, two distinct trapped solutions cannot
# coexist
rep = uniqueness_quadratic(qp, v_hi=0.12)
print(f"separation test: {rep.status}")
print(f"  rate floor lam_hat = {rep.beta_min:.6g} everywhere "
      f"(curve spread {np.ptp(rep.lam_hat_curve):.2e})")
print(f"  normalized divergence integrals: left {rep.divergence_left:.4g}, "
      f"right {rep.divergence_right:.4g} "
      f"(threshold {rep.divergence_threshold})")
print(f"  divergence flag: {rep.diverges}")
for note in rep.notes:
    print(f"  note: {note}")
