"""Scalar growth-pair calculus.

A *growth pair* is a threshold ``v0 > 0`` together with two scalar laws
of one variable ``v``; every ceiling in the package uses the one family

    ``g(v) = v - c2 sqrt(v)``  and  ``G(v) = c3 v^sigma (v + c1 sqrt(v))``

with ``0 < sigma <= 1``, ``c1, c2 >= 0``, ``c3 > 0`` and ``c2^2 < v0``, so
that ``0 < g(v0) <= g(v)`` and ``G(v) > 0`` for ``v >= v0``.  Along any
trajectory whose quadratic pair (V, W) obeys ``|dV/dt| <= a(t) G(V)`` and
``dW/dt >= a(t) g(V)`` above the threshold, the increasing function

    ``F(v) = integral from v0 to v of g(u)/G(u) du``

changes no faster than W: ``|dF(V)/dt| <= dW/dt``.  That single inequality
converts a budget on W into certified ceilings for V, which is what the
``bound_*`` functions below compute:

* :func:`bound_from_threshold`   — trajectory last seen at ``V = v0``,
* :func:`bound_from_interior`    — trajectory never seen at ``v0``
  (with the former, the two ceilings certify requires of V*),
* :func:`bound_excursion`        — over one excursion with ``V = v0`` at
  both ends: the constant ceiling from the W-window alone,
* :func:`sup_bound_curve`        — the ceiling along the whole line from
  the W envelopes, through :func:`envelope_ceilings`, one F^-1 per
  distinct budget.

:func:`growth_integral` and :func:`growth_integral_inv` are the one F /
F^-1 engine, on numpy and the standard library only.  With ``s = sqrt(u)``
the clock is

    ``F(v) = (2/c3) integral from sqrt(v0) to sqrt(v) of
    s^(1-2 sigma) (s - c2)/(s + c1) ds``,

whose integrand is smooth on ``s > 0``; F is a composite 16-point
Gauss-Legendre sum on geometric panels of ratio at most 2 in ``s``, so
the nearest singularity (``s = 0``) lies at least one panel width from
every panel and the sum is exact to rounding.  F^-1 brackets by doubling
and polishes with Newton steps on the closed-form derivative
:meth:`GrowthPair.ratio`, bisecting whenever a step leaves the bracket.
The closed-form surrogate :meth:`GrowthPair.f1` bounds F from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleConditionE, NoUpperBracket

__all__ = [
    "GrowthPair",
    "growth_integral",
    "growth_integral_inv",
    "bound_from_threshold",
    "bound_from_interior",
    "bound_excursion",
    "sup_bound_curve",
    "envelope_ceilings",
]

#: F^-1 brackets below this multiple of v0 (GrowthPair.vmax)
VMAX_FACTOR = 1.0e6

_EPS = float(np.finfo(float).eps)

# 16-point Gauss-Legendre (node, weight) pairs on [-1, 1], one panel of
# the F sum: numpy.polynomial.legendre.leggauss(16) as literals, bit for
# bit, so start-up does not import numpy.polynomial
_GL_RULE = (
    (-0.9894009349916499, 0.027152459411754176),
    (-0.9445750230732326, 0.062253523938647456),
    (-0.8656312023878318, 0.0951585116824926),
    (-0.755404408355003, 0.12462897125553407),
    (-0.6178762444026438, 0.1495959888165767),
    (-0.45801677765722737, 0.16915651939500265),
    (-0.2816035507792589, 0.18260341504492364),
    (-0.09501250983763744, 0.18945061045506864),
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)


@dataclass(frozen=True)
class GrowthPair:
    """The growth pair ``g(v) = v - c2 sqrt(v)``,
    ``G(v) = c3 v^sigma (v + c1 sqrt(v))`` above the threshold ``v0``.

    Construction rejects non-finite fields, ``sigma`` outside (0, 1],
    negative ``c1`` or ``c2``, nonpositive ``c3`` and ``c2^2 >= v0``.
    Those bounds alone give ``g >= g(v0) > 0`` and ``G > 0`` on
    ``v >= v0``.  A :class:`DomainError` names the offending field in its
    ``where``; ``c2^2 >= v0`` raises :class:`InfeasibleConditionE`.
    """

    sigma: float
    c1: float
    c2: float
    c3: float
    v0: float

    def __post_init__(self):
        for name in ("sigma", "c1", "c2", "c3", "v0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"non-finite value {value!r}", where=name)
        if not 0.0 < self.sigma <= 1.0:
            raise DomainError(
                f"value {self.sigma!r} outside (0, 1]", where="sigma"
            )
        for name in ("c1", "c2"):
            if getattr(self, name) < 0.0:
                raise DomainError(
                    f"negative value {getattr(self, name)!r}", where=name
                )
        if not self.c3 > 0.0:
            raise DomainError(f"nonpositive value {self.c3!r}", where="c3")
        if not self.c2**2 < self.v0:
            raise InfeasibleConditionE(
                f"c2^2 = {self.c2**2:.6g} must stay below v0 = {self.v0:.6g}"
            )

    def g(self, v: float) -> float:
        return v - self.c2 * math.sqrt(v)

    def big_g(self, v: float) -> float:
        return self.c3 * v**self.sigma * (v + self.c1 * math.sqrt(v))

    def ratio(self, v: float) -> float:
        """The clock rate ``g(v) / G(v)``."""
        return self.g(v) / self.big_g(v)

    @property
    def vmax(self) -> float:
        return VMAX_FACTOR * self.v0

    # closed-form surrogate: a lower bound F1 <= F with explicit inverse
    def f1(self, v: float) -> float:
        """Closed-form lower bound for :func:`growth_integral`, exact
        enough for ceilings: conservative because smaller F means larger
        F^-1."""
        if v < self.v0:
            raise DomainError(f"f1 needs v >= v0, got {v} < {self.v0}")
        c1, c2, c3, v0 = self.c1, self.c2, self.c3, self.v0
        if self.sigma == 1.0:
            lead = math.sqrt(v0) / ((math.sqrt(v0) + c1) * c3)
            return lead * (math.log(v) - math.log(v0) - 2.0 * c2 / math.sqrt(v0))
        s = self.sigma
        p = (1.0 - s) / 2.0
        m = c2 ** (1.0 - s)
        lead = math.sqrt(v0) / ((1.0 - s) * (math.sqrt(v0) + c1) * c3)
        return lead * ((v**p - m) ** 2 - (v0**p - m) ** 2)

    def f1_inv(self, z: float) -> float:
        """Inverse of :meth:`f1`.

        For sigma = 1 the algebraically consistent inverse carries the
        c3 factor (exp((sqrt(v0)+c1) c3 z / sqrt(v0) + 2 c2/sqrt(v0)));
        dropping c3 would not invert f1.
        """
        c1, c2, c3, v0 = self.c1, self.c2, self.c3, self.v0
        if self.sigma == 1.0:
            arg = (math.sqrt(v0) + c1) * c3 / math.sqrt(v0) * z + 2.0 * c2 / math.sqrt(
                v0
            )
            return v0 * math.exp(arg)
        if z < self.f1(self.v0):
            raise DomainError("f1_inv argument below the range of f1")
        s = self.sigma
        m = c2 ** (1.0 - s)
        p = (1.0 - s) / 2.0
        rad = (1.0 - s) * (math.sqrt(v0) + c1) * c3 / math.sqrt(
            v0
        ) * z + (v0**p - m) ** 2
        return (math.sqrt(rad) + m) ** (2.0 / (1.0 - s))


def _clock(gp: GrowthPair, s_lo: float, s_hi: float) -> float:
    """``F(s_hi^2) - F(s_lo^2)`` for ``sqrt(v0) <= s_lo <= s_hi``: the
    substituted integrand summed on geometric panels of ratio <= 2."""
    ratio = s_hi / s_lo
    panels = max(1, math.ceil(math.log2(ratio)))
    q = ratio ** (1.0 / panels)
    p = 1.0 - 2.0 * gp.sigma
    c1, c2 = gp.c1, gp.c2
    total = 0.0
    a = s_lo
    for k in range(panels):
        b = s_hi if k == panels - 1 else a * q
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        acc = 0.0
        for x, w in _GL_RULE:
            s = mid + half * x
            acc += w * s**p * (s - c2) / (s + c1)
        total += half * acc
        a = b
    return 2.0 / gp.c3 * total


def growth_integral(gp: GrowthPair, v: float) -> float:
    """``F(v)``: integral of ``g/G`` from ``v0`` to ``v`` (``v >= v0``).

    Strictly increasing with ``F(v0) = 0``; the Gauss-Legendre sum is
    exact to a few units of rounding in ``1 + F``.
    """
    v = float(v)
    if not v >= gp.v0:
        raise DomainError(
            f"growth integral needs v >= v0, got v = {v:.6g} < {gp.v0:.6g}"
        )
    if not math.isfinite(v):
        raise DomainError(f"growth integral needs a finite v, got {v!r}")
    if v == gp.v0:
        return 0.0
    return _clock(gp, math.sqrt(gp.v0), math.sqrt(v))


def growth_integral_inv(gp: GrowthPair, z: float) -> float:
    """``F^-1(z)`` for ``z >= 0``; satisfies ``|F(v) - z| <= 1e-9 (1+z)``.

    Brackets by doubling from ``v0``, then polishes with Newton steps on
    ``F' = g/G``, bisecting whenever a step would leave the bracket, until
    a step or the bracket falls to a few units of rounding in ``v``.

    Raises
    ------
    NoUpperBracket
        If ``F`` never reaches ``z`` below the ceiling ``gp.vmax``
        (``1e6 * v0``): the requested budget exceeds what the growth pair
        can certify.
    """
    z = float(z)
    if not z >= 0.0:
        raise DomainError(f"growth integral inverse needs z >= 0, got {z:.6g}")
    if z == 0.0:
        return gp.v0
    vmax = gp.vmax

    # doubling bracket with accumulated clock so each rung costs one
    # local sum, not one global one
    lo, acc_lo = gp.v0, 0.0
    hi = 2.0 * gp.v0
    while True:
        if hi > vmax:
            hi = vmax
        acc_hi = acc_lo + _clock(gp, math.sqrt(lo), math.sqrt(hi))
        if hi >= vmax:
            # the rung sum can fall a few ulp below the one-shot F(vmax)
            # that certify's condition (A) compares against; F^-1 must
            # reach every argument that F(vmax) does
            acc_hi = max(acc_hi, growth_integral(gp, vmax))
            if acc_hi < z:
                raise NoUpperBracket(z, vmax, acc_hi)
        if acc_hi >= z:
            break
        lo, acc_lo = hi, acc_hi
        hi *= 2.0

    # safeguarded Newton from the secant point of the bracket; F(v) is
    # acc_lo plus the clock from the rung's lower end
    s_lo = math.sqrt(lo)
    v = lo + (z - acc_lo) / (acc_hi - acc_lo) * (hi - lo)
    a, b = lo, hi
    for _ in range(100):
        resid = acc_lo + _clock(gp, s_lo, math.sqrt(v)) - z
        if resid == 0.0:
            return v
        if resid > 0.0:
            b = v
        else:
            a = v
        v_new = v - resid / gp.ratio(v)
        if not a < v_new < b:
            v_new = 0.5 * (a + b)
        if abs(v_new - v) <= 4.0 * _EPS * v or b - a <= 4.0 * _EPS * b:
            return v_new
        v = v_new
    return v


# ---------------------------------------------------------------------------
# ceilings from the W budget


def bound_from_threshold(gp: GrowthPair, w_sup: float, w_entry: float) -> float:
    """Ceiling for V after the trajectory was last at ``V = v0``.

    ``w_sup`` is the largest W available afterwards; ``w_entry`` the W
    value when V last equalled ``v0``.
    """
    return growth_integral_inv(gp, max(0.0, w_sup - w_entry))


def bound_from_interior(
    gp: GrowthPair, v_start: float, w_sup: float, w_start: float
) -> float:
    """Ceiling for V from an interior start ``(v_start, w_start)`` with
    ``v_start >= v0``, valid while V has not returned to ``v0``:
    ``F^-1(F(v_start) + w_sup - w_start)``, summed left to right."""
    z = growth_integral(gp, v_start) + w_sup - w_start
    return growth_integral_inv(gp, max(0.0, z))


def bound_excursion(gp: GrowthPair, w_exit: float, w_entry: float) -> float:
    """Ceiling for V over one excursion above ``v0`` (``V = v0`` at both
    ends); ``w_entry`` / ``w_exit`` are the W values at the endpoints.
    With the W-window ``(w_plus, w_minus)`` it is the constant ceiling
    along any solution confined to ``w_minus <= W <= w_plus``."""
    return growth_integral_inv(gp, max(0.0, 0.5 * (w_exit - w_entry)))


def envelope_ceilings(inverse, w_upper, w_lower, at_upper=slice(None),
                      at_lower=slice(None)) -> tuple[np.ndarray, list]:
    """``F^-1`` of the budgets ``max(0, [sup_{s>=t_i} w_upper(s) -
    inf_{s<=t_j} w_lower(s)] / 2)`` for ``i, j`` from ``at_upper,
    at_lower`` (default: each sample), calling ``inverse`` (the caller's
    binding of :func:`growth_integral_inv` on one growth pair) once per
    distinct budget.  A budget F cannot reach below Vmax gets the ceiling
    ``inf`` and, in increasing order of budget, one ``(k, exc)`` in the
    returned list: ``k`` its first position, ``exc`` the
    :class:`NoUpperBracket` raised.
    """
    sup_right = np.maximum.accumulate(np.asarray(w_upper, float)[::-1])[::-1]
    inf_left = np.minimum.accumulate(np.asarray(w_lower, float))
    z = 0.5 * (sup_right[at_upper] - inf_left[at_lower])
    # max(0, z) as the builtin has it: a nan budget becomes 0
    budgets, first, back = np.unique(
        np.where(z > 0.0, z, 0.0), return_index=True, return_inverse=True
    )
    out = np.empty(budgets.size)
    misses = []
    for k, budget in enumerate(budgets.tolist()):
        try:
            out[k] = inverse(budget)
        except NoUpperBracket as exc:
            out[k] = math.inf
            misses.append((int(first[k]), exc))
    return out[back], misses


def sup_bound_curve(
    gp: GrowthPair,
    ts: np.ndarray,
    w_upper: np.ndarray,
    w_lower: np.ndarray,
) -> np.ndarray:
    """Sharper time-dependent ceiling from sampled envelope curves.

    ``w_upper(t)`` bounds W from above where trajectories can exit and
    ``w_lower(t)`` from below where they enter; the ceiling at ``t`` uses
    the least favourable exit after ``t`` and entry before ``t``:
    ``F^-1( [sup_{s>=t} w_upper(s) - inf_{s<=t} w_lower(s)] / 2 )``.
    Raises :class:`NoUpperBracket` for the first ``t`` whose budget F
    cannot reach below Vmax.
    """
    ceiling, misses = envelope_ceilings(
        lambda z: growth_integral_inv(gp, z), w_upper, w_lower
    )
    if misses:
        raise min(misses, key=lambda miss: miss[0])[1]
    return ceiling
