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
* :func:`bound_from_interior`    — trajectory never seen at ``v0``,
* :func:`bound_mixed`            — maximum of both when the history is
  unknown,
* :func:`bound_excursion`        — over one excursion with ``V = v0`` at
  both ends,
* :func:`return_time`            — how long V can stay above ``v0``,
* :func:`global_sup_bound` / :func:`sup_bound_curve` — ceilings along the
  whole line from the W-window alone.

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

from .errors import (
    DomainError,
    InfeasibleConditionE,
    NoUpperBracket,
    WindowExhausted,
)

__all__ = [
    "GrowthPair",
    "growth_integral",
    "growth_integral_inv",
    "bound_from_threshold",
    "bound_from_interior",
    "bound_mixed",
    "bound_excursion",
    "return_time",
    "global_sup_bound",
    "sup_bound_curve",
]

#: default ceiling multiplier for inverse bracketing
VMAX_FACTOR = 1.0e6

_EPS = float(np.finfo(float).eps)

# Gauss-Legendre (node, weight) pairs on [-1, 1], one panel of the F sum
_GL_RULE = tuple(zip(*(a.tolist() for a in np.polynomial.legendre.leggauss(16))))


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


def growth_integral_inv(gp: GrowthPair, z: float, vmax: float | None = None) -> float:
    """``F^-1(z)`` for ``z >= 0``; satisfies ``|F(v) - z| <= 1e-9 (1+z)``.

    Brackets by doubling from ``v0``, then polishes with Newton steps on
    ``F' = g/G``, bisecting whenever a step would leave the bracket, until
    a step or the bracket falls to a few units of rounding in ``v``.

    Raises
    ------
    NoUpperBracket
        If ``F`` never reaches ``z`` below the ceiling (default
        ``1e6 * v0``): the requested budget exceeds what the growth pair
        can certify.
    """
    z = float(z)
    if not z >= 0.0:
        raise DomainError(f"growth integral inverse needs z >= 0, got {z:.6g}")
    if z == 0.0:
        return gp.v0
    if vmax is None:
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
    ``v_start >= v0``, valid while V has not returned to ``v0``."""
    z = growth_integral(gp, v_start) + (w_sup - w_start)
    return growth_integral_inv(gp, max(0.0, z))


def bound_mixed(
    gp: GrowthPair,
    v_start: float,
    w_sup: float,
    w_start: float,
    w_entry: float,
) -> float:
    """Ceiling valid regardless of whether V revisited ``v0``: the larger
    of the interior and threshold ceilings.

    A negative F-argument means the corresponding branch is impossible
    given the budget; it is clamped to zero (yielding the trivial ceiling
    ``v0``).  Both branches negative means the data are inconsistent.
    """
    z_interior = growth_integral(gp, v_start) + (w_sup - w_start)
    z_threshold = w_sup - w_entry
    if z_interior < 0.0 and z_threshold < 0.0:
        raise DomainError(
            "both ceiling arguments are negative "
            f"({z_interior:.6g}, {z_threshold:.6g}); W budget inconsistent"
        )
    b_interior = growth_integral_inv(gp, max(0.0, z_interior))
    b_threshold = growth_integral_inv(gp, max(0.0, z_threshold))
    return max(b_interior, b_threshold)


def bound_excursion(gp: GrowthPair, w_exit: float, w_entry: float) -> float:
    """Ceiling for V over one excursion above ``v0`` (``V = v0`` at both
    ends); ``w_entry`` / ``w_exit`` are the W values at the endpoints."""
    return growth_integral_inv(gp, max(0.0, 0.5 * (w_exit - w_entry)))


def return_time(
    ts: np.ndarray,
    alpha: np.ndarray,
    t0: float,
    w_sup: float,
    w_inf: float,
    g_v0: float,
) -> float:
    """First time ``theta >= t0`` with ``integral of alpha >= (w_sup -
    w_inf)/g(v0)``; V must have returned to ``v0`` by then.

    ``alpha`` is the rate floor sampled on the grid ``ts``; the cumulative
    integral uses the trapezoid rule with linear interpolation inside the
    deciding segment.

    Raises
    ------
    WindowExhausted
        If the accumulated integral never reaches the requirement inside
        the sampled window.
    """
    ts = np.asarray(ts, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if ts.ndim != 1 or ts.shape != alpha.shape or ts.size < 2:
        raise ValueError("ts and alpha must be equal-length 1-D arrays")
    if not g_v0 > 0.0:
        raise ValueError(f"g(v0) must be positive, got {g_v0:.6g}")
    if t0 < ts[0] or t0 > ts[-1]:
        raise ValueError(f"t0 = {t0:.6g} outside the sampled window")
    target = (w_sup - w_inf) / g_v0
    if target <= 0.0:
        return float(t0)

    # restrict to [t0, end], inserting t0 as a grid point
    k = int(np.searchsorted(ts, t0, side="right"))
    a0 = float(np.interp(t0, ts, alpha))
    sub_t = np.concatenate(([t0], ts[k:]))
    sub_a = np.concatenate(([a0], alpha[k:]))
    seg = 0.5 * (sub_a[1:] + sub_a[:-1]) * np.diff(sub_t)
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    idx = int(np.searchsorted(cum, target, side="left"))
    if idx >= cum.size:
        raise WindowExhausted(
            f"rate integral reaches only {cum[-1]:.6g} by t = {ts[-1]:.6g}; "
            f"needs {target:.6g}"
        )
    if idx == 0:
        return float(t0)
    # linear interpolation of the cumulative integral inside the segment
    need = target - cum[idx - 1]
    width = sub_t[idx] - sub_t[idx - 1]
    frac = need / seg[idx - 1] if seg[idx - 1] > 0.0 else 1.0
    return float(sub_t[idx - 1] + min(1.0, frac) * width)


def global_sup_bound(gp: GrowthPair, w_plus: float, w_minus: float) -> float:
    """Constant ceiling for V along any solution confined to
    ``w_minus <= W <= w_plus``: ``F^-1((w_plus - w_minus)/2)``."""
    return bound_excursion(gp, w_plus, w_minus)


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
    """
    ts = np.asarray(ts, dtype=float)
    w_upper = np.asarray(w_upper, dtype=float)
    w_lower = np.asarray(w_lower, dtype=float)
    sup_right = np.maximum.accumulate(w_upper[::-1])[::-1]
    inf_left = np.minimum.accumulate(w_lower)
    return np.array(
        [
            growth_integral_inv(gp, max(0.0, 0.5 * (hi - lo)))
            for hi, lo in zip(sup_right, inf_left)
        ]
    )
