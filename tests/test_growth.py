"""Growth calculus: the clock integral F, its inverse, and the ceiling
formulas, checked against fixed-grid Simpson quadrature, scipy's adaptive
quadrature and closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import simpson_fixed
from vwbound.errors import (
    DomainError,
    InfeasibleConditionE,
    NoUpperBracket,
    WindowExhausted,
)
from vwbound.growth import (
    GrowthPair,
    bound_excursion,
    bound_from_interior,
    bound_from_threshold,
    bound_mixed,
    global_sup_bound,
    growth_integral,
    growth_integral_inv,
    return_time,
    sup_bound_curve,
)


def make_pair(v0=0.02, c1=0.101, c2=0.101, c3=2.686, sigma=0.25):
    return GrowthPair(sigma=sigma, c1=c1, c2=c2, c3=c3, v0=v0)


# admissible random constant sets: c2^2 < v0, 0 < sigma <= 1
def random_constants(rng):
    v0 = float(10.0 ** rng.uniform(-2.5, 0.5))
    c2 = math.sqrt(v0) * float(rng.uniform(0.05, 0.9))
    c1 = float(10.0 ** rng.uniform(-2, 0.5))
    c3 = float(10.0 ** rng.uniform(-1.5, 1.0))
    sigma = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
    return GrowthPair(sigma=sigma, c1=c1, c2=c2, c3=c3, v0=v0)


class TestGrowthPair:
    def test_family_values(self):
        gp = GrowthPair(sigma=1.0, c1=1.0, c2=0.5, c3=2.0, v0=1.0)
        # g(4) = 4 - 0.5*2; G(4) = 2 * 4 * (4 + 2)
        assert gp.g(4.0) == pytest.approx(3.0)
        assert gp.big_g(4.0) == pytest.approx(48.0)
        assert gp.ratio(4.0) == pytest.approx(3.0 / 48.0)
        half = GrowthPair(sigma=0.5, c1=0.0, c2=0.0, c3=1.0, v0=1.0)
        assert half.big_g(9.0) == pytest.approx(27.0)
        assert half.vmax == pytest.approx(1e6)

    def test_rejects_nonpositive_g_at_v0(self):
        # c2^2 >= v0 puts g(v0) = v0 - c2 sqrt(v0) at or below zero
        for c2 in (1.0, 2.0):
            with pytest.raises(InfeasibleConditionE):
                GrowthPair(sigma=0.5, c1=0.1, c2=c2, c3=1.0, v0=1.0)

    def test_rejects_sigma_outside_unit_interval(self):
        for sigma in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError) as info:
                GrowthPair(sigma=sigma, c1=0.1, c2=0.1, c3=1.0, v0=1.0)
            assert info.value.where == "sigma"

    def test_rejects_nonpositive_big_g(self):
        # c3 <= 0 makes G nonpositive everywhere
        for c3 in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError) as info:
                GrowthPair(sigma=0.5, c1=0.1, c2=0.1, c3=c3, v0=1.0)
            assert info.value.where == "c3"

    def test_rejects_negative_or_nan_constants(self):
        for field, value in (("c1", -0.1), ("c2", -0.1), ("c1", math.nan),
                             ("c2", math.nan), ("v0", math.nan)):
            kwargs = dict(sigma=0.5, c1=0.1, c2=0.1, c3=1.0, v0=1.0)
            kwargs[field] = value
            with pytest.raises(DomainError) as info:
                GrowthPair(**kwargs)
            assert info.value.where == field

    def test_family_bounds_imply_positive_laws(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            gp = random_constants(rng)
            g0 = gp.g(gp.v0)
            assert g0 > 0.0
            for v in np.geomspace(gp.v0, gp.vmax, 64):
                assert gp.g(float(v)) >= g0
                assert gp.big_g(float(v)) > 0.0


class TestGrowthIntegral:
    def test_zero_at_v0(self):
        gp = make_pair()
        assert growth_integral(gp, gp.v0) == 0.0

    def test_below_v0_rejected(self):
        gp = make_pair()
        with pytest.raises(DomainError):
            growth_integral(gp, 0.5 * gp.v0)

    def test_matches_fixed_grid_simpson(self):
        rng = np.random.default_rng(3)
        for _ in range(8):
            consts = random_constants(rng)
            gp = consts
            for mult in (1.5, 4.0, 40.0):
                v = mult * gp.v0
                ref = simpson_fixed(
                    lambda u: gp.g(u) / gp.big_g(u), gp.v0, v, n=20001
                )
                got = growth_integral(gp, v)
                assert got == pytest.approx(ref, rel=1e-7, abs=1e-10)

    def test_strictly_increasing(self):
        gp = make_pair()
        grid = np.geomspace(gp.v0, 1e4 * gp.v0, 200)
        vals = [growth_integral(gp, float(v)) for v in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            gp = random_constants(rng)
            z_hi = growth_integral(gp, 1e4 * gp.v0)
            for z in np.linspace(0.0, 0.95 * z_hi, 20):
                v = growth_integral_inv(gp, float(z))
                assert growth_integral(gp, v) == pytest.approx(
                    z, abs=1e-8, rel=1e-8
                )

    def test_inverse_at_zero(self):
        gp = make_pair()
        assert growth_integral_inv(gp, 0.0) == pytest.approx(gp.v0)

    @given(st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=30, deadline=None)
    def test_inverse_round_trip_property(self, z):
        gp = make_pair()
        v = growth_integral_inv(gp, z)
        assert abs(growth_integral(gp, v) - z) <= 1e-8 * (1.0 + z)


# the family's corners: sigma from 1/4 to the log clock at 1, no c1/c2
# terms, and g(v0) = v0 - c2 sqrt(v0) nearly zero (c2 = 0.999 sqrt(v0))
ORACLE_PAIRS = [
    GrowthPair(sigma=sigma, c1=c1, c2=c2_frac * math.sqrt(0.02), c3=2.5,
               v0=0.02)
    for sigma in (0.25, 0.5, 1.0)
    for c1, c2_frac in ((0.0, 0.0), (0.3, 0.999))
]


def quad_clock(gp, v):
    """F(v) by scipy's adaptive quadrature of g/G in v, split at a
    geometric grid so every piece stays well resolved."""
    edges = np.geomspace(gp.v0, v, 25)
    return math.fsum(
        quad(gp.ratio, float(a), float(b), epsabs=0.0, epsrel=1e-13,
             limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


class TestAgainstAdaptiveQuadrature:
    @pytest.mark.parametrize("gp", ORACLE_PAIRS, ids=lambda gp: (
        f"sigma{gp.sigma:g}-c2_{gp.c2 / math.sqrt(gp.v0):g}"))
    def test_matches_quad_up_to_vmax(self, gp):
        for v in np.geomspace(gp.v0, gp.vmax, 13)[1:]:
            ref = quad_clock(gp, float(v))
            got = growth_integral(gp, float(v))
            assert abs(got - ref) <= 1e-13 * (1.0 + ref)

    @pytest.mark.parametrize("gp", ORACLE_PAIRS, ids=lambda gp: (
        f"sigma{gp.sigma:g}-c2_{gp.c2 / math.sqrt(gp.v0):g}"))
    def test_inverse_contract_up_to_vmax(self, gp):
        z_top = growth_integral(gp, 0.999 * gp.vmax)
        for z in np.concatenate(([1e-12, 1e-6], np.linspace(0.0, z_top, 17)[1:])):
            v = growth_integral_inv(gp, float(z))
            assert gp.v0 <= v <= gp.vmax
            resid = abs(growth_integral(gp, v) - z)
            assert resid <= 1e-9 * (1.0 + z)
            # Newton polishing goes on to rounding, far below the contract
            assert resid <= 1e-13 * (1.0 + z)

    def test_inverse_reaches_the_clock_at_vmax(self):
        # certify's condition (A) admits every F-argument up to the
        # one-shot F(Vmax); F^-1 must resolve all of them and still refuse
        # one beyond
        rng = np.random.default_rng(0)
        for _ in range(200):
            gp = random_constants(rng)
            top = growth_integral(gp, gp.vmax)
            v = growth_integral_inv(gp, top)
            assert gp.v0 <= v <= gp.vmax
            assert abs(growth_integral(gp, v) - top) <= 1e-9 * (1.0 + top)
            with pytest.raises(NoUpperBracket):
                growth_integral_inv(gp, top * (1.0 + 1e-9))

    def test_no_upper_bracket_names_the_reach(self):
        gp = make_pair()
        reach = growth_integral(gp, gp.vmax)
        with pytest.raises(NoUpperBracket) as info:
            growth_integral_inv(gp, 1.01 * reach)
        assert info.value.vmax == gp.vmax
        assert info.value.z == 1.01 * reach
        assert info.value.reached == pytest.approx(reach, rel=1e-12)
        # a lower ceiling passed by the caller bounds the search instead
        v_cap = 10.0 * gp.v0
        with pytest.raises(NoUpperBracket) as info:
            growth_integral_inv(gp, growth_integral(gp, 11.0 * gp.v0), v_cap)
        assert info.value.vmax == v_cap
        below = growth_integral(gp, 9.0 * gp.v0)
        assert growth_integral_inv(gp, below, v_cap) == pytest.approx(
            9.0 * gp.v0, rel=1e-13
        )

    def test_rejects_non_finite_arguments(self):
        gp = make_pair()
        for v in (math.nan, math.inf):
            with pytest.raises(DomainError):
                growth_integral(gp, v)
        with pytest.raises(DomainError):
            growth_integral_inv(gp, math.nan)


class TestSurrogateOrdering:
    def test_f1_below_f(self):
        # the closed-form surrogate never exceeds the true clock
        rng = np.random.default_rng(9)
        for _ in range(12):
            consts = random_constants(rng)
            gp = consts
            for mult in (1.2, 3.0, 10.0, 100.0):
                v = mult * consts.v0
                assert consts.f1(v) <= growth_integral(gp, v) + 1e-10

    def test_f1_inverse_closed_form_sigma_lt_1(self):
        consts = make_consts_sigma(0.5)
        assert consts.f1_inv(0.0) == pytest.approx(consts.v0)
        for z in (0.01, 0.1, 0.5):
            v = consts.f1_inv(z)
            assert consts.f1(v) == pytest.approx(z, abs=1e-10)

    def test_f1_inverse_closed_form_sigma_eq_1(self):
        consts = make_consts_sigma(1.0)
        # the log surrogate is negative at v0, so its inverse at 0 sits
        # above v0 by the exponentiated offset
        anchor = consts.v0 * math.exp(2.0 * consts.c2 / math.sqrt(consts.v0))
        assert consts.f1_inv(0.0) == pytest.approx(anchor)
        for z in (0.01, 0.1, 0.5):
            v = consts.f1_inv(z)
            assert consts.f1(v) == pytest.approx(z, abs=1e-10)


def make_consts_sigma(sigma):
    return GrowthPair(sigma=sigma, c1=0.2, c2=0.1, c3=1.5, v0=0.04)


class TestCeilings:
    def test_threshold_form(self):
        gp = make_pair()
        # crossing the threshold with W budget (w_sup - w_entry)
        v = bound_from_threshold(gp, 0.02, -0.02)
        assert growth_integral(gp, v) == pytest.approx(0.04, rel=1e-9)

    def test_threshold_empty_budget_is_v0(self):
        gp = make_pair()
        assert bound_from_threshold(gp, -0.01, 0.0) == pytest.approx(gp.v0)

    def test_interior_form(self):
        gp = make_pair()
        v_start = 3.0 * gp.v0
        v = bound_from_interior(gp, v_start, 0.02, -0.01)
        expected = growth_integral(gp, v_start) + 0.03
        assert growth_integral(gp, v) == pytest.approx(expected, rel=1e-9)

    def test_mixed_takes_larger_branch(self):
        gp = make_pair()
        v_start = 2.0 * gp.v0
        mixed = bound_mixed(gp, v_start, 0.02, 0.0, -0.02)
        assert mixed == pytest.approx(
            max(
                bound_from_interior(gp, v_start, 0.02, 0.0),
                bound_from_threshold(gp, 0.02, -0.02),
            )
        )

    def test_mixed_rejects_double_negative(self):
        gp = make_pair()
        with pytest.raises(DomainError):
            bound_mixed(gp, gp.v0, -1.0, 0.5, 0.5)

    def test_excursion_half_budget(self):
        gp = make_pair()
        v = bound_excursion(gp, 0.02, -0.02)
        assert growth_integral(gp, v) == pytest.approx(0.02, rel=1e-9)

    def test_global_bound_is_excursion_form(self):
        gp = make_pair()
        assert global_sup_bound(gp, 0.02, -0.02) == pytest.approx(
            bound_excursion(gp, 0.02, -0.02)
        )

    def test_sup_bound_curve_envelopes(self):
        gp = make_pair()
        ts = np.linspace(-1.0, 1.0, 11)
        w_up = 0.02 * np.ones_like(ts)
        w_lo = -0.02 * np.ones_like(ts)
        curve = sup_bound_curve(gp, ts, w_up, w_lo)
        const = global_sup_bound(gp, 0.02, -0.02)
        assert np.allclose(curve, const, rtol=1e-12)

    def test_sup_bound_curve_uses_future_sup_past_inf(self):
        gp = make_pair()
        ts = np.array([0.0, 1.0, 2.0])
        w_up = np.array([0.01, 0.03, 0.005])
        w_lo = np.array([-0.03, -0.01, -0.02])
        curve = sup_bound_curve(gp, ts, w_up, w_lo)
        # at t=0: sup future w_up = 0.03, inf past w_lo = -0.03
        assert curve[0] == pytest.approx(
            growth_integral_inv(gp, 0.5 * 0.06)
        )
        # at t=2: sup future = 0.005, inf past = -0.03
        assert curve[2] == pytest.approx(
            growth_integral_inv(gp, 0.5 * (0.005 + 0.03))
        )


class TestReturnTime:
    def test_constant_rate_closed_form(self):
        ts = np.linspace(-10.0, 10.0, 401)
        alpha = 2.0 * np.ones_like(ts)
        gp = make_pair()
        g0 = gp.g(gp.v0)
        theta = return_time(ts, alpha, 0.0, 0.02, -0.02, g0)
        assert theta == pytest.approx(0.04 / g0 / 2.0, rel=1e-9)

    def test_window_exhausted(self):
        ts = np.linspace(0.0, 1.0, 11)
        alpha = 1e-6 * np.ones_like(ts)
        with pytest.raises(WindowExhausted):
            return_time(ts, alpha, 0.0, 1.0, -1.0, 1.0)

    def test_zero_target_immediate(self):
        ts = np.linspace(0.0, 1.0, 11)
        alpha = np.ones_like(ts)
        assert return_time(ts, alpha, 0.3, -0.5, 0.5, 1.0) == 0.3
