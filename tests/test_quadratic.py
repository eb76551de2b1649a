"""Certification pipeline: forcing sizes, spectral rate bounds, constant
fitting, ceilings, tail limits, the assembled certificate, exit retraction
and the two-solution separation test.
"""

import math

import numpy as np
import pytest

from conftest import det_root_refine, make_reference_problem
from vwbound.errors import (
    ConditionGFailed,
    DegeneratePencil,
    DomainError,
    InfeasibleConditionE,
    NotRetractable,
)
from vwbound.expr import MatrixFunction, VectorFunction
from vwbound.growth import GrowthPair
from vwbound.quadratic import (
    SAFETY_INFLATION,
    SIGMA_GRID,
    Certificate,
    QuadraticProblem,
    alpha_curve,
    certify,
    closed_form_ceiling,
    fit_constants,
    limits_from_tail,
    phi,
    psi,
    rate_inequalities_check,
    retract_exit,
    sample_region_states,
    uniqueness_quadratic,
    v_rate_extreme,
    w_rate_min,
)


def constant_problem(a, b, c, f0, **kw):
    n = len(f0)
    defaults = dict(window=(-2.0, 2.0), v0=0.02, w_minus=-0.02, w_plus=0.02)
    defaults.update(kw)
    return QuadraticProblem(
        a=MatrixFunction.constant(np.asarray(a, float), n_states=n),
        f0=VectorFunction.from_strings([repr(float(v)) for v in f0], n_states=n),
        b=MatrixFunction.constant(np.asarray(b, float), n_states=n,
                                  symmetric=True),
        c=MatrixFunction.constant(np.asarray(c, float), n_states=n,
                                  symmetric=True),
        **defaults,
    )


class TestForcingSizes:
    def test_reference_phi_psi_constant(self, reference_problem):
        # |f0| = 0.1 in the Euclidean = B metric at every t; C is an
        # isometry on it
        for t in (-7.0, 0.0, 0.3, 11.0):
            assert phi(reference_problem, t) == pytest.approx(0.1, rel=1e-12)
            assert psi(reference_problem, t) == pytest.approx(0.1, rel=1e-12)

    def test_identity_metric_is_euclidean_norm(self):
        qp = constant_problem(
            [[0.0, 0.0], [0.0, 0.0]], np.eye(2), np.eye(2), [3.0, 4.0]
        )
        assert phi(qp, 0.0) == pytest.approx(5.0)
        assert psi(qp, 0.0) == pytest.approx(5.0)

    def test_weighted_metric(self):
        b = np.diag([4.0, 1.0])
        qp = constant_problem(
            [[0.0, 0.0], [0.0, 0.0]], b, np.eye(2), [3.0, 4.0]
        )
        # phi^2 = <B f, f>; psi^2 = <B^-1 C f, C f>
        assert phi(qp, 0.0) == pytest.approx(math.sqrt(4 * 9 + 16))
        assert psi(qp, 0.0) == pytest.approx(math.sqrt(9 / 4 + 16))


class TestRateBounds:
    def test_reference_closed_form(self, reference_problem):
        # BA + A^T B = diag(2, -2) vs B = I: max-abs value 2 (positive on
        # the tie); CA + A^T C = diag(2, 2) vs B: minimum 2
        x = np.zeros(2)
        assert v_rate_extreme(reference_problem, 0.0, x) == pytest.approx(2.0)
        assert w_rate_min(reference_problem, 0.0, x) == pytest.approx(2.0)

    def test_against_determinant_roots(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            a = rng.standard_normal((n, n))
            r = rng.standard_normal((n, n))
            b = r @ r.T + n * np.eye(n)
            qp = constant_problem(a, b, np.eye(n), np.zeros(n))
            x = np.zeros(n)
            m = b @ a + a.T @ b
            for lam, which in (
                (v_rate_extreme(qp, 0.0, x), m),
                (w_rate_min(qp, 0.0, x), a + a.T),
            ):
                refined = det_root_refine(which, b, lam)
                assert abs(refined - lam) <= 1e-8 * max(1.0, abs(lam))


class TestRegionSampling:
    def test_v_hit_exactly_w_inside(self, reference_problem):
        rng = np.random.default_rng(4)
        states = sample_region_states(
            reference_problem, 0.7, rng, 32, 0.02, 0.12
        )
        assert len(states) == 32
        for x in states:
            v = reference_problem.quad_v(0.7, x)
            w = reference_problem.quad_w(0.7, x)
            assert 0.02 - 1e-12 <= v <= 0.12 + 1e-12
            assert -0.02 <= w <= 0.02

    def test_rate_inequalities_hold_on_reference(self, reference_problem):
        rep = rate_inequalities_check(
            reference_problem, v_hi=0.12, n_samples=400, seed=1
        )
        assert rep.n_samples >= 400
        assert rep.passed
        assert rep.worst_v_margin >= -1e-9
        assert rep.worst_w_margin >= -1e-9


class TestConstantFitting:
    def test_reference_fit_values(self, reference_problem):
        rng = np.random.default_rng(0)
        samples = []
        for t in np.linspace(-40.0, 40.0, 41):
            for x in sample_region_states(
                reference_problem, float(t), rng, 4, 0.02, 0.12
            ):
                samples.append((float(t), x))
        consts = fit_constants(
            reference_problem, (0.25,), samples, v0=0.02
        )[0]
        # Lam_V = lam_W = 2 and phi = psi = 0.1 everywhere, so the raw
        # fits are c1 = c2 = 0.1 and c3 = v0^-0.25 at the smallest sampled
        # V; the 1.01 inflation sits on top
        assert consts.c1 == pytest.approx(0.101, rel=1e-12)
        assert consts.c2 == pytest.approx(0.101, rel=1e-12)
        v_min = min(reference_problem.quad_v(t, x) for t, x in samples)
        assert consts.c3 == pytest.approx(1.01 * v_min**-0.25, rel=1e-9)

    def test_sigma_grid_fits_on_state_dependent_a(self):
        qp = make_reference_problem(
            a=MatrixFunction.from_strings(
                [["1 + 0.5*x1*x2", "0"], ["0", "-1"]], n_states=2
            )
        )
        rng = np.random.default_rng(3)
        samples = []
        for t in np.linspace(-40.0, 40.0, 9):
            for x in sample_region_states(qp, float(t), rng, 6, 0.02, 0.15):
                samples.append((float(t), x))
        fits = fit_constants(qp, SIGMA_GRID, samples, v0=0.02)
        assert [gp.sigma for gp in fits] == list(SIGMA_GRID)
        for k, sigma in enumerate(SIGMA_GRID):
            # fitting the grid at once equals fitting each sigma alone
            assert fits[k] == fit_constants(qp, (sigma,), samples, 0.02)[0]
            # c1, c2 do not depend on sigma
            assert (fits[k].c1, fits[k].c2) == (fits[0].c1, fits[0].c2)
            # brute-force c3 from the per-point rate routines
            c3 = SAFETY_INFLATION * max(
                abs(v_rate_extreme(qp, t, x))
                / (qp.quad_v(t, x) ** sigma * w_rate_min(qp, t, x))
                for t, x in samples
            )
            assert fits[k].c3 == c3

    def test_sigma_checked_before_any_rate(self):
        # the samples are infeasible (lam_W < 0), but a bad sigma grid is
        # reported first
        qp = constant_problem(
            np.diag([-1.0, 1.0]), np.eye(2), np.diag([1.0, -1.0]),
            [0.0, 0.0],
        )
        samples = [(0.0, np.array([0.2, 0.0]))]
        for sigmas in ((), (0.5, 0.0), (1.5,)):
            with pytest.raises(DomainError):
                fit_constants(qp, sigmas, samples, v0=0.02)

    def test_negative_w_rate_is_infeasible(self):
        # reversing the saddle makes W shrink: lam_W = -2 < 0
        qp = constant_problem(
            np.diag([-1.0, 1.0]), np.eye(2), np.diag([1.0, -1.0]),
            [0.0, 0.0],
        )
        samples = [(0.0, np.array([0.2, 0.0]))]
        with pytest.raises(InfeasibleConditionE):
            fit_constants(qp, (0.5,), samples, v0=0.02)

    def test_c2_square_exceeding_v0_is_infeasible(self, reference_problem):
        samples = [(0.0, np.array([0.18, 0.05]))]
        with pytest.raises(InfeasibleConditionE) as info:
            fit_constants(reference_problem, (0.5,), samples, v0=1e-6)
        assert "c2" in str(info.value)

    def test_constants_validate_on_construction(self):
        with pytest.raises(InfeasibleConditionE):
            GrowthPair(sigma=0.5, c1=0.1, c2=0.2, c3=1.0, v0=0.01)
        with pytest.raises(DomainError):
            GrowthPair(sigma=1.5, c1=0.1, c2=0.05, c3=1.0, v0=0.01)


class TestClosedFormCeiling:
    def test_sigma_one_form(self):
        consts = GrowthPair(sigma=1.0, c1=0.2, c2=0.1, c3=1.5, v0=0.04)
        c_two = (0.2 + 0.1) * 0.1 * 1.5 / 2.0
        for delta in (0.0, 0.5, 2.0):
            assert closed_form_ceiling(consts, delta) == pytest.approx(
                (math.e * 0.1) ** 2 * math.exp(c_two * delta)
            )

    def test_sigma_below_one_form(self):
        consts = GrowthPair(sigma=0.5, c1=0.2, c2=0.1, c3=1.5, v0=0.04)
        c_two = (0.2 + 0.1) * 0.1 * 1.5 / 2.0
        c_one = math.sqrt(0.5 * c_two)
        delta = 2.0
        expected = (c_one * math.sqrt(delta) + 0.1**0.5) ** 4.0
        assert closed_form_ceiling(consts, delta) == pytest.approx(expected)

    def test_zero_spread_reduces_to_threshold(self):
        consts = GrowthPair(sigma=0.5, c1=0.2, c2=0.1, c3=1.5, v0=0.04)
        assert closed_form_ceiling(consts, 0.0) == pytest.approx(0.1**2)

    def test_negative_spread_rejected(self):
        consts = GrowthPair(sigma=0.5, c1=0.2, c2=0.1, c3=1.5, v0=0.04)
        with pytest.raises(DomainError):
            closed_form_ceiling(consts, -0.1)

    def test_monotone_in_spread(self):
        consts = GrowthPair(sigma=0.25, c1=0.1, c2=0.1, c3=2.7, v0=0.02)
        vals = [closed_form_ceiling(consts, d) for d in (0.0, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestCurvesAndTails:
    def test_alpha_constant_for_state_free_system(self, reference_problem):
        ts = np.linspace(-40.0, 40.0, 31)
        rng = np.random.default_rng(0)
        curve = alpha_curve(reference_problem, ts, 0.02, 0.12, rng)
        assert np.allclose(curve, 2.0, atol=1e-12)

    def test_tail_limits_reference_values(self):
        ts = np.linspace(-40.0, 40.0, 201)
        ones = np.ones_like(ts)
        tail = limits_from_tail(ts, ones, -ones, w_plus=0.02, v0=0.02)
        assert tail.nu == pytest.approx(0.02)
        assert tail.omega_tilde == pytest.approx(0.02)
        assert tail.omega0 == pytest.approx(-0.02)
        assert tail.tail_span == (-40.0, -30.0)

    def test_tail_without_positive_disk_fails(self):
        ts = np.linspace(-40.0, 40.0, 201)
        ones = np.ones_like(ts)
        with pytest.raises(ConditionGFailed):
            limits_from_tail(ts, -ones, -ones, w_plus=0.02, v0=0.02)


class TestCertify:
    def test_reference_certificate_constants(self, reference_certificate):
        cert = reference_certificate
        assert cert.sigma == 0.25
        assert cert.c1 == pytest.approx(0.101, rel=1e-12)
        assert cert.c2 == pytest.approx(0.101, rel=1e-12)
        assert cert.c3 == pytest.approx(2.6857394279572193, rel=1e-12)
        assert cert.v0 == 0.02 and not cert.v0_auto
        assert cert.v_star_auto
        assert cert.v_star == pytest.approx(0.1541851700649419, rel=1e-9)
        assert cert.nu == pytest.approx(0.02)
        assert cert.omega_tilde == pytest.approx(0.02)
        assert cert.omega0 == pytest.approx(-0.02)
        assert cert.v_small_star == pytest.approx(0.0889789646973690, rel=1e-9)
        assert cert.vstar_slack > 0.0

    def test_reference_curves(self, reference_certificate):
        cert = reference_certificate
        assert np.allclose(cert.lam_plus, 1.0, atol=1e-9)
        assert np.allclose(cert.lam_minus, -1.0, atol=1e-9)
        assert np.allclose(cert.lam_mp, 1.0, atol=1e-9)
        assert np.allclose(cert.alpha, 2.0, atol=1e-9)
        assert np.all(cert.ceiling >= cert.v0 - 1e-12)

    def test_reference_conditions(self, reference_certificate):
        cert = reference_certificate
        assert set(cert.conditions) == {
            "a", "b", "c", "d", "e", "f", "g", "A", "B", "V*"
        }
        assert all(c.passed for c in cert.conditions.values())
        for tag in ("f", "A", "B"):
            assert cert.conditions[tag].window_certified
        assert cert.feasible
        assert cert.window_certified_only

    def test_sigma_choice_minimizes_t0_ceiling(self, reference_problem):
        # certify on the full grid picks sigma = 0.25; pinning each sigma
        # shows the chosen one has the smallest ceiling at t = 0
        ceilings = {}
        for sigma in (0.25, 0.5, 1.0):
            cert = certify(reference_problem, sigma_grid=(sigma,))
            i0 = int(np.argmin(np.abs(cert.ts)))
            ceilings[sigma] = cert.ceiling[i0]
        assert min(ceilings, key=ceilings.get) == 0.25

    def test_auto_v0_rule(self):
        # the reference forcing is too large for the automatic v0 (its
        # fitted c2^2 exceeds half the disk cap), so weaken it tenfold
        qp = make_reference_problem(
            v0=None,
            f0=VectorFunction.from_strings(
                ["0.01*sin(t)", "0.01*cos(t)"], n_states=2
            ),
        )
        cert = certify(qp)
        # half the tightest disk cap: lam_plus = 1 so cap = w_plus = 0.02
        assert cert.v0 == pytest.approx(0.01)
        assert cert.v0_auto
        assert any("v0 chosen automatically" in n for n in cert.notes)

    def test_auto_v0_infeasible_for_strong_forcing(self):
        # with the full reference forcing the automatic v0 = 0.01 sits
        # below the fitted c2^2 = 0.0102 and certification refuses
        with pytest.raises(InfeasibleConditionE):
            certify(make_reference_problem(v0=None))

    def test_signature_change_refused(self):
        qp = constant_problem(
            np.diag([1.0, -1.0]), np.eye(2), np.eye(2), [0.0, 0.0]
        )
        # C = diag(0.5 - t, -1) starts hyperbolic, degenerates at t = 0.5
        # and flips signature past it
        qp = QuadraticProblem(
            a=qp.a, f0=qp.f0, b=qp.b,
            c=MatrixFunction.from_strings(
                [["0.5 - t", "0"], ["0", "-1"]], n_states=2, symmetric=True
            ),
            window=(-1.0, 1.0), v0=0.02, w_minus=-0.02, w_plus=0.02,
        )
        with pytest.raises(DegeneratePencil):
            certify(qp)

    def test_deterministic_given_seed(self, reference_problem):
        c1 = certify(reference_problem, seed=42)
        c2 = certify(reference_problem, seed=42)
        assert c1.c3 == c2.c3
        assert np.array_equal(c1.ceiling, c2.ceiling)


class TestRetraction:
    def test_projects_onto_exit_level(self, reference_problem):
        y = retract_exit(reference_problem, 0.0, [2.0, 5.0], 1.0)
        assert y == pytest.approx([1.0, 0.0])
        assert reference_problem.quad_w(0.0, y) == pytest.approx(1.0)

    def test_idempotent(self, reference_problem):
        y = retract_exit(reference_problem, 0.0, [2.0, 5.0], 1.0)
        again = retract_exit(reference_problem, 0.0, y, 1.0)
        assert again == pytest.approx(y)

    def test_no_positive_component(self, reference_problem):
        with pytest.raises(NotRetractable):
            retract_exit(reference_problem, 0.0, [0.0, 5.0], 1.0)

    def test_level_must_be_positive(self, reference_problem):
        with pytest.raises(DomainError):
            retract_exit(reference_problem, 0.0, [2.0, 5.0], 0.0)


class TestUniqueness:
    def test_reference_separation(self, reference_problem):
        rep = uniqueness_quadratic(reference_problem, v_hi=0.12, seed=3)
        assert rep.status == "pass"
        assert rep.beta_min == pytest.approx(2.0, rel=1e-9)
        assert np.allclose(rep.big_lam_curve, 1.0, atol=1e-12)
        assert rep.divergence_left == pytest.approx(80.0, rel=1e-6)
        assert rep.divergence_right == pytest.approx(80.0, rel=1e-6)
        assert rep.diverges

    def test_state_dependent_a_is_vacuous_without_comparison(self):
        qp = QuadraticProblem(
            a=MatrixFunction.from_strings(
                [["1 + 0.1*x1", "0"], ["0", "-1"]], n_states=2
            ),
            f0=VectorFunction.from_strings(["0.1*sin(t)", "0.1*cos(t)"],
                                           n_states=2),
            b=MatrixFunction.constant(np.eye(2), n_states=2, symmetric=True),
            c=MatrixFunction.constant(np.diag([1.0, -1.0]), n_states=2,
                                      symmetric=True),
            window=(-4.0, 4.0), v0=0.02, w_minus=-0.02, w_plus=0.02,
            v_star=0.15,
        )
        rep = uniqueness_quadratic(qp)
        assert rep.status == "vacuous"
        assert not rep.diverges
        assert any("difference matrix" in n for n in rep.notes)

    def test_supplied_comparison_matrix_runs(self, reference_problem):
        rep = uniqueness_quadratic(
            reference_problem,
            a_hat=lambda t, x, y: np.diag([1.0, -1.0]),
            v_hi=0.12,
        )
        assert rep.status == "pass"
        assert rep.beta_min == pytest.approx(2.0, rel=1e-9)
