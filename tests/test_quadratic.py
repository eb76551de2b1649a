"""Certification pipeline: forcing sizes, spectral rate bounds, constant
fitting, ceilings, tail limits, the assembled certificate and the
two-solution separation test.
"""

import dataclasses
import math
import pathlib
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import det_root_refine, make_reference_problem
from vwbound.errors import (
    ConditionGFailed,
    DegeneratePencil,
    DomainError,
    InfeasibleConditionE,
)
from vwbound import quadratic
from vwbound.expr import MatrixFunction, VectorFunction
from vwbound.growth import GrowthPair
from vwbound.pencil import SymmetricPencil, lambda_extremes
from vwbound.problemdoc import parse_problem_text
from vwbound.quadratic import (
    SAFETY_INFLATION,
    SAMPLE_TRIES,
    SIGMA_GRID,
    Certificate,
    QuadraticProblem,
    SamplingStats,
    _forcing,
    _grid,
    _v_rates,
    _w_rates,
    alpha_curve,
    certify,
    closed_form_ceiling,
    fit_constants,
    limits_from_tail,
    sample_region_states,
    uniqueness_quadratic,
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


def forcing_at(qp, t):
    """(phi, psi) at ``t`` from the stacked engine, on a one-row grid."""
    ph, ps = _forcing(_grid(qp, [t]))
    return float(ph[0]), float(ps[0])


def rates_at(qp, t, x):
    """(Lam_V, lam_W) at ``(t, x)`` from the stacked engine, on a one-row
    grid: the signed max-abs characteristic value of
    ``(BA + A^T B + B') - lambda B`` and the smallest one of
    ``(CA + A^T C + C') - lambda B``."""
    g, a = _grid(qp, [t]), qp.a.stack([t], [x])
    return float(_v_rates(g, a)[0]), float(_w_rates(g, a)[0])


@dataclass
class RateCheckReport:
    """Two-sided check of the spectral rate bounds.

    ``worst_v_margin`` is the minimum over samples of
    ``|Lam_V| V + 2 phi sqrt(V) - |dV/dt|``, and ``worst_w_margin`` that
    of ``dW/dt - (lam_W V - 2 psi sqrt(V))``; both should be >= 0 up to
    roundoff.  ``rate_gap`` is the largest relative difference between
    the oracle's rates and forcing sizes and the stacked engine's.
    """

    n_samples: int
    worst_v_margin: float
    worst_w_margin: float
    rate_gap: float

    @property
    def passed(self) -> bool:
        slack = 1e-9
        return self.worst_v_margin >= -slack and self.worst_w_margin >= -slack


def rate_inequalities_check(qp, v_hi, n_samples=2000, seed=0):
    """Oracle for the rate bounds: sample the region and compare dV/dt and
    dW/dt along the vector field (quadratic forms) with their spectral
    bounds, computed per sample by ``lambda_extremes`` on matrices from
    ``qp.a/b/c.eval`` -- a route independent of the stacked
    ``_forcing`` / ``_v_rates`` / ``_w_rates`` that certify uses, which
    are compared with it on the same samples."""
    rng = np.random.default_rng(seed)
    t_lo, t_hi = qp.window
    worst_v = worst_w = math.inf
    gap = 0.0
    count = 0
    while count < n_samples:
        t = float(rng.uniform(t_lo, t_hi))
        _, states = sample_region_states(
            qp, [t], rng, min(16, n_samples - count), qp.v0, v_hi
        )
        bmat, cmat = qp.b.eval(t), qp.c.eval(t)
        bdot, cdot = qp.b_dot.eval(t), qp.c_dot.eval(t)
        f0 = qp.f0.eval(t)
        ph = math.sqrt(float(f0 @ bmat @ f0))
        cf = cmat @ f0
        ps = math.sqrt(float(cf @ np.linalg.solve(bmat, cf)))
        gap = max(gap, *(abs(mine - stacked) / max(1.0, mine) for
                         mine, stacked in zip((ph, ps), forcing_at(qp, t))))
        for x in states:
            a = qp.a.eval(t, x)
            lo, hi = lambda_extremes(
                SymmetricPencil(bmat @ a + a.T @ bmat + bdot, bmat))
            lam_v = max(abs(lo), abs(hi))
            lam_w = lambda_extremes(
                SymmetricPencil(cmat @ a + a.T @ cmat + cdot, bmat))[0]
            stacked_v, stacked_w = rates_at(qp, t, x)
            gap = max(gap, abs(lam_v - abs(stacked_v)) / max(1.0, lam_v),
                      abs(lam_w - stacked_w) / max(1.0, abs(lam_w)))
            f = np.array(qp.rhs(t, x))
            v = float(x @ bmat @ x)
            sq = math.sqrt(v)
            v_dot = float(x @ bdot @ x + 2.0 * (bmat @ x) @ f)
            w_dot = float(x @ cdot @ x + 2.0 * (cmat @ x) @ f)
            worst_v = min(worst_v, lam_v * v + 2.0 * ph * sq - abs(v_dot))
            worst_w = min(worst_w, w_dot - (lam_w * v - 2.0 * ps * sq))
            count += 1
    return RateCheckReport(count, worst_v, worst_w, gap)


class TestForcingSizes:
    def test_reference_phi_psi_constant(self, reference_problem):
        # |f0| = 0.1 in the Euclidean = B metric at every t; C is an
        # isometry on it
        for t in (-7.0, 0.0, 0.3, 11.0):
            ph, ps = forcing_at(reference_problem, t)
            assert ph == pytest.approx(0.1, rel=1e-12)
            assert ps == pytest.approx(0.1, rel=1e-12)

    def test_identity_metric_is_euclidean_norm(self):
        qp = constant_problem(
            [[0.0, 0.0], [0.0, 0.0]], np.eye(2), np.eye(2), [3.0, 4.0]
        )
        ph, ps = forcing_at(qp, 0.0)
        assert ph == pytest.approx(5.0)
        assert ps == pytest.approx(5.0)

    def test_weighted_metric(self):
        b = np.diag([4.0, 1.0])
        qp = constant_problem(
            [[0.0, 0.0], [0.0, 0.0]], b, np.eye(2), [3.0, 4.0]
        )
        # phi^2 = <B f, f>; psi^2 = <B^-1 C f, C f>
        ph, ps = forcing_at(qp, 0.0)
        assert ph == pytest.approx(math.sqrt(4 * 9 + 16))
        assert ps == pytest.approx(math.sqrt(9 / 4 + 16))


class TestRateBounds:
    def test_reference_closed_form(self, reference_problem):
        # BA + A^T B = diag(2, -2) vs B = I: max-abs value 2 (positive on
        # the tie); CA + A^T C = diag(2, 2) vs B: minimum 2
        lam_v, lam_w = rates_at(reference_problem, 0.0, np.zeros(2))
        assert lam_v == pytest.approx(2.0)
        assert lam_w == pytest.approx(2.0)

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
            for lam, which in zip(rates_at(qp, 0.0, x), (m, a + a.T)):
                refined = det_root_refine(which, b, lam)
                assert abs(refined - lam) <= 1e-8 * max(1.0, abs(lam))


NONLINEAR_DOC = pathlib.Path(__file__).parents[1] / "demos" / "nonlinear.problem"
STATE_DEPENDENT_A = MatrixFunction.from_strings(
    [["1 + 0.5*x1*x2", "0"], ["0", "-1"]], n_states=2
)


class TestRegionSampling:
    def test_states_at_a_time_ignore_the_other_times(self):
        # the same problem with a C(t) that equals C exactly at t = 0 and
        # differs elsewhere: the other times reject other candidates, and
        # the states at t = 0 must not notice
        text = NONLINEAR_DOC.read_text()
        assert text.count('C.2.2 = "-1"\n') == 1
        moved = text.replace('C.2.2 = "-1"\n',
                             'C.2.2 = "-(1 + 3*sin(t)^2)"\n')
        qps = [parse_problem_text(doc).to_problem() for doc in (text, moved)]
        ts = np.linspace(-4.0, 4.0, 9)
        i0 = int(np.flatnonzero(ts == 0.0)[0])
        assert i0 > 0
        got = [sample_region_states(qp, ts, np.random.default_rng(5), 16,
                                    0.02, 0.15) for qp in qps]
        (at_a, xs_a), (at_b, xs_b) = got
        assert np.count_nonzero(at_a == i0) == 16
        assert np.array_equal(xs_a[at_a == i0], xs_b[at_b == i0])
        # elsewhere C differs, and so do the states kept
        assert not np.array_equal(xs_a[at_a == 0], xs_b[at_b == 0])

    def test_per_time_properties(self):
        qp = make_reference_problem(
            a=STATE_DEPENDENT_A,
            c=MatrixFunction.from_strings(
                [["1 + 0.5*sin(t)", "0.2*cos(t)"], ["0.2*cos(t)", "-1"]],
                n_states=2, symmetric=True),
        )
        ts = np.linspace(-40.0, 40.0, 11)
        n, v_lo, v_hi = 8, 0.02, 0.15
        stats = SamplingStats()
        at, xs = sample_region_states(qp, ts, np.random.default_rng(2), n,
                                      v_lo, v_hi, stats)
        assert xs.shape == (at.size, qp.n)
        # grouped by time in grid order, at most n per time
        assert np.all(np.diff(at) >= 0)
        assert np.bincount(at, minlength=ts.size).max() <= n
        for i, x in zip(at.tolist(), xs):
            t = float(ts[i])
            v, w = qp.quad_v(t, x), qp.quad_w(t, x)
            assert v_lo * (1 - 1e-14) <= v <= v_hi * (1 + 1e-14)
            assert qp.w_minus - 1e-15 <= w <= qp.w_plus + 1e-15
        # the same seed gives the same states
        again = sample_region_states(qp, ts, np.random.default_rng(2), n,
                                     v_lo, v_hi)
        assert np.array_equal(at, again[0]) and np.array_equal(xs, again[1])
        assert stats.calls == 1 and 1 <= stats.rounds <= SAMPLE_TRIES
        assert stats.drawn == stats.rounds * ts.size * n
        assert stats.accepted == at.size == ts.size * n

    def test_time_with_no_admissible_state(self):
        # at t = 0, C = diag(1, 2) is positive definite, so W >= V >= 0.05
        # > w+ rejects every candidate; elsewhere C = diag(1, -1) to within
        # exp(-100)
        qp = make_reference_problem(
            a=STATE_DEPENDENT_A, v0=0.05,
            c=MatrixFunction.from_strings(
                [["1", "0"], ["0", "-1 + 3*exp(-100*t^2)"]],
                n_states=2, symmetric=True),
        )
        ts = np.linspace(-2.0, 2.0, 5)
        stats = SamplingStats()
        at, xs = sample_region_states(qp, ts, np.random.default_rng(0), 8,
                                      0.05, 0.15, stats)
        assert np.bincount(at, minlength=5).tolist() == [8, 8, 0, 8, 8]
        assert stats.rounds == SAMPLE_TRIES
        assert stats.drawn == SAMPLE_TRIES * 5 * 8
        alpha = alpha_curve(qp, ts, 0.05, 0.15, np.random.default_rng(0))
        assert np.isnan(alpha[2])
        assert np.all(np.isfinite(np.delete(alpha, 2)))

    def test_v_hit_exactly_w_inside(self, reference_problem):
        rng = np.random.default_rng(4)
        _, states = sample_region_states(
            reference_problem, [0.7], rng, 32, 0.02, 0.12
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
        assert rep.rate_gap <= 1e-12

    def test_rate_inequalities_hold_on_state_dependent_a(self):
        # the reference rates tie (Lam_V = +-2, lam_W = 2 twice); here
        # BA + A^T B = diag(2 + x1 x2, -2) and CA + A^T C = diag(2 + x1 x2,
        # 2), so the sign of x1 x2 decides which extreme each rate is
        qp = make_reference_problem(
            a=MatrixFunction.from_strings(
                [["1 + 0.5*x1*x2", "0"], ["0", "-1"]], n_states=2
            )
        )
        rep = rate_inequalities_check(qp, v_hi=0.12, n_samples=400, seed=2)
        assert rep.passed
        assert rep.rate_gap <= 1e-12


class TestConstantFitting:
    def test_reference_fit_values(self, reference_problem):
        rng = np.random.default_rng(0)
        ts = np.linspace(-40.0, 40.0, 41)
        at, xs = sample_region_states(reference_problem, ts, rng, 4, 0.02,
                                      0.12)
        samples = list(zip(ts[at].tolist(), xs))
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
        ts = np.linspace(-40.0, 40.0, 9)
        at, xs = sample_region_states(qp, ts, rng, 6, 0.02, 0.15)
        samples = list(zip(ts[at].tolist(), xs))
        fits = fit_constants(qp, SIGMA_GRID, samples, v0=0.02)
        assert [gp.sigma for gp in fits] == list(SIGMA_GRID)
        # a grid at the sample times is used; one at other times (or with
        # a time missing) is not, and the fit stays the same
        for grid in (quadratic._grid(qp, ts), quadratic._grid(qp, ts[1:]),
                     quadratic._grid(qp, ts + 1.0)):
            assert fit_constants(qp, SIGMA_GRID, samples, 0.02, grid) == fits
        for k, sigma in enumerate(SIGMA_GRID):
            # fitting the grid at once equals fitting each sigma alone
            assert fits[k] == fit_constants(qp, (sigma,), samples, 0.02)[0]
            # c1, c2 do not depend on sigma
            assert (fits[k].c1, fits[k].c2) == (fits[0].c1, fits[0].c2)
            # brute-force c3 from the rates of one point at a time
            c3 = SAFETY_INFLATION * max(
                abs(lam_v) / (qp.quad_v(t, x) ** sigma * lam_w)
                for t, x in samples
                for lam_v, lam_w in [rates_at(qp, t, x)]
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

    @pytest.mark.parametrize("a", ["1", "1 + 0.5*x1*x2"],
                             ids=["state-free", "sampled"])
    def test_grid_stacks_evaluated_once(self, monkeypatch, a):
        # certify evaluates B, C, B', C' and f0 on its grid once and hands
        # the rows to the fits and to alpha; rows evaluated afresh there
        # give the same certificate
        qp = make_reference_problem(
            a=MatrixFunction.from_strings([[a, "0"], ["0", "-1"]],
                                          n_states=2),
            n_grid=41, n_state_samples=6,
        )
        grid = quadratic._grid
        calls = []

        def counted(qp, ts):
            calls.append(len(ts))
            return grid(qp, ts)

        monkeypatch.setattr(quadratic, "_grid", counted)
        cert = certify(qp)
        assert calls == [41]
        fit, alpha = quadratic.fit_constants, quadratic.alpha_curve
        monkeypatch.setattr(quadratic, "fit_constants",
                            lambda *args: fit(*args[:4]))
        monkeypatch.setattr(quadratic, "alpha_curve",
                            lambda *args: alpha(*args[:5]))
        fresh = certify(qp)
        assert len(calls) > 2
        assert repr(fresh) == repr(cert)
        for name in ("lam_plus", "lam_minus", "alpha", "ceiling"):
            assert getattr(fresh, name).tobytes() == getattr(
                cert, name).tobytes()

    @pytest.mark.parametrize("a", ["1", "1 + 0.5*x1*x2"],
                             ids=["state-free", "sampled"])
    def test_sampler_calls(self, monkeypatch, a):
        # the state-free path never samples; the sampled path samples the
        # whole grid once per V* round and once for alpha, and the
        # certificate counts what the sampler did
        qp = make_reference_problem(
            a=MatrixFunction.from_strings([[a, "0"], ["0", "-1"]],
                                          n_states=2),
            n_grid=41, n_state_samples=6,
        )
        sample = quadratic.sample_region_states
        calls = []

        def spy(qp, ts, rng, n, v_lo, v_hi, stats=None):
            calls.append((len(ts), n))
            return sample(qp, ts, rng, n, v_lo, v_hi, stats)

        monkeypatch.setattr(quadratic, "sample_region_states", spy)
        fits = []
        fit = quadratic.fit_constants
        monkeypatch.setattr(quadratic, "fit_constants",
                            lambda *args: fits.append(1) or fit(*args))
        cert = certify(qp)
        stats = cert.sampling
        if a == "1":
            assert calls == [] and stats == SamplingStats()
            return
        assert calls == [(41, 6)] * (len(fits) + 1)
        assert stats.calls == len(calls)
        assert stats.accepted == 41 * 6 * len(calls)
        assert stats.drawn == stats.rounds * 41 * 6
        assert len(calls) <= stats.rounds <= SAMPLE_TRIES * len(calls)

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
        c1 = certify(reference_problem)
        c2 = certify(reference_problem)
        assert c1.c3 == c2.c3
        assert np.array_equal(c1.ceiling, c2.ceiling)


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


def uniqueness_per_time(qp, a_hat, v_hi, seed):
    """:func:`uniqueness_quadratic` as it was before it stacked its grid,
    one grid time at a time, kept as its oracle (``a_hat`` given); the
    region states come from one sampler call over the grid, as there."""
    from vwbound.quadratic import (
        DIVERGENCE_THRESHOLD,
        SEPARATION_STATES,
        UniquenessQuadraticReport,
    )

    rng = np.random.default_rng(seed)
    ts = np.linspace(*qp.window, qp.n_grid)
    z = np.zeros(qp.n)
    c_hat = qp.c_hat if qp.c_hat is not None else qp.c
    c_hat_dot = c_hat.diff_t()
    v_lo = qp.v0 if qp.v0 is not None else v_hi / 4.0
    beta = np.empty(ts.size)
    big_lam = np.empty(ts.size)
    beta_min = math.inf
    witness = None
    at, xs = sample_region_states(qp, ts, rng, SEPARATION_STATES, v_lo, v_hi)
    for i, t in enumerate(ts):
        tt = float(t)
        bmat = qp.b.eval(tt, z)
        ch = c_hat.eval(tt, z)
        big_lo, big_hi = lambda_extremes(SymmetricPencil(ch, bmat))
        big_lam[i] = big_hi if abs(big_hi) >= abs(big_lo) else big_lo
        chd = c_hat_dot.eval(tt, z)
        states = list(xs[at == i])
        if len(states) < 2:
            states = [z.copy(), z.copy()]
        pairs = list(zip(states[::2], states[1::2]))
        m = ch @ np.array([a_hat(tt, x, y) for x, y in pairs], dtype=float)
        lam = lambda_extremes(
            SymmetricPencil(m + m.mT + chd, np.broadcast_to(bmat, m.shape))
        )[0]
        j = int(np.argmin(lam))
        beta[i] = lam[j]
        if lam[j] < beta_min:
            beta_min = float(lam[j])
            witness = (tt, pairs[j][0].copy(), pairs[j][1].copy())

    def normalized(t_index_mask, endpoint):
        sel = np.nonzero(t_index_mask)[0]
        if sel.size < 2:
            return 0.0
        integrand = beta[sel] / big_lam[sel]
        integral = abs(float(np.trapezoid(integrand, ts[sel])))
        return integral / abs(float(big_lam[endpoint]))

    div_left = normalized(ts <= 0.0, 0)
    div_right = normalized(ts >= 0.0, ts.size - 1)
    diverges = min(div_left, div_right) >= DIVERGENCE_THRESHOLD
    notes = []
    if beta_min > 0.0 and not diverges:
        notes.append(
            "rate floor positive but the window integral stays below the "
            "divergence threshold; uniqueness is only window-supported"
        )
    return UniquenessQuadraticReport(
        status="pass" if (beta_min > 0.0 and diverges) else "fail",
        beta_min=beta_min,
        witness=witness,
        lam_hat_curve=beta,
        big_lam_curve=big_lam,
        divergence_left=div_left,
        divergence_right=div_right,
        divergence_threshold=DIVERGENCE_THRESHOLD,
        diverges=diverges,
        notes=notes,
    )


class TestStackedSeparation:
    @pytest.mark.parametrize("a_hat", [
        None,
        # a state-dependent comparison matrix, so the pairs differ
        lambda t, x, y: np.array([[1.0 + 5.0 * x[0] * y[1], 0.1 * t],
                                  [0.0, -1.0 + 3.0 * (x[1] - y[0])]]),
    ], ids=["default", "state-dependent"])
    def test_equals_the_per_time_loop(self, a_hat):
        qp = make_reference_problem(
            window=(-6.0, 6.0), n_grid=25, v0=0.02, v_star=0.12,
            c_hat=MatrixFunction.from_strings(
                [["1 + 0.4*sin(0.5*t)", "0.1*t"], ["0.1*t", "-1"]],
                n_states=2, symmetric=True),
        )
        rep = uniqueness_quadratic(qp, a_hat=a_hat, v_hi=0.12, seed=3)
        want = uniqueness_per_time(
            qp, a_hat or (lambda t, x, y: qp.a.eval(t)),
            0.12, 3,
        )
        if a_hat is None:
            want.notes.insert(
                0, "A is state-independent; difference matrix equals A")
        assert not np.all(want.big_lam_curve == want.big_lam_curve[0])
        for field in dataclasses.fields(rep):
            got, expected = getattr(rep, field.name), getattr(want, field.name)
            if field.name == "witness":
                assert got[0] == expected[0]
                assert np.array_equal(got[1], expected[1])
                assert np.array_equal(got[2], expected[2])
            elif isinstance(expected, np.ndarray):
                assert np.array_equal(got, expected), field.name
            else:
                assert got == expected, field.name
