"""Integrator contract: convergence order, event location, dense sampling,
reversibility, and the trajectory CSV format.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vwbound.ode as ode
from conftest import make_reference_problem
from vwbound.errors import DomainError, StepSizeUnderflow
from vwbound.expr import MatrixFunction, VectorFunction, compile_rhs
from vwbound.growth import GrowthPair
from vwbound.ode import (
    EventSpec,
    Trajectory,
    _dense_output,
    _initial_step,
    _row_sign,
    dense_at,
    integrate,
    make_region_events,
    eval_v_w_along,
    write_trajectory_csv,
)


def linear_rhs(t, x):
    return np.array([x[0], -x[1]])


def oscillator_rhs(t, x):
    # van der Pol with mu = 1: smooth, nonlinear, non-stiff on short spans
    return np.array([x[1], (1.0 - x[0] ** 2) * x[1] - x[0]])


def sampled(rhs, t0, x0, t_end, taus, **kwargs):
    """The orbit sampled as a caller samples one: a run without per-step
    nodes that keeps its steps over ``taus``, in the order they are
    reached; its start, the dense output at each of ``taus`` it reached
    and its end or exit node."""
    run = integrate(rhs, t0, x0, t_end, nodes=False,
                    keep=[(taus[0], taus[-1])], **kwargs)
    xs = dense_at(run.steps, taus).reshape(-1, run.xs.shape[1])
    return dataclasses.replace(
        run, ts=np.array([t0, *taus[:len(xs)], run.t_end]),
        xs=np.vstack([run.xs[:1], xs, run.xs[-1:]]))


class TestAccuracy:
    def test_exponential_error(self):
        traj = integrate(linear_rhs, 0.0, np.array([1.0, 1.0]), 2.0, tol=1e-9)
        exact = np.array([math.e**2, math.e**-2])
        assert np.max(np.abs(traj.x_end - exact)) < 1e-7

    def test_error_scales_with_tolerance(self):
        # halving the tolerance five times must cut the error by well
        # over the single-halving factor of 8
        x0 = np.array([2.0, 0.0])

        def err(tol):
            traj = integrate(oscillator_rhs, 0.0, x0, 10.0, tol=tol)
            tight = integrate(oscillator_rhs, 0.0, x0, 10.0, tol=1e-12)
            return float(np.max(np.abs(traj.x_end - tight.x_end)))

        ratio = err(1e-6) / err(1e-6 / 32.0)
        assert ratio >= 8.0

    def test_time_reversal(self):
        # harmonic oscillator: neutrally stable both ways, so the
        # round trip error is pure integrator error
        rhs = lambda t, x: np.array([x[1], -x[0]])
        x0 = np.array([2.0, 0.0])
        tol = 1e-9
        fwd = integrate(rhs, 0.0, x0, 10.0, tol=tol)
        back = integrate(rhs, 10.0, fwd.x_end, 0.0, tol=tol)
        assert np.max(np.abs(back.x_end - x0)) <= 100.0 * tol

    def test_time_reversal_expanding_direction(self):
        # van der Pol run backwards reverses the limit-cycle contraction;
        # the round trip error is tol amplified by that conditioning, not
        # an integrator defect
        x0 = np.array([2.0, 0.0])
        fwd = integrate(oscillator_rhs, 0.0, x0, 10.0, tol=1e-9)
        back = integrate(oscillator_rhs, 10.0, fwd.x_end, 0.0, tol=1e-9)
        assert np.max(np.abs(back.x_end - x0)) <= 3e-4

    def test_backward_integration(self):
        traj = integrate(linear_rhs, 0.0, np.array([1.0, 1.0]), -1.0, tol=1e-10)
        exact = np.array([math.exp(-1.0), math.exp(1.0)])
        assert np.max(np.abs(traj.x_end - exact)) < 1e-8
        assert traj.ts[0] == 0.0 and traj.t_end == -1.0


class TestSampling:
    def test_samples_are_exact_nodes(self):
        samples = [0.3, 1.1, 1.9]
        traj = sampled(linear_rhs, 0.0, np.array([1.0, 1.0]), 2.0, samples,
                       tol=1e-9)
        assert np.array_equal(traj.ts, np.array([0.0, 0.3, 1.1, 1.9, 2.0]))
        # the samples are those of the steps a recorded run takes
        full = integrate(linear_rhs, 0.0, np.array([1.0, 1.0]), 2.0,
                         tol=1e-9, keep=[(0.3, 1.9)])
        assert traj.steps.tobytes() == full.steps.tobytes()
        assert traj.xs[-1].tobytes() == full.x_end.tobytes()

    def test_empty_samples(self):
        # without nodes a run holds only its start and its end
        traj = integrate(
            linear_rhs, 0.0, np.array([1.0, 1.0]), 2.0, tol=1e-9,
            nodes=False,
        )
        full = integrate(linear_rhs, 0.0, np.array([1.0, 1.0]), 2.0,
                         tol=1e-9)
        assert np.array_equal(traj.ts, np.array([0.0, 2.0]))
        assert np.array_equal(traj.xs, full.xs[[0, -1]])
        assert (traj.n_accepted, traj.n_rejected) == (full.n_accepted,
                                                      full.n_rejected)

    def test_dense_output_accuracy(self):
        traj = sampled(linear_rhs, 0.0, np.array([1.0, 1.0]), 2.0,
                       np.linspace(0.1, 1.9, 50).tolist(), tol=1e-10)
        exact = np.exp(np.outer(traj.ts, [1.0, -1.0]))
        assert np.max(np.abs(traj.xs - exact)) < 1e-8


class TestEvents:
    def test_located_crossing_matches_closed_form(self):
        # x' = x from 1 crosses the level x = e exactly at t = 1
        ev = EventSpec("hits_e", lambda t, x: x[0] - math.e, direction=+1)
        traj = integrate(
            lambda t, x: x, 0.0, np.array([1.0]), 3.0, tol=1e-10, events=[ev]
        )
        assert traj.status == "event:hits_e"
        assert len(traj.events) == 1
        assert traj.events[0].t == pytest.approx(1.0, abs=1e-9)
        assert traj.t_end == pytest.approx(1.0, abs=1e-9)

    def test_boundary_start_with_outgoing_slope(self):
        # starting on the watched level while moving outward fires at t0
        ev = EventSpec("at_one", lambda t, x: x[0] - 1.0, direction=+1)
        traj = integrate(
            lambda t, x: x, 0.0, np.array([1.0]), 3.0, tol=1e-9, events=[ev]
        )
        assert traj.status == "event:at_one"
        assert traj.events[0].t == 0.0
        assert traj.ts.size == 1

    def test_boundary_start_moving_inward_does_not_fire(self):
        ev = EventSpec("at_one", lambda t, x: x[0] - 1.0, direction=+1)
        traj = integrate(
            lambda t, x: -x, 0.0, np.array([1.0]), 3.0, tol=1e-9, events=[ev]
        )
        assert traj.status == "reached_end"

    def test_direction_filter(self):
        # sin t crosses zero falling at pi; a rising-only watcher skips it
        rhs = lambda t, x: np.array([math.cos(t)])
        rising = EventSpec("up", lambda t, x: x[0], direction=+1)
        traj = integrate(rhs, 0.5, np.array([math.sin(0.5)]), 7.0,
                         tol=1e-10, events=[rising])
        assert traj.events[0].t == pytest.approx(2.0 * math.pi, abs=1e-7)

    def test_nonterminal_event_recorded_not_truncating(self):
        ev = EventSpec("across", lambda t, x: x[0] - 2.0, terminal=False)
        traj = integrate(
            lambda t, x: x, 0.0, np.array([1.0]), 2.0, tol=1e-10, events=[ev]
        )
        assert traj.status == "reached_end"
        assert traj.t_end == 2.0
        assert len(traj.events) == 1
        assert traj.events[0].t == pytest.approx(math.log(2.0), abs=1e-9)

    @pytest.mark.parametrize("t0, t_end", [(0.0, 7.0), (0.0, -7.0),
                                           (1000.0, 1007.0)])
    def test_located_times_within_xtol_of_closed_form(self, t0, t_end):
        # x1' = 1 keeps x1 = t - t0 exact on the dense output, so each
        # zero of the nonlinear level sin(3 x1) sits at a known multiple
        # of pi/3 (the start, k = 0, fires as a boundary start); the
        # oscillator (x2, x3) keeps the steps shorter than pi/3
        def rhs(t, x):
            return np.array([1.0, x[2], -x[1]])

        ev = EventSpec("sin3x", lambda t, x: math.sin(3.0 * x[0]),
                       terminal=False)
        traj = integrate(rhs, t0, np.array([0.0, 1.0, 0.0]), t_end,
                         tol=1e-9, events=[ev])
        k = np.arange(7)
        expected = t0 + math.copysign(1.0, t_end - t0) * k * math.pi / 3.0
        times = [rec.t for rec in traj.events]
        assert len(times) == k.size
        for got, want in zip(times, expected):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)) + 1e-15

    @pytest.mark.parametrize("level, root", [
        (lambda t, x: math.exp(x[0]) - 10.0, math.log(10.0)),
        (lambda t, x: x[0] ** 3 - 2.0, 2.0 ** (1.0 / 3.0)),
    ], ids=["exp", "cube"])
    def test_terminal_time_within_xtol(self, level, root):
        ev = EventSpec("hit", level, direction=+1)
        traj = integrate(lambda t, x: np.ones(1), 0.0, np.array([0.0]),
                         5.0, tol=1e-9, events=[ev])
        assert traj.status == "event:hit"
        assert abs(traj.t_end - root) <= 1e-12

    @pytest.mark.parametrize("terminal", [True, False])
    def test_level_exactly_zero_at_a_step_end(self, terminal):
        # a level that is exactly 0 at the end of the third accepted step
        # (and so at the start of the fourth) fires once, at that node
        free = integrate(oscillator_rhs, 0.0, np.array([2.0, 0.0]), 3.0,
                         tol=1e-9)
        t_k = float(free.ts[3])
        ev = EventSpec("at_node", lambda t, x: t - t_k, direction=+1,
                       terminal=terminal)
        traj = integrate(oscillator_rhs, 0.0, np.array([2.0, 0.0]), 3.0,
                         tol=1e-9, events=[ev])
        assert len(traj.events) == 1
        assert traj.events[0].t == t_k
        assert np.array_equal(traj.events[0].x, free.xs[3])
        if terminal:
            assert traj.status == "event:at_node"
            assert np.array_equal(traj.ts, free.ts[:4])
        else:
            assert np.array_equal(traj.ts, free.ts)
            assert np.array_equal(traj.xs, free.xs)

    def test_falling_level_zero_at_a_step_start_is_not_a_crossing(self):
        # the level rises to exactly 0 at a node and falls after it: the
        # rising watcher fires at the node, the falling one never does
        free = integrate(oscillator_rhs, 0.0, np.array([2.0, 0.0]), 3.0,
                         tol=1e-9)
        t_k = float(free.ts[3])
        up = EventSpec("up", lambda t, x: min(t - t_k, t_k - t),
                       direction=+1, terminal=False)
        down = EventSpec("down", lambda t, x: min(t - t_k, t_k - t),
                         direction=-1, terminal=False)
        traj = integrate(oscillator_rhs, 0.0, np.array([2.0, 0.0]), 3.0,
                         tol=1e-9, events=[up, down])
        assert [(rec.kind, rec.t) for rec in traj.events] == [("up", t_k)]

    def test_region_events_shape(self):
        qp = make_reference_problem()
        evs = make_region_events(qp.quad_w, qp.quad_v, 0.02, -0.02, 0.02, 0.15)
        kinds = [e.kind for e in evs]
        assert kinds == ["W_hits_wplus", "W_hits_wminus", "V_hits_Vstar"]
        assert all(e.terminal for e in evs)
        assert [e.direction for e in evs] == [1, -1, 1]
        # v0 only scales the tolerance of the V level
        assert evs[2].tol == 1e-9 * (1.0 + 0.02 + 0.15)


# The step loop as it was written before it was generated, on numpy
# arrays: the Dormand-Prince tableau, the RMS error over tol (1 + |x|),
# the rejection of non-finite steps and the PI controller.
DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
        22 / 525, -1 / 40)


def _weighted(weights, ks):
    # one term per nonzero weight, in stage order, as the loop sums them
    terms = [w * k for w, k in zip(weights, ks) if w != 0.0]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def reference_dp5(f, t0, x0, t_end, tol, clamps=None):
    """Every accepted step from t0 to t_end as ``(t, x, hs, stages,
    t_new, x_new, rejected_before)``, and the number of rejections.
    Raises StepSizeUnderflow where the step size falls below
    ``1e-14 max(1, |t|)``.  ``clamps``, when given, collects ``"clip"``
    for a step cut to end at t_end, ``"floor"`` and ``"cap"`` for a step
    factor held at 0.2 or 10."""
    direction = 1.0 if t_end >= t0 else -1.0
    t, x = t0, np.array(x0, dtype=float)
    k0 = f(t, x)
    h = _initial_step(lambda t, y: f(t, np.array(y)).tolist(), t0,
                      x.tolist(), k0.tolist(), direction, tol, abs(t_end - t0))
    err_prev, rejected, n_rej, steps = 1.0, False, 0, []
    clamps = [] if clamps is None else clamps
    while (t_end - t) * direction > 1e-14 * max(1.0, abs(t)):
        if abs(t_end - t) < h:
            clamps.append("clip")
        h = min(h, abs(t_end - t))
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(t, x)
        hs = h * direction
        ks = [k0]
        for c, row in zip(DP_C, DP_A):
            ks.append(f(t + c * hs, x + hs * _weighted(row, ks)))
        x_new = x + hs * _weighted(DP_B5, ks)
        ks.append(f(t + hs, x_new))
        r = hs * _weighted(DP_E, ks) / (
            tol * (1.0 + np.maximum(np.abs(x), np.abs(x_new))))
        err_sq = 0.0
        for v in r.tolist():
            err_sq += v * v
        err_norm = math.sqrt(err_sq / x.size)
        finite = math.isfinite(err_norm) and np.all(np.isfinite(x_new))
        if not (finite and err_norm <= 1.0):
            n_rej += 1
            rejected = True
            if finite and 0.9 * err_norm ** -0.2 < 0.2:
                clamps.append("floor")
            h *= min(1.0, max(0.2, 0.9 * err_norm ** -0.2)) if finite else 0.5
            continue
        steps.append((t, x, hs, ks, t + hs, x_new, n_rej))
        t, x, k0 = t + hs, x_new, ks[6]
        err_clamped = max(err_norm, 1e-10)
        factor = 0.9 * err_clamped ** -(0.7 / 5.0) * err_prev ** (0.4 / 5.0)
        if factor > 10.0:
            clamps.append("cap")
        factor = min(10.0, max(0.2, factor))
        if rejected:
            factor = min(1.0, factor)
            rejected = False
        h *= factor
        err_prev = err_clamped
    return steps, n_rej


class TestStepLoop:
    """integrate takes the reference loop's steps exactly, through the
    inlined problem rhs and through a generic callable."""

    def test_reference_problem_steps_and_samples(self):
        qp = make_reference_problem()
        x0 = [0.05, 0.1]
        steps, n_rej = reference_dp5(
            lambda t, x: np.array(qp.rhs(t, x.tolist())), 0.0, x0, 4.0, 1e-9
        )
        samples = np.linspace(0.2, 3.8, 19)
        traj = sampled(qp.rhs, 0.0, np.array(x0), 4.0, samples.tolist(),
                       tol=1e-9)
        want = [x0]
        for tau in samples:
            t, x, hs, ks, *_ = next(
                s for s in steps
                if (tau - s[4]) <= 1e-14 * max(1.0, abs(s[4]))
            )
            want.append(_dense_output(t, x.tolist(), hs,
                                      [k.tolist() for k in ks])(tau))
        want.append(steps[-1][5])
        assert traj.ts.tolist() == [0.0, *samples.tolist(), 4.0]
        assert np.array_equal(traj.xs, np.array(want))
        assert (traj.n_accepted, traj.n_rejected, traj.n_rhs) == (
            len(steps), n_rej, 2 + 6 * (len(steps) + n_rej))

        # the exit run takes the same steps up to the one that crosses
        events = make_region_events(qp.quad_w, qp.quad_v, 0.02, -0.02,
                                    0.02, 0.15)
        run = integrate(qp.rhs, 0.0, np.array(x0), 4.0, tol=1e-9,
                        events=events)
        k = run.n_accepted
        assert run.status == "event:W_hits_wplus"
        assert run.ts[:-1].tolist() == [0.0] + [s[4] for s in steps[:k - 1]]
        assert np.array_equal(run.xs[:-1],
                              np.array([x0] + [s[5] for s in steps[:k - 1]]))
        assert steps[k - 1][0] < run.t_end <= steps[k - 1][4]
        assert run.n_rejected == steps[k - 1][6]
        assert run.n_rhs == 2 + 6 * (k + run.n_rejected)

    @staticmethod
    def assert_reference_run(traj, x0, steps, n_rej):
        # every node bit for bit (signed zeros included) and every counter
        assert traj.ts.tolist() == [steps[0][0]] + [s[4] for s in steps]
        want = np.array([x0] + [s[5] for s in steps], dtype=float)
        assert traj.xs.tobytes() == want.tobytes()
        assert (traj.n_accepted, traj.n_rejected, traj.n_rhs) == (
            len(steps), n_rej, 2 + 6 * (len(steps) + n_rej))

    def test_backward_through_negative_times(self):
        # t runs from 2.5 down to -2.5: the step-size floor takes |t| for
        # t > 1 and t < -1 and 1 in between; the inlined rhs has the
        # folded coefficients 1 and -1
        qp = make_reference_problem()
        x0 = [0.3, -0.2]
        steps, n_rej = reference_dp5(
            lambda t, x: np.array(qp.rhs(t, x.tolist())), 2.5, x0, -2.5,
            1e-10)
        ts = [s[0] for s in steps]
        assert max(ts) > 1.0 and min(ts) < -1.0
        assert any(abs(t) < 1.0 for t in ts)
        assert all(s[2] < 0.0 for s in steps)
        traj = integrate(qp.rhs, 2.5, np.array(x0), -2.5, tol=1e-10)
        self.assert_reference_run(traj, x0, steps, n_rej)

    def test_rejections_reach_the_factor_floor_and_cap(self):
        # nothing moves until the forcing switches on at t = 1: error-free
        # steps grow by the capped factor 10, the step across the switch
        # has a huge error and shrinks by the floor 0.2 until it passes.
        # The start -0.0 meets the spelled abs in the error scale.
        def f(t, x):
            return np.array([0.0 if t < 1.0 else 1.0, -x[1]])

        x0 = [-0.0, 0.5]
        clamps = []
        steps, n_rej = reference_dp5(f, 0.0, x0, 3.0, 1e-9, clamps)
        assert {"cap", "floor"} <= set(clamps)
        assert n_rej >= 2
        traj = integrate(f, 0.0, np.array(x0), 3.0, tol=1e-9)
        self.assert_reference_run(traj, x0, steps, n_rej)

    def test_last_step_clipped_to_the_end(self):
        qp = make_reference_problem()
        x0 = [0.05, 0.1]
        clamps = []
        steps, n_rej = reference_dp5(
            lambda t, x: np.array(qp.rhs(t, x.tolist())), 0.0, x0, 1.3,
            1e-9, clamps)
        assert clamps[-1:] == ["clip"]
        assert steps[-1][2] == 1.3 - steps[-1][0]
        traj = integrate(qp.rhs, 0.0, np.array(x0), 1.3, tol=1e-9)
        self.assert_reference_run(traj, x0, steps, n_rej)

    @pytest.mark.parametrize("x0, t_end, t_blowup", [
        (0.5, 3.0, float.fromhex("0x1.ffffffff8b554p+0")),
        (-0.5, -3.0, -float.fromhex("0x1.ffffffff8b554p+0")),
    ], ids=["forward", "backward"])
    def test_blow_up_underflows_where_it_did(self, x0, t_end, t_blowup):
        # x' = x^2 from +-0.5 blows up at t = +-2, where the step-size
        # floor is 2e-14; t_blowup is where the loop gave up before its
        # max/min/abs were spelled out
        rhs = compile_rhs(MatrixFunction.from_strings([["x1"]], n_states=1),
                          VectorFunction.from_strings(["0"], n_states=1))
        with pytest.raises(StepSizeUnderflow) as want:
            reference_dp5(lambda t, x: np.array(rhs(t, x.tolist())), 0.0,
                          [x0], t_end, 1e-9)
        with pytest.raises(StepSizeUnderflow) as got:
            integrate(rhs, 0.0, np.array([x0]), t_end, tol=1e-9)
        assert got.value.t == want.value.t == t_blowup
        assert np.array_equal(got.value.x, want.value.x)

    def test_generic_callable_in_three_states(self):
        def f(t, x):
            return np.array([x[1], -x[0] + 0.1 * math.sin(t),
                             -0.5 * x[2] + x[0] * x[1]])

        x0 = [1.0, 0.0, 0.5]
        steps, n_rej = reference_dp5(f, 0.0, x0, 6.0, 1e-10)
        traj = integrate(f, 0.0, np.array(x0), 6.0, tol=1e-10)
        assert traj.ts.tolist() == [0.0] + [s[4] for s in steps]
        assert np.array_equal(traj.xs,
                              np.array([x0] + [s[5] for s in steps]))
        assert (traj.n_accepted, traj.n_rejected, traj.n_rhs) == (
            len(steps), n_rej, 2 + 6 * (len(steps) + n_rej))

    @pytest.mark.parametrize("terminal", [True, False])
    def test_inlined_and_opaque_levels_agree(self, terminal):
        # the region levels as marked quadratic forms (inlined, one W and
        # one V per step) and as plain callables give the same run, also
        # when the levels only record their crossings
        qp = make_reference_problem()
        inlined = [
            dataclasses.replace(ev, terminal=terminal)
            for ev in make_region_events(qp.quad_w, qp.quad_v, 0.02, -0.02,
                                         0.02, 0.15)
        ]
        assert all(ev.form is not None for ev in inlined)
        opaque = [dataclasses.replace(ev, form=None) for ev in inlined]
        a, b = (integrate(qp.rhs, 0.0, np.array([0.1, 0.05]), 6.0, tol=1e-9,
                          events=evs)
                for evs in (inlined, opaque))
        assert [(e.kind, e.t, e.x.tolist()) for e in a.events] == [
            (e.kind, e.t, e.x.tolist()) for e in b.events
        ]
        assert (len(a.events) == 1) if terminal else (len(a.events) >= 2)
        assert np.array_equal(a.ts, b.ts)
        assert np.array_equal(a.xs, b.xs)
        assert (a.status, a.n_accepted, a.n_rejected, a.n_rhs) == (
            b.status, b.n_accepted, b.n_rejected, b.n_rhs
        )


def _due(tau, step, direction):
    """Whether ``tau`` falls due in the reference step ``step``: the step
    loop's rule, at most the step-size floor past its end."""
    end = step[4]
    return (tau - end) * direction <= 1e-14 * max(1.0, abs(end))


def _kept_row(step):
    t, x, hs, ks = step[:4]
    return [t, hs, *x.tolist(), *np.concatenate(ks).tolist()]


# entries of small systems: a constant, a periodic term in t, and a small
# state term; a switch whose exp overflows for t > 17.75 makes the
# generated code trip there, and each step beyond is retaken interpreted
_COEF = st.sampled_from([-1.5, -0.6, -0.25, 0.3, 0.8, 1.2])
_ENTRY = st.one_of(
    _COEF.map(repr),
    st.tuples(_COEF, st.sampled_from([0.5, 1.3, 2.0])).map(
        lambda cw: f"{cw[0]}*sin({cw[1]}*t)"),
    _COEF.map(lambda c: f"{c / 8}*x1"),
)
_SWITCH = "1/(1 + exp(40*t))"


class TestStepLoopProperty:
    """The generated step loop against :func:`reference_dp5` on drawn
    small systems: the accepted steps, the steps a window keeps and the
    stacked samples, bit for bit."""

    @settings(max_examples=12)
    @given(
        n=st.sampled_from([1, 2]),
        entries=st.lists(_ENTRY, min_size=6, max_size=6),
        x0=st.lists(st.sampled_from([-0.4, -0.1, 0.0, 0.2, 0.5]),
                    min_size=2, max_size=2),
        span=st.sampled_from([1.5, -2.0, 3.0]),
        tol=st.sampled_from([1e-6, 1e-8, 1e-10]),
        window=st.tuples(st.floats(0.05, 0.95), st.floats(0.0, 0.5)),
        switch=st.booleans(),
    )
    @example(n=2, entries=["-0.6", "0.3*sin(1.3*t)", "0.3", "-1.5",
                           "0.1*x1", "0.8"],
             x0=[0.2, -0.1], span=3.5, tol=1e-8, window=(0.3, 0.6),
             switch=True)
    def test_steps_kept_stages_and_samples(self, n, entries, x0, span, tol,
                                           window, switch):
        a = [entries[i * n:(i + 1) * n] for i in range(n)]
        if switch:  # the run crosses t = 17.75
            a[0][0] = f"{a[0][0]} + {_SWITCH}"
        rhs = compile_rhs(MatrixFunction.from_strings(a, n_states=n),
                          VectorFunction.from_strings(entries[4:4 + n],
                                                      n_states=n))
        t0 = (17.0 if span > 0.0 else 18.5) if switch else 0.0
        t_end, x0 = t0 + span, x0[:n]
        direction = math.copysign(1.0, span)
        retaken = []
        stepper = ode.compile_stepper

        def spy(*key):
            advance = stepper(*key)

            def fast(*args):
                return advance(*args)

            def slow(*args):
                retaken.append(args[0][0])
                return advance.slow(*args)

            fast.slow = slow
            return fast

        steps, n_rej = reference_dp5(
            lambda t, x: np.array(rhs(t, x.tolist())), t0, x0, t_end, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ode, "compile_stepper", spy)
            TestStepLoop.assert_reference_run(
                integrate(rhs, t0, np.array(x0), t_end, tol=tol), x0, steps,
                n_rej)
        assert bool(retaken) == switch
        if switch and span > 0.0:  # the steps up to the switch ran generated
            assert t0 < min(retaken) < 17.75

        # a window keeps the steps from the first its start falls due in
        # to the first its end falls due in
        lo = t0 + span * window[0]
        hi = lo + (t_end - lo) * window[1]
        run = integrate(rhs, t0, np.array(x0), t_end, tol=tol,
                        keep=[(lo, hi)])
        first = next(i for i, s in enumerate(steps) if _due(lo, s, direction))
        last = next(i for i, s in enumerate(steps) if _due(hi, s, direction))
        want = np.array([_kept_row(s) for s in steps[first:last + 1]])
        assert np.array(run.steps).tobytes() == want.tobytes()

        # samples: each on the dense output of the step it falls due in,
        # as _dense_output gives it, through integrate and dense_at alike
        taus = (t0 + span * np.linspace(0.01, 0.99, 23)).tolist()
        dense = [
            _dense_output(s[0], s[1].tolist(), s[2],
                          [k.tolist() for k in s[3]])(tau)
            for tau in taus
            for s in [next(s for s in steps if _due(tau, s, direction))]
        ]
        traj = sampled(rhs, t0, np.array(x0), t_end, taus, tol=tol)
        assert traj.ts.tolist() == [t0, *taus, t_end]
        assert traj.xs.tobytes() == np.array(
            [x0, *dense, steps[-1][5]]).tobytes()
        inside = [i for i, tau in enumerate(taus)
                  if (tau - lo) * direction >= 0.0
                  and (hi - tau) * direction >= 0.0]
        assert dense_at(run.steps, [taus[i] for i in inside]).tobytes() == (
            np.array([dense[i] for i in inside]).reshape(-1, n).tobytes())


class TestDenseAt:
    def test_bits_of_the_per_step_dense_output(self):
        # dense_at on the steps a run kept gives _dense_output's bits at
        # many times, including times just past a step's end, which fall
        # in that step as the step loop let a sample fall due there
        qp = make_reference_problem()
        run = integrate(qp.rhs, 0.0, np.array([0.05, 0.1]), 4.0, tol=1e-9,
                        keep=[(0.0, 4.0)])
        steps = run.steps
        n = 2
        ends = steps[:, 0] + steps[:, 1]
        rng = np.random.default_rng(3)
        taus = np.sort(rng.uniform(0.0, ends[-1], 4000))
        past = ends[:-1] + 0.5e-14 * np.maximum(1.0, ends[:-1])
        taus = np.sort(np.concatenate([taus, past]))
        got = dense_at(steps, taus)
        assert got.shape == (taus.size, n)
        rows = np.searchsorted(ends, taus)
        rows[np.isin(taus, past)] -= 1
        want = [
            _dense_output(steps[i, 0], steps[i, 2:2 + n].tolist(),
                          steps[i, 1],
                          steps[i, 2 + n:].reshape(7, n).tolist())(tau)
            for i, tau in zip(rows.tolist(), taus.tolist())
        ]
        assert got.tobytes() == np.array(want).tobytes()
        # steps that end before the last times cover only the first ones
        assert dense_at(steps[:10], taus).shape == (
            np.count_nonzero(taus <= past[9]), n)
        # a step from x = 0 with hs = 1 shows the powers of theta bare
        stages = rng.standard_normal((7, n))
        row = np.concatenate([[0.0, 1.0, 0.0, 0.0], stages.ravel()])
        thetas = rng.uniform(0.0, 1.0, 2000)
        bare = _dense_output(0.0, [0.0, 0.0], 1.0, stages.tolist())
        assert dense_at(row[None, :], thetas).tobytes() == np.array(
            [bare(th) for th in thetas.tolist()]).tobytes()


class TestBlowUp:
    def test_step_underflow_reports_location(self):
        # x' = x^2 from 1 blows up at t = 1
        with pytest.raises(StepSizeUnderflow) as info:
            integrate(lambda t, x: x**2, 0.0, np.array([1.0]), 2.0, tol=1e-9)
        assert info.value.t == pytest.approx(1.0, abs=1e-3)


class TestFloatKernel:
    """The step loop runs on Python floats for every rhs; a compiled one
    is inlined into it, an ndarray one adapted at the top of integrate."""

    def test_compiled_and_array_rhs_give_identical_runs(self):
        qp = make_reference_problem()
        assert qp.rhs.float_lists

        def array_rhs(t, x):
            return np.array(qp.rhs(t, x))

        events = make_region_events(qp.quad_w, qp.quad_v, 0.02, -0.02,
                                    0.02, 0.15)
        x0 = np.array([0.05, 0.1])
        runs = {}
        for name, kwargs in (
            ("events", {"events": events}),
            ("samples", {"nodes": False, "keep": [(0.2, 3.8)]}),
        ):
            a, b = (integrate(f, 0.0, x0, 4.0, tol=1e-9, **kwargs)
                    for f in (qp.rhs, array_rhs))
            runs[name] = a
            assert np.array_equal(a.ts, b.ts)
            assert np.array_equal(a.xs, b.xs)
            assert np.array_equal(a.steps, b.steps)
            assert [(e.kind, e.t, e.x.tolist()) for e in a.events] == [
                (e.kind, e.t, e.x.tolist()) for e in b.events
            ]
            assert (a.status, a.n_accepted, a.n_rejected, a.n_rhs) == (
                b.status, b.n_accepted, b.n_rejected, b.n_rhs
            )
        assert runs["events"].status == "event:W_hits_wplus"
        assert runs["samples"].ts.size == 2
        assert dense_at(runs["samples"].steps,
                        np.linspace(0.2, 3.8, 19)).shape == (19, 2)

    def test_compiled_domain_error_reaches_caller(self):
        # x' = x ln x - 1 from 0.5 reaches x = 0 before t = 1
        rhs = compile_rhs(
            MatrixFunction.from_strings([["ln(x1)"]], n_states=1),
            VectorFunction.from_strings(["-1"], n_states=1),
        )
        with pytest.raises(DomainError, match="ln of nonpositive value") as info:
            integrate(rhs, 0.0, np.array([0.5]), 2.0, tol=1e-9)
        assert info.value.where == "ln(x1)"

    @pytest.mark.parametrize("rhs, x0", [
        # the stage values turn nan past x = 2
        (lambda t, x: np.array([x[0] if x[0] < 2.0 else math.nan]), 1.0),
        # the new state overflows to inf while the error estimate stays
        # finite (its weights sum to zero on a constant field)
        (lambda t, x: np.array([1e307]), 1.7e308),
    ], ids=["nan_stage", "overflowing_state"])
    def test_non_finite_step_is_rejected(self, rhs, x0):
        with pytest.raises(StepSizeUnderflow) as info:
            integrate(rhs, 0.0, np.array([x0]), 10.0, tol=1e-9,
                      nodes=False, keep=[(0.1, 9.9)])
        assert np.all(np.isfinite(info.value.x))
        assert info.value.t < 2.0


class TestCsvAndCurves:
    def test_trajectory_csv_layout(self, tmp_path):
        qp = make_reference_problem()
        ev = EventSpec("across", lambda t, x: qp.quad_w(t, x) - 0.01,
                       terminal=False)
        traj = sampled(qp.rhs, 0.0, np.array([0.05, 0.1]), 2.0,
                       np.linspace(0.2, 1.8, 9).tolist(), tol=1e-9,
                       events=[ev])
        path = tmp_path / "traj.csv"
        v = [qp.quad_v(t, x) for t, x in zip(traj.ts.tolist(),
                                             traj.xs.tolist())]
        w = [qp.quad_w(t, x) for t, x in zip(traj.ts.tolist(),
                                             traj.xs.tolist())]
        write_trajectory_csv(path, traj, v, w)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,V,W"
        data = lines[1:]
        assert len(data) == traj.ts.size
        first = data[0].split(",")
        assert len(first) == 5
        assert float(first[0]) == 0.0
        # V column really is <B x, x> at the node
        assert float(first[3]) == pytest.approx(
            qp.quad_v(0.0, traj.xs[0]), rel=1e-15
        )
        # the run's events are not written: no line is a comment
        assert traj.events
        assert not [ln for ln in lines if ln.startswith("#")]

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_csv_rows_are_the_per_value_format(self, tmp_path, n):
        # every row equals f"{v:.17g}" per value, as the writer gave when
        # it formatted value by value, including signed zeros, subnormals
        # and the ends of the range
        special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0 / 3.0,
                   -123456.789, 2.0**-1074 * 3]
        m = len(special)
        ts = np.array(special[::-1])
        xs = np.array([[special[(i + k) % m] for k in range(n)]
                       for i in range(m)])
        traj = Trajectory(ts=ts, xs=xs, events=[])

        def quad_v(t, x):
            return -x[0]

        def quad_w(t, x):
            return t * 2.0

        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, [quad_v(float(t), x) for t, x in
                                          zip(traj.ts, traj.xs)],
                             [quad_w(float(t), x) for t, x in
                              zip(traj.ts, traj.xs)])
        old = [f"t,{','.join(f'x{i + 1}' for i in range(n))},V,W"]
        for t, x in zip(traj.ts, traj.xs):
            row = ",".join(f"{val:.17g}" for val in x)
            v, w = quad_v(float(t), x), quad_w(float(t), x)
            old.append(f"{t:.17g},{row},{v:.17g},{w:.17g}")
        assert path.read_bytes() == ("\n".join(old) + "\n").encode()
        assert "-0," in path.read_text() and "4.9406564584124654e-324" \
            in path.read_text()

    def test_vw_derivatives_match_finite_differences(self):
        qp = make_reference_problem()
        dt = 1e-6
        t_mid = np.linspace(-1.0, 1.0, 21)
        samples = np.sort(np.concatenate([t_mid - dt, t_mid, t_mid + dt]))
        traj = sampled(qp.rhs, -1.0 - 1e-3, np.array([-0.04, 0.06]),
                       1.0 + 1e-3, samples.tolist(), tol=1e-12)
        curves = eval_v_w_along(qp, traj)
        ts = curves.ts
        for i, t in enumerate(ts):
            if not np.any(np.abs(t_mid - t) < 1e-12):
                continue
            lo = np.argmin(np.abs(ts - (t - dt)))
            hi = np.argmin(np.abs(ts - (t + dt)))
            fd_v = (curves.v[hi] - curves.v[lo]) / (ts[hi] - ts[lo])
            fd_w = (curves.w[hi] - curves.w[lo]) / (ts[hi] - ts[lo])
            assert curves.v_dot[i] == pytest.approx(fd_v, abs=5e-6)
            assert curves.w_dot[i] == pytest.approx(fd_w, abs=5e-6)

    def test_clock_rate_nan_below_threshold(self):
        qp = make_reference_problem()
        from vwbound.quadratic import certify

        cert = certify(qp)
        traj = sampled(qp.rhs, 0.0, np.array([-0.05, 0.05]), 2.0,
                       np.linspace(0.2, 1.8, 17).tolist(), tol=1e-9)
        curves = eval_v_w_along(qp, traj, gp=cert.growth_pair())
        # the trapped solution stays below v0 = 0.02, so no clock runs
        assert np.all(curves.v < 0.021)
        assert np.all(np.isnan(curves.f_dot))


def eval_v_w_per_node(qp, traj, gp=None):
    """The per-node loop :func:`eval_v_w_along` replaced, kept as its
    oracle: V, W, V', W' and the clock rate, one node at a time."""
    m = traj.ts.size
    v, w, v_dot, w_dot = (np.empty(m) for _ in range(4))
    for i in range(m):
        t = float(traj.ts[i])
        x = traj.xs[i]
        bmat = qp.b.eval(t, x)
        cmat = qp.c.eval(t, x)
        f = np.array(qp.rhs(t, x))
        v[i] = float(x @ bmat @ x)
        w[i] = float(x @ cmat @ x)
        v_dot[i] = float(x @ qp.b_dot.eval(t, x) @ x + 2.0 * (bmat @ x) @ f)
        w_dot[i] = float(x @ qp.c_dot.eval(t, x) @ x + 2.0 * (cmat @ x) @ f)
    f_dot = None
    if gp is not None:
        f_dot = np.full(m, np.nan)
        for i in np.nonzero(v >= gp.v0)[0]:
            f_dot[i] = gp.ratio(v[i]) * v_dot[i]
    return v, w, v_dot, w_dot, f_dot


class TestStackedCurves:
    @pytest.fixture(scope="class")
    def moving_problem(self):
        # time-dependent B and C, state-dependent A
        return make_reference_problem(
            a=MatrixFunction.from_strings(
                [["1 + 0.5*x1*x2", "0.1*t"], ["0", "-1"]], n_states=2),
            b=MatrixFunction.from_strings(
                [["1 + 0.2*sin(t)", "0.1*cos(t)"], ["0.1*cos(t)", "1"]],
                n_states=2, symmetric=True),
            c=MatrixFunction.from_strings(
                [["1 + 0.3*sin(0.5*t)", "0.2"], ["0.2", "-1 - 0.1*t^2"]],
                n_states=2, symmetric=True),
        )

    @pytest.mark.parametrize("with_clock", [False, True])
    def test_equals_the_per_node_loop(self, moving_problem, with_clock):
        qp = moving_problem
        traj = sampled(qp.rhs, -2.0, np.array([0.15, -0.1]), 2.0,
                       np.linspace(-1.9, 1.9, 77).tolist(), tol=1e-9)
        gp = None
        if with_clock:
            # the threshold splits the nodes, so f_dot is nan below it
            v0 = float(np.median(eval_v_w_per_node(qp, traj)[0]))
            gp = GrowthPair(sigma=0.5, c1=0.1, c2=0.05, c3=2.0, v0=v0)
        curves = eval_v_w_along(qp, traj, gp)
        want = eval_v_w_per_node(qp, traj, gp)
        got = (curves.v, curves.w, curves.v_dot, curves.w_dot, curves.f_dot)
        for name, a, b in zip(("v", "w", "v_dot", "w_dot", "f_dot"), got,
                              want):
            if b is None:
                assert a is None, name
                continue
            # equal bits, nan included
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
        if with_clock:
            assert 0 < np.count_nonzero(np.isnan(curves.f_dot)) < traj.ts.size
        assert np.array_equal(curves.ts, traj.ts)


class TestExitRow:
    """A run given an ``exit_row`` reads the sign of its exit coordinate
    without locating the exit, when its last step cannot change it."""

    @pytest.mark.parametrize("slope, expected", [
        (-0.1, 1.0), (0.4, 1.0), (-2.0, None), (math.nan, None),
    ])
    def test_sign_bound(self, slope, expected):
        # u = x along a straight step of derivative `slope` from u(0) = 1:
        # u(1) = 1 + slope keeps its sign only for slope > -1, and the
        # bound asks for a margin of twice the drift
        stages = [[slope]] * 7
        assert _row_sign(([1.0], [1.0]), [1.0], 1.0, stages) == expected

    def test_sign_read_where_the_step_cannot_move_it(self):
        qp = make_reference_problem()
        events = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus,
                                    qp.w_minus, 0.02, 0.15)
        args = (qp.rhs, -5.0, [0.01, 0.0], 20.0)
        located = integrate(*args, tol=1e-8, events=events, nodes=False)
        lean = integrate(*args, tol=1e-8, events=events, nodes=False,
                         exit_row=([1.0, 0.0], [1.0, 0.0]))
        assert located.status == lean.status == "event:W_hits_wplus"
        assert located.side is None and lean.side == 1.0
        assert lean.events == [] and len(located.events) == 1
        # the unlocated run ends at the end of the step the exit is in
        assert lean.t_end > located.t_end
        assert (lean.n_accepted, lean.n_rejected, lean.n_rhs) == (
            located.n_accepted, located.n_rejected, located.n_rhs)

    def test_runs_with_nodes_end_at_the_step(self):
        # a run that records its steps reads the sign as well, and the
        # step it ends in is its last node, once
        qp = make_reference_problem()
        events = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus,
                                    qp.w_minus, 0.02, 0.15)
        args = (qp.rhs, -5.0, [0.01, 0.0], 20.0)
        lean = integrate(*args, tol=1e-8, events=events, nodes=False,
                         exit_row=([1.0, 0.0], [1.0, 0.0]))
        traj = integrate(*args, tol=1e-8, events=events,
                         exit_row=([1.0, 0.0], [1.0, 0.0]))
        assert traj.side == lean.side == 1.0 and traj.events == []
        assert traj.ts.size == traj.n_accepted + 1
        assert traj.ts[-1] == lean.t_end and np.all(np.diff(traj.ts) > 0.0)
        assert traj.xs[-1].tobytes() == lean.x_end.tobytes()
