"""Shooting stage: entry-disk charts, start classification, the bisection
for a trapped start, trajectory assembly and the final bound check.
"""

import dataclasses
import math
import os
import pathlib
import signal

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (
    EPS_REF,
    make_reference_problem,
    reference_solution,
    rotated_saddle,
)
from vwbound.errors import (
    BudgetExhausted,
    EmptyPositiveSubspace,
    NoSignChange,
    NotConverged,
    RungWorkerLost,
    StepSizeUnderflow,
)
from vwbound.expr import MatrixFunction, VectorFunction, compile_stepper
from vwbound.growth import growth_integral_inv
from vwbound.ode import (
    dense_at,
    eval_v_w_along,
    integrate,
    make_region_events,
    write_trajectory_csv,
)
from vwbound.problemdoc import load_problem_document
from vwbound import shooting
from vwbound.quadratic import (
    QuadraticProblem,
    certify,
    sample_region_states,
)
from vwbound.shooting import (
    ShootingConfig,
    bounded_solution,
    classify_start,
    find_trapped_start,
    make_disk_chart,
    verify_bound,
    write_xi_csv,
)


# a forcing of the reference problem strong enough to move its bounded
# solution off the disk at t = -5: both disk ends exit on one side
STRONG_FORCING = VectorFunction.from_strings(["0.3*sin(t)", "0.3*cos(t)"],
                                             n_states=2)
SAME_SIDE_MESSAGE = ("both bracket ends [-0.141421, 0.141421] exit with "
                     "chart side +1 at t_j = -5")
# the reference problem's state-dependent variant (the nonlinear demo's A)
NONLINEAR_A = MatrixFunction.from_strings(
    [["1 + 0.5*x1*x2", "0"], ["0", "-1"]], n_states=2)


def particular_x1(t):
    # first component of the trapped solution: -eps/2 (sin t + cos t)
    return -0.5 * EPS_REF * (math.sin(t) + math.cos(t))


def make_3d_problem(force=0.0):
    n = 3
    return QuadraticProblem(
        a=MatrixFunction.constant(np.diag([1.0, 1.0, -1.0]), n_states=n),
        f0=VectorFunction.from_strings(
            [f"{force}*sin(t)", f"{force}*cos(t)", f"{force}*sin(t)"],
            n_states=n,
        ),
        b=MatrixFunction.constant(np.eye(n), n_states=n, symmetric=True),
        c=MatrixFunction.constant(np.diag([1.0, 1.0, -1.0]), n_states=n,
                                  symmetric=True),
        window=(-10.0, 10.0), v0=0.02, w_minus=-0.02, w_plus=0.02,
        v_star=0.15,
    )


class TestDiskChart:
    def test_reference_chart(self, reference_problem):
        chart = make_disk_chart(reference_problem, -5.0)
        assert chart.n_plus == 1
        assert chart.radius == pytest.approx(math.sqrt(0.02))
        assert np.abs(chart.basis[:, 0]) == pytest.approx([1.0, 0.0])

    def test_scaled_chart_is_c_orthonormal(self):
        qp = QuadraticProblem(
            a=MatrixFunction.constant(np.diag([1.0, -1.0]), n_states=2),
            f0=VectorFunction.zero(2, n_states=2),
            b=MatrixFunction.constant(np.eye(2), n_states=2, symmetric=True),
            c=MatrixFunction.constant(np.diag([4.0, -1.0]), n_states=2,
                                      symmetric=True),
            window=(-2.0, 2.0), v0=0.02, w_minus=-0.02, w_plus=0.02,
        )
        chart = make_disk_chart(qp, 0.0)
        # e1 = v1 / sqrt(lambda1) has length 1/2 and <C e1, e1> = 1
        assert np.abs(chart.basis[:, 0]) == pytest.approx([0.5, 0.0])
        e1 = chart.basis[:, 0]
        assert e1 @ np.diag([4.0, -1.0]) @ e1 == pytest.approx(1.0)

    def test_chart_identities_random(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            r = rng.standard_normal((3, 3))
            c = r + r.T + np.diag([3.0, 3.0, -4.0])
            sig = np.linalg.eigvalsh(c)
            if sig[0] >= 0 or sig[-1] <= 0:
                continue
            qp = QuadraticProblem(
                a=MatrixFunction.constant(np.eye(3), n_states=3),
                f0=VectorFunction.zero(3, n_states=3),
                b=MatrixFunction.constant(np.eye(3), n_states=3,
                                          symmetric=True),
                c=MatrixFunction.constant(c, n_states=3, symmetric=True),
                window=(-2.0, 2.0), v0=0.02, w_minus=-0.02, w_plus=0.02,
            )
            chart = make_disk_chart(qp, 0.3)
            u = rng.standard_normal(chart.n_plus)
            x = chart.point(u)
            assert float(x @ c @ x) == pytest.approx(
                float(u @ u), abs=1e-9
            )
            assert chart.coords(x) == pytest.approx(u, abs=1e-9)

    def test_sign_alignment(self, reference_problem):
        base = make_disk_chart(reference_problem, -5.0)
        other = make_disk_chart(reference_problem, -4.9, align_to=base)
        assert float(base.basis[:, 0] @ other.basis[:, 0]) > 0.0

    def test_no_positive_subspace(self):
        qp = QuadraticProblem(
            a=MatrixFunction.constant(np.diag([1.0, -1.0]), n_states=2),
            f0=VectorFunction.zero(2, n_states=2),
            b=MatrixFunction.constant(np.eye(2), n_states=2, symmetric=True),
            c=MatrixFunction.constant(np.diag([-1.0, -2.0]), n_states=2,
                                      symmetric=True),
            window=(-2.0, 2.0), v0=0.02, w_minus=-0.02, w_plus=0.02,
        )
        with pytest.raises(EmptyPositiveSubspace):
            make_disk_chart(qp, 0.0)


def _classify(qp, chart, u, horizon):
    """An integrated probe with the region levels at v0 = 0.02, V* = 0.15,
    its exit located."""
    events = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus, qp.w_minus,
                                0.02, 0.15)
    return classify_start(qp, chart.t, chart.point(u), horizon, 1e-8, events,
                          None)


class TestClassifyStart:
    def test_center_exit_matches_closed_form(self, reference_problem):
        chart = make_disk_chart(reference_problem, -5.0)
        res = _classify(reference_problem, chart, np.array([0.0]), 20.0)
        assert not res.is_stayed
        assert res.kind == "W_hits_wplus"

        # closed form from x(-5) = (0, 0): the homogeneous parts are
        # -p1(-5) e^(t+5) and -p2(-5) e^-(t+5) on top of the particular
        # oscillation; find where W = x1^2 - x2^2 crosses w_plus
        def w_gap(t):
            p1 = particular_x1
            p2 = lambda s: -particular_x1(s)
            x1 = (0.0 - p1(-5.0)) * math.exp(t + 5.0) + p1(t)
            x2 = (0.0 - p2(-5.0)) * math.exp(-(t + 5.0)) + p2(t)
            return x1 * x1 - x2 * x2 - 0.02

        t_exact = brentq(w_gap, -5.0, 0.0, xtol=1e-12)
        assert res.t == pytest.approx(t_exact, abs=1e-6)

    def test_watches_only_the_exit_levels(self, reference_problem):
        # the orbit from the centre passes V = v0 on its way out (W = w+
        # forces V >= w+ = v0), but only the exit itself is located
        chart = make_disk_chart(reference_problem, -5.0)
        res = _classify(reference_problem, chart, np.array([0.0]), 20.0)
        assert [ev.kind for ev in res.traj.events] == ["W_hits_wplus"]

    @pytest.mark.parametrize("u, horizon", [
        (0.0, 20.0), (particular_x1(-5.0), 10.0),
    ], ids=["exits", "stays"])
    def test_lean_probe_ends_as_a_recorded_run(self, reference_problem, u,
                                               horizon):
        # the probe keeps no per-step nodes, only the start and the end
        # or exit node, and otherwise ends exactly as a recorded run
        qp = reference_problem
        chart = make_disk_chart(qp, -5.0)
        res = _classify(qp, chart, np.array([u]), horizon)
        full = integrate(qp.rhs, -5.0, chart.point([u]), horizon, tol=1e-8,
                         events=make_region_events(qp.quad_w, qp.quad_v,
                                                   qp.w_plus, qp.w_minus,
                                                   0.02, 0.15))
        lean = res.traj
        assert full.ts.size > 10
        assert lean.ts.tolist() == [-5.0, full.t_end if not res.is_stayed
                                    else horizon]
        assert np.array_equal(lean.xs, full.xs[[0, -1]])
        assert [(e.kind, e.t, e.x.tolist()) for e in lean.events] == [
            (e.kind, e.t, e.x.tolist()) for e in full.events]
        assert (lean.status, lean.n_accepted, lean.n_rejected, lean.n_rhs) \
            == (full.status, full.n_accepted, full.n_rejected, full.n_rhs)
        if not res.is_stayed:
            assert (res.t, res.kind) == (full.t_end, "W_hits_wplus")
            assert np.array_equal(res.x, full.x_end)

    def test_boundary_start_exits_immediately(self, reference_problem):
        chart = make_disk_chart(reference_problem, -5.0)
        res = _classify(reference_problem, chart, np.array([chart.radius]),
                        20.0)
        assert not res.is_stayed
        assert res.t == -5.0

    def test_trapped_center_stays(self, reference_problem):
        chart = make_disk_chart(reference_problem, -5.0)
        u_star = particular_x1(-5.0)
        res = _classify(reference_problem, chart, np.array([u_star]), 10.0)
        assert res.is_stayed


class TestTrappedStart:
    def test_bisection_hits_closed_form(self, reference_problem):
        got = find_trapped_start(reference_problem, -5.0, 0.02, 0.15)
        u_star = particular_x1(-5.0)
        assert got.u == pytest.approx(u_star, abs=5e-9)
        assert got.bracket_width <= 1e-14
        # both sides of u* blow up through x1, so both exits are W = w+;
        # the bisection separates them by the sign of x1 at exit
        assert got.exit_kinds == ("W_hits_wplus",)

    def test_same_side_disk_refused(self, monkeypatch):
        # a forcing strong enough to move the bounded solution off the
        # disk: the horizon root lies off it, so it seeds no cell, and the
        # disk's two ends are probed, exit on one side, and are refused
        qp = make_reference_problem(f0=STRONG_FORCING)
        chart = make_disk_chart(qp, -5.0)
        seen = _probed(monkeypatch)
        with pytest.raises(NoSignChange) as info:
            find_trapped_start(qp, -5.0, 0.02, 0.15)
        assert info.value.side == 1.0
        assert str(info.value) == SAME_SIDE_MESSAGE
        assert sorted(seen) == [-chart.radius, chart.radius]
        assert all(shooting._exit_side(qp, chart, res) > 0.0
                   for res in seen.values())

    @pytest.mark.parametrize("keep", [(), [(7.0, 12.0)]])
    def test_same_side_disk_refused_integrated(self, monkeypatch, keep):
        # the same refusal on the integrated path, with and without the
        # windows that let the bisection restart on chords
        qp = make_reference_problem(f0=STRONG_FORCING, a=NONLINEAR_A)
        chart = make_disk_chart(qp, -5.0)
        classify = shooting.classify_start
        seen = []

        def spy(qp, t0, x0, *args):
            res = classify(qp, t0, x0, *args)
            seen.append((t0, chart.coords(x0)[0], res))
            return res

        monkeypatch.setattr(shooting, "classify_start", spy)
        with pytest.raises(NoSignChange) as info:
            find_trapped_start(qp, -5.0, 0.02, 0.15, keep=keep)
        assert info.value.side == 1.0
        assert str(info.value) == SAME_SIDE_MESSAGE
        assert [(t0, u) for t0, u, _ in seen] == [
            (-5.0, pytest.approx(-chart.radius, rel=1e-15)),
            (-5.0, pytest.approx(chart.radius, rel=1e-15))]
        assert all(shooting._exit_side(qp, chart, res) > 0.0
                   for _, _, res in seen)

    def test_multidim_disk_origin_trapped(self):
        qp = make_3d_problem(force=0.0)
        cfg = ShootingConfig(horizon_span=8.0)
        got = find_trapped_start(qp, -5.0, 0.02, 0.15, config=cfg)
        assert got.stayed
        assert got.u == pytest.approx(np.zeros(2), abs=1e-12)

    def test_multidim_budget_exhausted(self, monkeypatch):
        qp = make_3d_problem(force=0.1)
        cfg = ShootingConfig(horizon_span=8.0)
        monkeypatch.setattr(shooting, "BUDGET", 5)
        with pytest.raises(BudgetExhausted) as info:
            find_trapped_start(qp, -5.0, 0.02, 0.15, config=cfg)
        assert "does not disprove existence" in str(info.value)


DEMOS = pathlib.Path(__file__).parents[1] / "demos"


# the nonlinear demo with a state-dependent stable mode as well
BOTH_MODES = ('A.2.2 = "-1"', 'A.2.2 = "-1 - 0.5*x1*x2"')


def _state_dependent_doc(name, tmp_path):
    """``demos/nonlinear.problem``, or with both modes state-dependent."""
    text = (DEMOS / "nonlinear.problem").read_text()
    if name == "both-modes":
        assert text.count(BOTH_MODES[0]) == 1
        text = text.replace(*BOTH_MODES)
    path = tmp_path / f"{name}.problem"
    path.write_text(text)
    return load_problem_document(str(path))


class TestLeanProbe:
    """On a one-dimensional disk whose C does not depend on t, a probe
    reads the side of its exit without locating it whenever its last
    step cannot change that side; it must be the side location gives.
    A state-free A takes the closed-form probes instead (see
    :class:`TestClosedFormProbe`), so these run on a state-dependent A."""

    @pytest.mark.parametrize("demo", ["nonlinear", "both-modes"])
    def test_unlocated_sides_are_the_located_ones(self, monkeypatch, demo,
                                                  tmp_path):
        doc = _state_dependent_doc(demo, tmp_path)
        qp = doc.to_problem()
        cert = certify(qp)
        classify = shooting.classify_start
        counts = {"unlocated": 0, "located": 0, "stayed": 0}
        # C does not depend on t: the chart at any time is the disk's
        chart = make_disk_chart(qp, 0.0)

        def spy(qp, t0, x0, horizon, tol, events, exit_row, keep):
            res = classify(qp, t0, x0, horizon, tol, events, exit_row, keep)
            if res.is_stayed:
                counts["stayed"] += 1
                return res
            if res.side is None:
                counts["located"] += 1
                return res
            counts["unlocated"] += 1
            ref = classify(qp, t0, x0, horizon, tol, events, None)
            assert ref.side is None
            assert ref.kind == res.kind
            # the bisection reads only the sign of the side
            assert math.copysign(1.0, shooting._exit_side(qp, chart, ref)) \
                == res.side
            assert res.t >= ref.t
            return res

        _affinity(monkeypatch, 1)
        monkeypatch.setattr(shooting, "classify_start", spy)
        bounded_solution(qp, cert, ShootingConfig(integrator_tol=doc.tol))
        # the boundary starts at +-radius exit before any step, located
        assert counts["located"] == 2 * 14
        assert counts["unlocated"] > 20 * counts["located"]

    def test_coordinate_near_zero_is_located(self):
        # x1 (the chart coordinate) stays 0 while x2 grows, so the orbit
        # leaves through W = w- with u+ = 0 all along: the sign bound
        # cannot hold, and the probe locates its exit
        qp = make_reference_problem(
            a=MatrixFunction.from_strings([["-1", "0"], ["0", "1"]],
                                          n_states=2),
            f0=VectorFunction.from_strings(["0", "0.1"], n_states=2),
        )
        chart = make_disk_chart(qp, -5.0)
        events = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus,
                                    qp.w_minus, 0.02, 0.15)
        lean = classify_start(qp, chart.t, chart.point([0.0]), 20.0, 1e-8,
                              events, shooting._exit_row(qp, chart))
        plain = classify_start(qp, chart.t, chart.point([0.0]), 20.0, 1e-8,
                               events, None)
        assert lean.kind == plain.kind == "W_hits_wminus"
        assert lean.side is None and lean.x[0] == 0.0
        assert (lean.t, lean.x.tolist()) == (plain.t, plain.x.tolist())

    def test_t_dependent_c_locates_every_exit(self, monkeypatch):
        qp = make_reference_problem(
            a=MatrixFunction.from_strings(
                [["1 + 0.5*x1*x2", "0"], ["0", "-1"]], n_states=2),
            c=MatrixFunction.from_strings(
                [["1 + 0.2*sin(0.3*t)", "0"], ["0", "-1"]], n_states=2,
                symmetric=True,
            ),
        )
        assert shooting._exit_row(qp, make_disk_chart(qp, -5.0)) is None
        classify = shooting.classify_start
        sides = []

        def spy(*args, **kwargs):
            res = classify(*args, **kwargs)
            sides.append(None if res.is_stayed else res.side)
            return res

        monkeypatch.setattr(shooting, "classify_start", spy)
        got = find_trapped_start(qp, -5.0, 0.02, 0.15)
        assert len(sides) == got.iterations and set(sides) == {None}
        # the start the located search finds, pinned when this test moved
        # to a state-dependent A (the code before the closed-form probes
        # found the same); read from t_j on, it restarts no probe
        assert (got.u[0].hex(), got.iterations, got.bracket_width.hex(),
                got.stayed, got.exit_kinds, got.steps_accepted,
                got.steps_rejected) == (
            "-0x1.c73b0f9014473p-5", 53, "0x1.2000000000000p-53", False,
            ("W_hits_wplus",), 6461, 0)
        assert got.t0 == -5.0
        # read from a claim on, the probes restart on chords, and every
        # exit is still located
        sides.clear()
        later = find_trapped_start(qp, -5.0, 0.02, 0.15, keep=[(7.0, 12.0)])
        assert len(sides) == later.iterations and set(sides) == {None}
        assert -5.0 < later.t0 <= 7.0
        assert later.steps_accepted < 0.8 * got.steps_accepted


def _closed_form_problem(name, tmp_path):
    """A problem whose probes on a one-dimensional disk are closed-form."""
    if name == "saddle":
        path = DEMOS / "saddle.problem"
    elif name == "t-dependent-c":
        return make_reference_problem(c=MatrixFunction.from_strings(
            [["1 + 0.2*sin(0.3*t)", "0"], ["0", "-1"]], n_states=2,
            symmetric=True))
    else:
        path = tmp_path / "rotated.problem"
        path.write_text(rotated_saddle(3, seed=1)[0])
    return load_problem_document(str(path)).to_problem()


class TestClosedFormProbe:
    """With A free of the state, a probe on a one-dimensional disk reads
    its orbit off one run of the pair system (shooting._PairOrbits).  More
    than 1e-6 from the root, where rounding cannot flip what a probe sees,
    it must see what an integrated probe sees: on a grid over the disk,
    and at distances ``r 2^-k`` either side of the root."""

    @pytest.mark.parametrize("name", ["saddle", "t-dependent-c",
                                      "rotated-3"])
    def test_sides_and_kinds_are_the_integrated_ones(self, tmp_path, name):
        qp = _closed_form_problem(name, tmp_path)
        t, v0, v_star = -5.0, 0.02, 0.15
        start = find_trapped_start(qp, t, v0, v_star)
        assert start.closed_form and start.chart.n_plus == 1
        chart = start.chart
        horizon = t + ShootingConfig().horizon_span
        events = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus,
                                    qp.w_minus, v0, v_star)
        orbits = shooting._PairOrbits(
            qp, chart, shooting._pair_run(qp, chart, horizon, 1e-8), events)

        def integrated(u):
            return classify_start(qp, t, chart.point([u]), horizon, 1e-8,
                                  events, shooting._exit_row(qp, chart))

        def side(res):
            return math.copysign(1.0, shooting._exit_side(qp, chart, res))

        root = float(start.u[0])
        grid = np.linspace(-chart.radius, chart.radius, 41)[1:-1].tolist()
        near = [root + sign * chart.radius * 2.0 ** -k
                for k in range(1, 20) for sign in (-1.0, 1.0)]
        starts = [u for u in grid + near if abs(u - root) > 1e-6]
        assert len(starts) > 50
        for u in starts:
            closed, ref = orbits.probe(u), integrated(u)
            assert not closed.is_stayed and not ref.is_stayed
            assert (closed.kind, side(closed)) == (ref.kind, side(ref)), u
        # a start on the disk's edge leaves at once, on its own side
        for u in (-chart.radius, chart.radius):
            closed, ref = orbits.probe(u), integrated(u)
            assert closed.t == ref.t == t
            assert closed.kind == ref.kind == "W_hits_wplus"
            assert side(closed) == side(ref) == math.copysign(1.0, u)


def _probed(monkeypatch):
    """``{u: result}`` of every closed-form probe the searches make."""
    seen = {}
    probe = shooting._PairOrbits.probe

    def spy(orbits, u):
        seen[u] = probe(orbits, u)
        return seen[u]

    monkeypatch.setattr(shooting._PairOrbits, "probe", spy)
    return seen


def _assert_bracketed(start, seen):
    """The start stayed, and the probed starts nearest it on either side
    exit on opposite decided sides, at most its bracket width apart."""
    u = float(start.u[0])
    assert start.stayed and seen[u].is_stayed
    below = max(v for v in seen if v < u)
    above = min(v for v in seen if v > u)
    assert above - below <= start.bracket_width
    assert seen[below].side * seen[above].side == -1.0


# the start found by bisecting the whole disk (the search before the
# seeded bracket), by problem, at t = -5, -10, -20 and -35
FULL_DISK_STARTS = {
    "saddle": ("-0x1.fcf6a24dde624p-5", "0x1.e3691d849e480p-7",
               "0x1.9d957c085eca8p-6", "0x1.858993dab9914p-6"),
    "t-dependent-c": ("-0x1.c75f8c9ce55d4p-5", "0x1.dc8a362a8715cp-7",
                      "0x1.a8fba691d4f6cp-6", "0x1.a66ace08c1736p-6"),
    "rotated-3": ("0x1.ae40dbb365432p-8", "0x1.f0abc558d7ad9p-8",
                  "-0x1.ff1b9e8f16e57p-9", "0x1.2e3b1fa6a658ep-7"),
}


class TestSeededBracket:
    """A closed-form search starts its bracket from a cell of a few u_tol
    around the start whose chart coordinate vanishes at the horizon, and
    widens the cell until its ends exit on opposite sides."""

    @pytest.mark.parametrize("name", sorted(FULL_DISK_STARTS))
    def test_same_start_as_the_whole_disk(self, monkeypatch, tmp_path,
                                          name):
        qp = _closed_form_problem(name, tmp_path)
        seen = _probed(monkeypatch)
        for t, want in zip((-5.0, -10.0, -20.0, -35.0),
                           FULL_DISK_STARTS[name]):
            seen.clear()
            start = find_trapped_start(qp, t, 0.02, 0.15)
            u_tol = 4.0 * np.finfo(float).eps * start.chart.radius
            assert abs(start.u[0] - float.fromhex(want)) <= 4.0 * u_tol, t
            assert start.closed_form and start.iterations <= 6
            _assert_bracketed(start, seen)

    @pytest.mark.parametrize("offset", [1e-9, -3e-3, 0.5])
    def test_a_cell_that_misses_the_root_widens(self, monkeypatch, offset):
        # the cell around a guess moved off the horizon root has both ends
        # on one side; it widens to the whole disk, and the bisection halves
        # only the flank between the cell end and the disk end that exit on
        # opposite sides (a guess moved off the disk, 0.5, seeds no cell).
        # It finds the same start in no more probes than the whole-disk
        # search's 53 (52 here); widening the cell x256 at a time and
        # bisecting the whole widened cell took 58 and 59 at -3e-3 and 0.5
        qp = make_reference_problem()
        want = find_trapped_start(qp, -5.0, 0.02, 0.15)
        root = shooting._PairOrbits.root_at_end
        monkeypatch.setattr(shooting._PairOrbits, "root_at_end",
                            lambda orbits: root(orbits) + offset)
        seen = _probed(monkeypatch)
        got = find_trapped_start(qp, -5.0, 0.02, 0.15)
        u_tol = 4.0 * np.finfo(float).eps * got.chart.radius
        assert abs(got.u[0] - want.u[0]) <= 4.0 * u_tol
        assert want.iterations + 2 < got.iterations <= 53
        _assert_bracketed(got, seen)

    def test_horizon_root_stays_on_a_short_horizon(self):
        # with an 8-unit horizon the starts that stay fill an interval of
        # ~5e-4, which holds the horizon root (~2e-5 off the exact start)
        # and the cell around it: the cell's first end is the start
        qp = make_reference_problem()
        got = find_trapped_start(qp, -5.0, 0.02, 0.15,
                                 ShootingConfig(horizon_span=8.0))
        assert got.stayed and got.iterations == 1
        assert got.u[0] == pytest.approx(particular_x1(-5.0), abs=1e-4)

    def test_probes_per_saddle_solve(self, monkeypatch):
        # 716 from the whole disk; the same on one and on two CPUs
        doc = load_problem_document(str(DEMOS / "saddle.problem"))
        qp = doc.to_problem()
        cert = certify(qp)
        counts = []
        for cpus in (1, 2):
            _affinity(monkeypatch, cpus)
            sol = bounded_solution(qp, cert,
                                   ShootingConfig(integrator_tol=doc.tol))
            counts.append([r.iterations for r in sol.rungs])
        assert counts[0] == counts[1]
        assert sum(counts[0]) <= 84


class TestProbeDispatch:
    """The closed-form probes are taken exactly when A is free of the
    state (and the disk is one-dimensional)."""

    @pytest.mark.parametrize("demo", ["saddle", "nonlinear"])
    def test_integrated_probes_only_for_a_state_dependent_a(
        self, monkeypatch, demo,
    ):
        doc = load_problem_document(str(DEMOS / f"{demo}.problem"))
        qp = doc.to_problem()
        cert = certify(qp)
        classify, search = shooting.classify_start, shooting.find_trapped_start
        searching = []  # the rung time of each search, in call order
        rungs = []  # (rung time, start time) of each integrated probe

        def spy(qp, t0, *args):
            rungs.append((searching[-1], t0))
            return classify(qp, t0, *args)

        def logged(qp, t, *args, **kwargs):
            searching.append(t)
            return search(qp, t, *args, **kwargs)

        _affinity(monkeypatch, 1)
        monkeypatch.setattr(shooting, "classify_start", spy)
        monkeypatch.setattr(shooting, "find_trapped_start", logged)
        sol = bounded_solution(qp, cert, ShootingConfig(integrator_tol=doc.tol))
        integrated = {r.t: [t for t, _ in rungs].count(r.t) for r in sol.rungs}
        if demo == "saddle":
            assert rungs == []
            assert all(r.closed_form for r in sol.rungs)
        else:
            assert integrated == {r.t: r.iterations for r in sol.rungs}
            assert not any(r.closed_form for r in sol.rungs)
            # a probe starts on its rung's disk or restarts later
            assert all(t <= t0 for t, t0 in rungs)
        assert len(sol.rungs) == 14


    def test_pair_run_that_underflows_integrates_every_probe(
        self, monkeypatch,
    ):
        # q1 grows like 1/|t + 4| towards t = -4, so the pair run from
        # t = -5 ends in step-size underflow; the probes are integrated,
        # each reporting its own blow-up or exit
        qp = make_reference_problem(a=MatrixFunction.from_strings(
            [["1 - 1/(t + 4)", "0"], ["0", "-1"]], n_states=2))
        with pytest.raises(StepSizeUnderflow):
            shooting._pair_run(qp, make_disk_chart(qp, -5.0), 31.0, 1e-8)
        classify = shooting.classify_start
        calls = []  # the start time of each integrated probe

        def spy(*args):
            calls.append(args[1])
            return classify(*args)

        monkeypatch.setattr(shooting, "classify_start", spy)
        got = find_trapped_start(qp, -5.0, 0.02, 0.15)
        assert not got.closed_form
        assert len(calls) == got.iterations == 53
        # read from t_j on, no probe restarts
        assert set(calls) == {-5.0}


@pytest.fixture(scope="module")
def nonlinear_run():
    """``demos/nonlinear.problem`` solved on one CPU, with each rung's
    integrated probes logged in call order as ``(t0, x0, result)``:
    ``(qp, cert, doc, sol, probes by rung time)``."""
    doc = load_problem_document(str(DEMOS / "nonlinear.problem"))
    qp = doc.to_problem()
    cert = certify(qp)
    classify, search = shooting.classify_start, shooting.find_trapped_start
    probes = {}  # rung time -> [(t0, x0, result)]
    searching = []

    def logged(qp, t, *args, **kwargs):
        searching.append(t)
        probes[t] = []
        return search(qp, t, *args, **kwargs)

    def spy(qp, t0, x0, *args):
        res = classify(qp, t0, x0, *args)
        probes[searching[-1]].append((t0, x0, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        _affinity(mp, 1)
        mp.setattr(shooting, "find_trapped_start", logged)
        mp.setattr(shooting, "classify_start", spy)
        sol = bounded_solution(qp, cert, ShootingConfig(integrator_tol=doc.tol))
    return qp, cert, doc, sol, probes


class TestRestartedSearch:
    """An integrated search on a one-dimensional disk restarts its probes on
    the chords between its bracket ends' orbits (shooting._Chords), no later
    than the rung first reads its orbit."""

    def test_restarts_end_before_the_rung_reads(self, nonlinear_run):
        qp, _, _, sol, probes = nonlinear_run
        schedule = {t: (claim, xi) for t, claim, xi in
                    shooting._rung_schedule(*qp.window)}
        for start in sol.rungs:
            claim, xi = schedule[start.t]
            assert not start.closed_form
            reads = [claim[0]] if claim is not None else []
            reads += [0.0] if xi else []
            assert start.t <= start.t0 <= min(reads), start.t
            assert all(start.t <= t0 <= min(reads)
                       for t0, _, _ in probes[start.t])
            # the restarts pay: every rung restarts, and the xi rung at
            # t = -5 gets as far as 0
            assert start.t0 > start.t
        assert {s.t: s.t0 for s in sol.rungs}[-5.0] == 0.0

    def test_last_chord_joins_orbits_that_exit_on_opposite_sides(
        self, nonlinear_run,
    ):
        # the last probe on each side is a final bracket end; the start is
        # the midpoint of their chord at its time, which lies inside the
        # region, and the two orbits exit on opposite sides
        qp, cert, doc, sol, probes = nonlinear_run
        events = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus,
                                    qp.w_minus, cert.v0, cert.v_star)
        for start in sol.rungs:
            if start.stayed:
                continue
            sided = [(shooting._exit_side(qp, start.chart, res), t0, x0)
                     for t0, x0, res in probes[start.t]]
            ends = [next(e for e in reversed(sided) if keep(e[0]))
                    for keep in (lambda s: s <= 0.0, lambda s: s > 0.0)]
            assert ends[0][0] * ends[1][0] < 0.0
            states = []
            for _, t0, x0 in ends:
                assert t0 <= start.t0
                run = integrate(qp.rhs, t0, x0, start.t0 + 1.0, tol=doc.tol,
                                keep=[(start.t0, start.t0)])
                states.append(x0 if t0 == start.t0
                              else dense_at(run.steps, [start.t0])[0])
            assert np.allclose(start.x0, 0.5 * (states[0] + states[1]),
                               rtol=1e-14, atol=1e-17)
            for x in states:
                assert all(ev.direction * ev.level(start.t0, x) < 0.0
                           for ev in events)

    def test_start_stays_to_its_claims_end(self, nonlinear_run):
        qp, cert, doc, sol, _ = nonlinear_run
        events = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus,
                                    qp.w_minus, cert.v0, cert.v_star)
        claims = {t: claim for t, claim, _ in
                  shooting._rung_schedule(*qp.window)}
        for start in sol.rungs:
            claim = claims[start.t]
            orbit = integrate(qp.rhs, start.t0, start.x0, claim[-1],
                              tol=doc.tol, events=events, nodes=False)
            assert orbit.status == "reached_end", start.t


def _float_loop_inside(mats, levels, xa, xb, delta):
    """The chord verdict as ``_Chords`` once computed it, the oracle of
    ``_Chords._inside``: ``<M x, x>`` in plain float loops over the level
    matrices ``mats`` at the checkpoint, ``levels`` as ``(matrix index,
    value c, direction d)``.  Returns the verdict and each level's bound
    ``max(d g_a, d g_b) + max(0, -d <M delta, delta>) / 4``."""
    forms = []  # <M x, x> at x_a, x_b and delta, per level matrix M
    for m in mats:
        values = []
        for x in (xa, xb, delta):
            total = 0.0
            for row, u in zip(m, x):
                total += u * sum([w * v for w, v in zip(row, x)])
            values.append(total)
        forms.append(values)
    bounds = []
    for f, c, d in levels:
        g_a, g_b, bend = forms[f]
        bounds.append(max(d * (g_a - c), d * (g_b - c))
                      + 0.25 * max(0.0, -d * bend))
    return all(b < 0.0 for b in bounds), bounds


@pytest.mark.parametrize("name", ["nonlinear", "t-dependent-c"])
def test_chord_verdict_is_the_float_loop_one(name):
    # chords at the checkpoints of a restarted search, drawn so that many
    # cross W = w+-, V = V* or both; wherever no level's bound is within
    # rounding of zero, the compiled forms give the float loops' verdict
    if name == "nonlinear":
        qp = load_problem_document(str(DEMOS / "nonlinear.problem")) \
            .to_problem()
    else:
        qp = make_reference_problem(
            a=NONLINEAR_A, c=MatrixFunction.from_strings(
                [["1 + 0.2*sin(0.3*t)", "0"], ["0", "-1"]], n_states=2,
                symmetric=True))
    chart = make_disk_chart(qp, -5.0)
    v0, v_star = 0.02, 0.05
    events = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus,
                                qp.w_minus, v0, v_star)
    chords = shooting._Chords(qp, chart, events, 12.0)
    assert chords.ts.size == 17
    index = {}  # level matrix -> its index, as the float loops had it
    for ev in events:
        index.setdefault(ev.form[0], len(index))
    levels = [(index[ev.form[0]], ev.form[1], float(ev.direction))
              for ev in events]
    stacks = [m.stack(chords.ts).tolist() for m in index]
    rng = np.random.default_rng(3)
    verdicts, crossed, compared = set(), set(), 0
    for i, t in enumerate(chords.ts.tolist()):
        mats = [stack[i] for stack in stacks]
        for _ in range(300):
            xa = rng.uniform(-0.25, 0.25, size=2)
            xb = xa + rng.standard_normal(2) * 10.0 ** rng.uniform(-4.0, -0.5)
            xa, xb = xa.tolist(), xb.tolist()
            delta = [q - p for p, q in zip(xa, xb)]
            want, bounds = _float_loop_inside(mats, levels, xa, xb, delta)
            for ev in events:
                if (ev.level(t, xa) < 0.0) != (ev.level(t, xb) < 0.0):
                    crossed.add(ev.kind)
            if any(abs(b) <= 1e-12 * (1.0 + abs(c))
                   for b, (_, c, _) in zip(bounds, levels)):
                continue
            assert chords._inside(t, xa, xb, delta) == want, (t, xa, xb)
            verdicts.add(want)
            compared += 1
    assert verdicts == {True, False} and compared > 5000
    assert crossed == {"W_hits_wplus", "W_hits_wminus", "V_hits_Vstar"}


def _count_integrations(monkeypatch):
    """The times of every run shooting integrates, in call order."""
    calls = []
    real = shooting.integrate

    def spy(rhs, t0, *args, **kwargs):
        calls.append(t0)
        return real(rhs, t0, *args, **kwargs)

    monkeypatch.setattr(shooting, "integrate", spy)
    return calls


def _separate_patch(qp, start, claim, tol):
    """The patch as a run of its own gave it: the pair system integrated
    to the claim's end, sampled on the dense output of its steps at the
    claim's other times and at its end node, combined as ``p + u q``; and
    the start of that run's last, clipped step."""
    x0 = np.concatenate([np.zeros(qp.n), start.chart.basis[:, 0]])
    run = integrate(qp.pair_rhs, start.t, x0, float(claim[-1]), tol=tol,
                    keep=[(claim[0], claim[-1])])
    pairs = np.vstack([dense_at(run.steps, claim[:-1]), run.xs[-1:]])
    u = float(start.u[0])
    return pairs[:, :qp.n] + u * pairs[:, qp.n:], run.ts[-2]


def _separate_xi(qp, start, tol):
    """x(0) as a pair run to 0 of its own gave it: its end node."""
    x0 = np.concatenate([np.zeros(qp.n), start.chart.basis[:, 0]])
    run = integrate(qp.pair_rhs, start.t, x0, 0.0, tol=tol)
    return run.xs[-1, :qp.n] + float(start.u[0]) * run.xs[-1, qp.n:]


def _claim(t):
    """A claim like those bounded_solution makes on the window +-40: the
    grid nodes in ``(t + SETTLE, t + SETTLE + 5]``."""
    return t + shooting.SETTLE + shooting.SAMPLE_DT * np.arange(1, 251)


class TestSearchRunReuse:
    """A closed-form rung reads its patch and x(0) off the steps its search
    run kept; only an x(0) past the run's end is integrated again."""

    @pytest.mark.parametrize("name", ["saddle", "rotated-3"])
    def test_patch_and_xi_are_the_separate_runs(self, tmp_path, name):
        # the search run takes the patch run's steps, so the patch keeps
        # its bits except in the separate run's last step, which was
        # clipped to end at the claim's end; x(0) is read on the dense
        # output at 0 instead of at the end of a step clipped there
        qp = _closed_form_problem(name, tmp_path)
        cert = certify(qp)
        exits = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus,
                                   qp.w_minus, cert.v0, cert.v_star)
        config = ShootingConfig(integrator_tol=1e-8)
        moved = 0
        for t in (-35.0, -20.0, -5.0, 10.0):
            # x(0) from t = -35 is e^35 times the chart resolution off
            claim = _claim(t)
            xi_rung = -20.0 <= t < 0.0
            rung = shooting._run_rung(qp, t, cert.v0, cert.v_star, config,
                                      claim, exits if xi_rung else None)
            assert rung.start.closed_form and rung.start.pair_run is None
            ts, xs, v, w = rung.patch
            assert ts.tobytes() == claim.tobytes()
            want, clipped = _separate_patch(qp, rung.start, claim, 1e-8)
            same = claim <= clipped
            assert 0 < np.count_nonzero(~same) < 10
            assert xs[same].tobytes() == want[same].tobytes()
            assert np.max(np.abs(xs[~same] - want[~same])) < 1e-9
            moved += np.count_nonzero(np.any(xs != want, axis=1))
            if xi_rung:
                assert rung.xi.status == "reached_end"
                assert rung.xi.ts.tolist() == [t, 0.0]
                xi = _separate_xi(qp, rung.start, 1e-8)
                assert np.max(np.abs(rung.xi.x_end - xi)) < 1e-8
            else:
                assert rung.xi is None
        assert moved > 0

    @pytest.mark.parametrize("demo", ["saddle", "nonlinear"])
    def test_integrations_per_solve(self, monkeypatch, demo):
        # saddle: each rung integrates its search run and nothing else
        # (32 runs before the patches and x(0) were read off it); the
        # nonlinear demo still integrates every probe, each patch and each
        # xi orbit the walk reads
        doc = load_problem_document(str(DEMOS / f"{demo}.problem"))
        qp = doc.to_problem()
        cert = certify(qp)
        _affinity(monkeypatch, 1)
        calls = _count_integrations(monkeypatch)
        sol = bounded_solution(qp, cert, ShootingConfig(integrator_tol=doc.tol))
        # on +-40 every rung is a ladder rung, with a patch
        assert len(sol.rungs) == 14
        if demo == "saddle":
            assert sorted(calls) == sorted(r.t for r in sol.rungs)
        else:
            assert len(calls) == (sum(r.iterations for r in sol.rungs)
                                  + len(sol.rungs) + sol.converged_at_j)

    def test_patch_past_the_search_run_is_refused(self):
        # a claim ends by t + SETTLE + MAX_SPACING, inside the horizon
        # t + 36, on every window; one past it is a programming error,
        # not a short patch
        doc = load_problem_document(str(DEMOS / "saddle.problem"))
        qp = doc.to_problem()
        cert = certify(qp)
        config = ShootingConfig(integrator_tol=doc.tol)
        claim = -5.0 + shooting.SETTLE + 0.02 * np.arange(1, 1401)
        assert claim[-1] > -5.0 + config.horizon_span
        with pytest.raises(RuntimeError, match="ends before its claim's end"):
            shooting._run_rung(qp, -5.0, cert.v0, cert.v_star, config, claim)

    def test_xi_rung_below_the_horizon(self, monkeypatch):
        # the search run from t = -40 ends at -4, so the rung has no x(0):
        # the walk, should it get there, runs the pair system to 0 and
        # reads the region levels off its nodes, as the rung would have.
        # No node's level value clears its rounding bound (which grows
        # like e^40), so no exit is read, but x(0) is not inside either:
        # W = 36 there against w+ = 0.02, and the orbit is undecided
        doc = load_problem_document(str(DEMOS / "saddle.problem"))
        qp = doc.to_problem()
        cert = certify(qp)
        exits = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus,
                                   qp.w_minus, cert.v0, cert.v_star)
        config = ShootingConfig(integrator_tol=doc.tol)
        rung = shooting._run_rung(qp, -40.0, cert.v0, cert.v_star, config,
                                  _claim(-40.0), exits)
        assert rung.xi is None and rung.patch is not None
        calls = _count_integrations(monkeypatch)
        orbit = shooting._xi_orbit(qp, rung.start, doc.tol, exits)
        assert calls == [-40.0]
        x0 = np.concatenate([np.zeros(qp.n), rung.start.chart.basis[:, 0]])
        nodes = integrate(qp.pair_rhs, -40.0, x0, 0.0, tol=doc.tol)
        orbits = shooting._PairOrbits(qp, rung.start.chart, nodes, exits)
        u = float(rung.start.u[0])
        hit = orbits.first_exit(u, orbits.states(u))
        assert hit is None and orbit.status == "undecided"
        assert orbit.ts.tolist() == [-40.0, 0.0]
        assert qp.quad_w(0.0, orbit.x_end) > 1000.0 * qp.w_plus
        assert not orbits.inside_at_end(u, orbits.states(u))

    def test_pair_run_that_underflows_integrates_the_orbits(
        self, monkeypatch,
    ):
        # when the search's pair run ends in step-size underflow (forced
        # here on the saddle), the probes, the patches and the xi orbits
        # are integrated from the states, and the solution still verifies
        doc = load_problem_document(str(DEMOS / "saddle.problem"))
        qp = doc.to_problem()
        cert = certify(qp)

        def underflow(qp, chart, t_end, tol, keep=()):
            raise StepSizeUnderflow(chart.t, np.zeros(2 * qp.n))

        _affinity(monkeypatch, 1)
        monkeypatch.setattr(shooting, "_pair_run", underflow)
        calls = _count_integrations(monkeypatch)
        sol = bounded_solution(qp, cert, ShootingConfig(integrator_tol=doc.tol))
        assert not any(r.closed_form for r in sol.rungs)
        assert len(calls) == (sum(r.iterations for r in sol.rungs)
                              + len(sol.rungs) + sol.converged_at_j)
        assert verify_bound(qp, cert, sol.traj).passed
        assert np.max(np.abs(sol.xi - np.array([-0.05, 0.05]))) < 1e-6


class TestBoundedSolution:
    def test_initial_value_and_sup(self, reference_solution_run):
        sol = reference_solution_run
        exact = reference_solution(0.0)
        assert np.max(np.abs(sol.xi - exact)) < 1e-6
        assert sol.sup_v == pytest.approx(0.01, abs=1e-5)
        assert sol.converged_at_j >= 2

    def test_nodes_track_closed_form(self, reference_solution_run):
        traj = reference_solution_run.traj
        exact = np.array([reference_solution(t) for t in traj.ts])
        assert np.max(np.abs(traj.xs - exact)) < 1e-5

    def test_coverage_and_grid(self, reference_solution_run):
        traj = reference_solution_run.traj
        assert traj.ts[0] <= -27.9
        assert traj.t_end == pytest.approx(40.0, abs=1e-9)
        gaps = np.diff(traj.ts)
        assert np.all(gaps > 0.0)
        assert np.max(gaps) < 0.05

    def test_v_column_is_verifys_v(self, reference_problem,
                                   reference_solution_run):
        # the rung tasks' V, which the trajectory CSV writes, is the V that
        # verify computes at each node, bit for bit
        qp, sol = reference_problem, reference_solution_run
        assert sol.v.tobytes() == eval_v_w_along(qp, sol.traj).v.tobytes()
        assert sol.sup_v == max(sol.v.tolist())

    def test_stays_inside_region(self, reference_problem,
                                 reference_solution_run):
        traj = reference_solution_run.traj
        for t, x in zip(traj.ts[:: 40], traj.xs[:: 40]):
            w = reference_problem.quad_w(float(t), x)
            assert -0.02 < w < 0.02

    def test_xi_sequence_settles(self, reference_solution_run):
        seq = reference_solution_run.xi_sequence
        assert len(seq) >= 2
        js = [j for j, _, _ in seq]
        assert js == sorted(js)
        _, _, last = seq[-1]
        _, _, prev = seq[-2]
        assert np.max(np.abs(last - prev)) <= 1e-5

    def test_short_window_does_not_converge(self):
        qp = make_reference_problem(window=(-0.5, 2.0))
        cert = certify(qp)
        with pytest.raises(NotConverged) as info:
            bounded_solution(qp, cert)
        assert len(info.value.xi_sequence) >= 1

    def test_xi_csv_layout(self, tmp_path, reference_solution_run):
        path = tmp_path / "xi.csv"
        write_xi_csv(path, reference_solution_run.xi_sequence)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,t_j,xi_1,xi_2"
        assert len(lines) == 1 + len(reference_solution_run.xi_sequence)
        j, t_j, x1, x2 = lines[1].split(",")
        assert int(j) == 1
        assert float(t_j) == -5.0
        assert abs(float(x1) + 0.05) < 1e-4


def test_every_ladder_rung_contributes(reference_solution_run,
                                       reference_certificate):
    # the +-40 window needs rungs up to t = 25 ((40 - 12 + 40) / 5 = 13.6);
    # on (-20, 12), (12 - 12 + 20) / 2.5 = 8 exactly, and the eighth rung's
    # settled span ends at T+
    short = bounded_solution(make_reference_problem(window=(-20.0, 12.0)),
                             reference_certificate)
    for sol, t_plus, n_rungs in ((reference_solution_run, 40.0, 14),
                                 (short, 12.0, 8)):
        # every rung of these windows is a ladder rung
        spacing = sol.rungs[1].t - sol.rungs[0].t
        assert len(sol.rungs) == n_rungs
        assert sol.traj.t_end == pytest.approx(t_plus, abs=1e-9)
        for start in sol.rungs:
            lo = start.t + shooting.SETTLE
            span = (sol.traj.ts > lo - 1e-9) & (sol.traj.ts <= lo + spacing)
            assert np.count_nonzero(span) > 0, start.t


def _rounded_schedule(t_lo, t_hi):
    """The rung list as the solve once built it, the oracle of
    ``shooting._rung_schedule``: the xi schedule and the ladder merged by
    start times rounded to 9 decimals (an xi time wins a shared rung),
    with the claims and the xi rungs keyed the same way.  Returns the
    times, the claims, the xi keys, the ladder and the grid."""
    J, settle = shooting.J_COUNT, shooting.SETTLE
    # the fewest rungs from T- to 0, at least J, at most MAX_SPACING apart
    m = J
    while abs(t_lo) / m > shooting.MAX_SPACING:
        m += 1
    spacing = abs(t_lo) / m
    xi_times = [-j * spacing for j in range(1, J + 1)]
    ladder = [t_lo]
    while ladder[-1] + settle + spacing < t_hi:
        ladder.append(t_lo + len(ladder) * spacing)
    times = {}
    for t in xi_times + ladder:
        times.setdefault(round(t, 9), t)
    grid_start = t_lo + settle
    n_nodes = int(round((t_hi - grid_start) / shooting.SAMPLE_DT))
    # no node past T+
    grid = np.minimum(grid_start + shooting.SAMPLE_DT * np.arange(n_nodes + 1),
                      t_hi)
    claims = {}
    prev_end = -math.inf
    for t in ladder:
        key = round(t, 9)
        span_end = min(times[key] + settle + spacing, t_hi)
        claims[key] = grid[(grid > prev_end + 1e-12)
                           & (grid <= span_end + 1e-12)]
        prev_end = span_end
    return times, claims, {round(t, 9) for t in xi_times}, ladder, grid


@pytest.mark.parametrize("window, n_ladder, n_xi_only", [
    ((-40.0, 40.0), 14, 0),
    ((-40.0, 12.0), 8, 0),
    ((-16.0, 5.0), 5, 3),
    # spacing 4.6625: t_lo + k spacing misses -(8 - k) spacing by an ulp
    # at k = 5 and 7, and the rung takes the xi time
    ((-37.3, 40.0), 15, 0),
    # spacing 5, 40 rungs to T- (spacing 25 and 16 rungs without the cap)
    ((-200.0, 200.0), 78, 0),
    # the grid [T- + SETTLE, T+] is empty: the one ladder rung claims
    # nothing
    ((-11.9, 0.05), 1, 7),
    # the last grid node, -388 + 0.02 * 20015, is past T+ by 1.1e-14
    ((-400.0, 12.3), 81, 0),
])
def test_rung_schedule_is_the_rounded_union(window, n_ladder, n_xi_only):
    times, claims, xi_keys, ladder, grid = _rounded_schedule(*window)
    assert len(ladder) == n_ladder
    assert len(times) - n_ladder == n_xi_only
    got = shooting._rung_schedule(*window)
    assert [t.hex() for t, _, _ in got] == [t.hex() for t in times.values()]
    assert [xi for _, _, xi in got] == [key in xi_keys for key in times]
    assert [i for i, (_, _, xi) in enumerate(got) if xi] == list(range(8))
    for (_, claim, _), key in zip(got, times):
        want = claims.get(key)
        if want is None or not want.size:
            assert claim is None
        else:
            assert claim.tobytes() == want.tobytes()
    # the claims tile the grid in time order
    tiles = [claim for _, claim, _ in sorted(got, key=lambda r: r[0])
             if claim is not None]
    assert np.concatenate([grid[:0]] + tiles).tobytes() == grid.tobytes()


@pytest.mark.parametrize("t_lo", [-1.0, -37.3, -40.0, -45.0, -123.4, -200.0,
                                  -555.0, -1000.0])
@pytest.mark.parametrize("t_hi", [0.05, 12.3, 40.0, 200.0, 1000.0])
def test_every_claim_ends_inside_its_search_horizon(t_lo, t_hi):
    schedule = shooting._rung_schedule(t_lo, t_hi)
    horizon = ShootingConfig().horizon_span
    for t, claim, _ in schedule:
        if claim is not None:
            assert claim[-1] <= min(t + horizon, t_hi)
    xi = [t for t, _, is_xi in schedule if is_xi]
    spacing = -xi[0]
    assert spacing <= shooting.MAX_SPACING
    assert xi == [-j * spacing for j in range(1, shooting.J_COUNT + 1)]
    if t_lo <= -40.0 and t_lo % 5.0 == 0.0:
        assert xi == [-5.0 * j for j in range(1, 9)]


# the rungs of a solve on +-40, in the order it reads them: the xi
# schedule, then the ladder rungs above it
RUNGS_40 = [-5.0, -10.0, -15.0, -20.0, -25.0, -30.0, -35.0, -40.0,
            0.0, 5.0, 10.0, 15.0, 20.0, 25.0]


def _affinity(monkeypatch, cpus: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _rung_record(start):
    return (start.t, start.u.tolist(), start.t0, start.x0.tolist(),
            start.chart.basis.tolist(), start.iterations,
            start.bracket_width, start.stayed, start.exit_kinds,
            start.steps_accepted, start.steps_rejected)


def _solve_files(qp, sol, out):
    out.mkdir()
    write_trajectory_csv(out / "trajectory.csv", sol.traj, sol.v, sol.w)
    write_xi_csv(out / "xi.csv", sol.xi_sequence)
    return [(out / name).read_bytes() for name in ("trajectory.csv",
                                                    "xi.csv")]


def assert_same_solution(a, b, qp, tmp_path):
    """The same solution, down to the bytes of the files solve writes."""
    assert _solve_files(qp, a, tmp_path / "a") == _solve_files(
        qp, b, tmp_path / "b")
    for x, y in ((a.traj.ts, b.traj.ts), (a.traj.xs, b.traj.xs),
                 (a.xi, b.xi)):
        assert np.array_equal(x, y)
    assert ([(j, t, xi.tolist()) for j, t, xi in a.xi_sequence]
            == [(j, t, xi.tolist()) for j, t, xi in b.xi_sequence])
    assert ((a.converged_at_j, a.sup_v, a.sup_v_time)
            == (b.converged_at_j, b.sup_v, b.sup_v_time))
    assert ([_rung_record(s) for s in a.rungs]
            == [_rung_record(s) for s in b.rungs])


@pytest.fixture(scope="module")
def one_process_run(reference_problem, reference_certificate):
    with pytest.MonkeyPatch.context() as mp:
        _affinity(mp, 1)
        return bounded_solution(reference_problem, reference_certificate)


@pytest.fixture
def forked(monkeypatch):
    """pids of the rung workers the test forks"""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestRungProcesses:
    """The rung searches spread over the CPUs the process may use; the
    result must not depend on how many there are."""

    def test_one_cpu_forks_nothing(self, monkeypatch, forked,
                                   reference_problem, reference_certificate):
        _affinity(monkeypatch, 1)
        times = [-5.0, -10.0]

        def task(k):
            return shooting._run_rung(reference_problem, times[k], 0.02, 0.15,
                                      ShootingConfig(), None)

        got = shooting.search_rungs(task, times)
        assert forked == []
        assert [r.start.t for r in got] == [-5.0, -10.0]
        assert [r.patch for r in got] == [None] * 2

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_same_result_on_more_processes(
        self, monkeypatch, forked, reference_problem, reference_certificate,
        one_process_run, nonlinear_run, cpus, tmp_path,
    ):
        # the closed-form reference problem, and the nonlinear demo, whose
        # searches integrate and restart their probes
        qp, cert, doc, nonlinear, _ = nonlinear_run
        _affinity(monkeypatch, cpus)
        for problem, certificate, config, want, out in (
            (reference_problem, reference_certificate, ShootingConfig(),
             one_process_run, tmp_path / "reference"),
            (qp, cert, ShootingConfig(integrator_tol=doc.tol), nonlinear,
             tmp_path / "nonlinear"),
        ):
            forked.clear()
            got = bounded_solution(problem, certificate, config)
            assert len(forked) == cpus - 1
            assert_reaped(forked)
            out.mkdir()
            assert_same_solution(got, want, problem, out)

    def test_failed_fork_is_searched_here(
        self, monkeypatch, reference_problem, reference_certificate,
        one_process_run, tmp_path,
    ):
        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        _affinity(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        got = bounded_solution(reference_problem, reference_certificate)
        assert_same_solution(got, one_process_run, reference_problem,
                             tmp_path)

    @staticmethod
    def _log_searches(monkeypatch, tmp_path, failing=None):
        """Log each search as (0 in the caller or 1 in a worker, t), and
        fail the one at ``failing``; returns the reader of the log."""
        log = tmp_path / "searched"
        log.touch()
        parent = os.getpid()
        search = shooting.find_trapped_start

        def logged(qp, t, *args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{int(os.getpid() != parent)} {t!r}\n")
            if t == failing:
                raise NoSignChange(f"no sign change at t_j = {t:g}")
            return search(qp, t, *args, **kwargs)

        monkeypatch.setattr(shooting, "find_trapped_start", logged)
        return lambda: [(int(w), float(t)) for w, t in
                        (line.split() for line in log.read_text().splitlines())]

    @pytest.mark.parametrize("cpus, failing, searched", [
        # one process: the search stops at -25, and nothing after it in
        # the list is searched
        (1, -25.0, [(0, -5.0), (0, -10.0), (0, -15.0), (0, -20.0),
                    (0, -25.0)]),
        # the worker stops at -30; the caller searches its whole share
        (2, -30.0, [(0, -5.0), (0, -15.0), (0, -25.0), (0, -35.0),
                    (0, 0.0), (0, 10.0), (0, 20.0),
                    (1, -10.0), (1, -20.0), (1, -30.0)]),
    ])
    def test_failed_search_stops_its_share(
        self, monkeypatch, forked, tmp_path, reference_problem,
        reference_certificate, cpus, failing, searched,
    ):
        _affinity(monkeypatch, cpus)
        searches = self._log_searches(monkeypatch, tmp_path, failing)
        with pytest.raises(NoSignChange,
                           match=f"no sign change at t_j = {failing:g}$"):
            bounded_solution(reference_problem, reference_certificate)
        assert_reaped(forked)
        assert sorted(searches(), key=lambda r: r[0]) == searched

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("failing", [
        -10.0,  # an xi rung the walk reads (it converges at t = -20)
        -35.0,  # an xi rung past convergence, also a ladder rung
        10.0,  # a ladder rung only
    ])
    def test_failure_raises_in_list_order(
        self, monkeypatch, forked, tmp_path, reference_problem,
        reference_certificate, cpus, failing,
    ):
        # each process searches its share of the list in order, up to its
        # failure, and the solve raises that rung's error: no rung is
        # searched after the failure is read
        _affinity(monkeypatch, cpus)
        searches = self._log_searches(monkeypatch, tmp_path, failing)
        with pytest.raises(NoSignChange,
                           match=f"no sign change at t_j = {failing:g}$"):
            bounded_solution(reference_problem, reference_certificate)
        assert_reaped(forked)
        want = []
        for i in range(cpus):
            share = RUNGS_40[i::cpus]
            if failing in share:
                share = share[:share.index(failing) + 1]
            want += [(i, t) for t in share]
        assert sorted(searches(), key=lambda r: r[0]) == want

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_every_rung_searched_once(
        self, monkeypatch, forked, tmp_path, reference_problem,
        reference_certificate, cpus,
    ):
        _affinity(monkeypatch, cpus)
        searches = self._log_searches(monkeypatch, tmp_path)
        sol = bounded_solution(reference_problem, reference_certificate)
        assert_reaped(forked)
        assert sorted(searches(), key=lambda r: r[0]) == [
            (i, t) for i in range(cpus) for t in RUNGS_40[i::cpus]]
        assert [r.t for r in sol.rungs] == sorted(RUNGS_40)

    def test_dead_worker_is_named(self, monkeypatch, forked,
                                  reference_problem, reference_certificate):
        parent = os.getpid()

        def dying(qp, t, *args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise NoSignChange("not searched in this test")

        _affinity(monkeypatch, 2)
        monkeypatch.setattr(shooting, "find_trapped_start", dying)
        with pytest.raises(RungWorkerLost) as info:
            bounded_solution(reference_problem, reference_certificate)
        # the worker took every second rung of the xi schedule, then of
        # the ladder times above it
        assert info.value.times == (-10.0, -20.0, -30.0, -40.0,
                                    5.0, 15.0, 25.0)
        assert "t = -10, -20, -30, -40, 5, 15, 25 was killed by signal 9" \
            in str(info.value)
        assert_reaped(forked)

    def test_worker_bug_is_printed_and_named(
        self, monkeypatch, forked, capfd, reference_problem,
        reference_certificate,
    ):
        parent = os.getpid()

        def buggy(qp, t, *args, **kwargs):
            if os.getpid() != parent:
                raise ZeroDivisionError("a bug in the search")
            raise NoSignChange("not searched in this test")

        _affinity(monkeypatch, 2)
        monkeypatch.setattr(shooting, "find_trapped_start", buggy)
        with pytest.raises(RungWorkerLost, match="exited with status 1"):
            bounded_solution(reference_problem, reference_certificate)
        err = capfd.readouterr().err
        assert "ZeroDivisionError: a bug in the search" in err
        assert_reaped(forked)

    def test_interrupted_caller_kills_its_workers(
        self, monkeypatch, forked, reference_problem, reference_certificate,
    ):
        class Interrupt(BaseException):
            pass

        parent = os.getpid()
        search = shooting.find_trapped_start

        def interrupted(qp, t, *args, **kwargs):
            if os.getpid() == parent:
                raise Interrupt()
            return search(qp, t, *args, **kwargs)

        _affinity(monkeypatch, 2)
        monkeypatch.setattr(shooting, "find_trapped_start", interrupted)
        with pytest.raises(Interrupt):
            bounded_solution(reference_problem, reference_certificate)
        assert len(forked) == 1
        assert_reaped(forked)


class TestVerifyBound:
    def test_reference_passes_with_slack(self, reference_problem,
                                         reference_certificate,
                                         reference_solution_run):
        rep = verify_bound(reference_problem, reference_certificate,
                           reference_solution_run.traj)
        assert rep.passed
        assert not rep.violations
        assert rep.slack_envelope > 0.05
        assert rep.slack_const > 0.05
        assert rep.slack_closed_form > 0.05
        assert rep.w_range_margin > 0.0
        # the trapped solution never leaves V <= v0, so the clock margin
        # is vacuous here
        assert rep.clock_nodes == 0
        assert any("above the threshold" in n or "vacuous" in n
                   for n in rep.notes)

    def test_growth_clock_on_segments_above_v0(self, reference_problem,
                                               reference_certificate):
        # solution segments that start above v0 (V <= 1.5 v0 keeps them
        # under every ceiling) run the growth clock at their nodes and
        # satisfy it; read against a problem whose second mode grows
        # instead of decaying, dW/dt falls below |dF/dt| on some of them
        qp, cert = reference_problem, reference_certificate
        growing = make_reference_problem(a=MatrixFunction.from_strings(
            [["1", "0"], ["0", "1"]], n_states=2))
        evs = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus,
                                 qp.w_minus, cert.v0, cert.v_star)
        rng = np.random.default_rng(5)
        flagged = 0
        for t0 in (-30.0, -20.0, -10.0, 0.0, 10.0, 20.0):
            _, states = sample_region_states(qp, [t0], rng, 4,
                                             1.02 * cert.v0, 1.5 * cert.v0)
            assert len(states) == 4
            for x in states:
                traj = integrate(qp.rhs, t0, x, t0 + 10.0, tol=1e-9,
                                 events=evs)
                rep = verify_bound(qp, cert, traj)
                assert rep.passed and not rep.violations
                assert rep.clock_nodes > 0 and rep.clock_margin > 0.0
                bad = verify_bound(growing, cert, traj)
                # V and W are those of the same nodes: only the clock fails
                assert bad.clock_nodes == rep.clock_nodes
                assert all(v.startswith("growth-clock inequality violated")
                           for v in bad.violations)
                flagged += not bad.passed
        assert flagged >= 10

    def test_envelope_matches_per_node_inversion(self, reference_problem,
                                                 reference_certificate,
                                                 reference_solution_run):
        # time-varying curves give every grid interval its own F^-1
        # argument; the reference inverts once per node
        cert = reference_certificate
        cert = dataclasses.replace(
            cert,
            lam_plus=cert.lam_plus * (1.0 + 0.2 * np.cos(0.1 * cert.ts)),
            lam_minus=cert.lam_minus * (1.0 + 0.1 * np.sin(0.2 * cert.ts)),
        )
        traj = reference_solution_run.traj
        rep = verify_bound(reference_problem, cert, traj)
        gp = cert.growth_pair()
        hi_env = np.maximum.accumulate((cert.lam_plus * cert.v0)[::-1])[::-1]
        lo_env = np.minimum.accumulate(cert.lam_minus * cert.v0)
        idx = np.clip(np.searchsorted(cert.ts, traj.ts, side="right") - 1,
                      0, cert.ts.size - 2)
        ceiling = np.array([
            growth_integral_inv(
                gp, max(0.0, float(0.5 * (hi_env[i] - lo_env[i + 1])))
            )
            for i in idx
        ])
        v = eval_v_w_along(reference_problem, traj).v
        assert np.unique(ceiling).size > 50
        assert rep.slack_envelope == float(np.min(ceiling - v))

    def test_corrupted_ceiling_flagged(self, reference_problem,
                                       reference_certificate,
                                       reference_solution_run):
        bad = dataclasses.replace(reference_certificate,
                                  v_small_star=1e-4)
        rep = verify_bound(reference_problem, bad,
                           reference_solution_run.traj)
        assert not rep.passed
        assert any("exceeds the constant ceiling" in v
                   for v in rep.violations)

    def test_unreachable_envelope_argument_is_a_violation(
        self, reference_problem, reference_certificate, reference_solution_run
    ):
        # lam_plus = 1e5 asks F for about 1000 where F(Vmax) is about 830
        cert = dataclasses.replace(
            reference_certificate,
            lam_plus=np.full_like(reference_certificate.lam_plus, 1e5),
        )
        traj = reference_solution_run.traj
        rep = verify_bound(reference_problem, cert, traj)
        assert not rep.passed
        assert rep.slack_envelope == math.inf
        (msg,) = rep.violations
        assert msg.startswith(f"no envelope ceiling from t = {traj.ts[0]:.6g}:")
        assert "F never reaches 1000.01 below Vmax = 20000" in msg

    def test_subwindow_coverage_noted(self, reference_problem,
                                      reference_certificate,
                                      reference_solution_run):
        rep = verify_bound(reference_problem, reference_certificate,
                           reference_solution_run.traj)
        lo, hi = rep.coverage
        assert lo == pytest.approx(-28.0, abs=0.1)
        assert hi == pytest.approx(40.0, abs=1e-9)
        assert lo > reference_problem.window[0]
        assert any("subwindow" in n or "window" in n for n in rep.notes)


def test_one_solve_builds_one_step_loop():
    # one step loop per rhs and layout of watched levels: on the saddle,
    # whose A is free of the state, that of the pair system, with no level
    # watched, for the search runs (the probes, the patches and x(0) are
    # read off their nodes and kept steps); loading, certify and verify
    # build none
    built = compile_stepper.cache_info
    before = built().misses
    doc = load_problem_document(
        str(pathlib.Path(__file__).parents[1] / "demos" / "saddle.problem")
    )
    qp = doc.to_problem()
    cert = certify(qp)
    assert built().misses == before
    sol = bounded_solution(qp, cert, ShootingConfig(integrator_tol=doc.tol))
    assert built().misses - before == 1
    verify_bound(qp, cert, sol.traj)
    assert built().misses - before == 1
