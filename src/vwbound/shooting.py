"""Topological shooting for the trapped (V-bounded) solution.

Starts are taken on the ellipsoidal disk ``M_t = { x in L_+(t) :
<C(t)x, x> <= w_plus }``.  A start whose forward orbit leaves the region
exits through one of the watched boundaries; the sign of its L_+ chart
coordinate at the exit is a topological invariant of the exit map (a
trapped start must sit between starts that exit on opposite sides),
so for a one-dimensional positive subspace bisection from the whole disk
localizes a trapped start to machine resolution; the evidence is the
final bracket, not the halvings that led to it.  Higher-dimensional
disks use a budgeted refinement heuristic (existence is topological;
localization is not guaranteed and failures say so).

The returned trajectory is assembled from a ladder of trapped starts,
``|T-| / m`` apart, ``m = max(J_COUNT, ceil(|T-| / MAX_SPACING))``; its
J_COUNT rungs just below 0 are the xi schedule (``xi_j = x_j(0)``).  Each
rung contributes only the span where its initial transient has died out
and its chart-coordinate error has not yet amplified, which ends inside
its search horizon: a single orbit across the window would lose roughly
``(t - t_start)/ln(10)`` digits to the unstable directions, while the
ladder keeps every node within a fixed error band.

A probe answers which side its orbit leaves through.  When A does not
depend on the state and the disk is one-dimensional, the flow is affine
in the start, so one run of the ``2n``-state pair system
(:attr:`~vwbound.quadratic.QuadraticProblem.pair_rhs`) from the disk
centre and the chart's basis vector carries every probe's orbit as
``p + u q`` (:class:`_PairOrbits`): the bisection starts from a cell of
a few u_tol around ``-s_p(T) / s_q(T)``, from the chart coordinates of
``p`` and ``q`` at the horizon T, so a search takes a few probes instead
of ~53; a probe reads its exit and side off that run's nodes, and the
rung its patch and x(0) off the dense output of the steps the run keeps
over them (:func:`_patch`, :func:`_pair_xi`), so no orbit is integrated
twice; such an x(0) counts only where every level counts as inside at 0,
so that rounding cannot hide an exit.  Otherwise each probe is an
integration (:func:`classify_start`) from a start time and state: on a
one-dimensional disk whose C does not depend on t it reads the sign of
the exit chart coordinate, and locates the exit only when the last step
could have moved that coordinate across zero (see
:func:`vwbound.ode.integrate`); otherwise the exit is located and
charted.  On a one-dimensional disk the bisection restarts its probes
forward in time (:class:`_Chords`): the two bracket ends are orbits
that exit on opposite sides, so the chord between their states at any
later time, inside the region, holds a start that stays as well (the
straddle refinement of Nusse & Yorke 1989, the bisection with restarts
of edge tracking, Skufca, Yorke & Eckhardt 2006).  A probe starts at the
midpoint of the latest short chord before the rung first reads its
orbit, inside the region by the problem's compiled forms of W and V,
and skips the stretch its bracket ends already share; the start found
is that (time, state) pair, and its patch and x(0) are integrated from
it.  The path and the bracket are chosen from the problem alone: there
is no setting for either.

Given the region, the work on one rung does not depend on any other, so
:func:`bounded_solution` runs every rung's task up front (:class:`Rung`):
the search for its trapped start, then its patch of the returned
trajectory with V and W at each node and, on an xi rung whose search run
reaches 0, x(0), one list of them (:func:`_rung_schedule`).  The tasks
are spread over the CPUs the process may use: the calling process and
``w - 1`` forked workers (``w`` the size of its CPU affinity set, at most
one per rung) each run an interleaved share in list order up to its first
failed search, and the workers send their rungs back through pipes.  The
caller walks the xi orbits until they converge, integrating only those no
task read, then reads every start in list order and assembles the patches,
so no skipped rung is read before the failure that skipped it raises.
There is no setting for this; the results, and so every output, are the
same for any ``w``, and with one CPU nothing forks.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExhausted,
    DocumentError,
    EmptyPositiveSubspace,
    NoSignChange,
    NotConverged,
    RungWorkerLost,
    StepSizeUnderflow,
    VWBoundError,
)
from .growth import envelope_ceilings, growth_integral_inv
from .ode import (
    TOL_MAX,
    TOL_MIN,
    Trajectory,
    dense_at,
    eval_v_w_along,
    integrate,
    levels_at_start,
    make_region_events,
    quad_along,
)
from .quadratic import Certificate, QuadraticProblem, closed_form_ceiling
from .pencil import spectral_projectors

__all__ = [
    "DiskChart",
    "make_disk_chart",
    "ShootingConfig",
    "Stayed",
    "Exited",
    "classify_start",
    "TrappedStart",
    "find_trapped_start",
    "BoundedSolutionResult",
    "search_rungs",
    "bounded_solution",
    "VerifyReport",
    "verify_bound",
    "write_xi_csv",
]

# the xi schedule t_j = -j spacing, j = 1..J_COUNT; the trajectory ladder
# t_k = T- + k spacing shares its rungs (see _rung_schedule)
J_COUNT = 8
# transient discarded at the head of each ladder patch
SETTLE = 12.0
# node spacing of the returned trajectory
SAMPLE_DT = 0.02
# xi is converged after two consecutive increments at most this large.
# Evaluating xi_j at t = 0 amplifies any start error by exp(|t_j|), so
# increments below roughly exp(|t_j|) eps radius are unobservable, and
# demanding much more than 1e-6 makes deep rungs diverge instead of
# converge.  For the same reason the chart-coordinate bisection runs to
# the machine floor, 4 eps radius.
XI_TOL = 1e-5
# the largest rung spacing.  A rung's claim ends by t + SETTLE + spacing,
# inside its search horizon t + 36 when spacing <= 24.  The xi walk needs
# two increments <= XI_TOL from three rungs whose start transient r
# exp(-|t_j|) has fallen below XI_TOL (|t_j| > 9.6 for the demos' disk
# radius r = 0.14) and whose chart resolution 4 eps r exp(|t_j|) has not
# reached it (|t_j| < 25): spacing <= 15.5 / 3.  5, the spacing on +-40,
# leaves every window with |T-| <= 40 as it was.
MAX_SPACING = 5.0
# the growth clock inequality |dF(V)/dt| <= dW/dt may fail by this much
# at a node before verify_bound counts it as a violation
CLOCK_TOL = 1e-6
# classify calls a search on a disk of dimension >= 2 may spend
BUDGET = 2000
# a closed-form search's first cell: this many u_tol either side of the
# horizon root; on saddle 42 probes for 14 rungs, no cell missed (716 from
# the disk).  A cell whose ends exit on one side widens to the whole
# bracket at once, and the search bisects the flank between the bracket
# end and the cell end that exit on opposite sides: at most the bracket's
# halvings, so a missed cell costs at most its own two probes.  (Widening
# by a finite factor G costs two probes per widening and leaves a flank
# up to G times the root's distance: 58-64 probes on the reference disk
# for a root 3e-3 to 0.07 off at G = 256, against 52 for the whole disk.)
SEED_HALF_WIDTH = 4.0
# the checkpoint spacing of an integrated bisection's restarts (_Chords).
# Orbits of the bracket separate like e^(lambda t), lambda = 1 for the
# demos' unstable mode, so between checkpoints a chord grows ~e-fold: the
# latest checkpoint whose chord is short enough is at most one unit before
# the time it reaches RESTART_CHORD, one unit more to integrate against the
# ln(1 / RESTART_CHORD) ~ 6.9 each restarted probe needs to read its side,
# and a probe reads at most SETTLE / RESTART_DT = 12 states off its run
RESTART_DT = 1.0
# the longest chord a probe restarts on, over the disk radius r.  A probe
# restarted on a chord of length L integrates ~ln(r / L) units to read its
# side, so a longer chord saves more; but the orbits between the ends
# bend away from the chord by ~kappa L^2, with kappa <~ 1 / r while the
# state-dependent part of A is at most its constant part over the disk
# (far less for the demos' 0.5 x1 x2), so the midpoint splits them at
# 1/2 +- kappa L = 1/2 +- 1e-3: every probe still halves the bracket, and
# the chart coordinate u that labels each end stays that of its orbit at
# the disk to within ~1e-6 r.  Larger chords save little: 54 432 steps at
# 1e-2 against 57 121 on the nonlinear demo
RESTART_CHORD = 1e-3


@dataclass
class DiskChart:
    """Chart of the entry disk at one time slice.

    ``basis`` columns ``e_k`` span the positive subspace of C(t) and are
    C-orthonormal, so the charted point ``x(u) = sum u_k e_k`` satisfies
    ``<C x, x> = |u|^2``; the disk is ``|u| <= radius = sqrt(w_plus)``.
    """

    t: float
    basis: np.ndarray  # (n, n_plus)
    radius: float
    c_mat: np.ndarray = field(repr=False)

    @property
    def n_plus(self) -> int:
        return self.basis.shape[1]

    def point(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return self.basis @ u

    def coords(self, x) -> np.ndarray:
        """L_+ chart coordinates of any state (C-inner product against the
        C-orthonormal basis)."""
        return self.basis.T @ (self.c_mat @ np.asarray(x, dtype=float))


def make_disk_chart(
    qp: QuadraticProblem, t: float, align_to: DiskChart | None = None
) -> DiskChart:
    """Build the entry-disk chart at time ``t``.

    ``align_to`` flips basis columns so they overlap positively with a
    reference chart's columns — eigenvector signs are otherwise arbitrary
    and would scramble exit-side bookkeeping along a trajectory.
    """
    cmat = qp.c.eval(float(t))
    proj = spectral_projectors(cmat)
    if proj.n_plus == 0:
        raise EmptyPositiveSubspace(
            f"C({t:g}) has no positive eigenvalues; no entry disk exists"
        )
    basis = proj.basis_plus / np.sqrt(proj.eigs_plus)[None, :]
    if align_to is not None and align_to.basis.shape == basis.shape:
        for k in range(basis.shape[1]):
            if float(basis[:, k] @ align_to.basis[:, k]) < 0.0:
                basis[:, k] = -basis[:, k]
    return DiskChart(
        t=float(t),
        basis=basis,
        radius=math.sqrt(qp.w_plus),
        c_mat=cmat,
    )


@dataclass
class ShootingConfig:
    """Settings of a trapped-start search.

    ``integrator_tol`` is the integrator's local error tolerance, in
    ``[ode.TOL_MIN, ode.TOL_MAX]``; ``horizon_span`` how far a start must
    stay to count as trapped.  A one-dimensional search always brackets
    the start by the whole disk (:func:`find_trapped_start`).
    """

    integrator_tol: float = 1e-8
    horizon_span: float = 36.0

    def __post_init__(self):
        if not TOL_MIN <= self.integrator_tol <= TOL_MAX:
            raise ValueError(
                f"integrator_tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], "
                f"got {self.integrator_tol:g}"
            )
        if not self.horizon_span > 0.0:
            raise ValueError(
                f"horizon_span must be positive, got {self.horizon_span:g}"
            )


@dataclass
class Stayed:
    """The orbit reached the horizon without leaving the region (``traj``
    is None when the probe read it in closed form)."""

    traj: Trajectory | None

    is_stayed = True


@dataclass
class Exited:
    """The orbit left through a watched boundary (or blew up).

    ``side`` is the sign of the exit chart coordinate when the probe read
    it without locating the exit; ``t`` and ``x`` are then the end of the
    step in which the orbit left.
    """

    t: float
    kind: str
    x: np.ndarray
    traj: Trajectory | None = None
    side: float | None = None

    is_stayed = False


def classify_start(
    qp: QuadraticProblem,
    t0: float,
    x0,
    horizon: float,
    tol: float,
    events,
    exit_row,
    keep=(),
) -> Stayed | Exited:
    """Integrate from the state ``x0`` at ``t0`` (a charted start, or a
    restart on a bracket's chord) until the horizon or the first boundary
    crossing (W = w+-, V = V*), the region levels ``events`` of
    :func:`make_region_events`; step-size underflow is reported as an
    exit of kind ``blowup`` at the last reachable point.

    A probe reads only where and how its orbit ends, so the run records
    no per-step nodes: the trajectory holds the start and the end or
    exit node, with the located events and the step counters, and the
    steps over the ``keep`` windows (:func:`vwbound.ode.integrate`).  With
    an ``exit_row`` (see :func:`_exit_row`; ``None`` for none) an exit
    whose chart side the last step cannot change is not located
    (:attr:`Exited.side`)."""
    try:
        traj = integrate(qp.rhs, t0, x0, horizon, tol=tol, events=events,
                         nodes=False, exit_row=exit_row, keep=keep)
    except StepSizeUnderflow as exc:
        return Exited(t=exc.t, kind="blowup", x=np.asarray(exc.x), traj=None)
    if traj.status == "reached_end":
        return Stayed(traj=traj)
    kind = traj.status.split(":", 1)[1]
    return Exited(t=traj.t_end, kind=kind, x=traj.x_end, traj=traj,
                  side=traj.side)


@dataclass
class TrappedStart:
    """Localized trapped start on one disk.

    The start is the state ``x0`` at ``t0``: the charted point ``u`` at
    the disk's time ``t`` unless an integrated bisection restarted on its
    bracket's chords (:class:`_Chords`), whose last midpoint it then is,
    at a ``t0`` no later than the first time the caller reads the orbit;
    ``u`` is then the chart coordinate that labels it, that of its orbit
    at ``t`` to within ~1e-6 of the disk radius (see ``RESTART_CHORD``).
    ``closed_form`` says that the search read its probes off one run of
    the pair system (:class:`_PairOrbits`), ``pair_run``, which the rung
    task reads and drops.  ``steps_accepted`` and ``steps_rejected`` sum
    the integrator's step counters over the search's integrations: that
    run, and each probe integrated on its own; a probe that ends in
    step-size underflow (an exit of kind ``blowup``) has no trajectory and
    adds none.
    """

    t: float
    u: np.ndarray
    t0: float
    x0: np.ndarray
    chart: DiskChart
    iterations: int
    bracket_width: float
    stayed: bool
    exit_kinds: tuple[str, ...] = ()
    steps_accepted: int = 0
    steps_rejected: int = 0
    closed_form: bool = False
    pair_run: Trajectory | None = field(default=None, repr=False,
                                        compare=False)


def _exit_row(qp: QuadraticProblem, chart: DiskChart):
    """``(C e, |C| |e|)`` as float lists for the basis vector ``e`` of a
    one-dimensional disk whose C does not depend on t, else ``None``:
    ``C e . x`` is then the chart coordinate of any state at any time, and
    a probe may read its sign without locating the exit
    (:func:`vwbound.ode.integrate`'s ``exit_row``)."""
    if chart.n_plus != 1 or qp.c.depends_on_t:
        return None
    e = chart.basis[:, 0]
    return ((chart.c_mat @ e).tolist(),
            (np.abs(chart.c_mat) @ np.abs(e)).tolist())


def _exit_chart(qp: QuadraticProblem, chart0: DiskChart, t: float) -> DiskChart:
    """The chart at ``t`` aligned to the start chart ``chart0``; when C does
    not depend on t (it never depends on the state), ``chart0`` itself."""
    if qp.c.depends_on_t:
        return make_disk_chart(qp, t, align_to=chart0)
    return chart0


def _exit_side(qp: QuadraticProblem, chart0: DiskChart, res: Exited) -> float:
    """First chart coordinate of the exit state, measured in the chart at
    the exit time aligned to the start chart, or its sign when the probe
    read it unlocated."""
    if res.side is not None:
        return res.side
    return float(_exit_chart(qp, chart0, res.t).coords(res.x)[0])


def _pair_run(qp: QuadraticProblem, chart: DiskChart, t_end: float,
              tol: float, keep=()) -> Trajectory:
    """One run of the pair system from ``(p, q) = (0, e)`` at the chart's
    time, ``e`` its basis vector: ``p`` is the orbit from the disk centre
    and ``q`` the homogeneous orbit from ``e``.  Every accepted step is a
    node, and the steps over the ``keep`` windows keep their stages."""
    x0 = np.concatenate([np.zeros(qp.n), chart.basis[:, 0]])
    return integrate(qp.pair_rhs, chart.t, x0, t_end, tol=tol, keep=keep)


class _PairOrbits:
    """The orbit of every start on a one-dimensional disk, in closed form,
    from one run of the pair system (:func:`_pair_run`) with A free of the
    state.

    Dormand-Prince steps on a linear system are affine maps, so on the
    run's steps ``x = p + u q`` *is* the integrator's orbit from
    ``chart.point(u)``.  Forming it rounds by at most ``eps/2 (a + |x|)``
    componentwise, ``a = |p| + |u| |q|``: the ``eps |x0| e^(lambda tau)``
    floor that rounding sets for an integrated orbit too.

    A probe reads its orbit at the run's nodes, with the integrated
    probe's rules: a start on a level with outgoing slope exits at once
    (:func:`vwbound.ode.levels_at_start`); otherwise the orbit exits at
    the first node where a level (``W = w+-``, ``V = V*``, in its
    direction) is crossed, and the exit side is the sign of the chart
    coordinate there.

    The rounding rule keeps a node from deciding what the rounding of
    ``x`` and of the value read from it could flip.  With ``b = a + |x|``,
    a level value ``g = <M x, x> - c`` at a node counts only when ``|g| >
    (n + 2) eps <|M| (|x| + eps b), b> + eps |c|``, and the chart
    coordinate ``s = <C e, x>`` of the exit node only when ``|s| > (n + 2)
    eps <|C| |e|, b>``.  A level is crossed at the first node where it
    counts as out while the last node where it counted was inside; nodes
    in between decide nothing, so an orbit whose exit the rounding hides
    stays.  When the side does not count, or two levels are crossed at
    the same node, the probe is left undecided (``None``) for an
    integrated probe to answer.
    """

    def __init__(self, qp: QuadraticProblem, chart: DiskChart,
                 run: Trajectory, events):
        n = qp.n
        self.qp, self.chart, self.events = qp, chart, events
        self.ts = run.ts
        self.p = np.ascontiguousarray(run.xs[:, :n])
        self.q = np.ascontiguousarray(run.xs[:, n:])
        self.mag_p, self.mag_q = np.abs(self.p), np.abs(self.q)
        self.eps = np.finfo(float).eps
        self.slack = (n + 2) * self.eps
        # the level matrices side by side, M = [M_1 | M_2 ...], one matrix
        # when none depends on t, else a stack over the nodes; ``blocks``
        # sums each block of a row of x^T M times [y | y ...]
        forms: dict = {}  # level matrix -> its block
        for ev in events:
            forms.setdefault(ev.form[0], len(forms))
        if any(m.depends_on_t for m in forms):
            mats = [m.stack(self.ts) for m in forms]
        else:
            mats = [m.eval(chart.t) for m in forms]
        self.mat = np.concatenate(mats, axis=-1)
        self.mat_abs = np.abs(self.mat)
        self.n_forms = len(forms)
        self.blocks = np.kron(np.eye(self.n_forms), np.ones((n, 1)))
        self.which = [forms[ev.form[0]] for ev in events]
        self.direction = np.array([[ev.direction] for ev in events], float)
        self.level = np.array([[ev.form[1]] for ev in events], float)
        self.levels = np.arange(len(events))
        # flat index of node 0 of each level's row
        self.rows = self.levels[:, None] * self.ts.size
        self.nodes = np.arange(self.ts.size)
        self.charts = {}  # node -> exit chart

    def states(self, u: float) -> np.ndarray:
        """The orbit from ``chart.point(u)`` at the run's nodes."""
        return self.p + u * self.q

    def _pairing(self, mat: np.ndarray, x: np.ndarray,
                 y: np.ndarray) -> np.ndarray:
        """``x_k^T M_i y_k``, row i for each level matrix, column k for
        each node."""
        xm = x @ mat if mat.ndim == 2 else (x[:, None, :] @ mat)[:, 0, :]
        return ((xm * np.tile(y, self.n_forms)) @ self.blocks).T

    def _levels(self, u: float, x: np.ndarray, rows: slice):
        """The rounding rule's ``(g, r)`` at the nodes ``rows`` of the
        orbit ``x`` from ``chart.point(u)``, a row per level."""
        x = x[rows]
        x_abs = np.abs(x)
        b = self.mag_p[rows] + abs(u) * self.mag_q[rows] + x_abs
        mat, mat_abs = self.mat, self.mat_abs
        if mat.ndim == 3:
            mat, mat_abs = mat[rows], mat_abs[rows]
        values = self._pairing(mat, x, x)
        bounds = self._pairing(mat_abs, x_abs + self.eps * b, b)
        g = self.direction * (values[self.which] - self.level)
        r = self.slack * bounds[self.which] + self.eps * np.abs(self.level)
        return g, r

    def first_exit(self, u: float, x: np.ndarray):
        """``(k, events)``: the first node ``k >= 1`` where the orbit ``x``
        from ``chart.point(u)`` crosses a level, by the rounding rule, and
        the events crossed there; ``None`` when it crosses none."""
        g, r = self._levels(u, x, slice(None))
        out, inside = g > r, g < -r
        # per level, the last node up to each one where it counted (node 0
        # when none did, which then counts as inside only if it was)
        last = np.maximum.accumulate((out | inside) * self.nodes, axis=1)
        crossing = out[:, 1:] & inside.ravel()[last[:, :-1] + self.rows]
        at = crossing.argmax(axis=1)
        hit = crossing[self.levels, at]
        if not hit.any():
            return None
        at = np.where(hit, at + 1, self.ts.size)
        k = int(at.min())
        return k, [ev for ev, k_ev in zip(self.events, at) if k_ev == k]

    def inside_at_end(self, u: float, x: np.ndarray) -> bool:
        """Whether every level counts as inside at the last node of the
        orbit ``x`` from ``chart.point(u)``, by the rounding rule."""
        g, r = self._levels(u, x, slice(-1, None))
        return bool((g < -r).all())

    def root_at_end(self) -> float | None:
        """The start whose chart coordinate vanishes at the run's last
        node, ``-s_p / s_q`` there; ``None`` when that is not finite."""
        chart = _exit_chart(self.qp, self.chart, float(self.ts[-1]))
        s_p = float(chart.coords(self.p[-1])[0])
        s_q = float(chart.coords(self.q[-1])[0])
        u = -s_p / s_q if s_q else math.nan
        return u if math.isfinite(u) else None

    def probe(self, u: float) -> Stayed | Exited | None:
        """:func:`classify_start` at ``chart.point(u)`` in closed form, or
        ``None`` when no node may decide it."""
        t0 = self.chart.t
        x = self.states(u)
        x0 = x[0].tolist()
        _, fired = levels_at_start(self.events, t0, x0, self.qp.rhs(t0, x0),
                                   1.0)
        if fired and fired[-1].terminal:
            return Exited(t=t0, kind=fired[-1].kind, x=x[0])
        hit = self.first_exit(u, x)
        if hit is None:
            return Stayed(traj=None)
        k, crossed = hit
        if len(crossed) > 1:
            return None
        chart_k = self.charts.get(k)
        if chart_k is None:
            chart_k = self.charts[k] = _exit_chart(self.qp, self.chart,
                                                   float(self.ts[k]))
        side = float(chart_k.coords(x[k])[0])
        b_k = self.mag_p[k] + abs(u) * self.mag_q[k] + np.abs(x[k])
        bound = self.slack * float(
            np.abs(chart_k.basis[:, 0]) @ np.abs(chart_k.c_mat) @ b_k)
        if not abs(side) > bound:
            return None
        return Exited(t=float(self.ts[k]), kind=crossed[0].kind, x=x[k],
                      side=math.copysign(1.0, side))


class _Chords:
    """The restarts of an integrated bisection on a one-dimensional disk
    (:func:`find_trapped_start`), at the checkpoints ``ts``: every
    ``RESTART_DT`` from the disk's time ``chart.t`` to ``read_from``, the
    first time the caller reads the start's orbit.

    A bracket end is an integrated orbit, kept as ``(i, xs)``: its states
    ``xs`` (float lists) at the checkpoints ``ts[i:]`` it reached before it
    left the region, read off the dense output of the one window its run
    kept (:meth:`keep`, :meth:`record`).  A restarted probe starts at a
    checkpoint, whose state is its first.  The invariant: every chord a
    probe restarts on joins two states of orbits that exit on opposite
    sides, and lies inside the region by every level (:meth:`restart`), as
    the bracket at the disk does; so some start on it stays, up to the
    integrator's tolerance, as for a start on the disk.
    """

    def __init__(self, qp: QuadraticProblem, chart: DiskChart, events,
                 read_from: float):
        span = math.floor((read_from - chart.t) / RESTART_DT + 1e-9)
        self.ts = chart.t + RESTART_DT * np.arange(1.0, span + 1.0)
        self.n = qp.n
        self.bound = (RESTART_CHORD * chart.radius) ** 2  # of |chord|^2
        forms = {q.matrix: q for q in (qp.quad_w, qp.quad_v)}
        self.levels = [(forms[ev.form[0]], ev.form[1], float(ev.direction))
                       for ev in events]

    def keep(self, at) -> list:
        """The window a probe started at ``at`` (a checkpoint ``(i, x)``,
        ``None`` at the disk) keeps: its checkpoints after the start."""
        first = 0 if at is None else at[0] + 1
        return [(self.ts[first], self.ts[-1])] if first < self.ts.size else []

    def record(self, at, res: Stayed | Exited) -> tuple:
        """The bracket end ``(i, xs)`` of the probe ``res`` started at
        ``at``: its states at the checkpoints before its exit."""
        first = 0 if at is None else at[0] + 1
        xs = np.empty((0, self.n))
        if res.traj is not None and first < self.ts.size:
            xs = dense_at(res.traj.steps, self.ts[first:]).reshape(-1, self.n)
        if not res.is_stayed:
            xs = xs[self.ts[first:first + len(xs)] < res.t]
        if at is None:
            return 0, xs.tolist()
        return at[0], [at[1].tolist()] + xs.tolist()

    def restart(self, a: tuple, b: tuple):
        """The latest checkpoint at which the chord between the bracket
        ends ``a`` and ``b`` is at most ``RESTART_CHORD`` radii long and
        inside the region by every level, and the chord's midpoint there:
        ``(i, x)``, or ``None`` when there is none.

        A level ``g = d (<M x, x> - c)`` (inside where negative, ``d`` its
        direction) along the chord ``x_a + s (x_b - x_a)`` is ``(1 - s)
        g_a + s g_b - d s (1 - s) <M delta, delta>``, ``delta = x_b -
        x_a``, at most ``max(g_a, g_b) + max(0, -d <M delta, delta>) / 4``.
        """
        (i_a, xs_a), (i_b, xs_b) = a, b
        for i in range(min(i_a + len(xs_a), i_b + len(xs_b)) - 1,
                       max(i_a, i_b) - 1, -1):
            xa, xb = xs_a[i - i_a], xs_b[i - i_b]
            delta = [q - p for p, q in zip(xa, xb)]
            if sum(v * v for v in delta) <= self.bound and self._inside(
                    float(self.ts[i]), xa, xb, delta):
                return i, 0.5 * (np.array(xa) + np.array(xb))
        return None

    def _inside(self, t, xa, xb, delta) -> bool:
        """Whether the chord from ``xa`` to ``xb = xa + delta`` at ``t``
        lies inside by every level, by :meth:`restart`'s bound on the
        compiled form of the level's matrix (``qp.quad_w`` or ``quad_v``)."""
        return all(
            max(d * (q(t, xa) - c), d * (q(t, xb) - c))
            + 0.25 * max(0.0, -d * q(t, delta)) < 0.0
            for q, c, d in self.levels)


def find_trapped_start(
    qp: QuadraticProblem,
    t_j: float,
    v0: float,
    v_star: float,
    config: ShootingConfig | None = None,
    keep=(),
) -> TrappedStart:
    """Localize a start on the disk at ``t_j`` whose orbit stays in the
    region until ``t_j + horizon_span``.

    One-dimensional positive subspace: bisection on the chart interval,
    steered by the sign of the exit chart coordinate, from the whole disk
    ``[-r, r]``, whose ends must exit on opposite sides.  Raises
    :class:`NoSignChange` when both ends exit the same side: a forcing
    strong enough to move the bounded solution off the disk.  ``keep``
    holds the windows the caller reads the start's orbit over.

    With A free of the state, the probes are read off one run of the pair
    system to the horizon, its steps kept over the ``keep`` windows
    (:class:`_PairOrbits`; the start is then ``closed_form`` and carries
    the run), and only a probe no node may decide is integrated from the
    disk (:func:`classify_start`).  Such a search bisects from a cell
    around the run's horizon root (:meth:`_PairOrbits.root_at_end`); when
    both its ends exit on one side, the cell widens to the whole disk,
    and the search bisects only the flank whose ends exit on opposite
    sides.  A root off the disk seeds no cell.

    Otherwise every probe is integrated, and a bracket end is an orbit:
    the bisection restarts forward in time (:class:`_Chords`).  Each probe
    starts at the midpoint of the chord between the two ends' states at
    the latest checkpoint, no later than the first ``keep`` window (the
    disk's time when there is none), where that chord is at most
    ``RESTART_CHORD`` times the disk radius and lies inside the region by
    every level; while there is none it starts on the disk.  Every chord
    joins two states, inside the region, of orbits that exit on opposite
    sides, which is what the bracket at ``t_j`` guarantees, so a start
    that stays lies on it.  The ends keep the chart coordinates of the
    disk as labels: the bisection halves them to the same resolution
    ``u_tol`` in the same number of ``iterations``, and the start found
    is the midpoint of the last chord, at its time.

    Either way a start that stays ends the search.

    Higher-dimensional disks: budgeted refinement around the start with
    the latest exit (a heuristic — existence is guaranteed by the
    topological argument, constructive localization is not); raises
    :class:`BudgetExhausted` when the budget runs out.
    """
    config = config or ShootingConfig()
    chart = make_disk_chart(qp, t_j)
    horizon = t_j + config.horizon_span
    u_tol = 4.0 * float(np.finfo(float).eps) * chart.radius

    steps = [0, 0]  # accepted and rejected, over the integrations so far
    events = make_region_events(
        qp.quad_w, qp.quad_v, qp.w_plus, qp.w_minus, v0, v_star
    )
    exit_row = _exit_row(qp, chart)

    def counted(traj):
        steps[0] += traj.n_accepted
        steps[1] += traj.n_rejected

    closed = run = chords = None
    if chart.n_plus == 1 and not qp.a.depends_on_state:
        try:
            run = _pair_run(qp, chart, horizon, config.integrator_tol, keep)
        except StepSizeUnderflow:
            pass  # every probe is integrated, and reports its blow-up
        else:
            counted(run)
            closed = _PairOrbits(qp, chart, run, events)
    if chart.n_plus == 1 and closed is None:
        chords = _Chords(qp, chart, events,
                         min((a for a, _ in keep), default=t_j))
        if not chords.ts.size:  # the caller reads the orbit from t_j on
            chords = None

    def start_of(u, at):
        """The time and state of the charted start ``u``, or of the
        restart ``at = (i, x)`` on a chord (see :class:`_Chords`)."""
        if at is None:
            return chart.t, chart.point(u)
        return float(chords.ts[at[0]]), at[1]

    def probe(u, at=None):
        res = None if closed is None else closed.probe(float(u[0]))
        if res is None:
            res = classify_start(qp, *start_of(u, at), horizon,
                                 config.integrator_tol, events, exit_row,
                                 () if chords is None else chords.keep(at))
            if res.traj is not None:  # None after a blow-up
                counted(res.traj)
        return res

    def found(u, iterations, bracket_width, stayed, kinds=(), at=None):
        t0, x0 = start_of(u, at)
        return TrappedStart(
            t=t_j, u=np.asarray(u), t0=t0, x0=x0, chart=chart,
            iterations=iterations, bracket_width=bracket_width,
            stayed=stayed, exit_kinds=tuple(sorted(kinds)),
            steps_accepted=steps[0], steps_rejected=steps[1],
            closed_form=closed is not None,
            pair_run=run,
        )

    def side_of(u_scalar: float, at=None):
        res = probe([u_scalar], at)
        if chords is not None:
            ends[u_scalar] = chords.record(at, res)
        if res.is_stayed:
            return None, res
        return _exit_side(qp, chart, res), res

    if chart.n_plus == 1:
        lo, hi = -chart.radius, chart.radius
        # the first cell: a few u_tol around the horizon root of a pair run
        # when that lies on the disk; a cell whose ends exit on one side
        # widens to the whole disk
        guess = None if closed is None else closed.root_at_end()
        cells = [(lo, hi)]
        if guess is not None and lo <= guess <= hi:
            half = SEED_HALF_WIDTH * u_tol
            cells.insert(0, (max(lo, guess - half), min(hi, guess + half)))
        sides = {}  # probed start -> its exit side
        ends = {}  # probed start -> its orbit's checkpoints (_Chords)
        kinds = set()
        iters = 0
        for cell in cells:
            for end in cell:
                if end not in sides:
                    sides[end], res = side_of(end)
                    iters += 1
                    if sides[end] is None:
                        return found(np.array([end]), iters,
                                     cell[1] - cell[0], True, kinds)
                    kinds.add(res.kind)
            if sides[cell[0]] * sides[cell[1]] <= 0.0:
                break
        else:
            side = math.copysign(1.0, sides[lo])
            raise NoSignChange(
                f"both bracket ends [{lo:.6g}, {hi:.6g}] exit with chart side "
                f"{side:+.0f} at t_j = {t_j:g}", side=side)
        # the sign change lies between two neighbouring probed starts: on
        # the flank of a missed cell, the bracket end to the cell end
        probed = sorted(sides)
        lo, hi = next((a, b) for a, b in zip(probed, probed[1:])
                      if sides[a] * sides[b] <= 0.0)
        lo, hi = (hi, lo) if sides[lo] > 0.0 else (lo, hi)  # negative at lo
        while abs(hi - lo) > u_tol and iters < 200:
            mid = 0.5 * (lo + hi)
            at = None if chords is None else chords.restart(ends[lo], ends[hi])
            side_mid, res_mid = side_of(mid, at)
            iters += 1
            if side_mid is None:
                return found(np.array([mid]), iters, abs(hi - lo), True, kinds,
                             at)
            kinds.add(res_mid.kind)
            if side_mid > 0.0:
                hi = mid
            else:
                lo = mid
        at = None if chords is None else chords.restart(ends[lo], ends[hi])
        return found(np.array([0.5 * (lo + hi)]), iters, abs(hi - lo), False,
                     kinds, at)

    # n_plus >= 2: refine around the longest-staying start
    spent = 0
    rho = 0.5 * chart.radius
    center = np.zeros(chart.n_plus)
    best_u = center.copy()
    best_exit = -math.inf
    kinds: set[str] = set()

    while spent < BUDGET:
        candidates = [center]
        for k in range(chart.n_plus):
            for sign in (+1.0, -1.0):
                cand = center.copy()
                cand[k] += sign * rho
                norm = float(np.linalg.norm(cand))
                if norm > chart.radius:
                    cand *= chart.radius / norm
                candidates.append(cand)
        results = [probe(u) for u in candidates]
        spent += len(candidates)
        for u, res in zip(candidates, results):
            if res.is_stayed:
                return found(u, spent, rho, True, kinds)
            kinds.add(res.kind)
            if res.t > best_exit:
                best_exit = res.t
                best_u = np.asarray(u, dtype=float).copy()
        center = best_u
        rho *= 0.5
        if rho <= u_tol:
            return found(best_u, spent, rho, False, kinds)
    raise BudgetExhausted(
        f"{BUDGET} classify calls spent without localizing a trapped start "
        f"on the {chart.n_plus}-dimensional disk at t_j = {t_j:g} "
        "(heuristic search; this does not disprove existence)"
    )


# ---------------------------------------------------------------------------
# the rung tasks


@dataclass
class Rung:
    """What the task of one rung computed, in the process that searched
    it: the trapped start and, when the rung claims nodes, its quilt patch
    (the node times, the states, V and W at each), each or the toolkit
    error it raised, raised where the caller reads it; and on an xi rung
    whose pair run reaches 0, the orbit to 0."""

    start: TrappedStart | VWBoundError
    patch: tuple | VWBoundError | None = None
    xi: Trajectory | None = None


def _run_rung(qp, t, v0, v_star, config, claim, exits=None) -> Rung:
    """The task of the rung at ``t``: the search, whose pair run keeps its
    steps over ``claim`` (if not ``None``) and, given the region levels
    ``exits`` of an xi rung, over t = 0; then what the rung reads off it."""
    windows = [] if claim is None else [(claim[0], claim[-1])]
    if exits is not None:
        windows = sorted(windows + [(0.0, 0.0)])
    try:
        start = find_trapped_start(qp, t, v0, v_star, config, windows)
    except VWBoundError as exc:
        return Rung(exc)
    run, start.pair_run = start.pair_run, None
    rung = Rung(start)
    if claim is not None:
        try:
            xs = _patch(qp, start, run, claim, config.integrator_tol)
        except VWBoundError as exc:
            rung.patch = exc
        else:
            rung.patch = (claim, xs, quad_along(qp.b.stack(claim), xs),
                          quad_along(qp.c.stack(claim), xs))
    if run is not None and exits is not None:
        rung.xi = _pair_xi(qp, start, run, exits)
    return rung


def _patch(qp, start, run, claim, tol) -> np.ndarray:
    """The states of ``start``'s orbit at the claim's times: for a
    closed-form start ``p + u q`` on the dense output of its search run's
    kept steps, on the orbit the search probed (one integrated from the
    start would drift off it by the chart resolution times ``e^(t -
    start.t)``); else integrated from ``(start.t0, start.x0)``, no later
    than the claim's first time, to the claim's end, on the dense output
    of the steps kept over the claim and the run's end node.  A claim ends
    by ``start.t + SETTLE + MAX_SPACING``, inside the horizon ``start.t +
    36`` that :func:`bounded_solution` searches to, so a search run that
    ends before its claim is a programming error and raises."""
    if not start.closed_form:
        run = integrate(qp.rhs, start.t0, start.x0, claim[-1], tol=tol,
                        nodes=False, keep=[(claim[0], claim[-1])])
        return np.vstack([dense_at(run.steps, claim[:-1]).reshape(-1, qp.n),
                          run.xs[-1:]])
    pairs = dense_at(run.steps, claim)
    if len(pairs) < claim.size:
        raise RuntimeError(f"the search run from t = {start.t:g} ends "
                           f"before its claim's end {claim[-1]:g}")
    return pairs[:, :qp.n] + float(start.u[0]) * pairs[:, qp.n:]


def _pair_xi(qp, start, run, events) -> Trajectory | None:
    """The orbit of the closed-form ``start`` to t = 0 off its pair run:
    the run's nodes before 0 and the dense state at 0, the ``events``
    read off them by :class:`_PairOrbits`' rules.  It holds the start
    and the end or exit node; ``None`` when the run ends before 0.  An
    orbit that crosses no level but at 0 is not inside by every level
    (its exit may be hidden by rounding) has the status ``undecided``."""
    at_0 = dense_at(run.steps, [0.0])
    if not len(at_0):
        return None
    k = int(np.searchsorted(run.ts, 0.0))
    nodes = Trajectory(ts=np.append(run.ts[:k], 0.0),
                       xs=np.vstack([run.xs[:k], at_0]))
    orbits = _PairOrbits(qp, start.chart, nodes, events)
    u = float(start.u[0])
    xs = orbits.states(u)
    hit = orbits.first_exit(u, xs)
    k, status = -1, "reached_end"
    if hit is not None:
        k, status = hit[0], f"event:{hit[1][0].kind}"
    elif not orbits.inside_at_end(u, xs):
        status = "undecided"
    return Trajectory(ts=nodes.ts[[0, k]], xs=xs[[0, k]], status=status)


def _xi_orbit(qp, start, tol, events) -> Trajectory:
    """The orbit of ``start`` to t = 0 where no rung task read it: a pair
    run to 0 read by :func:`_pair_xi` for a closed-form start, else
    integrated from ``(start.t0, start.x0)`` with the region levels
    ``events`` watched."""
    if start.closed_form:
        run = _pair_run(qp, start.chart, 0.0, tol, [(0.0, 0.0)])
        return _pair_xi(qp, start, run, events)
    return integrate(qp.rhs, start.t0, start.x0, 0.0, tol=tol, events=events,
                     nodes=False)


def _run_share(task, share) -> list:
    """``task`` at each position of ``share`` in order, until a rung search
    fails; ``None`` for the positions after that, which nothing searched."""
    out = []
    for k in share:
        out.append(task(k))
        if isinstance(out[-1].start, VWBoundError):
            break
    return out + [None] * (len(share) - len(out))


def _rung_processes(n_rungs: int) -> int:
    """One process per CPU the process may use, at most one per rung; one
    where the affinity set or ``fork`` is not available."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_rungs))


def _serve_share(write_end: int, task, share):
    """Body of a forked worker: run ``share``, pickle the results into the
    pipe and leave through ``os._exit``, so that no exit handler runs
    and no inherited stdio buffer is flushed a second time."""
    code = 1
    try:
        payload = pickle.dumps(_run_share(task, share))
        with os.fdopen(write_end, "wb") as pipe:
            pipe.write(payload)
        code = 0
    except BaseException:
        # nothing may propagate into the caller's frames, which this
        # process shares with the caller: print it; the caller names the
        # rungs this worker did not return
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def _reap(pid: int, pipe, kill: bool) -> int:
    """Wait for a worker, killing it first when its results are no longer
    wanted; returns its wait status."""
    pipe.close()
    if kill:
        import signal  # only on this path: it costs ~1.5 ms to import

        os.kill(pid, signal.SIGKILL)
    return os.waitpid(pid, 0)[1]


def search_rungs(task, times) -> list:
    """Run the rung task ``task(k)``, a :class:`Rung`, at each position
    ``k`` of ``times``: per position, in order, its rung, or ``None``
    where the process that had it stopped at an earlier failed search.

    With ``w`` processes the calling process runs positions ``0::w`` and
    forked worker ``i`` runs ``i::w``, each share in order, pickling its
    rungs into a pipe; a share whose fork fails is run by the calling
    process.  Every worker has been reaped when this returns or raises.

    Raises
    ------
    RungWorkerLost
        When a worker ends without sending all its results.
    """
    w = _rung_processes(len(times))
    results = [None] * len(times)
    local = [0]  # shares the calling process runs
    workers = []  # (share index, pid, read end of its pipe)
    payloads = None
    try:
        for i in range(1, w):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # a process limit, say
                os.close(read_end)
                os.close(write_end)
                local.append(i)
                continue
            if pid == 0:
                _serve_share(write_end, task, range(i, len(times), w))
            os.close(write_end)
            workers.append((i, pid, os.fdopen(read_end, "rb")))
        for i in local:
            results[i::w] = _run_share(task, range(i, len(times), w))
        payloads = [pipe.read() for _, _, pipe in workers]
    finally:
        statuses = [_reap(pid, pipe, kill=payloads is None)
                    for _, pid, pipe in workers]
    for k, ((i, _, _), status) in enumerate(zip(workers, statuses)):
        try:
            found = pickle.loads(payloads[k])
        except (EOFError, pickle.UnpicklingError):  # truncated or empty
            found = []
        payloads[k] = None  # the bytes are not needed once unpickled
        if len(found) != len(results[i::w]):
            code = os.waitstatus_to_exitcode(status)
            how = (f"was killed by signal {-code}" if code < 0
                   else f"exited with status {code}")
            raise RungWorkerLost(times[i::w], how)
        results[i::w] = found
    return results


# ---------------------------------------------------------------------------
# the bounded solution


@dataclass
class BoundedSolutionResult:
    """Trapped trajectory plus the convergence bookkeeping behind it."""

    traj: Trajectory
    v: np.ndarray  # V and W at each node of traj, as the rung tasks
    w: np.ndarray  # computed them
    xi: np.ndarray
    xi_sequence: list  # (j, t_j, xi_j)
    converged_at_j: int
    sup_v: float
    sup_v_time: float
    rungs: list  # TrappedStart per rung searched, by time


def _rung_schedule(t_lo: float, t_hi: float) -> list:
    """The rungs of a solve on ``(t_lo, t_hi)`` as ``(t, claim, xi)``, in
    the order it reads them: xi rung ``t_j = -j * spacing`` at position
    ``j - 1``, then the other ladder rungs ``t_lo + k * spacing`` in time
    order; ``claim`` holds a ladder rung's grid nodes (``None`` for none).
    ``spacing = |t_lo| / m``, ``m = max(J_COUNT, ceil(|t_lo| /
    MAX_SPACING))``, and ladder rung ``k`` is xi rung ``m - k`` when that
    is in ``1..J_COUNT``.  See :func:`bounded_solution`."""
    m = max(J_COUNT, math.ceil(abs(t_lo) / MAX_SPACING))
    spacing = abs(t_lo) / m
    k = 0  # the last ladder rung
    while t_lo + k * spacing + SETTLE + spacing < t_hi:
        k += 1
    # (t, ladder index) of each rung, in list order
    rungs = [(-j * spacing, m - j) for j in range(1, J_COUNT + 1)]
    rungs += [(t_lo + i * spacing, i) for i in range(k + 1)
              if not m - J_COUNT <= i < m]
    grid_start = t_lo + SETTLE
    n_nodes = int(round((t_hi - grid_start) / SAMPLE_DT))
    grid = grid_start + SAMPLE_DT * np.arange(n_nodes + 1)
    claims = {}  # ladder index -> claim
    prev_end = -math.inf
    for t, i in sorted(rungs, key=lambda rung: rung[1])[:k + 1]:
        span_end = min(t + SETTLE + spacing, t_hi)
        claim = grid[(grid > prev_end + 1e-12) & (grid <= span_end + 1e-12)]
        # a node past T+ by rounding is T+, inside the certificate's grid
        claims[i] = np.minimum(claim, t_hi) if claim.size else None
        prev_end = span_end
    return [(t, claims.get(i), at < J_COUNT)
            for at, (t, i) in enumerate(rungs)]


def _read(part):
    """A rung part, or the toolkit error it holds raised."""
    if isinstance(part, VWBoundError):
        raise part
    return part


def bounded_solution(
    qp: QuadraticProblem,
    cert: Certificate,
    config: ShootingConfig | None = None,
) -> BoundedSolutionResult:
    """Find the V-bounded solution and return it on
    ``[T- + SETTLE, T+]`` with nodes ``SAMPLE_DT`` apart.

    The ladder ``t_k = T- + k * spacing``, ``spacing <= MAX_SPACING``,
    supplies trapped starts; the xi schedule ``t_j = -j * spacing``
    (``xi_j = x_j(0)``, converged at the first j with two consecutive
    increments below ``XI_TOL``) shares its rungs below zero.  Each
    ladder rung claims the grid nodes of its span ``(t_k + SETTLE, t_k +
    SETTLE + spacing]``, where its transient has decayed and its
    chart-resolution error not yet grown, less the claims below it; the
    claims tile the window, so every node carries the same error band.
    The rungs form one list (:func:`_rung_schedule`), read in order.

    Raises
    ------
    NotConverged
        When the xi increments never meet the tolerance on the rungs
        whose orbits reach t = 0 (diagnostic: window too short or
        tolerance too tight); the observed sequence is attached.
    NoSignChange, BudgetExhausted
        From the first rung in list order whose search found no start.
    DocumentError
        When the walk converges but the window leaves no grid node.
    RungWorkerLost
        When a forked worker of :func:`search_rungs` ends without its
        results.
    """
    config = config or ShootingConfig()
    t_lo, t_hi = qp.window
    exits = make_region_events(
        qp.quad_w, qp.quad_v, qp.w_plus, qp.w_minus, cert.v0, cert.v_star
    )
    schedule = _rung_schedule(t_lo, t_hi)

    # every rung's task runs up front, spread over the CPUs; a failed part
    # raises where it is read
    def task(k):
        t, claim, xi = schedule[k]
        return _run_rung(qp, t, cert.v0, cert.v_star, config, claim,
                         exits if xi else None)

    found = search_rungs(task, [t for t, _, _ in schedule])

    # the xi walk, until two consecutive increments drop below the
    # tolerance
    xi_sequence: list[tuple[int, float, np.ndarray]] = []
    converged_at = 0
    prev_d = math.inf
    stopped = ""  # why the walk stopped before converging, if it did
    for j, ((t_j, _, _), r) in enumerate(zip(schedule[:J_COUNT], found), 1):
        start = _read(r.start)
        traj = r.xi or _xi_orbit(qp, start, config.integrator_tol, exits)
        if traj.status != "reached_end":
            stopped = (
                f"; the orbit from t_j = {t_j:g} does not reach 0 inside "
                f"the region ({traj.status} at t = {traj.t_end:.6g}), so "
                f"xi_{j} is unavailable"
            )
            break
        xi_sequence.append((j, t_j, traj.x_end))
        if j > 1:
            d = float(np.linalg.norm(traj.x_end - xi_sequence[-2][2]))
            if d <= XI_TOL and prev_d <= XI_TOL:
                converged_at = j
                break
            prev_d = d
    if not converged_at:
        raise NotConverged(
            "xi increments never dropped below the tolerance "
            f"{XI_TOL:g} on the available rungs{stopped}",
            xi_sequence=xi_sequence,
        )

    # every start, in list order, so that the first failed search raises
    for r in found:
        _read(r.start)
    rungs = sorted(found, key=lambda r: r.start.t)

    # quilt assembly: the claims tile the grid in time order, and each
    # patch holds exactly its claim's nodes
    patches = [_read(r.patch) for r in rungs if r.patch is not None]
    if not patches:
        raise DocumentError(
            f"the window ({t_lo:g}, {t_hi:g}) leaves no trajectory node in "
            f"[T- + SETTLE, T+] = [{t_lo + SETTLE:g}, {t_hi:g}] (SETTLE = "
            f"{SETTLE:g})", key="window")
    ts, xs, vs, ws = (np.concatenate(part) for part in zip(*patches))
    traj = Trajectory(ts=ts, xs=xs, events=[], status="reached_end")
    i_max = int(np.argmax(vs))
    return BoundedSolutionResult(
        traj=traj, v=vs, w=ws, xi=xi_sequence[-1][2],
        xi_sequence=xi_sequence, converged_at_j=converged_at,
        sup_v=float(vs[i_max]), sup_v_time=float(traj.ts[i_max]),
        rungs=[r.start for r in rungs])


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerifyReport:
    """Pointwise check of a trajectory against its certificate.

    This is the toolkit's primary self-check: a violation means the
    certificate is unsound or under-sampled, not merely that a tolerance
    was missed.
    """

    passed: bool
    coverage: tuple[float, float]
    n_nodes: int
    sup_v: float
    sup_v_time: float
    slack_envelope: float
    slack_const: float
    slack_closed_form: float
    w_range_margin: float
    clock_margin: float
    clock_nodes: int
    violations: list
    notes: list


def verify_bound(
    qp: QuadraticProblem,
    cert: Certificate,
    traj: Trajectory,
) -> VerifyReport:
    """Compare V along ``traj`` against the certified ceilings.

    Checks, per node: V below the time-dependent envelope ceiling
    (conservatively interpolated between certificate grid points), V
    below the constant ceiling ``v_small_star``, V below the closed-form
    constants-only ceiling, W strictly inside (w-, w+), and — on nodes
    with V > v0 — the growth-clock inequality
    ``|dF(V)/dt| <= dW/dt + CLOCK_TOL``.  Every check fails closed: a
    ``nan`` slack or margin is a violation.
    """
    gp = cert.growth_pair()
    curves = eval_v_w_along(qp, traj, gp)
    violations: list[str] = []
    notes: list[str] = []

    # conservative envelope between certificate grid points: sup over
    # s >= t from the left grid neighbour, inf over s <= t from the right,
    # the last interval's at the grid's last time; a node outside the grid,
    # or whose argument F cannot reach below Vmax, has no ceiling, which is
    # a violation
    inside = np.flatnonzero((traj.ts >= cert.ts[0]) & (traj.ts <= cert.ts[-1]))
    if inside.size < traj.ts.size:
        violations.append(
            f"{traj.ts.size - inside.size} of the {traj.ts.size} nodes lie "
            f"outside the certificate grid [{cert.ts[0]:g}, {cert.ts[-1]:g}],"
            " where no ceiling is certified"
        )
    idx = np.searchsorted(cert.ts, traj.ts[inside], side="right") - 1
    idx = np.minimum(idx, cert.ts.size - 2)
    ceiling, misses = envelope_ceilings(
        lambda z: growth_integral_inv(gp, z), cert.lam_plus * cert.v0,
        cert.lam_minus * cert.v0, idx, idx + 1,
    )
    for first, exc in misses:
        violations.append(
            f"no envelope ceiling from t = {float(traj.ts[inside[first]]):.6g}"
            f": F never reaches {exc.z:.6g} below Vmax = {exc.vmax:.6g} "
            f"(F(Vmax) = {exc.reached:.6g})"
        )
    gaps = ceiling - curves.v[inside]
    slack_env = float(np.min(gaps, initial=math.inf))
    if not slack_env > 0.0:
        violations.append(
            f"V exceeds the envelope ceiling by {-slack_env:.3e} at "
            f"t = {traj.ts[inside[int(np.argmin(gaps))]]:.6g}"
        )

    i_max = int(np.argmax(curves.v))
    sup_v = float(curves.v[i_max])
    slack_const = cert.v_small_star - sup_v
    if not slack_const > 0.0:
        violations.append(
            f"sup V = {sup_v:.9g} exceeds the constant ceiling "
            f"{cert.v_small_star:.9g}"
        )
    spread = float(np.max(cert.lam_plus) - np.min(cert.lam_minus))
    closed = closed_form_ceiling(gp, spread)
    slack_closed = closed - sup_v
    if not slack_closed > 0.0:
        violations.append(
            f"sup V = {sup_v:.9g} exceeds the closed-form ceiling "
            f"{closed:.9g}"
        )

    w_margin = float(
        np.min(np.minimum(cert.w_plus - curves.w, curves.w - cert.w_minus))
    )
    if not w_margin > -1e-9 * (1.0 + abs(cert.w_plus) + abs(cert.w_minus)):
        violations.append(
            f"W leaves ({cert.w_minus:g}, {cert.w_plus:g}) by {-w_margin:.3e}"
        )

    above = curves.v > cert.v0
    clock_nodes = int(np.count_nonzero(above))
    if clock_nodes:
        margins = curves.w_dot[above] - np.abs(curves.f_dot[above])
        clock_margin = float(np.min(margins))
        if not clock_margin >= -CLOCK_TOL:
            violations.append(
                f"growth-clock inequality violated by {-clock_margin:.3e}"
            )
    else:
        clock_margin = math.inf
        notes.append("no nodes with V > v0; growth-clock check vacuous")

    t0, t1 = float(traj.ts[0]), float(traj.ts[-1])
    if inside.size == traj.ts.size and (
            t0 > cert.window[0] + 1e-9 or t1 < cert.window[1] - 1e-9):
        notes.append(
            f"trajectory covers [{t0:g}, {t1:g}], a subwindow of "
            f"[{cert.window[0]:g}, {cert.window[1]:g}]; comparisons "
            "restricted to the covered span"
        )

    return VerifyReport(
        passed=not violations, coverage=(t0, t1), n_nodes=int(traj.ts.size),
        sup_v=sup_v, sup_v_time=float(traj.ts[i_max]),
        slack_envelope=slack_env, slack_const=slack_const,
        slack_closed_form=slack_closed, w_range_margin=w_margin,
        clock_margin=clock_margin, clock_nodes=clock_nodes,
        violations=violations, notes=notes)


def write_xi_csv(path, xi_sequence):
    """CSV of the xi convergence sequence: ``j,t_j,xi_1,...,xi_n``."""
    n = len(xi_sequence[0][2]) if xi_sequence else 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("j,t_j," + ",".join(f"xi_{i + 1}" for i in range(n)) + "\n")
        for j, t_j, xi in xi_sequence:
            row = ",".join(f"{val:.17g}" for val in xi)
            fh.write(f"{j},{t_j:.17g},{row}\n")
