"""Adaptive explicit integrator with event location.

An embedded 5(4) Runge-Kutta pair (Dormand-Prince coefficients, first-same-
as-last; Dormand & Prince 1980, Hairer-Norsett-Wanner, *Solving ODEs I*,
II.4-II.6) propagates the fifth-order solution under PI step-size
control, keeping the local error estimate of every accepted step below
``tol * (1 + |x|)`` componentwise.  The pair's free fourth-order dense
output interpolates inside accepted steps; an event is bracketed by the
sign change of its level over an accepted step and located on the dense
output by the Illinois variant of regula falsi (Dowell & Jarratt 1971) to
``1e-12 max(1, |t|)`` in time.

The step loop is generated code (:func:`vwbound.expr.compile_stepper`),
one function per right-hand side and layout of watched levels, built on
the first :func:`integrate` that needs it and cached.  It holds the state
as scalar locals: the stages, the error norm, the rejection of non-finite
steps and the PI control are plain float arithmetic, with the entries of
``A`` and ``f0`` inlined for a right-hand side from
:func:`vwbound.expr.compile_rhs` (any other is called on float lists),
and a level marked as a quadratic form (:attr:`EventSpec.form`, as
:func:`make_region_events` marks W and V) is evaluated once per accepted
step.  The loop calls no builtin on its step path and folds
coefficients of exactly +-1, without changing a float it computes.  It
keeps the stages of the accepted steps over requested windows
(``keep``), whose dense output :func:`dense_at` evaluates at many times
in one stacked pass: a caller samples an orbit so, at times of its
choosing, after the run.  The cold path here begins where the loop hands
a step back: a level crossed (dense output, event location, truncation)
or a window ended, the end was reached, or an entry tripped a domain
issue, in which case that one step is retaken with every entry
interpreted, for the interpreter's value or error.  numpy is used only on
that path and for the arrays of the returned :class:`Trajectory`.  A run
records every accepted step as a node unless asked not to
(``nodes=False``): it then holds only the start and the end or
truncation node; the shooting probes run so, since they read only where
and how an orbit ends.  A probe on a one-dimensional disk reads even
less, the sign of one chart coordinate ``c . x`` at its exit, and passes
``c`` as ``exit_row``: when the step the run stops in crossed one
terminal level and provably cannot change that sign anywhere on its
dense output (:func:`_row_sign`), the run ends there with the sign,
without locating the exit.  Every other stop is located as above.

Blow-up shows up as step-size underflow and is reported as
:class:`~vwbound.errors.StepSizeUnderflow` with the last reachable point,
which the shooting layer treats as an exit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import StepSizeUnderflow
from .expr import compile_stepper

__all__ = [
    "EventSpec",
    "EventRecord",
    "Trajectory",
    "integrate",
    "dense_at",
    "levels_at_start",
    "make_region_events",
    "write_trajectory_csv",
    "VWCurves",
    "quad_along",
    "eval_v_w_along",
]

TOL_MIN = 1e-12
TOL_MAX = 1e-3
# accepted plus rejected steps after which integrate gives up
MAX_STEPS = 5_000_000

# The Dormand-Prince 5(4) tableau is written out in the generated step
# loop (vwbound.expr); the dense-output weights (order 4 continuous
# extension, one row per stage k0..k6) are used off the step path.
_P = np.array(
    [
        [
            1.0,
            -8048581381 / 2820520608,
            8663915743 / 2820520608,
            -12715105075 / 11282082432,
        ],
        [0.0, 0.0, 0.0, 0.0],
        [
            0.0,
            131558114200 / 32700410799,
            -68118460800 / 10900136933,
            87487479700 / 32700410799,
        ],
        [
            0.0,
            -1754552775 / 470086768,
            14199869525 / 1410260304,
            -10690763975 / 1880347072,
        ],
        [
            0.0,
            127303824393 / 49829197408,
            -318862633887 / 49829197408,
            701980252875 / 199316789632,
        ],
        [
            0.0,
            -282668133 / 205662961,
            2019193451 / 616988883,
            -1453857185 / 822651844,
        ],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


@dataclass
class EventSpec:
    """A scalar level function whose zero crossings are watched.

    ``level(t, x)`` gets ``x`` as an indexable sequence of floats (a list
    on the step path, an ndarray on the dense output).
    ``direction``: +1 fires on rising crossings, -1 on falling, 0 on any.
    ``terminal``: a firing event truncates the trajectory there.
    ``tol``: absolute tolerance used for the starts-on-the-boundary check.
    ``form``: ``(M, c)`` when ``level`` is ``<M(t) x, x> - c`` for a
    :class:`~vwbound.expr.MatrixFunction` ``M``; the step loop then
    inlines it instead of calling ``level``, with ``c`` as an argument.
    """

    kind: str
    level: callable
    direction: int = 0
    terminal: bool = True
    tol: float = 1e-9
    form: tuple | None = None


@dataclass
class EventRecord:
    kind: str
    t: float
    x: np.ndarray


@dataclass
class Trajectory:
    """Recorded solution path.

    ``ts``/``xs`` hold the nodes (the start and each accepted step; with
    :func:`integrate`'s ``nodes=False``, the start and the end); ``events``
    the located crossings in time order; ``status`` is ``"reached_end"``
    or ``"event:<kind>"`` when a terminal event truncated the run.
    ``side`` is +-1.0 when a run given an ``exit_row`` ended in a step
    that cannot change the sign of its exit coordinate: that sign, with
    the exit not located, ``events`` left empty and the step's end as
    the last node.  ``steps`` has a row ``(t, hs, x, k0..k6)`` per step
    kept over the run's windows, for :func:`dense_at`.
    """

    ts: np.ndarray
    xs: np.ndarray
    events: list = field(default_factory=list)
    status: str = "reached_end"
    n_accepted: int = 0
    n_rejected: int = 0
    n_rhs: int = 0
    side: float | None = None
    steps: np.ndarray = field(default_factory=lambda: np.empty((0, 0)),
                              repr=False)

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    @property
    def x_end(self) -> np.ndarray:
        return self.xs[-1]


def _rms(values, scale) -> float:
    return math.sqrt(sum((v / s) ** 2 for v, s in zip(values, scale)) / len(scale))


def _initial_step(rhs, t0, x0, f0, direction, tol, t_span):
    scale = [tol * (1.0 + abs(v)) for v in x0]
    d0 = _rms(x0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    x1 = [v + h0 * direction * f for v, f in zip(x0, f0)]
    f1 = rhs(t0 + h0 * direction, x1)
    d2 = _rms([a - b for a, b in zip(f1, f0)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, t_span)


def _dense_output(t, x, h_signed, stages):
    """The accepted step's continuous extension, ``tau -> x(tau)`` for
    ``tau`` in ``[t, t + h_signed]``; ``stages`` are k0..k6."""
    q = np.array(stages).T @ _P  # (n, 4)
    x = np.array(x)

    def at(tau):
        theta = (tau - t) / h_signed
        return x + h_signed * (q @ np.array([theta, theta**2, theta**3, theta**4]))

    return at


def dense_at(steps, taus) -> np.ndarray:
    """The dense output of kept steps (:attr:`Trajectory.steps`) at
    ``taus``, which run their way, in one stacked pass: the states at the
    first ``m`` times the steps cover, ``(m, n)``.  A time falls in the
    first step whose end it passes by at most ``1e-14 max(1, |end|)``, as
    the step loop reckons, and gets :func:`_dense_output`'s bits there:
    the same products, with ``theta ** k`` taken on Python floats, which
    numpy's array power may round differently."""
    taus = np.asarray(taus, dtype=float)
    if not len(steps) or not taus.size:
        return np.empty((0, 0))
    t, hs = steps[:, 0], steps[:, 1]
    n = (steps.shape[1] - 2) // 8
    direction = 1.0 if hs[0] > 0.0 else -1.0
    ends = t + hs
    i = np.searchsorted(ends * direction, taus * direction)
    before = np.maximum(i - 1, 0)
    i -= (i > 0) & ((taus - ends[before]) * direction
                    <= 1e-14 * np.maximum(1.0, np.abs(ends[before])))
    m = int(np.count_nonzero(i < len(steps)))
    i = i[:m]
    powers = np.array([(th, th**2, th**3, th**4)
                       for th in ((taus[:m] - t[i]) / hs[i]).tolist()])
    q = steps[i, 2 + n:].reshape(-1, 7, n).mT @ _P  # (m, n, 4)
    return steps[i, 2:2 + n] + hs[i, None] * (
        q @ powers.reshape(-1, 4, 1))[..., 0]


# the nonzero rows of _P: stage index, weights of theta..theta^4, and the
# sum of their absolute values
_P_ROWS = tuple(
    (s, tuple(row), sum(abs(w) for w in row))
    for s, row in enumerate(_P.tolist())
    if any(row)
)


def _row_sign(exit_row, x, hs, stages):
    """Sign of ``u = c . x`` everywhere on an accepted step's dense
    output, or ``None`` when the step might change it.

    ``exit_row = (c, a)`` with ``a_i >= |c_i|`` bounding the magnitudes
    behind ``c_i`` (for ``c = C e``, ``a = |C| |e|``).  Over the step,
    ``u(theta) = c . x + hs sum_k (c . q_k) theta^k`` with ``q_k = sum_s
    k_s P[s][k]``, so ``|u(theta) - u(0)| <= |hs| sum_k |c . q_k|`` for
    theta in [0, 1].  The sign of ``u(0)`` is returned when ``|u(0)|``
    exceeds twice that bound plus ``1e-12`` of the magnitudes that
    enter ``u`` (``a . |x|`` and ``|hs| a . |k_s|`` weighted by ``|P|``),
    which covers the rounding of this sum and of the chart coordinate of
    any state on the dense output.
    """
    c, a = exit_row
    u0 = 0.0
    scale = 0.0
    for ci, ai, xi in zip(c, a, x):
        u0 += ci * xi
        scale += ai * (xi if xi >= 0.0 else -xi)
    h_abs = hs if hs >= 0.0 else -hs
    cq = [0.0, 0.0, 0.0, 0.0]
    for s, weights, weight_abs in _P_ROWS:
        ck = 0.0
        k_mag = 0.0
        for ci, ai, ki in zip(c, a, stages[s]):
            ck += ci * ki
            k_mag += ai * (ki if ki >= 0.0 else -ki)
        cq = [v + ck * w for v, w in zip(cq, weights)]
        scale += h_abs * weight_abs * k_mag
    drift = h_abs * sum(abs(v) for v in cq)
    if abs(u0) > 2.0 * drift + 1e-12 * scale:
        return math.copysign(1.0, u0)
    return None


def levels_at_start(events, t0: float, x0: list, f0: list,
                    direction: float):
    """Each level of ``events`` at the start ``(t0, x0)``, and the events
    that fire there, up to the first terminal one.

    A start sitting on a watched level (within its ``tol``) whose slope
    along ``f0``, the right-hand side there, points the event's way is an
    immediate event; the shooting stage's boundary starts rely on this.
    The slope is a difference quotient over ``1e-8 max(1, |t0|)`` in the
    run's ``direction``.  Levels after a firing terminal event are not
    evaluated.
    """
    g_start, fired = [], []
    for ev in events:
        g0 = float(ev.level(t0, x0))
        g_start.append(g0)
        if abs(g0) <= ev.tol:
            dt_probe = 1e-8 * max(1.0, abs(t0)) * direction
            x_probe = [v + dt_probe * f for v, f in zip(x0, f0)]
            g_probe = float(ev.level(t0 + dt_probe, x_probe))
            slope = (g_probe - g0) / dt_probe
            if (ev.direction == 0
                    or (ev.direction > 0 and slope > 0.0)
                    or (ev.direction < 0 and slope < 0.0)):
                fired.append(ev)
                if ev.terminal:
                    break
    return g_start, fired


def _locate(level, t_a, g_a, t_b, g_b, xtol):
    """Zero of ``level`` between ``t_a`` and ``t_b`` (either order), whose
    values ``g_a`` and ``g_b`` there have strictly opposite signs.

    Illinois regula falsi: the secant point replaces the end whose value
    has its sign, and an end kept twice running has its value halved, so
    both ends close in superlinearly.  Stops once the bracket is at most
    ``xtol`` wide and returns its end with the smaller level.
    """
    kept = 0  # +1 after t_a was kept, -1 after t_b was kept
    for _ in range(200):
        if abs(t_b - t_a) <= xtol:
            break
        lo, hi = min(t_a, t_b), max(t_a, t_b)
        # the secant point, kept xtol/2 inside either end so that the
        # bracket collapses once the estimate has settled
        t_c = t_b - g_b * (t_b - t_a) / (g_b - g_a)
        t_c = min(max(t_c, lo + 0.5 * xtol), hi - 0.5 * xtol)
        if not lo < t_c < hi:  # nan
            t_c = 0.5 * (lo + hi)
        g_c = level(t_c)
        if g_c == 0.0:
            return t_c
        if (g_c > 0.0) == (g_b > 0.0):
            t_b, g_b = t_c, g_c
            if kept > 0:
                g_a *= 0.5
            kept = 1
        else:
            t_a, g_a = t_c, g_c
            if kept < 0:
                g_b *= 0.5
            kept = -1
    return t_a if abs(g_a) < abs(g_b) else t_b


def integrate(
    rhs,
    t0: float,
    x0,
    t_end: float,
    tol: float = 1e-9,
    events: list[EventSpec] | None = None,
    nodes: bool = True,
    exit_row=None,
    keep=(),
) -> Trajectory:
    """Integrate ``dx/dt = rhs(t, x)`` from ``t0`` to ``t_end``.

    Parameters
    ----------
    rhs : callable
        Right-hand side.  The sums of one built by
        :func:`vwbound.expr.compile_rhs` are inlined into the step loop;
        any other is called there, on lists of floats when it is marked
        ``float_lists`` and on an ndarray (returning any array-like)
        otherwise.
    tol : float
        Local error tolerance in ``[1e-12, 1e-3]``; each accepted step
        keeps the embedded error estimate below ``tol * (1 + |x|)``.
    events : list of EventSpec
        Watched level functions.  Terminal events truncate; all fired
        events are recorded with their located time and state.
    nodes : bool
        Record every accepted step as a node (the default); with False
        the trajectory holds only the start and the end (or truncation)
        node.
    exit_row : pair of float lists, optional
        ``(c, a)`` for a run that reads only the sign of ``c . x`` at its
        exit (see :func:`_row_sign`).  When the run stops in a step where
        exactly one level crossed, that level is terminal and the step
        cannot change the sign, the run ends there unlocated, with that
        step's end as its last node and :attr:`Trajectory.side` set;
        otherwise the exit is located as without it.
    keep : sequence of ``(t_a, t_b)``, optional
        Windows, in the run's direction and order, over which
        :attr:`Trajectory.steps` keeps the accepted steps, for
        :func:`dense_at`: the way to sample the orbit at given times.
    """
    if not TOL_MIN <= tol <= TOL_MAX:
        raise ValueError(
            f"tol must lie in [{TOL_MIN:g}, {TOL_MAX:g}], got {tol:g}"
        )
    system = getattr(rhs, "system", None)
    if not getattr(rhs, "float_lists", False):
        array_rhs = rhs

        def rhs(t, y):
            return np.asarray(array_rhs(t, np.array(y)), dtype=float).tolist()

    t0 = float(t0)
    t_end = float(t_end)
    x0 = np.asarray(x0, dtype=float).tolist()
    n = len(x0)
    events = list(events) if events else []
    direction = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)

    windows = iter([(float(t_a), float(t_b)) for t_a, t_b in keep])
    never = (direction * math.inf, direction * math.inf)
    keep_from, keep_to = next(windows, never)
    kept = []  # the rows of the kept steps, end to end

    ts = [t0]
    xs = [x0]
    status = "reached_end"
    side = None

    # the levels at the start seed the step loop; one the start sits on
    # with outgoing slope fires there
    f0 = rhs(t0, x0)
    n_rhs = 2  # f0 plus the probe in _initial_step
    g_start, fired = levels_at_start(events, t0, x0, f0, direction)
    records = [EventRecord(ev.kind, t0, np.array(x0)) for ev in fired]
    if fired and fired[-1].terminal:
        return Trajectory(
            ts=np.array(ts),
            xs=np.array(xs),
            events=records,
            status=f"event:{fired[-1].kind}",
            n_accepted=0,
            n_rejected=0,
            n_rhs=n_rhs,
        )

    if span == 0.0:
        return Trajectory(
            ts=np.array(ts), xs=np.array(xs), events=records, n_rhs=n_rhs
        )

    h = _initial_step(rhs, t0, x0, f0, direction, tol, span)
    advance = compile_stepper(
        system,
        n,
        tuple(
            ((ev.direction > 0) - (ev.direction < 0),
             ev.form[0] if ev.form else None)
            for ev in events
        ),
    )
    consts = [ev.form[1] if ev.form else ev.level for ev in events]
    state = (t0, x0, f0, h, 1.0, False, 0, 0, g_start)
    step_fn, limit = advance, MAX_STEPS

    while True:
        code, state, step = step_fn(state, consts, rhs, t_end, direction,
                                    tol, keep_from, keep_to, kept, limit,
                                    nodes, ts, xs)
        t, x, _, _, _, _, n_accepted, n_rejected, g_new = state
        step_fn, limit = advance, MAX_STEPS
        if code == "trip":  # retake that step interpreting every entry
            step_fn, limit = advance.slow, n_accepted + n_rejected + 1
            continue
        if code == "budget":
            if n_accepted + n_rejected >= MAX_STEPS:
                raise RuntimeError(
                    f"step budget {MAX_STEPS} exhausted at t={t:.9g}"
                )
            continue
        if code == "underflow":
            raise StepSizeUnderflow(t, np.array(x))
        if code == "end":
            if not nodes:
                ts.append(t_end)
                xs.append(x)
            break

        # "stop": the step from t_old to t ended the window or crossed a
        # level
        if (keep_to - t) * direction <= 1e-14 * max(1.0, abs(t)):
            keep_from, keep_to = next(windows, never)
        t_old, x_old, hs, stages, g_old = step
        crossed = [
            (ev, g_a, g_b) for ev, g_a, g_b in zip(events, g_old, g_new)
            if (ev.direction >= 0 and g_a < 0.0 <= g_b)
            or (ev.direction <= 0 and g_a > 0.0 >= g_b)
        ]
        if (exit_row is not None and len(crossed) == 1
                and crossed[0][0].terminal):
            side = _row_sign(exit_row, x_old, hs, stages)
            if side is not None:
                if not nodes:
                    ts.append(t)
                    xs.append(x)
                status = f"event:{crossed[0][0].kind}"
                break
        dense = None
        step_records = []
        truncate_at = None
        for ev, g_a, g_b in crossed:
            if g_b == 0.0:
                t_ev, x_ev = t, np.array(x)
            else:
                if dense is None:
                    dense = _dense_output(t_old, x_old, hs, stages)
                t_ev = _locate(
                    lambda tau, _ev=ev, _dense=dense: float(
                        _ev.level(tau, _dense(tau))
                    ),
                    t_old, g_a, t, g_b,
                    1e-12 * max(1.0, abs(t)),
                )
                x_ev = dense(t_ev)
            step_records.append((t_ev, ev, x_ev))

        if step_records:
            step_records.sort(key=lambda rec: rec[0] * direction)
            for t_ev, ev, x_ev in step_records:
                if truncate_at is not None and (
                    (t_ev - truncate_at[0]) * direction > 0
                ):
                    break
                records.append(EventRecord(ev.kind, t_ev, x_ev))
                if ev.terminal and truncate_at is None:
                    truncate_at = (t_ev, x_ev, ev.kind)

        if truncate_at is not None:
            t_ev, x_ev, kind = truncate_at
            if nodes:  # the event node replaces the step's end
                ts.pop()
                xs.pop()
            ts.append(t_ev)
            xs.append(x_ev)
            status = f"event:{kind}"
            break

    return Trajectory(
        ts=np.array(ts),
        xs=np.array(xs),
        events=records,
        status=status,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_rhs=n_rhs + 6 * (n_accepted + n_rejected),
        side=side,
        steps=np.fromiter(kept, float, len(kept)).reshape(-1, 2 + 8 * n),
    )


# ---------------------------------------------------------------------------
# problem-specific helpers


def make_region_events(
    quadform_w,
    quadform_v,
    w_plus: float,
    w_minus: float,
    v0: float,
    v_star: float,
) -> list[EventSpec]:
    """The terminal levels of a region run.

    ``W = w_plus`` (rising) and ``W = w_minus`` (falling) are the region
    exits; ``V = V*`` (rising) guards the certified ceiling.  ``v0``
    only scales the tolerance of the V level.  ``quadform_w`` and
    ``quadform_v`` come from :func:`vwbound.expr.compile_quadform`; each
    level is marked as a form of their matrix, so the step loop evaluates
    W and V once per accepted step.
    """
    tol = 1e-9 * (1.0 + abs(w_plus) + abs(w_minus))
    tol_v = 1e-9 * (1.0 + abs(v0) + abs(v_star))

    def spec(kind, quadform, value, direction, tol):
        return EventSpec(
            kind,
            lambda t, x: quadform(t, x) - value,
            direction=direction,
            tol=tol,
            form=(quadform.matrix, value),
        )

    return [
        spec("W_hits_wplus", quadform_w, w_plus, +1, tol),
        spec("W_hits_wminus", quadform_w, w_minus, -1, tol),
        spec("V_hits_Vstar", quadform_v, v_star, +1, tol_v),
    ]


def write_trajectory_csv(path, traj: Trajectory, v, w):
    """Plot-ready CSV: header ``t,x1,...,xn,V,W``, one row per node.  The
    V and W columns are ``v`` and ``w``, their values at each node (as
    ``BoundedSolutionResult.v`` and ``.w`` hold them).

    Each row is formatted once, from Python floats, by one ``%.17g``
    format (the same text as ``f"{v:.17g}"`` per value), and written as
    it is made, a block of rows at a time."""
    n = traj.xs.shape[1]
    row = ",".join(["%.17g"] * (n + 3)) + "\n"
    table = np.column_stack([traj.ts, traj.xs, v, w])
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"x{i + 1}" for i in range(n))
        fh.write(f"t,{cols},V,W\n")
        for k in range(0, len(table), 1024):
            fh.writelines(row % tuple(r) for r in table[k:k + 1024].tolist())


def quad_along(m: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``<M_k x_k, x_k>`` at each node: ``m`` the ``(K, n, n)`` stack of M
    at the node times, ``xs`` the ``(K, n)`` states, as the stacked
    product ``(x M) x``.  The one evaluation of V and W along nodes: the
    V and W columns of ``trajectory.csv`` (through the rung tasks and
    ``bounded_solution``) and ``verify`` (through :func:`eval_v_w_along`)
    all come from here, and agree bit for bit."""
    return (xs[:, None, :] @ m @ xs[..., None])[:, 0, 0]


@dataclass
class VWCurves:
    """V, W and their exact time derivatives along trajectory nodes, plus
    the growth-clock rate ``dF(V)/dt`` where V exceeds the threshold."""

    ts: np.ndarray
    v: np.ndarray
    w: np.ndarray
    v_dot: np.ndarray
    w_dot: np.ndarray
    f_dot: np.ndarray | None = None  # nan below the threshold


def eval_v_w_along(qp, traj: Trajectory, gp=None) -> VWCurves:
    """Evaluate the quadratic pair and its derivatives along ``traj``.

    Derivatives are analytic — ``dV/dt = <B' x, x> + 2 <B x, f>`` and
    likewise for W along the vector field — so the curves are exact at the
    nodes regardless of node spacing.  With a growth pair supplied, the
    growth-clock rate ``dF(V)/dt = g(V)/G(V) * dV/dt`` is attached
    (``nan`` where ``V < v0``, where the clock is not running).
    """
    ts, xs = traj.ts, traj.xs
    b, c, b_dot, c_dot = (fn.stack(ts) for fn in (qp.b, qp.c, qp.b_dot, qp.c_dot))
    # the rhs at each node, called on Python floats
    f = np.array(list(map(qp.rhs, ts.tolist(), xs.tolist())))[..., None]
    # x as rows and columns: each product is that of (x B) x + 2 (B x) f
    row, col = xs[:, None, :], xs[..., None]
    v = quad_along(b, xs)
    w = quad_along(c, xs)
    v_dot = (row @ b_dot @ col + (2.0 * (b @ col)).mT @ f)[:, 0, 0]
    w_dot = (row @ c_dot @ col + (2.0 * (c @ col)).mT @ f)[:, 0, 0]
    f_dot = None
    if gp is not None:
        f_dot = np.full(ts.size, np.nan)
        for i in np.nonzero(v >= gp.v0)[0]:
            f_dot[i] = gp.ratio(v[i]) * v_dot[i]
    return VWCurves(ts=ts.copy(), v=v, w=w, v_dot=v_dot, w_dot=w_dot, f_dot=f_dot)
