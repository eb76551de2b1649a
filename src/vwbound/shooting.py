"""Topological shooting for the trapped (V-bounded) solution.

Starts are taken on the ellipsoidal disk ``M_t = { x in L_+(t) :
<C(t)x, x> <= w_plus }``.  A start whose forward orbit leaves the region
exits through one of the watched boundaries; the sign of its L_+ chart
coordinate at the exit is a topological invariant of the exit map (a
trapped start must sit between starts that exit on opposite sides),
so for a one-dimensional positive subspace plain bisection localizes a
trapped start to machine resolution.  Higher-dimensional disks use a
budgeted refinement heuristic (existence is topological; localization is
not guaranteed and failures say so).

The returned trajectory is assembled from a ladder of trapped starts, one
per ``spacing`` of time, each contributing only the span where its
initial transient has died out and its chart-coordinate error has not yet
amplified.  A single orbit integrated across the whole window would lose
roughly ``(t - t_start)/ln(10)`` digits to the unstable directions and
could not meet the verification tolerances; the ladder keeps every
contributed node within a fixed error band instead.  The ``xi_j = x_j(0)``
bookkeeping and its convergence rule are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExhausted,
    EmptyPositiveSubspace,
    NoSignChange,
    NoUpperBracket,
    NotConverged,
    StepSizeUnderflow,
)
from .growth import growth_integral_inv
from .ode import Trajectory, eval_v_w_along, integrate, make_region_events
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
    "bounded_solution",
    "VerifyReport",
    "verify_bound",
    "write_xi_csv",
]


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
    cmat = qp.c.eval(float(t), qp._zeros())
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
    """Knobs of the shooting stage.

    ``j_count`` sets the xi schedule ``t_j = -j |T-| / j_count``;
    ``spacing`` the trajectory ladder ``t_k = T- + k * spacing`` (default
    ``|T-|/j_count``, which makes the two ladders share searches).
    ``settle`` is the transient length discarded at the head of each
    patch; ``horizon_span`` how far a start must stay to count as
    trapped; ``u_tol`` the chart-coordinate bisection width (default
    ``4 eps * radius`` — machine floor, because evaluating xi_j at t = 0
    amplifies any start error by exp(|t_j|)).  ``xi_tol`` defaults to
    1e-5 for the same conditioning reason: increments below roughly
    ``exp(|t_j|) * eps * radius`` are unobservable, so demanding much
    more than 1e-6 makes deep rungs diverge instead of converge.
    """

    j_count: int = 8
    spacing: float | None = None
    settle: float = 12.0
    horizon_span: float = 36.0
    sample_dt: float = 0.02
    xi_tol: float = 1e-5
    u_tol: float | None = None
    integrator_tol: float = 1e-8
    budget: int = 2000
    bracket: tuple[float, float] | None = None

    def __post_init__(self):
        if self.j_count < 2:
            raise ValueError("need at least two rungs for xi convergence")
        for name in ("settle", "horizon_span", "sample_dt", "xi_tol",
                     "integrator_tol"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be positive, got {value:g}")
        if self.spacing is not None and self.spacing <= 0.0:
            raise ValueError("spacing must be positive")
        if self.u_tol is not None and self.u_tol <= 0.0:
            raise ValueError("u_tol must be positive")


@dataclass
class Stayed:
    """The orbit reached the horizon without leaving the region."""

    traj: Trajectory

    is_stayed = True


@dataclass
class Exited:
    """The orbit left through a watched boundary (or blew up)."""

    t: float
    kind: str
    x: np.ndarray
    traj: Trajectory | None = None

    is_stayed = False


def _exit_events(qp: QuadraticProblem, v0: float, v_star: float) -> list:
    """The region's terminal levels (W = w+-, V = V*).  The non-terminal
    ``V = v0`` level of :func:`make_region_events` is left out: no
    shooting run reads it, and it never changes where a run stops."""
    return [
        ev
        for ev in make_region_events(
            qp.quad_w, qp.quad_v, qp.w_plus, qp.w_minus, v0, v_star
        )
        if ev.kind != "V_hits_v0"
    ]


def classify_start(
    qp: QuadraticProblem,
    chart: DiskChart,
    u,
    horizon: float,
    v0: float,
    v_star: float,
    tol: float = 1e-8,
) -> Stayed | Exited:
    """Integrate from the charted start until the horizon or the first
    boundary crossing (W = w+-, V = V*); step-size underflow is reported
    as an exit of kind ``blowup`` at the last reachable point."""
    x0 = chart.point(u)
    events = _exit_events(qp, v0, v_star)
    try:
        traj = integrate(qp.rhs, chart.t, x0, horizon, tol=tol, events=events)
    except StepSizeUnderflow as exc:
        return Exited(t=exc.t, kind="blowup", x=np.asarray(exc.x), traj=None)
    if traj.status == "reached_end":
        return Stayed(traj=traj)
    kind = traj.status.split(":", 1)[1]
    return Exited(t=traj.t_end, kind=kind, x=traj.x_end, traj=traj)


@dataclass
class TrappedStart:
    """Localized trapped start on one disk."""

    t: float
    u: np.ndarray
    chart: DiskChart
    iterations: int
    bracket_width: float
    stayed: bool
    exit_kinds: tuple[str, ...] = ()


def _exit_side(qp: QuadraticProblem, chart0: DiskChart, res: Exited) -> float:
    """First chart coordinate of the exit state, measured in the chart at
    the exit time aligned to the start chart.  When C does not depend on
    t (it never depends on the state), that chart is the start chart."""
    chart_e = chart0
    if qp.c.depends_on_t:
        chart_e = make_disk_chart(qp, res.t, align_to=chart0)
    return float(chart_e.coords(res.x)[0])


def find_trapped_start(
    qp: QuadraticProblem,
    t_j: float,
    v0: float,
    v_star: float,
    config: ShootingConfig | None = None,
) -> TrappedStart:
    """Localize a start on the disk at ``t_j`` whose orbit stays in the
    region until ``t_j + horizon_span``.

    One-dimensional positive subspace: bisection on the chart interval,
    steered by the sign of the exit chart coordinate.  Raises
    :class:`NoSignChange` when both bracket ends exit the same side.

    Higher-dimensional disks: budgeted refinement around the start with
    the latest exit (a heuristic — existence is guaranteed by the
    topological argument, constructive localization is not); raises
    :class:`BudgetExhausted` when the budget runs out.
    """
    config = config or ShootingConfig()
    chart = make_disk_chart(qp, t_j)
    horizon = t_j + config.horizon_span
    u_tol = config.u_tol
    if u_tol is None:
        u_tol = 4.0 * np.finfo(float).eps * chart.radius

    def side_of(u_scalar: float):
        res = classify_start(
            qp, chart, [u_scalar], horizon, v0, v_star, config.integrator_tol
        )
        if res.is_stayed:
            return None, res
        return _exit_side(qp, chart, res), res

    if chart.n_plus == 1:
        lo, hi = config.bracket or (-chart.radius, chart.radius)
        side_lo, res_lo = side_of(lo)
        if side_lo is None:
            return TrappedStart(
                t=t_j, u=np.array([lo]), chart=chart, iterations=1,
                bracket_width=hi - lo, stayed=True,
            )
        side_hi, res_hi = side_of(hi)
        if side_hi is None:
            return TrappedStart(
                t=t_j, u=np.array([hi]), chart=chart, iterations=2,
                bracket_width=hi - lo, stayed=True,
            )
        if side_lo * side_hi > 0.0:
            raise NoSignChange(
                f"both bracket ends [{lo:.6g}, {hi:.6g}] exit with chart "
                f"side {math.copysign(1.0, side_lo):+.0f} at t_j = {t_j:g}",
                side=math.copysign(1.0, side_lo),
            )
        if side_lo > 0.0:
            lo, hi = hi, lo  # keep the negative side at lo
        kinds = {res_lo.kind, res_hi.kind}
        iters = 2
        while abs(hi - lo) > u_tol and iters < 200:
            mid = 0.5 * (lo + hi)
            side_mid, res_mid = side_of(mid)
            iters += 1
            if side_mid is None:
                return TrappedStart(
                    t=t_j, u=np.array([mid]), chart=chart, iterations=iters,
                    bracket_width=abs(hi - lo), stayed=True,
                    exit_kinds=tuple(sorted(kinds)),
                )
            kinds.add(res_mid.kind)
            if side_mid > 0.0:
                hi = mid
            else:
                lo = mid
        return TrappedStart(
            t=t_j, u=np.array([0.5 * (lo + hi)]), chart=chart,
            iterations=iters, bracket_width=abs(hi - lo), stayed=False,
            exit_kinds=tuple(sorted(kinds)),
        )

    # n_plus >= 2: refine around the longest-staying start
    budget = config.budget
    spent = 0
    rho = 0.5 * chart.radius
    center = np.zeros(chart.n_plus)
    best_u = center.copy()
    best_exit = -math.inf
    kinds: set[str] = set()

    while spent < budget:
        candidates = [center]
        for k in range(chart.n_plus):
            for sign in (+1.0, -1.0):
                cand = center.copy()
                cand[k] += sign * rho
                norm = float(np.linalg.norm(cand))
                if norm > chart.radius:
                    cand *= chart.radius / norm
                candidates.append(cand)
        results = [
            classify_start(
                qp, chart, u, horizon, v0, v_star, config.integrator_tol
            )
            for u in candidates
        ]
        spent += len(candidates)
        for u, res in zip(candidates, results):
            if res.is_stayed:
                return TrappedStart(
                    t=t_j, u=np.asarray(u), chart=chart, iterations=spent,
                    bracket_width=rho, stayed=True,
                    exit_kinds=tuple(sorted(kinds)),
                )
            kinds.add(res.kind)
            if res.t > best_exit:
                best_exit = res.t
                best_u = np.asarray(u, dtype=float).copy()
        center = best_u
        rho *= 0.5
        if rho <= u_tol:
            return TrappedStart(
                t=t_j, u=best_u, chart=chart, iterations=spent,
                bracket_width=rho, stayed=False,
                exit_kinds=tuple(sorted(kinds)),
            )
    raise BudgetExhausted(
        f"{budget} classify calls spent without localizing a trapped start "
        f"on the {chart.n_plus}-dimensional disk at t_j = {t_j:g} "
        "(heuristic search; this does not disprove existence)"
    )


# ---------------------------------------------------------------------------
# the bounded solution


@dataclass
class BoundedSolutionResult:
    """Trapped trajectory plus the convergence bookkeeping behind it."""

    traj: Trajectory
    xi: np.ndarray
    xi_sequence: list  # (j, t_j, xi_j)
    converged_at_j: int
    sup_v: float
    sup_v_time: float
    starts: list  # TrappedStart per ladder rung
    config: ShootingConfig
    notes: list = field(default_factory=list)


def bounded_solution(
    qp: QuadraticProblem,
    cert: Certificate,
    config: ShootingConfig | None = None,
) -> BoundedSolutionResult:
    """Find the V-bounded solution and return it on
    ``[T- + settle, T+]`` with uniformly spaced nodes.

    The ladder ``t_k = T- + k * spacing`` supplies trapped starts; rungs
    below zero double as the xi schedule (``xi_j = x_j(0)``, declared
    converged at the first j with two consecutive increments below
    ``xi_tol``).  Each rung contributes the trajectory span
    ``(t_k + settle, t_k + settle + spacing]`` where the start transient
    has decayed and the chart-resolution error has not yet grown; spans
    tile the window, so every returned node carries a uniform error band
    instead of the exponentially amplified error of one long orbit.

    Raises
    ------
    NotConverged
        When the xi increments never meet the tolerance on the rungs
        whose orbits reach t = 0 (diagnostic: window too short or
        tolerance too tight); the observed sequence is attached.
    """
    config = config or ShootingConfig()
    t_lo, t_hi = qp.window
    xi_spacing = abs(t_lo) / config.j_count
    spacing = config.spacing if config.spacing is not None else xi_spacing
    v0 = cert.v0
    v_star = cert.v_star
    notes: list[str] = []

    # searches are memoized so the xi schedule and the trajectory ladder
    # share rungs whenever their times coincide (they do by default)
    cache: dict[float, TrappedStart] = {}

    def get_start(t: float) -> TrappedStart:
        key = round(t, 9)
        if key not in cache:
            cache[key] = find_trapped_start(qp, t, v0, v_star, config)
        return cache[key]

    # xi bookkeeping: t_j = -j * |T-| / j_count, walked until two
    # consecutive increments drop below the tolerance
    xi_sequence: list[tuple[int, float, np.ndarray]] = []
    converged_at = 0
    prev_xi = None
    prev_d = math.inf
    for j in range(1, config.j_count + 1):
        t_j = -j * xi_spacing
        start = get_start(t_j)
        traj = integrate(
            qp.rhs,
            t_j,
            start.chart.point(start.u),
            0.0,
            tol=config.integrator_tol,
            events=_exit_events(qp, v0, v_star),
            t_samples=np.array([]),
        )
        if traj.status != "reached_end":
            notes.append(
                f"orbit from t_j = {t_j:g} leaves the region at "
                f"t = {traj.t_end:.6g} before reaching 0; xi_{j} unavailable"
            )
            break
        xi_j = traj.x_end
        xi_sequence.append((j, t_j, xi_j))
        if prev_xi is not None:
            d = float(np.linalg.norm(xi_j - prev_xi))
            if d <= config.xi_tol and prev_d <= config.xi_tol:
                converged_at = j
            prev_d = d
        prev_xi = xi_j
        if converged_at:
            break
    if not converged_at:
        raise NotConverged(
            "xi increments never dropped below the tolerance "
            f"{config.xi_tol:g} on the available rungs",
            xi_sequence=xi_sequence,
        )
    xi = xi_sequence[-1][2]

    # trajectory ladder: one trapped start per spacing, reaching high
    # enough that the last settled span covers T+
    k_max = max(
        int(math.ceil((t_hi - config.settle - t_lo) / spacing - 1e-12)), 0
    )
    starts = [get_start(t_lo + k * spacing) for k in range(k_max + 1)]

    # quilt assembly: each rung contributes its settled span
    grid_start = t_lo + config.settle
    n_nodes = int(round((t_hi - grid_start) / config.sample_dt))
    grid = grid_start + config.sample_dt * np.arange(n_nodes + 1)
    ts_out: list[float] = []
    xs_out: list[np.ndarray] = []
    prev_end = -math.inf
    for start in starts:
        span_end = min(start.t + config.settle + spacing, t_hi)
        claim = grid[(grid > prev_end + 1e-12) & (grid <= span_end + 1e-12)]
        if claim.size == 0:
            prev_end = span_end
            continue
        patch = integrate(
            qp.rhs,
            start.t,
            start.chart.point(start.u),
            float(claim[-1]),
            tol=config.integrator_tol,
            t_samples=claim[:-1],
        )
        for t, x in zip(patch.ts[1:], patch.xs[1:]):
            if not ts_out or t > ts_out[-1] + 1e-12:
                ts_out.append(float(t))
                xs_out.append(x)
        prev_end = span_end
        if span_end >= t_hi:
            break
    traj = Trajectory(
        ts=np.array(ts_out),
        xs=np.array(xs_out),
        events=[],
        status="reached_end",
    )
    vs = np.array([qp.quad_v(float(t), x) for t, x in zip(traj.ts, traj.xs)])
    i_max = int(np.argmax(vs))
    return BoundedSolutionResult(
        traj=traj,
        xi=xi,
        xi_sequence=xi_sequence,
        converged_at_j=converged_at,
        sup_v=float(vs[i_max]),
        sup_v_time=float(traj.ts[i_max]),
        starts=starts,
        config=config,
        notes=notes,
    )


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
    clock_tol: float = 1e-6,
) -> VerifyReport:
    """Compare V along ``traj`` against the certified ceilings.

    Checks, per node: V below the time-dependent envelope ceiling
    (conservatively interpolated between certificate grid points), V
    below the constant ceiling ``v_small_star``, V below the closed-form
    constants-only ceiling, W strictly inside (w-, w+), and — on nodes
    with V > v0 — the growth-clock inequality
    ``|dF(V)/dt| <= dW/dt + clock_tol``.  Every check fails closed: a
    ``nan`` slack or margin is a violation.
    """
    gp = cert.growth_pair()
    curves = eval_v_w_along(qp, traj, gp)
    violations: list[str] = []
    notes: list[str] = []

    # conservative envelope between certificate grid points: sup over
    # s >= t from the left grid neighbour, inf over s <= t from the right
    hi_env = np.maximum.accumulate((cert.lam_plus * cert.v0)[::-1])[::-1]
    lo_env = np.minimum.accumulate(cert.lam_minus * cert.v0)
    idx = np.searchsorted(cert.ts, traj.ts, side="right") - 1
    idx = np.clip(idx, 0, cert.ts.size - 2)
    z_cons = 0.5 * (hi_env[idx] - lo_env[idx + 1])
    # one F^-1 per distinct argument (at most one per grid interval),
    # spread back over the nodes; an argument F cannot reach below Vmax
    # leaves its nodes without a ceiling, which is a violation
    z_distinct, node_of = np.unique(z_cons, return_inverse=True)
    ceilings = []
    for k, z in enumerate(z_distinct):
        try:
            ceilings.append(growth_integral_inv(gp, max(0.0, float(z))))
        except NoUpperBracket as exc:
            t_first = float(traj.ts[int(np.argmax(node_of == k))])
            violations.append(
                f"no envelope ceiling from t = {t_first:.6g}: F never "
                f"reaches {exc.z:.6g} below Vmax = {exc.vmax:.6g} "
                f"(F(Vmax) = {exc.reached:.6g})"
            )
            ceilings.append(math.inf)
    ceiling = np.array(ceilings)[node_of]
    slack_env = float(np.min(ceiling - curves.v))
    if not slack_env > 0.0:
        violations.append(
            f"V exceeds the envelope ceiling by {-slack_env:.3e} at "
            f"t = {traj.ts[int(np.argmin(ceiling - curves.v))]:.6g}"
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
        if not clock_margin >= -clock_tol:
            violations.append(
                f"growth-clock inequality violated by {-clock_margin:.3e}"
            )
    else:
        clock_margin = math.inf
        notes.append("no nodes with V > v0; growth-clock check vacuous")

    t0, t1 = float(traj.ts[0]), float(traj.ts[-1])
    if t0 > cert.window[0] + 1e-9 or t1 < cert.window[1] - 1e-9:
        notes.append(
            f"trajectory covers [{t0:g}, {t1:g}], a subwindow of "
            f"[{cert.window[0]:g}, {cert.window[1]:g}]; comparisons "
            "restricted to the covered span"
        )

    return VerifyReport(
        passed=not violations,
        coverage=(t0, t1),
        n_nodes=int(traj.ts.size),
        sup_v=sup_v,
        sup_v_time=float(traj.ts[i_max]),
        slack_envelope=slack_env,
        slack_const=slack_const,
        slack_closed_form=slack_closed,
        w_range_margin=w_margin,
        clock_margin=clock_margin,
        clock_nodes=clock_nodes,
        violations=violations,
        notes=notes,
    )


def write_xi_csv(path, xi_sequence):
    """CSV of the xi convergence sequence: ``j,t_j,xi_1,...,xi_n``."""
    with open(path, "w", encoding="utf-8") as fh:
        if xi_sequence:
            n = len(xi_sequence[0][2])
        else:
            n = 0
        cols = ",".join(f"xi_{i + 1}" for i in range(n))
        fh.write(f"j,t_j,{cols}\n")
        for j, t_j, xi in xi_sequence:
            row = ",".join(f"{val:.17g}" for val in xi)
            fh.write(f"{j},{t_j:.17g},{row}\n")
