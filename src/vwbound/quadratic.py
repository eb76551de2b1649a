"""Certification pipeline for quadratic estimating/guiding pairs.

The system is ``dx/dt = A(t,x) x + f0(t)`` watched through the pair
``V(t,x) = <B(t)x, x>`` (estimating, B symmetric positive definite) and
``W(t,x) = <C(t)x, x>`` (guiding, C symmetric nondegenerate).  This module
computes the spectral rates that control dV/dt and dW/dt, fits the scalar
growth pair ``g(v) = v - c2 sqrt(v)``, ``G(v) = c3 v^sigma (v + c1 sqrt(v))``
from sampled data, checks the certification conditions (a)-(g) plus the two
asymptotic conditions (A) and (B) on the configured window, and assembles
everything into a :class:`Certificate` that the shooting and CLI layers
consume.

When A depends on the state, the fits, the alpha curve and the separation
test read states sampled from the region ``{V in [v_lo, v_hi], w- <= W <=
w+}`` by one batched sampler, :func:`sample_region_states`, which draws
and W-tests every grid time of a call together; the states at a time do
not depend on what the other times rejected.  A state-independent A
needs no samples.

Asymptotic quantities (liminf/limsup as t -> -infinity, divergent
integrals) are necessarily evaluated on the finite window; every such
check is flagged ``window_certified`` instead of pretending to be a proof
at infinity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
# numpy loads numpy.random on first attribute access; binding it here
# keeps that import in the CLI's start-up rather than inside certify
from numpy.random import default_rng

from .errors import (
    ConditionGFailed,
    DegeneratePencil,
    DomainError,
    InfeasibleConditionE,
    NotPositiveDefinite,
)
from .expr import (
    MatrixFunction,
    Num,
    VectorFunction,
    compile_quadform,
    compile_rhs,
)
from .growth import (
    GrowthPair,
    bound_excursion,
    bound_from_interior,
    bound_from_threshold,
    growth_integral,
    growth_integral_inv,
    sup_bound_curve,
)
from .pencil import (
    SymmetricPencil,
    cholesky_spd,
    lambda_extremes,
    lambda_minus_plus,
    solve_pencil,  # not called here; perfbench/tracer.py rebinds this name
    spectral_projectors,
)

__all__ = [
    "QuadraticProblem",
    "SamplingStats",
    "sample_region_states",
    "fit_constants",
    "closed_form_ceiling",
    "alpha_curve",
    "TailLimits",
    "limits_from_tail",
    "ConditionResult",
    "Certificate",
    "certify",
    "check_v_star",
    "UniquenessQuadraticReport",
    "uniqueness_quadratic",
    "SIGMA_GRID",
]

SIGMA_GRID = (0.25, 0.5, 0.75, 1.0)
SAFETY_INFLATION = 1.01
VSTAR_HEADROOM = 1.05
# rejection rounds of sample_region_states before it returns what it has
SAMPLE_TRIES = 64
# most candidates (grid x samples) one sampler round may draw: a round of
# 10^6 peaks at ~140 MB for n = 2
MAX_SAMPLE_BLOCK = 10**6
# most grid points: certify holds ~37 MB at 4e4 for n = 2, and the
# separation test's rounds (SEPARATION_STATES per point) fit the block
MAX_GRID = 40_000
# states drawn per grid time by uniqueness_quadratic, paired off in twos
SEPARATION_STATES = 24
# normalized window integral above which the separation test counts as
# divergent
DIVERGENCE_THRESHOLD = 10.0


@dataclass
class QuadraticProblem:
    """System plus quadratic pair plus the certification window/region.

    ``v0`` and ``v_star`` may be ``None``; :func:`certify` then picks them
    (half the tightest disk allowed by condition (d) for ``v0``; 5% above
    the largest required ceiling for ``v_star``).  ``c_hat`` is the
    comparison form of :func:`uniqueness_quadratic` (``None`` means C).
    """

    a: MatrixFunction
    f0: VectorFunction
    b: MatrixFunction
    c: MatrixFunction
    window: tuple[float, float]
    v0: float | None
    w_minus: float
    w_plus: float
    v_star: float | None = None
    n_grid: int = 201
    n_state_samples: int = 48
    seed: int = 0
    c_hat: MatrixFunction | None = None

    def __post_init__(self):
        n = self.a.rows
        if self.a.cols != n:
            raise ValueError("A must be square")
        if self.b.rows != n or self.c.rows != n or self.f0.size != n:
            raise ValueError("A, B, C, f0 dimensions disagree")
        if not (self.b.symmetric and self.c.symmetric):
            raise ValueError("B and C must be declared symmetric")
        if self.b.depends_on_state or self.c.depends_on_state:
            raise ValueError("B and C must not depend on the state")
        t_lo, t_hi = self.window
        if not t_lo < 0.0 < t_hi:
            raise ValueError(
                f"window ({t_lo:g}, {t_hi:g}) must contain 0 strictly inside"
            )
        if not math.isfinite(t_hi - t_lo):
            raise ValueError(
                f"window ({t_lo:g}, {t_hi:g}) must have a finite width"
            )
        if not self.w_minus < 0.0 < self.w_plus:
            raise ValueError(
                f"need w_minus < 0 < w_plus, got w_minus = {self.w_minus:g}, "
                f"w_plus = {self.w_plus:g}"
            )
        if self.v0 is not None and self.v0 <= 0.0:
            raise ValueError(f"v0 must be positive, got {self.v0:g}")
        if self.n_grid < 9:
            raise ValueError(
                "grid needs at least 9 points to resolve the window, "
                f"got {self.n_grid}"
            )
        if self.n_grid > MAX_GRID:
            raise ValueError(
                f"grid may have at most {MAX_GRID} points, got {self.n_grid}"
            )
        if self.n_state_samples < 1:
            raise ValueError(
                f"samples must be at least 1, got {self.n_state_samples}"
            )
        block = self.n_grid * self.n_state_samples
        if self.a.depends_on_state and block > MAX_SAMPLE_BLOCK:
            raise ValueError(
                f"grid x samples = {block} exceeds the {MAX_SAMPLE_BLOCK} "
                "candidates one sampling round may draw"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        self.n = n
        self.rhs = compile_rhs(self.a, self.f0)
        self.quad_v = compile_quadform(self.b)
        self.quad_w = compile_quadform(self.c)
        self.b_dot = self.b.diff_t()
        self.c_dot = self.c.diff_t()

    @functools.cached_property
    def pair_rhs(self):
        """The right-hand side of the ``2n``-state pair ``(p, q)`` with
        ``p' = A(t) p + f0(t)`` and ``q' = A(t) q``, for an A that does not
        depend on the state (:func:`compile_rhs` of the block-diagonal
        system; built on first use, so its step loop is built once per
        problem).  The flow is then affine in the start: the orbit from
        ``p0 + u q0`` is ``p + u q``."""
        if self.a.depends_on_state:
            raise ValueError("the pair system needs an A free of the state")
        n = self.n
        zeros = [Num(0.0)] * n
        a = MatrixFunction(
            [row + zeros for row in self.a.entries]
            + [zeros + row for row in self.a.entries],
            2 * n,
        )
        return compile_rhs(a, VectorFunction(self.f0.entries + zeros, 2 * n))


# ---------------------------------------------------------------------------
# spectral quantities, one stack row per time (or per sample)


class _Grid(NamedTuple):
    """B, C, B', C' and f0 of a problem at the times ``ts``, as stacks."""

    ts: np.ndarray
    b: np.ndarray
    c: np.ndarray
    b_dot: np.ndarray
    c_dot: np.ndarray
    f0: np.ndarray

    def take(self, index) -> "_Grid":
        return _Grid(*(stack[index] for stack in self))


def _grid(qp: QuadraticProblem, ts) -> _Grid:
    ts = np.asarray(ts, dtype=float)
    return _Grid(
        ts, *(fn.stack(ts) for fn in (qp.b, qp.c, qp.b_dot, qp.c_dot, qp.f0))
    )


def _grid_at(qp: QuadraticProblem, ts, grid: _Grid | None) -> _Grid:
    """``grid`` when it holds exactly the times ``ts``, in order; else
    :func:`_grid` at ``ts``."""
    if grid is not None and np.array_equal(grid.ts, ts):
        return grid
    return _grid(qp, ts)


@np.errstate(over="ignore", invalid="ignore")
def _forcing(g: _Grid) -> tuple[np.ndarray, np.ndarray]:
    """The forcing sizes at each row of ``g``: phi ``= sqrt(<B f0, f0>)``
    in the B metric and psi ``= sqrt(<B^-1 C f0, C f0>)`` as seen by W,
    the latter solved against the Cholesky factor of B (no inverse)."""
    f = g.f0[..., None]
    ph = np.sqrt(np.maximum(0.0, (f.mT @ g.b @ f)[..., 0, 0]))
    y = np.linalg.solve(cholesky_spd(g.b), g.c @ f)
    return ph, np.sqrt((y.mT @ y)[..., 0, 0])


@np.errstate(over="ignore", invalid="ignore")
def _v_rates(g: _Grid, a: np.ndarray) -> np.ndarray:
    """At each row of ``g`` and ``a`` (A there), the characteristic value
    of ``(BA + A^T B + B') - lambda B`` that is maximal in absolute value
    (ties resolve to the positive one).  Its absolute value bounds
    ``|dV/dt|`` relative to V."""
    m = g.b @ a
    lo, hi = lambda_extremes(SymmetricPencil(m + m.mT + g.b_dot, g.b))
    return np.where(np.abs(hi) >= np.abs(lo), hi, lo)


@np.errstate(over="ignore", invalid="ignore")
def _w_rates(g: _Grid, a: np.ndarray) -> np.ndarray:
    """At each row of ``g`` and ``a`` (A there), the smallest
    characteristic value of ``(CA + A^T C + C') - lambda B``; it bounds
    ``dW/dt`` from below relative to V."""
    m = g.c @ a
    return lambda_extremes(SymmetricPencil(m + m.mT + g.c_dot, g.b))[0]


# ---------------------------------------------------------------------------
# region sampling


@dataclass
class SamplingStats:
    """What :func:`sample_region_states` did over a run: calls, rejection
    rounds, candidates drawn and states kept.  Counts only, so a seed
    repeats them exactly."""

    calls: int = 0
    rounds: int = 0
    drawn: int = 0
    accepted: int = 0


def sample_region_states(
    qp: QuadraticProblem,
    ts,
    rng: np.random.Generator,
    n: int,
    v_lo: float,
    v_hi: float,
    stats: SamplingStats | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw up to ``n`` states at each time of ``ts`` with ``V(t,x)``
    uniform in [v_lo, v_hi] and ``W(t,x)`` inside [w_minus, w_plus];
    returns the grid index and the state of every sample, grouped by time
    in grid order.

    V is hit exactly by scaling B-unit directions; W is then enforced by
    rejection, so the draw is uniform over directions, not over the region
    volume — adequate for worst-case margin estimation.  Each round draws
    one block of ``n`` candidates for every time and tests W on all of
    them as one stack; a time keeps its first accepted candidates, in
    round and candidate order, until it holds ``n``.  A time's block does
    not depend on what the other times accepted, so its states depend
    only on the generator's state at the call, the grid size and its
    index.  After ``SAMPLE_TRIES`` rounds a time keeps what it has,
    possibly nothing.  ``stats``, when given, is added to.
    """
    ts = np.asarray(ts, dtype=float)
    shape = (ts.size, n)
    low_inv = np.linalg.inv(cholesky_spd(qp.b.stack(ts)))
    c = qp.c.stack(ts)
    need = np.full(ts.size, n)
    rows, states = [], []
    rounds = 0
    while rounds < SAMPLE_TRIES and need.any():
        rounds += 1
        u = rng.standard_normal((*shape, qp.n))
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        vs = rng.uniform(v_lo, v_hi, size=shape)
        # x = sqrt(v) L^-T u  has  <Bx, x> = v exactly
        xs = (u @ low_inv) * np.sqrt(vs)[..., None]
        w = np.sum((xs @ c) * xs, axis=-1)
        keep = (qp.w_minus <= w) & (w <= qp.w_plus)
        keep &= np.cumsum(keep, axis=1) <= need[:, None]
        need -= keep.sum(axis=1)
        rows.append(np.nonzero(keep)[0])
        states.append(xs[keep])
    # a stable sort by time keeps each time's states in round order
    at = np.concatenate(rows)
    order = np.argsort(at, kind="stable")
    at, xs = at[order], np.concatenate(states)[order]
    if stats is not None:
        stats.calls += 1
        stats.rounds += rounds
        stats.drawn += rounds * ts.size * n
        stats.accepted += at.size
    return at, xs


# ---------------------------------------------------------------------------
# constant fitting and the scalar growth pair


def fit_constants(
    qp: QuadraticProblem,
    sigmas,
    samples: list[tuple[float, np.ndarray]],
    v0: float,
    grid: _Grid | None = None,
) -> list[GrowthPair]:
    """Smallest admissible ``c1, c2, c3`` over the sample set, one
    :class:`GrowthPair` per sigma in ``sigmas``, inflated by 1.01 because
    finitely many samples under-cover the region.

    The three inequalities fitted are ``2 phi <= c1 |Lam_V|``,
    ``2 psi <= c2 lam_W`` and ``|Lam_V| <= c3 V^sigma lam_W``.  Only c3
    depends on sigma, so each sample's rates are computed once.  B, C,
    B', C' and f0 are evaluated once per distinct sample time, or taken
    from ``grid`` when its times are exactly the distinct sample times.

    Raises
    ------
    DomainError
        If ``sigmas`` is empty or holds a sigma outside (0, 1].
    InfeasibleConditionE
        Naming the first unsatisfiable inequality and a witness sample
        (lam_W <= 0 somewhere, a forced rate with zero |Lam_V|, or a
        fitted c2 with c2^2 >= v0); none of them depends on sigma.
    """
    if not sigmas or not all(0.0 < sigma <= 1.0 for sigma in sigmas):
        raise DomainError(f"sigma must lie in (0, 1], got {tuple(sigmas)}")
    times = np.array([t for t, _ in samples], dtype=float)
    xs = np.array([x for _, x in samples], dtype=float).reshape(times.size, qp.n)
    # B, C, B', C' and f0 once per distinct sample time
    grid_ts, at = np.unique(times, return_inverse=True)
    g = _grid_at(qp, grid_ts, grid)
    ph, ps = (v[at] for v in _forcing(g))
    g, a = g.take(at), qp.a.stack(times, xs)
    lam_v = np.abs(_v_rates(g, a))
    lam_w = _w_rates(g, a)
    bad = (lam_w <= 0.0) | ((lam_v == 0.0) & (ph > 0.0))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InfeasibleConditionE(
            f"lam_W = {lam_w[k]:.6g} <= 0 at a region sample; "
            "the W-rate inequality 2 psi <= c2 lam_W has no positive fit"
            if lam_w[k] <= 0.0
            else "|Lam_V| vanishes at a sample with phi > 0; "
            "2 phi <= c1 |Lam_V| has no fit",
            witness=(samples[k][0], xs[k]),
        )
    pos = lam_v > 0.0
    c1 = SAFETY_INFLATION * float(np.max(2.0 * ph[pos] / lam_v[pos], initial=0.0))
    c2 = SAFETY_INFLATION * float(np.max(2.0 * ps / lam_w, initial=0.0))
    if c2**2 >= v0:
        raise InfeasibleConditionE(
            f"fitted c2 = {c2:.6g} has c2^2 >= v0 = {v0:.6g}; "
            "the forcing is too large for this v0"
        )
    if not np.any(pos):
        raise InfeasibleConditionE(
            "|Lam_V| = 0 on every sample; the growth pair degenerates "
            "(nothing to certify through G)"
        )
    vs = [float(qp.quad_v(t, x)) for (t, _), x in zip(samples, xs)]
    rates = list(zip(vs, lam_v.tolist(), lam_w.tolist()))
    pairs = []
    for sigma in sigmas:
        c3 = max(lam_v / (v**sigma * lam_w) for v, lam_v, lam_w in rates)
        pairs.append(GrowthPair(sigma, c1, c2, SAFETY_INFLATION * c3, v0))
    return pairs


def closed_form_ceiling(consts: GrowthPair, delta: float) -> float:
    """Window-free ceiling for V from the constants alone, at threshold
    ``v0 -> c2^2``: for spread ``delta = sup lam_plus - inf lam_minus``,

    * sigma < 1:  ``(C1 sqrt(delta) + c2^(1-sigma))^(2/(1-sigma))``
    * sigma = 1:  ``(e c2)^2 exp(C2 delta)``

    with ``C2 = (c1+c2) c2 c3 / 2`` and ``C1 = sqrt((1-sigma) C2)``.
    """
    if delta < 0.0:
        raise DomainError(f"spread must be >= 0, got {delta}")
    c_two = (consts.c1 + consts.c2) * consts.c2 * consts.c3 / 2.0
    if consts.sigma == 1.0:
        return (math.e * consts.c2) ** 2 * math.exp(c_two * delta)
    c_one = math.sqrt((1.0 - consts.sigma) * c_two)
    exponent = 2.0 / (1.0 - consts.sigma)
    return (
        c_one * math.sqrt(delta) + consts.c2 ** (1.0 - consts.sigma)
    ) ** exponent


# ---------------------------------------------------------------------------
# sampled curves and tail limits


def alpha_curve(
    qp: QuadraticProblem,
    ts: np.ndarray,
    v0: float,
    v_hi: float,
    rng: np.random.Generator,
    grid: _Grid | None = None,
    stats: SamplingStats | None = None,
) -> np.ndarray:
    """``alpha(t) = inf { lam_W(t,x) : x in region, V(t,x) > v0 }``,
    approximated by the min over state samples (exact when A is
    state-independent, since lam_W then does not depend on x, and then
    nothing is sampled).  All times are sampled by one
    :func:`sample_region_states` call, which adds to ``stats``; a time
    without states gets nan.  ``grid`` is used when it holds exactly the
    times ``ts``."""
    ts = np.asarray(ts, dtype=float)
    g = _grid_at(qp, ts, grid)
    if not qp.a.depends_on_state:
        return _w_rates(g, qp.a.stack(ts))
    at, xs = sample_region_states(qp, ts, rng, qp.n_state_samples,
                                  v0 * (1.0 + 1e-9), v_hi, stats)
    lam_w = _w_rates(g.take(at), qp.a.stack(ts[at], xs))
    out = np.full(ts.size, math.nan)
    np.fmin.at(out, at, lam_w)  # fmin skips the NaN of a time without states
    return out


@dataclass
class TailLimits:
    """Window approximations of the three liminf quantities as
    t -> -infinity, taken over the trailing window quarter."""

    nu: float
    omega_tilde: float
    omega0: float
    tail_span: tuple[float, float]


def limits_from_tail(
    ts: np.ndarray,
    lam_mp: np.ndarray,
    lam_minus: np.ndarray,
    w_plus: float,
    v0: float,
) -> TailLimits:
    """liminf values over the trailing quarter ``[T-, T- + |T-|/4]``.

    ``nu = liminf w_plus / lam_mp`` uses only samples with ``lam_mp > 0``
    (elsewhere the entry-disk size is not defined); ``omega_tilde`` and
    ``omega0`` are plain minima of ``lam_mp * v0`` and ``lam_minus * v0``.

    Raises
    ------
    ConditionGFailed
        If ``lam_mp`` has no positive sample in the trailing quarter, so
        the entry disks degenerate (limsup over the window tail <= 0).
    """
    t_lo = float(ts[0])
    cut = t_lo + 0.25 * (0.0 - t_lo)
    tail = ts <= cut
    if not np.any(tail):
        tail = np.zeros(ts.size, dtype=bool)
        tail[0] = True
    mp_tail = lam_mp[tail]
    lm_tail = lam_minus[tail]
    if float(np.max(mp_tail)) <= 0.0:
        raise ConditionGFailed(
            "lam_minus_plus has no positive sample in the trailing window "
            f"quarter [{t_lo:.6g}, {cut:.6g}]"
        )
    pos = mp_tail > 0.0
    nu = float(np.min(w_plus / mp_tail[pos]))
    omega_tilde = float(np.min(mp_tail * v0))
    omega0 = float(np.min(lm_tail * v0))
    return TailLimits(
        nu=nu,
        omega_tilde=omega_tilde,
        omega0=omega0,
        tail_span=(t_lo, float(cut)),
    )


# ---------------------------------------------------------------------------
# certificate assembly


@dataclass
class ConditionResult:
    passed: bool
    margin: float = math.nan
    window_certified: bool = False
    note: str = ""


@dataclass
class Certificate:
    """Everything :func:`certify` establishes about one problem.

    ``conditions`` maps the condition tags (a)-(g), (A), (B) to their
    results; ``feasible`` is True when every non-window condition passed
    and the ceiling check ``v_star > max(required)`` holds.  ``sampling``
    counts what the region sampler did; nothing reads it back.
    """

    sigma: float
    c1: float
    c2: float
    c3: float
    v0: float
    v0_auto: bool
    v_star: float
    v_star_auto: bool
    w_minus: float
    w_plus: float
    window: tuple[float, float]
    nu: float
    omega_tilde: float
    omega0: float
    v_small_star: float
    vstar_required: tuple[float, float]
    vstar_slack: float
    ts: np.ndarray = field(repr=False)
    lam_plus: np.ndarray = field(repr=False)
    lam_minus: np.ndarray = field(repr=False)
    lam_mp: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    ceiling: np.ndarray = field(repr=False)
    conditions: dict = field(repr=False)
    seed: int = 0
    notes: list = field(default_factory=list, repr=False)
    sampling: SamplingStats = field(default_factory=SamplingStats,
                                    repr=False)

    def growth_pair(self) -> GrowthPair:
        return GrowthPair(
            sigma=self.sigma, c1=self.c1, c2=self.c2, c3=self.c3, v0=self.v0
        )

    @property
    def feasible(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    @property
    def window_certified_only(self) -> bool:
        """True when every hard condition passed but at least one passing
        condition could only be checked on the finite window."""
        return self.feasible and any(
            c.window_certified for c in self.conditions.values()
        )


def check_v_star(
    v_star: float,
    gp: GrowthPair,
    nu: float,
    omega_tilde: float,
    omega0: float,
    w_plus: float,
) -> tuple[tuple[float, float], float]:
    """The two required ceilings and the slack of ``v_star`` above them:
    ``F^-1(F(nu) + w_plus - omega_tilde)`` and ``F^-1(w_plus - omega0)``.
    Positive slack means the region cap is compatible with entry disks.
    """
    term1 = bound_from_interior(gp, max(nu, gp.v0), w_plus, omega_tilde)
    term2 = bound_from_threshold(gp, w_plus, omega0)
    required = max(term1, term2)
    return (term1, term2), v_star - required


def certify(qp: QuadraticProblem, sigma_grid=SIGMA_GRID) -> Certificate:
    """Run the full condition pipeline, drawing region states from
    ``qp.seed``, and assemble a :class:`Certificate`.

    Condition tags in the result:

    * (a) B(t) positive definite on the grid
    * (b) C(t) nondegenerate with constant signature
    * (c) region sign conventions (w- < 0 < w+, v0 > 0, V* > 0)
    * (d) entry/exit disks: lam_minus v0 >= w-, lam_plus v0 <= w+
    * (e) constants c1, c2, c3, sigma fit with c2^2 < v0
    * (f) divergence of the alpha integral (window-certified)
    * (g) positive tail of lam_minus_plus (trailing-quarter proxy)
    * (A) growth clock reaches every needed value by Vmax (window-certified)
    * (B) same integral evidence as (f), the general-form condition
    """
    rng = default_rng(qp.seed)
    t_lo, t_hi = qp.window
    ts = np.linspace(t_lo, t_hi, qp.n_grid)
    conditions: dict[str, ConditionResult] = {}
    notes: list[str] = []
    grid = _grid(qp, ts)
    sampling = SamplingStats()

    # (a) SPD check of B on the grid
    try:
        cholesky_spd(grid.b)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(
            exc.pivot, exc.value, index=exc.index,
            where=f"B(t = {ts[exc.index]:.6g})", entry=exc.entry,
        ) from None
    min_b_eig = float(np.min(np.linalg.eigvalsh(grid.b)[:, 0]))
    conditions["a"] = ConditionResult(
        passed=min_b_eig > 0.0, margin=min_b_eig
    )

    # (b) C finite and nondegenerate with constant signature on the whole
    # grid, then the extreme characteristic values of C - lambda B and the
    # minimum over the positive C-subspace
    try:
        proj = spectral_projectors(grid.c)
    except DegeneratePencil as exc:
        raise DegeneratePencil(f"C(t = {ts[exc.index]:.6g}): {exc}") from None
    pencil = SymmetricPencil(grid.c, grid.b)
    lam_minus, lam_plus = lambda_extremes(pencil)
    eigs = np.abs(np.concatenate([proj.eigs_minus, proj.eigs_plus], axis=-1))
    conditions["b"] = ConditionResult(
        passed=True,
        margin=float(np.min(np.min(eigs, axis=-1) / np.max(eigs, axis=-1))),
        note=f"signature (+{proj.n_plus}, -{proj.n_minus})",
    )
    lam_mp = lambda_minus_plus(pencil, proj)

    # auto v0: half the largest disk condition (d) permits
    v0_auto = qp.v0 is None
    if v0_auto:
        caps = []
        pos = lam_plus > 0.0
        if np.any(pos):
            caps.append(float(np.min(qp.w_plus / lam_plus[pos])))
        neg = lam_minus < 0.0
        if np.any(neg):
            caps.append(float(np.min(qp.w_minus / lam_minus[neg])))
        if not caps:
            raise DomainError(
                "cannot choose v0 automatically: no positive lam_plus or "
                "negative lam_minus sample on the grid"
            )
        v0 = 0.5 * min(caps)
        notes.append(f"v0 chosen automatically as {v0:.9g}")
    else:
        v0 = float(qp.v0)

    # (c) sign conventions (the ambient domain is the whole space here,
    # so the containment part is automatic)
    conditions["c"] = ConditionResult(
        passed=(qp.w_minus < 0.0 < qp.w_plus) and v0 > 0.0,
        margin=min(qp.w_plus, -qp.w_minus, v0),
        note="ambient domain is all of R^(1+n)",
    )

    # (d) disk inclusions
    margin_hi = float(np.min(qp.w_plus - lam_plus * v0))
    margin_lo = float(np.min(lam_minus * v0 - qp.w_minus))
    conditions["d"] = ConditionResult(
        passed=margin_hi >= 0.0 and margin_lo >= 0.0,
        margin=min(margin_hi, margin_lo),
    )

    # (g) + tail limits
    tail = limits_from_tail(ts, lam_mp, lam_minus, qp.w_plus, v0)
    conditions["g"] = ConditionResult(
        passed=True,
        margin=float(np.max(lam_mp[ts <= tail.tail_span[1]])),
        window_certified=True,
        note=f"trailing quarter {tail.tail_span}",
    )

    # (e) constants: fit on samples (exact fast path when A is
    # state-independent), sigma by grid search on the t = 0 ceiling,
    # V* by fixed-point iteration when not supplied
    state_free = not qp.a.depends_on_state
    v_star_auto = qp.v_star is None
    v_star = float(qp.v_star) if qp.v_star is not None else 4.0 * v0
    spread = float(np.max(lam_plus) - np.min(lam_minus))

    def samples_for(v_hi: float):
        """The fit's samples, and the grid rows at their distinct times."""
        if state_free:
            # lam/phi/psi do not depend on x, and V^-sigma is maximal at
            # v0, so per-t samples at V = v0 fit the whole region exactly:
            # x = sqrt(v0) L^-T e_1 = sqrt(v0 / B_11) e_1
            xs = np.zeros((ts.size, qp.n))
            xs[:, 0] = math.sqrt(v0) * (1.0 / np.sqrt(grid.b[:, 0, 0]))
            return list(zip(ts.tolist(), xs)), grid
        at, xs = sample_region_states(qp, ts, rng, qp.n_state_samples, v0,
                                      v_hi, sampling)
        if not at.size:
            raise InfeasibleConditionE(
                "region sampler produced no states; region may be empty"
            )
        # the grid rows with samples (np.unique on ints would import
        # numpy.ma, ~1 MB and milliseconds, on its first call)
        rows = np.flatnonzero(np.bincount(at, minlength=ts.size))
        return list(zip(ts[at].tolist(), xs)), grid.take(rows)

    def clock_ceiling(gp: GrowthPair) -> float:
        return growth_integral_inv(gp, max(0.0, 0.5 * v0 * spread))

    for _round in range(6):
        samples, rows = samples_for(v_star)
        fits = fit_constants(qp, sigma_grid, samples, v0, rows)
        # min keeps the first sigma on ties
        best = min(fits, key=clock_ceiling)
        (term1, term2), _ = check_v_star(
            v_star, best, tail.nu, tail.omega_tilde, tail.omega0, qp.w_plus
        )
        if not v_star_auto:
            break
        needed = VSTAR_HEADROOM * max(term1, term2, v0)
        if needed <= v_star * (1.0 + 1e-9):
            v_star = needed
            break
        v_star = needed
    else:
        notes.append(
            "V* fixed-point iteration did not settle in 6 rounds; using "
            f"the last iterate {v_star:.9g}"
        )
    if v_star_auto:
        notes.append(f"V* chosen automatically as {v_star:.9g}")

    conditions["e"] = ConditionResult(
        passed=True,
        margin=v0 - best.c2**2,
        note=(
            f"sigma={best.sigma:g} picked from {tuple(sigma_grid)} by the "
            "t=0 ceiling"
        ),
    )
    if best.sigma == 1.0:
        notes.append(
            "sigma=1 surrogate inverse carries the c3 factor required for "
            "algebraic consistency with the surrogate itself"
        )
    gp = best

    # alpha curve, (f) and (B): window divergence of the return clock
    alpha = alpha_curve(qp, ts, v0, v_star, rng, grid, sampling)
    if np.any(np.isnan(alpha)):
        conditions["f"] = ConditionResult(
            passed=False,
            window_certified=True,
            note="alpha had empty sample sets on the grid",
        )
        int_left = int_right = math.nan
    else:
        left = ts <= 0.0
        right = ts >= 0.0
        int_left = float(np.trapezoid(alpha[left], ts[left]))
        int_right = float(np.trapezoid(alpha[right], ts[right]))
        g_v0 = gp.g(v0)
        target = (qp.w_plus - qp.w_minus) / g_v0
        passed_f = min(int_left, int_right) >= target
        conditions["f"] = ConditionResult(
            passed=passed_f,
            margin=min(int_left, int_right) - target,
            window_certified=True,
            note=(
                f"integrals ({int_left:.6g}, {int_right:.6g}) vs return "
                f"target {target:.6g}"
            ),
        )
    conditions["B"] = ConditionResult(
        passed=conditions["f"].passed,
        margin=conditions["f"].margin,
        window_certified=True,
        note="same evidence as (f): alpha == inf lam_W over the region",
    )

    # ceilings
    v_small_star = bound_excursion(gp, qp.w_plus, qp.w_minus)
    w_hi_curve = lam_plus * v0
    w_lo_curve = lam_minus * v0
    ceiling = sup_bound_curve(gp, ts, w_hi_curve, w_lo_curve)

    (term1, term2), slack = check_v_star(
        v_star, gp, tail.nu, tail.omega_tilde, tail.omega0, qp.w_plus
    )
    conditions["V*"] = ConditionResult(
        passed=slack > 0.0,
        margin=slack,
        note=f"required max({term1:.9g}, {term2:.9g})",
    )

    # (A): every growth-clock inverse we may take must resolve below Vmax
    needed_clock = max(
        growth_integral(gp, max(tail.nu, v0)) + qp.w_plus - tail.omega_tilde,
        qp.w_plus - tail.omega0,
        0.5 * v0 * spread,
        0.5 * (qp.w_plus - qp.w_minus),
    )
    clock_at_vmax = growth_integral(gp, gp.vmax)
    conditions["A"] = ConditionResult(
        passed=clock_at_vmax > needed_clock,
        margin=clock_at_vmax - needed_clock,
        window_certified=True,
        note=f"F(Vmax={gp.vmax:.3g}) = {clock_at_vmax:.6g}",
    )

    # certificate-level sanity of the tail quantities
    if not (qp.w_minus <= tail.omega0 <= qp.w_plus):
        notes.append(
            f"omega0 = {tail.omega0:.9g} escapes [w-, w+]; the window tail "
            "is inconsistent with condition (d)"
        )
    if tail.nu < v0 * (1.0 - 1e-12):
        notes.append(
            f"nu = {tail.nu:.9g} fell below v0 = {v0:.9g}; entry disks "
            "do not reach the threshold"
        )

    return Certificate(
        sigma=best.sigma,
        c1=best.c1,
        c2=best.c2,
        c3=best.c3,
        v0=v0,
        v0_auto=v0_auto,
        v_star=v_star,
        v_star_auto=v_star_auto,
        w_minus=qp.w_minus,
        w_plus=qp.w_plus,
        window=(t_lo, t_hi),
        nu=tail.nu,
        omega_tilde=tail.omega_tilde,
        omega0=tail.omega0,
        v_small_star=v_small_star,
        vstar_required=(term1, term2),
        vstar_slack=slack,
        ts=ts,
        lam_plus=lam_plus,
        lam_minus=lam_minus,
        lam_mp=lam_mp,
        alpha=alpha,
        ceiling=ceiling,
        conditions=conditions,
        seed=qp.seed,
        notes=notes,
        sampling=sampling,
    )


# ---------------------------------------------------------------------------
# the two-solution separation test


@dataclass
class UniquenessQuadraticReport:
    """Outcome of the quadratic two-solution separation test.

    Uses a comparison pair ``C_hat``/``A_hat``: the difference of two
    solutions obeys the same rate structure with ``lam_hat`` the minimal
    characteristic value of ``(C_hat A_hat + A_hat^T C_hat + C_hat') -
    lambda B``; divergence of the normalized integral of the floor
    ``beta_hat`` rules out two distinct V-bounded solutions.
    """

    status: str  # "pass", "fail", "vacuous"
    beta_min: float
    witness: tuple | None
    lam_hat_curve: np.ndarray
    big_lam_curve: np.ndarray
    divergence_left: float
    divergence_right: float
    divergence_threshold: float
    diverges: bool
    notes: list


def uniqueness_quadratic(
    qp: QuadraticProblem,
    a_hat=None,
    v_hi: float | None = None,
    seed: int = 0,
) -> UniquenessQuadraticReport:
    """Separation test with comparison form ``qp.c_hat`` (default C) and
    difference matrix ``A_hat(t, x, y)`` (default A, exact when A is
    state-independent).

    ``a_hat`` may be a callable ``(t, x, y) -> ndarray``; for
    state-dependent A without a supplied ``a_hat`` the test is vacuous
    (the difference representation is not available) and says so.
    """
    rng = default_rng(seed)
    t_lo, t_hi = qp.window
    ts = np.linspace(t_lo, t_hi, qp.n_grid)
    z = np.zeros(qp.n)
    c_hat = qp.c_hat if qp.c_hat is not None else qp.c
    c_hat_dot = c_hat.diff_t()
    notes: list[str] = []

    if a_hat is None:
        if qp.a.depends_on_state:
            return UniquenessQuadraticReport(
                status="vacuous",
                beta_min=math.nan,
                witness=None,
                lam_hat_curve=np.full(ts.size, math.nan),
                big_lam_curve=np.full(ts.size, math.nan),
                divergence_left=math.nan,
                divergence_right=math.nan,
                divergence_threshold=DIVERGENCE_THRESHOLD,
                diverges=False,
                notes=[
                    "A depends on the state and no difference matrix was "
                    "supplied; the separation test cannot run"
                ],
            )

        def a_hat(t, x, y):
            return qp.a.eval(t)

        notes.append("A is state-independent; difference matrix equals A")

    v_hi = v_hi if v_hi is not None else (qp.v_star or 1.0)
    v_lo = qp.v0 if qp.v0 is not None else v_hi / 4.0

    # the region states of each grid time, paired off in twos
    at, xs = sample_region_states(qp, ts, rng, SEPARATION_STATES, v_lo, v_hi)
    per_time = np.split(xs, np.cumsum(np.bincount(at, minlength=ts.size))[:-1])
    pairs = []  # (grid index, x, y)
    for i, states in enumerate(per_time):
        if len(states) < 2:
            states = [z.copy(), z.copy()]
        pairs += [(i, x, y) for x, y in zip(states[::2], states[1::2])]
    at = np.array([i for i, _, _ in pairs])

    b, ch = qp.b.stack(ts), c_hat.stack(ts)
    big_lo, big_hi = lambda_extremes(SymmetricPencil(ch, b))
    big_lam = np.where(np.abs(big_hi) >= np.abs(big_lo), big_hi, big_lo)
    m = ch[at] @ np.array([a_hat(float(ts[i]), x, y) for i, x, y in pairs],
                          dtype=float)
    lam = lambda_extremes(
        SymmetricPencil(m + m.mT + c_hat_dot.stack(ts)[at], b[at])
    )[0]
    beta = np.full(ts.size, math.inf)
    np.minimum.at(beta, at, lam)
    # the witness: the first pair at the first time attaining the least
    # value, among the times whose beta is not nan
    k = int(np.argmin(np.where(np.isnan(beta[at]), math.inf, lam)))
    beta_min, witness = math.inf, None
    if lam[k] < math.inf:
        i, x, y = pairs[k]
        beta_min, witness = float(lam[k]), (float(ts[i]), x.copy(), y.copy())

    # normalized divergence evidence: (1/|Lam_hat(t)|) |int_0^t beta/Lam_hat|
    def normalized(t_index_mask, endpoint):
        sel = np.nonzero(t_index_mask)[0]
        if sel.size < 2:
            return 0.0
        tsel = ts[sel]
        integrand = beta[sel] / big_lam[sel]
        integral = abs(float(np.trapezoid(integrand, tsel)))
        return integral / abs(float(big_lam[endpoint]))

    div_left = normalized(ts <= 0.0, 0)
    div_right = normalized(ts >= 0.0, ts.size - 1)
    diverges = min(div_left, div_right) >= DIVERGENCE_THRESHOLD

    status = "pass" if (beta_min > 0.0 and diverges) else "fail"
    if beta_min > 0.0 and not diverges:
        notes.append(
            "rate floor positive but the window integral stays below the "
            "divergence threshold; uniqueness is only window-supported"
        )
    return UniquenessQuadraticReport(
        status=status,
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
