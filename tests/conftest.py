"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the code paths they check: pencil
eigenvalues are reproduced by bisecting sign changes of det(C - lambda B),
growth integrals by composite Simpson on a fixed grid, and the reference
problem by its closed-form trapped solution.
"""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import settings

from vwbound.expr import MatrixFunction, VectorFunction
from vwbound.quadratic import QuadraticProblem, certify

# every run draws the same examples, so a new random example cannot fail
# the suite; no deadline, since a first call compiles generated code
settings.register_profile("vwbound", derandomize=True, deadline=None)
settings.load_profile("vwbound")

DATA_DIR = pathlib.Path(__file__).parent / "data"
EPS_REF = 0.1  # forcing amplitude of the reference problem


# ---------------------------------------------------------------------------
# independent oracles


def det_root_refine(c, b, lam, half_width=None, tol=1e-12):
    """Refine one generalized eigenvalue by bisecting the sign change of
    det(C - lambda B) around ``lam``; independent of any eigensolver."""
    c = np.asarray(c, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, abs(lam))
    h = half_width if half_width is not None else 1e-6 * scale

    def f(x):
        sign, logdet = np.linalg.slogdet(c - x * b)
        return sign * math.exp(min(logdet, 300.0))

    lo, hi = lam - h, lam + h
    flo, fhi = f(lo), f(hi)
    # widen until the determinant changes sign (simple roots only)
    grow = 0
    while flo * fhi > 0.0 and grow < 60:
        h *= 2.0
        lo, hi = lam - h, lam + h
        flo, fhi = f(lo), f(hi)
        grow += 1
    if flo * fhi > 0.0:
        raise AssertionError(
            f"no determinant sign change around lambda={lam!r}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or hi - lo < tol * scale:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def simpson_fixed(f, a, b, n=4001):
    """Composite Simpson on a fixed grid (n odd)."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (n - 1)
    return h / 3.0 * (
        ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()
    )


def reference_solution(t):
    """Closed-form trapped solution of the reference problem."""
    s = math.sin(t) + math.cos(t)
    return np.array([-0.5 * EPS_REF * s, 0.5 * EPS_REF * s])


def rotated_saddle(n: int, seed: int):
    """The benchmark's ``wide`` construction (perfbench/README.md) at ``n``
    states, drawn from ``seed``: A = Q diag(1, -1, ...) Q^T, C(t) = Q
    diag(1 + 0.2 sin 0.3t, -1, ...) Q^T, B = I and f0_i = 0.02 sin(w_i t +
    p_i), on the window +-40 with w+- = +-0.02.  Returns the document text
    and the bounded solution at t = 0: since A^2 = I, it is x(0) = -sum_i
    0.02 (A sin p_i + w_i cos p_i I) e_i / (1 + w_i^2)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))[None, :]
    omega = rng.uniform(0.5, 1.5, size=n)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=n)
    a = q @ np.diag([1.0] + [-1.0] * (n - 1)) @ q.T
    a = 0.5 * (a + a.T)
    q1 = q[:, 0]
    lines = ["[problem]", f"n = {n}", "t_minus = -40", "t_plus = 40", "",
             "[system]"]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    lines += [f'A.{i + 1}.{j + 1} = "({float(a[min(i, j), max(i, j)])!r})"'
              for i, j in pairs]
    lines += [f'f0.{i + 1} = "0.02*sin({float(omega[i])!r}*t + '
              f'({float(phase[i])!r}))"' for i in range(n)]
    lines += ["", "[guiding]"]
    for i, j in pairs:
        lo, hi = min(i, j), max(i, j)
        lines.append(f'B.{i + 1}.{j + 1} = "{1 if i == j else 0}"')
        lines.append(f'C.{i + 1}.{j + 1} = "({float(a[lo, hi])!r}) + '
                     f'({float(0.2 * q1[lo] * q1[hi])!r})*sin(0.3*t)"')
    lines += ["", "[region]", "v0 = auto", "w_minus = -0.02",
              "w_plus = 0.02", "v_star = auto", ""]
    xi = np.zeros(n)
    for i, e in enumerate(np.eye(n)):
        xi -= 0.02 * (a @ e * math.sin(phase[i])
                      + omega[i] * math.cos(phase[i]) * e) / (1 + omega[i]**2)
    return "\n".join(lines), xi


# ---------------------------------------------------------------------------
# fixtures


def make_reference_problem(**overrides) -> QuadraticProblem:
    a = MatrixFunction.from_strings([["1", "0"], ["0", "-1"]], n_states=2)
    f0 = VectorFunction.from_strings(
        ["0.1*sin(t)", "0.1*cos(t)"], n_states=2
    )
    b = MatrixFunction.from_strings(
        [["1", "0"], ["0", "1"]], n_states=2, symmetric=True
    )
    c = MatrixFunction.from_strings(
        [["1", "0"], ["0", "-1"]], n_states=2, symmetric=True
    )
    kwargs = dict(
        a=a, f0=f0, b=b, c=c, window=(-40.0, 40.0),
        v0=0.02, w_minus=-0.02, w_plus=0.02, v_star=None, seed=42,
    )
    kwargs.update(overrides)
    return QuadraticProblem(**kwargs)


@pytest.fixture(scope="session")
def reference_problem():
    return make_reference_problem()


@pytest.fixture(scope="session")
def reference_certificate(reference_problem):
    return certify(reference_problem)


@pytest.fixture(scope="session")
def reference_solution_run(reference_problem, reference_certificate):
    from vwbound.shooting import bounded_solution

    return bounded_solution(reference_problem, reference_certificate)


@pytest.fixture(scope="session")
def reference_document_path():
    return str(DATA_DIR / "reference.problem")
