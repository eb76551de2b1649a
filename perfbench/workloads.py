"""Problem files for the three benchmark workloads, made from a seed.

Every workload is a plain vwbound problem document written into the
benchmark's work directory; the program sees only that file.

* ``saddle``    -- ``demos/saddle.problem`` copied unchanged.
* ``nonlinear`` -- saddle with a state-dependent ``A.1.1``, grid 51 and
  16 state samples per grid point.
* ``wide``      -- a seeded six-state saddle with a rotating forcing.

See ``perfbench/README.md`` for why each one was chosen.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

WORKLOADS = ("saddle", "nonlinear", "wide")

# trapped solution of the shipped saddle at t = 0: -eps/2 (sin t + cos t)
# and its negative, with eps = 0.1
SADDLE_XI = (-0.05, 0.05)

# sampling seed the nonlinear variant keeps (the shipped demo's seed);
# see README.md, "Why nonlinear keeps the shipped sampling seed"
NONLINEAR_SAMPLING_SEED = 42
# state samples per grid point (the default is 48); see README.md
NONLINEAR_SAMPLES = 16

WIDE_N = 6
WIDE_AMPLITUDE = 0.02


def saddle_text(root: Path) -> str:
    return (root / "demos" / "saddle.problem").read_text(encoding="utf-8")


def nonlinear_text(root: Path) -> str:
    text = saddle_text(root)
    for pattern, repl in (
        (r'(?m)^A\.1\.1 = "1"', 'A.1.1 = "1 + 0.5*x1*x2"'),
        (r"(?m)^grid = \d+", "grid = 51"),
        (r"(?m)^seed = \d+",
         f"seed = {NONLINEAR_SAMPLING_SEED}\nsamples = {NONLINEAR_SAMPLES}"),
    ):
        text, count = re.subn(pattern, repl, text)
        if count != 1:
            raise ValueError(f"saddle.problem no longer has a line {pattern!r}")
    return text


def wide_params(seed: int) -> dict:
    """Seeded draw of the six-state problem: orthogonal Q, forcing
    frequencies in [0.5, 1.5] and phases in [0, 2 pi)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((WIDE_N, WIDE_N)))
    q = q * np.sign(np.diag(r))[None, :]
    omega = rng.uniform(0.5, 1.5, size=WIDE_N)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=WIDE_N)
    signs = np.array([1.0] + [-1.0] * (WIDE_N - 1))
    a = q @ np.diag(signs) @ q.T
    return {"q": q, "a": 0.5 * (a + a.T), "omega": omega, "phase": phase}


def wide_text(seed: int) -> str:
    """A = Q diag(1, -1, ...) Q^T, B = I,
    C(t) = Q diag(1 + 0.2 sin 0.3t, -1, ...) Q^T = A + 0.2 sin(0.3t) q1 q1^T,
    f0_i = 0.02 sin(omega_i t + phase_i)."""
    p = wide_params(seed)
    a, q1 = p["a"], p["q"][:, 0]
    lines = [
        f"# wide workload, seed {seed}: n = {WIDE_N}, rotated saddle",
        "[problem]",
        f"n = {WIDE_N}",
        "t_minus = -40",
        "t_plus = 40",
        "",
        "[system]",
    ]
    for i in range(WIDE_N):
        for j in range(WIDE_N):
            lines.append(f'A.{i + 1}.{j + 1} = "({float(a[min(i, j), max(i, j)])!r})"')
    for i in range(WIDE_N):
        lines.append(
            f'f0.{i + 1} = "{WIDE_AMPLITUDE!r}*sin({float(p["omega"][i])!r}*t + '
            f'({float(p["phase"][i])!r}))"'
        )
    lines += ["", "[guiding]"]
    for i in range(WIDE_N):
        for j in range(WIDE_N):
            lo, hi = min(i, j), max(i, j)
            lines.append(f'B.{i + 1}.{j + 1} = "{1 if i == j else 0}"')
            lines.append(
                f'C.{i + 1}.{j + 1} = "({float(a[lo, hi])!r}) + '
                f'({float(0.2 * q1[lo] * q1[hi])!r})*sin(0.3*t)"'
            )
    lines += [
        "",
        "[region]",
        "v0 = auto",
        "w_minus = -0.02",
        "w_plus = 0.02",
        "v_star = auto",
        "",
    ]
    return "\n".join(lines)


def wide_xi(seed: int) -> np.ndarray:
    """Bounded solution at t = 0. With A^2 = I, the forcing
    a sin(w t + p) e_i has the bounded response
    -a (A sin(w t + p) + w cos(w t + p)) e_i / (1 + w^2)."""
    p = wide_params(seed)
    a, omega, phase = p["a"], p["omega"], p["phase"]
    xi = np.zeros(WIDE_N)
    for i in range(WIDE_N):
        e = np.zeros(WIDE_N)
        e[i] = 1.0
        xi -= WIDE_AMPLITUDE * (
            a @ e * math.sin(phase[i]) + omega[i] * math.cos(phase[i]) * e
        ) / (1.0 + omega[i] ** 2)
    return xi


def problem_text(workload: str, seed: int, root: Path) -> str:
    if workload == "saddle":
        return saddle_text(root)
    if workload == "nonlinear":
        return nonlinear_text(root)
    if workload == "wide":
        return wide_text(seed)
    raise ValueError(f"unknown workload {workload!r}")


def reference_xi(workload: str, seed: int):
    """Exact x(0) to gate the solve stage against, or None."""
    if workload == "saddle":
        return np.array(SADDLE_XI)
    if workload == "wide":
        return wide_xi(seed)
    return None
