"""Acceptance gate: nine end-to-end criteria, each with a fixed numeric
tolerance and a runtime budget.  Every test prints exactly one PASS/FAIL
line (visible under plain ``pytest``) before asserting.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    det_root_refine,
    make_reference_problem,
    reference_solution,
)
from vwbound.cli import main
from vwbound.errors import NoSignChange
from vwbound.expr import MatrixFunction, VectorFunction
from vwbound.growth import (
    GrowthPair,
    bound_excursion,
    growth_integral,
    growth_integral_inv,
)
from vwbound.ode import EventSpec, eval_v_w_along, integrate, make_region_events
from vwbound.pencil import SymmetricPencil, solve_pencil, spectral_projectors
from vwbound.quadratic import (
    certify,
    closed_form_ceiling,
    sample_region_states,
    uniqueness_quadratic,
)
from vwbound.report import RunReport, report_from_certificate
from vwbound.shooting import (
    bounded_solution,
    find_trapped_start,
    verify_bound,
)
from vwbound.ode import write_trajectory_csv


def _verdict(capsys, num, label, ok, elapsed, budget):
    with capsys.disabled():
        print(
            "criterion %d %s  %s (%.2fs < %gs)"
            % (num, "PASS" if ok else "FAIL", label, elapsed, budget)
        )


def _random_constants(rng):
    v0 = float(10.0 ** rng.uniform(-2.5, 0.5))
    c2 = math.sqrt(v0) * float(rng.uniform(0.1, 0.9))
    c1 = float(10.0 ** rng.uniform(-2, 0.0))
    c3 = float(10.0 ** rng.uniform(-1.0, 1.0))
    sigma = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
    return GrowthPair(sigma=sigma, c1=c1, c2=c2, c3=c3, v0=v0)


def test_criterion_1_pencil_oracle(capsys):
    budget = 5.0
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []
    for case in range(100):
        n = int(rng.integers(2, 9))
        r = rng.standard_normal((n, n))
        b = r @ r.T + n * np.eye(n)
        s = rng.standard_normal((n, n))
        c = s + s.T
        pencil = SymmetricPencil(c, b)
        for lam in solve_pencil(pencil):
            refined = det_root_refine(c, b, lam)
            if abs(refined - lam) > 1e-8 * max(1.0, abs(lam)):
                failures.append((case, lam, refined))
        # the splitting of C that certify and the disk charts read: an
        # orthonormal basis of the positive eigenspace, and the
        # eigenvalues of both parts
        proj = spectral_projectors(c)
        u = proj.basis_plus
        if np.abs(u.T @ u - np.eye(proj.n_plus)).max(initial=0.0) > 1e-10:
            failures.append((case, "orthonormality"))
        if np.abs(c @ u - u * proj.eigs_plus).max(initial=0.0) > 1e-10 * n:
            failures.append((case, "invariance"))
        eigs = np.concatenate([proj.eigs_minus, proj.eigs_plus])
        if (proj.n_plus + proj.n_minus != n or np.any(proj.eigs_minus >= 0)
                or np.any(proj.eigs_plus <= 0)
                or np.max(np.abs(eigs - np.linalg.eigvalsh(c))) > 1e-10 * n):
            failures.append((case, "signature"))
    elapsed = time.perf_counter() - t_start
    ok = not failures and elapsed < budget
    _verdict(capsys, 1, "pencil eigenvalues vs determinant-root oracle",
             ok, elapsed, budget)
    assert not failures, failures[:3]
    assert elapsed < budget


def test_criterion_2_growth_clock(capsys):
    budget = 5.0
    t_start = time.perf_counter()
    rng = np.random.default_rng(7)
    failures = []
    for case in range(20):
        gp = _random_constants(rng)
        if growth_integral(gp, gp.v0) != 0.0:
            failures.append((case, "F(v0) != 0"))
        grid = np.geomspace(gp.v0, 1e3 * gp.v0, 200)
        vals = np.array([growth_integral(gp, float(v)) for v in grid])
        if not np.all(np.diff(vals) > 0.0):
            failures.append((case, "not strictly increasing"))
        z_hi = growth_integral(gp, 100.0 * gp.v0)
        for z in np.linspace(0.0, z_hi, 50):
            v = growth_integral_inv(gp, float(z))
            if abs(growth_integral(gp, v) - z) > 1e-8:
                failures.append((case, "round trip", z))
                break
    # surrogate ordering F1 <= F up to the certified ceiling
    for case in range(20):
        consts = _random_constants(rng)
        gp = consts
        for v in np.linspace(consts.v0, 50.0 * consts.v0, 100):
            if consts.f1(float(v)) > growth_integral(gp, float(v)) + 1e-12:
                failures.append((case, "F1 > F", v))
                break
    elapsed = time.perf_counter() - t_start
    ok = not failures and elapsed < budget
    _verdict(capsys, 2, "growth clock F: anchor, monotone, inverse, F1<=F",
             ok, elapsed, budget)
    assert not failures, failures[:3]
    assert elapsed < budget


def test_criterion_3_closed_form_ceiling(capsys):
    budget = 1.0
    t_start = time.perf_counter()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        c1 = float(rng.uniform(0.01, 1.0))
        c2 = float(rng.uniform(0.05, 1.0))
        c3 = float(rng.uniform(0.1, 5.0))
        delta = float(rng.uniform(0.0, 5.0))
        v0 = c2**2 * (1.0 + 1e-8)
        c_two = (c1 + c2) * c2 * c3 / 2.0
        # sigma = 1: the exponential form
        consts = GrowthPair(sigma=1.0, c1=c1, c2=c2, c3=c3, v0=v0)
        got = consts.f1_inv(0.5 * v0 * delta)
        want = (math.e * c2) ** 2 * math.exp(c_two * delta)
        worst = max(worst, abs(got - want) / want)
        # sigma < 1: the power form, same threshold limit
        sigma = float(rng.choice([0.25, 0.5, 0.75]))
        consts = GrowthPair(sigma=sigma, c1=c1, c2=c2, c3=c3, v0=v0)
        got = consts.f1_inv(0.5 * v0 * delta)
        want = closed_form_ceiling(consts, delta)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - t_start
    ok = worst <= 1e-6 and elapsed < budget
    _verdict(capsys, 3, "constants-only ceiling matches F1 inverse at "
                        "threshold", ok, elapsed, budget)
    assert worst <= 1e-6, worst
    assert elapsed < budget


def test_criterion_4_reference_end_to_end(capsys, tmp_path,
                                          reference_document_path):
    budget = 30.0
    t_start = time.perf_counter()
    problems = []
    cert_path = tmp_path / "cert.txt"
    code = main(["certify", str(reference_document_path),
                 "--out", str(cert_path)])
    if code != 2:
        problems.append(f"certify exit {code} != 2")
    rep = RunReport.load(cert_path)
    for key, want in (("curve.lam_plus", 1.0), ("curve.lam_minus", -1.0),
                      ("curve.lam_mp", 1.0), ("curve.alpha", 2.0)):
        curve = rep.get_array(key)
        if np.max(np.abs(curve - want)) > 1e-9:
            problems.append(f"{key} != {want}")
    code = main(["solve", str(reference_document_path),
                 "--cert", str(cert_path), "--out", str(tmp_path)])
    if code != 0:
        problems.append(f"solve exit {code} != 0")
    srep = RunReport.load(tmp_path / "solve-report.txt")
    xi = np.array([srep.get_float("solution.xi.1"),
                   srep.get_float("solution.xi.2")])
    if np.max(np.abs(xi - [-0.05, 0.05])) > 1e-6:
        problems.append(f"xi = {xi}")
    if abs(srep.get_float("solution.sup_v") - 0.01) > 1e-5:
        problems.append(f"sup V = {srep.get_float('solution.sup_v')}")
    ver_path = tmp_path / "verify.txt"
    code = main(["verify", str(reference_document_path),
                 "--cert", str(cert_path),
                 "--traj", str(tmp_path / "trajectory.csv"),
                 "--out", str(ver_path)])
    if code != 0:
        problems.append(f"verify exit {code} != 0")
    vrep = RunReport.load(ver_path)
    if vrep.get_float("verify.slack_const") <= 0.0:
        problems.append("no slack against the constant ceiling")
    if vrep.get_float("verify.slack_envelope") <= 0.0:
        problems.append("no slack against the envelope curve")
    elapsed = time.perf_counter() - t_start
    ok = not problems and elapsed < budget
    _verdict(capsys, 4, "reference problem certify/solve/verify pipeline",
             ok, elapsed, budget)
    assert not problems, problems
    assert elapsed < budget


def test_criterion_5_clock_inequality(capsys, reference_problem,
                                      reference_certificate,
                                      reference_solution_run):
    budget = 10.0
    t_start = time.perf_counter()
    qp = reference_problem
    cert = reference_certificate
    gp = cert.growth_pair()

    def worst_margin(traj):
        curves = eval_v_w_along(qp, traj, gp=gp)
        mask = curves.v > cert.v0
        if not np.any(mask):
            return math.inf, 0
        margin = curves.w_dot[mask] - np.abs(curves.f_dot[mask])
        return float(np.min(margin)), int(mask.sum())

    worst, _ = worst_margin(reference_solution_run.traj)
    checked = 0
    rng = np.random.default_rng(99)
    evs = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus, qp.w_minus,
                             cert.v0, cert.v_star)
    while checked < 20:
        t0 = float(rng.uniform(-35.0, 25.0))
        _, states = sample_region_states(
            qp, [t0], rng, 1, cert.v0 * 1.02, 0.9 * cert.v_star
        )
        if not len(states):
            continue
        traj = integrate(qp.rhs, t0, states[0], t0 + 10.0, tol=1e-9,
                         events=evs)
        m, n_above = worst_margin(traj)
        if n_above == 0:
            continue
        worst = min(worst, m)
        checked += 1
    elapsed = time.perf_counter() - t_start
    ok = worst >= -1e-6 and elapsed < budget
    _verdict(capsys, 5, "clock rate |dF/dt| <= dW/dt above the threshold",
             ok, elapsed, budget)
    assert worst >= -1e-6, worst
    assert elapsed < budget


def test_criterion_6_excursion_bound(capsys, reference_problem,
                                     reference_certificate):
    budget = 10.0
    t_start = time.perf_counter()
    qp = reference_problem
    cert = reference_certificate
    gp = cert.growth_pair()
    ceiling = bound_excursion(gp, qp.w_plus, qp.w_minus)
    evs = make_region_events(qp.quad_w, qp.quad_v, qp.w_plus, qp.w_minus,
                             cert.v0, cert.v_star)
    # the threshold level V = v0 (any direction, not terminal) marks where
    # an excursion ends; its tolerance is the one of the V = V* level
    evs.insert(2, EventSpec(
        "V_hits_v0", lambda t, x: qp.quad_v(t, x) - cert.v0, direction=0,
        terminal=False, tol=evs[2].tol, form=(qp.quad_v.matrix, cert.v0),
    ))
    excursions = []
    for t0 in np.arange(-15.0, 25.0, 0.5):
        if len(excursions) >= 10:
            break
        for w_target in (-0.015, -0.01, -0.005, 0.0, 0.005, 0.01):
            if len(excursions) >= 10:
                break
            for s1, s2 in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
                # start exactly on V = v0 with V rising: an excursion
                # begins here and ends at the recorded return crossing
                x0 = np.array([
                    s1 * math.sqrt((cert.v0 + w_target) / 2.0),
                    s2 * math.sqrt((cert.v0 - w_target) / 2.0),
                ])
                if 2.0 * float(x0 @ qp.rhs(t0, x0)) <= 1e-4:
                    continue
                traj = integrate(qp.rhs, float(t0), x0, float(t0) + 15.0,
                                 tol=1e-9, events=evs)
                hits = [ev.t for ev in traj.events
                        if ev.kind == "V_hits_v0" and ev.t > t0 + 1e-9]
                if not hits:
                    continue
                span = (traj.ts >= t0) & (traj.ts <= hits[0])
                if span.sum() < 3:
                    continue
                vmax = max(
                    qp.quad_v(float(t), x)
                    for t, x in zip(traj.ts[span], traj.xs[span])
                )
                excursions.append((float(t0), vmax))
                break
    elapsed = time.perf_counter() - t_start
    enough = len(excursions) >= 10
    below = all(v <= ceiling + 1e-6 for _, v in excursions)
    ok = enough and below and elapsed < budget
    _verdict(capsys, 6, "excursion peaks stay under the half-budget bound",
             ok, elapsed, budget)
    assert enough, f"only {len(excursions)} excursions found"
    assert below, max(v for _, v in excursions)
    assert elapsed < budget


def test_criterion_7_uniqueness_and_replay(capsys, reference_problem,
                                           reference_solution_run):
    budget = 20.0
    t_start = time.perf_counter()
    problems = []
    rep = uniqueness_quadratic(reference_problem, v_hi=0.12)
    if np.max(np.abs(rep.lam_hat_curve - 2.0)) > 1e-9:
        problems.append("lam_hat not 2")
    if np.max(np.abs(rep.big_lam_curve - 1.0)) > 1e-9:
        problems.append("Lam_hat not 1")
    if not rep.diverges:
        problems.append("divergence flag not set")
    # a second full solve from an independent certification seed must
    # land on the same trajectory
    qp7 = make_reference_problem(seed=7)
    cert7 = certify(qp7)
    sol7 = bounded_solution(qp7, cert7)
    a, b = reference_solution_run.traj, sol7.traj
    if a.ts.size != b.ts.size or not np.allclose(a.ts, b.ts, atol=1e-12):
        problems.append("node grids differ")
    else:
        mask = (a.ts >= -20.0) & (a.ts <= 20.0)
        gap = float(np.max(np.abs(a.xs[mask] - b.xs[mask])))
        if gap > 1e-5:
            problems.append(f"trajectories differ by {gap}")
    elapsed = time.perf_counter() - t_start
    ok = not problems and elapsed < budget
    _verdict(capsys, 7, "separation rates exact; independent solves agree",
             ok, elapsed, budget)
    assert not problems, problems
    assert elapsed < budget


def test_criterion_8_negative_controls(capsys, tmp_path,
                                       reference_certificate,
                                       reference_solution_run,
                                       reference_document_path):
    budget = 10.0
    t_start = time.perf_counter()
    problems = []
    # corrupted certificate -> verify exit 5
    rep = report_from_certificate(reference_certificate, 2, 2, "ref")
    text = rep.to_text()
    target = next(ln for ln in text.splitlines()
                  if ln.startswith("bound.v_small_star = "))
    bad_cert = tmp_path / "corrupt.txt"
    bad_cert.write_text(text.replace(target,
                                     "bound.v_small_star = 0.0001"))
    traj_path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj_path, reference_solution_run.traj,
                         reference_solution_run.v, reference_solution_run.w)
    code = main(["verify", str(reference_document_path),
                 "--cert", str(bad_cert), "--traj", str(traj_path)])
    if code != 5:
        problems.append(f"corrupt-cert verify exit {code} != 5")
    # forced c2^2 >= v0 -> certify exit 3 naming condition (e)
    doc_text = open(reference_document_path).read()
    tiny = tmp_path / "tiny.problem"
    tiny.write_text(doc_text.replace("v0 = 0.02", "v0 = 1e-6"))
    out = tmp_path / "tiny-report.txt"
    code = main(["certify", str(tiny), "--out", str(out)])
    if code != 3:
        problems.append(f"tiny-v0 certify exit {code} != 3")
    failed = RunReport.load(out)
    if failed.get("failed.condition") != "e":
        problems.append("failing condition not named (e)")
    # a forcing that moves the bounded solution off the disk: both disk
    # ends exit on one side -> NoSignChange
    strong = make_reference_problem(f0=VectorFunction.from_strings(
        ["0.3*sin(t)", "0.3*cos(t)"], n_states=2))
    try:
        find_trapped_start(strong, -5.0, 0.02, 0.15)
        problems.append("same-side disk did not raise")
    except NoSignChange as exc:
        if str(exc) != ("both bracket ends [-0.141421, 0.141421] exit with "
                        "chart side +1 at t_j = -5"):
            problems.append(f"same-side disk message: {exc}")
    elapsed = time.perf_counter() - t_start
    ok = not problems and elapsed < budget
    _verdict(capsys, 8, "negative controls hit exits 5, 3(e), NoSignChange",
             ok, elapsed, budget)
    assert not problems, problems
    assert elapsed < budget


def test_criterion_9_integrator_quality(capsys):
    budget = 5.0
    t_start = time.perf_counter()
    problems = []
    rhs = lambda t, x: x
    x0 = np.array([1.0])
    exact = math.e ** 2

    def err(tol):
        return abs(integrate(rhs, 0.0, x0, 2.0, tol=tol).x_end[0] - exact)

    ratio = err(1e-6) / err(1e-6 / 32.0)
    if ratio < 8.0:
        problems.append(f"tolerance scaling ratio {ratio} < 8")
    tol = 1e-9
    fwd = integrate(rhs, 0.0, x0, 2.0, tol=tol)
    back = integrate(rhs, 2.0, fwd.x_end, 0.0, tol=tol)
    reversal = abs(float(back.x_end[0]) - 1.0)
    if reversal > 100.0 * tol:
        problems.append(f"reversal error {reversal} > 100 tol")
    ev = EventSpec("hits_e", lambda t, x: x[0] - math.e, direction=+1)
    traj = integrate(rhs, 0.0, x0, 3.0, tol=1e-10, events=[ev])
    residual = abs(float(traj.events[0].x[0]) - math.e)
    if residual > 1e-9:
        problems.append(f"event residual {residual} > 1e-9")
    elapsed = time.perf_counter() - t_start
    ok = not problems and elapsed < budget
    _verdict(capsys, 9, "integrator order, reversal and event residual",
             ok, elapsed, budget)
    assert not problems, problems
    assert elapsed < budget
