"""One fresh interpreter per measurement; run by ``perfbench/run.py``.

    python3 perfbench/child.py MODE RESULT_JSON [--trace] [-- ARGS...]

Modes:

``stage``  times ``vwbound.cli.main(ARGS)``; with ``--trace`` the layer
           spans of :mod:`tracer` are installed first.
``server`` imports ``vwbound.cli``, then forks one process per request
           line ``[RESULT_JSON, ARGS]`` on stdin, which runs ``stage``
           on ARGS; it answers each with the process's exit code and
           ends at the end of its input.
``setup``  ``import vwbound.cli``, ``load_problem_document``,
           ``to_problem`` on ARGS[0] (the parent times the whole child).
``micro``  layer micro-timings on problem ARGS[0] with certificate
           ARGS[1], through public calls only.
``disk2``  the n+ = 2 trapped-start search of the 3-state test problem.

The child writes its numbers as JSON to RESULT_JSON.  vwbound is imported
from ``PYTHONPATH``, which the parent points at the checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_stage(args, trace: bool) -> dict:
    import vwbound.cli as cli

    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    if tracer is None:
        code = cli.main(args)
    else:
        code = tracer.run_root("stage", cli.main, args)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    out = {"exit": code, "wall_s": wall, "cpu_s": cpu, "rss_mb": _peak_rss_mb()}
    if tracer is not None:
        out["trace"] = tracer.result()
    return out


def run_server() -> None:
    # every stage child has imported vwbound.cli before its clock starts;
    # a forked one skips only that and the interpreter start.  vwbound.cli
    # starts no Python thread, and OpenBLAS stops its pool around a fork
    # (pthread_atfork) and restarts it in the child.
    import vwbound.cli  # noqa: F401

    reply = os.fdopen(os.dup(1), "w", encoding="utf-8")
    # what the stages print goes where a fresh stage child's output goes
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    for line in sys.stdin:
        result_path, args = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                out = run_stage(args, trace=False)
                with open(result_path, "w", encoding="utf-8") as fh:
                    json.dump(out, fh)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        reply.write(f"{os.waitstatus_to_exitcode(status)}\n")
        reply.flush()


def run_setup(args) -> dict:
    import vwbound.cli  # noqa: F401
    from vwbound.problemdoc import load_problem_document

    load_problem_document(args[0]).to_problem()
    return {}


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over ``repeats`` batches of the time of one call."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def run_micro(args) -> dict:
    import numpy as np

    from vwbound.growth import growth_integral, growth_integral_inv
    from vwbound.ode import integrate, make_region_events
    from vwbound.pencil import SymmetricPencil, lambda_extremes
    from vwbound.problemdoc import load_problem_document
    from vwbound.report import RunReport, certificate_from_report
    from vwbound.shooting import ShootingConfig, find_trapped_start

    doc = load_problem_document(args[0])
    qp = doc.to_problem()
    cert = certificate_from_report(RunReport.load(args[1]))

    x = np.full(qp.n, 0.01)
    rhs_s = _per_call(lambda: qp.rhs(0.3, x), 2000)

    ts = np.linspace(cert.window[0], cert.window[1], qp.n_grid)
    z = np.zeros(qp.n)

    def grid_pass():
        for t in ts:
            t = float(t)
            lambda_extremes(SymmetricPencil(qp.c.eval(t, z), qp.b.eval(t, z)))

    grid_s = _per_call(grid_pass, 1)

    gp = cert.growth_pair()
    z_arg = 0.5 * (cert.w_plus - cert.w_minus)
    v_arg = growth_integral_inv(gp, z_arg)
    f_s = _per_call(lambda: growth_integral(gp, v_arg), 20)
    finv_s = _per_call(lambda: growth_integral_inv(gp, z_arg), 5)

    # one 36-unit integrate with the region events watched, from the
    # trapped start at t = -20 (the run classify_start makes on a start
    # that stays)
    config = ShootingConfig(integrator_tol=doc.tol)
    t_start = -20.0
    start = find_trapped_start(qp, t_start, cert.v0, cert.v_star, config)
    x0 = start.chart.point(start.u)
    events = make_region_events(
        qp.quad_w, qp.quad_v, qp.w_plus, qp.w_minus, cert.v0, cert.v_star
    )
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        traj = integrate(
            qp.rhs, t_start, x0, t_start + config.horizon_span,
            tol=doc.tol, events=events,
        )
        runs.append(time.perf_counter() - t0)
    horizon_s = statistics.median(runs)
    steps = traj.n_accepted + traj.n_rejected
    return {
        "expr.rhs_us": rhs_s * 1e6,
        "pencil.grid_ms": grid_s * 1e3,
        "growth.f_us": f_s * 1e6,
        "growth.finv_us": finv_s * 1e6,
        "ode.horizon36_ms": horizon_s * 1e3,
        "ode.step_us": horizon_s / max(steps, 1) * 1e6,
        "horizon_covered": traj.t_end - t_start,
        "horizon_steps": steps,
    }


def run_disk2(args) -> dict:
    import itertools

    import numpy as np

    import vwbound.shooting as shooting
    from vwbound.errors import BudgetExhausted
    from vwbound.expr import MatrixFunction, VectorFunction
    from vwbound.quadratic import QuadraticProblem

    # tests/test_shooting.py::make_3d_problem at force 0.05
    n, force = 3, 0.05
    signature = np.diag([1.0, 1.0, -1.0])
    qp = QuadraticProblem(
        a=MatrixFunction.constant(signature, n_states=n),
        f0=VectorFunction.from_strings(
            [f"{force}*sin(t)", f"{force}*cos(t)", f"{force}*sin(t)"],
            n_states=n,
        ),
        b=MatrixFunction.constant(np.eye(n), n_states=n, symmetric=True),
        c=MatrixFunction.constant(signature, n_states=n, symmetric=True),
        window=(-10.0, 10.0), v0=0.02, w_minus=-0.02, w_plus=0.02,
        v_star=0.15,
    )
    # classify_start runs on the search's worker threads; next() on an
    # itertools.count is atomic under the interpreter lock
    calls = itertools.count()
    classify = shooting.classify_start

    def counted(*a, **k):
        next(calls)
        return classify(*a, **k)

    shooting.classify_start = counted
    t0 = time.perf_counter()
    try:
        start = shooting.find_trapped_start(qp, -5.0, qp.v0, qp.v_star)
        outcome = "stayed" if start.stayed else "localized"
    except BudgetExhausted:
        outcome = "budget-exhausted"
    wall = time.perf_counter() - t0
    return {
        "shooting.disk2_search_s": wall,
        "shooting.disk2_classify_calls": next(calls),
        "outcome": outcome,
    }


def main(argv) -> int:
    mode, result_path, *rest = argv
    trace = False
    if rest and rest[0] == "--trace":
        trace = True
        rest = rest[1:]
    if rest and rest[0] == "--":
        rest = rest[1:]
    if mode == "stage":
        out = run_stage(rest, trace)
    elif mode == "server":
        run_server()
        out = {}
    elif mode == "setup":
        out = run_setup(rest)
    elif mode == "micro":
        out = run_micro(rest)
    elif mode == "disk2":
        out = run_disk2(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
