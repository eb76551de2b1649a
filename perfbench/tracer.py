"""Spans and counts around vwbound's layer boundaries, from outside.

The program is not edited: :func:`install` rebinds each traced function
in every module that binds it (the package uses ``from .x import f``, so
``vwbound.shooting.integrate`` and ``vwbound.ode.integrate`` are separate
names) to a wrapper that records one span per call.

Spans are aggregated in memory as they close -- calls, inclusive time and
self time per span name, where self time is the span's duration minus
the time its child spans cover -- because the certify stage opens
hundreds of thousands of them.  The stage itself is the root span, so
the self times of one stage add up to its traced wall time.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute, span name); a class attribute is "Class.method"
TRACED = (
    ("vwbound.cli", "load_problem_document", "problemdoc.load"),
    ("vwbound.problemdoc", "ProblemDocument.to_problem", "problemdoc.to_problem"),
    ("vwbound.cli", "certify", "quadratic.certify"),
    ("vwbound.cli", "bounded_solution", "shooting.bounded_solution"),
    ("vwbound.cli", "verify_bound", "shooting.verify_bound"),
    ("vwbound.cli", "write_trajectory_csv", "report.traj_csv_write"),
    ("vwbound.cli", "_read_trajectory_csv", "report.traj_csv_read"),
    ("vwbound.cli", "write_xi_csv", "report.xi_csv_write"),
    ("vwbound.cli", "report_from_certificate", "report.from_certificate"),
    ("vwbound.cli", "certificate_from_report", "report.to_certificate"),
    ("vwbound.report", "RunReport.write", "report.write"),
    ("vwbound.report", "RunReport.load", "report.read"),
    ("vwbound.quadratic", "fit_constants", "quadratic.fit"),
    ("vwbound.quadratic", "sample_region_states", "quadratic.sample"),
    ("vwbound.quadratic", "alpha_curve", "quadratic.alpha"),
    ("vwbound.quadratic", "lambda_extremes", "pencil.extremes"),
    ("vwbound.quadratic", "lambda_minus_plus", "pencil.minus_plus"),
    ("vwbound.quadratic", "spectral_projectors", "pencil.projectors"),
    ("vwbound.quadratic", "cholesky_spd", "pencil.cholesky"),
    ("vwbound.quadratic", "solve_pencil", "pencil.solve"),
    ("vwbound.pencil", "cholesky_spd", "pencil.cholesky"),
    ("vwbound.pencil", "solve_pencil", "pencil.solve"),
    ("vwbound.shooting", "spectral_projectors", "pencil.projectors"),
    ("vwbound.quadratic", "growth_integral", "growth.f"),
    ("vwbound.quadratic", "growth_integral_inv", "growth.finv"),
    ("vwbound.quadratic", "sup_bound_curve", "growth.sup_bound_curve"),
    ("vwbound.quadratic", "bound_excursion", "growth.bound_excursion"),
    ("vwbound.growth", "growth_integral", "growth.f"),
    ("vwbound.growth", "growth_integral_inv", "growth.finv"),
    ("vwbound.shooting", "growth_integral_inv", "growth.finv"),
    ("vwbound.shooting", "find_trapped_start", "shooting.find_trapped_start"),
    ("vwbound.shooting", "classify_start", "shooting.classify"),
    ("vwbound.shooting", "make_disk_chart", "shooting.chart"),
    ("vwbound.shooting", "integrate", "ode.integrate"),
    ("vwbound.shooting", "eval_v_w_along", "ode.eval_v_w"),
)


class Tracer:
    """Per-name span aggregates plus counters fed by result hooks.

    Single-threaded: the pipeline stages run no threads on the workloads
    this benchmark drives.
    """

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []  # child time of each open span
        self._finv_args: set = set()
        self._finv_pairs: dict = {}  # id -> growth pair, pins the ids

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - start
                child = stack.pop()
                agg[0] += 1
                agg[1] += took
                agg[2] += took - child
                if stack:
                    stack[-1] += took
            if hook is not None:
                hook(out, args, kwargs)
            return out

        return traced

    def run_root(self, name: str, fn, *args):
        """Run ``fn`` as the root span ``name``; returns its result."""
        return self.wrap(name, fn)(*args)

    # -- result hooks ------------------------------------------------------

    def _on_integrate(self, traj, args, kwargs):
        self.count("ode.rhs_calls", traj.n_rhs)
        self.count("ode.steps_accepted", traj.n_accepted)
        self.count("ode.steps_rejected", traj.n_rejected)

    def _on_classify(self, res, args, kwargs):
        if res.is_stayed:
            self.count("shooting.stayed")

    def _on_trapped(self, start, args, kwargs):
        self.count("shooting.bisect_iters", start.iterations)

    def _on_finv(self, value, args, kwargs):
        gp = args[0] if args else kwargs["gp"]
        z = args[1] if len(args) > 1 else kwargs["z"]
        self._finv_pairs[id(gp)] = gp
        self._finv_args.add((id(gp), float(z)))

    def hooks(self):
        return {
            "ode.integrate": self._on_integrate,
            "shooting.classify": self._on_classify,
            "shooting.find_trapped_start": self._on_trapped,
            "growth.finv": self._on_finv,
        }

    def result(self) -> dict:
        counts = dict(self.counts)
        counts["growth.finv_distinct"] = len(self._finv_args)
        return {"spans": self.spans, "counts": counts}


def install(tracer: Tracer) -> None:
    """Rebind every name in :data:`TRACED` to a traced wrapper."""
    hooks = tracer.hooks()
    for module_name, attr, span in TRACED:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(span, raw.__func__, hooks.get(span)))
        else:
            wrapped = tracer.wrap(span, raw, hooks.get(span))
        setattr(owner, attr, wrapped)
