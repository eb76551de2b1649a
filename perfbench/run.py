"""vwbound stage-and-layer benchmark.

    python3 perfbench/run.py --workload saddle --seed 1 --seconds 60 --trace 0

One simulated user runs ``vwbound certify``, then ``solve``, then
``verify`` on a problem file, each stage in its own fresh interpreter,
one at a time (a closed loop with one client).  ``--trace 0`` repeats
that pipeline for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` runs it once untraced and twice traced and prints the
per-layer metrics.  ``--workload all --trace all`` prints every metric of
every workload as a table.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  When the
benchmark cannot measure (no checkout, a failed setup or micro-timing
child, or traced counts that differ) it exits 2 and prints no result.

Run it from the root of a source checkout; it imports vwbound from
``src/`` and writes only under ``.perfbench_work/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
CHILD = BENCH / "child.py"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

# a round runs SHORT_RUNS times each stage that took under SHORT_SHARE
# of the first pipeline, once each other stage
SHORT_SHARE = 0.25
SHORT_RUNS = 3
CHILD_TIMEOUT_S = 170.0
STAGES = ("certify", "solve", "verify")
EXPECTED_EXIT = {"certify": 2, "solve": 0, "verify": 0}
XI_TOL = 1e-5  # ShootingConfig.xi_tol
CERT_KEYS = {
    "sigma": "cert.sigma",
    "c1": "cert.c1",
    "c2": "cert.c2",
    "c3": "cert.c3",
    "v0": "cert.v0",
    "v_star": "cert.v_star",
    "v_small_star": "bound.v_small_star",
}
# counts two traced runs of one seed must reproduce exactly
DETERMINISTIC = (
    "ode.integrate_calls",
    "ode.rhs_calls",
    "ode.steps_accepted",
    "ode.steps_rejected",
    "shooting.bisect_iters",
    "pencil.extremes_calls",
    "pencil.projector_calls",
    "pencil.cholesky_calls",
    "growth.f_calls",
    "growth.finv_calls",
)


def trimmed_mean(values: list) -> float:
    """Mean of the samples without the fastest and the slowest one.

    On a shared host a stage's samples fall into a fast and a slow mode
    (``verify`` on ``saddle``: about 0.5 s and 0.8 s, in phases of
    seconds), and the median of a run's samples jumps between the modes
    from run to run; the mean moves with the share of slow samples, and
    the trimming drops a lone outlier."""
    v = sorted(values)
    if len(v) >= 3:
        v = v[1:-1]
    return sum(v) / len(v)


class BenchError(Exception):
    """The benchmark cannot produce a result (no result line is printed)."""


def read_report(path: Path) -> dict:
    """``key = value`` lines of a vwbound report, as strings."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


class StageServer:
    """A child interpreter that has imported ``vwbound.cli`` and forks one
    process per stage sample (``child.py server``).  A forked sample skips
    the interpreter start and the imports every stage child makes before
    its clock starts: that is about half of what a fresh child of a short
    stage costs, so a run takes more samples in its time."""

    def __init__(self, env: dict, log: Path):
        self.log = log
        with open(log, "w", encoding="utf-8") as err:
            # its own process group, so a kill reaches a hung fork too
            self.proc = subprocess.Popen(
                [sys.executable, str(CHILD), "server",
                 str(log.with_suffix(".json"))],
                cwd=ROOT, env=env, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=err, text=True,
                start_new_session=True,
            )

    def run(self, result: Path, args) -> int | str:
        """Exit code of one forked ``stage`` child on ``args``."""
        timer = threading.Timer(CHILD_TIMEOUT_S, self.kill)
        timer.start()
        try:
            self.proc.stdin.write(
                json.dumps([str(result), [str(a) for a in args]]) + "\n")
            self.proc.stdin.flush()
            reply = self.proc.stdout.readline()
        except OSError as exc:
            return f"no server ({exc})"
        finally:
            timer.cancel()
        return int(reply) if reply else "no reply (server ended or killed)"

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self) -> None:
        """End the server at the end of its input; kill it if it hangs."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """Children, gates and numbers of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.problem = workdir / f"{workload}.problem"
        self.problem.write_text(
            workloads.problem_text(workload, seed, ROOT), encoding="utf-8"
        )
        self.xi_ref = workloads.reference_xi(workload, seed)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.certificate = None
        self.xi = None
        self.details: dict = {}
        self.server: StageServer | None = None
        self._n_children = 0

    def fail(self, message: str) -> None:
        self.problems.append(message)
        sys.stderr.write(f"perfbench: {message}\n")

    # -- children ------------------------------------------------------

    def child(self, mode: str, args, trace: bool = False):
        """Run one child; returns (its JSON or None, wall from spawn)."""
        self._n_children += 1
        result = self.workdir / f"child{self._n_children}.json"
        log = self.workdir / f"child{self._n_children}.log"
        cmd = [sys.executable, str(CHILD), mode, str(result)]
        if trace:
            cmd.append("--trace")
        cmd += ["--", *map(str, args)]
        # a wait with a timeout polls every 50 ms, which would quantise
        # the wall; a timer kills a child that overruns instead
        with open(log, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        if wall >= CHILD_TIMEOUT_S:
            code = f"{code} (killed after {CHILD_TIMEOUT_S:g} s)"
        if code != 0 or not result.exists():
            tail = log.read_text(encoding="utf-8")[-2000:]
            self.fail(f"{mode} child {args[:1]} ended with {code}:\n{tail}")
            return None, wall
        return json.loads(result.read_text(encoding="utf-8")), wall

    def forked(self, args):
        """Run one stage child forked by the server; returns as child()."""
        self._n_children += 1
        result = self.workdir / f"child{self._n_children}.json"
        t0 = time.perf_counter()
        code = self.server.run(result, args)
        wall = time.perf_counter() - t0
        if code != 0 or not result.exists():
            tail = self.server.log.read_text(encoding="utf-8")[-2000:]
            self.fail(f"forked stage {args[:1]} ended with {code}:\n{tail}")
            return None, wall
        return json.loads(result.read_text(encoding="utf-8")), wall

    def setup(self) -> float:
        out, wall = self.child("setup", [self.problem])
        if out is None:
            raise BenchError("setup child failed")
        return wall

    # -- the pipeline --------------------------------------------------

    def stage(self, name: str, d: Path, k: int = 0, trace: bool = False,
              forked: bool = False):
        """Run and gate stage ``name`` on the files of pipeline dir ``d``;
        the ``k``-th repeat writes its own outputs.  ``forked`` runs it
        through the stage server instead of a fresh interpreter.  Returns
        the child's numbers, or None when the stage missed its gate."""
        cert, sol = d / "cert0.txt", d / "sol0"
        argv = {
            "certify": ["certify", self.problem, "--out", d / f"cert{k}.txt"],
            "solve": ["solve", self.problem, "--cert", cert,
                      "--out", d / f"sol{k}"],
            "verify": ["verify", self.problem, "--cert", cert,
                       "--traj", sol / "trajectory.csv",
                       "--out", d / f"ver{k}.txt"],
        }[name]
        self.attempted += 1
        if forked:
            out, spawn = self.forked(argv)
        else:
            out, spawn = self.child("stage", argv, trace)
        if out is not None:
            out["spawn_s"] = spawn
        ok = out is not None and out["exit"] == EXPECTED_EXIT[name]
        if out is not None and not ok:
            self.fail(f"{d.name}: {name} exited {out['exit']}, "
                      f"expected {EXPECTED_EXIT[name]}")
        if ok and name == "certify":
            ok = self._check_certificate(read_report(Path(argv[-1])), d.name)
        if ok and name == "solve":
            ok = self._check_xi(
                read_report(Path(argv[-1]) / "solve-report.txt"), d.name)
        if not ok:
            self.failed += 1
            return None
        return out

    def pipeline(self, tag: str, trace: bool = False) -> dict | None:
        """certify, solve, verify in fresh children, one at a time.
        Returns the stage records, or None when a gate missed."""
        d = self.workdir / tag
        d.mkdir()
        stages = {"dir": d}
        for i, name in enumerate(STAGES):
            out = self.stage(name, d, trace=trace)
            if out is None:
                # the stages after a miss cannot run; they count as missed
                self.attempted += 2 - i
                self.failed += 2 - i
                return None
            stages[name] = out
        stages["grid"] = len(read_report(d / "cert0.txt")["curve.ts"].split())
        return stages

    def _check_certificate(self, rep: dict, tag: str) -> bool:
        numbers = {k: float(rep[key]) for k, key in CERT_KEYS.items()}
        if self.certificate is None:
            self.certificate = numbers
        elif numbers != self.certificate:
            self.fail(f"{tag}: certificate {numbers} differs from the first "
                      f"pipeline's {self.certificate}")
            return False
        return True

    def _check_xi(self, rep: dict, tag: str) -> bool:
        xi, i = [], 1
        while f"solution.xi.{i}" in rep:
            xi.append(float(rep[f"solution.xi.{i}"]))
            i += 1
        if self.xi is None:
            self.xi = xi
        elif xi != self.xi:
            self.fail(f"{tag}: xi {xi} differs from the first pipeline's "
                      f"{self.xi}")
            return False
        if self.xi_ref is None:
            return True
        err = math.dist(xi, self.xi_ref)
        if not err <= XI_TOL:
            self.fail(f"{tag}: xi {xi} is {err:.3g} from the exact "
                      f"{list(self.xi_ref)}, over {XI_TOL:g}")
            return False
        return True

    def start_server(self) -> None:
        self.server = StageServer(self.env, self.workdir / "server.log")

    def close(self) -> None:
        if self.server is not None:
            self.server.close()

    def record(self) -> dict:
        rec = {"workload": self.workload, "seed": self.seed,
               "certificate": self.certificate, "xi": self.xi}
        if self.xi_ref is not None and self.xi is not None:
            rec["xi_exact"] = [float(v) for v in self.xi_ref]
            rec["xi_error"] = math.dist(self.xi, self.xi_ref)
        return rec


# ---------------------------------------------------------------------------
# trace 0: end-to-end


def end_to_end(run: Run, seconds: float) -> dict | None:
    """Samples until ``seconds`` after the start, set-up included.

    An untimed setup child first (the first interpreter of a fresh
    checkout writes the .pyc files), then one pipeline of fresh
    interpreters: it gates every stage, gives the peak RSS a user sees
    and the files later samples reuse, and its stage times count.  Then
    rounds while another one fits: a setup child and the stages forked by
    the stage server, the short ones SHORT_RUNS times, so that the
    samples of every kind come from the whole run.  Then, while a child
    fits, the one with the fewest samples, the cheapest first.  Each
    metric is the trimmed mean of its samples."""
    deadline = time.perf_counter() + seconds
    run.setup()
    first = run.pipeline("p")
    if first is None:
        return None
    d = first["dir"]
    walls = {s: [first[s]["wall_s"]] for s in STAGES}
    walls["setup"] = []
    rss = max(first[s]["rss_mb"] for s in STAGES)
    pipe = sum(walls[s][0] for s in STAGES)
    short = [s for s in STAGES if walls[s][0] < SHORT_SHARE * pipe]
    # wall from spawn of the last child of each kind
    cost = {s: first[s]["spawn_s"] for s in STAGES}
    run.start_server()
    repeats = 0

    def sample(name: str) -> bool:
        nonlocal repeats
        t0 = time.perf_counter()
        if name == "setup":
            walls["setup"].append(run.setup())
        else:
            repeats += 1
            out = run.stage(name, d, repeats, forked=True)
            if out is None:
                return False
            walls[name].append(out["wall_s"])
        cost[name] = time.perf_counter() - t0
        return True

    while True:
        t0 = time.perf_counter()
        for name in ("setup", *STAGES, *short * (SHORT_RUNS - 1)):
            if not sample(name):
                return None
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            break
    while True:
        now = time.perf_counter()
        fits = [c for c in cost if now + cost[c] <= deadline]
        if not fits:
            break
        if not sample(min(fits, key=lambda c: (len(walls[c]), cost[c]))):
            return None
    run.details = {"walls": walls}
    stage_s = {f"{s}_s": trimmed_mean(walls[s]) for s in STAGES}
    return {
        **stage_s,
        "pipeline_s": sum(stage_s.values()),
        "setup_s": trimmed_mean(walls["setup"]),
        "peak_rss_mb": rss,
    }


# ---------------------------------------------------------------------------
# trace 1: per layer


def _span(stages: dict, name: str, field: int, only=None) -> float:
    """Sum of one span aggregate over the stages (0 calls, 1 total, 2 self)."""
    total = 0
    for stage in only or STAGES:
        total += stages[stage]["trace"]["spans"].get(name, [0, 0.0, 0.0])[field]
    return total


def _count(stages: dict, name: str) -> int:
    return sum(stages[s]["trace"]["counts"].get(name, 0)
               for s in STAGES)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stages: dict) -> dict:
    """Per-layer numbers of one traced pipeline."""
    calls = lambda name, only=None: _span(stages, name, 0, only)  # noqa: E731
    total = lambda name: _span(stages, name, 1)  # noqa: E731
    self_s = lambda name: _span(stages, name, 2)  # noqa: E731
    acc = _count(stages, "ode.steps_accepted")
    rej = _count(stages, "ode.steps_rejected")
    m = {
        "problemdoc.load_s": _ratio(total("problemdoc.load"),
                                    calls("problemdoc.load")),
        "problemdoc.to_problem_s": _ratio(total("problemdoc.to_problem"),
                                          calls("problemdoc.to_problem")),
        "ode.integrate_calls": calls("ode.integrate"),
        "ode.rhs_calls": _count(stages, "ode.rhs_calls"),
        "ode.steps_accepted": acc,
        "ode.steps_rejected": rej,
        "ode.reject_ratio": _ratio(rej, acc + rej),
        "ode.integrate_self_s": self_s("ode.integrate"),
        "ode.eval_v_w_s": total("ode.eval_v_w"),
        "shooting.rungs": calls("shooting.find_trapped_start"),
        "shooting.bisect_iters": _count(stages, "shooting.bisect_iters"),
        "shooting.classify_calls": calls("shooting.classify"),
        "shooting.classify_s": total("shooting.classify"),
        "shooting.chart_calls": calls("shooting.chart"),
        "shooting.stayed_ratio": _ratio(_count(stages, "shooting.stayed"),
                                        calls("shooting.classify")),
        "shooting.verify_self_s": self_s("shooting.verify_bound"),
        "pencil.extremes_calls": calls("pencil.extremes"),
        "pencil.extremes_s": total("pencil.extremes"),
        "pencil.projector_calls": calls("pencil.projectors"),
        "pencil.cholesky_calls": calls("pencil.cholesky"),
        "pencil.solves_per_grid_point": _ratio(
            calls("pencil.solve", ("certify",)), stages["grid"]),
        "quadratic.fit_calls": calls("quadratic.fit"),
        "quadratic.fit_s": total("quadratic.fit"),
        "quadratic.sample_s": total("quadratic.sample"),
        "quadratic.alpha_s": total("quadratic.alpha"),
        "growth.f_calls": calls("growth.f"),
        "growth.finv_calls": calls("growth.finv"),
        "growth.finv_s": total("growth.finv"),
        "growth.finv_distinct_ratio": _ratio(
            _count(stages, "growth.finv_distinct"), calls("growth.finv")),
        "report.write_s": total("report.write"),
        "report.read_s": total("report.read"),
        "report.traj_csv_bytes": (stages["dir"] / "sol0" /
                                  "trajectory.csv").stat().st_size,
        "report.traj_csv_write_s": total("report.traj_csv_write"),
        "report.traj_csv_read_s": total("report.traj_csv_read"),
    }
    for stage in STAGES:
        root = stages[stage]["trace"]["spans"]["stage"]
        m[f"trace.{stage}_unattributed"] = _ratio(root[2], root[1])
    return m


def self_time_table(stages: dict) -> dict:
    """Self time per span name and stage; each stage's column sums to its
    traced wall time."""
    table = {}
    for stage in STAGES:
        spans = stages[stage]["trace"]["spans"]
        table[stage] = {
            "wall_s": spans["stage"][1],
            "self_s": {name: agg[2] for name, agg in sorted(
                spans.items(), key=lambda kv: -kv[1][2]) if agg[0]},
        }
    return table


def per_layer(run: Run) -> dict | None:
    base = run.pipeline("base")
    if base is None:
        return None
    traced = [run.pipeline("trace_a", trace=True),
              run.pipeline("trace_b", trace=True)]
    if None in traced:
        return None
    a, b = (layer_metrics(s) for s in traced)
    differ = {k: (a[k], b[k]) for k in DETERMINISTIC if a[k] != b[k]}
    if differ:
        raise BenchError(
            "two traced runs of one seed gave different counts "
            f"(first, second): {differ}"
        )
    micro, _ = run.child(
        "micro", [run.problem, traced[0]["dir"] / "cert0.txt"])
    disk2, _ = run.child("disk2", [])
    if micro is None or disk2 is None:
        raise BenchError("a micro-timing child failed")
    untraced_wall = sum(base[s]["wall_s"] for s in STAGES)
    traced_wall = sum(traced[0][s]["wall_s"] for s in STAGES)
    m = dict(a)
    m.update({k: micro[k] for k in ("expr.rhs_us", "pencil.grid_ms",
                                    "growth.f_us", "growth.finv_us",
                                    "ode.horizon36_ms", "ode.step_us")})
    m["shooting.disk2_search_s"] = disk2["shooting.disk2_search_s"]
    m["shooting.disk2_classify_calls"] = disk2["shooting.disk2_classify_calls"]
    for stage in STAGES:
        m[f"cli.{stage}_cpu_s"] = base[stage]["cpu_s"]
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    run.details = {
        "self_time": self_time_table(traced[0]),
        "horizon36": {"covered": micro["horizon_covered"],
                      "steps": micro["horizon_steps"]},
        "disk2_outcome": disk2["outcome"],
    }
    return m


# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the result object."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{workload}-{seed}-{trace}-{os.getpid()}"
    workdir.mkdir()
    run = None
    try:
        run = Run(workload, seed, workdir)
        metrics = per_layer(run) if trace else end_to_end(run, seconds)
        if metrics is not None:
            metrics["fail_ratio"] = _ratio(run.failed, run.attempted)
    finally:
        if run is not None:
            run.close()
        shutil.rmtree(workdir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    correct = metrics is not None and not run.problems and run.failed == 0
    record = run.record()
    record["trace"] = trace
    record["details"] = run.details
    record["problems"] = run.problems
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps(record, default=str))
    return {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if metrics is not None and name in metrics
        },
    }


def check_checkout() -> None:
    for rel in ("src/vwbound/cli.py", "demos/saddle.problem",
                "BENCHMARK.json"):
        if not (ROOT / rel).is_file():
            raise BenchError(
                f"{rel} not found under {ROOT}; run from a vwbound checkout"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", required=True, choices=("0", "1", "all"))
    args = parser.parse_args(argv)
    try:
        check_checkout()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        modes = (0, 1) if args.trace == "all" else (int(args.trace),)
        results = {(w, t): measure(w, args.seed, args.seconds, t)
                   for w in names for t in modes}
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        for (w, t), res in results.items():
            for name, m in res["metrics"].items():
                print(f"{w:10s} {name:32s} {m['value']:>16.6g} {m['unit']}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for (w, t), r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
