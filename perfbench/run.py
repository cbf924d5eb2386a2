#!/usr/bin/env python3
"""wavecontrol benchmark: time to a controlled solution, and where it goes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The config for ``NAME`` is generated from
``--seed`` (see workloads.py) and every solve runs in a fresh process
(worker.py), one process at a time, with BLAS/OpenMP pinned to one thread.

``--trace 0`` times whole solves through ``wavecontrol.cli.main`` for about
``--seconds`` seconds (at least one solve) and times set-up in several
fresh processes; it prints the end-to-end metrics.  ``--trace 1`` runs one
untraced solve and two traced ones, requires the exact counts of the two
traced runs to agree, and prints the per-layer metrics.  Every solve is
checked (exit code, summary schema, status, final residual, terminal
defect); at seed 0 the details line also compares the exact counts with
the recorded baseline.

The second-to-last line of standard output is a JSON object with the
details (samples, environment, failures); the last line is the result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 5          # fresh processes whose set-up time is the median
SETUP_KERNELS = 40         # kernel runs in the speed sample before and after each
MAX_SOLVES = 40            # per run, in case solves fail fast
RUN_BUDGET_S = 170.0       # a run must end within 180 s
TRACED_SOLVES = 2

# Per-layer counts that must repeat bit for bit between traced runs.
EXACT_LAYER_METRICS = (
    "solver.march.calls", "solver.residual.calls", "linear_control.gramian.applies",
    "linear_control.cg.solves", "linear_control.cg.iters_total",
    "linear_control.cg.iters_max", "linear_control.cg.converged_ratio",
    "least_squares.outer_iters", "least_squares.unit_step_ratio",
    "least_squares.line_search.calls", "nonlinearity.g.calls", "nonlinearity.dg.calls",
    "fields.field_init.calls", "fields.dst.calls", "cli.sweep.points",
    "solver.march.bytes_computed", "solver.march.flops_computed",
    "solver.march.flops_per_byte",
)

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "WAVECONTROL_THREADS")


class SetupError(RuntimeError):
    """The program could not even be imported and set up."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("WAVECONTROL_OUT", None)
    return env


def _spawn(workload: str, config: Path, out: Path, solve: bool, timeout: float,
           trace: Path | None = None):
    """Run one worker; returns (setup_s, report or None, error or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--config", str(config), "--out", str(out)]
    if solve:
        cmd.append("--solve")
    if trace is not None:
        cmd += ["--trace", str(trace)]
    out.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + timeout
    with open(out / "worker.stderr", "w") as err, subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT,
            env=_worker_env()) as proc:
        t0 = time.perf_counter()
        try:
            ready, _, _ = select.select([proc.stdout], [], [], timeout)
            line = proc.stdout.readline() if ready else ""
            setup_s = time.perf_counter() - t0
            # the report is one short line, well inside the pipe buffer, so
            # the worker cannot block on stdout before it exits
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, None, f"worker timed out after {timeout:.0f} s"
        rest = proc.stdout.read()
    if line.strip() != "ready":
        tail = (out / "worker.stderr").read_text().strip().splitlines()[-1:]
        raise SetupError(f"set-up failed (exit {proc.returncode}): {' '.join(tail)}")
    if not solve:
        return setup_s, None, None
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (out / "worker.stderr").read_text().strip().splitlines()[-1:]
        return setup_s, None, f"worker exit {proc.returncode}: {' '.join(tail)}"
    return setup_s, json.loads(lines[-1]), None


class Run:
    """Solves of one workload at one seed, and their checks."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.name, self.seed, self.work = workload, seed, work
        self.workload = workloads.WORKLOADS[workload]
        self.kernel = self.workload.kernel()
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workloads.make_config(workload, seed), indent=2))
        self.setups, self.setup_kernel_s, self.reports, self.failures = [], [], [], []
        self.baseline_diffs = []
        self.attempted = self.failed = 0
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def set_up(self, timed: bool = True):
        """Set up in one fresh process; a timed one is bracketed by speed samples."""
        if timed:
            self.setup_kernel_s.append(self.kernel.seconds(SETUP_KERNELS))
        setup_s, _, error = _spawn(self.name, self.config,
                                   self.work / f"setup{len(self.setups)}",
                                   False, self.remaining())
        if error:
            raise SetupError(error)
        if timed:
            self.setup_kernel_s.append(self.kernel.seconds(SETUP_KERNELS))
            self.setups.append(setup_s)

    @property
    def setup_ref_s(self) -> float | None:
        """Median set-up wall time, scaled by the run's mean bracketing kernel time."""
        if not self.setups:
            return None
        return (statistics.median(self.setups)
                * self.kernel.scale(statistics.fmean(self.setup_kernel_s)))

    def solve(self, trace: Path | None = None):
        """One solve in a fresh process, and its checks."""
        self.attempted += 1
        out = self.work / f"solve{self.attempted}"
        _, report, error = _spawn(self.name, self.config, out, True,
                                  self.remaining(), trace)
        problems = [error] if error else list(report["failures"])
        if report is not None:
            bound = self.workload.term_defect_bound
            if not report.get("term_defect_rel", math.inf) <= bound:
                problems.append(f"term_defect_rel {report.get('term_defect_rel')} > {bound}")
            self.baseline_diffs += self._baseline_mismatches(report)
            self.reports.append(report)
        if problems:
            self.failed += 1
            self.failures.append({"solve": self.attempted, "problems": problems})

    def _baseline_mismatches(self, report) -> list:
        # Reported, not failed: a change that cuts CG iterations or marches
        # moves these counts on purpose, and this is where it shows.
        if self.seed != 0:
            return []
        measured = dict(report.get("layers", {}))
        measured["cg_per_step"] = report.get("cg_per_step")
        measured.setdefault("least_squares.outer_iters", report.get("outer_iters"))
        return [f"seed-0 baseline: {key} = {measured[key]}, expected {expected}"
                for key, expected in self.workload.seed0_baseline.items()
                if key in measured and measured[key] != expected]

    def check_repeats(self):
        """Outputs of every solve of one seed must be byte-identical."""
        hashes = {r["output_sha256"] for r in self.reports if "output_sha256" in r}
        if len(hashes) > 1:
            self.failures.append({"run": "output CSV differs between repeats of one seed"})

    @property
    def correct(self) -> bool:
        return not self.failures


def _median(values):
    return statistics.median(values) if values else None


def _tail(values) -> dict | None:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(values)[n - 11]}


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    run.set_up(timed=False)                  # compiles bytecode; not counted
    start = time.perf_counter()
    while run.attempted < MAX_SOLVES:
        run.solve()
        typical = _median([r["wall_s"] for r in run.reports]) or 0.0
        if time.perf_counter() - start + typical > seconds:
            break
    for _ in range(SETUP_SAMPLES):
        run.set_up()
    run.check_repeats()
    times = [r["solve_ref_s"] for r in run.reports]
    defects = [r["term_defect_rel"] for r in run.reports if "term_defect_rel" in r]
    metrics = {
        "time_to_solution_s": _median(times),
        "setup_s": run.setup_ref_s,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in run.reports]),
        "solved_fraction": (run.attempted - run.failed) / run.attempted,
        "term_defect_rel": max(defects) if defects else None,
    }
    detail = {"time_to_solution_s": {"median": metrics["time_to_solution_s"],
                                     "n": len(times), "tail": _tail(times)},
              "solve_ref_s": times,
              "solve_wall_s": [r["solve_s"] for r in run.reports],
              "setup_wall_s": run.setups}
    return metrics, detail


def measure_traced(run: Run, spans: Path) -> tuple[dict, dict]:
    run.solve()
    for _ in range(TRACED_SOLVES):
        run.solve(trace=spans)
    run.check_repeats()
    layers = [r["layers"] for r in run.reports if "layers" in r]
    for name in EXACT_LAYER_METRICS:
        if len({json.dumps(layer[name]) for layer in layers}) > 1:
            run.failures.append({"run": f"{name} differs between traced runs: "
                                        f"{[layer[name] for layer in layers]}"})
    metrics = {name: layers[0][name] if name in EXACT_LAYER_METRICS
               else _median([layer[name] for layer in layers])
               for name in (layers[0] if layers else {})}
    traced = [r["solve_ref_s"] for r in run.reports if "layers" in r]
    untraced = [r["solve_ref_s"] for r in run.reports if "layers" not in r]
    if traced and untraced:
        metrics["trace_overhead_frac"] = _median(traced) / untraced[0] - 1.0
    detail = {"solve_ref_s": {"untraced": untraced, "traced": traced},
              "spans": str(spans.relative_to(ROOT)),
              "untraced_names": sorted({name for r in run.reports
                                        for name in r.get("untraced_names", [])})}
    return metrics, detail


def _environment(run: Run) -> dict:
    env = {"nproc": os.cpu_count(), "machine": platform.machine(),
           "threads_pinned": {name: "1" for name in PINNED_THREADS}}
    if run.reports:
        env.update(run.reports[0]["env"])
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "wavecontrol" / "__init__.py").is_file():
        print("error: src/wavecontrol not found; run from the repository root",
              file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        if args.trace:
            spans = scratch / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            values, detail = measure_traced(run, spans)
        else:
            values, detail = measure(run, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for entry in declared:
        value = values.get(entry["name"])
        if value is None:
            run.failures.append({"run": f"metric {entry['name']} not measured"})
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    detail.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "environment": _environment(run), "failures": run.failures,
                   "seed0_baseline": (None if args.seed else
                                      sorted(set(run.baseline_diffs)) or "match")})
    print(json.dumps(detail))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
