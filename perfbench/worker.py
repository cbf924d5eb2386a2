"""One fresh benchmark process: set up, then optionally solve and check.

    python3 perfbench/worker.py --workload NAME --config CFG --out DIR
                                [--solve] [--trace SPANS.jsonl]

The process first imports ``wavecontrol``, loads the config and builds the
problem, as every CLI call does, and prints ``ready`` on standard output;
the parent times set-up from spawning the process to that line.  With
``--solve`` it then times one in-process ``wavecontrol.cli.main`` call on
the config (set-up excluded) in wall and in reference seconds (see
calibration.py), checks the files the call wrote, and prints one JSON line
with the timings, peak RSS, the exact counts and the failed checks.  With ``--trace`` the call runs with the layer wrappers of
``tracer.py`` installed and the per-layer metrics join the JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _initial_v_norm(cfg: dict) -> float:
    """|u0|_V of the generated initial data on the config's grid."""
    from wavecontrol import cli
    from wavecontrol.fields import v_norm
    from wavecontrol.profiles import build_state

    return v_norm(build_state(cli.build_grid(cfg), cfg["data"]["initial"]))


def _sweep_point_config(cfg: dict, dotted: str, value) -> dict:
    point = copy.deepcopy(cfg)
    node = point
    *parents, leaf = dotted.split(".")
    for key in parents:
        node = node[key]
    node[leaf] = value
    return point


def _check_run(cfg: dict, out: Path, report: dict, failures: list):
    from wavecontrol import cli

    summary = json.loads((out / "summary.json").read_text())
    try:
        cli.validate_summary(summary)
    except ValueError as exc:
        failures.append(f"summary.json: {exc}")
    rows = list(csv.DictReader((out / "iterates.csv").open()))
    ls_cfg = cli.LSConfig(**cfg.get("least_squares", {}))
    norm_u0 = _initial_v_norm(cfg)
    defects = []
    for method, entry in summary["methods"].items():
        own = [r for r in rows if r["method"] == method]
        if entry["status"] != "converged":
            failures.append(f"{method}: status {entry['status']}")
        E0 = float(own[0]["E"])
        # the solver's own stopping rule: relative tolerance, or the absolute E floor
        limit = max(ls_cfg.tol * math.sqrt(2 * E0), math.sqrt(2 * ls_cfg.e_floor))
        if entry["sqrt2E_final"] is None or not entry["sqrt2E_final"] <= limit:
            failures.append(f"{method}: sqrt2E_final {entry['sqrt2E_final']} > {limit:.3e}")
        defects.append(entry["term_defect_V"] / norm_u0)
        steps = own[:-1]
        report.setdefault("outer_iters", len(steps))
        report.setdefault("cg_per_step", [int(r["inner_cg_iters"]) for r in steps])
    report["term_defect_rel"] = max(defects)
    report["output_sha256"] = _sha256(out / "iterates.csv")


def _check_sweep(cfg: dict, out: Path, report: dict, failures: list):
    from wavecontrol import cli

    rows = list(csv.DictReader((out / "sweep.csv").open()))
    values = cfg["sweep"]["values"]
    if len(rows) != len(values) * len(cfg["methods"]):
        failures.append(f"sweep.csv has {len(rows)} rows for {len(values)} points")
    e_floor = cli.LSConfig(**cfg.get("least_squares", {})).e_floor
    defects = []
    for row in rows:
        tag = f"sweep point {row['index']}"
        if row["status"] != "converged":
            failures.append(f"{tag}: status {row['status']}")
        # sweep.csv carries no E0; with no outer step E0 is the final E, so the
        # relative test cannot pass and only the absolute floor applies
        if int(row["iterations"]) != 0:
            failures.append(f"{tag}: {row['iterations']} outer steps on a linear problem")
        if not float(row["sqrt2E_final"]) <= math.sqrt(2 * e_floor):
            failures.append(f"{tag}: sqrt2E_final {row['sqrt2E_final']} above the floor")
        point = _sweep_point_config(cfg, row["param_path"], values[int(row["index"])])
        defects.append(float(row["term_defect_V"]) / _initial_v_norm(point))
    report["term_defect_rel"] = max(defects) if defects else math.inf
    report["output_sha256"] = _sha256(out / "sweep.csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--solve", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans here and report layers")
    args = parser.parse_args(argv)

    from wavecontrol import cli

    cfg = cli.load_config(args.config)
    cli.build_problem(cfg)
    print("ready", flush=True)
    if not args.solve:
        return 0

    import numpy
    import scipy

    import calibration
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = undo = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        undo, untraced = tracing.install(tracer)
    cli_args = [workload.command, "--config", args.config, "--out", str(out)]
    with open(out / "stdout.txt", "w") as log, contextlib.redirect_stdout(log), \
            calibration.Sampler(workload.kernel()) as speed:
        t0 = time.perf_counter()
        rc = cli.main(cli_args)
        wall_s = time.perf_counter() - t0
    if undo is not None:
        undo()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    solve_s = wall_s - speed.overhead_s

    report = {"rc": rc, "wall_s": wall_s, "solve_s": solve_s,
              "solve_ref_s": solve_s * speed.scale,
              "peak_rss_mb": peak_kb * 1024 / 1e6,
              "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "scipy": scipy.__version__}}
    failures = [] if rc == 0 else [f"cli exit code {rc}"]
    try:
        if workload.command == "run":
            _check_run(cfg, out, report, failures)
        else:
            _check_sweep(cfg, out, report, failures)
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        failures.append(f"output check: {exc!r}")
    report["failures"] = failures
    if tracer is not None:
        tracer.dump(args.trace)
        report["layers"] = tracing.layer_metrics(tracer.spans)
        report["untraced_names"] = untraced
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
