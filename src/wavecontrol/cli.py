"""Batch experiment surface: configuration ingestion, runs, reports.

Subcommands
    run      execute the configured methods; write iterates.csv + summary.json
    compare  run every method on one scenario; write comparison.csv
    sweep    run a declared one-parameter sweep; write sweep.csv
    check    print a hypothesis report (geometry, growth, Holder) and exit

Configs are versioned JSON; unknown keys are rejected.  The schema here
checks only structure (keys, objects, list lengths, names, methods,
sweep, seed, and x0, since compare and sweep never read it); each number
is checked by the code that reads it, when the problem is built, which
run, compare and sweep do before they make the output directory.  All
CSV output is byte-deterministic for a fixed config and seed: floats are
written in shortest round-trip form and wall-clock timings stay out of
CSV (summary.json carries them).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from .baselines import newton_classic_solve, picard_solve, variant_solve
from .errors import ConfigError, InsufficientRecords, real_number
from .grids import (SpaceTimeGrid, check_geometric_condition, interval_region,
                    rectangle_region, sides_region)
from .least_squares import LSConfig, estimate_order, ls_solve
from .linear_control import LinearControlProblem
from .nonlinearity import beta_star, builtin, check_growth_H2, holder_seminorm_sample
from .profiles import build_state

SCHEMA_VERSION = 1

ITERATES_COLUMNS = [
    "method", "scenario", "config_hash", "k", "E", "sqrt_E", "lambda",
    "F1_qT_norm", "Y1_LinfV", "y_LinfL1", "gprime_LinfLd", "inner_defect",
    "inner_cg_iters", "inner_converged", "term_defect_V", "step_delta",
]

COMPARISON_COLUMNS = ["method", "scenario", "config_hash", "iterations",
                      "sqrt2E_final", "status", "order"]

SWEEP_COLUMNS = ["index", "param_path", "param_value", "method", "scenario",
                 "config_hash", "status", "iterations", "sqrt2E_final",
                 "term_defect_V", "order"]

SUMMARY_SCHEMA = {
    "schema": str, "config_hash": str, "scenario": str, "seed": int,
    "geometry": (dict, type(None)), "methods": dict,
}
SUMMARY_METHOD_SCHEMA = {
    "status": str, "iterations": int, "E_final": (float, type(None)),
    "sqrt2E_final": (float, type(None)),
    "order": (float, type(None)), "order_fit_residual": (float, type(None)),
    "term_defect_V": (float, type(None)), "M_run": float, "wall_time_s": float,
    "inner_unconverged": list,          # outer steps k, ints
    "start_cg_iters": int,
}

METHOD_RUNNERS = {
    # a lambda, so that ls_solve is looked up in this module at each call
    "least_squares": lambda prob, g, config: ls_solve(prob, g, config),
    "newton_classic": newton_classic_solve,
    "picard": picard_solve,
    "variant": variant_solve,
}


# ---------------------------------------------------------------------------
# configuration loading and validation
# ---------------------------------------------------------------------------

def _fail(path, message):
    raise ConfigError(f"{path}: {message}")


def _expect_keys(d, path, required, optional=()):
    if not isinstance(d, dict):
        _fail(path, "must be an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        _fail(path, f"unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        _fail(path, f"missing keys {missing}")


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict):
    _expect_keys(cfg, "config",
                 required=("schema_version", "scenario", "data", "nonlinearity", "methods"),
                 optional=("least_squares", "inner", "output_dir",
                           "seed", "sweep"))
    if cfg["schema_version"] != SCHEMA_VERSION:
        _fail("config.schema_version", f"expected {SCHEMA_VERSION}")
    if "seed" in cfg and real_number("config.seed", cfg["seed"]) != int(cfg["seed"]):
        _fail("config.seed", "must be an integer")
    if not isinstance(cfg.get("output_dir", ""), str):
        _fail("config.output_dir", "must be a string")
    sc = cfg["scenario"]
    _expect_keys(sc, "scenario", required=("name", "dimension", "lengths", "nodes",
                                           "T", "nt", "region"),
                 optional=("x0",))
    # written unquoted into every CSV row and as a string into summary.json
    if not isinstance(sc["name"], str) or any(c in sc["name"] for c in ',"\r\n'):
        _fail("scenario.name", "must be a string without commas, quotes or line breaks")
    if isinstance(sc["dimension"], bool) or sc["dimension"] not in (1, 2):
        _fail("scenario.dimension", "must be 1 or 2")
    dim = sc["dimension"]
    for key in ("lengths", "nodes"):
        if not isinstance(sc[key], list) or len(sc[key]) != dim:
            _fail(f"scenario.{key}", f"must be a list of {dim} value(s)")
    # only run and check read x0 (check_geometric_condition); compare and
    # sweep would take any
    if sc.get("x0") is not None:
        x0 = sc["x0"] if isinstance(sc["x0"], list) else [sc["x0"]]
        if len(x0) != dim:
            _fail("scenario.x0", f"must be a number or a list of {dim} numbers")
        for v in x0:
            real_number("scenario.x0", v)
    region = sc["region"]
    if not isinstance(region, dict) or "type" not in region:
        _fail("scenario.region", "must be an object with a 'type'")
    rtype = region["type"]
    if rtype == "interval":
        _expect_keys(region, "scenario.region", required=("type", "a", "b"))
    elif rtype == "rectangle":
        _expect_keys(region, "scenario.region", required=("type", "x0", "x1", "y0", "y1"))
    elif rtype == "sides":
        _expect_keys(region, "scenario.region", required=("type", "sides", "eps"))
        if not isinstance(region["sides"], list):
            _fail("scenario.region.sides", "must be a list of side names")
    else:
        _fail("scenario.region.type", f"unknown region type {rtype!r}")
    data = cfg["data"]
    _expect_keys(data, "data", required=("initial", "target"))
    for name in ("initial", "target"):
        _expect_keys(data[name], f"data.{name}", required=(), optional=("position", "velocity"))
        for part in ("position", "velocity"):
            if not isinstance(data[name].get(part, {}), dict):
                _fail(f"data.{name}.{part}", "must be an object")
    nl = cfg["nonlinearity"]
    _expect_keys(nl, "nonlinearity", required=("name",), optional=("params",))
    if not isinstance(nl.get("params", {}), dict):
        _fail("nonlinearity.params", "must be an object")
    methods = cfg["methods"]
    if not isinstance(methods, list) or not methods:
        _fail("config.methods", "must be a non-empty list")
    for i, m in enumerate(methods):
        if not isinstance(m, str) or m not in METHOD_RUNNERS:
            _fail("config.methods", f"unknown method {m!r}")
        if m in methods[:i]:
            _fail("config.methods", f"duplicate method {m!r}")
    for section, keys in (("least_squares", ("max_outer",)),
                          ("inner", ("eps_reg", "cg_tol", "cg_max_iter"))):
        if section in cfg:
            _expect_keys(cfg[section], section, required=(), optional=keys)
    if "sweep" in cfg:
        _expect_keys(cfg["sweep"], "sweep", required=("path", "values"))
        if not isinstance(cfg["sweep"]["path"], str):
            _fail("sweep.path", "must be a dotted key string")
        if not isinstance(cfg["sweep"]["values"], list) or not cfg["sweep"]["values"]:
            _fail("sweep.values", "must be a non-empty list")


def config_hash(cfg: dict) -> str:
    hashed = {k: v for k, v in cfg.items() if k != "output_dir"}
    canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# object construction
# ---------------------------------------------------------------------------

def build_grid(cfg: dict) -> SpaceTimeGrid:
    sc = cfg["scenario"]
    return SpaceTimeGrid(tuple(sc["lengths"]), tuple(sc["nodes"]), T=sc["T"], nt=sc["nt"])


def build_region(cfg: dict, grid: SpaceTimeGrid):
    region = cfg["scenario"]["region"]
    if region["type"] == "interval":
        return interval_region(grid, region["a"], region["b"])
    if region["type"] == "rectangle":
        return rectangle_region(grid, region["x0"], region["x1"], region["y0"], region["y1"])
    return sides_region(grid, region["sides"], region["eps"])


def build_problem(cfg: dict):
    grid = build_grid(cfg)
    region = build_region(cfg, grid)
    states = {}
    for name in ("initial", "target"):
        try:
            states[name] = build_state(grid, cfg["data"][name])
        except ConfigError as exc:
            raise ConfigError(f"data.{name}: {exc}") from None
    problem = LinearControlProblem(grid, region, **states, **cfg.get("inner", {}))
    nl = cfg["nonlinearity"]
    g = builtin(nl["name"], **nl.get("params", {}))
    return problem, g, LSConfig(**cfg.get("least_squares", {}))


# ---------------------------------------------------------------------------
# report writing
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_csv(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def iterate_rows(result, scenario_name, chash):
    rows = []
    for rec in result.records:
        rows.append({
            "method": result.method, "scenario": scenario_name, "config_hash": chash,
            "k": rec.k, "E": rec.E, "sqrt_E": rec.sqrt_E, "lambda": rec.lam,
            "F1_qT_norm": rec.F1_qT, "Y1_LinfV": rec.Y1_linf_V,
            "y_LinfL1": rec.y_linf_L1, "gprime_LinfLd": rec.gprime_linf_ld,
            "inner_defect": rec.inner_defect, "inner_cg_iters": rec.inner_cg_iters,
            "inner_converged": rec.inner_converged, "term_defect_V": rec.term_defect_V,
            "step_delta": rec.step_delta,
        })
    return rows


def _order_or_none(result):
    """Order fit of a converged run; (None, None) otherwise, since a fit over
    a stalled or diverging tail measures nothing."""
    if result.status != "converged":
        return None, None
    try:
        est = estimate_order(result.records)
        return est.order, est.fit_residual
    except InsufficientRecords:
        return None, None


def _json_number(v):
    return float(v) if v is not None and math.isfinite(v) else None


def method_summary(result, wall_time):
    order, fit = _order_or_none(result)
    last = result.records[-1]
    return {
        "status": result.status,
        "iterations": len(result.records) - 1,
        "E_final": _json_number(last.E),
        "sqrt2E_final": _json_number(math.sqrt(2 * last.E)) if math.isfinite(last.E) else None,
        "order": _json_number(order) if order is not None else None,
        "order_fit_residual": _json_number(fit) if fit is not None else None,
        "term_defect_V": _json_number(last.term_defect_V),
        "M_run": float(result.M_run),
        "wall_time_s": float(wall_time),
        # the steps whose inner CG stopped short of its tolerance and floor
        "inner_unconverged": [rec.k for rec in result.records if not rec.inner_converged],
        # the CG iterations of the start solve, which no iterates.csv row holds
        "start_cg_iters": int(result.start_cg_iters),
    }


def _has_type(value, typ) -> bool:
    """isinstance(value, typ), where an int is also a float and a bool is
    neither: no schema key holds a bool."""
    if isinstance(value, bool):
        return False
    return isinstance(value, typ) or (typ is float and isinstance(value, int))


def validate_summary(summary: dict):
    """Check summary.json against the published schema; raises on mismatch."""
    for key, typ in SUMMARY_SCHEMA.items():
        if key not in summary:
            raise ValueError(f"summary missing key {key!r}")
        if not _has_type(summary[key], typ):
            raise ValueError(f"summary key {key!r} has wrong type")
    for name, entry in summary["methods"].items():
        for key, typ in SUMMARY_METHOD_SCHEMA.items():
            if key not in entry:
                raise ValueError(f"summary.methods.{name} missing {key!r}")
            value = entry[key]
            ok = _has_type(value, typ)
            if ok and typ is list:
                ok = all(type(k) is int and k >= 0 for k in value)
            if not ok:
                raise ValueError(f"summary.methods.{name}.{key} has wrong type")


def geometry_summary(cfg, grid, region):
    x0 = cfg["scenario"].get("x0")
    if x0 is None:
        return None
    rep = check_geometric_condition(grid, region, x0)
    return {"holds": rep.holds, "T_min": rep.T_min, "gamma0": list(rep.gamma0),
            "covered": rep.covered, "time_ok": rep.time_ok}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _out_dir(cfg, args) -> Path:
    out = args.out or cfg.get("output_dir", "out")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out}: {exc.strerror or exc}") from None
    return path


def _run_methods(built, methods, verbose=False):
    """Solve with each method the (problem, g, config) that `build_problem`
    returned; maps each name to (result, wall time)."""
    results = {}
    for name in methods:
        t0 = time.perf_counter()
        result = METHOD_RUNNERS[name](*built)
        wall = time.perf_counter() - t0
        results[name] = (result, wall)
        if verbose:
            for rec in result.records:
                print(f"  [{name}] k={rec.k} E={rec.E:.6e} lam={rec.lam:.4f} "
                      f"cg={rec.inner_cg_iters} defect={rec.inner_defect:.3e}")
    return results


def cmd_run(cfg, args) -> int:
    built = build_problem(cfg)
    # a bad observation point is rejected here, before anything is solved
    geometry = geometry_summary(cfg, built[0].grid, built[0].region)
    out = _out_dir(cfg, args)
    chash = config_hash(cfg)
    name = cfg["scenario"]["name"]
    results = _run_methods(built, cfg["methods"], args.verbose)

    rows = []
    for method in cfg["methods"]:
        rows.extend(iterate_rows(results[method][0], name, chash))
    _write_csv(out / "iterates.csv", ITERATES_COLUMNS, rows)

    if args.verbose:
        hist_rows = [{"method": m, "k": rec.k, "cg_iter": i, "rel_residual": v}
                     for m in cfg["methods"]
                     for rec in results[m][0].records
                     for i, v in enumerate(rec.inner_residuals)]
        _write_csv(out / "cg_history.csv",
                   ["method", "k", "cg_iter", "rel_residual"], hist_rows)

    summary = {
        "schema": "wavecontrol-summary-v1",
        "config_hash": chash,
        "scenario": name,
        "seed": int(cfg.get("seed", 0)),
        "geometry": geometry,
        "methods": {m: method_summary(r, w) for m, (r, w) in results.items()},
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"scenario {name}  (config {chash})")
    widths = "{:<16s} {:>12s} {:>11s} {:>12s} {:>9s}"
    print(widths.format("method", "status", "iterations", "sqrt2E_final", "order"))
    for m, (r, w) in results.items():
        s = summary["methods"][m]
        order = "-" if s["order"] is None else f"{s['order']:.2f}"
        final = "-" if s["sqrt2E_final"] is None else f"{s['sqrt2E_final']:.3e}"
        print(widths.format(m, s["status"], str(s["iterations"]), final, order))
    return 0 if all(r.status == "converged" for r, _ in results.values()) else 2


def _result_rows(results, scenario, chash):
    """One report row per method of `_run_methods`' results, in their order."""
    rows = []
    for m, (result, _wall) in results.items():
        order, _fit = _order_or_none(result)
        last = result.records[-1]
        rows.append({
            "method": m, "scenario": scenario, "config_hash": chash,
            "status": result.status, "iterations": len(result.records) - 1,
            "sqrt2E_final": math.sqrt(2 * last.E),
            "term_defect_V": last.term_defect_V,
            "order": math.nan if order is None else order,
        })
    return rows


def cmd_compare(cfg, args) -> int:
    built = build_problem(cfg)
    out = _out_dir(cfg, args)
    chash = config_hash(cfg)
    name = cfg["scenario"]["name"]
    methods = list(METHOD_RUNNERS)
    results = _run_methods(built, methods, args.verbose)
    rows = _result_rows(results, name, chash)
    _write_csv(out / "comparison.csv", COMPARISON_COLUMNS, rows)
    for row in rows:
        print(f"{row['method']:<16s} {row['status']:>12s} it={row['iterations']:<4d} "
              f"sqrt2E={row['sqrt2E_final']:.3e}")
    return 0 if results["least_squares"][0].status == "converged" else 2


def _set_by_path(cfg, dotted, value):
    *parents, leaf = dotted.split(".")
    node = cfg
    for p in parents:
        node = node.get(p) if isinstance(node, dict) else None
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"sweep.path: {dotted!r} does not address a config entry")
    node[leaf] = value


def _build_sweep_point(base_cfg, idx, dotted, value):
    """The config of sweep point idx and what `build_problem` builds from it;
    a refused point's message names its index, path and value."""
    cfg = copy.deepcopy(base_cfg)
    cfg.pop("sweep", None)
    _set_by_path(cfg, dotted, value)
    try:
        validate_config(cfg)
        return cfg, build_problem(cfg)
    except ConfigError as exc:
        raise ConfigError(f"sweep point {idx} ({dotted}={json.dumps(value)}): {exc}") from None


def _sweep_point(cfg, built, value, methods):
    results = _run_methods(built, methods)
    return [dict(row, param_value=value)
            for row in _result_rows(results, cfg["scenario"]["name"], config_hash(cfg))]


def cmd_sweep(cfg, args) -> int:
    if "sweep" not in cfg:
        raise ConfigError("sweep: missing sweep declaration")
    # a bad base config or sweep point is rejected before the output
    # directory exists, and before any point is solved
    build_problem(cfg)
    dotted, values = cfg["sweep"]["path"], cfg["sweep"]["values"]
    points = [_build_sweep_point(cfg, idx, dotted, value) for idx, value in enumerate(values)]
    out = _out_dir(cfg, args)
    rows = []
    for idx, value in enumerate(values):
        for row in _sweep_point(*points[idx], value, cfg["methods"]):
            rows.append(dict(row, index=idx, param_path=dotted))
        points[idx] = None          # frees the solved point's problem
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, rows)
    for row in rows:
        print(f"[{row['index']}] {row['param_path']}={row['param_value']} "
              f"{row['method']}: {row['status']} sqrt2E={row['sqrt2E_final']:.3e} "
              f"defect={row['term_defect_V']:.3e}")
    return 0 if all(r["status"] == "converged" for r in rows) else 2


DIAGNOSTIC_C = 1.0                    # the paper's unknown C, for the beta* line only


def cmd_check(cfg, args) -> int:
    # builds everything `run` builds, data states included, so that check
    # rejects each config that run would reject before solving
    problem, g, _ = build_problem(cfg)
    grid, region, C = problem.grid, problem.region, DIAGNOSTIC_C

    print(f"hypothesis report for scenario {cfg['scenario']['name']!r}")
    geo = geometry_summary(cfg, grid, region)
    if geo is None:
        print("  geometry: unknown (no observation point x0 configured)")
    else:
        verdict = "holds" if geo["holds"] else "fails"
        print(f"  geometry: {verdict}  T={grid.T} T_min={geo['T_min']:.6g} "
              f"gamma0={geo['gamma0']} region_covers={geo['covered']}")

    print(f"  nonlinearity {g.name!r}: Holder exponent s={g.s}")
    sampled = holder_seminorm_sample(g, g.s, R=10.0, n_samples=2000)
    if g.seminorm is None:
        print(f"    [g']_s declared: unknown; sampled lower bound {sampled:.6g}")
    else:
        ok = sampled <= g.seminorm + 1e-9
        print(f"    [g']_s declared {g.seminorm:.6g}, sampled lower bound "
              f"{sampled:.6g} ({'consistent' if ok else 'INCONSISTENT'})")

    if g.alpha is None or g.beta is None:
        print("    growth bound: unknown (no declared alpha/beta)")
    else:
        res = check_growth_H2(g, g.alpha, g.beta, R=1e6, n=4000)
        verdict = "holds" if res.holds else f"fails at r={res.witness:.6g}"
        print(f"    growth |g'| <= {g.alpha:.6g} + {g.beta:.6g} ln^(1/2)(1+|r|): {verdict}")
        if g.s > 0:
            bstar = beta_star(g.s, C)
            rel = "<" if g.beta < bstar else ">="
            tag = "ok" if g.beta < bstar else "WARNING: outside the guaranteed regime"
            print(f"    beta={g.beta:.6g} {rel} beta*(s)={bstar:.6g} for C={C} ({tag})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="wavecontrol",
                                     description="semilinear wave control experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("compare", cmd_compare),
                     ("sweep", cmd_sweep), ("check", cmd_check)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if fn in (cmd_run, cmd_compare):       # the two that print per-step detail
            p.add_argument("--verbose", action="store_true")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(load_config(args.config), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
