import csv
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import wavecontrol.cli as cli
from wavecontrol.grids import rectangle_region
from wavecontrol.least_squares import IterateRecord, LSResult, initialize

from conftest import CONFIGS, load_json


def run_cli(args):
    return cli.main([str(a) for a in args])


def small_linear_config(tmp_path, **overrides):
    cfg = load_json(CONFIGS / "newton_equiv.json")
    cfg["scenario"]["nodes"] = [60]
    cfg["scenario"]["nt"] = 180
    for key, value in overrides.items():
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    assert run_cli(["run", "--config", path]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_negative_T_names_the_field(tmp_path, capsys):
    path, cfg = small_linear_config(tmp_path)
    cfg["scenario"]["T"] = -2.5
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "T" in err and "positive" in err


def test_unknown_keys_rejected(tmp_path, capsys):
    path, cfg = small_linear_config(tmp_path)
    cfg["unexpected"] = 1
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", path]) == 1
    assert "unknown keys" in capsys.readouterr().err


def test_unknown_method_rejected(tmp_path, capsys):
    path, cfg = small_linear_config(tmp_path)
    cfg["methods"] = ["gradient_descent"]
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", path]) == 1
    assert "gradient_descent" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("scenario.nodes", ["abc"]),
    ("scenario.lengths", ["x"]),
    ("scenario.region.a", "left"),
    ("least_squares.m", "big"),
    ("inner.eps_reg", "tiny"),
    ("inner.cg_max_iter", "many"),
    ("scenario.x0", "here"),
    ("nonlinearity.params", [1, 2]),
    ("least_squares.max_outer", -1),
    ("least_squares.max_outer", float("inf")),
    ("scenario", 5),
    ("inner", []),
    ("data.initial", "x"),
    ("data.target.position", 3),
    ("scenario.dimension", True),
    ("seed", "abc"),
    ("seed", 1.5),
    ("methods", [[1]]),
    ("data.initial.position.amplitude", "big"),
    ("data.initial.position.k", "x"),
    ("data.initial.position", {"profile": "bump", "center": "mid"}),
    ("sweep", {"path": 5, "values": [1]}),
    ("output_dir", 5),
    ("scenario.smoothing", "no"),
    ("scenario.x0", []),
    ("scenario.name", 5),
    ("scenario.name", "a,b\nc"),
])
def test_malformed_field_is_a_config_error(tmp_path, capsys, key, value):
    path, _ = small_linear_config(tmp_path, **{key: value})
    assert run_cli(["run", "--config", path, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key.split(".")[-1] in err


def json_leaves(node, path=()):
    """The paths of every leaf of a JSON value; an empty list or object is one."""
    if isinstance(node, (dict, list)) and node:
        keys = node if isinstance(node, dict) else range(len(node))
        return [leaf for key in keys for leaf in json_leaves(node[key], path + (key,))]
    return [path]


DELETE = object()


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(p.stem for p in CONFIGS.glob("*.json"))),
       pick=st.integers(0, 10 ** 6),
       value=st.sampled_from(["x", "", True, False, None, [], [1, "a"], {}, {"a": 1},
                              -1, -2.5, 0, math.inf, -math.inf, math.nan, 10 ** 400,
                              DELETE]))
def test_mutated_config_check_never_raises(tmp_path, name, pick, value):
    # one leaf of a committed config replaced or deleted: `check` accepts the
    # config or reports a config error, and never raises
    cfg = load_json(CONFIGS / f"{name}.json")
    leaves = json_leaves(cfg)
    *parents, key = leaves[pick % len(leaves)]
    node = cfg
    for part in parents:
        node = node[part]
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["check", "--config", path]) in (0, 1)


@pytest.mark.parametrize("key", [
    "scenario.lengths", "scenario.nodes", "scenario.T", "scenario.nt", "scenario.x0",
    "scenario.region.a", "scenario.region.b", "data.initial.position.amplitude",
    "data.initial.position.k", "nonlinearity.params.b", "least_squares.max_outer",
    "inner.eps_reg", "inner.cg_tol", "inner.cg_max_iter", "seed",
])
@pytest.mark.parametrize("command", ["check", "run", "compare", "sweep"])
def test_401_digit_integer_is_a_config_error(tmp_path, capsys, command, key):
    # JSON has no integer limit, and such an int has no float64 value; a
    # sweep builds its base config, with every key it does not set, before
    # it makes the output directory
    big = 10 ** 400
    value = [big] if key in ("scenario.lengths", "scenario.nodes") else big
    sweep = {"path": "nonlinearity.params.b", "values": [0.3]}
    path, _ = small_linear_config(tmp_path, **{key: value, "sweep": sweep})
    out = tmp_path / "o"
    assert run_cli([command, "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key.split(".")[-1] in err
    assert not out.exists()


FUZZ_G = {"zero": {}, "linear": {"b": 0.3}, "lipschitz_sat": {"kappa": 5.0},
          "loglimit": {"a": 0.0, "b": 0.0, "c": 0.5}, "cubic_sat": {"R": 50.0}}


@pytest.mark.parametrize("amplitude", [0.0, 2.0, 10.0, 40.0])
@settings(max_examples=15, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(nodes=st.integers(7, 17), nt=st.integers(10, 40), cfl=st.floats(0.5, 0.95),
       g=st.sampled_from(sorted(FUZZ_G)), method=st.sampled_from(sorted(cli.METHOD_RUNNERS)))
def test_run_on_tiny_grids_never_raises(tmp_path, amplitude, nodes, nt, cfl, g, method):
    # a 1D run, from zero data to amplitudes where cubic_sat makes the
    # methods diverge, cap or stagnate, ends converged (0) or not (2) with a
    # valid summary, and never raises
    cfg = load_json(CONFIGS / "lipschitz_default.json")
    cfg["scenario"].update(nodes=[nodes], nt=nt, T=cfl * nt / (nodes - 1))
    cfg["data"]["initial"]["position"]["amplitude"] = amplitude
    cfg["nonlinearity"] = {"name": g, "params": FUZZ_G[g]}
    cfg["methods"] = [method]
    cfg["least_squares"] = {"max_outer": 8}
    path, out = tmp_path / "fuzz.json", tmp_path / "fuzz"
    path.write_text(json.dumps(cfg))
    (out / "summary.json").unlink(missing_ok=True)
    assert run_cli(["run", "--config", path, "--out", out]) in (0, 2)
    cli.validate_summary(json.loads((out / "summary.json").read_text()))


@pytest.mark.parametrize("command", ["check", "run"])
def test_empty_2d_x0_is_a_config_error(tmp_path, capsys, command):
    cfg = load_json(CONFIGS / "smoke_2d.json")
    cfg["scenario"]["x0"] = []
    path = tmp_path / "x0.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([command, "--config", path, "--out", tmp_path / "o"]) == 1
    assert "config error: scenario.x0" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_committed_config_loads_and_builds(path):
    cli.build_problem(cli.load_config(path))
    assert run_cli(["check", "--config", path]) == 0


def test_rectangle_region_config(tmp_path):
    # no committed config declares a rectangle: smoke_2d's grid with its
    # sides swapped for the strip (0.85, 1) x (0, 1)
    cfg = load_json(CONFIGS / "smoke_2d.json")
    cfg["scenario"]["region"] = {"type": "rectangle", "x0": 0.85, "x1": 1.0, "y0": 0.0, "y1": 1.0}
    path = tmp_path / "rectangle.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["check", "--config", path]) == 0
    grid = cli.build_grid(cfg)
    weights = cli.build_region(cfg, grid).weights
    assert np.array_equal(weights, rectangle_region(grid, 0.85, 1.0, 0.0, 1.0).weights)
    x, y = grid.axis_nodes(0), grid.axis_nodes(1)
    assert np.array_equal(weights, np.outer((x > 0.85) & (x < 1.0), (y > 0.0) & (y < 1.0)))


def test_run_writes_outputs_and_exit_zero(tmp_path):
    path, cfg = small_linear_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", path, "--out", out]) == 0
    rows = (out / "iterates.csv").read_text().splitlines()
    # the literal header: a change to the iterates.csv schema is deliberate
    assert rows[0] == ("method,scenario,config_hash,k,E,sqrt_E,lambda,F1_qT_norm,"
                       "Y1_LinfV,y_LinfL1,gprime_LinfLd,inner_defect,inner_cg_iters,"
                       "inner_converged,term_defect_V,step_delta")
    assert len(rows) > 2
    chash = cli.config_hash(cfg)
    assert all(chash in row for row in rows[1:])

    summary = json.loads((out / "summary.json").read_text())
    cli.validate_summary(summary)
    assert summary["config_hash"] == chash
    assert summary["geometry"]["holds"] is True
    for m in cfg["methods"]:
        assert summary["methods"][m]["status"] == "converged"
        assert summary["methods"][m]["inner_unconverged"] == []


def test_summary_reports_the_start_solve(tmp_path):
    # no iterates.csv row holds the CG iterations of the start solve; with
    # plain CG (eps_reg = 0) it takes more than the one of the preconditioned
    path, cfg = small_linear_config(tmp_path, **{"inner.eps_reg": 0.0})
    cfg["methods"] = sorted(cli.METHOD_RUNNERS)
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["run", "--config", path, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    cli.validate_summary(summary)
    start = initialize(cli.build_problem(cfg)[0]).cg_iterations
    assert start > 1
    assert {m: e["start_cg_iters"] for m, e in summary["methods"].items()} == dict.fromkeys(
        cfg["methods"], start)
    for bad in (1.5, None, "1", True):
        summary["methods"]["picard"]["start_cg_iters"] = bad
        with pytest.raises(ValueError, match="start_cg_iters has wrong type"):
            cli.validate_summary(summary)
    # a bool is neither an int nor a float of the schema
    summary["methods"]["picard"]["start_cg_iters"] = start
    for key in ("iterations", "M_run", "wall_time_s"):
        entry = dict(summary["methods"]["variant"], **{key: True})
        with pytest.raises(ValueError, match=f"{key} has wrong type"):
            cli.validate_summary(dict(summary, methods={"variant": entry}))
    with pytest.raises(ValueError, match="'seed' has wrong type"):
        cli.validate_summary(dict(summary, seed=False))


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def test_verbose_run_writes_the_cg_history(tmp_path, capsys):
    # --verbose prints one line per outer step and writes cg_history.csv, one
    # row per CG residual of each inner solve, and changes no iterates.csv byte
    path = CONFIGS / "lipschitz_default.json"
    assert run_cli(["run", "--config", path, "--out", tmp_path / "quiet"]) == 0
    capsys.readouterr()
    assert run_cli(["run", "--config", path, "--out", tmp_path / "loud", "--verbose"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "[least_squares]" in line]
    assert (tmp_path / "quiet" / "iterates.csv").read_bytes() == (
        tmp_path / "loud" / "iterates.csv").read_bytes()
    assert not (tmp_path / "quiet" / "cg_history.csv").exists()
    _, steps = read_csv(tmp_path / "loud" / "iterates.csv")
    header, rows = read_csv(tmp_path / "loud" / "cg_history.csv")
    assert header == ["method", "k", "cg_iter", "rel_residual"]
    iters = [int(step["inner_cg_iters"]) for step in steps]
    assert iters == [6, 6, 6, 0] and len(rows) == 21 == 3 * (6 + 1)
    assert [(int(r["k"]), int(r["cg_iter"])) for r in rows] == [
        (k, i) for k, n in enumerate(iters) if n for i in range(n + 1)]
    assert all(r["method"] == "least_squares" for r in rows)
    assert [r["rel_residual"] for r in rows if r["cg_iter"] == "0"] == ["1.0"] * 3
    assert [line.split()[1:5] for line in lines] == [
        [f"k={k}", f"E={float(s['E']):.6e}", f"lam={float(s['lambda']):.4f}", f"cg={n}"]
        for k, (s, n) in enumerate(zip(steps, iters))]


def test_run_exit_two_on_cap(tmp_path):
    path, cfg = small_linear_config(tmp_path, **{"least_squares.max_outer": 0})
    cfg["nonlinearity"] = {"name": "lipschitz_sat", "params": {"kappa": 1.0}}
    cfg["methods"] = ["least_squares"]
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", path, "--out", tmp_path / "o"]) == 2


def test_overflowed_residual_ends_every_method_diverged(tmp_path):
    # |r| near 1e160: E = |r|^2 / 2 leaves float64, and a nonfinite E ends
    # every method diverged at its first row, with a valid summary
    cfg = load_json(CONFIGS / "lipschitz_default.json")
    cfg["nonlinearity"] = {"name": "linear", "params": {"b": 1e160}}
    cfg["methods"] = sorted(cli.METHOD_RUNNERS)
    path, out = tmp_path / "huge.json", tmp_path / "huge"
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", path, "--out", out]) == 2
    text = (out / "summary.json").read_text()
    summary = json.loads(text)
    cli.validate_summary(summary)
    assert "Infinity" not in text and "NaN" not in text
    for entry in summary["methods"].values():
        assert entry["status"] == "diverged" and entry["iterations"] == 0
        assert entry["E_final"] is None and entry["sqrt2E_final"] is None


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_data_that_the_start_solve_cannot_march_is_a_config_error(tmp_path, capsys, command):
    # amplitude 1e308 overflows the g = 0 start solve's march at level 1,
    # before any method steps
    cfg = load_json(CONFIGS / "lipschitz_default.json")
    cfg["data"]["initial"]["position"]["amplitude"] = 1e308
    cfg["sweep"] = {"path": "nonlinearity.params.kappa", "values": [5.0]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([command, "--config", path, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == ("config error: the start solve (g = 0) blew up: "
                                       "nonfinite values at time level 1\n")


@pytest.mark.parametrize("state", ["initial", "target"])
def test_refused_data_profile_names_its_state(tmp_path, capsys, state):
    bad = {"profile": "eigenmode", "k": 1, "amplitude": "big"}
    path, _ = small_linear_config(tmp_path, **{f"data.{state}.position": bad})
    assert run_cli(["check", "--config", path]) == 1
    assert capsys.readouterr().err == (f"config error: data.{state}: position: profile key "
                                       "'amplitude': must be a finite number\n")


def test_least_squares_cap_caps_every_method(tmp_path):
    # least_squares.max_outer is the one outer step cap: on a nonlinear g,
    # where no method converges in two steps, picard and variant stop at it
    # as the damped iteration and newton_classic do
    path, _ = small_linear_config(tmp_path, **{
        "nonlinearity": {"name": "lipschitz_sat", "params": {"kappa": 5.0}},
        "least_squares.max_outer": 2})
    out = tmp_path / "cmp"
    assert run_cli(["compare", "--config", path, "--out", out]) == 2
    rows = list(csv.DictReader((out / "comparison.csv").read_text().splitlines()))
    assert [(r["method"], r["status"], r["iterations"]) for r in rows] == [
        (m, "cap_reached", "2") for m in cli.METHOD_RUNNERS]


@pytest.mark.parametrize("command", ["check", "run"])
def test_time_step_whose_square_underflows_is_a_config_error(tmp_path, capsys, command):
    # dt = 1e-300 / 180 passes every other check, but dt^2 is 0 and the
    # residual stencil would divide 0 by 0
    path, _ = small_linear_config(tmp_path, **{"scenario.T": 1e-300})
    assert run_cli([command, "--config", path, "--out", tmp_path / "o"]) == 1
    assert "config error: dt^2 = 0 is not a normal float64 number" in capsys.readouterr().err


def test_run_determinism_byte_identical(tmp_path):
    path, _ = small_linear_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "--config", path, "--out", out1]) == 0
    assert run_cli(["run", "--config", path, "--out", out2]) == 0
    assert (out1 / "iterates.csv").read_bytes() == (out2 / "iterates.csv").read_bytes()


def test_out_dir_env_override(tmp_path, monkeypatch):
    # no environment variable overrides the output directory: without --out
    # a run writes to the config's output_dir
    path, _ = small_linear_config(tmp_path, output_dir=str(tmp_path / "cfg_out"))
    monkeypatch.setenv("WAVECONTROL_OUT", str(tmp_path / "env_out"))
    assert run_cli(["run", "--config", path]) == 0
    assert (tmp_path / "cfg_out" / "summary.json").exists()
    assert not (tmp_path / "env_out").exists()


def test_compare_all_methods_on_linear(tmp_path):
    path, cfg = small_linear_config(tmp_path)
    out = tmp_path / "cmp"
    assert run_cli(["compare", "--config", path, "--out", out]) == 0
    rows = (out / "comparison.csv").read_text().splitlines()
    assert rows[0] == ",".join(cli.COMPARISON_COLUMNS)
    assert len(rows) == 5   # four methods
    by_method = {}
    for row in rows[1:]:
        vals = dict(zip(cli.COMPARISON_COLUMNS, row.split(",")))
        by_method[vals["method"]] = vals
        assert vals["status"] == "converged"
    finals = [float(v["sqrt2E_final"]) for v in by_method.values()]
    assert max(finals) - min(finals) <= 1e-10


@pytest.mark.parametrize("status, has_order", [("converged", True), ("cap_reached", False)])
def test_summary_order_only_for_converged_runs(status, has_order):
    records = [IterateRecord(k=k, E=0.5 ** k, sqrt_E=0.5 ** (k / 2)) for k in range(5)]
    result = LSResult(records=records, y=None, f=None, status=status, M_run=0.0)
    summary = cli.method_summary(result, wall_time=0.0)
    assert (summary["order"] is not None) == has_order
    assert (summary["order_fit_residual"] is not None) == has_order
    if has_order:
        assert summary["order"] == pytest.approx(1.0, abs=1e-9)


def test_summary_lists_unconverged_inner_solves():
    # the steps whose inner CG stopped at cg_max_iter, as the inner_converged
    # column gives them; validate_summary takes only a list of step indices
    records = [IterateRecord(k=k, E=0.5 ** k, sqrt_E=0.5 ** (k / 2),
                             inner_converged=k not in (1, 3)) for k in range(5)]
    result = LSResult(records=records, y=None, f=None, status="cap_reached", M_run=0.0)
    entry = cli.method_summary(result, wall_time=0.0)
    assert entry["inner_unconverged"] == [1, 3]
    summary = {"schema": "wavecontrol-summary-v1", "config_hash": "0", "scenario": "s",
               "seed": 0, "geometry": None, "methods": {"least_squares": entry}}
    cli.validate_summary(json.loads(json.dumps(summary)))
    for bad in ([1.0], ["1"], [True], [-1], 3, None, "13"):
        entry["inner_unconverged"] = bad
        with pytest.raises(ValueError, match="inner_unconverged has wrong type"):
            cli.validate_summary(summary)
    del entry["inner_unconverged"]
    with pytest.raises(ValueError, match="missing 'inner_unconverged'"):
        cli.validate_summary(summary)


def test_sweep_resolution_defect_decreases(tmp_path):
    cfg = load_json(CONFIGS / "resolution_sweep.json")
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", path, "--out", out]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == ",".join(cli.SWEEP_COLUMNS)
    defects = [float(dict(zip(cli.SWEEP_COLUMNS, r.split(",")))["term_defect_V"])
               for r in rows[1:]]
    assert len(defects) == 3
    assert defects[0] > defects[1] > defects[2]


def test_sweep_without_declaration_fails(tmp_path, capsys):
    path, _ = small_linear_config(tmp_path)
    assert run_cli(["sweep", "--config", path, "--out", tmp_path / "o"]) == 1


def test_sweep_empty_values_rejected(tmp_path):
    path, cfg = small_linear_config(tmp_path)
    cfg["sweep"] = {"path": "nonlinearity.params.b", "values": []}
    path.write_text(json.dumps(cfg))
    assert run_cli(["sweep", "--config", path, "--out", tmp_path / "o"]) == 1


@pytest.mark.parametrize("dotted", ["scenario.nope", "nope.T", "scenario.nodes.0",
                                    "scenario.name.x", "scenario.T.x", ""])
def test_sweep_path_must_address_a_config_entry(tmp_path, capsys, dotted):
    path, _ = small_linear_config(tmp_path, sweep={"path": dotted, "values": [1]})
    out = tmp_path / "o"
    assert run_cli(["sweep", "--config", path, "--out", out]) == 1
    assert capsys.readouterr().err == (f"config error: sweep.path: {dotted!r} does not "
                                       "address a config entry\n")
    assert not out.exists()


def test_refused_sweep_point_solves_nothing(tmp_path, capsys, monkeypatch):
    # every point is built before the output directory is made and before
    # any point is solved, and the message names the refused point
    solves, run_methods = [], cli._run_methods
    monkeypatch.setattr(cli, "_run_methods", lambda *args: solves.append(1) or run_methods(*args))
    cfg = load_json(CONFIGS / "resolution_sweep.json")
    cfg["sweep"]["values"] = [[51], ["x"]]
    path, out = tmp_path / "sweep.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    assert run_cli(["sweep", "--config", path, "--out", out]) == 1
    assert capsys.readouterr().err == ('config error: sweep point 1 (scenario.nodes=["x"]): '
                                       "grid nodes: must be a finite number\n")
    assert solves == [] and not out.exists()


def test_sweep_threads_flag_is_a_usage_error(tmp_path, capsys):
    # sweeps run serially; the flag is refused, not ignored
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--config", CONFIGS / "resolution_sweep.json", "--out", out,
                 "--threads", 2])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "check"])
def test_verbose_is_a_usage_error_where_nothing_reads_it(tmp_path, capsys, command):
    # only run and compare print per-step detail; elsewhere the flag is refused
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--config", CONFIGS / "resolution_sweep.json", "--out",
                 tmp_path / "o", "--verbose"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --verbose" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_check_reports_hypotheses(capsys):
    assert run_cli(["check", "--config", CONFIGS / "geometry_pass.json"]) == 0
    out = capsys.readouterr().out
    assert "geometry: holds" in out and "2.2" in out
    assert "beta*(s)=0.408248 for C=1.0" in out

    assert run_cli(["check", "--config", CONFIGS / "geometry_fail.json"]) == 0
    out = capsys.readouterr().out
    assert "geometry: fails" in out and "2.2" in out


def test_check_rejects_what_run_rejects(tmp_path, capsys):
    # a non-integer eigenmode does not vanish on the boundary: found when the
    # data states are built, which check does as well as run
    path, _ = small_linear_config(
        tmp_path, **{"data.initial.position": {"profile": "eigenmode", "k": 1.5}})
    for command in ("check", "run"):
        assert run_cli([command, "--config", path, "--out", tmp_path / "o"]) == 1
        assert "does not vanish on the boundary" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("inner.cg_tol", 0), ("inner.eps_reg", -1.0)])
def test_check_rejects_the_inner_settings_run_rejects(tmp_path, capsys, key, value):
    path, _ = small_linear_config(tmp_path, **{key: value})
    for command in ("check", "run"):
        assert run_cli([command, "--config", path, "--out", tmp_path / "o"]) == 1
        assert key.split(".")[-1] in capsys.readouterr().err


def test_check_growth_report_for_loglimit(tmp_path, capsys):
    path, cfg = small_linear_config(tmp_path)
    cfg["nonlinearity"] = {"name": "loglimit", "params": {"a": 0.0, "b": 0.0, "c": 1.0}}
    path.write_text(json.dumps(cfg))
    assert run_cli(["check", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "growth" in out and "beta*" in out
    # c = 1 exceeds beta*(1/2) for C = 1: expect the warning branch
    assert "WARNING" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_check_of_saturated_nonlinearity_is_warning_free(capsys):
    # the lipschitz_sat growth check samples g' = kappa / cosh(r)^2 up to r = 1e6
    assert run_cli(["check", "--config", CONFIGS / "smoke_2d.json"]) == 0
    assert "growth |g'| <= 0.5 + 0 ln^(1/2)(1+|r|): holds" in capsys.readouterr().out


@pytest.mark.parametrize("key,value", [
    ("least_squares.init", "linear_frozen"),
    ("least_squares.scan_points", 9),
    ("least_squares.refine_rel_width", 1e-2),
    ("scenario.cfl_factor", 0.5),
    ("least_squares.m", 2.0),
    ("least_squares.tol", 1e-8),
    ("least_squares.e_floor", 1e-20),
    ("least_squares.C", 1.0),
    ("fixed_point.max_outer", 12),
    ("fixed_point.tol", 1e-8),
    ("fixed_point.step_tol", 1e-10),
    ("fixed_point.e_floor", 1e-20),
    ("scenario.smoothing", True),
    ("scenario.smoothing", False),
])
def test_removed_settings_are_unknown_keys(tmp_path, capsys, key, value):
    # the line search, the stop on E, the diagnostic C, the start, the CFL
    # margin and the indicator region are fixed; a config that still sets
    # one, even to its constant, is refused by check and run alike, not
    # silently run with the constant; least_squares.max_outer caps every
    # method, so the whole fixed_point section is gone
    cfg = load_json(CONFIGS / "lipschitz_default.json")
    section, leaf = key.split(".")
    cfg.setdefault(section, {})[leaf] = value
    path = tmp_path / "removed.json"
    path.write_text(json.dumps(cfg))
    expected = ("config: unknown keys ['fixed_point']" if section == "fixed_point"
                else f"{section}: unknown keys ['{leaf}']")
    for command in ("check", "run"):
        assert run_cli([command, "--config", path, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert expected in err
    assert not (tmp_path / "o").exists()


def test_duplicate_method_is_a_config_error(tmp_path, capsys):
    path, _ = small_linear_config(tmp_path, methods=["least_squares", "least_squares"])
    assert run_cli(["check", "--config", path]) == 1
    assert "duplicate method 'least_squares'" in capsys.readouterr().err


def test_run_rejects_x0_inside_the_domain_before_solving(tmp_path, capsys):
    cfg = load_json(CONFIGS / "geometry_pass.json")
    cfg["scenario"]["x0"] = 0.5
    path = tmp_path / "x0.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli(["run", "--config", path, "--out", out]) == 1
    assert "x0 must lie strictly outside the closed domain" in capsys.readouterr().err
    assert not (out / "iterates.csv").exists()


@pytest.mark.parametrize("command,config", [("run", "geometry_pass"), ("compare", "geometry_pass"),
                                            ("sweep", "resolution_sweep")])
def test_out_that_is_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, command, config):
    def solve(*args, **kwargs):
        raise AssertionError("a method was solved")

    monkeypatch.setattr(cli, "_run_methods", solve)
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert run_cli([command, "--config", CONFIGS / f"{config}.json", "--out", out]) == 1
    assert f"config error: output directory {out}: " in capsys.readouterr().err
    assert out.read_text() == "not a directory"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_config_hash_ignores_output_dir(tmp_path):
    _, cfg = small_linear_config(tmp_path)
    h1 = cli.config_hash(cfg)
    cfg2 = dict(cfg)
    cfg2["output_dir"] = "somewhere_else"
    assert cli.config_hash(cfg2) == h1
    cfg3 = json.loads(json.dumps(cfg))
    cfg3["seed"] = 99
    assert cli.config_hash(cfg3) != h1


def test_linear_sanity_run_reaches_floor(tmp_path):
    out = tmp_path / "sanity"
    assert run_cli(["run", "--config", CONFIGS / "linear_sanity.json",
                    "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    entry = summary["methods"]["least_squares"]
    assert entry["status"] == "converged"
    assert entry["E_final"] <= 1e-16
    assert summary["geometry"]["holds"] is True


def test_2d_smoke_config_runs(tmp_path):
    cfg = load_json(CONFIGS / "smoke_2d.json")
    # shrink for test speed
    cfg["scenario"]["nodes"] = [24, 24]
    cfg["scenario"]["nt"] = 130
    path = tmp_path / "smoke.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out2d"
    code = run_cli(["run", "--config", path, "--out", out])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["methods"]["least_squares"]["status"] == "converged"
    assert summary["geometry"]["holds"] is True
