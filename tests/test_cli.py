import json

import pytest

import wavecontrol.cli as cli
from wavecontrol.errors import ConfigError
from wavecontrol.least_squares import LSConfig

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
])
def test_malformed_field_is_a_config_error(tmp_path, capsys, key, value):
    path, _ = small_linear_config(tmp_path, **{key: value})
    assert run_cli(["run", "--config", path, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key.split(".")[-1] in err


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_committed_config_loads_and_builds(path):
    cli.build_problem(cli.load_config(path))


def test_run_writes_outputs_and_exit_zero(tmp_path):
    path, cfg = small_linear_config(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["run", "--config", path, "--out", out]) == 0
    rows = (out / "iterates.csv").read_text().splitlines()
    assert rows[0] == ",".join(cli.ITERATES_COLUMNS)
    assert len(rows) > 2
    chash = cli.config_hash(cfg)
    assert all(chash in row for row in rows[1:])

    summary = json.loads((out / "summary.json").read_text())
    cli.validate_summary(summary)
    assert summary["config_hash"] == chash
    assert summary["geometry"]["holds"] is True
    for m in cfg["methods"]:
        assert summary["methods"][m]["status"] == "converged"


def test_run_exit_two_on_cap(tmp_path):
    path, cfg = small_linear_config(tmp_path, **{"least_squares.max_outer": 0})
    cfg["nonlinearity"] = {"name": "lipschitz_sat", "params": {"kappa": 1.0}}
    cfg["methods"] = ["least_squares"]
    path.write_text(json.dumps(cfg))
    assert run_cli(["run", "--config", path, "--out", tmp_path / "o"]) == 2


def test_run_determinism_byte_identical(tmp_path):
    path, _ = small_linear_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "--config", path, "--out", out1]) == 0
    assert run_cli(["run", "--config", path, "--out", out2]) == 0
    assert (out1 / "iterates.csv").read_bytes() == (out2 / "iterates.csv").read_bytes()


def test_out_dir_env_override(tmp_path, monkeypatch):
    path, _ = small_linear_config(tmp_path)
    target = tmp_path / "env_out"
    monkeypatch.setenv("WAVECONTROL_OUT", str(target))
    assert run_cli(["run", "--config", path]) == 0
    assert (target / "summary.json").exists()


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


def test_sweep_threads_match_serial(tmp_path):
    cfg = load_json(CONFIGS / "loglimit_csweep.json")
    cfg["scenario"]["nodes"] = [60]
    cfg["scenario"]["nt"] = 180
    cfg["sweep"]["values"] = [0.5, 1.0]
    path = tmp_path / "cs.json"
    path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert run_cli(["sweep", "--config", path, "--out", out1]) == 0
    assert run_cli(["sweep", "--config", path, "--out", out2, "--threads", 2]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_sweep_bad_thread_count_is_a_config_error(tmp_path, monkeypatch, capsys,
                                                  source, value):
    out = tmp_path / "out"
    argv = ["sweep", "--config", CONFIGS / "resolution_sweep.json", "--out", out]
    if source == "flag":
        argv += ["--threads", value]
    else:
        monkeypatch.setenv("WAVECONTROL_THREADS", value)
    assert run_cli(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()   # rejected before any solve


def test_check_reports_hypotheses(capsys):
    assert run_cli(["check", "--config", CONFIGS / "geometry_pass.json"]) == 0
    out = capsys.readouterr().out
    assert "geometry: holds" in out and "2.2" in out

    assert run_cli(["check", "--config", CONFIGS / "geometry_fail.json"]) == 0
    out = capsys.readouterr().out
    assert "geometry: fails" in out and "2.2" in out


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


@pytest.mark.parametrize("width", [0, -1])
def test_nonpositive_refine_width_is_a_config_error(width):
    # a golden-section refinement to a width <= 0 never ends; built, not solved
    cfg = load_json(CONFIGS / "lipschitz_default.json")
    cfg.setdefault("least_squares", {})["refine_rel_width"] = width
    with pytest.raises(ConfigError, match="refine_rel_width"):
        cli.build_problem(cfg)
    with pytest.raises(ConfigError, match="refine_rel_width"):
        LSConfig(refine_rel_width=width)


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
