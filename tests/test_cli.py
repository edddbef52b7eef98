"""Subcommand contracts: configs, outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from csv_table import read_table

import bjjsense.cli as cli
from bjjsense.cli import KEYS_BY_COMMAND, build_parser, main


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _outdir(tmp_path, name):
    path = tmp_path / name
    path.mkdir()
    return str(path)


def _data_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("#")]


def test_scan_temperature_sweep_columns(tmp_path):
    config = _write_config(tmp_path, "cfg.json", {
        "n_particles": 60,
        "sweep": "temperature",
        "temperatures": [0.1, 0.5],
        "lambda_value": "critical",
    })
    out = _outdir(tmp_path, "out")
    assert main(["scan", "--config", config, "--out", out]) == 0
    columns, comments = read_table(os.path.join(out, "scan.csv"))
    assert list(columns) == ["T", "chi_mom", "chi_cl", "chi_q"]
    assert np.all(np.isfinite(columns["chi_q"]))
    assert np.all(columns["chi_mom"] <= columns["chi_cl"] * (1 + 1e-6))
    assert any(c.startswith("config:") for c in comments)


def test_scan_lambda_rerun_byte_identical(tmp_path):
    config = _write_config(tmp_path, "cfg.json", {
        "n_particles": 60,
        "lambda_min": -1.3,
        "lambda_max": -0.9,
        "lambda_step": 0.01,
        "delta": 2e-3,
    })
    blobs = []
    for name in ("out1", "out2"):
        out = _outdir(tmp_path, name)
        assert main(["scan", "--config", config, "--out", out]) == 0
        with open(os.path.join(out, "scan.csv"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    columns, comments = read_table(
        os.path.join(str(tmp_path), "out1", "scan.csv")
    )
    assert list(columns) == ["lambda", "mean_jz", "var_jz",
                             "chi_mom", "chi_cl", "chi_q"]
    # a scan draws no random numbers, so it records no seed
    assert [c.split(" ", 1)[0] for c in comments] == ["bjjsense", "config:"]


def test_scan_refine_densifies_peak_region(tmp_path):
    coarse_cfg = _write_config(tmp_path, "coarse.json", {
        "n_particles": 60,
        "lambda_min": -1.4,
        "lambda_max": -0.9,
        "lambda_step": 0.01,
    })
    fine_cfg = _write_config(tmp_path, "fine.json", {
        "n_particles": 60,
        "lambda_min": -1.4,
        "lambda_max": -0.9,
        "lambda_step": 0.01,
        "refine": True,
    })
    out_c = _outdir(tmp_path, "coarse")
    out_f = _outdir(tmp_path, "fine")
    assert main(["scan", "--config", coarse_cfg, "--out", out_c]) == 0
    assert main(["scan", "--config", fine_cfg, "--out", out_f]) == 0
    coarse, _ = read_table(os.path.join(out_c, "scan.csv"))
    fine, _ = read_table(os.path.join(out_f, "scan.csv"))
    assert fine["lambda"].size > coarse["lambda"].size
    step = np.min(np.diff(fine["lambda"]))
    assert step < 0.002
    # every chi is pointwise, so the added fine points leave the coarse
    # rows untouched
    fine_rows = set(_data_rows(os.path.join(out_f, "scan.csv")))
    for row in _data_rows(os.path.join(out_c, "scan.csv")):
        assert row in fine_rows, row


def test_scan_refine_evaluates_each_lambda_once(tmp_path, monkeypatch):
    real_scan = cli.scan_lambda
    seen = []

    def recording_scan(config):
        seen.extend(config.lambda_grid.tolist())
        return real_scan(config)

    monkeypatch.setattr(cli, "scan_lambda", recording_scan)
    config = _write_config(tmp_path, "cfg.json", {
        "n_particles": 40,
        "lambda_min": -1.4,
        "lambda_max": -0.9,
        "lambda_step": 0.01,
        "refine": True,
    })
    out = _outdir(tmp_path, "out")
    assert main(["scan", "--config", config, "--out", out]) == 0
    table, _ = read_table(os.path.join(out, "scan.csv"))
    assert len(seen) == len(set(seen)) == table["lambda"].size
    assert np.array_equal(np.sort(seen), table["lambda"])


def test_provenance_does_not_depend_on_host_cpu_count(tmp_path, monkeypatch):
    config = _write_config(tmp_path, "cfg.json", {
        "n_particles": 20,
        "lambda_min": -1.3,
        "lambda_max": -1.2,
        "lambda_step": 0.05,
    })
    blobs = []
    for cpus in (1, 7):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = _outdir(tmp_path, f"cpus{cpus}")
        assert main(["scan", "--config", config, "--out", out]) == 0
        with open(os.path.join(out, "scan.csv"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_scan_missing_outdir_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, "cfg.json", {"n_particles": 40})
    missing = str(tmp_path / "nope")
    assert main(["scan", "--config", config, "--out", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output:")
    assert err.count("\n") == 1
    assert not os.path.exists(missing)


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, "cfg.json", {"bogus": 1})
    out = _outdir(tmp_path, "out")
    assert main(["scan", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "unknown keys: bogus" in err
    assert os.listdir(out) == []


# Retired keys, and the commands that took them: those that changed no
# number, the energy unit Omega (``tunneling``), and the bootstrap's
# background model, which follows the estimator.
RETIRED_KEYS = [
    ("scan", "epsilon0"), ("scaling", "epsilon0"),
    ("scan", "seed"), ("scaling", "seed"), ("critical-point", "seed"),
    *((command, "threads") for command in KEYS_BY_COMMAND),
    ("scan", "tunneling"), ("scaling", "tunneling"),
    ("critical-point", "tunneling"), ("bootstrap", "background"),
]


@pytest.mark.parametrize("command,key", RETIRED_KEYS)
def test_retired_config_key_exits_2(tmp_path, capsys, command, key):
    config = _write_config(tmp_path, "cfg.json", {key: 1})
    out = _outdir(tmp_path, "out")
    assert main([command, "--config", config, "--out", out]) == 2
    assert f"unknown keys: {key}" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("command,flag", [
    *((command, "--threads") for command in KEYS_BY_COMMAND),
    ("scan", "--seed"), ("scaling", "--seed"), ("critical-point", "--seed"),
])
def test_retired_flag_exits_2(tmp_path, command, flag):
    out = _outdir(tmp_path, "out")
    with pytest.raises(SystemExit) as info:
        main([command, "--out", out, flag, "2"])
    assert info.value.code == 2
    assert os.listdir(out) == []


# Every key that takes integers, with one command that takes it.
INTEGER_KEYS = [
    ("scan", "n_particles"), ("scaling", "n_values"),
    ("scaling", "delta_points"), ("scaling", "window_points"),
    ("critical-point", "levels"), ("pipeline", "n_samples"),
    ("pipeline", "n_replicas"), ("bootstrap", "seed"),
]


@pytest.mark.parametrize("value", [60.7, True, "60"])
@pytest.mark.parametrize("command,key", INTEGER_KEYS)
def test_non_integer_config_value_exits_2(tmp_path, capsys, command, key,
                                          value):
    default = KEYS_BY_COMMAND[command][key][0]
    payload = {key: [value, *default[1:]] if isinstance(default, list)
               else value}
    config = _write_config(tmp_path, "cfg.json", payload)
    out = _outdir(tmp_path, "out")
    assert main([command, "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {key} must be")
    assert os.listdir(out) == []


def test_sample_counts_per_point_match_one_count(tmp_path):
    rows = []
    for name, counts in (("one", 300), ("each", [300] * 8)):
        config = _pipeline_config(tmp_path, n_samples=counts)
        out = _outdir(tmp_path, name)
        assert main(["bootstrap", "--config", config, "--out", out,
                     "--quick"]) == 0
        rows.append(_data_rows(os.path.join(out, "bootstrap.csv")))
    assert rows[0] == rows[1]


def test_refine_without_methods_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, "cfg.json", {
        "n_particles": 20, "refine": True, "methods": [],
    })
    out = _outdir(tmp_path, "out")
    assert main(["scan", "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: config: refine")
    assert os.listdir(out) == []


@pytest.mark.parametrize("payload,key", [
    ({"lambda_step": 0}, "lambda_step"),
    ({"lambda_step": -0.01}, "lambda_step"),
    ({"lambda_step": float("nan")}, "lambda_step"),
    ({"lambda_step": "x"}, "lambda_step"),
    ({"lambda_min": -0.3}, "lambda_min"),
    ({"lambda_min": -0.4}, "lambda_min"),
    ({"lambda_max": float("inf")}, "lambda_max"),
    ({"lambda_min": float("nan")}, "lambda_min"),
    ({"lambda_step": 5}, "lambda_step"),
    ({"temperature": -0.1}, "temperature"),
    ({"temperature": float("inf")}, "temperature"),
    ({"temperature": float("nan")}, "temperature"),
    ({"temperature": "x"}, "temperature"),
    ({"delta": float("nan")}, "delta"),
    ({"n_particles": 0}, "n_particles"),
])
@pytest.mark.parametrize("quick", [False, True])
def test_scan_bad_lambda_grid_exits_2(tmp_path, capsys, payload, key, quick):
    config = _write_config(tmp_path, "cfg.json", {"n_particles": 20, **payload})
    out = _outdir(tmp_path, "out")
    argv = ["scan", "--config", config, "--out", out] + ["--quick"] * quick
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {key} must")
    assert os.listdir(out) == []


def test_scan_quick_step_leaving_one_point_exits_2(tmp_path, capsys):
    # 3 points at the configured step, 1 once --quick coarsens it to 1e-2
    config = _write_config(tmp_path, "cfg.json", {
        "n_particles": 20, "lambda_min": -1.0, "lambda_max": -0.996,
    })
    out = _outdir(tmp_path, "out")
    assert main(["scan", "--config", config, "--out", out]) == 0
    quick_out = _outdir(tmp_path, "quick")
    argv = ["scan", "--config", config, "--out", quick_out, "--quick"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: lambda_step must leave >= 2")
    assert os.listdir(quick_out) == []


@pytest.mark.parametrize("payload,key", [
    ({"levels": [0, 2, 5]}, "levels"),
    ({"levels": [2]}, "levels"),
    ({"levels": []}, "levels"),
    ({"levels": [2, 2]}, "levels"),
    ({"levels": [-1, 2]}, "levels"),
    ({"bracket": [-0.85, -1.5]}, "bracket"),
    ({"bracket": [-1.5]}, "bracket"),
    ({"bracket": [-1.5, -0.85, 0.0]}, "bracket"),
    ({"bracket": [-1.5, float("nan")]}, "bracket"),
    ({"bracket": [-1.5, "x"]}, "bracket"),
    ({"bracket": -1.5}, "bracket"),
    ({"levels": [0, 30]}, "levels"),
    ({"n_values": [0, 20]}, "n_values"),
    ({"n_values": [20, -3]}, "n_values"),
])
def test_critical_point_bad_levels_or_bracket_exits_2(tmp_path, capsys,
                                                      payload, key):
    config = _write_config(tmp_path, "cfg.json", {"n_values": [20], **payload})
    out = _outdir(tmp_path, "out")
    assert main(["critical-point", "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {key} must")
    assert os.listdir(out) == []


def test_scan_temperature_sweep_needs_temperatures(tmp_path, capsys):
    config = _write_config(tmp_path, "cfg.json", {"sweep": "temperature"})
    out = _outdir(tmp_path, "out")
    assert main(["scan", "--config", config, "--out", out]) == 2
    assert "temperatures" in capsys.readouterr().err
    for payload, key in (
        ({"temperatures": []}, "temperatures"),
        ({"temperatures": 0.5}, "temperatures"),
        ({"temperatures": [-0.1]}, "temperatures"),
        ({"temperatures": [0.1, float("nan")]}, "temperatures"),
        ({"temperatures": [0.1, "x"]}, "temperatures"),
        ({"temperatures": [0.1], "lambda_value": "x"}, "lambda_value"),
    ):
        config = _write_config(tmp_path, "cfg.json", {
            "n_particles": 20, "sweep": "temperature", **payload,
        })
        assert main(["scan", "--config", config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {key} must"), payload
        assert os.listdir(out) == []


def test_scaling_quick_emits_table_and_fits(tmp_path):
    config = _write_config(tmp_path, "cfg.json", {
        "n_values": [40, 60, 80],
        "delta_points": 8,
        "window_points": 15,
    })
    out = _outdir(tmp_path, "out")
    assert main(["scaling", "--config", config, "--out", out, "--quick"]) == 0
    table, _ = read_table(os.path.join(out, "scaling.csv"))
    assert list(table["N"].astype(int)) == [40, 60, 80]
    assert np.all(table["shift"] > 0)
    fits, _ = read_table(os.path.join(out, "scaling_fits.csv"))
    assert list(fits["quantity"]) == [
        "chi_mom_over_N", "chi_cl_over_N", "chi_q_over_N", "critical_shift",
    ]
    assert np.all(fits["r_squared"] <= 1.0)
    assert np.all(fits["r_squared"] >= 0.0)


def test_scaling_single_size_emits_table_then_fails(tmp_path, capsys):
    config = _write_config(tmp_path, "cfg.json", {"n_values": [100]})
    out = _outdir(tmp_path, "out")
    assert main(["scaling", "--config", config, "--out", out]) == 1
    assert ">= 3 sizes" in capsys.readouterr().err
    table, _ = read_table(os.path.join(out, "scaling.csv"))
    assert list(table["N"].astype(int)) == [100]


def test_critical_point_command(tmp_path):
    config = _write_config(tmp_path, "cfg.json", {"n_values": [100, 200]})
    out = _outdir(tmp_path, "out")
    assert main(["critical-point", "--config", config, "--out", out]) == 0
    table, _ = read_table(os.path.join(out, "critical_point.csv"))
    assert list(table) == ["N", "lambda_c_n", "gap", "shift"]
    assert np.all(table["gap"] > 0)
    assert table["shift"][0] > table["shift"][1] > 0


def _pipeline_config(tmp_path, seed=3, **extra):
    a = [round(-2.7 + 0.18 * i, 4) for i in range(8)]
    zbar = [0.25 + 0.40 / (1.0 + np.exp((x + 1.746) / 0.15)) for x in a]
    payload = {
        "scattering_lengths": a,
        "zbar": zbar,
        "sigma": 0.1,
        "n_samples": 300,
        "n_replicas": 120,
        "seed": seed,
    }
    payload.update(extra)
    return _write_config(tmp_path, f"pipe_{seed}_{len(extra)}.json", payload)


def test_pipeline_outputs_and_provenance(tmp_path):
    config = _pipeline_config(tmp_path, write_replicas=True)
    out = _outdir(tmp_path, "out")
    assert main(["pipeline", "--config", config, "--out", out, "--quick"]) == 0
    results, comments = read_table(os.path.join(out, "pipeline_results.csv"))
    assert list(results) == ["a_s", "zbar", "sigma_z", "chi_mom",
                             "chi_mom_err", "chi_cl", "chi_cl_err"]
    assert np.isnan(results["chi_cl"][0]) and np.isnan(results["chi_cl"][-1])
    assert np.all(np.isfinite(results["chi_mom"]))
    config_lines = [c for c in comments if c.startswith("config:")]
    assert len(config_lines) == 1
    resolved = json.loads(config_lines[0].split("config:", 1)[1])
    assert resolved["seed"] == 3
    assert resolved["n_samples"] == 300
    assert any(c.startswith("seed: 3") for c in comments)
    for name in ("replicas_chi_mom.csv", "replicas_chi_cl.csv"):
        replicas, _ = read_table(os.path.join(out, name))
        assert list(replicas) == ["a_s", "chi"]


def test_pipeline_rerun_byte_identical(tmp_path):
    config = _pipeline_config(tmp_path)
    blobs = []
    for name in ("r1", "r2"):
        out = _outdir(tmp_path, name)
        assert main(["pipeline", "--config", config, "--out", out,
                     "--quick"]) == 0
        with open(os.path.join(out, "pipeline_results.csv"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_seed_flag_overrides_config(tmp_path):
    config = _pipeline_config(tmp_path, seed=1)
    outs = {}
    for name, seed in (("a", "1"), ("b", "2"), ("c", "1")):
        out = _outdir(tmp_path, name)
        assert main(["pipeline", "--config", config, "--out", out,
                     "--seed", seed, "--quick"]) == 0
        with open(os.path.join(out, "pipeline_results.csv"), "rb") as fh:
            outs[name] = fh.read()
    assert outs["a"] == outs["c"]
    assert outs["a"] != outs["b"]


def test_bootstrap_command(tmp_path):
    config = _pipeline_config(tmp_path, estimator="chi_cl")
    out = _outdir(tmp_path, "out")
    assert main(["bootstrap", "--config", config, "--out", out,
                 "--quick"]) == 0
    table, _ = read_table(os.path.join(out, "bootstrap.csv"))
    assert list(table) == ["a_s", "center", "width"]
    interior = slice(1, -1)
    assert np.all(table["width"][interior] > 0)


def test_bootstrap_rejects_bad_estimator(tmp_path, capsys):
    config = _pipeline_config(tmp_path, estimator="chi_bad")
    out = _outdir(tmp_path, "out")
    assert main(["bootstrap", "--config", config, "--out", out]) == 2
    assert "estimator" in capsys.readouterr().err


@pytest.mark.parametrize("command,payload,key", [
    ("pipeline", {"n_replicas": 99}, "n_replicas"),
    ("bootstrap", {"n_replicas": 50}, "n_replicas"),
    ("pipeline", {"bin_width": -0.05}, "bin_width"),
    ("pipeline", {"bin_width": 0}, "bin_width"),
    ("bootstrap", {"bin_width": 2.5}, "bin_width"),
    ("bootstrap", {"bin_width": "x"}, "bin_width"),
])
@pytest.mark.parametrize("quick", [False, True])
def test_bootstrap_config_out_of_range_exits_2(tmp_path, capsys, command,
                                               payload, key, quick):
    config = _pipeline_config(tmp_path, **payload)
    out = _outdir(tmp_path, "out")
    argv = [command, "--config", config, "--out", out] + ["--quick"] * quick
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {key} must")
    assert os.listdir(out) == []


@pytest.mark.parametrize("temperature", [-1, float("nan"), "x"])
def test_scaling_bad_temperature_exits_2(tmp_path, capsys, temperature):
    config = _write_config(tmp_path, "cfg.json", {
        "n_values": [40, 60, 80], "temperature": temperature,
    })
    out = _outdir(tmp_path, "out")
    assert main(["scaling", "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: config: temperature must")
    assert os.listdir(out) == []


@pytest.mark.parametrize("n_values", [[0, 100, 200], [100, -1, 200]])
@pytest.mark.parametrize("quick", [False, True])
def test_scaling_sizes_below_one_exit_2(tmp_path, capsys, n_values, quick):
    config = _write_config(tmp_path, "cfg.json", {"n_values": n_values})
    out = _outdir(tmp_path, "out")
    argv = ["scaling", "--config", config, "--out", out] + ["--quick"] * quick
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: config: n_values must")
    assert os.listdir(out) == []


def test_series_requires_input_or_parameters(tmp_path, capsys):
    config = _write_config(tmp_path, "cfg.json", {"n_replicas": 120})
    out = _outdir(tmp_path, "out")
    assert main(["pipeline", "--config", config, "--out", out]) == 2
    assert "scattering_lengths" in capsys.readouterr().err


def test_help_lists_every_config_key(capsys):
    parser = build_parser()
    for command, keys in KEYS_BY_COMMAND.items():
        with pytest.raises(SystemExit) as info:
            parser.parse_args([command, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for key in keys:
            assert key in text


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("statement", [
    "import bjjsense.cli",
    "from bjjsense.cli import main\n"
    "try:\n    main(['pipeline', '--help'])\nexcept SystemExit:\n    pass",
])
def test_cli_does_not_import_scipy_optimize_or_special(statement):
    # scipy.optimize alone costs about a quarter of a CPU second per process
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (statement + "\nimport sys\nprint(sorted(m for m in sys.modules if "
             "m.startswith(('scipy.optimize', 'scipy.special'))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "[]"
