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


@pytest.fixture
def no_work(monkeypatch):
    """Make every solver, fitter and series reader that the CLI calls raise."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the config check")

    for name in ("locate_critical_gap", "scaling_study", "scan_lambda",
                 "temperature_sweep", "series_estimates", "bootstrap",
                 "_bootstraps", "read_series_csv", "synth_samples"):
        monkeypatch.setattr(cli, name, fail)


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


@pytest.mark.parametrize("text,message", [
    (None, "cannot read"),
    ("{\"n_particles\": 20", "is not valid JSON"),
    ("[{\"n_particles\": 20}]", "must hold a JSON object"),
])
def test_unreadable_or_malformed_config_exits_2(tmp_path, capsys, no_work, text,
                                                message):
    path = tmp_path / "cfg.json"
    if text is None:
        path.mkdir()  # a directory: open() raises
    else:
        path.write_text(text, encoding="utf-8")
    out = _outdir(tmp_path, "out")
    assert main(["scan", "--config", str(path), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and message in err
    assert os.listdir(out) == []


def test_unknown_config_key_exits_2(tmp_path, capsys):
    config = _write_config(tmp_path, "cfg.json", {"bogus": 1})
    out = _outdir(tmp_path, "out")
    assert main(["scan", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "unknown keys: bogus" in err
    assert os.listdir(out) == []


# Retired keys, and the commands that took them: those that changed no
# number, the energy unit Omega (``tunneling``), and a background model for
# the bootstrap's replica values, which it no longer fits.
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
        assert main(["bootstrap", "--config", config, "--out", out]) == 0
        rows.append(_data_rows(os.path.join(out, "bootstrap.csv")))
    assert rows[0] == rows[1]


def test_scan_without_methods_writes_moments_only(tmp_path, monkeypatch):
    import bjjsense.criticality as criticality

    def no_derivative(*args):
        raise AssertionError("derivative taken with no method asked for")

    monkeypatch.setattr(criticality, "_outside", no_derivative)
    config = _write_config(tmp_path, "cfg.json", {
        "n_particles": 20, "lambda_min": -1.2, "lambda_max": -1.0,
        "lambda_step": 0.05, "methods": [],
    })
    out = _outdir(tmp_path, "out")
    assert main(["scan", "--config", config, "--out", out]) == 0
    columns, _ = read_table(os.path.join(out, "scan.csv"))
    assert list(columns) == ["lambda", "mean_jz", "var_jz"]
    assert columns["lambda"].size == 5
    assert np.all(columns["var_jz"] > 0)


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
def test_scan_bad_lambda_grid_exits_2(tmp_path, capsys, payload, key):
    config = _write_config(tmp_path, "cfg.json", {"n_particles": 20, **payload})
    out = _outdir(tmp_path, "out")
    assert main(["scan", "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {key} must")
    assert os.listdir(out) == []


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
    assert main(["scaling", "--config", config, "--out", out]) == 0
    table, _ = read_table(os.path.join(out, "scaling.csv"))
    assert list(table["N"].astype(int)) == [40, 60, 80]
    assert np.all(table["shift"] > 0)
    fits, _ = read_table(os.path.join(out, "scaling_fits.csv"))
    assert list(fits["quantity"]) == [
        "chi_mom_over_N", "chi_cl_over_N", "chi_q_over_N", "critical_shift",
    ]
    assert np.all(fits["r_squared"] <= 1.0)
    assert np.all(fits["r_squared"] >= 0.0)


def test_scaling_fewer_than_three_sizes_exits_2(tmp_path, capsys, no_work):
    # the power-law fits need three sizes; critical-point locates fewer
    config = _write_config(tmp_path, "cfg.json", {"n_values": [100]})
    out = _outdir(tmp_path, "out")
    assert main(["scaling", "--config", config, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: n_values must hold >= 3 sizes")
    assert "critical-point" in err
    assert os.listdir(out) == []


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
        "n_replicas": 100,
        "seed": seed,
    }
    payload.update(extra)
    return _write_config(tmp_path, f"pipe_{seed}_{len(extra)}.json", payload)


def test_pipeline_outputs_and_provenance(tmp_path):
    config = _pipeline_config(tmp_path, write_replicas=True)
    out = _outdir(tmp_path, "out")
    assert main(["pipeline", "--config", config, "--out", out]) == 0
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
        assert main(["pipeline", "--config", config, "--out", out]) == 0
        with open(os.path.join(out, "pipeline_results.csv"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_seed_flag_overrides_config(tmp_path):
    config = _pipeline_config(tmp_path, seed=1)
    outs = {}
    for name, seed in (("a", "1"), ("b", "2"), ("c", "1")):
        out = _outdir(tmp_path, name)
        assert main(["pipeline", "--config", config, "--out", out,
                     "--seed", seed]) == 0
        with open(os.path.join(out, "pipeline_results.csv"), "rb") as fh:
            outs[name] = fh.read()
    assert outs["a"] == outs["c"]
    assert outs["a"] != outs["b"]


def test_bootstrap_command(tmp_path):
    config = _pipeline_config(tmp_path, estimator="chi_cl", write_replicas=True)
    out = _outdir(tmp_path, "out")
    assert main(["bootstrap", "--config", config, "--out", out]) == 0
    table, _ = read_table(os.path.join(out, "bootstrap.csv"))
    assert list(table) == ["a_s", "center", "width"]
    interior = slice(1, -1)
    assert np.all(table["width"][interior] > 0)
    replicas, _ = read_table(os.path.join(out, "replicas_chi_cl.csv"))
    assert list(replicas) == ["a_s", "chi"]
    assert set(replicas["a_s"]) <= set(table["a_s"])


def _outputs(out):
    blobs = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


# A synthetic series without sigma: its outputs record the width it ran with.
_NO_SIGMA = {
    "scattering_lengths": [-2.4, -2.1, -1.8, -1.5, -1.2],
    "zbar": [0.2, 0.26, 0.42, 0.6, 0.7],
    "n_samples": 300,
    "n_replicas": 100,
    "write_replicas": True,
}


@pytest.mark.parametrize("command,payload,extra", [
    ("scan", {"n_particles": 40, "lambda_min": -1.3, "lambda_max": -0.9,
              "lambda_step": 0.02, "refine": True}, []),
    ("scan", {"n_particles": 20, "sweep": "temperature",
              "temperatures": [0.1, 0.5], "lambda_value": "critical"}, []),
    ("scaling", {"n_values": [20, 30, 40], "delta_points": 4,
                 "window_points": 7}, []),
    ("critical-point", {"n_values": [20, 40]}, []),
    ("pipeline", _NO_SIGMA, ["--seed", "5"]),
    ("bootstrap", {**_NO_SIGMA, "estimator": "chi_mom"}, []),
], ids=["scan-refine", "scan-temperature", "scaling", "critical-point",
        "pipeline-seed", "bootstrap"])
def test_recorded_config_reruns_byte_identical(tmp_path, command, payload, extra):
    config = _write_config(tmp_path, "cfg.json", payload)
    first = _outdir(tmp_path, "first")
    assert main([command, "--config", config, "--out", first, *extra]) == 0
    blobs = _outputs(first)
    recorded = {line for blob in blobs.values()
                for line in blob.decode("utf-8").splitlines()
                if line.startswith("# config: ")}
    assert len(recorded) == 1
    resolved = json.loads(recorded.pop().split("config: ", 1)[1])
    if "sigma" in resolved:
        assert resolved["sigma"] == 0.1
    if extra:
        assert resolved["seed"] == 5
    rerun = _outdir(tmp_path, "rerun")
    recorded_config = _write_config(tmp_path, "recorded.json", resolved)
    assert main([command, "--config", recorded_config, "--out", rerun]) == 0
    assert _outputs(rerun) == blobs


@pytest.mark.parametrize("command,payload,unread", [
    ("scan", {"n_particles": 20, "sweep": "temperature", "temperatures": [0.1],
              "lambda_value": "critical"},
     {"lambda_min", "lambda_max", "lambda_step", "refine", "temperature"}),
    ("scan", {"n_particles": 20, "lambda_min": 0.5, "lambda_max": 1.5,
              "lambda_step": 0.5},
     {"temperatures", "lambda_value"}),
    ("pipeline", {"n_replicas": 100},
     {"sigma", "amplitude_plus", "amplitude_minus", "n_samples"}),
    ("bootstrap", {"n_replicas": 100, "estimator": "chi_mom"},
     {"sigma", "amplitude_plus", "amplitude_minus", "n_samples"}),
], ids=["scan-temperature", "scan-lambda", "pipeline-input-csv",
        "bootstrap-input-csv"])
def test_a_run_records_only_the_keys_it_reads(tmp_path, command, payload, unread):
    # a temperature sweep reads no lambda-sweep key, a lambda sweep no
    # temperature-sweep key, and a series read from a file none of the
    # synthetic series' keys
    if command != "scan":
        rng = np.random.default_rng(8)
        rows = [f"{a},{float(z)!r}" for a, zbar in ((-2.0, 0.3), (-1.8, 0.4), (-1.6, 0.5))
                for z in np.clip(zbar * rng.choice([-1.0, 1.0], 400)
                                 + 0.1 * rng.standard_normal(400), -1.0, 1.0)]
        path = tmp_path / "shots.csv"
        path.write_text("scattering_length_a0,z\n" + "\n".join(rows) + "\n")
        payload = {**payload, "input_csv": str(path)}
    config = _write_config(tmp_path, "cfg.json", payload)
    out = _outdir(tmp_path, "out")
    assert main([command, "--config", config, "--out", out]) == 0
    recorded = {line for blob in _outputs(out).values()
                for line in blob.decode("utf-8").splitlines()
                if line.startswith("# config: ")}
    assert len(recorded) == 1
    resolved = json.loads(recorded.pop().split("config: ", 1)[1])
    assert set(resolved) == set(KEYS_BY_COMMAND[command]) - unread


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
def test_bootstrap_config_out_of_range_exits_2(tmp_path, capsys, command,
                                               payload, key):
    config = _pipeline_config(tmp_path, **payload)
    out = _outdir(tmp_path, "out")
    assert main([command, "--config", config, "--out", out]) == 2
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
def test_scaling_sizes_below_one_exit_2(tmp_path, capsys, n_values):
    config = _write_config(tmp_path, "cfg.json", {"n_values": n_values})
    out = _outdir(tmp_path, "out")
    assert main(["scaling", "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: config: n_values must")
    assert os.listdir(out) == []


@pytest.mark.parametrize("key, value, least", [
    ("window_points", 1, 3), ("window_points", 2, 3), ("delta_points", 1, 2),
    ("window_points", 4, None),  # no window point at lambda_c
])
def test_scaling_grid_sizes_too_small_exit_2(tmp_path, capsys, monkeypatch, key,
                                             value, least):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the config check")

    monkeypatch.setattr(cli, "locate_critical_gap", no_solve)
    monkeypatch.setattr(cli, "scaling_study", no_solve)
    config = _write_config(tmp_path, "cfg.json", {
        "n_values": [20, 30, 40], "window_points": 5, "delta_points": 3, key: value,
    })
    out = _outdir(tmp_path, "out")
    assert main(["scaling", "--config", config, "--out", out]) == 2
    rule = "odd" if least is None else f">= {least}"
    assert capsys.readouterr().err.startswith(f"error: config: {key} must be {rule}")
    assert os.listdir(out) == []


@pytest.mark.parametrize("value", [{"not": "a value"}, [{}]])
@pytest.mark.parametrize("command,key", [
    (command, key) for command, keys in KEYS_BY_COMMAND.items() for key in keys
])
def test_every_config_key_is_checked_before_any_work(tmp_path, capsys, no_work,
                                                      command, key, value):
    config = _write_config(tmp_path, "cfg.json", {key: value})
    out = _outdir(tmp_path, "out")
    assert main([command, "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {key} must")
    assert os.listdir(out) == []


def _series_csv(tmp_path):
    path = tmp_path / "series.csv"
    rows = [f"{a},{z}" for a in (-2.0, -1.5, -1.0) for z in (0.3, -0.3, 0.2, -0.25)]
    path.write_text("scattering_length_a0,z\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("command,payload,key,extra", [
    ("pipeline", {"input_csv": "fileno"}, "input_csv", []),
    ("pipeline", {"input_csv": "csv", "write_replicas": "no"}, "write_replicas", []),
    ("scan", {"n_particles": 20, "refine": "no"}, "refine", []),
    ("scan", {"n_particles": 20, "methods": "quantum"}, "methods", []),
    ("pipeline", {"scattering_lengths": [-2.0, -1.0], "zbar": [0.3, 0.5],
                  "sigma": "x"}, "sigma", []),
    ("bootstrap", {"input_csv": "csv", "seed": -1}, "seed", []),
    ("pipeline", {"input_csv": "csv"}, "seed", ["--seed", "-1"]),
    ("scaling", {"n_values": [40, 40, 40]}, "n_values", []),
    ("scaling", {"n_values": [1, 2, 3]}, "n_values", []),
    ("scan", {"n_particles": 1, "sweep": "temperature", "temperatures": [0.5],
              "lambda_value": "critical"}, "n_particles", []),
    ("pipeline", {"input_csv": "csv", "scattering_lengths": [-9, -8, -7, -6],
                  "zbar": [0.3, 0.4, 0.5, 0.6], "sigma": 0.2}, "input_csv", []),
    ("bootstrap", {"input_csv": "csv", "zbar": [0.3, 0.4, 0.5]}, "input_csv", []),
])
def test_bad_input_exits_2_before_any_work(tmp_path, capsys, no_work, command,
                                           payload, key, extra):
    series = _series_csv(tmp_path)
    with open(series, encoding="utf-8") as fh:
        sources = {"csv": series, "fileno": fh.fileno()}
        if "input_csv" in payload:
            payload = {**payload, "input_csv": sources[payload["input_csv"]]}
        config = _write_config(tmp_path, "cfg.json", payload)
        out = _outdir(tmp_path, "out")
        assert main([command, "--config", config, "--out", out, *extra]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {key} must")
    assert os.listdir(out) == []


def test_scaling_size_floor_is_the_gap_of_scaling_study():
    # cmd_scaling checks n_values, and a scan at lambda_value 'critical' its
    # n_particles, against critical-point's default levels, which must be
    # the levels that locate_critical_gap uses by default
    from bjjsense.criticality import locate_critical_gap

    levels = locate_critical_gap.__kwdefaults__["levels"]
    assert tuple(cli.CRITICAL_KEYS["levels"][0]) == levels
    assert cli._GAP_LEVELS is cli.CRITICAL_KEYS["levels"][0]


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
        if "sigma" in keys:
            assert "synthetic width(s), scalar or list (default: 0.1)" in text


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip()


def _help(command):
    return ("from bjjsense.cli import main\n"
            f"try:\n    main(['{command}', '--help'])\nexcept SystemExit:\n    pass")


# Reads a two-point series CSV, as the pipeline's first step does.
_READ_SERIES = (
    "import os, tempfile\nfrom bjjsense.io import read_series_csv\n"
    "with tempfile.TemporaryDirectory() as d:\n"
    "    path = os.path.join(d, 'series.csv')\n"
    "    with open(path, 'w') as fh:\n"
    "        fh.write('scattering_length_a0,z\\n-1,0.2\\n-2,0.1\\n-1,-0.3\\n')\n"
    "    assert read_series_csv(path).n_points == 2"
)


# A small scaling study and a pipeline on a synthetic series, one process.
_RUN_SCALING_AND_PIPELINE = (
    "import json, os, tempfile\nfrom bjjsense.cli import main\n"
    "with tempfile.TemporaryDirectory() as d:\n"
    "    for command, config in (\n"
    "        ('scaling', {'n_values': [40, 60, 80], 'delta_points': 8,\n"
    "                     'window_points': 15}),\n"
    "        ('pipeline', {'scattering_lengths': [-2.0, -1.8, -1.6, -1.4],\n"
    "                      'zbar': [0.6, 0.5, 0.4, 0.3], 'sigma': 0.1,\n"
    "                      'n_samples': 300, 'n_replicas': 100, 'seed': 3})):\n"
    "        path = os.path.join(d, command + '.json')\n"
    "        with open(path, 'w') as fh:\n"
    "            json.dump(config, fh)\n"
    "        out = os.path.join(d, command)\n"
    "        os.mkdir(out)\n"
    "        assert main([command, '--config', path, '--out', out]) == 0"
)


@pytest.mark.parametrize("statement", [
    "import bjjsense.cli", _help("pipeline"), _help("scaling"), _READ_SERIES,
    _RUN_SCALING_AND_PIPELINE,
], ids=["import", "pipeline-help", "scaling-help", "read-series", "runs"])
def test_cli_does_not_import_scipy_optimize_special_or_linalg(statement):
    # No scipy module at all: scipy.optimize alone costs about a quarter of a
    # CPU second per process, scipy.linalg's package init about 0.2 s more,
    # and even its bare LAPACK extension a second OpenBLAS, about 15 ms of
    # start-up and 4 MB; LAPACK comes from the OpenBLAS numpy links, and
    # whole runs load no scipy module either.  Nor numpy.f2py and
    # numpy.testing, or numpy.ma, which np.unique imports on first use
    # (about 9 ms).
    probe = (statement + "\nimport sys\nprint(sorted(m for m in sys.modules if "
             "m.split('.')[0] == 'scipy' or m in "
             "('numpy.f2py', 'numpy.testing', 'numpy.ma')))")
    assert _last_line_of_fresh_python(probe) == "[]"


def _last_line_of_fresh_python(probe):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1]


_RUN_AS_MAIN = (
    "import runpy, sys\nsys.argv = ['bjjsense', '--version']\n"
    "try:\n    runpy.run_module('bjjsense.cli', run_name='__main__')\n"
    "except SystemExit:\n    pass"
)


@pytest.mark.parametrize("statement", ["import bjjsense.cli", _RUN_AS_MAIN],
                         ids=["import", "run-as-main"])
def test_cli_freezes_its_import_time_heap(statement):
    # The interpreter's and numpy's objects live until exit; left to
    # the cyclic collector, its full collections over them at teardown cost a
    # CLI process about 30 CPU ms.  Run as __main__, the freeze must happen
    # above the guard.
    probe = (statement + "\nimport gc\n"
             "print(gc.get_freeze_count(), len(gc.get_objects()))")
    frozen, tracked = map(int, _last_line_of_fresh_python(probe).split())
    assert frozen > 0
    assert tracked < 1000


def test_library_import_freezes_nothing():
    probe = "import bjjsense, gc\nprint(gc.get_freeze_count())"
    assert _last_line_of_fresh_python(probe) == "0"
