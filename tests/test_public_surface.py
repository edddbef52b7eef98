"""The package's advertised names exist, and no others are advertised."""

import argparse
import dataclasses

import pytest

import bjjsense
from bjjsense.cli import KEYS_BY_COMMAND, build_parser, main

PUBLIC = [
    "ModelParams",
    "EigensolverError",
    "StateStack",
    "equilibrium_states",
    "eigenvalues",
    "bhattacharyya_fidelity",
    "ScanConfig",
    "SusceptibilityCurve",
    "PeakEstimate",
    "CriticalPointResult",
    "DeltaOptimization",
    "PowerLawFit",
    "ScalingStudyResult",
    "scan_lambda",
    "chi_at_point",
    "default_lambda_grid",
    "default_delta_grid",
    "locate_critical_gap",
    "optimize_delta",
    "fit_power_law",
    "scaling_study",
    "__version__",
]


def test_public_names_are_pinned():
    assert bjjsense.__all__ == PUBLIC


def test_every_exported_name_resolves():
    missing = [name for name in bjjsense.__all__
               if not hasattr(bjjsense, name)]
    assert missing == []
    assert len(set(bjjsense.__all__)) == len(bjjsense.__all__)


def test_star_import_succeeds():
    namespace = {}
    exec("from bjjsense import *", namespace)
    assert set(bjjsense.__all__) <= set(namespace)


ESTIMATION = [
    "MeasurementSeries",
    "HistogramSpec",
    "DoubleGaussianFit",
    "BootstrapResult",
    "synth_samples",
    "series_estimates",
    "bootstrap",
]

# The one-histogram layer beside the stacked estimator chain, the private
# chain that the series estimates and the bootstrap shared, and the fit of
# a Gaussian to the bootstrap replica values that the bars replaced.
RETIRED_ESTIMATION = [
    "Histogram",
    "build_histogram",
    "fit_double_gaussian",
    "fit_series",
    "chi_mom_experimental",
    "chi_cl_experimental",
    "fit_gaussian_with_background",
    "_series_estimates",
    "_estimates",
    "_valid_series",
    "GaussianBackgroundFit",
    "_fit_gaussians",
]


def test_estimation_surface_is_pinned():
    import bjjsense.estimation as est

    assert [name for name in ESTIMATION if not hasattr(est, name)] == []
    assert [name for name in RETIRED_ESTIMATION if hasattr(est, name)] == []
    fields = [f.name for f in dataclasses.fields(est.BootstrapResult)]
    assert fields == ["estimator", "scattering_lengths", "centers", "widths",
                      "n_replicas", "n_failures", "replica_values"]


def test_no_energy_unit_or_background_knob():
    # Omega is the energy unit, and the bootstrap fits no background model
    # to its replica values: neither is a parameter.
    import inspect

    import bjjsense.criticality as crit
    import bjjsense.estimation as est

    fields = [f.name for f in dataclasses.fields(bjjsense.ModelParams)]
    assert fields == ["n_particles", "lambda_control", "imbalance"]
    for func in (crit.temperature_sweep, crit.locate_critical_gap,
                 crit.optimize_delta, crit._optimize_deltas, crit.scaling_study):
        assert "tunneling" not in inspect.signature(func).parameters
    assert "background_kind" not in inspect.signature(est.bootstrap).parameters


def test_cli_options_are_pinned():
    # A run is the config it records: the options name the config and the
    # output directory, and override the seed of the commands that draw.
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(KEYS_BY_COMMAND)
    for command, subparser in sub.choices.items():
        options = {o for a in subparser._actions for o in a.option_strings}
        seed = {"--seed"} if command in ("pipeline", "bootstrap") else set()
        assert options == {"-h", "--help", "--config", "--out", *seed}, command


@pytest.mark.parametrize("command", list(KEYS_BY_COMMAND))
def test_quick_flag_exits_2(tmp_path, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--out", str(tmp_path), "--quick"])
    assert info.value.code == 2
    assert list(tmp_path.iterdir()) == []
