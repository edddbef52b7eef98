"""Command-line interface: scans, scaling studies, and the estimation pipeline.

Subcommands read an optional JSON config, compute, and emit CSV tables into
``--out``.  Every output carries ``#`` comment lines with the resolved
config, and the seed where a command draws random numbers (``pipeline``,
``bootstrap``), so a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys

import numpy as np

from . import __version__, io
from .criticality import (
    METHODS,
    ModelParams,
    ScanConfig,
    default_lambda_grid,
    locate_critical_gap,
    scaling_study,
    scan_lambda,
    temperature_sweep,
)
from .estimation import (
    DoubleGaussianFit,
    HistogramSpec,
    _bootstraps,
    bootstrap,
    series_estimates,
    synth_samples,
)
from .io import read_series_csv, write_columns, write_table


class CliError(Exception):
    """User-facing error with a machine-parsable category and exit code."""

    def __init__(self, category: str, message: str, exit_code: int = 2):
        super().__init__(f"{category}: {message}")
        self.exit_code = exit_code


# Output column of each susceptibility method.
CHI_COLUMN = {"moment": "chi_mom", "classical": "chi_cl", "quantum": "chi_q"}


@dataclasses.dataclass(frozen=True)
class _Rule:
    """What the value of a config key must be: one of ``choices``, or of
    ``kind`` (int; float, any finite number; bool; str, a path) and, if a
    number, >= ``least`` (> with ``strict``) and <= ``most``.  ``count`` is
    None for one value, "list" for a non-empty list of values, "any list"
    for one that may be empty, "one or list" for either, or a list length."""

    kind: type | None = None
    least: float = -math.inf
    strict: bool = False
    most: float = math.inf
    count: int | str | None = None
    choices: tuple[str, ...] = ()

    def items(self, value) -> list | None:
        """The values that ``value`` holds, or None if its shape is wrong."""
        if not isinstance(value, list):
            return [value] if self.count in (None, "one or list") else None
        sized = {"list": bool(value), "any list": True, "one or list": bool(value)}
        return value if sized.get(self.count, len(value) == self.count) else None

    def admits(self, x) -> bool:
        if x in self.choices:
            return True
        if self.kind is float:  # abs(x) <= max rejects nan, inf and huge integers
            return type(x) in (int, float) and abs(x) <= sys.float_info.max
        return type(x) is self.kind  # JSON values have exact types; bools aren't ints

    def bounds(self, x) -> bool:
        if isinstance(x, str):
            return True
        return (x > self.least if self.strict else x >= self.least) and x <= self.most

    def noun(self) -> str:
        kind = [_NOUN[self.kind]] if self.kind else []
        one = " or ".join([repr(c) for c in self.choices] + kind)
        return {
            None: one,
            "list": f"a non-empty list, each {one}",
            "any list": f"a list, each {one}",
            "one or list": f"{one}, or a non-empty list of them",
        }.get(self.count, f"a list of {self.count}, each {one}")


_NOUN = {int: "an integer", float: "a finite number", bool: "true or false",
         str: "a path"}


def _check(name: str, value, rule: _Rule) -> None:
    """Raise a config error naming ``name`` unless ``value`` obeys ``rule``."""
    items = rule.items(value)
    if items is None or not all(map(rule.admits, items)):
        raise CliError("config", f"{name} must be {rule.noun()}, got {value!r}")
    if not all(map(rule.bounds, items)):
        least = f"{'>' if rule.strict else '>='} {rule.least}"
        most = f" and <= {rule.most}" if rule.most < math.inf else ""
        raise CliError("config", f"{name} must be {least}{most}, got {value!r}")


_WEIGHTS = _Rule(float, 0, count="one or list")

# Config keys per subcommand: name -> (default, description, rule).  A default
# of None marks a required or conditionally required key, which may be null.
SCAN_KEYS = {
    "n_particles": (1000, "boson number N", _Rule(int, 1)),
    "sweep": ("lambda", "'lambda' or 'temperature'",
              _Rule(choices=("lambda", "temperature"))),
    "lambda_min": (-1.6, "scan start (lambda sweep)", _Rule(float)),
    "lambda_max": (-0.4, "scan end (lambda sweep)", _Rule(float)),
    "lambda_step": (2e-3, "scan step (lambda sweep)", _Rule(float, 0, strict=True)),
    "refine": (False, "add a fine pass (step/10) around the peak", _Rule(bool)),
    "temperature": (0.0, "temperature in units of Omega (lambda sweep)",
                    _Rule(float, 0)),
    "temperatures": (None, "temperature list (temperature sweep)",
                     _Rule(float, 0, count="list")),
    "lambda_value": ("critical", "'critical' or a number (temperature sweep)",
                     _Rule(float, choices=("critical",))),
    "delta": (2e-3, "symmetry-breaking tilt delta/Omega", _Rule(float)),
    "methods": (list(METHODS), "subset of moment/classical/quantum",
                _Rule(count="any list", choices=METHODS)),
}

SCALING_KEYS = {
    "n_values": ([200, 300, 500, 700, 1000], "system sizes",
                 _Rule(int, 1, count="list")),
    "temperature": (0.0, "temperature in units of Omega", _Rule(float, 0)),
    "delta_points": (25, "log-spaced tilt grid size over [1e-6, 1e-1]", _Rule(int, 2)),
    "window_points": (41, "odd lambda window size, centred on lambda_c", _Rule(int, 3)),
}

CRITICAL_KEYS = {
    "n_values": SCALING_KEYS["n_values"],
    "bracket": ([-1.5, -0.85], "lambda bracket for the gap minimum",
                _Rule(float, count=2)),
    "levels": ([0, 2], "gap levels (lower, upper)", _Rule(int, 0, count=2)),
}

SERIES_KEYS = {
    "input_csv": (None, "measurement CSV (scattering_length_a0, z)", _Rule(str)),
    "scattering_lengths": (None, "synthetic grid (units a0)",
                           _Rule(float, count="list")),
    "zbar": (None, "synthetic separations per point", _Rule(float, 0, count="list")),
    "sigma": (0.1, "synthetic width(s), scalar or list",
              _Rule(float, 0, strict=True, count="one or list")),
    "amplitude_plus": (1.0, "synthetic +zbar weight(s)", _WEIGHTS),
    "amplitude_minus": (1.0, "synthetic -zbar weight(s)", _WEIGHTS),
    "n_samples": (500, "samples per point, scalar or list",
                  _Rule(int, 1, count="one or list")),
    "bin_width": (0.05, "histogram bin width", _Rule(float, 0, strict=True, most=2)),
}

PIPELINE_KEYS = {
    **SERIES_KEYS,
    "n_replicas": (3000, "bootstrap replicas (>= 100)", _Rule(int, 100)),
    "write_replicas": (False, "emit replica values per estimator", _Rule(bool)),
    "seed": (0, "master seed for synthesis and bootstrap", _Rule(int, 0)),
}

BOOTSTRAP_KEYS = {
    **SERIES_KEYS,
    "estimator": ("chi_cl", "'chi_mom' or 'chi_cl'",
                  _Rule(choices=("chi_mom", "chi_cl"))),
    "n_replicas": (3000, "bootstrap replicas (>= 100)", _Rule(int, 100)),
    "write_replicas": (False, "emit replica values", _Rule(bool)),
    "seed": (0, "master seed", _Rule(int, 0)),
}

# The gap levels of locate_critical_gap's default, which locate lambda_c for
# scaling and for a scan at lambda_value 'critical'.
_GAP_LEVELS = CRITICAL_KEYS["levels"][0]

KEYS_BY_COMMAND = {
    "scan": SCAN_KEYS,
    "scaling": SCALING_KEYS,
    "critical-point": CRITICAL_KEYS,
    "pipeline": PIPELINE_KEYS,
    "bootstrap": BOOTSTRAP_KEYS,
}


def _load_config(args, keys) -> dict:
    """The defaults of ``keys`` under --config and --seed, each value checked."""
    config = {name: default for name, (default, _, _) in keys.items()}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as err:
            raise CliError("config", f"cannot read {args.config}: {err}")
        except json.JSONDecodeError as err:
            raise CliError("config", f"{args.config} is not valid JSON: {err}")
        if not isinstance(user, dict):
            raise CliError("config", f"{args.config} must hold a JSON object")
        unknown = sorted(set(user) - set(keys))
        if unknown:
            raise CliError("config", f"unknown keys: {', '.join(unknown)}")
        config.update(user)
    if "seed" in keys and args.seed is not None:
        config["seed"] = args.seed
    for name, (default, _, rule) in keys.items():
        if not (default is None and config[name] is None):
            _check(name, config[name], rule)
    return config


def _check_outdir(path: str) -> None:
    if not os.path.isdir(path):
        raise CliError("output", f"output directory does not exist: {path}")


# Keys that one branch of a command reads and the other does not: a run
# records only the keys it reads.
_LAMBDA_SWEEP_KEYS = (
    "lambda_min", "lambda_max", "lambda_step", "refine", "temperature",
)
_TEMPERATURE_SWEEP_KEYS = ("temperatures", "lambda_value")
_SYNTHETIC_KEYS = ("sigma", "amplitude_plus", "amplitude_minus", "n_samples")


def _provenance(command: str, config: dict, unread=()) -> list[str]:
    resolved = json.dumps(
        {k: v for k, v in config.items() if k not in unread}, sort_keys=True
    )
    lines = [f"bjjsense {__version__} {command}", f"config: {resolved}"]
    if "seed" in config:
        lines.append(f"seed: {config['seed']}")
    return lines


def _out(args, name: str) -> str:
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------------
# subcommands


def cmd_scan(args) -> int:
    config = _load_config(args, SCAN_KEYS)
    _check_outdir(args.out)
    methods = tuple(config["methods"])
    delta = float(config["delta"])
    if config["sweep"] == "temperature":
        if config["temperatures"] is None:
            raise CliError("config", "temperature sweep needs 'temperatures'")
        lam, n = config["lambda_value"], config["n_particles"]
        if lam == "critical" and n < max(_GAP_LEVELS):
            raise CliError("config", f"n_particles must be >= {max(_GAP_LEVELS)} "
                           f"for the gap levels {_GAP_LEVELS} of lambda_value "
                           f"'critical', got {n!r}")
        lam = locate_critical_gap(n).lambda_c if lam == "critical" else float(lam)
        table = temperature_sweep(
            n, config["temperatures"], lam, imbalance=delta, which=methods
        )
        columns = {"T": table["temperature"]}
        columns.update({CHI_COLUMN[m]: table[m] for m in METHODS if m in methods})
        write_columns(
            _out(args, "scan.csv"), columns,
            _provenance("scan", config, _LAMBDA_SWEEP_KEYS),
        )
        return 0
    if config["refine"] and not methods:
        raise CliError("config", "refine needs at least one of 'methods'")
    keys = ("lambda_min", "lambda_max", "lambda_step")
    lo, hi, step = (float(config[k]) for k in keys)
    if not lo < hi:
        raise CliError("config", f"lambda_min must be < lambda_max: {lo!r}, {hi!r}")
    grid = default_lambda_grid(lo, hi, step)
    if grid.size < 2:
        raise CliError(
            "config",
            f"lambda_step must leave >= 2 grid points in [{lo!r}, {hi!r}], "
            f"got {grid.size} at step {step!r}",
        )
    scan_cfg = ScanConfig(
        params_template=ModelParams(n_particles=config["n_particles"], imbalance=delta),
        lambda_grid=grid,
        temperature=float(config["temperature"]),
        which=methods,
    )
    curve = scan_lambda(scan_cfg)
    columns = _curve_columns(curve, methods)
    if config["refine"]:
        ref = "quantum" if "quantum" in methods else methods[0]
        peak = curve.peak(ref)
        fine_step = step / 10.0
        half = 25 * fine_step
        fine = default_lambda_grid(
            peak.lambda_peak - half, peak.lambda_peak + half, fine_step
        )
        # Every chi is pointwise: scan only the fine points that are new.
        new = dataclasses.replace(scan_cfg, lambda_grid=np.setdiff1d(fine, grid))
        extra = _curve_columns(scan_lambda(new), methods)
        order = np.argsort(np.concatenate([grid, new.lambda_grid]))
        columns = {
            k: np.concatenate([v, extra[k]])[order] for k, v in columns.items()
        }
    write_columns(
        _out(args, "scan.csv"), columns,
        _provenance("scan", config, _TEMPERATURE_SWEEP_KEYS),
    )
    return 0


def _curve_columns(curve, methods) -> dict[str, np.ndarray]:
    columns = {
        "lambda": curve.lambda_grid,
        "mean_jz": curve.mean_jz,
        "var_jz": curve.var_jz,
    }
    columns.update({CHI_COLUMN[m]: curve.chi(m) for m in METHODS if m in methods})
    return columns


def cmd_scaling(args) -> int:
    config = _load_config(args, SCALING_KEYS)
    _check_outdir(args.out)
    n_values = config["n_values"]
    if len(n_values) < 3:
        raise CliError("config", f"n_values must hold >= 3 sizes for the power-law "
                       f"fits, got {n_values!r}; use critical-point for lambda_c alone")
    if len(set(n_values)) < len(n_values):
        raise CliError("config", f"n_values must hold distinct sizes, got {n_values!r}")
    if min(n_values) < max(_GAP_LEVELS):
        raise CliError("config", f"n_values must be >= {max(_GAP_LEVELS)} for the "
                       f"gap levels {_GAP_LEVELS}, got {n_values!r}")
    window = config["window_points"]
    if window % 2 == 0:
        raise CliError("config", f"window_points must be odd, got {window}")
    comments = _provenance("scaling", config)
    result = scaling_study(
        n_values,
        float(config["temperature"]),
        delta_grid=np.logspace(-6.0, -1.0, config["delta_points"]),
        window_points=window,
    )
    write_columns(
        _out(args, "scaling.csv"),
        {
            "N": result.n_values,
            "lambda_c_n": result.lambda_c,
            "shift": -1.0 - result.lambda_c,
            "delta_star_mom": result.delta_star["moment"],
            "delta_star_cl": result.delta_star["classical"],
            "delta_star_q": result.delta_star["quantum"],
            **{CHI_COLUMN[m]: result.chi[m] for m in METHODS},
        },
        comments,
    )
    fit_rows = []
    for m, col in CHI_COLUMN.items():
        fit = result.fits[m]
        fit_rows.append(
            (f"{col}_over_N", fit.prefactor, fit.exponent, fit.r_squared)
        )
    fit_rows.append(
        ("critical_shift", result.shift_fit.prefactor,
         result.shift_fit.exponent, result.shift_fit.r_squared)
    )
    write_table(
        _out(args, "scaling_fits.csv"),
        ["quantity", "prefactor", "exponent", "r_squared"],
        fit_rows,
        comments,
    )
    return 0


def cmd_critical_point(args) -> int:
    config = _load_config(args, CRITICAL_KEYS)
    _check_outdir(args.out)
    bracket = tuple(float(b) for b in config["bracket"])
    levels = config["levels"]
    if not bracket[0] < bracket[1]:
        raise CliError("config", f"bracket must have lo < hi, got {list(bracket)}")
    if levels[0] == levels[1]:
        raise CliError("config", f"levels must be distinct, got {levels}")
    if any(max(levels) > n for n in config["n_values"]):
        raise CliError(
            "config",
            f"levels must not exceed the smallest N = {min(config['n_values'])}: "
            f"{levels}",
        )
    rows = []
    for n in config["n_values"]:
        crit = locate_critical_gap(n, bracket, levels=levels)
        rows.append((crit.n_particles, crit.lambda_c, crit.gap, crit.shift))
    write_table(
        _out(args, "critical_point.csv"),
        ["N", "lambda_c_n", "gap", "shift"],
        rows,
        _provenance("critical-point", config),
    )
    return 0


def _resolve_series(config):
    if config["input_csv"] is not None:
        if config["scattering_lengths"] is not None or config["zbar"] is not None:
            raise CliError("config", "input_csv must not be set together with "
                           "'scattering_lengths' or 'zbar'")
        try:
            return read_series_csv(config["input_csv"])
        except (OSError, ValueError) as err:
            raise CliError("series", str(err))
    a = config["scattering_lengths"]
    zbar = config["zbar"]
    if a is None or zbar is None:
        raise CliError(
            "config",
            "need either 'input_csv' or 'scattering_lengths' plus 'zbar'",
        )
    n_pts = len(a)

    def per_point(value, name):
        if np.isscalar(value):
            return [float(value)] * n_pts
        if len(value) != n_pts:
            raise CliError(
                "config", f"{name} has {len(value)} entries for {n_pts} points"
            )
        return [float(v) for v in value]

    sigma = per_point(config["sigma"], "sigma")
    ap = per_point(config["amplitude_plus"], "amplitude_plus")
    am = per_point(config["amplitude_minus"], "amplitude_minus")
    gens = [
        DoubleGaussianFit(
            separation=float(z), width=s, amplitude_plus=p, amplitude_minus=q
        )
        for z, s, p, q in zip(zbar, sigma, ap, am)
    ]
    try:
        return synth_samples(
            [float(v) for v in a], gens, config["n_samples"], config["seed"]
        )
    except ValueError as err:
        raise CliError("series", str(err))


def _series_unread(config) -> tuple[str, ...]:
    """The synthetic series' keys, which a series read from a file ignores."""
    return _SYNTHETIC_KEYS if config["input_csv"] is not None else ()


def _replica_table(result):
    pairs = zip(result.scattering_lengths, result.replica_values)
    return [(a, v) for a, col in pairs for v in col]


def cmd_pipeline(args) -> int:
    config = _load_config(args, PIPELINE_KEYS)
    _check_outdir(args.out)
    spec = HistogramSpec(bin_width=float(config["bin_width"]))
    series = _resolve_series(config)
    estimates, fits = series_estimates(series, spec)
    comments = _provenance("pipeline", config, _series_unread(config))
    boots = _bootstraps(series, ("chi_mom", "chi_cl"), config["n_replicas"],
                        config["seed"], spec, fits)
    write_columns(
        _out(args, "pipeline_results.csv"),
        {
            "a_s": series.scattering_lengths,
            "zbar": estimates["zbar"],
            "sigma_z": estimates["sigma"],
            "chi_mom": estimates["chi_mom"],
            "chi_mom_err": boots["chi_mom"].widths,
            "chi_cl": estimates["chi_cl"],
            "chi_cl_err": boots["chi_cl"].widths,
        },
        comments,
    )
    if config["write_replicas"]:
        for estimator, result in boots.items():
            write_table(
                _out(args, f"replicas_{estimator}.csv"),
                ["a_s", "chi"],
                _replica_table(result),
                comments,
            )
    return 0


def cmd_bootstrap(args) -> int:
    config = _load_config(args, BOOTSTRAP_KEYS)
    _check_outdir(args.out)
    estimator = config["estimator"]
    spec = HistogramSpec(bin_width=float(config["bin_width"]))
    series = _resolve_series(config)
    try:
        result = bootstrap(series, estimator, n_replicas=config["n_replicas"],
                           seed=config["seed"], spec=spec)
    except (ValueError, RuntimeError) as err:
        raise CliError("bootstrap", str(err), exit_code=1)
    comments = _provenance("bootstrap", config, _series_unread(config))
    write_columns(
        _out(args, "bootstrap.csv"),
        {
            "a_s": result.scattering_lengths,
            "center": result.centers,
            "width": result.widths,
        },
        comments,
    )
    if config["write_replicas"]:
        write_table(
            _out(args, f"replicas_{estimator}.csv"),
            ["a_s", "chi"],
            _replica_table(result),
            comments,
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _key_help(keys) -> str:
    lines = ["config keys:"]
    for name, (default, description, _) in keys.items():
        lines.append(f"  {name:<20} {description} (default: {default!r})")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bjjsense",
        description="Fidelity susceptibilities of the two-mode boson model.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "scan": (cmd_scan, "susceptibility scan over lambda or temperature"),
        "scaling": (cmd_scaling, "finite-size scaling study with fits"),
        "critical-point": (cmd_critical_point, "gap-minimum critical points"),
        "pipeline": (cmd_pipeline, "synth/fit/estimate/bootstrap chain"),
        "bootstrap": (cmd_bootstrap, "bootstrap one estimator"),
    }
    for name, (handler, help_text) in handlers.items():
        p = sub.add_parser(
            name,
            help=help_text,
            epilog=_key_help(KEYS_BY_COMMAND[name]),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", required=True, help="output directory (must exist)")
        if "seed" in KEYS_BY_COMMAND[name]:
            p.add_argument("--seed", type=int, help="override config seed")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except (ValueError, RuntimeError) as err:
        print(f"error: runtime: {err}", file=sys.stderr)
        return 1


# The objects alive once the CLI is loaded, mostly numpy's, live until exit.
# Moving them out of the cyclic collector's reach spares each run the full
# collections over them while the interpreter tears down its modules.
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
