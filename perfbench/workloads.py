"""Workload inputs, output checks and reference tables for the bjjsense benchmark.

Each workload turns a seed into the files one CLI invocation reads (a JSON
config, plus a shot-record CSV for the pipeline) and checks the CSV tables
the invocation writes, row by row, against physics invariants and the
reference tables in ``perfbench/reference``.  The CLI sees only files.

Tolerances against the reference tables are chosen to admit two planned
changes to the program: susceptibilities computed exactly instead of from
finite-difference fidelity fits (relative change <= 2e-5 at the sizes used
here), and a bootstrap whose random stream is drawn differently (the
pipeline checks are statistical, never against one seed's numbers).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def read_csv(path: str) -> dict[str, np.ndarray]:
    """Columns of a CSV table, as floats where they parse; ``#`` lines skipped.

    Deliberately not ``bjjsense.io.read_table``: the gate should not trust
    the reader of the program it checks.
    """
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    header, body = rows[0], rows[1:]
    columns = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in body]
        try:
            columns[name] = np.array([float(c) for c in cells])
        except ValueError:
            columns[name] = np.array(cells)
    return columns


def write_csv(path: str, columns: dict[str, np.ndarray], comment: str) -> None:
    names = list(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {comment}\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*(columns[n] for n in names)):
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def _close(value: float, ref: float, rel: float, floor: float = 0.0) -> bool:
    return abs(value - ref) <= rel * max(abs(ref), floor)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


class RowChecks:
    """Collects pass/fail per output row with a reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def row(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def fail_rows(self, label: str, n: int, reason: str) -> None:
        """Count ``n`` rows as attempted and failed for one reason."""
        self.attempted += n
        self.failures += [f"{label}: {reason}"] * n


# ---------------------------------------------------------------------------
# ground-scaling: a T = 0 finite-size scaling study over three small sizes


class GroundScaling:
    """``bjjsense scaling`` at T = 0 over three sizes near N = 100, 150, 200.

    The seed moves each size by up to two particles; the reference table
    holds every size the seed can pick.
    """

    name = "ground-scaling"
    command = "scaling"
    outputs = ("scaling.csv", "scaling_fits.csv")
    base_sizes = (100, 150, 200)
    jitter = 2
    delta_points = 13
    window_points = 21
    tol_lambda_c = 1e-7
    tol_chi = 1e-3
    # delta* and chi of the moment route follow the peak of a
    # central-difference chi_mom on a coarse window grid.  An exact
    # derivative moves that peak (delta* by about -33%, chi by +25%), so the
    # reference holds both routes and either may match.
    tol_mom = 0.05
    tol_fit = 1e-8
    reference_file = "ground_scaling.csv"

    def reference_sizes(self) -> list[int]:
        return [
            n + j for n in self.base_sizes
            for j in range(-self.jitter, self.jitter + 1)
        ]

    def prepare(self, seed: int, workdir: str) -> tuple[dict, int]:
        rng = np.random.default_rng([seed, 2])
        sizes = [
            int(n + rng.integers(-self.jitter, self.jitter + 1))
            for n in self.base_sizes
        ]
        config = {
            "n_values": sizes,
            "temperature": 0.0,
            "delta_points": self.delta_points,
            "window_points": self.window_points,
        }
        return config, 3 * len(sizes)

    def expected_rows(self, config: dict) -> int:
        return len(config["n_values"]) + 4

    def check(self, outdir: str, config: dict, checks: RowChecks) -> None:
        table = read_csv(os.path.join(outdir, "scaling.csv"))
        ref = read_csv(os.path.join(REFERENCE_DIR, self.reference_file))
        sizes = table["N"]
        if list(sizes) != [float(n) for n in config["n_values"]]:
            checks.row("scaling.csv", [f"sizes {list(sizes)} != {config['n_values']}"])
            return
        cols = ("lambda_c_n", "shift", "delta_star_mom", "delta_star_cl",
                "delta_star_q", "chi_mom", "chi_cl", "chi_q")
        for i, n in enumerate(sizes):
            row = {c: table[c][i] for c in cols}
            if not _finite(*row.values()):
                checks.row(f"N={n:g}", ["non-finite value"])
                continue
            problems = []
            if not row["shift"] > 0:
                problems.append(f"critical shift {row['shift']} not positive")
            if abs(row["shift"] - (-1.0 - row["lambda_c_n"])) > 1e-12:
                problems.append("shift != -1 - lambda_c")
            for a, b in (("chi_cl", "chi_q"), ("delta_star_cl", "delta_star_q")):
                if not _close(row[a], row[b], 1e-6):
                    problems.append(f"{a} {row[a]} != {b} {row[b]} at T = 0")
            j = np.flatnonzero(ref["N"] == n)
            if j.size != 1:
                problems.append("N not in the reference table")
            else:
                j = int(j[0])
                for col, tol in (("lambda_c_n", self.tol_lambda_c),
                                 ("delta_star_cl", self.tol_chi),
                                 ("delta_star_q", self.tol_chi),
                                 ("chi_cl", self.tol_chi),
                                 ("chi_q", self.tol_chi)):
                    if not _close(row[col], ref[col][j], tol):
                        problems.append(f"{col} {row[col]} vs ref {ref[col][j]}")
                if not any(
                    _close(row["delta_star_mom"], ref[f"delta_star_mom{r}"][j], self.tol_mom)
                    and _close(row["chi_mom"], ref[f"chi_mom{r}"][j], self.tol_mom)
                    for r in ("", "_exact")
                ):
                    problems.append(
                        f"moment route ({row['delta_star_mom']}, {row['chi_mom']}) "
                        "matches neither reference route"
                    )
            checks.row(f"N={n:g}", problems)
        fits = read_csv(os.path.join(outdir, "scaling_fits.csv"))
        expected = {
            "chi_mom_over_N": table["chi_mom"] / sizes,
            "chi_cl_over_N": table["chi_cl"] / sizes,
            "chi_q_over_N": table["chi_q"] / sizes,
            "critical_shift": table["shift"],
        }
        names = list(fits["quantity"])
        if sorted(names) != sorted(expected):
            checks.row("scaling_fits.csv", [f"quantities {names}"])
            return
        for k, name in enumerate(names):
            y = expected[name]
            problems = []
            if np.all(y > 0):
                slope, icpt = np.polyfit(np.log(sizes), np.log(y), 1)
                got = (fits["prefactor"][k], fits["exponent"][k])
                if not (_close(got[0], math.exp(icpt), self.tol_fit)
                        and _close(got[1], slope, self.tol_fit, floor=1.0)):
                    problems.append(f"fit {got} vs ({math.exp(icpt)}, {slope})")
            else:
                problems.append("non-positive data under a power-law fit")
            if not 0.0 <= fits["r_squared"][k] <= 1.0:
                problems.append(f"r_squared {fits['r_squared'][k]}")
            checks.row(name, problems)


# ---------------------------------------------------------------------------
# shot-pipeline: fits and bootstrap on a seed-generated shot record


class ShotPipeline:
    """``bjjsense pipeline`` on a shot-record CSV drawn from the seed.

    The records follow the README's seven-point series: at each scattering
    length, equal-weight Gaussians at +-zbar with width 0.1, clipped to
    [-1, 1].  The reference table holds the Monte-Carlo mean and spread of
    each estimator over many such records, so checks hold for any seed and
    any bootstrap random stream.
    """

    name = "shot-pipeline"
    command = "pipeline"
    outputs = ("pipeline_results.csv",)
    scattering_lengths = (-2.4, -2.2, -2.0, -1.8, -1.6, -1.4, -1.2)
    zbar = (0.20, 0.25, 0.31, 0.42, 0.57, 0.65, 0.70)
    sigma = 0.1
    shots = 4000
    replicas = 150
    # An estimate may sit this many Monte-Carlo standard deviations from
    # the Monte-Carlo mean (two-sided tail ~6e-7 for a Gaussian).
    n_std = 5.0
    # Bootstrap error bars must match the Monte-Carlo spread within these
    # factors.  Over 25 seeds at 150 replicas the ratio ranged over
    # 0.79-1.43 for chi_cl and 0.53-1.47 for chi_mom, whose replica
    # histogram is fitted with an exponential background as well.
    err_factor = {"chi_cl": 2.0, "chi_mom": 3.0}
    reference_file = "shot_pipeline.csv"

    def draw(self, rng: np.random.Generator) -> list[np.ndarray]:
        """One shot record per scattering length."""
        records = []
        for zbar in self.zbar:
            sign = np.where(rng.random(self.shots) < 0.5, 1.0, -1.0)
            z = sign * zbar + self.sigma * rng.standard_normal(self.shots)
            records.append(np.clip(z, -1.0, 1.0))
        return records

    def prepare(self, seed: int, workdir: str) -> tuple[dict, int]:
        records = self.draw(np.random.default_rng([seed, 3]))
        path = os.path.join(workdir, "shots.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# synthetic shot record, seed {seed}\n")
            fh.write("scattering_length_a0,z\n")
            for a, rec in zip(self.scattering_lengths, records):
                fh.writelines(f"{a!r},{float(z)!r}\n" for z in rec)
        config = {"input_csv": path, "n_replicas": self.replicas, "seed": seed}
        return config, 2 * self.replicas

    def expected_rows(self, config: dict) -> int:
        return len(self.scattering_lengths)

    def check(self, outdir: str, config: dict, checks: RowChecks) -> None:
        table = read_csv(os.path.join(outdir, "pipeline_results.csv"))
        ref = read_csv(os.path.join(REFERENCE_DIR, self.reference_file))
        a = table["a_s"]
        if list(a) != list(self.scattering_lengths):
            checks.row("pipeline_results.csv", [f"grid {list(a)}"])
            return
        for i in range(a.size):
            interior = 0 < i < a.size - 1
            cols = ["zbar", "sigma_z", "chi_mom"]
            if interior:
                cols += ["chi_mom_err", "chi_cl", "chi_cl_err"]
            if not _finite(*(table[c][i] for c in cols)):
                checks.row(f"a_s={a[i]:g}", ["non-finite value"])
                continue
            problems = []
            for col, ref_col in (("zbar", "zbar"), ("sigma_z", "sigma"),
                                 ("chi_mom", "chi_mom")) + (
                                    (("chi_cl", "chi_cl"),) if interior else ()):
                mean, std = ref[f"{ref_col}_mean"][i], ref[f"{ref_col}_std"][i]
                if abs(table[col][i] - mean) > self.n_std * std:
                    problems.append(f"{col} {table[col][i]} vs ref {mean} +- {std}")
            if interior:
                for est in ("chi_mom", "chi_cl"):
                    err, std = table[f"{est}_err"][i], ref[f"{est}_std"][i]
                    factor = self.err_factor[est]
                    if not std / factor <= err <= std * factor:
                        problems.append(f"{est}_err {err} vs spread {std}")
            checks.row(f"a_s={a[i]:g}", problems)


WORKLOADS = {w.name: w for w in (GroundScaling(), ShotPipeline())}


def save_config(config: dict, workdir: str) -> str:
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    return path
