"""CSV round trips, value formatting, and atomic table writes."""

import os
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from csv_table import read_table

from bjjsense.estimation import DoubleGaussianFit, synth_samples
from bjjsense.io import (
    format_value,
    read_series_csv,
    write_columns,
    write_table,
)


def test_format_value_17_digits():
    assert format_value(1.0 / 3.0) == "0.33333333333333331"
    assert format_value(np.float64(2.5)) == "2.5"
    assert format_value(7) == "7"
    assert format_value(True) == "true"
    assert format_value("label") == "label"


def test_float_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8, 50)
    path = str(tmp_path / "values.csv")
    write_columns(path, {"x": values})
    columns, _ = read_table(path)
    # 17 significant digits reproduce doubles bit for bit
    assert np.array_equal(columns["x"], values)


def test_write_table_header_and_comments(tmp_path):
    path = str(tmp_path / "table.csv")
    write_table(path, ["a", "b"], [(1.5, 2), (3.25, 4)],
                comments=["provenance line", "seed=1"])
    columns, comments = read_table(path)
    assert comments == ["provenance line", "seed=1"]
    assert list(columns) == ["a", "b"]
    assert_allclose(columns["a"], [1.5, 3.25])
    assert_allclose(columns["b"], [2.0, 4.0])
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    assert first.startswith("#")


def test_write_table_atomic_replace(tmp_path):
    path = str(tmp_path / "table.csv")
    write_table(path, ["x"], [(1.0,)])
    write_table(path, ["x"], [(2.0,)])
    columns, _ = read_table(path)
    assert_allclose(columns["x"], [2.0])
    # no temp files left behind
    assert os.listdir(tmp_path) == ["table.csv"]


def test_write_columns_length_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_columns(str(tmp_path / "bad.csv"),
                      {"a": np.arange(3), "b": np.arange(4)})


def test_read_table_keeps_string_columns(tmp_path):
    path = str(tmp_path / "mixed.csv")
    write_table(path, ["name", "value"], [("alpha", 1.0), ("beta", 2.0)])
    columns, _ = read_table(path)
    assert list(columns["name"]) == ["alpha", "beta"]
    assert_allclose(columns["value"], [1.0, 2.0])


def test_series_roundtrip(tmp_path):
    gens = [
        DoubleGaussianFit(separation=z, width=0.1,
                          amplitude_plus=0.5, amplitude_minus=0.5)
        for z in (0.2, 0.4, 0.6)
    ]
    series = synth_samples([-2.0, -1.5, -1.0], gens, 200, seed=8)
    path = str(tmp_path / "series.csv")
    rows = [
        (a, z)
        for a, record in zip(series.scattering_lengths, series.records)
        for z in record
    ]
    write_table(path, ["scattering_length_a0", "z"], rows)
    back = read_series_csv(path)
    assert np.array_equal(back.scattering_lengths, series.scattering_lengths)
    for r1, r2 in zip(back.records, series.records):
        assert np.array_equal(r1, r2)
    assert back.rng_seed == -1


def test_read_series_requires_columns(tmp_path):
    path = str(tmp_path / "bad.csv")
    write_table(path, ["a", "z"], [(1.0, 0.1)])
    with pytest.raises(ValueError):
        read_series_csv(path)


def test_read_series_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text(
        "# provenance\n\nz,extra,scattering_length_a0\n0.25,x,-1.5\n"
        "# a comment between rows\n-0.5,y,-2\n\n0.75,z,-1.5\n",
        encoding="utf-8",
    )
    series = read_series_csv(str(path))
    assert list(series.scattering_lengths) == [-2.0, -1.5]
    assert [list(r) for r in series.records] == [[-0.5], [0.25, 0.75]]


@pytest.mark.parametrize("body, message", [
    ("", "no header row"),
    ("a,z\n1,0.1\n", "missing column 'scattering_length_a0'"),
    ("scattering_length_a0\n1\n", "missing column 'z'"),
    ("scattering_length_a0,z\n1,0.2#x\n", "non-numeric data"),
    ("scattering_length_a0,z\n1,abc\n", "non-numeric data"),
    ("scattering_length_a0,z\n1\n", "non-numeric data"),
])
def test_read_series_rejects_bad_tables(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("# header comment\n" + body, encoding="utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
        read_series_csv(str(path))
