"""The per-column comparison of two output directories (``csv_diff.py``)."""

import math
import subprocess
import sys

import numpy as np

from csv_diff import column_change, compare, main


def _write(path, text):
    path.parent.mkdir(exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_csv_diff_reports_each_column(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    table = "# config: {}\nN,chi,label\n1,2.0,a\n2,4.0,b\n"
    _write(old / "a.csv", table)
    _write(new / "a.csv", table.replace("4.0,b", "4.000004,c"))
    for d in (old, new):
        _write(d / "same.csv", table)
    _write(new / "extra.csv", table)
    lines, identical = compare(str(old), str(new))
    assert not identical
    assert lines[0] == "a.csv:"
    assert lines[1].split() == ["N", "max", "rel", "0", "max", "abs", "0"]
    assert lines[2].split()[:4] == ["chi", "max", "rel", "1e-06"]
    assert lines[3].split() == ["label", "1", "changed", "cells"]
    assert lines[4:] == [f"extra.csv: only in {new}", "same.csv: identical"]
    assert main([str(old), str(new)]) == 1
    assert main([str(old), str(old)]) == 0
    assert main([str(old)]) == 2


def test_csv_diff_notes_comments_and_rows(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    _write(old / "t.csv", "# config: {\"a\": 1}\nx\n1.0\n")
    _write(new / "t.csv", "# config: {\"a\": 2}\nx\n1.0\n2.0\n")
    lines, _ = compare(str(old), str(new))
    assert lines == ["t.csv:", "  # comment lines differ",
                     "  row counts differ: [1, 2]"]


def test_column_change_at_zero_and_nan():
    old = np.array([0.0, math.nan, 0.0, 2.0])
    assert column_change(old, old.copy()) == (0.0, 0.0)
    rel, abs_ = column_change(old, np.array([1e-3, math.nan, 0.0, 2.0]))
    assert rel == math.inf and abs_ == 1e-3
    assert column_change(old, np.array([0.0, 1.0, 0.0, 2.0])) == (math.inf, math.inf)


def test_csv_diff_runs_as_a_script(tmp_path):
    _write(tmp_path / "old" / "t.csv", "x\n1.0\n")
    _write(tmp_path / "new" / "t.csv", "x\n1.5\n")
    script = __file__.replace("test_csv_diff.py", "csv_diff.py")
    run = subprocess.run(
        [sys.executable, script, str(tmp_path / "old"), str(tmp_path / "new")],
        capture_output=True, text=True, check=False,
    )
    assert run.returncode == 1
    assert run.stdout.split() == ["t.csv:", "x", "max", "rel", "0.5", "max",
                                  "abs", "0.5"]


def test_goldens_rewrite_needs_the_names_of_its_cases(capsys):
    # Bare --rewrite would bless every golden, an accidental change too;
    # an unknown name is refused before any case runs.
    assert main(["--goldens", "--rewrite"]) == 2
    assert "--goldens [--rewrite NAME...]" in capsys.readouterr().err
    assert main(["--goldens", "--rewrite", "no-such-case"]) == 2
    assert "no golden case ['no-such-case']" in capsys.readouterr().err
