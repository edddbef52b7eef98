"""Every command's outputs at small configs, byte for byte against the
committed goldens in ``tests/golden/``.

The goldens hold the last bits of numpy's and OpenBLAS's arithmetic, so
they are checked only under the versions that wrote them; under others
the test skips and names both.  ``python tests/csv_diff.py --goldens
--rewrite`` rewrites them.
"""

import json
import os
import shutil

import pytest

from csv_diff import (
    GOLDEN_DIR,
    check_goldens,
    compare,
    golden_cases,
    golden_versions,
    library_versions,
    run_case,
)

CASES = golden_cases()


def _skip_on_other_versions():
    written, running = golden_versions(), library_versions()
    if written != running:
        pytest.skip(f"goldens written with {written}, running with {running}")


@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_their_golden_byte_for_byte(name, tmp_path):
    _skip_on_other_versions()
    out = str(tmp_path / name)
    run_case(CASES[name], out)
    lines, identical = compare(os.path.join(GOLDEN_DIR, name), out)
    assert identical, "\n".join(lines)


def test_goldens_are_rewritten_only_when_asked(tmp_path, capsys):
    _skip_on_other_versions()
    root = tmp_path / "golden"
    root.mkdir()
    name = "critical-point"
    (root / "cases.json").write_text(json.dumps({name: CASES[name]}),
                                     encoding="utf-8")
    (root / "versions.json").write_text("{}", encoding="utf-8")
    shutil.copytree(os.path.join(GOLDEN_DIR, name), root / name)
    table = root / name / "critical_point.csv"
    good = table.read_bytes()
    table.write_bytes(good.replace(b"\n20,", b"\n21,"))
    assert check_goldens(str(root)) == 1
    assert table.read_bytes() != good
    assert check_goldens(str(root), rewrite=True) == 1
    assert table.read_bytes() == good
    assert golden_versions(str(root)) == library_versions()
    assert check_goldens(str(root)) == 0
    assert "critical_point.csv: identical" in capsys.readouterr().out
