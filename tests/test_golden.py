"""Every command's outputs at small configs, byte for byte against the
committed goldens in ``tests/golden/``.

The goldens hold the last bits of numpy's and OpenBLAS's arithmetic, so
they are checked only under the versions that wrote them; under others
the test skips and names both.  ``python tests/csv_diff.py --goldens
--rewrite NAME...`` rewrites the named ones.
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
    # Two cases, both changed by hand: naming one rewrites it alone, and
    # the other is still reported and left as it was.
    _skip_on_other_versions()
    root = tmp_path / "golden"
    root.mkdir()
    names = ("critical-point", "scan-refine")
    (root / "cases.json").write_text(
        json.dumps({name: CASES[name] for name in names}), encoding="utf-8"
    )
    shutil.copy(os.path.join(GOLDEN_DIR, "versions.json"), root)
    for name in names:
        shutil.copytree(os.path.join(GOLDEN_DIR, name), root / name)
    tables = (root / names[0] / "critical_point.csv", root / names[1] / "scan.csv")
    good = [table.read_bytes() for table in tables]
    bad = [good[0].replace(b"\n20,", b"\n21,"),
           good[1].replace(b"\n-1.3,", b"\n-1.4,")]
    for table, text, fine in zip(tables, bad, good):
        assert text != fine
        table.write_bytes(text)
    assert check_goldens(str(root)) == 1
    assert [table.read_bytes() for table in tables] == bad
    capsys.readouterr()
    assert check_goldens(str(root), rewrite=(names[0],)) == 1
    assert [table.read_bytes() for table in tables] == [good[0], bad[1]]
    out = capsys.readouterr().out
    assert "critical_point.csv:\n" in out and "scan.csv:\n" in out
    assert golden_versions(str(root)) == library_versions()
    assert check_goldens(str(root)) == 1
    assert "critical_point.csv: identical" in capsys.readouterr().out
    with pytest.raises(ValueError, match="no golden case"):
        check_goldens(str(root), rewrite=("scan-thermal",))
    # Other versions than the recorded ones must rewrite every case.
    (root / "versions.json").write_text("{}", encoding="utf-8")
    with pytest.raises(ValueError, match="name every case"):
        check_goldens(str(root), rewrite=(names[1],))
    assert tables[1].read_bytes() == bad[1]
    assert check_goldens(str(root), rewrite=names) == 1
    assert [table.read_bytes() for table in tables] == good
    assert golden_versions(str(root)) == library_versions()
    assert check_goldens(str(root)) == 0
