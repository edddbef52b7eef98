"""Per-column changes between the CSV tables of two output directories.

    python tests/csv_diff.py OLD_DIR NEW_DIR
    PYTHONPATH=src python tests/csv_diff.py --goldens [--rewrite]

For every ``*.csv`` in either directory, prints ``identical`` when the two
files are byte for byte the same, else one line per column with the
largest relative and the largest absolute change of its numbers (or the
number of changed cells of a text column), and a note when the ``#``
comment lines, the columns or the row count differ.  The relative change
of a cell is |new - old| / |old|; it is inf where old is 0 and new is not,
or where exactly one of the two is NaN.  Exits 0 when every file is
identical, 1 otherwise.

``--goldens`` reruns every case of ``tests/golden/cases.json`` with the
``bjjsense`` on the path and compares its outputs with the committed ones
in ``tests/golden/<case>/`` the same way.  ``--rewrite`` then replaces the
committed outputs with the new ones and records the numpy and OpenBLAS
versions that wrote them in ``tests/golden/versions.json``; nothing else
writes there.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from csv_table import read_table  # noqa: E402


def column_change(old: np.ndarray, new: np.ndarray) -> tuple[float, float] | int:
    """(largest relative, largest absolute) change of a numeric column, or
    the number of changed cells of a text column."""
    if old.dtype.kind != "f" or new.dtype.kind != "f":
        return int(np.sum(old.astype(str) != new.astype(str)))
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    diff = np.where(same, 0.0, np.abs(new - old))
    diff[np.isnan(diff)] = np.inf  # exactly one side NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(same, 0.0, diff / np.abs(old))
    rel[np.isnan(rel)] = np.inf
    return float(rel.max(initial=0.0)), float(diff.max(initial=0.0))


def compare(old_dir: str, new_dir: str) -> tuple[list[str], bool]:
    """The report lines of ``old_dir`` against ``new_dir``, and whether
    every CSV file is byte-identical."""
    names = {
        name for d in (old_dir, new_dir) for name in os.listdir(d)
        if name.endswith(".csv")
    }
    lines, identical = [], True
    for name in sorted(names):
        old_path, new_path = (os.path.join(d, name) for d in (old_dir, new_dir))
        if not (os.path.exists(old_path) and os.path.exists(new_path)):
            where = old_dir if os.path.exists(old_path) else new_dir
            lines.append(f"{name}: only in {where}")
            identical = False
            continue
        with open(old_path, "rb") as a, open(new_path, "rb") as b:
            if a.read() == b.read():
                lines.append(f"{name}: identical")
                continue
        identical = False
        (old, old_notes), (new, new_notes) = read_table(old_path), read_table(new_path)
        lines.append(f"{name}:")
        if old_notes != new_notes:
            lines.append("  # comment lines differ")
        if list(old) != list(new):
            lines.append(f"  columns differ: {list(old)} -> {list(new)}")
        rows = {len(c) for c in (*old.values(), *new.values())}
        if len(rows) > 1:
            lines.append(f"  row counts differ: {sorted(rows)}")
            continue
        for col in (c for c in old if c in new):
            change = column_change(old[col], new[col])
            if isinstance(change, int):
                lines.append(f"  {col:<24} {change} changed cells")
            else:
                lines.append(f"  {col:<24} max rel {change[0]:.3g}  max abs {change[1]:.3g}")
    return lines, identical


GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def library_versions() -> dict[str, str]:
    """The numpy and OpenBLAS versions in use: the outputs' last bits rest
    on their arithmetic."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": blas["version"]}


def _load(root: str, name: str) -> dict:
    with open(os.path.join(root, name), encoding="utf-8") as fh:
        return json.load(fh)


def golden_cases(root: str = GOLDEN_DIR) -> dict[str, dict]:
    """Each golden case's name -> {"command": ..., "config": {...}}."""
    return _load(root, "cases.json")


def golden_versions(root: str = GOLDEN_DIR) -> dict[str, str]:
    """The ``library_versions`` that wrote the committed goldens."""
    return _load(root, "versions.json")


def run_case(case: dict, out_dir: str) -> None:
    """Run one golden case's command and config into ``out_dir`` (made
    here), through ``bjjsense.cli.main`` in this process."""
    from bjjsense.cli import main as cli_main

    os.makedirs(out_dir)
    config = os.path.join(out_dir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(case["config"], fh)
    try:
        code = cli_main([case["command"], "--config", config, "--out", out_dir])
    finally:
        os.remove(config)
    if code != 0:
        raise RuntimeError(f"{case['command']} exited {code} on {case['config']}")


def check_goldens(root: str = GOLDEN_DIR, rewrite: bool = False) -> int:
    """Rerun every golden case and print its comparison with the committed
    outputs; with ``rewrite``, replace those outputs and the recorded
    versions.  Returns 0 when every file was identical, 1 otherwise."""
    written, running = golden_versions(root), library_versions()
    if written != running:
        print(f"goldens written with {written}, running with {running}")
    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in golden_cases(root).items():
            fresh, golden = os.path.join(tmp, name), os.path.join(root, name)
            run_case(case, fresh)
            if os.path.isdir(golden):
                lines, same = compare(golden, fresh)
            else:
                lines, same = [f"{name}: no golden yet"], False
            identical &= same
            print(f"[{name}]")
            print("\n".join(lines))
            if rewrite:
                shutil.rmtree(golden, ignore_errors=True)
                shutil.copytree(fresh, golden)
    if rewrite:
        with open(os.path.join(root, "versions.json"), "w", encoding="utf-8") as fh:
            json.dump(running, fh, indent=2)
            fh.write("\n")
    return 0 if identical else 1


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args and args[0] == "--goldens" and args[1:] in ([], ["--rewrite"]):
        return check_goldens(rewrite=bool(args[1:]))
    if len(args) != 2 or not all(os.path.isdir(d) for d in args):
        print("usage: python tests/csv_diff.py OLD_DIR NEW_DIR\n"
              "       python tests/csv_diff.py --goldens [--rewrite]",
              file=sys.stderr)
        return 2
    lines, identical = compare(*args)
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
