"""Per-column changes between the CSV tables of two output directories.

    python tests/csv_diff.py OLD_DIR NEW_DIR

For every ``*.csv`` in either directory, prints ``identical`` when the two
files are byte for byte the same, else one line per column with the
largest relative and the largest absolute change of its numbers (or the
number of changed cells of a text column), and a note when the ``#``
comment lines, the columns or the row count differ.  The relative change
of a cell is |new - old| / |old|; it is inf where old is 0 and new is not,
or where exactly one of the two is NaN.  Exits 0 when every file is
identical, 1 otherwise.
"""

from __future__ import annotations

import os
import sys

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


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(d) for d in args):
        print("usage: python tests/csv_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lines, identical = compare(*args)
    print("\n".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
