"""Reader of the package's CSV tables, for tests of what the CLI writes.

The package writes tables (``bjjsense.io.write_table``) but reads only
measurement series (``read_series_csv``), so the generic reader lives here.
"""

from __future__ import annotations

import numpy as np


def read_table(path: str) -> tuple[dict[str, np.ndarray], list[str]]:
    """Read a CSV table written by ``bjjsense.io.write_table``.

    Returns
    -------
    (columns, comments)
        Columns parsed as float arrays where possible, else kept as strings.
    """
    comments: list[str] = []
    header: list[str] | None = None
    raw: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                comments.append(line[1:].strip())
                continue
            cells = line.split(",")
            if header is None:
                header = cells
            else:
                raw.append(cells)
    if header is None:
        raise ValueError(f"{path}: no header row")
    columns: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in raw]
        try:
            columns[name] = np.array([float(c) for c in cells])
        except ValueError:
            columns[name] = np.array(cells)
    return columns, comments
