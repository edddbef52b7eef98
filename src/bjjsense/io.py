"""CSV emission and ingestion.

All tables are UTF-8 CSV with a header row, preceded by ``#`` comment lines
carrying provenance (command, resolved config, seed).  Floats are written
with 17 significant digits so round-trips are exact; writes go to a
temporary file renamed into place on success.
"""

from __future__ import annotations

import os
import tempfile
from typing import Iterable, Sequence

import numpy as np

from .estimation import MeasurementSeries


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_table(
    path: str,
    header: Sequence[str],
    rows: Iterable[Sequence],
    comments: Sequence[str] = (),
) -> None:
    """Write a CSV table atomically.

    Parameters
    ----------
    path : str
        Destination; the parent directory must exist.
    header : sequence of str
        Column names.
    rows : iterable of sequences
        Row values, converted via :func:`format_value`.
    comments : sequence of str
        Provenance lines, emitted ``#``-prefixed before the header.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for line in comments:
                fh.write(f"# {line}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(format_value(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_columns(
    path: str,
    columns: dict[str, np.ndarray],
    comments: Sequence[str] = (),
) -> None:
    """Write named equal-length columns as a CSV table."""
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    sizes = {a.size for a in arrays}
    if len(sizes) != 1:
        raise ValueError(f"column lengths differ: { {n: a.size for n, a in zip(names, arrays)} }")
    rows = zip(*arrays)
    write_table(path, names, rows, comments)


def read_table(path: str) -> tuple[dict[str, np.ndarray], list[str]]:
    """Read a CSV table written by :func:`write_table`.

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


def read_series_csv(path: str) -> MeasurementSeries:
    """Read a measurement series CSV (columns scattering_length_a0, z).

    As in :func:`read_table`, a line starting with ``#`` is a comment, blank
    lines are skipped and the first other line is the header; the two
    columns are parsed in one ``np.loadtxt`` call.  Rows are grouped by
    scattering length; the grid is sorted ascending.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [
            line for line in fh.read().split("\n")
            if line and not line.startswith("#")
        ]
    if not lines:
        raise ValueError(f"{path}: no header row")
    index = {name: j for j, name in enumerate(lines[0].split(","))}
    for required in ("scattering_length_a0", "z"):
        if required not in index:
            raise ValueError(f"{path}: missing column {required!r}")
    rows = lines[1:]
    try:
        # comments=None: a "#" inside a row is data, so "0.2#x" is rejected
        table = np.loadtxt(
            rows, delimiter=",", comments=None, ndmin=2,
            usecols=(index["scattering_length_a0"], index["z"]),
        ) if rows else np.empty((0, 2))
    except ValueError:
        raise ValueError(f"{path}: non-numeric data") from None
    a, z = table.T
    uniq = np.unique(a)
    records = tuple(z[a == value] for value in uniq)
    return MeasurementSeries(
        scattering_lengths=uniq, records=records, rng_seed=-1
    )
