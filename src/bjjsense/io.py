"""CSV emission and ingestion.

All tables are UTF-8 CSV with a header row, preceded by ``#`` comment lines
carrying provenance (command, resolved config, seed).  Floats are written
with 17 significant digits so round-trips are exact; writes go to a
temporary file renamed into place on success.
"""

from __future__ import annotations

import itertools
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


def _next_row(fh) -> str | None:
    """The next line of ``fh`` that is neither blank nor a ``#`` comment,
    read with ``readline`` so that ``fh.tell()`` stays available; None at
    the end of the file."""
    for line in iter(fh.readline, ""):
        if line != "\n" and not line.startswith("#"):
            return line
    return None


def read_series_csv(path: str) -> MeasurementSeries:
    """Read a measurement series CSV (columns scattering_length_a0, z).

    A line starting with ``#`` is a comment (as in the tables that
    :func:`write_table` writes), blank lines are skipped and the first other
    line is the header.  The rows stream from the open file into
    ``np.loadtxt``, so the file's text is never held whole; only the two
    columns are kept.  ``np.loadtxt`` skips blank lines itself, so the file
    goes to it as it stands; only where that fails (a ``#`` line between
    rows, or bad data) are the rows parsed again, through a filter that
    drops the comment lines.  Rows are grouped by scattering length, in file
    order within a group; the grid is sorted ascending.
    """
    with open(path, encoding="utf-8") as fh:
        header = _next_row(fh)
        if header is None:
            raise ValueError(f"{path}: no header row")
        index = {name: j for j, name in enumerate(header.rstrip("\n").split(","))}
        for required in ("scattering_length_a0", "z"):
            if required not in index:
                raise ValueError(f"{path}: missing column {required!r}")
        body = fh.tell()  # where the lines after the header start
        # np.loadtxt warns on an empty input, so a header-only file is
        # caught here and fails in MeasurementSeries like any short grid
        first = _next_row(fh)
        # comments=None: a "#" inside a row is data, so "0.2#x" is rejected
        options = dict(delimiter=",", comments=None, ndmin=2,
                       usecols=(index["scattering_length_a0"], index["z"]))
        try:
            if first is None:
                table = np.empty((0, 2))
            else:
                try:
                    table = np.loadtxt(itertools.chain((first,), fh), **options)
                except ValueError:
                    fh.seek(body)
                    table = np.loadtxt((
                        line for line in fh
                        if line != "\n" and not line.startswith("#")
                    ), **options)
        except ValueError:
            raise ValueError(f"{path}: non-numeric data") from None
    # A stable sort keeps each group's rows in file order; np.unique would
    # do the grouping too, but it imports numpy.ma (about 9 ms) on first use.
    order = np.argsort(table[:, 0], kind="stable")
    a, z = table[order].T
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return MeasurementSeries(
        scattering_lengths=a[first],
        records=tuple(np.split(z, np.flatnonzero(first)[1:])),
        rng_seed=-1,
    )
