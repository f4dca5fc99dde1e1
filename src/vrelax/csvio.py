"""Deterministic CSV emission for rate tables, matrices and trajectories.

Every writer in this module honors the same byte-determinism contract: the
same objects produce the same bytes on every run and platform.  That means
shortest round-trip ``repr`` for floats, a bare ``\\n`` line terminator (the
``csv`` module would otherwise emit ``\\r\\n``), canonical row ordering that
never depends on dict iteration history, and no timestamps or environment
echoes.  Context that would break determinism has no place here; callers pass
it as comment lines, which are written verbatim with a leading ``# ``.

Rate-table rows come in basis order: sorted by the basis positions of the
sublevels each key names, in key order (``RateSet.entries`` reads the keys;
the layout is documented once, in ``operators``).  Their cells are formatted
from the same sublevel tuples, so this module never parses a key.

Delimiter is ``,``, decimal mark is ``.``, one header row per file, UTF-8
(the caller owns the stream encoding).
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

import numpy as np

from .operators import GROUND_LEVEL, Basis, RateSet

__all__ = [
    "RATE_COLUMNS",
    "write_rate_tables",
    "write_kmatrix",
    "write_superoperator",
    "write_density_matrix",
    "write_trajectory",
]

RATE_COLUMNS = ("kind", "j1", "F1", "M1", "j2", "F2", "M2", "Md1", "Md2", "re", "im")


def _num(value) -> str:
    return repr(float(value))


def _write_comments(stream, comments: Iterable[str]) -> None:
    for line in comments:
        stream.write(f"# {line}\n")


def _writer(stream) -> "csv.writer":
    return csv.writer(stream, lineterminator="\n")


# ---------------------------------------------------------------------------
# rate tables


def _sublevel_cells(basis: Basis) -> dict[tuple, tuple[int, str, str, str, str]]:
    """Basis position and (j, F, M, Md) cells of every sublevel of the basis.

    An excited sublevel fills j, F and M (F empty for fine structure); a
    ground sublevel fills j and Md, as "Md" or, with hyperfine structure,
    "Fd:Md".
    """
    cells = {}
    for position, sublevel in enumerate(basis.sublevels):
        level, *numbers = sublevel
        if level == GROUND_LEVEL:
            cells[sublevel] = (position, level, "", "", ":".join(map(str, numbers)))
        else:
            f, m = ":".join(map(str, numbers[:-1])), str(numbers[-1])
            cells[sublevel] = (position, level, f, m, "")
    return cells


def _table_rows(label: str, rates: RateSet, table: str, basis: Basis) -> list[tuple]:
    """Rows of one table, in basis order of the sublevels each key names.

    Each half of a key fills j, F and M from its first sublevel and Md from
    its last: (upper, ground) for feeding keys, one sublevel otherwise.
    """
    cells = _sublevel_cells(basis)
    try:
        entries = sorted(
            ([cells[sublevel] for sublevel in sublevels], value)
            for sublevels, value in rates.entries(table)
        )
    except KeyError as missing:
        basis.position(missing.args[0])  # raises the SchemeError naming the sublevel
        raise
    rows = []
    for named, value in entries:
        half = len(named) // 2
        (_, j1, f1, m1, _), (_, j2, f2, m2, _) = named[0], named[half]
        md1, md2 = named[half - 1][-1], named[-1][-1]
        value = complex(value)
        rows.append(
            (f"{label}-{table}", j1, f1, m1, j2, f2, m2, md1, md2,
             _num(value.real), _num(value.imag))
        )
    return rows


def write_rate_tables(
    stream,
    labeled_sets: Sequence[tuple[str, RateSet]],
    *,
    comments: Sequence[str] = (),
) -> None:
    """Emit one or more rate sets as a flat CSV table.

    ``labeled_sets`` pairs a provenance label ("spontaneous", "stimulated",
    "injected") with the set; the label prefixes the ``kind`` column so rows
    from different sets never collide.  Hyperfine feeding rows pack the
    ground sublevel as ``F:M`` into the Md columns (noted in the header
    comments by the caller).
    """
    _write_comments(stream, comments)
    writer = _writer(stream)
    writer.writerow(RATE_COLUMNS)
    for label, rates in labeled_sets:
        basis = Basis.for_scheme(rates.scheme)
        for table in ("upper", "feeding", "ground"):
            writer.writerows(_table_rows(label, rates, table, basis))


# ---------------------------------------------------------------------------
# matrices


def write_kmatrix(stream, kmatrix, *, comments: Sequence[str] = ()) -> None:
    """Emit a 3x3 helicity matrix, rows in (sigma, sigma') = (-1,0,+1)^2 order."""
    _write_comments(stream, comments)
    writer = _writer(stream)
    writer.writerow(("sigma1", "sigma2", "re", "im"))
    for sigma1 in (-1, 0, 1):
        for sigma2 in (-1, 0, 1):
            value = kmatrix.entry(sigma1, sigma2)
            writer.writerow((sigma1, sigma2, _num(value.real), _num(value.imag)))


def _basis_legend(labels: Sequence[str]) -> list[str]:
    return [f"basis {i}: {label}" for i, label in enumerate(labels)]


def write_superoperator(stream, superop, *, comments: Sequence[str] = ()) -> None:
    """Emit the dense n^2 x n^2 superoperator matrix, every entry listed.

    Row/column indices follow the row-major vectorization vec(rho)[i*n + j] =
    rho[i, j] over the basis spelled out in the legend block.
    """
    labels = superop.basis.labels()
    n = len(labels)
    _write_comments(stream, comments)
    _write_comments(stream, [f"label: {superop.label}"])
    _write_comments(stream, ["vec convention: row-major, vec index = i*n + j"])
    _write_comments(stream, _basis_legend(labels))
    _writer(stream).writerow(("row", "col", "re", "im"))
    cells = [f",{col}," for col in range(n * n)]
    for row, values in enumerate(superop.matrix.toarray()):
        # re and im interleaved, as Python floats whose repr is what _num writes
        parts = map(repr, values.view(np.float64).tolist())
        stream.write(
            "".join([f"{row}{cell}{re},{im}\n" for cell, re, im in zip(cells, parts, parts)])
        )


def write_density_matrix(
    stream,
    rho: np.ndarray,
    labels: Sequence[str],
    *,
    comments: Sequence[str] = (),
) -> None:
    """Emit a density matrix as dense (i, j, re, im) rows with a basis legend."""
    _write_comments(stream, comments)
    _write_comments(stream, _basis_legend(labels))
    writer = _writer(stream)
    writer.writerow(("i", "j", "re", "im"))
    arr = np.asarray(rho)
    for i in range(arr.shape[0]):
        for j in range(arr.shape[1]):
            value = arr[i, j]
            writer.writerow((i, j, _num(value.real), _num(value.imag)))


# ---------------------------------------------------------------------------
# trajectories


def write_trajectory(
    stream,
    trajectory,
    labels: Sequence[str],
    *,
    populations_only: bool = False,
    comments: Sequence[str] = (),
) -> None:
    """Emit a propagation trajectory.

    Full mode: ``t`` followed by re/im of every matrix element in basis
    order, row-major.  Compact mode (``populations_only``): ``t`` followed by
    the real diagonal, one column per sublevel.
    """
    n = len(labels)
    _write_comments(stream, comments)
    _write_comments(stream, _basis_legend(labels))
    writer = _writer(stream)
    # one string per sample; repr of a Python float is what _num writes
    if populations_only:
        writer.writerow(["t"] + [f"pop_{i}" for i in range(n)])
        for t, state in trajectory:
            values = np.real(np.diagonal(state)).astype(float).tolist()
            stream.write(",".join(map(repr, [float(t), *values])) + "\n")
        return
    header = ["t"]
    for i in range(n):
        for j in range(n):
            header.append(f"re_{i}_{j}")
            header.append(f"im_{i}_{j}")
    writer.writerow(header)
    for t, state in trajectory:
        values = np.ascontiguousarray(state, dtype=complex).view(np.float64).ravel().tolist()
        stream.write(",".join(map(repr, [float(t), *values])) + "\n")
