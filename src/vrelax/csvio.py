"""Deterministic CSV emission for rate tables, matrices and trajectories.

Every writer in this module honors the same byte-determinism contract: the
same objects produce the same bytes on every run and platform.  That means
shortest round-trip ``repr`` for floats, a bare ``\\n`` line terminator (the
``csv`` module would otherwise emit ``\\r\\n``), canonical row ordering that
never depends on dict iteration history, and no timestamps or environment
echoes.  Context that would break determinism has no place here; callers pass
it as comment lines, which are written verbatim with a leading ``# ``.

Trajectories and matrices are written 64 rows at a time, one ``"".join`` of
an object array of cells per chunk, with one ``repr`` per distinct |x|, which
Hermitian partners share (im rho_ji = -im rho_ij, bit for bit).  Where the sign
bit of a non-NaN x is set the cell is ``"-" + repr(|x|)``, which is ``repr(x)``
for every non-NaN x, ±0.0 and ±inf included; a NaN prints ``nan`` whatever its
sign.  Trajectories format only their live columns, those not +0.0 in some
sample, read straight from ``Trajectory.values`` (vec entry p is re/im columns
2p and 2p + 1); the runs of ``"0.0"`` between them are built once.  Matrix
cells that are +0.0 are not formatted.  Density matrices and trajectories take
one basis label per state, else ``ValueError``.

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

# rows per chunk: a 1501-sample sodium evolve peaks at 40.7 MB RSS, +0.1 MB with
# 64 rows, +3.8 MB with 256 and +29 MB with all at once; 32 to 128 run as fast
_CHUNK = 64

RATE_COLUMNS = ("kind", "j1", "F1", "M1", "j2", "F2", "M2", "Md1", "Md2", "re", "im")


def _num(value) -> str:
    return repr(float(value))


def _repr_cells(values: np.ndarray) -> np.ndarray:
    """``_num`` of every float of ``values``, with one ``repr`` per distinct |x|."""
    distinct, inverse = np.unique(np.abs(values).view(np.uint64), return_inverse=True)
    texts = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    cells = texts[inverse.reshape(values.shape)]
    negative = np.signbit(values) & ~np.isnan(values)
    cells[negative] = "-" + cells[negative]
    return cells


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


def _table_rows(label: str, rates: RateSet, table: str, cells: dict) -> list[tuple]:
    """Rows of one table, in basis order of the sublevels each key names.

    ``cells`` is ``_sublevel_cells`` of the set's own basis.  Each half of a
    key fills j, F and M from its first sublevel and Md from its last:
    (upper, ground) for feeding keys, one sublevel otherwise.
    """
    entries = sorted(
        ([cells[sublevel] for sublevel in sublevels], value)
        for sublevels, value in rates.entries(table)
    )
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
        cells = _sublevel_cells(Basis.for_scheme(rates.scheme))
        for table in ("upper", "feeding", "ground"):
            writer.writerows(_table_rows(label, rates, table, cells))


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


def _write_matrix_rows(stream, header: tuple[str, str], matrix) -> None:
    """Header plus one ``row,col,re,im`` line per entry of a dense 2-D array,
    row-major; real input is written with a 0.0 imaginary part."""
    _writer(stream).writerow((*header, "re", "im"))
    arr = np.ascontiguousarray(matrix, dtype=complex)
    floats = arr.view(np.float64).reshape(*arr.shape, 2)
    cells = np.empty((_CHUNK, arr.shape[1], 6), dtype=object)  # row ",col," re "," im "\n"
    fixed = [[f",{col},", ",", "\n"] for col in range(arr.shape[1])]
    cells[:, :, 1::2] = np.array(fixed, dtype=object).reshape(-1, 3)
    rows = np.array([[str(row)] for row in range(len(arr))], dtype=object)
    for start in range(0, len(arr), _CHUNK):
        block, chunk = floats[start : start + _CHUNK], cells[: len(arr) - start]
        chunk[:, :, 0] = rows[start : start + _CHUNK]
        chunk[:, :, 2::2] = "0.0"
        written = (block != 0.0) | np.signbit(block)  # 99.6 % of sodium's cells are +0.0
        chunk[:, :, 2::2][written] = _repr_cells(block[written])
        stream.write("".join(chunk.ravel().tolist()))


def write_superoperator(stream, superop, *, comments: Sequence[str] = ()) -> None:
    """Emit the dense n^2 x n^2 superoperator matrix, every entry listed.

    Row/column indices follow the row-major vectorization vec(rho)[i*n + j] =
    rho[i, j] over the basis spelled out in the legend block.
    """
    labels = superop.basis.labels()
    _write_comments(stream, comments)
    _write_comments(stream, [f"label: {superop.label}"])
    _write_comments(stream, ["vec convention: row-major, vec index = i*n + j"])
    _write_comments(stream, _basis_legend(labels))
    _write_matrix_rows(stream, ("row", "col"), superop.matrix.toarray())


def write_density_matrix(
    stream,
    rho: np.ndarray,
    labels: Sequence[str],
    *,
    comments: Sequence[str] = (),
) -> None:
    """Emit a density matrix as dense (i, j, re, im) rows with a basis legend."""
    if np.shape(rho) != (len(labels),) * 2:
        raise ValueError(f"{len(labels)} basis labels for a state of shape {np.shape(rho)}")
    _write_comments(stream, comments)
    _write_comments(stream, _basis_legend(labels))
    _write_matrix_rows(stream, ("i", "j"), rho)


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
    if trajectory.n != n:
        raise ValueError(f"{n} basis labels for states of shape {(trajectory.n,) * 2}")
    _write_comments(stream, comments)
    _write_comments(stream, _basis_legend(labels))
    if populations_only:
        header = [f"pop_{i}" for i in range(n)]
        values, columns = trajectory.populations(), np.arange(n)
    else:
        header = [f"{part}_{i}_{j}" for i in range(n) for j in range(n) for part in ("re", "im")]
        values = np.ascontiguousarray(trajectory.values, dtype=complex).view(np.float64)
        columns = (2 * trajectory.positions[:, None] + np.arange(2)).reshape(-1)  # re, im
    _writer(stream).writerow(["t", *header])
    live = np.flatnonzero(np.bitwise_or.reduce(values.view(np.uint64), axis=0))
    gaps = (np.diff(columns[live], prepend=-1, append=len(header)) - 1).tolist()
    # even cells: t and the live values; odd cells: the runs of "0.0" between them
    cells = np.empty((_CHUNK, 2 * live.size + 2), dtype=object)
    ends = [","] * live.size + ["\n"]
    cells[:, 1::2] = np.array([",0.0" * gap + end for gap, end in zip(gaps, ends)], dtype=object)
    times = np.asarray(trajectory.times, dtype=float)
    for start in range(0, len(times), _CHUNK):
        chunk, stop = cells[: len(times) - start], start + _CHUNK
        chunk[:, 0::2] = _repr_cells(np.column_stack((times[start:stop], values[start:stop, live])))
        stream.write("".join(chunk.ravel().tolist()))
