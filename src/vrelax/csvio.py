"""Deterministic CSV emission for rate tables, matrices and trajectories.

Every writer in this module honors the same byte-determinism contract: the
same objects produce the same bytes on every run and platform.  That means
shortest round-trip ``repr`` for floats, a bare ``\\n`` line terminator,
canonical row ordering that never depends on dict iteration history, and no
timestamps or environment echoes.  Context that would break determinism has no
place here; callers pass it as comment lines, which are written verbatim with
a leading ``# ``.  Every line is joined here with ``,``: no cell holds a comma,
a quote or a line break, so no cell needs CSV quoting.

Every float cell comes from one formatter, ``_repr_cells``, with one ``repr``
per distinct |x| of the array it is given, which Hermitian partners share (im
rho_ji = -im rho_ij, bit for bit).  Where the sign bit of a non-NaN x is set
the cell is ``"-" + repr(|x|)``, which is ``repr(x)`` for every non-NaN x, ±0.0
and ±inf included; a NaN prints ``nan`` whatever its sign.  Trajectories and
matrices are written 64 rows at a time, one ``"".join`` of an object array of
cells per chunk.  Trajectories format only their live columns, those not +0.0 in some
sample, read straight from ``Trajectory.values`` (vec entry p is re/im columns
2p and 2p + 1); the runs of ``"0.0"`` between them are built once.  Matrices arrive
as triplets, a ``SparseMatrix`` (of rho and K, the entries not +0.0), and only those
are formatted.  A density matrix or trajectory needs one label per state (``ValueError``).

Rate tables are written from their rows (``RateSet.rows``: the basis positions
of the sublevels each key names, in key order, and the values; the key layout
is documented once, in ``operators``).  Each table's rows are sorted by their
positions, in key order, with one ``np.lexsort``, and their text cells are
those of each position's sublevel, built once per set, so this module makes
and parses no key.

Delimiter is ``,``, decimal mark is ``.``, one header row per file, UTF-8
(the caller owns the stream encoding).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .operators import GROUND_LEVEL, Basis, RateSet, SparseMatrix

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


def _repr_cells(values: np.ndarray) -> np.ndarray:
    """``repr`` of every float of ``values``, with one ``repr`` per distinct |x|."""
    distinct, inverse = np.unique(np.abs(values).view(np.uint64), return_inverse=True)
    texts = np.array([repr(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    cells = texts[inverse.reshape(values.shape)]
    negative = np.signbit(values) & ~np.isnan(values)
    cells[negative] = "-" + cells[negative]
    return cells


def _write_comments(stream, comments: Iterable[str]) -> None:
    for line in comments:
        stream.write(f"# {line}\n")


# ---------------------------------------------------------------------------
# rate tables


def _basis_cells(basis: Basis) -> np.ndarray:
    """The (j, F, M, Md) cells of every basis position, an (n, 4) object array.

    An excited sublevel fills j, F and M (F empty for fine structure); a
    ground sublevel fills j and Md, as "Md" or, with hyperfine structure,
    "Fd:Md".
    """
    cells = []
    for level, *numbers in basis.sublevels:
        if level == GROUND_LEVEL:
            cells.append((level, "", "", ":".join(map(str, numbers))))
        else:
            cells.append((level, ":".join(map(str, numbers[:-1])), str(numbers[-1]), ""))
    return np.array(cells, dtype=object).reshape(-1, 4)


def _table_text(kind: str, rows: tuple[np.ndarray, np.ndarray], cells: np.ndarray) -> str:
    """The lines of one table's ``rows``, sorted by their basis positions in key order.
    Each half of a row ((upper, ground) for feeding, else one position) fills j, F and M
    from the ``_basis_cells`` of its first position and Md from those of its last."""
    at, values = rows
    order = np.lexsort(at.T[::-1])  # the last key is the primary one
    at, values = at[order], values[order]
    half = at.shape[1] // 2
    lines = np.empty((len(at), 11), dtype=object)
    lines[:, 0] = kind
    lines[:, 1:7] = cells[at[:, [0, half]], :3].reshape(-1, 6)
    lines[:, 7:9] = cells[at[:, [half - 1, -1]], 3]
    lines[:, 9:] = _repr_cells(values.view(np.float64).reshape(-1, 2))  # re, im
    return "".join(",".join(line) + "\n" for line in lines.tolist())


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
    stream.write(",".join(RATE_COLUMNS) + "\n")
    for label, rates in labeled_sets:
        cells = _basis_cells(Basis.for_scheme(rates.scheme))
        for table in ("upper", "feeding", "ground"):
            stream.write(_table_text(f"{label}-{table}", rates.rows(table), cells))


# ---------------------------------------------------------------------------
# matrices


def write_kmatrix(stream, kmatrix, *, comments: Sequence[str] = ()) -> None:
    """Emit a 3x3 helicity matrix, rows in (sigma, sigma') = (-1,0,+1)^2 order."""
    _write_comments(stream, comments)
    _write_matrix_rows(stream, ("sigma1", "sigma2"), _triplets(kmatrix.entries), (-1, 0, 1))


def _basis_legend(labels: Sequence[str]) -> list[str]:
    return [f"basis {i}: {label}" for i, label in enumerate(labels)]


def _triplets(matrix: np.ndarray) -> SparseMatrix:
    """The entries of a dense 2-D array that are not +0.0, row-major."""
    arr = np.ascontiguousarray(matrix, dtype=complex)
    row, col = np.nonzero(arr.view(np.uint64).reshape(*arr.shape, 2).any(axis=2))
    return SparseMatrix(row, col, arr[row, col], arr.shape)


def _write_matrix_rows(stream, header: tuple[str, str], matrix: SparseMatrix, names) -> None:
    """Header plus one ``row,col,re,im`` line per cell of a square ``matrix``, row-major,
    its rows and columns named by ``names``; a cell it does not store is 0.0."""
    # ravel_multi_index refuses an entry outside; one out of order would land in a wrong cell
    if np.any(np.diff(np.ravel_multi_index((matrix.row, matrix.col), matrix.shape)) <= 0):
        raise ValueError("a SparseMatrix must be sorted by row then column, each entry once")
    stream.write(",".join((*header, "re", "im")) + "\n")
    floats = np.asarray(matrix.data, dtype=complex).view(np.float64).reshape(-1, 2)
    cells = np.empty((_CHUNK, len(names), 6), dtype=object)  # row ",col," re "," im "\n"
    fixed = [[f",{col},", ",", "\n"] for col in names]
    cells[:, :, 1::2] = np.array(fixed, dtype=object).reshape(-1, 3)
    rows = np.array([[str(row)] for row in names], dtype=object)
    for start in range(0, len(names), _CHUNK):
        lo, hi = np.searchsorted(matrix.row, (start, start + _CHUNK))
        chunk = cells[: len(names) - start]
        chunk[:, :, 0] = rows[start : start + _CHUNK]
        chunk[:, :, 2::2] = "0.0"
        chunk[matrix.row[lo:hi] - start, matrix.col[lo:hi], 2::2] = _repr_cells(floats[lo:hi])
        stream.write("".join(chunk.ravel().tolist()))


def write_superoperator(stream, superop, *, comments: Sequence[str] = ()) -> None:
    """Emit the n^2 x n^2 superoperator matrix, every entry listed.

    Row/column indices follow the row-major vectorization vec(rho)[i*n + j] =
    rho[i, j] over the basis spelled out in the legend block.
    """
    labels = superop.basis.labels()
    _write_comments(stream, comments)
    _write_comments(stream, [f"label: {superop.label}"])
    _write_comments(stream, ["vec convention: row-major, vec index = i*n + j"])
    _write_comments(stream, _basis_legend(labels))
    _write_matrix_rows(stream, ("row", "col"), superop.matrix, range(len(labels) ** 2))


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
    _write_matrix_rows(stream, ("i", "j"), _triplets(rho), range(len(labels)))


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
    stream.write(",".join(["t", *header]) + "\n")
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
