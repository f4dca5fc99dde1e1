"""Deterministic CSV emission for rate tables, matrices and trajectories.

Every writer in this module honors the same byte-determinism contract: the
same objects produce the same bytes on every run and platform.  That means
shortest round-trip ``repr`` for floats, a bare ``\\n`` line terminator (the
``csv`` module would otherwise emit ``\\r\\n``), canonical row ordering that
never depends on dict iteration history, and no timestamps or environment
echoes.  Context that would break determinism has no place here; callers pass
it as comment lines, which are written verbatim with a leading ``# ``.

Delimiter is ``,``, decimal mark is ``.``, one header row per file, UTF-8
(the caller owns the stream encoding).
"""

from __future__ import annotations

import csv
from typing import Iterable, Sequence

import numpy as np

from .operators import RateSet

__all__ = [
    "RATE_COLUMNS",
    "write_rate_tables",
    "write_kmatrix",
    "write_superoperator",
    "write_density_matrix",
    "write_trajectory",
]

RATE_COLUMNS = ("kind", "j1", "F1", "M1", "j2", "F2", "M2", "Md1", "Md2", "re", "im")

_LEVEL_POS = {"d": 0, "c": 1, "b": 2}


def _num(value) -> str:
    return repr(float(value))


def _write_comments(stream, comments: Iterable[str]) -> None:
    for line in comments:
        stream.write(f"# {line}\n")


def _writer(stream) -> "csv.writer":
    return csv.writer(stream, lineterminator="\n")


# ---------------------------------------------------------------------------
# rate tables


def _upper_rows(label: str, rates: RateSet) -> list[tuple]:
    rows = []
    if rates.hyperfine:
        for key in sorted(
            rates.upper,
            key=lambda k: (
                _LEVEL_POS[k[0]], k[1].twice, k[2].twice,
                _LEVEL_POS[k[3]], k[4].twice, k[5].twice,
            ),
        ):
            j1, f1, m1, j2, f2, m2 = key
            value = complex(rates.upper[key])
            rows.append(
                (f"{label}-upper", j1, str(f1), str(m1), j2, str(f2), str(m2),
                 "", "", _num(value.real), _num(value.imag))
            )
    else:
        for key in sorted(
            rates.upper,
            key=lambda k: (_LEVEL_POS[k[0]], k[1].twice, _LEVEL_POS[k[2]], k[3].twice),
        ):
            j1, m1, j2, m2 = key
            value = complex(rates.upper[key])
            rows.append(
                (f"{label}-upper", j1, "", str(m1), j2, "", str(m2),
                 "", "", _num(value.real), _num(value.imag))
            )
    return rows


def _feeding_rows(label: str, rates: RateSet) -> list[tuple]:
    rows = []
    if rates.hyperfine:
        # the ground sublevel of a hyperfine channel needs both F_d and M_d;
        # the Md columns carry them as one "F:M" cell so the column set stays
        # identical to the fine-structure layout
        for key in sorted(
            rates.feeding,
            key=lambda k: (
                _LEVEL_POS[k[0]], k[1].twice, k[2].twice, k[3].twice, k[4].twice,
                _LEVEL_POS[k[5]], k[6].twice, k[7].twice, k[8].twice, k[9].twice,
            ),
        ):
            j1, f1, m1, fd1, md1, j2, f2, m2, fd2, md2 = key
            value = complex(rates.feeding[key])
            rows.append(
                (f"{label}-feeding", j1, str(f1), str(m1), j2, str(f2), str(m2),
                 f"{fd1}:{md1}", f"{fd2}:{md2}", _num(value.real), _num(value.imag))
            )
    else:
        for key in sorted(
            rates.feeding,
            key=lambda k: (
                _LEVEL_POS[k[0]], k[1].twice, k[2].twice,
                _LEVEL_POS[k[3]], k[4].twice, k[5].twice,
            ),
        ):
            j1, m1, md1, j2, m2, md2 = key
            value = complex(rates.feeding[key])
            rows.append(
                (f"{label}-feeding", j1, "", str(m1), j2, "", str(m2),
                 str(md1), str(md2), _num(value.real), _num(value.imag))
            )
    return rows


def _ground_rows(label: str, rates: RateSet) -> list[tuple]:
    if rates.ground is None:
        return []
    rows = []
    for key in sorted(rates.ground, key=lambda k: (k[0].twice, k[1].twice)):
        md1, md2 = key
        value = complex(rates.ground[key])
        rows.append(
            (f"{label}-ground", "d", "", "", "d", "", "",
             str(md1), str(md2), _num(value.real), _num(value.imag))
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
        writer.writerows(_upper_rows(label, rates))
        writer.writerows(_feeding_rows(label, rates))
        writer.writerows(_ground_rows(label, rates))


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
