"""Spans recorded from outside the program, around calls into its layers.

While a :class:`Tracer` is installed, every function named in ``SPANNED`` is
replaced, in every loaded ``vrelax`` module that refers to it, by a wrapper
that records one span per call: name, start, end, parent span and operation
id.  Calls made inside a layer through its own module globals are wrapped
too, so nesting is kept (``rates_stimulated`` contains its ``k_stimulated``
and ``rates_fine`` calls).  Spans stay in memory and are written out once,
when the run ends.

The angular functions (``clebsch_gordan``, ``wigner_6j``) are not wrapped:
they are called thousands of times per rate table at about a microsecond
each, so a span would cost more than the call.  The angular layer is measured
instead as the cold-minus-warm time of the first rate assembly (see probe.py).
"""

from __future__ import annotations

import inspect
import sys
import time

import numpy as np

# layer -> public functions of that layer that get a span
# (only functions the three workloads reach; config parsing, basis and
# Hamiltonian set-up stay inside the operation's own self time)
SPANNED = {
    "environment": ("k_spontaneous", "k_stimulated"),
    "operators": (
        "rates_fine",
        "rates_hyperfine",
        "rates_stimulated",
        "interference_report",
        "build_relaxation_superop",
        "build_stimulated_superop",
    ),
    "dynamics": ("propagate", "steady_state"),
    "csvio": ("write_trajectory", "write_density_matrix"),
}

RATES_FUNCTIONS = ("rates_fine", "rates_hyperfine", "rates_stimulated")
SUPEROP_FUNCTIONS = ("build_relaxation_superop", "build_stimulated_superop")
GENERATOR_FUNCTIONS = ("propagate", "steady_state")


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        # each span: [name, start, end, parent index or None, op id, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # generator inputs kept per op so their nonzero count is taken after
        # the op span closes, outside every timed interval
        self.pending_generators: list[tuple[object, list]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, op_id: int) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, op_id, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, func):
        tracer = self
        signature = inspect.signature(func)

        def spanned(*args, **kwargs):
            op_id = tracer.spans[tracer._stack[0]][4] if tracer._stack else -1
            index = tracer.begin(name, op_id)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer._annotate(index, name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return spanned

    def _annotate(self, index: int, name: str, arguments: dict, result) -> None:
        attrs = self.spans[index][5]
        if name in RATES_FUNCTIONS:
            ground = result.ground or {}
            attrs["entries"] = len(result.upper) + len(result.feeding) + len(ground)
        elif name in SUPEROP_FUNCTIONS:
            attrs["bytes"] = matrix_bytes(result.matrix)
        elif name == "propagate":
            attrs["steps"] = int(round(arguments["t_final"] / arguments["dt"]))
        if name in GENERATOR_FUNCTIONS:
            self.pending_generators.append(
                (arguments["hamiltonian"], list(arguments["superops"]))
            )

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Replace every spanned function in every loaded vrelax module."""
        modules = [
            module
            for key, module in sys.modules.items()
            if key == "vrelax" or key.startswith("vrelax.")
        ]
        for layer, names in SPANNED.items():
            home = sys.modules.get(f"vrelax.{layer}")
            if home is None:  # never imported, so never called
                continue
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()


# The two helpers below accept dense and scipy-sparse superoperators alike,
# so the counts keep working if the program changes its storage format.


def dense(matrix) -> np.ndarray:
    """A dense ndarray from a dense or scipy-sparse matrix."""
    return matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix)


def matrix_bytes(matrix) -> int:
    """Computed bytes of a dense or compressed-sparse matrix's arrays."""
    if isinstance(matrix, np.ndarray):
        return int(matrix.nbytes)
    parts = (getattr(matrix, key, None) for key in ("data", "indices", "indptr", "row", "col"))
    return sum(int(part.nbytes) for part in parts if isinstance(part, np.ndarray))


def generator_nnz(hamiltonian, superops) -> tuple[int, int]:
    """Nonzeros of the full generator -i[H, .] + sum L, and the state dimension."""
    diag = np.asarray(hamiltonian.diagonal, dtype=float)
    n = diag.size
    gen = sum(dense(op.matrix).astype(complex) for op in superops)
    gen = gen + np.diag(-1j * (diag[:, None] - diag[None, :]).reshape(n * n))
    return int(np.count_nonzero(gen)), n


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, (_name, start, end, _parent, _op, _attrs) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def accounting_defects(spans: list[list], selfs: list[float]) -> list[float]:
    """Per span: |direct children + self time - duration|, in seconds.

    Zero (to rounding) exactly when the children lie inside the span and do
    not overlap one another, which is what the layer attribution assumes.
    """
    child_total = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child_total[span[3]] += span[2] - span[1]
    return [abs(child_total[i] + selfs[i] - (span[2] - span[1])) for i, span in enumerate(spans)]
