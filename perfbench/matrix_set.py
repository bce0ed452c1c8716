"""The seeded matrix set that every workload shares.

The benchmark generates the set from its seed and writes it as ``.mtx``
files; the workloads only ever see those files.  The generator's triplets
are kept in memory as the independent reference for the correctness gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spmvtune import generate, mmio


@dataclass(frozen=True)
class MatrixSpec:
    kind: str
    nrows: int
    nnz_per_row: int
    ncols: int | None = None  # None: square

    @property
    def filename(self) -> str:
        return f"{self.kind}.mtx"


# Working sets with 32-bit indices (see features.working_set_bytes):
#   irregular    3k x 2.2M, 8/row:  ~17.9 MB, above the 16 MiB default llc_bytes
#   banded       4k x 4k, 48/row:   ~2.4 MB, above the 2 MiB L2
#   skewed       4k x 4k, ~8/row:   ~0.5 MB, below L2
#   small-dense  1k x 1k, 16/row:   ~0.2 MB, below L2
# The kernels loop over rows in Python, so rows set the cost of a pass.  The
# wide irregular matrix crosses llc_bytes through its x vector and the
# banded one crosses L2 through its row length, which keeps the set small
# enough for many passes per run while the ``size`` feature takes both values.
FULL_SET = (
    MatrixSpec("irregular", 3_000, 8, ncols=2_200_000),
    MatrixSpec("banded", 4_000, 48),
    MatrixSpec("skewed", 4_000, 8),
    MatrixSpec("small-dense", 1_000, 16),
)

# Tiny set for the self-tests: same kinds, milliseconds per pass.
SMOKE_SET = (
    MatrixSpec("irregular", 300, 4, ncols=3_000),
    MatrixSpec("banded", 300, 5),
    MatrixSpec("skewed", 300, 4),
    MatrixSpec("small-dense", 60, 8),
)


@dataclass
class MatrixFile:
    kind: str
    path: Path
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    nrows: int
    ncols: int


def write_set(specs, seed: int, directory: Path, tracer) -> list[MatrixFile]:
    """Generate every matrix of ``specs`` from ``seed`` and write it as .mtx."""
    seeds = np.random.SeedSequence(seed).generate_state(len(specs))
    out = []
    for spec, s in zip(specs, seeds):
        t = tracer.call(generate.generate_matrix, spec.kind, spec.nrows,
                        spec.nnz_per_row, int(s), ncols=spec.ncols)
        path = directory / spec.filename
        tracer.call(mmio.write_matrix_market, path, t)
        out.append(MatrixFile(spec.kind, path, t.rows, t.cols, t.vals,
                              t.nrows, t.ncols))
    return out
