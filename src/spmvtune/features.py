"""Structural feature extraction for sparse matrices.

Fourteen features summarize a matrix in a single pass over the row pointer
and column index arrays (Theta(N + NNZ) work):

* ``size``: 1 when the SpMV working set fits in the last-level cache.
* ``density``: NNZ / (N * M).
* ``nnz_{min,max,avg,sd}``: per-row nonzero-count statistics.
* ``bw_{min,max,avg,sd}``: per-row column span (last col - first col).
* ``dispersion_{avg,sd}``: per-row fill of the occupied span,
  nnz_i / (bw_i + 1).
* ``clustering``: mean over rows of (groups of consecutive columns) / nnz_i.
* ``miss_ratio``: mean over rows of the count of elements whose column gap
  from the previous element exceeds one cache line of values.

Empty rows contribute zeros to every per-row quantity but still count in
the N-denominator averages.  Standard deviations are population ones
(divide by N).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import bodies
from .csr import CsrMatrix

# Matrix values are float64: CsrMatrix stores them as such.
_VALUE_BYTES = 8


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry the size and miss features are computed against."""

    llc_bytes: int
    cacheline_bytes: int = 64

    def __post_init__(self):
        if self.llc_bytes <= 0 or self.cacheline_bytes <= 0:
            raise ValueError("llc_bytes and cacheline_bytes must be positive")
        if self.cacheline_bytes % _VALUE_BYTES:
            raise ValueError(f"cacheline_bytes must be divisible by {_VALUE_BYTES}")

    @property
    def line_values(self) -> int:
        """Number of matrix values that fit in one cache line."""
        return self.cacheline_bytes // _VALUE_BYTES


@dataclass(frozen=True)
class FeatureVector:
    size: int
    density: float
    nnz_min: float
    nnz_max: float
    nnz_avg: float
    nnz_sd: float
    bw_min: float
    bw_max: float
    bw_avg: float
    bw_sd: float
    dispersion_avg: float
    dispersion_sd: float
    clustering: float
    miss_ratio: float


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))

# Per-platform feature subsets that worked well in practice.  "tree"
# presets feed the decision tree, "nb" presets the Gaussian naive Bayes;
# manycore targets have far more threads and costlier cache misses than
# multicore ones.
FEATURE_SUBSETS: dict[str, tuple[str, ...]] = {
    "all": FEATURE_NAMES,
    "manycore-tree": ("size", "bw_avg", "bw_sd", "nnz_min", "nnz_max",
                      "nnz_avg", "nnz_sd", "miss_ratio", "dispersion_sd"),
    "manycore-nb": ("nnz_min", "nnz_max", "nnz_sd", "bw_avg",
                    "dispersion_avg", "dispersion_sd"),
    "multicore-tree": ("size", "bw_avg", "bw_sd", "nnz_min", "nnz_max",
                       "nnz_avg", "nnz_sd", "dispersion_sd", "miss_ratio"),
    "multicore-nb": ("size", "nnz_min", "nnz_max"),
}


def working_set_bytes(a: CsrMatrix, cfg: CacheConfig) -> int:
    """Bytes touched by one SpMV: nonzeros, indices and both dense vectors.

    Indices take the matrix's own width: 4 bytes for 32-bit, 8 for 64-bit.
    """
    ib = a.index_width // 8
    return (_VALUE_BYTES * a.nnz + ib * a.nnz + ib * (a.nrows + 1)
            + _VALUE_BYTES * (a.nrows + a.ncols))


def extract_features(a: CsrMatrix, cfg: CacheConfig) -> FeatureVector:
    if a.nrows < 1 or a.ncols < 1:
        raise ValueError("feature extraction needs at least one row and column")
    n = a.nrows
    counts = a.row_nnz()
    nonempty = counts > 0
    nnz = a.nnz

    # The per-row integers come from one pass over the indices; the means
    # and deviations below stay in numpy on either backend.
    span, groups, misses_total = bodies.row_structure(a, cfg.line_values)
    bw = span.astype(np.float64)
    disp = counts / (bw + 1.0)  # 0 / 1 on an empty row
    clust = np.divide(groups, counts, out=np.zeros(n), where=nonempty)

    counts_f = counts.astype(np.float64)
    ws = working_set_bytes(a, cfg)
    return FeatureVector(
        size=1 if ws <= cfg.llc_bytes else 0,
        density=nnz / (n * a.ncols),
        nnz_min=float(counts_f.min()),
        nnz_max=float(counts_f.max()),
        nnz_avg=float(counts_f.mean()),
        nnz_sd=float(counts_f.std()),
        bw_min=float(bw.min()),
        bw_max=float(bw.max()),
        bw_avg=float(bw.mean()),
        bw_sd=float(bw.std()),
        dispersion_avg=float(disp.mean()),
        dispersion_sd=float(disp.std()),
        clustering=float(clust.mean()),
        miss_ratio=misses_total / n,
    )


def select_features(fv: FeatureVector, subset) -> np.ndarray:
    """Pick feature values in the requested order."""
    unknown = [name for name in subset if name not in FEATURE_NAMES]
    if unknown:
        raise ValueError(f"unknown feature name(s): {', '.join(unknown)}")
    return np.array([float(getattr(fv, name)) for name in subset],
                    dtype=np.float64)


def resolve_subset(subset: str) -> tuple[str, ...]:
    """Resolve a preset name or a comma-separated feature list."""
    if subset in FEATURE_SUBSETS:
        return FEATURE_SUBSETS[subset]
    names = tuple(name.strip() for name in subset.split(",") if name.strip())
    unknown = [name for name in names if name not in FEATURE_NAMES]
    if not names or unknown:
        raise ValueError(
            f"unknown feature subset {subset!r}; use a preset "
            f"({', '.join(FEATURE_SUBSETS)}) or a comma-separated feature list")
    return names
