"""Compressed sparse row matrices and the reference SpMV kernel.

CSR keeps the nonzeros of each row contiguous in memory; a row pointer
array of length ``nrows + 1`` marks row boundaries inside the ``colind``
and ``values`` arrays.  Every kernel in this package runs its partitions
through ``bodies.partition_body``, which sums each row left to right on one
thread on either backend, so for identical inputs the output is
reproducible bit for bit however the rows are partitioned, however many
threads run them and whichever backend runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import bodies

_INDEX_DTYPES = {32: np.int32, 64: np.int64}

# Running count of kernel executions.  Used to demonstrate that feature-based
# advice never touches an SpMV kernel.
_kernel_calls = 0


def kernel_call_count() -> int:
    """Number of SpMV-style kernel executions since import."""
    return _kernel_calls


@dataclass
class TripletList:
    """Unordered (row, col, value) entries, the ingestion intermediate."""

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValueError("rows, cols and vals must have equal length")
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.nrows:
                raise ValueError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= self.ncols:
                raise ValueError("column index out of range")

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> "TripletList":
        rows = np.array([e[0] for e in entries], dtype=np.int64)
        cols = np.array([e[1] for e in entries], dtype=np.int64)
        vals = np.array([e[2] for e in entries], dtype=np.float64)
        return cls(nrows, ncols, rows, cols, vals)

    def __len__(self) -> int:
        return int(self.rows.size)


def _check_rowptr(nrows: int, ncols: int, rowptr: np.ndarray) -> None:
    """The row-pointer rules every sparse format here shares."""
    if nrows < 0 or ncols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if rowptr.shape != (nrows + 1,):
        raise ValueError("rowptr must have length nrows + 1")
    if rowptr[0] != 0:
        raise ValueError("rowptr must start at 0")
    if np.any(np.diff(rowptr) < 0):
        raise ValueError("rowptr must be non-decreasing")


class _RowOf:
    @property
    def nnz(self) -> int:
        return int(self.rowptr[-1])

    @cached_property
    def row_of(self) -> np.ndarray:
        """The row of each nonzero, in ``rowptr``'s dtype; built on first use."""
        ptr = self.rowptr
        return np.repeat(np.arange(ptr.size - 1, dtype=ptr.dtype), np.diff(ptr))


@dataclass(eq=False)
class CsrMatrix(_RowOf):
    """Immutable CSR matrix with 32- or 64-bit index storage.

    Invariants (checked on construction): ``rowptr`` starts at 0, ends at
    NNZ and is non-decreasing; column indices are strictly increasing
    within each row and bounded by ``ncols``.
    """

    nrows: int
    ncols: int
    rowptr: np.ndarray
    colind: np.ndarray
    values: np.ndarray
    index_width: int = 32

    def __post_init__(self):
        if self.index_width not in _INDEX_DTYPES:
            raise ValueError(f"index_width must be 32 or 64, got {self.index_width}")
        dtype = _INDEX_DTYPES[self.index_width]
        # Checked before the cast, which would wrap an oversized index.
        rowptr = np.asarray(self.rowptr)
        nnz = int(rowptr[-1]) if rowptr.size else 0
        if max(self.ncols - 1, nnz) > np.iinfo(dtype).max:
            raise ValueError(f"a matrix with {self.ncols} columns and {nnz} nonzeros "
                             f"needs {2 * self.index_width}-bit indices")
        self.rowptr = np.ascontiguousarray(self.rowptr, dtype=dtype)
        self.colind = np.ascontiguousarray(self.colind, dtype=dtype)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self._validate()

    def _validate(self) -> None:
        _check_rowptr(self.nrows, self.ncols, self.rowptr)
        nnz = int(self.rowptr[-1])
        if self.colind.shape != (nnz,) or self.values.shape != (nnz,):
            raise ValueError("colind/values length must match rowptr[-1]")
        if nnz:
            if self.colind.min() < 0 or self.colind.max() >= self.ncols:
                raise ValueError("column index out of range")
            gap, starts = self.col_gaps()
            gap[starts] = 1  # a row's first column follows no other
            if np.any(gap <= 0):
                raise ValueError("column indices must be strictly increasing per row")

    @property
    def index_bytes(self) -> int:
        """Bytes spent on the rowptr and colind index structures."""
        return self.rowptr.nbytes + self.colind.nbytes

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.rowptr).astype(np.int64)

    def col_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """In-row column steps and the offset of each nonempty row's start.

        Returns ``(gap, starts)``: ``gap[j]`` is ``colind[j] - colind[j - 1]``
        inside a row, and the absolute column at each offset in ``starts``.
        """
        col = self.colind.astype(np.int64)
        starts = self.rowptr[:-1][np.diff(self.rowptr) > 0].astype(np.int64)
        gap = np.diff(col, prepend=0)
        gap[starts] = col[starts]
        return gap, starts

    def with_index_width(self, width: int) -> "CsrMatrix":
        """This matrix at ``width``-bit indices.

        Widening only casts ``rowptr`` and ``colind``: this matrix passed its
        checks, and a wider dtype holds the same indices.  Narrowing checks
        the copy in full.
        """
        if width != 64:
            return CsrMatrix(self.nrows, self.ncols, self.rowptr, self.colind,
                             self.values, index_width=width)
        wide = object.__new__(CsrMatrix)  # skips __post_init__'s checks
        wide.__dict__.update(nrows=self.nrows, ncols=self.ncols,
                             rowptr=self.rowptr.astype(np.int64, copy=False),
                             colind=self.colind.astype(np.int64, copy=False),
                             values=self.values, index_width=64)
        return wide

    def __eq__(self, other) -> bool:
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (self.nrows == other.nrows and self.ncols == other.ncols
                and self.index_width == other.index_width
                and np.array_equal(self.rowptr, other.rowptr)
                and np.array_equal(self.colind, other.colind)
                and np.array_equal(self.values, other.values))


@dataclass(eq=False)
class RowPartition:
    """Contiguous, disjoint row ranges: partition p owns rows
    boundaries[p]..boundaries[p+1]."""

    boundaries: np.ndarray

    def __post_init__(self):
        self.boundaries = np.ascontiguousarray(self.boundaries, dtype=np.int64)
        if self.boundaries.size < 2:
            raise ValueError("a partition needs at least two boundaries")
        if self.boundaries[0] != 0:
            raise ValueError("partition must start at row 0")
        if np.any(np.diff(self.boundaries) < 0):
            raise ValueError("partition boundaries must be non-decreasing")

    def __len__(self) -> int:
        return int(self.boundaries.size - 1)


def csr_from_triplets(t: TripletList, index_width: int = 32) -> CsrMatrix:
    """Build a CSR matrix: entries sorted by (row, col), duplicates summed.

    Entries already in strictly increasing (row, col) order, as the writer
    and the generators emit them, are taken as they are.
    """
    step = np.diff(t.rows)
    if np.all((step > 0) | (step == 0) & (np.diff(t.cols) > 0)):
        rows, cols, vals = t.rows, t.cols.copy(), t.vals.copy()  # not the caller's arrays
    else:
        order = np.lexsort((t.cols, t.rows))
        rows, cols, vals = t.rows[order], t.cols[order], t.vals[order]
        fresh = np.ones(rows.size, dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        idx = np.flatnonzero(fresh)
        rows, cols, vals = rows[idx], cols[idx], np.add.reduceat(vals, idx)
    rowptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=t.nrows))))
    return CsrMatrix(t.nrows, t.ncols, rowptr, cols, vals, index_width=index_width)


def partition_rows_by_nnz(a: CsrMatrix, p: int) -> RowPartition:
    """Split rows into ``p`` contiguous ranges with near-equal nonzero counts.

    Boundary k is the smallest row index whose rowptr value reaches
    ``k * NNZ / p``; trailing partitions may be empty when ``p > nrows``.
    """
    if p < 1:
        raise ValueError("partition count must be >= 1")
    bounds = np.empty(p + 1, dtype=np.int64)
    bounds[0] = 0
    bounds[p] = a.nrows
    if p > 1:
        ks = np.arange(1, p, dtype=np.int64)
        targets = (ks * a.nnz + p - 1) // p  # ceil(k * nnz / p), exact in ints
        bounds[1:p] = np.searchsorted(a.rowptr, targets, side="left")
    np.minimum(bounds, a.nrows, out=bounds)
    np.maximum.accumulate(bounds, out=bounds)
    return RowPartition(bounds)


def _row_kernel(a, x, part: RowPartition | None, run,
                workers: int | None = None) -> np.ndarray:
    """The one driver of every kernel entry point.

    Counts the call, checks ``x`` and the partition (the whole matrix when
    ``part`` is None), allocates ``y`` and calls ``run(x, y, boundaries,
    workers)`` from ``bodies.partition_body`` once, which fills ``y`` over
    every partition on at most ``workers`` threads (default one per
    partition).
    """
    global _kernel_calls
    _kernel_calls += 1
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise ValueError(f"x has length {x.shape}, expected ({a.ncols},)")
    if part is None:
        part = RowPartition(np.array([0, a.nrows]))
    if int(part.boundaries[-1]) != a.nrows:
        raise ValueError("partition does not cover all matrix rows")
    y = np.zeros(a.nrows, dtype=np.float64)
    run(x, y, part.boundaries, workers)
    return y


def spmv_baseline(a: CsrMatrix, x, part: RowPartition | None = None) -> np.ndarray:
    """Reference CSR SpMV: y[i] = sum over row i of values[j] * x[colind[j]].

    Rows without nonzeros yield 0.0.  The result is independent of the
    partition count because rows are computed independently and workers
    write disjoint slices of y.
    """
    return _row_kernel(a, x, part, bodies.partition_body("rows", a, a.colind))
