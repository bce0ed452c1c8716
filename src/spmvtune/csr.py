"""Compressed sparse row matrices and the reference SpMV kernel.

CSR keeps the nonzeros of each row contiguous in memory; a row pointer
array of length ``nrows + 1`` marks row boundaries inside the ``colind``
and ``values`` arrays.  Every kernel in this package runs its partitions
through ``_accumulate_rows``, one vectorized body that sums each row left
to right, so for identical inputs the output is reproducible bit for bit
however the rows are partitioned, and equals a sequential C loop's.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterator

import numpy as np

_INDEX_DTYPES = {32: np.int32, 64: np.int64}

# Running count of kernel executions.  Used to demonstrate that feature-based
# advice never touches an SpMV kernel.
_kernel_calls = 0


def kernel_call_count() -> int:
    """Number of SpMV-style kernel executions since the last reset."""
    return _kernel_calls


def reset_kernel_call_count() -> None:
    global _kernel_calls
    _kernel_calls = 0


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

    def entries(self) -> Iterator[tuple[int, int, float]]:
        for r, c, v in zip(self.rows, self.cols, self.vals):
            yield int(r), int(c), float(v)

    def __len__(self) -> int:
        return int(self.rows.size)


class _RowOf:
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
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.rowptr.shape != (self.nrows + 1,):
            raise ValueError("rowptr must have length nrows + 1")
        if self.rowptr[0] != 0:
            raise ValueError("rowptr must start at 0")
        if np.any(np.diff(self.rowptr) < 0):
            raise ValueError("rowptr must be non-decreasing")
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
    def nnz(self) -> int:
        return int(self.rowptr[-1])

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
        return CsrMatrix(self.nrows, self.ncols, self.rowptr, self.colind,
                         self.values, index_width=width)

    def to_triplets(self) -> TripletList:
        return TripletList(self.nrows, self.ncols, self.row_of.astype(np.int64),
                           self.colind.astype(np.int64), self.values.copy())

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

    @classmethod
    def whole(cls, nrows: int) -> "RowPartition":
        return cls(np.array([0, nrows], dtype=np.int64))

    def __len__(self) -> int:
        return int(self.boundaries.size - 1)

    def bounds(self, p: int) -> tuple[int, int]:
        return int(self.boundaries[p]), int(self.boundaries[p + 1])


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


def to_dense(a: CsrMatrix) -> np.ndarray:
    """Lossless row-major dense expansion (tests and tooling only)."""
    out = np.zeros((a.nrows, a.ncols), dtype=np.float64)
    out[a.row_of, a.colind] = a.values
    return out


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


def _accumulate_rows(a, colind, x, y, lo: int, hi: int, first: int = 0) -> None:
    """The body of every kernel: ``y[i]`` = the sum of row i's products.

    ``np.bincount`` adds each product into its row's slot in element order,
    so rows ``lo..hi`` of ``a`` are summed left to right.  ``colind`` starts
    at nonzero ``first`` (``rowptr[lo]`` for a partition's decoded columns).
    """
    s, e = a.rowptr[lo], a.rowptr[hi]
    y[lo:hi] = np.bincount(a.row_of[s:e] - lo, minlength=hi - lo,
                           weights=a.values[s:e] * x[colind[s - first:e - first]])


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _shared_pool() -> ThreadPoolExecutor:
    # One long-lived pool; creating executors inside timed benchmark loops
    # would charge thread startup to every measurement.
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=32,
                                       thread_name_prefix="spmv-worker")
    return _pool


def run_partitions(n: int, task, workers: int | None = None) -> None:
    """Run ``task(p)`` for every p in ``range(n)``.

    ``workers`` threads (default ``n``) each claim the next unclaimed p from
    a shared counter until none is left, so no worker idles while work
    remains.  Tasks must write disjoint output slices; all of them complete
    before this returns.
    """
    workers = n if workers is None else min(workers, n)
    claims = iter(range(n))
    lock = threading.Lock()

    def worker(_):
        while True:
            with lock:
                p = next(claims, None)
            if p is None:
                return
            task(p)

    if workers <= 1:
        worker(0)
    else:  # list() propagates worker exceptions.
        list(_shared_pool().map(worker, range(workers)))


def _row_kernel(a, x, part: RowPartition | None, body,
                workers: int | None = None) -> np.ndarray:
    """The one driver of every kernel entry point.

    Counts the call, checks ``x`` and the partition (the whole matrix when
    ``part`` is None), builds ``a.row_of`` on the first call, allocates ``y``
    and runs ``body(x, y, lo, hi)`` over every partition through
    ``run_partitions`` with ``workers`` threads.  ``body`` fills ``y[lo:hi]``.
    """
    global _kernel_calls
    _kernel_calls += 1
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise ValueError(f"x has length {x.shape}, expected ({a.ncols},)")
    if part is None:
        part = RowPartition.whole(a.nrows)
    if int(part.boundaries[-1]) != a.nrows:
        raise ValueError("partition does not cover all matrix rows")
    a.row_of  # built here, not by racing worker threads
    y = np.zeros(a.nrows, dtype=np.float64)
    run_partitions(len(part), lambda p: body(x, y, *part.bounds(p)), workers)
    return y


def spmv_baseline(a: CsrMatrix, x, part: RowPartition | None = None) -> np.ndarray:
    """Reference CSR SpMV: y[i] = sum over row i of values[j] * x[colind[j]].

    Rows without nonzeros yield 0.0.  The result is independent of the
    partition count because rows are computed independently and workers
    write disjoint slices of y.
    """
    return _row_kernel(a, x, part, partial(_accumulate_rows, a, a.colind))
