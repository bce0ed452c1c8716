"""Optimized SpMV variants, the variant table and the per-partition timer.

Four class-targeted variants (delta-compressed indices, software prefetch,
dynamic scheduling, unrolled inner loop) compute the same y as the baseline
kernel: bitwise-equal for delta/prefetch/scheduled, within a small relative
tolerance for the unrolled variant whose summation order differs.
``VARIANTS`` declares each variant, its class and that rule once.  The
profiling classifier's probes (``noxmiss``, ``inflate``, ``balance``) are
built and timed by ``profiling.measure`` through ``_partition_times``;
``bench_balance`` exposes the balance probe's per-worker times.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from statistics import fmean
from typing import Callable

import numpy as np

from .bodies import partition_body
from .csr import (CsrMatrix, RowPartition, _RowOf, _check_rowptr, _row_kernel,
                  spmv_baseline)
from .taxonomy import MatrixClass

_DELTA_LIMITS = {8: 255, 16: 65535}
_DELTA_DTYPES = {8: np.uint8, 16: np.uint16}
# Fraction of rows that must fit the narrow width before it is chosen
# matrix-wide; the remaining rows fall back to absolute indices.
_DELTA_CODABLE_FRACTION = 0.9


class ScheduleKind(enum.Enum):
    DYNAMIC_CHUNKED = "dynamic_chunked"


@dataclass(frozen=True)
class SchedulePolicy:
    kind: ScheduleKind
    chunk_rows: int = 1

    def __post_init__(self):
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")


@dataclass(eq=False)
class DeltaCsrMatrix(_RowOf):
    """CSR matrix with per-row delta-coded column indices.

    One narrow width (8- or 16-bit) applies matrix-wide; rows whose first
    column or in-row gaps exceed that width keep absolute indices, in the
    source matrix's index dtype, and have their ``row_encoding`` flag
    cleared.  A delta-coded row stores ``nnz`` narrow codes: its absolute
    first column, then the gap to each following column, so every row
    decodes independently of its neighbours as the running sum of its codes.

    Construction checks what the native decoder trusts: ``rowptr`` follows
    ``CsrMatrix``'s rules at int32 or int64, ``deltas`` has the dtype of
    ``delta_width``, ``abs_colind`` has ``rowptr``'s dtype, and every decoded
    column lies in ``[0, ncols)``.
    """

    nrows: int
    ncols: int
    rowptr: np.ndarray
    values: np.ndarray
    delta_width: int
    row_encoding: np.ndarray   # bool per row, True = delta coded
    deltas: np.ndarray         # uint8/uint16 codes of the delta-coded rows
    abs_colind: np.ndarray     # absolute indices of the remaining rows

    _delta_ofs: np.ndarray = field(init=False, repr=False)
    _abs_ofs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.delta_width not in _DELTA_LIMITS:
            raise ValueError("delta_width must be 8 or 16")
        self.rowptr = ptr = np.ascontiguousarray(self.rowptr)
        if ptr.dtype not in (np.int32, np.int64):
            raise ValueError(f"rowptr must be int32 or int64, not {ptr.dtype}")
        _check_rowptr(self.nrows, self.ncols, ptr)
        self.deltas = np.ascontiguousarray(self.deltas)
        code_dtype = np.dtype(_DELTA_DTYPES[self.delta_width])
        if self.deltas.dtype != code_dtype:
            raise ValueError(f"{self.delta_width}-bit codes must be {code_dtype}, "
                             f"not {self.deltas.dtype}")
        self.abs_colind = np.ascontiguousarray(self.abs_colind)
        if self.abs_colind.dtype != ptr.dtype:
            raise ValueError(f"abs_colind must have rowptr's dtype {ptr.dtype}, "
                             f"not {self.abs_colind.dtype}")
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.row_encoding = coded = np.ascontiguousarray(self.row_encoding, dtype=bool)
        if coded.shape != (self.nrows,) or self.values.shape != (self.nnz,):
            raise ValueError("row_encoding/values length must match nrows/rowptr[-1]")
        counts = np.diff(ptr).astype(np.int64)
        self._delta_ofs = np.concatenate(([0], np.cumsum(np.where(coded, counts, 0))))
        self._abs_ofs = np.concatenate(([0], np.cumsum(np.where(coded, 0, counts))))
        if (self.deltas.shape != (self._delta_ofs[-1],)
                or self.abs_colind.shape != (self._abs_ofs[-1],)):
            raise ValueError("index array lengths inconsistent with row encoding")
        # A coded row's columns never decrease, so its code sum is its largest.
        starts = self._delta_ofs[:-1][coded & (counts > 0)]
        largest = max(np.add.reduceat(self.deltas, starts, dtype=np.int64).max(initial=-1),
                      self.abs_colind.max(initial=-1))
        if largest >= self.ncols or self.abs_colind.min(initial=0) < 0:
            raise ValueError("column index out of range")

    @property
    def index_bytes(self) -> int:
        """Bytes spent on column-index storage (narrow codes and absolutes)."""
        return self.deltas.nbytes + self.abs_colind.nbytes

    def decode_rows(self, lo: int, hi: int) -> np.ndarray:
        """Absolute int64 column indices of rows lo..hi, in CSR order.

        Reads only that range's narrow codes and absolute indices.  A coded
        row's columns are the running sum of its codes: one cumulative sum
        over the range, less the sum reached before the row's first code.
        """
        coded = np.repeat(self.row_encoding[lo:hi], np.diff(self.rowptr[lo:hi + 1]))
        cols = np.empty(coded.size, dtype=np.int64)
        cols[~coded] = self.abs_colind[self._abs_ofs[lo]:self._abs_ofs[hi]]
        ofs = self._delta_ofs[lo:hi + 1]
        sums = np.r_[0, np.cumsum(self.deltas[ofs[0]:ofs[-1]], dtype=np.int64)]
        cols[coded] = sums[1:] - np.repeat(sums[ofs[:-1] - ofs[0]], np.diff(ofs))
        return cols


def encode_delta(a: CsrMatrix) -> DeltaCsrMatrix:
    """Delta-code the column indices of a column-sorted CSR matrix.

    Width choice: 8-bit if at least 90% of the rows have all in-row gaps
    and first columns <= 255, otherwise 16-bit (same rule with 65535).
    Rows violating the chosen width are stored with absolute indices, so
    encoding never fails.
    """
    n = a.nrows
    counts = a.row_nnz()
    gap, starts = a.col_gaps()
    req = np.zeros(n, dtype=np.int64)
    if a.nnz:
        req[counts > 0] = np.maximum.reduceat(gap, starts)

    codable8 = req <= _DELTA_LIMITS[8]
    width = 8 if (n == 0 or codable8.mean() >= _DELTA_CODABLE_FRACTION) else 16
    coded = req <= _DELTA_LIMITS[width]

    elem_coded = np.repeat(coded, counts)
    deltas = gap[elem_coded].astype(_DELTA_DTYPES[width])
    abs_colind = a.colind[~elem_coded]
    # rowptr keeps the source dtype so decoding restores the index width.
    return DeltaCsrMatrix(n, a.ncols, a.rowptr, a.values,
                          width, coded, deltas, abs_colind)


def decode_delta(d: DeltaCsrMatrix) -> CsrMatrix:
    """Lossless inverse of encode_delta; restores the source index width.

    Decodes with ``decode_rows``, the same decoder ``spmv_delta`` runs.
    """
    width = 64 if d.rowptr.dtype == np.int64 else 32
    return CsrMatrix(d.nrows, d.ncols, d.rowptr, d.decode_rows(0, d.nrows),
                     d.values, index_width=width)


def spmv_delta(d: DeltaCsrMatrix, x, part: RowPartition | None = None) -> np.ndarray:
    """SpMV over the delta-coded form; bitwise-equal to the baseline.

    The native body decodes each row's codes as it multiplies; the numpy
    body decodes each partition's rows in one ``decode_rows`` pass, then
    sums them as the baseline does.
    """
    return _row_kernel(d, x, part, partition_body("delta", d))


def spmv_prefetch(a: CsrMatrix, x, part: RowPartition | None = None,
                  distance: int = 8) -> np.ndarray:
    """Baseline SpMV that hints x[colind[j + distance]] ahead of each step.

    The default distance of 8 elements is one 64-byte cache line of
    double-precision values.  The native body issues the hint while
    ``j + distance`` is inside the partition; numpy has no hint to issue,
    so its body is the baseline's.  Bitwise-equal to the baseline.
    """
    if distance < 1:
        raise ValueError("prefetch distance must be >= 1")
    return _row_kernel(a, x, part, partition_body("prefetch", a, distance))


def spmv_scheduled(a: CsrMatrix, x, policy: SchedulePolicy,
                   workers: int = 1) -> np.ndarray:
    """SpMV under a scheduling policy; y equals the baseline exactly.

    ``dynamic_chunked`` splits the rows into ``chunk_rows``-row ranges that
    ``workers`` threads claim one at a time, so no worker idles while
    unclaimed chunks remain.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # The leading 0 keeps one (empty) chunk when the matrix has no rows.
    chunks = RowPartition(np.r_[0, np.arange(policy.chunk_rows, a.nrows,
                                             policy.chunk_rows), a.nrows])
    return _row_kernel(a, x, chunks, partition_body("rows", a, a.colind), workers)


def spmv_unrolled(a: CsrMatrix, x, part: RowPartition | None = None) -> np.ndarray:
    """SpMV with a 4-way unrolled inner loop, as a four-accumulator C loop.

    Each row's first ``nnz - nnz % 4`` products go round-robin to lanes 0-3
    and the rest to a tail, each summed left to right and combined as
    ((s0+s1)+(s2+s3)) + tail, bitwise the same on both backends.  Results
    agree with the baseline within relative 1e-10, exactly on rows shorter
    than 4 elements.
    """
    return _row_kernel(a, x, part, partition_body("unrolled", a))


def _partition_times(a: CsrMatrix, body, x, part: RowPartition, timer):
    """``body``, a prepared ``partition_body`` over ``a``, timing each
    partition alone.

    Returns ``(y, durations)`` where ``durations[p]`` is partition p's own
    time.  The partitions run one after another on the calling thread, so
    no partition's time includes another's work, and each clock region
    holds only that partition's call from ``body.each``.
    """
    durations = []

    def run(x, y, bounds, workers):
        for call in body.each(x, y, bounds):
            t0 = timer()
            call()
            durations.append(timer() - t0)

    return _row_kernel(a, x, part, run), durations


def bench_balance(a: CsrMatrix, x, part: RowPartition, timer=time.perf_counter):
    """Time each partition worker over its own rows.

    Returns ``(y, durations, mean)`` where ``durations[p]`` is worker p's
    time, measured alone by ``_partition_times``, and ``mean`` is their
    arithmetic mean: the time every worker would take under perfect balance.
    """
    y, durations = _partition_times(a, partition_body("rows", a, a.colind), x, part,
                                    timer)
    return y, durations, fmean(durations)


@dataclass(frozen=True)
class Variant:
    """One row of ``VARIANTS``: ``prepare(a, cfg, part)`` does the untimed
    set-up and returns ``run(x)``, one call of a kernel it looks up when
    called; ``cfg`` needs ``workers`` and ``prefetch_distance``.  ``rtol`` is
    the agreement rule with the baseline; ``None`` means bitwise-equal."""

    name: str
    cls: MatrixClass | None   # the bottleneck it targets; None for the baseline
    optimization: str
    prepare: Callable[..., Callable[[np.ndarray], np.ndarray]]
    rtol: float | None = None

    def agrees(self, y: np.ndarray, y_ref: np.ndarray) -> bool:
        """Whether ``y`` meets this variant's rule against the baseline's ``y_ref``."""
        if self.rtol is None:
            return np.array_equal(y, y_ref, equal_nan=True)
        finite = np.abs(y_ref[np.isfinite(y_ref)])  # an inf would make atol inf
        return np.allclose(y, y_ref, rtol=self.rtol, equal_nan=True,
                           atol=1e-12 * max(1.0, float(finite.max(initial=0.0))))


def _prepare_delta(a, cfg, part):
    d = encode_delta(a)
    return lambda x: spmv_delta(d, x, part)


def _prepare_prefetch(a, cfg, part):
    distance = cfg.prefetch_distance
    return lambda x: spmv_prefetch(a, x, part, distance)


def _prepare_dynamic(a, cfg, part):
    """About eight chunks per worker; ``part`` plays no role."""
    policy = SchedulePolicy(ScheduleKind.DYNAMIC_CHUNKED,
                            chunk_rows=max(1, -(-a.nrows // (cfg.workers * 8))))
    return lambda x: spmv_scheduled(a, x, policy, cfg.workers)


VARIANTS: dict[str, Variant] = {v.name: v for v in (
    Variant("baseline", None, "none (the CSR baseline)",
            lambda a, cfg, part: lambda x: spmv_baseline(a, x, part)),
    Variant("delta", MatrixClass.MB,
            "column index compression through delta coding", _prepare_delta),
    Variant("prefetch", MatrixClass.CML, "software prefetching on vector x",
            _prepare_prefetch),
    Variant("dynamic", MatrixClass.IMB, "dynamic chunked row scheduling",
            _prepare_dynamic),
    Variant("unrolled", MatrixClass.CMP, "inner loop unrolling + vectorization",
            lambda a, cfg, part: lambda x: spmv_unrolled(a, x, part), rtol=1e-10),
)}
BASELINE = VARIANTS["baseline"]  # the reference every row is checked and timed against


def optimization_for(c: MatrixClass) -> Variant:
    """The variant that targets bottleneck class ``c`` (total over MatrixClass)."""
    return next(v for v in VARIANTS.values() if v.cls is MatrixClass(c))
