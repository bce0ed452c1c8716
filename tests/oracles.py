"""Independent brute-force reference implementations used as test oracles.

Everything here deliberately avoids the package's own code paths: dense
accumulation from raw triplets, fsum-based mat-vec, sequential and
four-accumulator mat-vecs over plain CSR lists, plain-Python per-row
feature recomputation, an explicit delta-width counting rule, and a
step-by-step cascade walk.
"""

import math
import statistics

import numpy as np

from spmvtune import MatrixClass


def dense_from_triplets(t) -> np.ndarray:
    out = np.zeros((t.nrows, t.ncols))
    for r, c, v in zip(t.rows, t.cols, t.vals):
        out[int(r), int(c)] += v
    return out


def dense_from_csr(nrows, ncols, rowptr, colind, values) -> np.ndarray:
    out = np.zeros((nrows, ncols))
    for i in range(nrows):
        for j in range(int(rowptr[i]), int(rowptr[i + 1])):
            out[i, int(colind[j])] = values[j]
    return out


def dense_matvec(dense: np.ndarray, x) -> np.ndarray:
    n, m = dense.shape
    return np.array([math.fsum(dense[i, j] * x[j] for j in range(m))
                     for i in range(n)])


def sequential_matvec(rowptr, colind, values, x) -> list:
    """Each row summed left to right, as a plain C loop sums it."""
    y = []
    for i in range(len(rowptr) - 1):
        acc = 0.0
        for j in range(rowptr[i], rowptr[i + 1]):
            acc += values[j] * x[colind[j]]
        y.append(acc)
    return y


def four_lane_matvec(rowptr, colind, values, x) -> list:
    """A C loop unrolled by four: four accumulators over each row's first
    ``nnz - nnz % 4`` products, then a sequential tail."""
    y = []
    for i in range(len(rowptr) - 1):
        lo, hi = rowptr[i], rowptr[i + 1]
        end = hi - (hi - lo) % 4
        s0 = s1 = s2 = s3 = tail = 0.0
        for j in range(lo, end, 4):
            s0 += values[j] * x[colind[j]]
            s1 += values[j + 1] * x[colind[j + 1]]
            s2 += values[j + 2] * x[colind[j + 2]]
            s3 += values[j + 3] * x[colind[j + 3]]
        for j in range(end, hi):
            tail += values[j] * x[colind[j]]
        y.append(((s0 + s1) + (s2 + s3)) + tail)
    return y


def feature_oracle(dense: np.ndarray, llc_bytes, cacheline_bytes,
                   value_bytes=8, index_bytes=4) -> dict:
    n, m = dense.shape
    line_values = cacheline_bytes // value_bytes
    nnz_rows, bw_rows, disp_rows, clust_rows, miss_rows = [], [], [], [], []
    total_nnz = 0
    for i in range(n):
        cols = [j for j in range(m) if dense[i][j] != 0.0]
        k = len(cols)
        total_nnz += k
        nnz_rows.append(k)
        if k == 0:
            bw_rows.append(0)
            disp_rows.append(0.0)
            clust_rows.append(0.0)
            miss_rows.append(0)
            continue
        span = cols[-1] - cols[0]
        bw_rows.append(span)
        disp_rows.append(k / (span + 1))
        groups = 1
        misses = 0
        for prev, cur in zip(cols, cols[1:]):
            if cur - prev != 1:
                groups += 1
            if cur - prev > line_values:
                misses += 1
        clust_rows.append(groups / k)
        miss_rows.append(misses)
    ws = (value_bytes * total_nnz + index_bytes * total_nnz
          + index_bytes * (n + 1) + value_bytes * (n + m))
    return {
        "size": 1 if ws <= llc_bytes else 0,
        "density": total_nnz / (n * m),
        "nnz_min": min(nnz_rows), "nnz_max": max(nnz_rows),
        "nnz_avg": statistics.fmean(nnz_rows),
        "nnz_sd": statistics.pstdev(nnz_rows),
        "bw_min": min(bw_rows), "bw_max": max(bw_rows),
        "bw_avg": statistics.fmean(bw_rows),
        "bw_sd": statistics.pstdev(bw_rows),
        "dispersion_avg": statistics.fmean(disp_rows),
        "dispersion_sd": statistics.pstdev(disp_rows),
        "clustering": statistics.fmean(clust_rows),
        "miss_ratio": statistics.fmean(miss_rows),
        "working_set_bytes": ws,
    }


def row_fits_width(cols, limit) -> bool:
    if not cols:
        return True
    if cols[0] > limit:
        return False
    return all(b - a <= limit for a, b in zip(cols, cols[1:]))


def expected_delta_width(row_cols) -> int:
    n = len(row_cols)
    fit8 = sum(1 for cols in row_cols if row_fits_width(cols, 255))
    return 8 if n == 0 or fit8 / n >= 0.9 else 16


def cascade_reference(scores: dict, thresholds: dict) -> MatrixClass:
    """Repeatedly select the highest remaining score (preferring MB, then
    IMB, then CML on ties); return its class if it clears its threshold,
    otherwise drop it and continue; CMP when everything is exhausted."""
    remaining = [MatrixClass.MB, MatrixClass.IMB, MatrixClass.CML]
    while remaining:
        top = remaining[0]
        for cand in remaining[1:]:
            if scores[cand] > scores[top]:
                top = cand
        if scores[top] >= thresholds[top]:
            return top
        remaining.remove(top)
    return MatrixClass.CMP
