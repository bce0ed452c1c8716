/* Native partition bodies of the spmvtune SpMV kernels.
 *
 * Every function fills y[lo..hi) of y = A x for one row range, each row
 * summed left to right from 0.0, exactly as the numpy bodies in bodies.py
 * sum it.  The library is built with -ffp-contract=off and without
 * -ffast-math, so no multiply-add is fused and no sum is reassociated: both
 * backends agree bit for bit.
 *
 * Index arrays are int32_t or int64_t (suffix _i32 / _i64), as the matrix's
 * rowptr.  The caller has checked every index against its bounds.
 */

#include <stdint.h>

/* The baseline row sum; also the body of noxmiss, inflate, the scheduled
 * kernels and the balance diagnostic. */
#define ROWS_BODY(I, W)                                                       \
void spmv_rows_##W(const I *rowptr, const I *colind, const double *values,    \
                   const double *x, double *y, int64_t lo, int64_t hi)        \
{                                                                             \
    for (int64_t i = lo; i < hi; i++) {                                       \
        int64_t end = rowptr[i + 1];                                          \
        double acc = 0.0;                                                     \
        for (int64_t j = rowptr[i]; j < end; j++)                             \
            acc += values[j] * x[colind[j]];                                  \
        y[i] = acc;                                                           \
    }                                                                         \
}

/* The row sum, hinting x[colind[j + distance]] while j + distance is inside
 * the range.  distance >= 1; stop cannot overflow since rowptr[hi] >= 0. */
#define PREFETCH_BODY(I, W)                                                   \
void spmv_prefetch_##W(const I *rowptr, const I *colind, const double *values,\
                       const double *x, double *y, int64_t lo, int64_t hi,    \
                       int64_t distance)                                      \
{                                                                             \
    int64_t stop = (int64_t)rowptr[hi] - distance;                            \
    for (int64_t i = lo; i < hi; i++) {                                       \
        int64_t end = rowptr[i + 1];                                          \
        double acc = 0.0;                                                     \
        for (int64_t j = rowptr[i]; j < end; j++) {                           \
            if (j < stop)                                                     \
                __builtin_prefetch(&x[colind[j + distance]]);                 \
            acc += values[j] * x[colind[j]];                                  \
        }                                                                     \
        y[i] = acc;                                                           \
    }                                                                         \
}

/* Four accumulators over each row's first nnz - nnz % 4 products, then a
 * sequential tail, combined as ((s0 + s1) + (s2 + s3)) + tail. */
#define UNROLLED_BODY(I, W)                                                   \
void spmv_unrolled_##W(const I *rowptr, const I *colind, const double *values,\
                       const double *x, double *y, int64_t lo, int64_t hi)    \
{                                                                             \
    for (int64_t i = lo; i < hi; i++) {                                       \
        int64_t j = rowptr[i], end = rowptr[i + 1];                           \
        int64_t lanes_end = end - (end - j) % 4;                              \
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0, tail = 0.0;            \
        for (; j < lanes_end; j += 4) {                                       \
            s0 += values[j] * x[colind[j]];                                   \
            s1 += values[j + 1] * x[colind[j + 1]];                           \
            s2 += values[j + 2] * x[colind[j + 2]];                           \
            s3 += values[j + 3] * x[colind[j + 3]];                           \
        }                                                                     \
        for (; j < end; j++)                                                  \
            tail += values[j] * x[colind[j]];                                 \
        y[i] = ((s0 + s1) + (s2 + s3)) + tail;                                \
    }                                                                         \
}

/* CSR-DU decode-and-multiply over C-typed codes: a coded row's columns are
 * the running sum of its codes; any other row reads its absolute columns.
 * delta_ofs[i] and abs_ofs[i] are where row i's codes and absolute columns
 * start. */
#define DELTA_BODY(C, CW, I, W)                                               \
void spmv_delta##CW##_##W(const I *rowptr, const uint8_t *coded,              \
                          const C *deltas, const I *abs_colind,               \
                          const int64_t *delta_ofs, const int64_t *abs_ofs,   \
                          const double *values, const double *x, double *y,   \
                          int64_t lo, int64_t hi)                             \
{                                                                             \
    for (int64_t i = lo; i < hi; i++) {                                       \
        int64_t j = rowptr[i], end = rowptr[i + 1];                           \
        double acc = 0.0;                                                     \
        if (coded[i]) {                                                       \
            const C *code = deltas + delta_ofs[i];                            \
            int64_t col = 0;                                                  \
            for (; j < end; j++) {                                            \
                col += *code++;                                               \
                acc += values[j] * x[col];                                    \
            }                                                                 \
        } else {                                                              \
            const I *col = abs_colind + abs_ofs[i];                           \
            for (; j < end; j++)                                              \
                acc += values[j] * x[*col++];                                 \
        }                                                                     \
        y[i] = acc;                                                           \
    }                                                                         \
}

ROWS_BODY(int32_t, i32)
ROWS_BODY(int64_t, i64)
PREFETCH_BODY(int32_t, i32)
PREFETCH_BODY(int64_t, i64)
UNROLLED_BODY(int32_t, i32)
UNROLLED_BODY(int64_t, i64)
DELTA_BODY(uint8_t, 8, int32_t, i32)
DELTA_BODY(uint16_t, 16, int32_t, i32)
DELTA_BODY(uint8_t, 8, int64_t, i64)
DELTA_BODY(uint16_t, 16, int64_t, i64)
