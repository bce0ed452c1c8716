/* Native kernels of spmvtune: every partition of one SpMV in one call, and
 * the structural feature pass.
 *
 * Every kernel has the one signature of EXPORT, spmv_<body>_<width>(in, x,
 * y, distance, bounds, nparts, threads), and fills y = A x over the rows of
 * nparts partitions, partition p owning rows bounds[p]..bounds[p + 1].  in
 * is the body's table of arrays: bodies._native_arguments lists them and
 * the body reads them, in the same order, and nothing else names it.  Only
 * the prefetch body reads distance.  The calling thread and up to
 * threads - 1 threads it starts claim partitions from one shared counter
 * until none is left, and every started thread is joined before the
 * function returns (fork-join), so no thread outlives a call.  At most
 * min(threads, nparts, MAX_THREADS) threads run; a thread that cannot be
 * started leaves its share to the others, so a call never fails.
 *
 * One thread sums each row, left to right from 0.0, exactly as the numpy
 * bodies in bodies.py sum it.  The library is built with -ffp-contract=off
 * and without -ffast-math, so no multiply-add is fused and no sum is
 * reassociated: both backends agree bit for bit, whatever the thread count.
 *
 * Index arrays are int32_t or int64_t (suffix _i32 / _i64), as the matrix's
 * rowptr.  The caller has checked every index and bound.
 */

#include <pthread.h>
#include <stdint.h>

/* The most threads one call runs: bodies.MAX_THREADS, the numpy pool's size. */
#define MAX_THREADS 32

/* One kernel call: its body, the body's arrays, the partitions and the
 * claim counter. */
struct job {
    void (*rows)(const struct job *, int64_t lo, int64_t hi);
    const void *const *in;
    const double *x;
    double *y;
    int64_t distance;
    const int64_t *bounds;
    int64_t nparts, next;
};

static void *claim(void *arg)
{
    struct job *job = arg;
    int64_t p;
    while ((p = __atomic_fetch_add(&job->next, 1, __ATOMIC_RELAXED)) < job->nparts)
        job->rows(job, job->bounds[p], job->bounds[p + 1]);
    return NULL;
}

/* Runs job->rows over every partition on up to threads threads, the
 * calling one included, and returns once all of them are done.  The first
 * pthread_create that fails ends the starting: the threads already running
 * claim its share. */
static void fork_join(struct job *job, int64_t threads)
{
    pthread_t started[MAX_THREADS - 1];
    int64_t n = 0;
    if (threads > job->nparts)
        threads = job->nparts;
    if (threads > MAX_THREADS)
        threads = MAX_THREADS;
    while (n < threads - 1 && pthread_create(&started[n], NULL, claim, job) == 0)
        n++;
    claim(job);
    while (n > 0)
        pthread_join(started[--n], NULL);
}

/* The exported kernel spmv_<body> that runs body over every partition. */
#define EXPORT(body)                                                          \
void spmv_##body(const void *const *in, const double *x, double *y,           \
                 int64_t distance, const int64_t *bounds, int64_t nparts,     \
                 int64_t threads)                                             \
{                                                                             \
    struct job job = {.rows = body, .in = in, .x = x, .y = y,                 \
                      .distance = distance, .bounds = bounds,                 \
                      .nparts = nparts};                                      \
    fork_join(&job, threads);                                                 \
}

/* The baseline row sum; also the body of noxmiss, inflate, the scheduled
 * kernels and the balance diagnostic. */
#define ROWS_BODY(I, W)                                                       \
static void rows_##W(const struct job *k, int64_t lo, int64_t hi)            \
{                                                                             \
    const I *rowptr = k->in[0], *colind = k->in[1];                           \
    const double *values = k->in[2], *x = k->x;                               \
    double *y = k->y;                                                         \
    for (int64_t i = lo; i < hi; i++) {                                       \
        int64_t end = rowptr[i + 1];                                          \
        double acc = 0.0;                                                     \
        for (int64_t j = rowptr[i]; j < end; j++)                             \
            acc += values[j] * x[colind[j]];                                  \
        y[i] = acc;                                                           \
    }                                                                         \
}                                                                             \
EXPORT(rows_##W)

/* The row sum, hinting x[colind[j + distance]] while j + distance is inside
 * the partition.  distance >= 1; stop cannot overflow since rowptr[hi] >= 0. */
#define PREFETCH_BODY(I, W)                                                   \
static void prefetch_##W(const struct job *k, int64_t lo, int64_t hi)        \
{                                                                             \
    const I *rowptr = k->in[0], *colind = k->in[1];                           \
    const double *values = k->in[2], *x = k->x;                               \
    double *y = k->y;                                                         \
    int64_t distance = k->distance, stop = (int64_t)rowptr[hi] - distance;    \
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
}                                                                             \
EXPORT(prefetch_##W)

/* Four accumulators over each row's first nnz - nnz % 4 products, then a
 * sequential tail, combined as ((s0 + s1) + (s2 + s3)) + tail. */
#define UNROLLED_BODY(I, W)                                                   \
static void unrolled_##W(const struct job *k, int64_t lo, int64_t hi)        \
{                                                                             \
    const I *rowptr = k->in[0], *colind = k->in[1];                           \
    const double *values = k->in[2], *x = k->x;                               \
    double *y = k->y;                                                         \
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
}                                                                             \
EXPORT(unrolled_##W)

/* CSR-DU decode-and-multiply over C-typed codes: a coded row's columns are
 * the running sum of its codes; any other row reads its absolute columns.
 * delta_ofs[i] and abs_ofs[i] are where row i's codes and absolute columns
 * start. */
#define DELTA_BODY(C, CW, I, W)                                               \
static void delta##CW##_##W(const struct job *k, int64_t lo, int64_t hi)     \
{                                                                             \
    const I *rowptr = k->in[0], *abs_colind = k->in[3];                       \
    const uint8_t *coded = k->in[1];                                          \
    const C *deltas = k->in[2];                                               \
    const int64_t *delta_ofs = k->in[4], *abs_ofs = k->in[5];                 \
    const double *values = k->in[6], *x = k->x;                               \
    double *y = k->y;                                                         \
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
}                                                                             \
EXPORT(delta##CW##_##W)

/* The per-row integers of features.extract_features in one pass over the
 * indices, on the calling thread: span[i] is row i's last column less its
 * first and groups[i] its runs of consecutive columns, both 0 on an empty
 * row.  Returns the number of in-row column steps wider than line_values. */
#define STRUCTURE_PASS(I, W)                                                  \
int64_t row_structure_##W(const I *rowptr, const I *colind, int64_t nrows,    \
                          int64_t line_values, int64_t *span, int64_t *groups)\
{                                                                             \
    int64_t misses = 0;                                                       \
    for (int64_t i = 0; i < nrows; i++) {                                     \
        int64_t start = rowptr[i], end = rowptr[i + 1], width = 0, runs = 0;  \
        if (start < end) {                                                    \
            width = (int64_t)colind[end - 1] - colind[start];                 \
            runs = 1;                                                         \
            for (int64_t j = start + 1; j < end; j++) {                       \
                int64_t step = (int64_t)colind[j] - colind[j - 1];            \
                runs += step != 1;                                            \
                misses += step > line_values;                                 \
            }                                                                 \
        }                                                                     \
        span[i] = width;                                                      \
        groups[i] = runs;                                                     \
    }                                                                         \
    return misses;                                                            \
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
STRUCTURE_PASS(int32_t, i32)
STRUCTURE_PASS(int64_t, i64)
