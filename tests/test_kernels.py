import ctypes
import gc
import json
import math
import os
import shlex
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spmvtune import (VARIANTS, AdvisorConfig, CacheConfig, CsrMatrix, FeatureVector,
                      RowPartition, SchedulePolicy, ScheduleKind, TripletList,
                      bench_balance, bodies, classify_profiling, csr_from_triplets,
                      decode_delta, encode_delta, extract_features,
                      kernel_call_count, measure, partition_rows_by_nnz,
                      spmv_baseline, spmv_delta, spmv_prefetch, spmv_scheduled,
                      spmv_unrolled)
from spmvtune.kernels import DeltaCsrMatrix, _partition_times

from conftest import BACKENDS, FakeTimer, measure_script, random_triplets, use_backend
from oracles import (expected_delta_width, four_lane_matvec, row_fits_width,
                     sequential_matvec)


def row_columns(a: CsrMatrix) -> list[list[int]]:
    return [a.colind[a.rowptr[i]:a.rowptr[i + 1]].tolist() for i in range(a.nrows)]


# --- delta codec ----------------------------------------------------------------

def test_encode_reference_matrix(matrix_e):
    d = encode_delta(matrix_e)
    assert d.delta_width == 8
    assert d.row_encoding.all()  # every row delta-coded (incl. the empty one)
    assert d.deltas.tolist() == [0, 3, 1, 0, 1, 2]  # rows 0: [0, 3]; 1: [1]; 3: [0, 1, 2]
    assert d.abs_colind.size == 0
    assert decode_delta(d) == matrix_e


def test_wide_row_falls_back_to_absolute():
    entries = [(i, 0, 1.0) for i in range(20)] + [(0, 300, 1.0)]
    a = csr_from_triplets(TripletList.from_entries(20, 301, entries))
    d = encode_delta(a)
    assert d.delta_width == 8  # 19 of 20 rows fit 8-bit
    assert not d.row_encoding[0]
    assert d.row_encoding[1:].all()
    assert d.abs_colind.tolist() == [0, 300]
    assert decode_delta(d) == a


def test_large_identity_prefers_16_bit_with_absolute_tail():
    n = 100_000
    a = CsrMatrix(n, n, np.arange(n + 1), np.arange(n), np.ones(n))
    d = encode_delta(a)
    assert d.delta_width == 16
    assert int((~d.row_encoding).sum()) == n - 65_536  # first_col > 65535
    assert decode_delta(d) == a


@pytest.mark.parametrize("gap,width8_ok,width16_ok", [
    (255, True, True),
    (256, False, True),
    (65535, False, True),
    (65536, False, False),
])
def test_single_row_gap_edges(gap, width8_ok, width16_ok):
    a = csr_from_triplets(TripletList.from_entries(
        1, gap + 1, [(0, 0, 1.0), (0, gap, 2.0)]))
    d = encode_delta(a)
    assert d.delta_width == (8 if width8_ok else 16)
    assert bool(d.row_encoding[0]) == (width8_ok or width16_ok)
    assert decode_delta(d) == a


def test_width_rule_matches_counting_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 1200))
        a = csr_from_triplets(random_triplets(rng, n, m, float(rng.uniform(0.02, 0.4))))
        d = encode_delta(a)
        cols = row_columns(a)
        assert d.delta_width == expected_delta_width(cols)
        limit = 255 if d.delta_width == 8 else 65535
        for i, row in enumerate(cols):
            assert bool(d.row_encoding[i]) == row_fits_width(row, limit)
        assert decode_delta(d) == a


@given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 69999)),
                max_size=40, unique=True))
def test_codec_round_trip(positions):
    entries = [(r, c, 1.0 + (r + c) % 7) for r, c in positions]
    a = csr_from_triplets(TripletList.from_entries(12, 70_000, entries))
    assert decode_delta(encode_delta(a)) == a


def test_codec_preserves_index_width(matrix_e):
    wide = matrix_e.with_index_width(64)
    back = decode_delta(encode_delta(wide))
    assert back.index_width == 64
    assert back == wide
    assert decode_delta(encode_delta(matrix_e)).index_width == 32
    # an absolute fallback column beyond 32 bits
    huge = CsrMatrix(2, 5_000_000_000, [0, 1, 2], [4_294_967_301, 2], [1.5, 2.0],
                     index_width=64)
    assert decode_delta(encode_delta(huge)) == huge


@given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 69999)),
                max_size=40, unique=True),
       st.integers(0, 12), st.integers(0, 12))
def test_decode_rows_matches_whole_matrix_slice(positions, i, j):
    # Row 9 stays empty, row 10 needs a 16-bit code and row 11 an absolute
    # fallback, so every example mixes all three row kinds.
    fixed = [(10, 0, 1.0), (10, 300, 1.0), (11, 0, 1.0), (11, 69_999, 1.0)]
    entries = [(r, c, 1.0) for r, c in positions] + fixed
    d = encode_delta(csr_from_triplets(TripletList.from_entries(12, 70_000, entries)))
    assert d.delta_width == 16 and d.row_encoding[10] and not d.row_encoding[11]
    lo, hi = min(i, j), max(i, j)
    part = d.decode_rows(lo, hi)
    assert part.dtype == np.int64
    assert np.array_equal(part, d.decode_rows(0, 12)[d.rowptr[lo]:d.rowptr[hi]])


def _delta_fields(**changes):
    """A valid one-row 8-bit DeltaCsrMatrix (columns 1 and 3 of 4) with
    ``changes`` applied to its constructor arguments."""
    fields = dict(nrows=1, ncols=4, rowptr=np.array([0, 2], dtype=np.int32),
                  values=np.array([1.0, 2.0]), delta_width=8,
                  row_encoding=np.array([True]),
                  deltas=np.array([1, 2], dtype=np.uint8),
                  abs_colind=np.empty(0, dtype=np.int32))
    return {**fields, **changes}


def test_delta_matrix_accepts_the_valid_example():
    d = DeltaCsrMatrix(**_delta_fields())
    assert decode_delta(d).colind.tolist() == [1, 3]


@pytest.mark.parametrize("changes,message", [
    ({"rowptr": np.array([0, 1, 2], dtype=np.int32)}, "length nrows"),
    ({"rowptr": np.array([1, 2], dtype=np.int32), "deltas": np.array([1], dtype=np.uint8),
      "values": np.array([1.0])}, "start at 0"),
    ({"nrows": 2, "rowptr": np.array([0, 2, 1], dtype=np.int32),
      "row_encoding": np.array([True, True])}, "non-decreasing"),
    ({"rowptr": np.array([0.0, 2.0])}, "int32 or int64"),
    ({"deltas": np.array([1, 2], dtype=np.uint16)}, "8-bit codes must be uint8"),
    ({"delta_width": 16}, "16-bit codes must be uint16"),
    ({"row_encoding": np.array([False]), "deltas": np.empty(0, dtype=np.uint8),
      "abs_colind": np.array([1.0, 3.0])}, "rowptr's dtype int32"),
    ({"row_encoding": np.array([False]), "deltas": np.empty(0, dtype=np.uint8),
      "abs_colind": np.array([1, 3], dtype=np.int64)}, "rowptr's dtype int32"),
    ({"deltas": np.array([1, 250], dtype=np.uint8)}, "out of range"),
    ({"deltas": np.array([4, 0], dtype=np.uint8)}, "out of range"),
    ({"row_encoding": np.array([False]), "deltas": np.empty(0, dtype=np.uint8),
      "abs_colind": np.array([1, 4], dtype=np.int32)}, "out of range"),
    ({"row_encoding": np.array([False]), "deltas": np.empty(0, dtype=np.uint8),
      "abs_colind": np.array([-1, 3], dtype=np.int32)}, "out of range"),
    ({"values": np.array([1.0])}, "values length"),
    ({"row_encoding": np.array([True, True])}, "row_encoding/values length"),
])
def test_delta_matrix_rejects_what_the_decoder_would_trust(changes, message):
    with pytest.raises(ValueError, match=message) as err:
        DeltaCsrMatrix(**_delta_fields(**changes))
    assert "\n" not in str(err.value)


def test_delta_storage_beats_32bit_colind_when_nnz_exceeds_rows():
    # banded rows: gaps of 1, first columns <= 255 -> fully 8-bit codable
    entries = [(i, i + j, 1.0) for i in range(50) for j in range(4)]
    a = csr_from_triplets(TripletList.from_entries(50, 60, entries))
    d = encode_delta(a)
    assert d.row_encoding.all() and d.delta_width == 8
    assert a.nnz > a.nrows
    assert d.index_bytes < a.colind.nbytes


# --- numerical agreement of the variants -----------------------------------------

def _random_case(rng, n=32, m=32):
    a = csr_from_triplets(random_triplets(rng, n, m, float(rng.uniform(0.05, 0.4))))
    x = rng.uniform(-2.0, 2.0, m)
    return a, x


@pytest.mark.usefixtures("kernel_backend")
def test_delta_spmv_bitwise_equals_baseline(matrix_e):
    assert spmv_delta(encode_delta(matrix_e), [1, 1, 1, 1]).tolist() == [3, 3, 0, 15]
    assert not spmv_delta(encode_delta(matrix_e), np.zeros(4)).any()
    rng = np.random.default_rng(29)
    for _ in range(10):
        a, x = _random_case(rng)
        part = partition_rows_by_nnz(a, int(rng.integers(1, 5)))
        assert np.array_equal(spmv_delta(encode_delta(a), x, part),
                              spmv_baseline(a, x, part))


@pytest.mark.usefixtures("kernel_backend")
def test_prefetch_spmv_bitwise_equals_baseline(matrix_e):
    assert spmv_prefetch(matrix_e, [1, 2, 3, 4], distance=8).tolist() == [9, 6, 0, 38]
    rng = np.random.default_rng(31)
    a, x = _random_case(rng)
    y1 = spmv_prefetch(a, x, distance=1)
    assert np.array_equal(y1, spmv_baseline(a, x))
    # distances past the last nonzero, one of which a C int64 would wrap to -1
    for distance in (64, a.nnz, 2**64 - 1):
        assert np.array_equal(spmv_prefetch(a, x, distance=distance), y1)
    with pytest.raises(ValueError):
        spmv_prefetch(a, x, distance=0)


@pytest.mark.usefixtures("kernel_backend")
def test_scheduled_spmv_equals_baseline(matrix_e):
    policy = SchedulePolicy(ScheduleKind.DYNAMIC_CHUNKED, chunk_rows=1)
    assert spmv_scheduled(matrix_e, [1, 1, 1, 1], policy, workers=2).tolist() == [3, 3, 0, 15]
    # one row holding ~90% of the nonzeros
    entries = [(0, j, 1.0) for j in range(90)] + [(i, 0, 1.0) for i in range(1, 11)]
    skewed = csr_from_triplets(TripletList.from_entries(11, 90, entries))
    x = np.random.default_rng(1).uniform(-1, 1, 90)
    expected = spmv_baseline(skewed, x)
    got = spmv_scheduled(skewed, x, policy, workers=4)
    assert np.array_equal(got, expected)
    # more workers than chunks, and one chunk longer than the matrix
    for chunk_rows, workers in [(4, 8), (20, 2)]:
        policy = SchedulePolicy(ScheduleKind.DYNAMIC_CHUNKED, chunk_rows=chunk_rows)
        assert np.array_equal(spmv_scheduled(skewed, x, policy, workers), expected)


def test_schedule_policy_validation():
    with pytest.raises(ValueError):
        SchedulePolicy(ScheduleKind.DYNAMIC_CHUNKED, chunk_rows=0)


@pytest.mark.usefixtures("kernel_backend")
def test_unrolled_exact_on_short_rows_and_integers(matrix_e):
    assert spmv_unrolled(matrix_e, [1, 1, 1, 1]).tolist() == [3, 3, 0, 15]
    row8 = csr_from_triplets(TripletList.from_entries(
        1, 8, [(0, j, 1.0) for j in range(8)]))
    assert spmv_unrolled(row8, np.ones(8)).tolist() == [8.0]


@pytest.mark.usefixtures("kernel_backend")
def test_unrolled_within_tolerance_of_baseline():
    rng = np.random.default_rng(37)
    for _ in range(10):
        a = csr_from_triplets(random_triplets(rng, 32, 32, 0.3))
        x = rng.uniform(0.5, 2.0, 32)
        y_u = spmv_unrolled(a, x)
        y_b = spmv_baseline(a, x)
        assert np.allclose(y_u, y_b, rtol=1e-10, atol=0)


@pytest.mark.usefixtures("kernel_backend")
def test_every_kernel_sums_each_row_left_to_right():
    # 1e16 + 1 rounds back to 1e16, so the order decides the answer: left
    # to right gives 6.0, numpy's pairwise sum 5.0, math.fsum 7.0 and four
    # lanes plus a tail ((1e16+2) + (-1e16+2)) + 1 = 5.0.
    row = [1e16, 1.0, -1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    a = csr_from_triplets(TripletList.from_entries(
        1, 9, [(0, j, v) for j, v in enumerate(row)]))
    x = np.ones(9)
    assert np.array(row).sum() == 5.0 and math.fsum(row) == 7.0
    for name, (kernel, _) in KERNEL_ENTRY_POINTS.items():
        expected = 5.0 if "unrolled" in name else 6.0
        assert kernel(a, x, None).tolist() == [expected], name


@pytest.mark.usefixtures("kernel_backend")
@given(st.lists(st.integers(0, 30), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_kernels_match_plain_python_oracles_bitwise(row_lengths, seed, parts):
    # Columns, values and x come from a seeded generator: simple floats sum
    # exactly in any order and would not tell summation orders apart.
    rng = np.random.default_rng(seed)
    entries = [(i, int(c), float(rng.uniform(-2.0, 2.0)))
               for i, k in enumerate(row_lengths)
               for c in rng.choice(30, size=k, replace=False)]
    a = csr_from_triplets(TripletList.from_entries(len(row_lengths), 30, entries))
    x = rng.uniform(-2.0, 2.0, 30)
    lists = (a.rowptr.tolist(), a.colind.tolist(), a.values.tolist(), x.tolist())
    part = partition_rows_by_nnz(a, parts)
    assert spmv_baseline(a, x, part).tolist() == sequential_matvec(*lists)
    assert spmv_unrolled(a, x, part).tolist() == four_lane_matvec(*lists)


# --- profiler probes --------------------------------------------------------------

def _noxmiss(a, x, part=None):
    """noxmiss as ``measure`` runs it: the baseline body over zeroed indices."""
    body = bodies.partition_body("rows", a, np.zeros_like(a.colind))
    return _partition_times(a, body, x, part, time.perf_counter)[0]


@pytest.mark.usefixtures("kernel_backend")
def test_noxmiss_scales_row_sums_by_x0(matrix_e):
    assert _noxmiss(matrix_e, [2, 1, 1, 1]).tolist() == [6, 6, 0, 30]
    assert not _noxmiss(matrix_e, [0, 5, 5, 5]).any()


@pytest.mark.usefixtures("kernel_backend")
def test_noxmiss_equals_baseline_on_zeroed_colind():
    rng = np.random.default_rng(41)
    t = random_triplets(rng, 20, 20, 0.2)
    a = csr_from_triplets(t)
    x = rng.uniform(0.5, 2.0, 20)
    # every row is x[0] times each value, summed left to right
    y = _noxmiss(a, x, partition_rows_by_nnz(a, 3))
    for i in range(a.nrows):
        expected = 0.0
        for v in a.values[a.rowptr[i]:a.rowptr[i + 1]].tolist():
            expected += v * x[0]
        assert y[i] == expected


@pytest.mark.usefixtures("kernel_backend")
def test_noxmiss_is_identity_on_single_column_matrix():
    a = csr_from_triplets(TripletList.from_entries(
        3, 1, [(0, 0, 2.0), (2, 0, 5.0)]))
    x = np.array([3.0])
    assert np.array_equal(_noxmiss(a, x), spmv_baseline(a, x))


@pytest.mark.usefixtures("kernel_backend")
def test_inflate_bitwise_equal_and_doubles_index_bytes(matrix_e):
    # inflate, measure's bandwidth probe, is the baseline on a 64-bit copy
    wide = matrix_e.with_index_width(64)
    assert spmv_baseline(wide, [1, 1, 1, 1]).tolist() == [3, 3, 0, 15]
    assert matrix_e.index_bytes == 44
    assert wide.index_bytes == 88
    rng = np.random.default_rng(43)
    a, x = _random_case(rng)
    assert np.array_equal(spmv_baseline(a.with_index_width(64), x), spmv_baseline(a, x))


@pytest.mark.usefixtures("kernel_backend")
def test_balance_reports_per_worker_durations(matrix_e):
    part = partition_rows_by_nnz(matrix_e, 4)
    timer = FakeTimer([0.004, 0.002, 0.002, 0.002])
    y, durations, mean = bench_balance(matrix_e, [1, 1, 1, 1], part,
                                       timer=timer)
    assert y.tolist() == [3, 3, 0, 15]
    assert durations == [0.004, 0.002, 0.002, 0.002]
    assert mean == pytest.approx(0.0025)
    assert mean <= max(durations)


@pytest.mark.usefixtures("kernel_backend")
def test_balance_single_worker_mean_is_its_duration(matrix_e):
    part = partition_rows_by_nnz(matrix_e, 1)
    timer = FakeTimer([0.007])
    _, durations, mean = bench_balance(matrix_e, [1, 1, 1, 1], part,
                                       timer=timer)
    assert durations == [0.007]
    assert mean == 0.007


@pytest.mark.usefixtures("kernel_backend")
def test_all_variants_vs_baseline_bulk():
    rng = np.random.default_rng(47)
    for _ in range(15):
        n = int(rng.integers(1, 129))
        m = int(rng.integers(1, 129))
        a = csr_from_triplets(random_triplets(rng, n, m, float(rng.uniform(0.01, 0.5))))
        x = rng.uniform(0.5, 2.0, m)
        part = partition_rows_by_nnz(a, int(rng.integers(1, 5)))
        y = spmv_baseline(a, x, part)
        assert np.array_equal(spmv_delta(encode_delta(a), x, part), y)
        assert np.array_equal(spmv_prefetch(a, x, part, 8), y)
        assert np.array_equal(spmv_baseline(a.with_index_width(64), x, part), y)
        assert np.array_equal(
            spmv_scheduled(a, x, SchedulePolicy(ScheduleKind.DYNAMIC_CHUNKED, 3), 2), y)
        assert np.allclose(spmv_unrolled(a, x, part), y, rtol=1e-10, atol=0)


# --- shared kernel contract -------------------------------------------------------

def _balance(a, x, part):
    part = partition_rows_by_nnz(a, 2) if part is None else part
    return bench_balance(a, x, part)[0]


# (kernel(a, x, part), whether it accepts a partition)
KERNEL_ENTRY_POINTS = {
    "baseline": (spmv_baseline, True),
    "delta": (lambda a, x, part: spmv_delta(encode_delta(a), x, part), True),
    "prefetch": (spmv_prefetch, True),
    "scheduled-dynamic": (lambda a, x, part: spmv_scheduled(
        a, x, SchedulePolicy(ScheduleKind.DYNAMIC_CHUNKED), workers=2), False),
    "unrolled": (spmv_unrolled, True),
    "noxmiss": (_noxmiss, True),
    "inflate": (lambda a, x, part: spmv_baseline(a.with_index_width(64), x, part), True),
    "balance": (_balance, True),
    # What ``bench`` runs: each row of the variant table, prepared for two
    # workers.  The dynamic row takes no partition.
    **{f"VARIANTS[{name!r}]": (
        lambda a, x, part, v=v: v.prepare(a, AdvisorConfig(workers=2), part)(x),
        name != "dynamic") for name, v in VARIANTS.items()},
}


@pytest.mark.usefixtures("kernel_backend")
@pytest.mark.parametrize("name", KERNEL_ENTRY_POINTS)
def test_kernel_entry_point_contract(matrix_e, name):
    kernel, takes_part = KERNEL_ENTRY_POINTS[name]
    part = partition_rows_by_nnz(matrix_e, 2)
    before = kernel_call_count()
    # x = ones makes noxmiss agree with the true product on this matrix
    assert kernel(matrix_e, np.ones(4), part).tolist() == [3, 3, 0, 15]
    assert kernel_call_count() == before + 1
    with pytest.raises(ValueError):
        kernel(matrix_e, np.ones(3), None)
    if takes_part:
        with pytest.raises(ValueError, match="cover"):
            kernel(matrix_e, np.ones(4), RowPartition(np.array([0, 2, 3])))


@pytest.mark.usefixtures("kernel_backend")
@pytest.mark.parametrize("name", KERNEL_ENTRY_POINTS)
def test_kernel_entry_point_on_zero_rows(name):
    kernel, _ = KERNEL_ENTRY_POINTS[name]
    a = CsrMatrix(0, 3, np.zeros(1), np.empty(0), np.empty(0))
    before = kernel_call_count()
    assert kernel(a, np.ones(3), None).shape == (0,)
    assert kernel_call_count() == before + 1


@pytest.mark.usefixtures("kernel_backend")
@pytest.mark.parametrize("reps,warmup", [(1, 0), (2, 3), (3, 1)])
def test_measure_runs_four_kernels_per_rep_and_warmup(matrix_e, reps, warmup,
                                                     monkeypatch):
    timer = FakeTimer(measure_script(0.01, 0.01, 0.01, [0.01, 0.01], reps, 2))
    prepared = []
    real = bodies.partition_body
    monkeypatch.setattr(bodies, "partition_body",
                        lambda *args: prepared.append(args[0]) or real(*args))
    before = kernel_call_count()
    measure(matrix_e, np.ones(4), workers=2, reps=reps, warmup=warmup,
            timer=timer)
    assert kernel_call_count() - before == 4 * (reps + warmup)
    # baseline, noxmiss and inflate are each prepared once; balance reuses
    # the baseline's body.
    assert prepared == ["rows"] * 3
    # The same count through classify_profiling on the real clock: perfbench's
    # profile-advise fails any operation that makes a different number of calls.
    before = kernel_call_count()
    classify_profiling(matrix_e, workers=2, reps=reps, warmup=warmup)
    assert kernel_call_count() - before == 4 * (reps + warmup)


# --- backends -----------------------------------------------------------------

@given(st.lists(st.integers(0, 12), min_size=1, max_size=10),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]),
       st.sampled_from([30, 600, 70_000]), st.sampled_from([32, 64]),
       st.integers(1, 20), st.integers(1, 5))
def test_backends_are_bitwise_equal(row_lengths, seed, parts, ncols, width, distance,
                                    chunk_rows):
    # Up to 70k columns mix 8-bit, 16-bit and absolute delta rows.  The
    # dynamic schedule runs on ``parts`` workers.
    rng = np.random.default_rng(seed)
    entries = [(i, int(c), float(rng.uniform(-2.0, 2.0)))
               for i, k in enumerate(row_lengths)
               for c in rng.choice(ncols, size=k, replace=False)]
    a = csr_from_triplets(TripletList.from_entries(len(row_lengths), ncols, entries),
                          index_width=width)
    x = rng.uniform(-2.0, 2.0, ncols)
    part = partition_rows_by_nnz(a, parts)
    dynamic = SchedulePolicy(ScheduleKind.DYNAMIC_CHUNKED, chunk_rows)
    kernels = {**KERNEL_ENTRY_POINTS,
               "prefetch": (lambda a, x, part: spmv_prefetch(a, x, part, distance), True),
               "scheduled-dynamic": (lambda a, x, part: spmv_scheduled(
                   a, x, dynamic, parts), False)}
    results = {}
    for name in BACKENDS:
        with pytest.MonkeyPatch.context() as mp:
            use_backend(mp, name)
            results[name] = {k: kernel(a, x, part).tobytes()
                             for k, (kernel, _) in kernels.items()}
    assert results["native"] == results["numpy"]


def _threads() -> int:
    """This process's thread count, from /proc/self/status."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        pytest.skip("no /proc/self/status")
    for line in status.splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    pytest.skip("/proc/self/status has no Threads: line")


def _chunked_case():
    """A 64-row matrix, its x, one-row chunks and the oracle's y."""
    rng = np.random.default_rng(17)
    a = csr_from_triplets(random_triplets(rng, 64, 40, 0.2))
    x = rng.uniform(-2.0, 2.0, 40)
    expected = sequential_matvec(a.rowptr.tolist(), a.colind.tolist(),
                                 a.values.tolist(), x.tolist())
    return a, x, SchedulePolicy(ScheduleKind.DYNAMIC_CHUNKED, chunk_rows=1), expected


def test_native_kernels_leave_no_thread_behind(matrix_e, monkeypatch):
    # Every thread a native call starts is joined before it returns, so a
    # fork after a kernel call copies no worker thread.  The Python pool
    # serves the numpy backend only.
    use_backend(monkeypatch, "native")
    monkeypatch.setattr(bodies, "_shared_pool",
                        lambda: pytest.fail("a native call used the pool"))
    part = partition_rows_by_nnz(matrix_e, 2)
    for name, (kernel, _) in KERNEL_ENTRY_POINTS.items():
        before = _threads()
        assert kernel(matrix_e, np.ones(4), part).tolist() == [3, 3, 0, 15]
        assert _threads() == before, name
    # 64 one-row chunks: at most 32 threads, so even a broken cap starts 63.
    a, x, policy, expected = _chunked_case()
    before = _threads()
    assert spmv_scheduled(a, x, policy, workers=10**6).tolist() == expected
    assert _threads() == before


# Built into the library by -include: pthread_create counts its calls in
# `creates` and, while `fail_every_other` is set, fails every second one.
_COUNTED_CREATE = r"""
#include <errno.h>
#include <pthread.h>
int creates, fail_every_other;
static int counted_create(pthread_t *thread, const pthread_attr_t *attr,
                          void *(*start)(void *), void *arg)
{
    if (creates++ % 2 && fail_every_other)
        return EAGAIN;
    return pthread_create(thread, attr, start, arg);
}
#define pthread_create counted_create
"""


@pytest.mark.parametrize("fail", [False, True])
def test_native_thread_cap_and_failed_starts(tmp_path, monkeypatch, fail):
    use_backend(monkeypatch, "native")
    shim, lib = tmp_path / "counted_create.h", tmp_path / "counted.so"
    shim.write_text(_COUNTED_CREATE)
    subprocess.run([*shlex.split(os.environ.get("CC") or "cc"), *bodies.FLAGS,
                    "-include", str(shim), "-o", str(lib), str(bodies._SOURCE)],
                   check=True, capture_output=True, timeout=120)
    monkeypatch.setattr(bodies, "_build", lambda: lib)
    monkeypatch.setattr(bodies, "_state", None)
    assert bodies.backend() == "native"
    counted = ctypes.CDLL(str(lib))
    creates = ctypes.c_int.in_dll(counted, "creates")
    ctypes.c_int.in_dll(counted, "fail_every_other").value = fail
    a, x, policy, expected = _chunked_case()
    # The calling thread is one of min(workers, 64 chunks, 32) threads; after
    # a failed start no other start is tried and the started threads do all.
    for workers, starts in [(1, 0), (2, 1), (3, 2), (32, 31), (10**6, 31)]:
        creates.value = 0
        before = _threads()
        assert spmv_scheduled(a, x, policy, workers).tolist() == expected
        assert creates.value == (min(starts, 2) if fail else starts), workers
        assert _threads() == before


def test_native_source_builds_without_warnings(tmp_path, monkeypatch):
    use_backend(monkeypatch, "native")
    done = subprocess.run([*shlex.split(os.environ.get("CC") or "cc"), *bodies.FLAGS,
                           "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "strict.so"),
                           str(bodies._SOURCE)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.usefixtures("kernel_backend")
def test_body_keeps_its_temporary_index_array_alive():
    # measure keeps only the noxmiss body, not its zeroed indices; the
    # native body holds their address, so it must hold the array too.
    rng = np.random.default_rng(23)
    a = csr_from_triplets(random_triplets(rng, 40, 30, 0.2))
    x = rng.uniform(-2.0, 2.0, 30)
    zeros = np.zeros_like(a.colind)
    alive = weakref.ref(zeros)
    body = bodies.partition_body("rows", a, zeros)
    del zeros
    gc.collect()
    assert alive() is not None
    y = np.empty(a.nrows)
    body(x, y, np.array([0, 20, a.nrows], dtype=np.int64), 2)
    assert y.tolist() == sequential_matvec(a.rowptr.tolist(), [0] * a.nnz,
                                           a.values.tolist(), x.tolist())
    del body
    gc.collect()
    assert alive() is None


def _run_python(code: str, **env) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join([str(src), str(Path(__file__).parent)])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path, **env})


@pytest.mark.parametrize("case", ["missing compiler", "failing compiler", "unsplittable CC",
                                  "cache is a file"])
def test_fallback_matches_the_oracles(tmp_path, case):
    code = """
import json
import numpy as np
from dataclasses import astuple
from spmvtune import (CacheConfig, TripletList, bodies, csr_from_triplets, encode_delta,
                     extract_features, partition_rows_by_nnz, spmv_baseline,
                     spmv_delta, spmv_unrolled)
from oracles import four_lane_matvec, sequential_matvec

rng = np.random.default_rng(5)
entries = [(i, int(c), float(rng.uniform(-2, 2)))
           for i in range(12) for c in rng.choice(40, size=i, replace=False)]
a = csr_from_triplets(TripletList.from_entries(12, 40, entries))
x = rng.uniform(-2, 2, 40)
part = partition_rows_by_nnz(a, 2)
lists = (a.rowptr.tolist(), a.colind.tolist(), a.values.tolist(), x.tolist())
print(json.dumps({
    "backend": bodies.backend(),
    "baseline": spmv_baseline(a, x, part).tolist() == sequential_matvec(*lists),
    "delta": spmv_delta(encode_delta(a), x, part).tolist() == sequential_matvec(*lists),
    "unrolled": spmv_unrolled(a, x, part).tolist() == four_lane_matvec(*lists),
    "rowptr": a.rowptr.tolist(), "colind": a.colind.tolist(),
    "features": astuple(extract_features(a, CacheConfig(llc_bytes=1 << 20))),
}))
"""
    cache = tmp_path / "cache"
    missing = str(tmp_path / "no-such-cc")
    env, reason = {
        "missing compiler": ({"CC": missing},
                             f"[Errno 2] No such file or directory: {missing!r}"),
        "failing compiler": ({"CC": "false"}, "false exited 1"),
        "unsplittable CC": ({"CC": 'cc "'}, "No closing quotation"),
        "cache is a file": ({}, f"[Errno 20] Not a directory: '{cache / 'spmvtune'}'"),
    }[case]
    if case == "cache is a file":
        cache.write_text("")
    done = _run_python(code, XDG_CACHE_HOME=str(cache), **env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result.pop("backend") == f"numpy ({reason})"
    # The fallback's features equal this process's, native when it loads.
    a = CsrMatrix(12, 40, result.pop("rowptr"), result.pop("colind"), np.ones(66))
    assert (FeatureVector(*result.pop("features"))
            == extract_features(a, CacheConfig(llc_bytes=1 << 20)))
    assert result == {"baseline": True, "delta": True, "unrolled": True}
    if cache.is_dir():  # a failed build leaves no temporary file behind
        assert list((cache / "spmvtune").iterdir()) == []


def test_import_compiles_and_loads_nothing(tmp_path):
    code = """
import json
from pathlib import Path
import numpy as np
import spmvtune
from spmvtune import bodies

cache = Path(%r)
before = {"state": bodies._state is None, "cache": cache.exists()}
spmvtune.spmv_baseline(spmvtune.CsrMatrix(1, 1, [0, 1], [0], [2.0]), np.ones(1))
print(json.dumps({"before": before, "backend": bodies.backend(),
                  "built": sorted(p.suffix for p in cache.iterdir())}))
""" % str(tmp_path / "spmvtune")
    done = _run_python(code, XDG_CACHE_HOME=str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["before"] == {"state": True, "cache": False}
    if result["backend"] == "native":  # the first kernel call built the library
        assert result["built"] == [".so"]
