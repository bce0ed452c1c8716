import csv
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spmvtune import (AdvisorConfig, CacheConfig, CsrMatrix, FEATURE_NAMES,
                      FEATURE_SUBSETS, FeatureVector, TripletList,
                      csr_from_triplets, extract_features, load_matrix,
                      resolve_subset, select_features, working_set_bytes)
from spmvtune import bodies
from spmvtune.cli import main

from conftest import BACKENDS, random_triplets, use_backend
from oracles import dense_from_triplets, feature_oracle

BIG_LLC = CacheConfig(llc_bytes=1 << 30, cacheline_bytes=64)


def identity_csr(n):
    return CsrMatrix(n, n, np.arange(n + 1), np.arange(n), np.ones(n))


def assert_matches_oracle(fv: FeatureVector, expected: dict):
    exact = ("size", "nnz_min", "nnz_max", "bw_min", "bw_max")
    for name in FEATURE_NAMES:
        got = getattr(fv, name)
        want = expected[name]
        if name in exact:
            assert got == want, name
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), name


# --- fixtures with hand-checked values ----------------------------------------

def test_identity_features():
    fv = extract_features(identity_csr(5), BIG_LLC)
    assert fv.size == 1
    assert fv.density == pytest.approx(1 / 5)
    assert (fv.nnz_min, fv.nnz_max, fv.nnz_avg, fv.nnz_sd) == (1, 1, 1, 0)
    assert (fv.bw_min, fv.bw_max, fv.bw_avg, fv.bw_sd) == (0, 0, 0, 0)
    assert (fv.dispersion_avg, fv.dispersion_sd) == (1, 0)
    assert fv.clustering == 1
    assert fv.miss_ratio == 0


def test_reference_matrix_features(matrix_e):
    fv = extract_features(matrix_e, BIG_LLC)
    assert fv.density == 0.375
    assert (fv.nnz_min, fv.nnz_max, fv.nnz_avg) == (0, 3, 1.5)
    assert fv.nnz_sd == pytest.approx(math.sqrt(1.25), rel=1e-12)
    assert (fv.bw_min, fv.bw_max, fv.bw_avg, fv.bw_sd) == (0, 3, 1.5, 1.5)
    assert fv.dispersion_avg == 0.5625
    assert fv.dispersion_sd == pytest.approx(math.sqrt(0.546875 / 4), rel=1e-12)
    assert fv.clustering == pytest.approx(2 / 3, rel=1e-12)
    assert fv.miss_ratio == 0
    assert fv.size == 1


def test_miss_rule_counts_large_gaps():
    # single row with columns 0 and 100; a cache line holds 8 values
    a = csr_from_triplets(TripletList.from_entries(1, 101, [(0, 0, 1.0), (0, 100, 1.0)]))
    fv = extract_features(a, CacheConfig(llc_bytes=1 << 20, cacheline_bytes=64))
    assert fv.miss_ratio == 1.0
    # gap equal to the line size does not miss
    b = csr_from_triplets(TripletList.from_entries(1, 10, [(0, 0, 1.0), (0, 8, 1.0)]))
    assert extract_features(b, CacheConfig(llc_bytes=1 << 20)).miss_ratio == 0.0


def test_working_set_bytes(matrix_e):
    cfg = CacheConfig(llc_bytes=1 << 20)
    assert working_set_bytes(matrix_e, cfg) == 156  # 8*6 + 4*6 + 4*5 + 8*8
    assert extract_features(matrix_e, CacheConfig(llc_bytes=150)).size == 0
    assert extract_features(matrix_e, CacheConfig(llc_bytes=200)).size == 1
    wide = matrix_e.with_index_width(64)
    assert working_set_bytes(wide, cfg) == 8 * 6 + 8 * 6 + 8 * 5 + 8 * 8
    empty = csr_from_triplets(TripletList.from_entries(1, 1, []))
    assert working_set_bytes(empty, cfg) == 24


def test_cache_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(llc_bytes=0)
    with pytest.raises(ValueError):
        CacheConfig(llc_bytes=64, cacheline_bytes=60)  # not divisible by 8


def test_explicit_index_bytes_overrides_matrix_width(matrix_e):
    cfg = CacheConfig(llc_bytes=1 << 20)
    wide = matrix_e.with_index_width(64)
    assert working_set_bytes(wide, cfg) == 8 * 6 + 8 * 6 + 8 * 5 + 8 * 8


# --- subsets -------------------------------------------------------------------

def test_select_features_orders_and_lengths(matrix_e):
    fv = extract_features(matrix_e, BIG_LLC)
    assert len(FEATURE_SUBSETS["manycore-tree"]) == 9
    assert len(FEATURE_SUBSETS["manycore-nb"]) == 6
    assert len(FEATURE_SUBSETS["multicore-tree"]) == 9
    assert len(FEATURE_SUBSETS["multicore-nb"]) == 3
    picked = select_features(fv, ("density", "size"))
    assert picked.tolist() == [0.375, 1.0]
    assert select_features(fv, ()).size == 0
    with pytest.raises(ValueError):
        select_features(fv, ("no_such_feature",))


def test_resolve_subset():
    assert resolve_subset("all") == FEATURE_NAMES
    assert resolve_subset("nnz_min, bw_avg") == ("nnz_min", "bw_avg")
    with pytest.raises(ValueError):
        resolve_subset("bogus-preset")


# --- oracle equivalence --------------------------------------------------------

def test_features_match_bruteforce_oracle_randomized():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 65))
        t = random_triplets(rng, n, m, float(rng.uniform(0.01, 0.5)))
        a = csr_from_triplets(t)
        llc = int(rng.integers(64, 8192))
        fv = extract_features(a, CacheConfig(llc_bytes=llc, cacheline_bytes=64))
        expected = feature_oracle(dense_from_triplets(t), llc, 64)
        assert_matches_oracle(fv, expected)


def test_features_invariant_under_row_permutation():
    rng = np.random.default_rng(5)
    t = random_triplets(rng, 40, 40, 0.1)
    a = csr_from_triplets(t)
    perm = rng.permutation(40)
    shuffled = csr_from_triplets(TripletList(40, 40, perm[t.rows], t.cols, t.vals))
    fv_a = select_features(extract_features(a, BIG_LLC), FEATURE_NAMES)
    fv_b = select_features(extract_features(shuffled, BIG_LLC), FEATURE_NAMES)
    assert np.allclose(fv_a, fv_b, rtol=1e-12, atol=1e-15)


@st.composite
def stepped_rows(draw):
    """Rows as ``None`` (empty) or a first column and its in-row column
    steps: one-element rows, steps of 1, and steps of one cache line of
    values and one more, at 64- and 128-byte lines (8 and 16 values)."""
    steps = st.lists(st.sampled_from([1, 2, 7, 8, 9, 15, 16, 17, 40]), max_size=8)
    return draw(st.lists(st.none() | st.tuples(st.integers(0, 40), steps),
                         min_size=1, max_size=12))


@given(stepped_rows(), st.sampled_from([32, 64]))
def test_feature_pass_is_equal_on_both_backends(rows, width):
    cols = [[] if r is None else list(itertools.accumulate(r[1], initial=r[0]))
            for r in rows]
    rowptr = [0, *itertools.accumulate(len(c) for c in cols)]
    colind = [c for row in cols for c in row]
    a = CsrMatrix(len(rows), max(colind, default=0) + 1, rowptr, colind,
                  np.ones(len(colind)), index_width=width)
    for line in (64, 128):
        cfg = CacheConfig(llc_bytes=1 << 20, cacheline_bytes=line)
        steps = [[] if r is None else r[1] for r in rows]
        expected = ([c[-1] - c[0] if c else 0 for c in cols],
                    [len(c) and 1 + sum(s != 1 for s in row) for c, row in zip(cols, steps)],
                    sum(s > cfg.line_values for row in steps for s in row))
        got = {}
        for name in BACKENDS:
            with pytest.MonkeyPatch.context() as mp:
                use_backend(mp, name)
                span, groups, misses = bodies.row_structure(a, cfg.line_values)
                assert span.dtype == groups.dtype == np.int64
                assert (span.tolist(), groups.tolist(), misses) == expected, name
                got[name] = extract_features(a, cfg)
        assert got["native"] == got["numpy"]


def test_extraction_work_scales_with_n_plus_nnz_not_area():
    # 200k x 100M with 10 nonzeros: any per-cell work would never finish.
    n, m = 200_000, 100_000_000
    rowptr = np.zeros(n + 1, dtype=np.int64)
    rowptr[1:11] = np.arange(1, 11)
    rowptr[11:] = 10
    a = CsrMatrix(n, m, rowptr, np.arange(0, 10_000_000, 1_000_000), np.ones(10))
    start = time.monotonic()
    fv = extract_features(a, CacheConfig(llc_bytes=1 << 20))
    assert time.monotonic() - start < 2.0
    assert fv.nnz_max == 1
    assert fv.density == pytest.approx(10 / (n * m))


# --- CSV serialization ----------------------------------------------------------

def test_feature_extraction_builds_no_row_index(matrix_e):
    extract_features(matrix_e, BIG_LLC)
    assert "row_of" not in vars(matrix_e)


def test_csv_row_round_trips(tmp_path):
    """The feature log that ``train`` writes holds each matrix's features
    in FEATURE_NAMES order, bit for bit."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for kind, seed in (("banded", 0), ("irregular", 1)):
        assert main(["generate", "--kind", kind, "--n", "30", "--nnz-per-row", "4",
                     "--seed", str(seed), "--out", str(corpus / f"{kind}.mtx")]) == 0
    labels = tmp_path / "labels.csv"
    labels.write_text("matrix,label\nbanded,MB\nirregular,CML\n")
    log = tmp_path / "log.csv"
    assert main(["train", "--corpus", str(corpus), "--labels", str(labels),
                 "--out", str(tmp_path / "m.json"), "--features-csv", str(log),
                 "--llc-bytes", "4096", "--cacheline-bytes", "128"]) == 0
    cfg = AdvisorConfig(llc_bytes=4096, cacheline_bytes=128)
    with open(log, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["matrix", *FEATURE_NAMES, "label"]
    assert [row[0] for row in rows] == ["banded", "irregular"]
    for row in rows:
        fv = extract_features(load_matrix(corpus / f"{row[0]}.mtx"), cfg.cache_config())
        want = select_features(fv, FEATURE_NAMES)
        got = np.array([float(tok) for tok in row[1:-1]])
        assert got.tobytes() == want.tobytes()
