import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spmvtune import (CsrMatrix, MatrixMarketError, TripletList,
                      csr_from_triplets, load_matrix, parse_matrix_market,
                      partition_rows_by_nnz, spmv_baseline, to_dense,
                      write_matrix_market, read_matrix_market)
from spmvtune.csr import run_partitions

from conftest import random_triplets
from oracles import dense_from_triplets, dense_matvec


@st.composite
def triplet_lists(draw, max_rows=16, max_cols=16, max_nnz=60):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    positions = draw(st.lists(
        st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
        max_size=max_nnz, unique=True))
    values = draw(st.lists(st.floats(0.5, 2.0), min_size=len(positions),
                           max_size=len(positions)))
    entries = [(r, c, v) for (r, c), v in zip(positions, values)]
    return TripletList.from_entries(nrows, ncols, entries)


# --- Matrix Market parsing ---------------------------------------------------

def test_parse_general_real():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n2 2 7.0\n"
    t = parse_matrix_market(text)
    assert (t.nrows, t.ncols) == (2, 2)
    assert sorted(t.entries()) == [(0, 0, 5.0), (1, 1, 7.0)]


def test_parse_symmetric_mirrors_offdiagonal():
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 3.0\n"
    t = parse_matrix_market(text)
    assert sorted(t.entries()) == [(0, 0, 1.0), (0, 1, 3.0), (1, 0, 3.0)]


def test_parse_pattern_gets_unit_values():
    text = "%%MatrixMarket matrix coordinate pattern general\n1 2 1\n1 2\n"
    assert list(parse_matrix_market(text).entries()) == [(0, 1, 1.0)]


def test_parse_integer_field():
    text = "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 4\n2 1 -7\n"
    t = parse_matrix_market(text)
    assert sorted(t.entries()) == [(0, 1, 4.0), (1, 0, -7.0)]


def test_parse_pattern_symmetric_combines_both_rules():
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n"
    t = parse_matrix_market(text)
    assert sorted(t.entries()) == [(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)]


def test_parse_zero_entry_matrix():
    t = parse_matrix_market("%%MatrixMarket matrix coordinate real general\n3 4 0\n")
    assert (t.nrows, t.ncols, len(t)) == (3, 4, 0)


def test_parse_banner_is_case_insensitive():
    text = "%%MatrixMarket MATRIX Coordinate REAL General\n1 1 1\n1 1 2.5\n"
    assert list(parse_matrix_market(text).entries()) == [(0, 0, 2.5)]


def test_parse_skips_comments_and_blank_lines():
    text = ("%%MatrixMarket matrix coordinate real general\n"
            "% comment line\n\n2 2 1\n% another\n1 2 4.5\n\n")
    assert list(parse_matrix_market(text).entries()) == [(0, 1, 4.5)]


@pytest.mark.parametrize("text", [
    "not a banner\n1 1 0\n",
    "%%MatrixMarket matrix array real general\n1 1\n1.0\n",
    "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
    "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
    "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 2.0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
    "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 2 1.0\n2 1 1.0\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 2\n",
    "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n2 1 1.0\n",
    "",
    "%%MatrixMarket matrix coordinate real general\n",
    "%%MatrixMarket matrix coordinate real general\n2 2\n",
    "%%MatrixMarket matrix coordinate real general\na 2 1\n1 1 1.0\n",
    "%%MatrixMarket matrix coordinate real general\n-1 2 0\n",
    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n",
    "%%MatrixMarket vector coordinate real general\n2 2 1\n1 1 1.0\n",
])
def test_parse_rejects_bad_input(text):
    with pytest.raises(MatrixMarketError):
        parse_matrix_market(text)


def test_write_read_round_trip(tmp_path):
    t = random_triplets(np.random.default_rng(7), 9, 11, 0.2)
    path = tmp_path / "m.mtx"
    write_matrix_market(path, t, comments=("round trip",))
    back = read_matrix_market(path)
    assert csr_from_triplets(back) == csr_from_triplets(t)


# --- CSR construction --------------------------------------------------------

def test_csr_from_triplets_reference_matrix(matrix_e):
    assert matrix_e.rowptr.tolist() == [0, 2, 3, 3, 6]
    assert matrix_e.colind.tolist() == [0, 3, 1, 0, 1, 3]
    assert matrix_e.values.tolist() == [1, 2, 3, 4, 5, 6]
    assert matrix_e.index_width == 32


def test_csr_from_triplets_empty():
    t = TripletList.from_entries(3, 3, [])
    a = csr_from_triplets(t)
    assert a.rowptr.tolist() == [0, 0, 0, 0]
    assert a.nnz == 0


def test_csr_from_triplets_sums_duplicates():
    t = TripletList.from_entries(1, 1, [(0, 0, 1.0), (0, 0, 2.0)])
    a = csr_from_triplets(t)
    assert a.values.tolist() == [3.0]


def test_csr_invariant_violations_rejected():
    with pytest.raises(ValueError):
        CsrMatrix(1, 2, [0, 2], [1, 0], [1.0, 1.0])  # decreasing within row
    with pytest.raises(ValueError):
        CsrMatrix(1, 2, [0, 1], [5], [1.0])  # column out of range
    with pytest.raises(ValueError):
        CsrMatrix(1, 2, [1, 1], [], [])  # rowptr[0] != 0
    with pytest.raises(ValueError):
        CsrMatrix(2, 2, [0, 2, 1], [0, 1, 0], [1.0, 1.0, 1.0])  # decreasing rowptr


# Column 4294967301 (0-based) would wrap to 5 in 32-bit storage.
WIDE_COLUMN_MTX = ("%%MatrixMarket matrix coordinate real general\n"
                   "2 5000000000 2\n1 4294967302 1.5\n2 3 2.0\n")


def test_indices_beyond_32_bits_need_64_bit_width(tmp_path):
    path = tmp_path / "wide.mtx"
    path.write_text(WIDE_COLUMN_MTX)
    with pytest.raises(ValueError, match="needs 64-bit indices"):
        load_matrix(path)
    assert load_matrix(path, index_width=64).colind.tolist() == [4294967301, 2]
    with pytest.raises(ValueError, match="needs 64-bit indices"):
        CsrMatrix(1, 2, [0, 2**31], [], [])  # nnz beyond 32 bits


@given(triplet_lists())
def test_csr_matches_dense_oracle(t):
    a = csr_from_triplets(t)
    assert np.array_equal(to_dense(a), dense_from_triplets(t))
    # round trip through triplets
    assert csr_from_triplets(a.to_triplets(), index_width=a.index_width) == a


# --- SpMV --------------------------------------------------------------------

def test_spmv_reference_values(matrix_e):
    assert spmv_baseline(matrix_e, [1, 1, 1, 1]).tolist() == [3, 3, 0, 15]
    assert spmv_baseline(matrix_e, [1, 2, 3, 4]).tolist() == [9, 6, 0, 38]
    assert spmv_baseline(matrix_e, [0, 0, 0, 0]).tolist() == [0, 0, 0, 0]


def test_spmv_dimension_mismatch(matrix_e):
    with pytest.raises(ValueError):
        spmv_baseline(matrix_e, [1, 2, 3])


def test_spmv_bitwise_identical_across_partition_counts():
    rng = np.random.default_rng(3)
    a = csr_from_triplets(random_triplets(rng, 64, 64, 0.15))
    x = rng.uniform(-1, 1, 64)
    reference = spmv_baseline(a, x, partition_rows_by_nnz(a, 1))
    for p in (2, 4, 8):
        y = spmv_baseline(a, x, partition_rows_by_nnz(a, p))
        assert np.array_equal(y, reference)


def test_spmv_against_dense_oracle_randomized():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 65))
        m = int(rng.integers(1, 65))
        t = random_triplets(rng, n, m, float(rng.uniform(0.01, 0.5)))
        a = csr_from_triplets(t)
        x = rng.uniform(0.5, 2.0, m)
        expected = dense_matvec(dense_from_triplets(t), x)
        got = spmv_baseline(a, x)
        assert np.allclose(got, expected, rtol=1e-12, atol=0)


# --- Row partitioning --------------------------------------------------------

def _csr_with_row_nnz(row_nnz):
    entries = [(i, j, 1.0) for i, k in enumerate(row_nnz) for j in range(k)]
    ncols = max(max(row_nnz), 1)
    return csr_from_triplets(TripletList.from_entries(len(row_nnz), ncols, entries))


def test_partition_examples():
    a = _csr_with_row_nnz([5, 1, 1, 5])
    assert partition_rows_by_nnz(a, 2).boundaries.tolist() == [0, 2, 4]
    b = _csr_with_row_nnz([10, 1, 1])
    assert partition_rows_by_nnz(b, 3).boundaries.tolist() == [0, 1, 1, 3]
    assert partition_rows_by_nnz(b, 1).boundaries.tolist() == [0, 3]


def test_partition_more_parts_than_rows():
    a = _csr_with_row_nnz([1, 1])
    part = partition_rows_by_nnz(a, 5)
    assert part.boundaries[0] == 0 and part.boundaries[-1] == 2
    assert np.all(np.diff(part.boundaries) >= 0)


def test_partition_requires_positive_count(matrix_e):
    with pytest.raises(ValueError):
        partition_rows_by_nnz(matrix_e, 0)


@given(st.lists(st.integers(0, 12), min_size=1, max_size=30),
       st.integers(1, 8))
def test_partition_deviation_bounded_by_max_row(row_nnz, p):
    # Each part's nonzero count deviates from NNZ/p by at most the largest
    # single row (boundaries can only miss the ideal split by one row).
    a = _csr_with_row_nnz(row_nnz)
    part = partition_rows_by_nnz(a, p)
    assert part.boundaries[0] == 0 and part.boundaries[-1] == a.nrows
    assert np.all(np.diff(part.boundaries) >= 0)
    max_row = int(a.row_nnz().max()) if a.nrows else 0
    for k in range(len(part)):
        lo, hi = part.bounds(k)
        nnz_k = int(a.rowptr[hi] - a.rowptr[lo])
        assert abs(nnz_k * p - a.nnz) <= max_row * p


# --- row_of ------------------------------------------------------------------

@pytest.mark.parametrize("width,dtype", [(32, np.int32), (64, np.int64)])
def test_row_of_is_built_once_by_the_first_kernel_call(matrix_e, width, dtype):
    a = matrix_e.with_index_width(width)
    assert "row_of" not in vars(a)
    spmv_baseline(a, np.ones(4))
    row_of = vars(a)["row_of"]
    assert row_of.dtype == dtype and row_of.tolist() == [0, 0, 1, 3, 3, 3]
    spmv_baseline(a, np.ones(4))
    assert a.row_of is row_of


def test_to_triplets_rows_do_not_alias_row_of(matrix_e):
    a = matrix_e.with_index_width(64)
    t = a.to_triplets()
    assert t.rows.dtype == np.int64 and t.rows.tolist() == [0, 0, 1, 3, 3, 3]
    t.rows[:] = 0
    assert a.row_of.tolist() == [0, 0, 1, 3, 3, 3]


# --- to_dense ----------------------------------------------------------------

def test_to_dense_reference(matrix_e):
    dense = to_dense(matrix_e)
    assert dense.shape == (4, 4)
    assert dense[0, 0] == 1 and dense[0, 3] == 2 and dense[3, 3] == 6
    assert np.count_nonzero(dense) == 6


def test_to_dense_empty():
    a = csr_from_triplets(TripletList.from_entries(3, 3, []))
    assert not to_dense(a).any()


def test_run_partitions_claims_every_task_once():
    # More workers than cores and a short switch interval make a lost or
    # doubled claim on the shared counter likely to show.
    claimed = [0] * 2000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def task(p):
            claimed[p] += 1

        run_partitions(len(claimed), task, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert claimed == [1] * len(claimed)
