import io
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spmvtune import (CsrMatrix, MatrixMarketError, TripletList,
                      csr_from_triplets, load_matrix, parse_matrix_market,
                      partition_rows_by_nnz, spmv_baseline,
                      write_matrix_market, read_matrix_market)
from spmvtune import mmio
from spmvtune.bodies import run_partitions

from conftest import random_triplets
from oracles import dense_from_csr, dense_from_triplets, dense_matvec


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


def by_position(t: TripletList) -> tuple[list, list, list]:
    """The rows, cols and vals arrays of ``t``, sorted by (row, col)."""
    order = np.lexsort((t.cols, t.rows))
    return t.rows[order].tolist(), t.cols[order].tolist(), t.vals[order].tolist()


# --- Matrix Market parsing ---------------------------------------------------

def test_parse_general_real():
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n2 2 7.0\n"
    t = parse_matrix_market(text)
    assert (t.nrows, t.ncols) == (2, 2)
    assert by_position(t) == ([0, 1], [0, 1], [5.0, 7.0])


def test_parse_symmetric_mirrors_offdiagonal():
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n2 1 3.0\n"
    t = parse_matrix_market(text)
    assert by_position(t) == ([0, 0, 1], [0, 1, 0], [1.0, 3.0, 3.0])


def test_parse_pattern_gets_unit_values():
    text = "%%MatrixMarket matrix coordinate pattern general\n1 2 1\n1 2\n"
    assert by_position(parse_matrix_market(text)) == ([0], [1], [1.0])


def test_parse_integer_field():
    text = "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 4\n2 1 -7\n"
    t = parse_matrix_market(text)
    assert by_position(t) == ([0, 1], [1, 0], [4.0, -7.0])


def test_parse_pattern_symmetric_combines_both_rules():
    text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n"
    t = parse_matrix_market(text)
    assert by_position(t) == ([0, 1, 2], [1, 0, 2], [1.0, 1.0, 1.0])


def test_parse_zero_entry_matrix():
    t = parse_matrix_market("%%MatrixMarket matrix coordinate real general\n3 4 0\n")
    assert (t.nrows, t.ncols, len(t)) == (3, 4, 0)


def test_parse_banner_is_case_insensitive():
    text = "%%MatrixMarket MATRIX Coordinate REAL General\n1 1 1\n1 1 2.5\n"
    assert by_position(parse_matrix_market(text)) == ([0], [0], [2.5])


def test_parse_skips_comments_and_blank_lines():
    text = ("%%MatrixMarket matrix coordinate real general\n"
            "% comment line\n\n2 2 1\n% another\n1 2 4.5\n\n")
    assert by_position(parse_matrix_market(text)) == ([0], [1], [4.5])


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


def test_write_text_is_fixed(tmp_path):
    # 1-based indices in entry order; each value as Python's shortest repr,
    # which reads back to the same double (17 digits where needed).
    t = TripletList(3, 4, [0, 0, 1, 2, 2], [1, 3, 0, 2, 3],
                    [0.1, 1e-300, -0.0, float("inf"), 0.30000000000000004])
    path = tmp_path / "m.mtx"
    write_matrix_market(path, t, comments=("fixed",))
    assert path.read_bytes() == (b"%%MatrixMarket matrix coordinate real general\n"
                                 b"% fixed\n"
                                 b"3 4 5\n"
                                 b"1 2 0.1\n"
                                 b"1 4 1e-300\n"
                                 b"2 1 -0.0\n"
                                 b"3 3 inf\n"
                                 b"3 4 0.30000000000000004\n")


# --- The vectorized parser against the line loop -----------------------------

def _line_loop(source):
    """The reference parser: the header reader, then only the line loop."""
    lines = io.StringIO(source)
    return mmio._parse_lines(lines, *mmio._read_header(lines))


def _outcome(parse, text):
    """Bitwise triplets (dtype and bytes of each array) or the error message."""
    try:
        t = parse(text)
    except MatrixMarketError as exc:
        return str(exc)
    return (t.nrows, t.ncols, *((v.dtype.str, v.tobytes())
                                for v in (t.rows, t.cols, t.vals)))


_REAL = "%%MatrixMarket matrix coordinate real general\n"
_SYM = "%%MatrixMarket matrix coordinate real symmetric\n"
_PAT = "%%MatrixMarket matrix coordinate pattern general\n"
_PAT_SYM = "%%MatrixMarket matrix coordinate pattern symmetric\n"
_INT = "%%MatrixMarket matrix coordinate integer general\n"

TRICKY_INPUTS = [
    # Index tokens that int() and loadtxt read differently, or not at all.
    _REAL + "2 2 1\n1.0 1 1.0\n",
    _REAL + "2 2 1\n1e0 1 1.0\n",
    _REAL + "12 12 1\n1_0 1 1.0\n",
    _REAL + "2 2 1\n+1 01 1.0\n",
    _REAL + "2 2 1\n0x1 1 1.0\n",
    _REAL + "2 2 1\n١ 1 1.0\n",
    _REAL + "2 2 1\n99999999999999999999 1 1.0\n",
    _PAT + "2 2 1\n1 1.0\n",
    # Value tokens.
    _REAL + "2 2 2\n1 1 1_0\n2 2 3\n",
    _REAL + "2 2 2\n1 1 0x1p3\n2 2 3\n",
    _REAL + "2 2 2\n1 1 inf\n2 2 -inf\n",
    _REAL + "2 2 2\n1 1 +inf\n2 2 Infinity\n",
    _REAL + "2 2 2\n1 1 -nan\n2 2 nan\n",
    _REAL + "2 2 1\n1 1 +nan\n",
    _REAL + "2 2 2\n1 1 1e400\n2 2 -1e400\n",
    _REAL + "2 2 2\n1 1 1e-400\n2 2 -0.0\n",
    _REAL + "2 2 2\n1 1 2.\n2 2 .5\n",
    _REAL + "2 2 1\n1 1 1d5\n",
    _REAL + "2 2 1\n1 1 nan(1)\n",
    _REAL + "2 2 1\n1 1 ٣.٥\n",
    _INT + "2 2 2\n1 2 4\n2 1 1.5\n",
    _SYM + "2 2 2\n1 1 -nan\n2 1 -inf\n",
    # Separators and line ends.
    _REAL + "2 2 2\n1\t1\t2.0\n2\t2\t3\n",
    (_REAL + "2 2 2\n1 1 2.0\n2 2 3\n").replace("\n", "\r\n"),
    _REAL + "2 2 2\n1 1 2.0\r2 2 3\n",
    _REAL + "2 2 1\n1 1 2.0\r",
    _REAL + "2 2 2\n1\x0c1 2.0\n2 2 3\n",
    _REAL + "2 2 2\n1 1 2.0\n\x0c\n2 2 3\n",
    _REAL + "2 2 2\n1\x0b1 2.0\n2 2 3\n",
    _REAL + "2 2 2\n1\xa01 2.0\n2 2 3\n",
    _REAL + "2 2 2\n 1 1 2.0 \n2 2 3 ",
    _REAL + "2 2 2\n1 1 2.0\x00\n2 2 3\n",
    # Inline comments and quotes.
    _REAL + "2 2 2\n1 1 2.0 % note\n2 2 3\n",
    _REAL + "2 2 2\n1 1 2.0#x\n2 2 3\n",
    _REAL + "2 2 2\n# note\n1 1 2.0\n2 2 3\n",
    _REAL + '2 2 2\n"1" 1 2.0\n2 2 3\n',
    _REAL + "2 2 2\n'1' 1 2.0\n2 2 3\n",
    _REAL + '2 2 1\n"1 1 2.0"\n',
    # Blank and comment lines in the body.
    _REAL + "2 2 2\n1 1 2.0\n\n2 2 3\n\n",
    _REAL + "2 2 2\n1 1 2.0\n \t \n2 2 3\n",
    _REAL + "2 2 2\n1 1 2.0\n% between\n2 2 3\n%\n",
    _REAL + "2 2 1\n% only a comment\n",
    _REAL + "2 2 1\n\n  \n",
    _REAL + "3 4 0\n\n  \n",
    # Entry counts.
    _REAL + "2 2 3\n1 1 2.0\n2 2 3\n",
    _REAL + "2 2 1\n1 1 2.0\n2 2 3\n",
    _REAL + "2 2 0\n1 1 2.0\n",
    _PAT + "2 2 1\n1 1 1\n",
    # Bounds.
    _REAL + "2 2 2\n0 1 2.0\n2 2 3\n",
    _REAL + "2 2 2\n1 1 2.0\n3 2 3\n",
    _REAL + "2 2 2\n1 3 2.0\n2 2 3\n",
    _PAT + "2 2 2\n1 -1\n2 2\n",
    # Symmetric storage.
    _SYM + "2 2 2\n1 1 1.0\n1 2 3.0\n",
    _PAT_SYM + "3 3 2\n2 1\n2 3\n",
    _SYM + "3 3 4\n3 1 1.0\n3 1 2.0\n2 2 4.0\n3 2 5.0\n",
    _PAT_SYM + "3 3 3\n2 1\n3 3\n3 1\n",
]


@pytest.mark.parametrize("text", TRICKY_INPUTS)
def test_parse_matches_line_loop_on_tricky_input(text):
    assert _outcome(parse_matrix_market, text) == _outcome(_line_loop, text)


_BAD_TOKENS = ["1.0", "1e0", "1_0", "0x1p3", "inf", "-inf", "-nan", "nan", "1e400",
               "-0.0", "0", "-1", "+1", "01", "%", "#", "2#x", '"1"', "١",
               "99999999999999999999", ""]
_SEPARATORS = [" ", "  ", "\t", "\x0c", "\x0b", "\r", "\xa0"]
_EXTRA_LINES = ["", "  ", "%", "% comment", "\x0c", "# x", "1 1 1.0 % x"]
_VALUES = st.one_of(st.floats(allow_subnormal=True).map(repr),
                    st.integers(-10**20, 10**20).map(str))


@st.composite
def mutated_bodies(draw):
    field = draw(st.sampled_from(["real", "integer", "pattern"]))
    symmetric = draw(st.booleans())
    nrows = draw(st.integers(1, 5))
    ncols = nrows if symmetric else draw(st.integers(1, 5))
    pairs = st.tuples(st.integers(1, nrows), st.integers(1, ncols))
    if symmetric:
        pairs = pairs.map(lambda p: (max(p), min(p)))
    lines = [[str(i), str(j)] + ([] if field == "pattern" else [draw(_VALUES)])
             for i, j in draw(st.lists(pairs, max_size=8))]
    declared = len(lines) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    for _ in range(draw(st.integers(0, 2))):
        if lines and draw(st.booleans()):
            line = draw(st.sampled_from(lines))
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(_BAD_TOKENS))
        else:
            at = draw(st.integers(0, len(lines)))
            lines.insert(at, [draw(st.sampled_from(_EXTRA_LINES))])
    sep = draw(st.sampled_from(_SEPARATORS)) if draw(st.booleans()) else " "
    end = draw(st.sampled_from(["\n", "\r\n", " \n"]))
    return (f"%%MatrixMarket matrix coordinate {field} "
            f"{'symmetric' if symmetric else 'general'}\n"
            f"{nrows} {ncols} {max(declared, 0)}\n"
            + "".join(sep.join(line) + end for line in lines))


@settings(max_examples=400)
@given(mutated_bodies())
def test_parse_matches_line_loop_on_generated_bodies(text):
    assert _outcome(parse_matrix_market, text) == _outcome(_line_loop, text)


@given(st.text(st.sampled_from("a \n\r%1"), max_size=30), st.integers(0, 8))
def test_text_lines_split_as_string_io(text, taken):
    lines, stream = mmio._TextLines(text), io.StringIO(text)
    assert [next(lines, None) for _ in range(taken)] == [
        stream.readline() or None for _ in range(taken)]
    assert lines.read() == stream.read()


def test_well_formed_files_skip_the_line_loop(tmp_path, monkeypatch):
    monkeypatch.setattr(mmio, "_parse_lines", None)  # any call would fail
    for field, symmetry, body in [("real", "general", "1 1 2.5\n2 1 -nan\n"),
                                  ("integer", "general", "1 2 4\n2 1 -7\n"),
                                  ("pattern", "general", "1 2\n2 1\n"),
                                  ("real", "symmetric", "1 1 1.0\n2 1 3.0\n")]:
        path = tmp_path / f"{field}-{symmetry}.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate {field} {symmetry}\n"
                        f"2 2 2\n{body}")
        assert len(read_matrix_market(path)) >= 2


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


@given(triplet_lists(), st.randoms(use_true_random=False))
def test_csr_from_triplets_ignores_order_and_sums_duplicates(t, rnd):
    order = np.lexsort((t.cols, t.rows))
    ordered = TripletList(t.nrows, t.ncols, t.rows[order], t.cols[order], t.vals[order])
    shuffle = list(range(len(t)))
    rnd.shuffle(shuffle)
    shuffled = TripletList(t.nrows, t.ncols, t.rows[shuffle], t.cols[shuffle],
                           t.vals[shuffle])
    halves = TripletList(t.nrows, t.ncols, np.repeat(ordered.rows, 2),
                         np.repeat(ordered.cols, 2), np.repeat(ordered.vals / 2, 2))
    expected = csr_from_triplets(ordered)
    assert csr_from_triplets(shuffled) == expected
    assert csr_from_triplets(halves) == expected
    ordered.vals += 1.0  # the matrix does not share the triplets' arrays
    assert csr_from_triplets(shuffled) == expected


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
    with pytest.raises(ValueError, match="needs 64-bit indices"):
        load_matrix(path, index_width=64).with_index_width(32)


@given(triplet_lists())
def test_widened_copy_equals_a_checked_64_bit_matrix(t):
    a = csr_from_triplets(t)
    a.row_of  # cached at int32 on the source
    wide = a.with_index_width(64)
    assert wide == CsrMatrix(a.nrows, a.ncols, a.rowptr, a.colind, a.values,
                             index_width=64)
    assert wide.rowptr.dtype == wide.colind.dtype == np.int64
    assert wide.row_of.dtype == np.int64 and wide.row_of is not a.row_of
    assert wide.row_of.tolist() == a.row_of.tolist()


@given(triplet_lists())
def test_csr_matches_dense_oracle(t):
    a = csr_from_triplets(t)
    assert np.array_equal(dense_from_csr(a.nrows, a.ncols, a.rowptr, a.colind, a.values),
                          dense_from_triplets(t))


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
        lo, hi = part.boundaries[k], part.boundaries[k + 1]
        nnz_k = int(a.rowptr[hi] - a.rowptr[lo])
        assert abs(nnz_k * p - a.nnz) <= max_row * p


# --- row_of ------------------------------------------------------------------

@pytest.mark.parametrize("width,dtype", [(32, np.int32), (64, np.int64)])
def test_row_of_is_built_once_by_the_first_numpy_kernel_call(matrix_e, width, dtype,
                                                             kernel_backend):
    a = matrix_e.with_index_width(width)
    assert "row_of" not in vars(a)
    spmv_baseline(a, np.ones(4))
    if kernel_backend == "native":  # the native bodies never read it
        assert "row_of" not in vars(a)
        return
    row_of = vars(a)["row_of"]
    assert row_of.dtype == dtype and row_of.tolist() == [0, 0, 1, 3, 3, 3]
    spmv_baseline(a, np.ones(4))
    assert a.row_of is row_of


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
