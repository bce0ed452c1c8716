"""Matrix Market coordinate format reading and writing."""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .csr import CsrMatrix, TripletList, csr_from_triplets

_FIELDS = {"real", "integer", "pattern"}
_SYMMETRIES = {"general", "symmetric"}


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content."""


def _content(lines):
    """The stripped lines that are neither blank nor ``%`` comments."""
    for line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            yield stripped


def parse_matrix_market(source) -> TripletList:
    """Parse a ``coordinate`` Matrix Market stream into triplets.

    Supports the ``real``, ``integer`` and ``pattern`` fields with
    ``general`` or ``symmetric`` symmetry.  1-based file indices are
    converted to 0-based; ``pattern`` entries get value 1.0.  A symmetric
    matrix must be square and list only its lower triangle, whose
    off-diagonal entries are mirrored.
    """
    lines = iter(io.StringIO(source) if isinstance(source, str) else source)
    try:
        banner = next(lines)
    except StopIteration:
        raise MatrixMarketError("empty input") from None
    tokens = banner.strip().split()
    if len(tokens) != 5 or tokens[0].lower() != "%%matrixmarket":
        raise MatrixMarketError(f"malformed banner: {banner.strip()!r}")
    obj, fmt, field, symmetry = (tok.lower() for tok in tokens[1:])
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object {obj!r}")
    if fmt != "coordinate":
        raise MatrixMarketError(f"unsupported format {fmt!r} (only coordinate)")
    if field not in _FIELDS:
        raise MatrixMarketError(f"unsupported field {field!r}")
    if symmetry not in _SYMMETRIES:
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")

    body = _content(lines)
    size_line = next(body, None)
    if size_line is None:
        raise MatrixMarketError("missing size line")
    parts = size_line.split()
    if len(parts) != 3:
        raise MatrixMarketError(f"malformed size line: {size_line!r}")
    try:
        nrows, ncols, declared = (int(p) for p in parts)
    except ValueError:
        raise MatrixMarketError(f"malformed size line: {size_line!r}") from None
    if nrows < 0 or ncols < 0 or declared < 0:
        raise MatrixMarketError("negative size declaration")
    symmetric = symmetry == "symmetric"
    if symmetric and nrows != ncols:
        raise MatrixMarketError(f"symmetric matrix must be square, not {nrows}x{ncols}")

    want_value = field != "pattern"
    rows, cols, vals = [], [], []
    seen = 0
    for stripped in body:
        seen += 1
        if seen > declared:
            raise MatrixMarketError(
                f"more than the declared {declared} entries present")
        toks = stripped.split()
        if len(toks) != (3 if want_value else 2):
            raise MatrixMarketError(f"malformed entry line: {stripped!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
            v = float(toks[2]) if want_value else 1.0
        except ValueError:
            raise MatrixMarketError(f"malformed entry line: {stripped!r}") from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixMarketError(
                f"entry ({i}, {j}) outside declared {nrows}x{ncols} bounds")
        if symmetric and i < j:
            raise MatrixMarketError(
                f"symmetric entry ({i}, {j}) above the diagonal")
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        if symmetric and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            vals.append(v)
    if seen != declared:
        raise MatrixMarketError(f"declared {declared} entries but read {seen}")
    return TripletList(nrows, ncols,
                       np.array(rows, dtype=np.int64),
                       np.array(cols, dtype=np.int64),
                       np.array(vals, dtype=np.float64))


def read_matrix_market(path) -> TripletList:
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix_market(fh)


def load_matrix(path, index_width: int = 32) -> CsrMatrix:
    """Read a Matrix Market file straight into CSR form."""
    return csr_from_triplets(read_matrix_market(path), index_width=index_width)


def write_matrix_market(path, t: TripletList, comments=()) -> None:
    """Write triplets as a general real coordinate file (1-based indices)."""
    path = Path(path)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        for comment in comments:
            fh.write(f"% {comment}\n")
        fh.write(f"{t.nrows} {t.ncols} {len(t)}\n")
        for r, c, v in t.entries():
            fh.write(f"{r + 1} {c + 1} {v!r}\n")
