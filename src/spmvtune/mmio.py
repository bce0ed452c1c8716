"""Matrix Market coordinate format reading and writing."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .csr import CsrMatrix, TripletList, csr_from_triplets

_FIELDS = {"real", "integer", "pattern"}
_SYMMETRIES = {"general", "symmetric"}


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content."""


class _TextLines:
    """The lines of a string, split after each newline as ``io.StringIO``
    splits them, without the copy a ``StringIO`` makes at 4 bytes per
    character; ``read()`` returns the text after the last line taken."""

    def __init__(self, text: str):
        self._text, self._pos = text, 0

    def __iter__(self):
        return self

    def __next__(self) -> str:
        if self._pos >= len(self._text):
            raise StopIteration
        end = self._text.find("\n", self._pos) + 1 or len(self._text)
        line, self._pos = self._text[self._pos:end], end
        return line

    def read(self) -> str:
        return self._text[self._pos:]


def _content(lines):
    """The stripped lines that are neither blank nor ``%`` comments."""
    for line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            yield stripped


def parse_matrix_market(source) -> TripletList:
    """Parse a ``coordinate`` Matrix Market string or text stream into
    triplets.

    Supports the ``real``, ``integer`` and ``pattern`` fields with
    ``general`` or ``symmetric`` symmetry.  1-based file indices are
    converted to 0-based; ``pattern`` entries get value 1.0.  A symmetric
    matrix must be square and list only its lower triangle, whose
    off-diagonal entries are mirrored.

    A well-formed body is parsed in one vectorized pass; a body that pass
    rejects is read again line by line, which names the first bad line.
    """
    lines = _TextLines(source) if isinstance(source, str) else source
    header = _read_header(lines)
    text = lines.read()
    t = _parse_body(text, *header)
    return _parse_lines(_TextLines(text), *header) if t is None else t


def _read_header(lines) -> tuple[int, int, int, bool, bool]:
    """Consume the banner and size line: ``(nrows, ncols, declared,
    pattern, symmetric)``."""
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

    size_line = next(_content(lines), None)
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
    return nrows, ncols, declared, field == "pattern", symmetric


def _parse_body(text, nrows, ncols, declared, pattern, symmetric):
    """The entries of ``text`` from one ``np.loadtxt`` call, or None when
    the body is empty or fails a check, so the line loop must decide."""
    if not declared or not text or text.isspace():
        return None  # loadtxt warns on a body without data
    try:
        # A list of lines: loadtxt reads it faster than a stream of them.
        entries = np.loadtxt(text.split("\n"), comments=None, ndmin=1,
                             dtype="i8,i8" if pattern else "i8,i8,f8")
    except ValueError:
        return None
    i, j = entries["f0"], entries["f1"]
    if (entries.size != declared or i.min() < 1 or i.max() > nrows
            or j.min() < 1 or j.max() > ncols or symmetric and np.any(i < j)):
        return None
    rows, cols = i - 1, j - 1
    vals = np.ones(declared) if pattern else entries["f2"].copy()
    if symmetric:
        # Each off-diagonal entry is followed by its mirror, as in the loop.
        take = np.repeat(np.arange(declared), 1 + (rows != cols))
        mirror = np.zeros(take.size, dtype=bool)
        mirror[1:] = take[1:] == take[:-1]
        rows, cols = (np.where(mirror, cols[take], rows[take]),
                      np.where(mirror, rows[take], cols[take]))
        vals = vals[take]
    return TripletList(nrows, ncols, rows, cols, vals)


def _parse_lines(lines, nrows, ncols, declared, pattern, symmetric) -> TripletList:
    """The entry lines, one at a time; raises on the first bad one."""
    rows, cols, vals = [], [], []
    seen = 0
    for stripped in _content(lines):
        seen += 1
        if seen > declared:
            raise MatrixMarketError(
                f"more than the declared {declared} entries present")
        toks = stripped.split()
        if len(toks) != (2 if pattern else 3):
            raise MatrixMarketError(f"malformed entry line: {stripped!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
            v = 1.0 if pattern else float(toks[2])
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
        for r, c, v in zip(t.rows.tolist(), t.cols.tolist(), t.vals.tolist()):
            fh.write(f"{r + 1} {c + 1} {v!r}\n")
