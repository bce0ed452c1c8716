"""The partition bodies of every kernel, the structural feature pass, and
the one choice of backend.

``partition_body`` returns ``run(x, y, bounds, workers)``, which fills
``y = A x`` over the partitions of ``bounds`` (partition p owns rows
``bounds[p]..bounds[p + 1]``) on at most ``min(workers, partitions,
MAX_THREADS)`` threads, each partition's rows on one thread.  There are
four kinds of body: ``rows`` (the left-to-right row sum), ``prefetch``,
``unrolled`` (four lanes and a tail) and ``delta`` (CSR-DU decoding).  Each
exists on two backends that sum every row in the same order, so they agree
bit for bit:

* native: the C functions of ``_native.c``, all of one signature: a table
  of the body's arrays, in the order ``_native_arguments`` lists them, then
  x, y, the prefetch distance and the partitions.  One ``ctypes`` call,
  which releases the interpreter lock, runs every partition on the calling
  thread and the threads it starts, all joined before the call returns;
* numpy: vectorized bodies over ``a.row_of``, the row of each nonzero,
  run by ``run_partitions`` on a shared thread pool.

``row_structure``, the per-row integers of the structural features, has a
native and a numpy form too, equal on both; it runs no kernel.

The first kernel call or feature pass, never the import, builds the
library with ``$CC`` (default ``cc``) and ``FLAGS`` into
``$XDG_CACHE_HOME/spmvtune/`` (default ``~/.cache/spmvtune/``), under a name
keyed by the sha256 of the source and the compile command, and loads it.
Without a compiler, when the compile fails or when the cache is not
writable, the numpy bodies run, and ``backend()`` says why.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np

# No -ffast-math and no -march=native: a fused multiply-add or a
# reassociated sum would change results in the last bit.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread")
# The most threads one kernel call runs, on either backend; _native.c's
# MAX_THREADS.
MAX_THREADS = 32
_SOURCE = Path(__file__).with_name("_native.c")

# (the library or None, the backend's description), set on first use.
_state: tuple[ctypes.CDLL | None, str] | None = None
_state_lock = threading.Lock()


def library() -> ctypes.CDLL | None:
    """The native library, built and loaded on the first call; None when
    the numpy bodies run."""
    global _state
    if _state is None:
        with _state_lock:
            if _state is None:
                _state = _load()
    return _state[0]


def backend() -> str:
    """``native``, or ``numpy (<why the library is not loaded>)``."""
    library()
    return _state[1]


def _load() -> tuple[ctypes.CDLL | None, str]:
    try:
        lib = ctypes.CDLL(str(_build()))
    # RuntimeError: no home directory; ValueError: a CC shlex cannot split.
    except (OSError, RuntimeError, ValueError) as exc:
        return None, f"numpy ({' '.join(str(exc).split())})"
    pointer, count = ctypes.c_void_p, ctypes.c_int64
    # in, x, y, distance, bounds, nparts, threads: EXPORT in _native.c.
    kernel = [pointer, pointer, pointer, count, pointer, count, count]
    for width in ("i32", "i64"):
        for body in ("rows", "prefetch", "unrolled", "delta8", "delta16"):
            fn = getattr(lib, f"spmv_{body}_{width}")
            fn.argtypes, fn.restype = kernel, None
        fn = getattr(lib, f"row_structure_{width}")
        fn.argtypes, fn.restype = [pointer, pointer, count, count, pointer, pointer], count
    return lib, "native"


def _build() -> Path:
    """The cached library, compiled first when the cache lacks it."""
    import hashlib

    cc = os.environ.get("CC") or "cc"
    command = "\0".join([cc, *FLAGS]).encode()
    key = hashlib.sha256(_SOURCE.read_bytes() + b"\0" + command).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "spmvtune"
    lib = cache / f"_native-{key[:16]}.so"
    if not lib.exists():
        _compile(cc, lib)
    return lib


def _compile(cc: str, lib: Path) -> None:
    """Compile into a temporary file beside ``lib`` and rename it into place,
    so a process racing this one never loads half a file.  Raises OSError."""
    # Imported only here: a process that finds the library cached never
    # pays for them.
    import shlex
    import subprocess
    import tempfile

    lib.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=lib.parent, prefix=".build-", suffix=".so")
    os.close(fd)
    try:
        subprocess.run([*shlex.split(cc), *FLAGS, "-o", tmp, str(_SOURCE)], check=True,
                       capture_output=True, text=True, timeout=120)
        os.replace(tmp, lib)
    except subprocess.CalledProcessError as exc:
        first = exc.stderr.strip().splitlines()[:1]
        raise OSError(first[0] if first else f"{cc} exited {exc.returncode}") from None
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"{cc} ran longer than {exc.timeout} s") from None
    finally:
        Path(tmp).unlink(missing_ok=True)


# --- numpy bodies -------------------------------------------------------------

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _shared_pool() -> ThreadPoolExecutor:
    # One long-lived pool; creating executors inside timed benchmark loops
    # would charge thread startup to every measurement.
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=MAX_THREADS,
                                       thread_name_prefix="spmv-worker")
    return _pool


def run_partitions(n: int, task, workers: int | None = None) -> None:
    """Run ``task(p)`` for every p in ``range(n)``: the numpy backend's
    scheduler.

    ``workers`` threads (default ``n``) each claim the next unclaimed p from
    a shared counter until none is left, so no worker idles while work
    remains.  Tasks must write disjoint output slices; all of them complete
    before this returns.
    """
    workers = n if workers is None else min(workers, n)
    claims = iter(range(n))
    lock = threading.Lock()

    def worker(_):
        while True:
            with lock:
                p = next(claims, None)
            if p is None:
                return
            task(p)

    if workers <= 1:
        worker(0)
    else:  # list() propagates worker exceptions.
        list(_shared_pool().map(worker, range(workers)))


def _accumulate_rows(a, colind, x, y, lo: int, hi: int, first: int = 0) -> None:
    """``y[i]`` = the sum of row i's products, for rows ``lo..hi`` of ``a``.

    ``np.bincount`` adds each product into its row's slot in element order,
    so every row is summed left to right.  ``colind`` starts at nonzero
    ``first`` (``rowptr[lo]`` for a partition's decoded columns).
    """
    s, e = a.rowptr[lo], a.rowptr[hi]
    y[lo:hi] = np.bincount(a.row_of[s:e] - lo, minlength=hi - lo,
                           weights=a.values[s:e] * x[colind[s - first:e - first]])


def _prefetch_rows(a, distance, x, y, lo, hi) -> None:
    # numpy can issue no cache hint: the row sum alone.
    _accumulate_rows(a, a.colind, x, y, lo, hi)


def _unrolled_rows(a, x, y, lo, hi) -> None:
    """Each row's first ``nnz - nnz % 4`` products go round-robin to lanes
    0-3 and the rest to tail lane 4; one ``bincount`` over ``5 * row + lane``
    sums each lane left to right, combined as ((s0+s1)+(s2+s3)) + tail."""
    s, e = a.rowptr[lo], a.rowptr[hi]
    ptr = a.rowptr[lo:hi + 1]
    rows = a.row_of[s:e] - np.int64(lo)
    pos = np.arange(s, e) - ptr[rows]  # each product's place in its row
    lanes_end = np.diff(ptr) // 4 * 4
    keys = 5 * rows + np.where(pos < lanes_end[rows], pos % 4, 4)
    sums = np.bincount(keys, weights=a.values[s:e] * x[a.colind[s:e]],
                       minlength=5 * (hi - lo)).reshape(-1, 5)
    y[lo:hi] = ((sums[:, 0] + sums[:, 1]) + (sums[:, 2] + sums[:, 3])) + sums[:, 4]


def _delta_rows(d, x, y, lo, hi) -> None:
    """Decodes the range's columns in one ``decode_rows`` pass, then sums."""
    _accumulate_rows(d, d.decode_rows(lo, hi), x, y, lo, hi, first=d.rowptr[lo])


def _numpy_row_structure(a, line_values: int):
    span = np.zeros(a.nrows, dtype=np.int64)
    groups = np.zeros(a.nrows, dtype=np.int64)
    if not a.nnz:
        return span, groups, 0
    # The run and miss rules never look at a row's first gap, which holds
    # its absolute column.
    gap, starts = a.col_gaps()
    nonempty = np.diff(a.rowptr) > 0
    ends = a.rowptr[1:][nonempty].astype(np.int64)
    span[nonempty] = a.colind[ends - 1] - a.colind[starts]
    first = np.zeros(a.nnz, dtype=bool)
    first[starts] = True
    groups[nonempty] = np.add.reduceat((first | (gap != 1)).astype(np.int64), starts)
    return span, groups, int((~first & (gap > line_values)).sum())


_NUMPY = {"rows": _accumulate_rows, "prefetch": _prefetch_rows,
          "unrolled": _unrolled_rows, "delta": _delta_rows}


# --- the choice ---------------------------------------------------------------

def _native_arguments(kind, a, *args):
    """The C stem, its arrays in the order its body reads them, the distance."""
    if kind == "delta":
        return (f"delta{a.delta_width}",
                (a.rowptr, a.row_encoding, a.deltas, a.abs_colind,
                 a._delta_ofs, a._abs_ofs, a.values), 0)
    colind = args[0] if kind == "rows" else a.colind
    # A distance past the last nonzero hints nothing; capped at nnz so that
    # ctypes, which wraps integers silently, gets one that fits.
    distance = min(args[0], a.nnz) if kind == "prefetch" else 0
    return kind, (a.rowptr, colind, a.values), distance


def partition_body(kind: str, a, *args):
    """``run(x, y, bounds, workers=None)`` for the ``kind`` body over ``a``,
    on the native backend when its library loads and on numpy otherwise.
    ``args`` is ``(colind,)`` for ``rows``, ``(distance,)`` for ``prefetch``
    and empty for ``unrolled`` and ``delta``.

    ``run`` fills ``y`` over the partitions of the int64 array ``bounds`` on
    ``min(workers, partitions, MAX_THREADS)`` threads, ``workers`` defaulting
    to one per partition.  ``run.each(x, y, bounds)`` returns one
    zero-argument call per partition that fills that partition's rows alone
    on the calling thread; the pointers and bounds are read there, once, so
    timing one of those calls times the body and nothing else.  The one
    place a backend is chosen.  Only the numpy bodies read ``a.row_of``; it
    is built here, not by racing worker threads.
    """
    lib = library()
    if lib is None:
        a.row_of
        body = partial(_NUMPY[kind], a, *args)

        def run(x, y, bounds, workers=None):
            run_partitions(len(bounds) - 1,
                           lambda p: body(x, y, int(bounds[p]), int(bounds[p + 1])),
                           workers)

        run.each = lambda x, y, bounds: [
            partial(body, x, y, int(bounds[p]), int(bounds[p + 1]))
            for p in range(len(bounds) - 1)]
        return run
    stem, arrays, distance = _native_arguments(kind, a, *args)
    fn = getattr(lib, f"spmv_{stem}_i{8 * a.rowptr.itemsize}")
    # The body's ``in`` table; ~2 us per ``ctypes.data`` read: taken once.
    table = (ctypes.c_void_p * len(arrays))(*(arr.ctypes.data for arr in arrays))

    def run(x, y, bounds, workers=None):
        # The C side caps the threads at MAX_THREADS; min() keeps a huge
        # ``workers`` from wrapping in ctypes.
        n = len(bounds) - 1
        fn(table, x.ctypes.data, y.ctypes.data, distance, bounds.ctypes.data, n,
           n if workers is None else min(workers, n))

    def each(x, y, bounds):
        head = (table, x.ctypes.data, y.ctypes.data, distance)
        at = bounds.ctypes.data  # int64: partition p's bounds start 8 p bytes in
        return [partial(fn, *head, at + 8 * p, 1, 1) for p in range(len(bounds) - 1)]

    run.each = each
    run.arrays = arrays  # alive while run is: noxmiss's are temporary
    return run


def row_structure(a, line_values: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The per-row integers of the structural features, from one pass over
    ``a``'s indices: ``(span, groups, misses)``.

    ``span[i]`` is row i's last column less its first and ``groups[i]`` its
    runs of consecutive columns, both int64 and 0 on an empty row; ``misses``
    counts the in-row column steps wider than ``line_values``.  Native when
    the library loads and numpy otherwise, equal on both.  Runs no kernel.
    """
    lib = library()
    if lib is None:
        return _numpy_row_structure(a, line_values)
    span = np.empty(a.nrows, dtype=np.int64)
    groups = np.empty(a.nrows, dtype=np.int64)
    fn = getattr(lib, f"row_structure_i{8 * a.rowptr.itemsize}")
    # No step reaches ncols, so the cap changes no count; it keeps a huge
    # ``line_values`` from wrapping in ctypes.
    misses = fn(a.rowptr.ctypes.data, a.colind.ctypes.data, a.nrows,
                min(line_values, a.ncols), span.ctypes.data, groups.ctypes.data)
    return span, groups, misses
