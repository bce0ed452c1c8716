"""The three workloads: set-up, one timed pass over the set, and the
correctness gate on every timed output.

Every call into ``spmvtune`` goes through ``tracer.call`` so that a traced
run records one span per call; calls are made through the modules
(``kernels.spmv_delta``, not a bound name) so a test can swap one out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spmvtune import config, csr, features, kernels, ml, mmio, profiling
from spmvtune.taxonomy import MatrixClass

CONFIG = config.AdvisorConfig(workers=2, reps=3, warmup=1)

# Training labels for the feature model come from the generator kind, so
# no timing feeds them.
KIND_LABELS = {"irregular": MatrixClass.CML, "banded": MatrixClass.MB,
               "skewed": MatrixClass.IMB, "small-dense": MatrixClass.CMP}

VARIANTS = ("baseline", "delta", "prefetch", "dynamic", "unrolled")


@dataclass
class Matrix:
    kind: str
    path: Path
    a: csr.CsrMatrix
    x: np.ndarray | None = None
    part: csr.RowPartition | None = None
    delta: kernels.DeltaCsrMatrix | None = None
    policy: kernels.SchedulePolicy | None = None


@dataclass
class PassResult:
    """One pass over the set: the time of each operation on each matrix,
    the correctness tally and whatever the workload reports per matrix."""

    wall_s: float = 0.0
    times: dict[tuple[str, str], float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    kernel_calls: int = 0
    errors: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def add_time(self, op: str, kind: str, seconds: float) -> None:
        self.times[op, kind] = seconds

    def tally(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def agrees(y, ref, rtol: float) -> bool:
    """Elementwise |y - ref| <= rtol * |ref|; 0 only matches 0."""
    y = np.asarray(y)
    return y.shape == ref.shape and bool(np.all(np.abs(y - ref) <= rtol * np.abs(ref)))


def spmv_input(ncols: int) -> np.ndarray:
    """Strictly positive x, so no row sum cancels in the reference check."""
    return np.random.default_rng(ncols).uniform(0.5, 2.0, ncols)


class Workload:
    name = ""
    ops: tuple[str, ...] = ()
    single_threaded = False  # True when no timed call uses the worker pool

    def __init__(self, files, tracer):
        self.files = [(kind, Path(path)) for kind, path in files]
        self.tracer = tracer
        self.matrices: list[Matrix] = []

    def setup(self) -> None:
        """Load the set; subclasses add their own untimed preparation."""
        tr = self.tracer
        for kind, path in self.files:
            triplets = tr.call(mmio.read_matrix_market, path)
            self.matrices.append(Matrix(kind, path, tr.call(csr.csr_from_triplets, triplets)))

    def prepare_checks(self, generated) -> None:
        """Build the references from the generator's own triplets."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def timed_pass(self) -> PassResult:
        calls = csr.kernel_call_count()
        t0 = perf_counter()
        res = self.run_pass()
        res.wall_s = perf_counter() - t0
        res.kernel_calls = csr.kernel_call_count() - calls
        return res


class IngestFeatures(Workload):
    """Feature-mode advice from a file and from an in-memory CSR matrix."""

    name = "ingest-features"
    ops = ("advise_file_s", "advise_mem_s")
    single_threaded = True

    def setup(self) -> None:
        super().setup()
        tr = self.tracer
        self.cache = CONFIG.cache_config()
        self.subset = CONFIG.subset_names()
        X = [self._vector(m.a)[1] for m in self.matrices]
        data = ml.Dataset(np.stack(X), [KIND_LABELS[m.kind] for m in self.matrices],
                          self.subset)
        self.model = ml.TrainedModel("tree", self.subset, tr.call(ml.train_cart, data))
        self._advise(self.matrices[-1].a)  # warm-up

    def _vector(self, a):
        fv = self.tracer.call(features.extract_features, a, self.cache)
        return fv, self.tracer.call(features.select_features, fv, self.subset)

    def _advise(self, a):
        fv, vec = self._vector(a)
        return fv, self.tracer.call(self.model.predict, vec)

    def prepare_checks(self, generated) -> None:
        self.expected = {}
        for g in generated:
            counts = np.bincount(g.rows, minlength=g.nrows).astype(np.float64)
            nnz = g.rows.size
            ws = 12 * nnz + 4 * (g.nrows + 1) + 8 * (g.nrows + g.ncols)
            self.expected[g.kind] = {
                "size": float(ws <= self.cache.llc_bytes),
                "density": nnz / (g.nrows * g.ncols),
                "nnz_min": counts.min(), "nnz_max": counts.max(),
                "nnz_avg": counts.mean()}

    def _matches_reference(self, kind, fv) -> bool:
        return all(math.isclose(getattr(fv, name), value, rel_tol=1e-12)
                   for name, value in self.expected[kind].items())

    def run_pass(self) -> PassResult:
        res = PassResult()
        tr = self.tracer
        for m in self.matrices:
            label = KIND_LABELS[m.kind]
            got = {}
            for op, span, load in (("advise_file_s", "bench.advise_file", True),
                                   ("advise_mem_s", "bench.advise_mem", False)):
                calls = csr.kernel_call_count()
                t0 = perf_counter()
                try:
                    with tr.span(span):
                        a = tr.call(mmio.load_matrix, m.path) if load else m.a
                        got[op] = self._advise(a)
                except Exception as exc:  # noqa: BLE001 - counted, not fatal
                    got[op] = (None, repr(exc))
                res.add_time(op, m.kind, perf_counter() - t0)
                if csr.kernel_call_count() != calls:
                    got[op] = (None, "kernel call in feature mode")
            fv_file, cls_file = got["advise_file_s"]
            fv_mem, cls_mem = got["advise_mem_s"]
            res.tally(fv_file is not None and cls_file == label
                      and self._matches_reference(m.kind, fv_file),
                      f"{m.kind} file advice: {cls_file!r}, expected {label!r}")
            res.tally(fv_mem is not None and fv_mem == fv_file and cls_mem == label,
                      f"{m.kind} in-memory advice: {cls_mem!r}, expected {label!r}"
                      " with features equal to the file path's")
        return res


class ProfileAdvise(Workload):
    """Profiling-mode advice: four kernels under the timing harness."""

    name = "profile-advise"
    ops = ("advise_profiling_s",)
    expected_kernel_calls = 4 * (CONFIG.reps + CONFIG.warmup)

    def setup(self) -> None:
        super().setup()
        for m in self.matrices:
            m.x = spmv_input(m.a.ncols)
        m = self.matrices[-1]
        profiling.classify_profiling(m.a, m.x, workers=CONFIG.workers, reps=1,
                                     warmup=0)  # warm-up

    def run_pass(self) -> PassResult:
        res = PassResult()
        per_kind = res.detail
        for m in self.matrices:
            calls = csr.kernel_call_count()
            t0 = perf_counter()
            try:
                cls, report = self.tracer.call(
                    profiling.classify_profiling, m.a, m.x, workers=CONFIG.workers,
                    reps=CONFIG.reps, warmup=CONFIG.warmup,
                    thresholds=CONFIG.thresholds)
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                cls, report = repr(exc), None
            wall = perf_counter() - t0
            res.add_time("advise_profiling_s", m.kind, wall)
            calls = csr.kernel_call_count() - calls
            times = () if report is None else (
                report.t_baseline, report.t_noxmiss, report.t_inflate,
                report.t_balance_mean)
            ok = (isinstance(cls, MatrixClass) and len(times) == 4
                  and all(math.isfinite(t) and t > 0 for t in times)
                  and calls == self.expected_kernel_calls)
            res.tally(ok, f"{m.kind} profiling: label {cls!r}, times {times}, "
                          f"{calls} kernel calls (expected {self.expected_kernel_calls})")
            if ok:
                per_kind[m.kind] = {"label": cls.name, "wall_s": wall, "report": report}
        return res


class SolveVariants(Workload):
    """Each kernel variant as the SpMV of an iterative solver's loop."""

    name = "solve-variants"
    ops = tuple(f"spmv_{v}_s" for v in VARIANTS)

    def setup(self) -> None:
        super().setup()
        tr = self.tracer
        for m in self.matrices:
            m.x = spmv_input(m.a.ncols)
            m.part = tr.call(csr.partition_rows_by_nnz, m.a, CONFIG.workers)
            m.delta = tr.call(kernels.encode_delta, m.a)
            chunk = max(1, -(-m.a.nrows // (CONFIG.workers * 8)))
            m.policy = kernels.SchedulePolicy(kernels.ScheduleKind.DYNAMIC_CHUNKED,
                                              chunk_rows=chunk)
        for variant in VARIANTS:
            self._spmv(variant, self.matrices[-1])  # warm-up

    def _spmv(self, variant, m):
        call = self.tracer.call
        if variant == "baseline":
            return call(csr.spmv_baseline, m.a, m.x, m.part)
        if variant == "delta":
            return call(kernels.spmv_delta, m.delta, m.x, m.part)
        if variant == "prefetch":
            return call(kernels.spmv_prefetch, m.a, m.x, m.part,
                        CONFIG.prefetch_distance)
        if variant == "dynamic":
            return call(kernels.spmv_scheduled, m.a, m.x, m.policy, CONFIG.workers)
        return call(kernels.spmv_unrolled, m.a, m.x, m.part)

    def prepare_checks(self, generated) -> None:
        # Independent numpy reference: per-row sums in generator order.
        by_kind = {g.kind: g for g in generated}
        self.reference = {}
        for m in self.matrices:
            g = by_kind[m.kind]
            self.reference[m.kind] = np.bincount(
                g.rows, weights=g.vals * m.x[g.cols], minlength=g.nrows)

    def run_pass(self) -> PassResult:
        res = PassResult()
        for m in self.matrices:
            y_base = None
            for variant in VARIANTS:
                t0 = perf_counter()
                try:
                    y = self._spmv(variant, m)
                except Exception as exc:  # noqa: BLE001 - counted, not fatal
                    y = repr(exc)
                res.add_time(f"spmv_{variant}_s", m.kind, perf_counter() - t0)
                if not isinstance(y, np.ndarray):
                    res.tally(False, f"{variant} on {m.kind} raised {y}")
                    continue
                if variant == "baseline":
                    y_base = y
                    ok = agrees(y, self.reference[m.kind], 1e-12)
                elif y_base is None:
                    ok = False
                elif variant == "unrolled":
                    ok = agrees(y, y_base, 1e-10)
                else:
                    ok = y.shape == y_base.shape and np.array_equal(y, y_base)
                res.tally(ok, f"{variant} on {m.kind} disagrees with its reference")
        return res


WORKLOADS = {w.name: w for w in (IngestFeatures, ProfileAdvise, SolveVariants)}
