"""Online profiling classifier: micro-benchmark timing and the threshold cascade.

The baseline kernel and the three diagnostic kernels are each run under a
warmup/repetition harness; their median times turn into three speedup
scores:

* ``s_cml = t_baseline / t_noxmiss`` (gain from removing irregularity),
* ``s_mb  = t_inflate / t_baseline`` (inverse slowdown from doubled indices),
* ``s_imb = t_baseline / t_balance_mean`` (gain from perfect balance).

The scores are walked in descending order; the first one that clears its
own threshold names the class, and when nothing noteworthy shows up the
matrix is compute bound (CMP).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import fmean, median

import numpy as np

from . import bodies
from .csr import CsrMatrix, partition_rows_by_nnz
from .kernels import _partition_times
from .taxonomy import MatrixClass


@dataclass(frozen=True)
class ThresholdConfig:
    """Score thresholds of the cascade.

    ``noxmiss`` removes irregularity outright and is therefore a naive
    upper bound, which is why its threshold is the strict one.  All values
    are placeholders to be calibrated per machine.
    """

    theta_cml: float = 1.4
    theta_mb: float = 1.15
    theta_imb: float = 1.15

    def __post_init__(self):
        if not all(t > 1.0 for t in (self.theta_cml, self.theta_mb, self.theta_imb)):
            raise ValueError("all thresholds must be > 1.0")


@dataclass(frozen=True)
class BenchmarkReport:
    """Median kernel times (seconds) and the derived speedup scores."""

    t_baseline: float
    t_noxmiss: float
    t_inflate: float
    t_balance_mean: float

    def __post_init__(self):
        if min(self.t_baseline, self.t_noxmiss, self.t_inflate,
               self.t_balance_mean) <= 0.0:
            raise ValueError("all benchmark times must be positive")

    @property
    def s_cml(self) -> float:
        return self.t_baseline / self.t_noxmiss

    @property
    def s_mb(self) -> float:
        return self.t_inflate / self.t_baseline

    @property
    def s_imb(self) -> float:
        return self.t_baseline / self.t_balance_mean

    def scores(self) -> dict[MatrixClass, float]:
        return {MatrixClass.CML: self.s_cml, MatrixClass.MB: self.s_mb,
                MatrixClass.IMB: self.s_imb}


# Equal scores are examined in this order; bandwidth saturation is the
# dominating bottleneck on current machines, so it gets the benefit of
# the doubt.
_TIE_ORDER = {MatrixClass.MB: 0, MatrixClass.IMB: 1, MatrixClass.CML: 2}


def classify_from_report(r: BenchmarkReport,
                         th: ThresholdConfig | None = None) -> MatrixClass:
    """Walk the scores in descending order, returning the first class whose
    score meets its own threshold, or CMP when none does."""
    th = th or ThresholdConfig()
    candidates = [
        (r.s_cml, MatrixClass.CML, th.theta_cml),
        (r.s_mb, MatrixClass.MB, th.theta_mb),
        (r.s_imb, MatrixClass.IMB, th.theta_imb),
    ]
    candidates.sort(key=lambda c: (-c[0], _TIE_ORDER[c[1]]))
    for score, cls, theta in candidates:
        if score >= theta:
            return cls
    return MatrixClass.CMP


def median_time(fn, reps: int, warmup: int, timer=time.perf_counter, *,
                self_timed: bool = False) -> float:
    """Median of ``reps`` timed runs of ``fn`` after ``warmup`` untimed ones.

    A sample is the ``timer`` difference around ``fn()``.  A ``self_timed``
    ``fn`` reads the clock itself: it is called as ``fn(clock)`` and returns
    its own sample.  Warmup runs get a clock that reads 0.0, so they consume
    no ``timer`` reads.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be >= 0")

    def sample(clock) -> float:
        if self_timed:
            return fn(clock)
        t0 = clock()
        fn()
        return clock() - t0

    for _ in range(warmup):
        sample(lambda: 0.0)
    return median([sample(timer) for _ in range(reps)])


def measure(a: CsrMatrix, x, workers: int = 1, reps: int = 20, warmup: int = 5,
            timer=time.perf_counter) -> BenchmarkReport:
    """Run baseline + the three diagnostic kernels under ``median_time``.

    Every kernel runs over the same ``workers`` partitions, each timed alone
    by ``_partition_times``.  A kernel's sample is its slowest partition's
    time, the span of a parallel run; the balance sample is the mean
    partition time, the span under perfect balance.  All four samples thus
    time the partition body and nothing else, and ``s_imb`` is a ratio of
    per-worker times.  Kernel setup work (index zeroing, index widening,
    partitioning, preparing each probe's body once; balance reuses the
    baseline's) happens outside the timed regions.  Kernels are timed in a
    fixed order: baseline, noxmiss, inflate, balance.
    """
    part = partition_rows_by_nnz(a, workers)
    wide = a.with_index_width(64)
    baseline = bodies.partition_body("rows", a, a.colind)
    noxmiss = bodies.partition_body("rows", a, np.zeros_like(a.colind))
    inflate = bodies.partition_body("rows", wide, wide.colind)

    def timed(m, body, span=max) -> float:
        return median_time(
            lambda clock: span(_partition_times(m, body, x, part, clock)[1]),
            reps, warmup, timer, self_timed=True)

    return BenchmarkReport(timed(a, baseline), timed(a, noxmiss),
                           timed(wide, inflate), timed(a, baseline, fmean))


def classify_profiling(a: CsrMatrix, x=None, *, workers: int = 1,
                       reps: int = 20, warmup: int = 5,
                       thresholds: ThresholdConfig | None = None,
                       timer=time.perf_counter):
    """Measure the matrix and classify it; the report is returned for audit."""
    if x is None:
        x = np.ones(a.ncols, dtype=np.float64)
    report = measure(a, x, workers=workers, reps=reps, warmup=warmup,
                     timer=timer)
    return classify_from_report(report, thresholds), report
