import itertools
import math

import numpy as np
import pytest

from spmvtune import (VARIANTS, BenchmarkReport, MatrixClass,
                      ThresholdConfig, classify_from_report,
                      classify_profiling, csr_from_triplets, measure,
                      optimization_for)
from spmvtune.generate import generate_matrix

from conftest import FakeTimer, measure_script


def report_for_scores(s_cml, s_mb, s_imb) -> BenchmarkReport:
    return BenchmarkReport(t_baseline=1.0, t_noxmiss=1.0 / s_cml,
                           t_inflate=s_mb, t_balance_mean=1.0 / s_imb)


# --- report / thresholds -------------------------------------------------------

def test_report_scores():
    r = BenchmarkReport(0.010, 0.006, 0.011, 0.0095)
    assert r.s_cml == pytest.approx(1.6667, rel=1e-3)
    assert r.s_mb == pytest.approx(1.10, rel=1e-9)
    assert r.s_imb == pytest.approx(1.0526, rel=1e-3)


def test_report_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        BenchmarkReport(0.0, 1.0, 1.0, 1.0)


def test_thresholds_must_exceed_one():
    with pytest.raises(ValueError):
        ThresholdConfig(theta_cml=1.0)
    with pytest.raises(ValueError):  # NaN compares false: it would never fire
        ThresholdConfig(theta_mb=math.nan)


# --- cascade --------------------------------------------------------------------

def test_cascade_reference_walks():
    defaults = ThresholdConfig()
    assert classify_from_report(report_for_scores(1.667, 1.10, 1.053),
                                defaults) is MatrixClass.CML
    # highest score misses its strict threshold, second one passes
    assert classify_from_report(report_for_scores(1.35, 1.20, 1.02),
                                defaults) is MatrixClass.MB
    assert classify_from_report(report_for_scores(1.0, 1.0, 1.0),
                                defaults) is MatrixClass.CMP


def test_cascade_tie_break_prefers_mb_then_imb_then_cml():
    th = ThresholdConfig(theta_cml=1.01, theta_mb=1.01, theta_imb=1.01)
    assert classify_from_report(report_for_scores(1.5, 1.5, 1.5), th) is MatrixClass.MB
    assert classify_from_report(report_for_scores(1.5, 1.2, 1.5), th) is MatrixClass.IMB


def test_cascade_with_infinite_thresholds_everything_is_cmp():
    th = ThresholdConfig(theta_cml=math.inf, theta_mb=math.inf, theta_imb=math.inf)
    for s in itertools.product((0.9, 1.4, 5.0), repeat=3):
        assert classify_from_report(report_for_scores(*s), th) is MatrixClass.CMP


def test_cascade_with_minimal_thresholds_any_raised_score_wins():
    eps = 1e-6
    th = ThresholdConfig(theta_cml=1 + eps, theta_mb=1 + eps, theta_imb=1 + eps)
    r = report_for_scores(1.3, 0.9, 0.95)
    assert classify_from_report(r, th) is MatrixClass.CML


def test_cascade_monotone_in_winning_score():
    defaults = ThresholdConfig()
    grid = (1.05, 1.2, 1.5)
    for s_mb, s_imb in itertools.product(grid, repeat=2):
        chosen = None
        for s_cml in (1.4, 1.6, 2.5, 10.0):
            cls = classify_from_report(report_for_scores(s_cml, s_mb, s_imb), defaults)
            if chosen is MatrixClass.CML:
                assert cls is MatrixClass.CML  # never moves away once chosen
            chosen = cls


def test_cascade_only_guarantees_higher_scores_failed():
    defaults = ThresholdConfig()
    grid = (0.9, 1.0, 1.1, 1.16, 1.41, 2.0)
    thetas = {MatrixClass.CML: defaults.theta_cml,
              MatrixClass.MB: defaults.theta_mb,
              MatrixClass.IMB: defaults.theta_imb}
    for s in itertools.product(grid, repeat=3):
        r = report_for_scores(*s)
        cls = classify_from_report(r, defaults)
        scores = r.scores()
        if cls is MatrixClass.CMP:
            assert all(scores[c] < thetas[c] for c in scores)
        else:
            assert scores[cls] >= thetas[cls]
            for other, score in scores.items():
                if score > scores[cls]:
                    assert score < thetas[other]  # it lost only by failing


def test_cascade_is_pure():
    r = report_for_scores(1.2, 1.3, 1.1)
    th = ThresholdConfig()
    assert classify_from_report(r, th) is classify_from_report(r, th)


def test_variant_table_maps_each_class_to_one_row():
    rows = {c: [v.name for v in VARIANTS.values() if v.cls is c] for c in MatrixClass}
    assert rows == {MatrixClass.CML: ["prefetch"], MatrixClass.MB: ["delta"],
                    MatrixClass.IMB: ["dynamic"], MatrixClass.CMP: ["unrolled"]}
    assert {c.name: optimization_for(c).optimization for c in MatrixClass} == {
        "CML": "software prefetching on vector x",
        "MB": "column index compression through delta coding",
        "IMB": "dynamic chunked row scheduling",
        "CMP": "inner loop unrolling + vectorization",
    }
    assert all(optimization_for(c) is VARIANTS[names[0]] for c, names in rows.items())


# --- measure ---------------------------------------------------------------------

def test_measure_with_scripted_timer(matrix_e):
    workers = 2
    timer = FakeTimer(measure_script(0.010, 0.006, 0.011, [0.010, 0.009],
                                     reps=1, workers=workers))
    r = measure(matrix_e, np.ones(4), workers=workers, reps=1, warmup=0,
                timer=timer)
    assert r.t_baseline == 0.010
    assert r.t_noxmiss == 0.006
    assert r.t_inflate == 0.011
    assert r.t_balance_mean == pytest.approx(0.0095)
    assert (r.s_cml, r.s_mb) == (pytest.approx(10 / 6), pytest.approx(1.1))


def test_measure_equal_times_scores_one(matrix_e):
    timer = FakeTimer(measure_script(0.01, 0.01, 0.01, [0.01], reps=3, workers=1))
    r = measure(matrix_e, np.ones(4), workers=1, reps=3, warmup=0,
                timer=timer)
    assert (r.s_cml, r.s_mb, r.s_imb) == (1.0, 1.0, 1.0)


def test_measure_takes_median_over_reps(matrix_e):
    reps = [0.003, 0.001, 0.002, 0.009, 0.002]
    script = reps + [0.01] * 5 + [0.01] * 5 + [0.01] * 5
    r = measure(matrix_e, np.ones(4), workers=1, reps=5, warmup=0,
                timer=FakeTimer(script))
    assert r.t_baseline == 0.002


def test_measure_warmup_consumes_no_scripted_time(matrix_e):
    script = measure_script(0.01, 0.02, 0.03, [0.04], reps=1, workers=1)
    r = measure(matrix_e, np.ones(4), workers=1, reps=1, warmup=3,
                timer=FakeTimer(script))
    assert (r.t_baseline, r.t_noxmiss, r.t_inflate, r.t_balance_mean) == \
        (0.01, 0.02, 0.03, 0.04)


def test_measure_validates_reps(matrix_e):
    with pytest.raises(ValueError):
        measure(matrix_e, np.ones(4), reps=0)


def test_classify_profiling_composition(matrix_e):
    def scripted():
        return FakeTimer(measure_script(0.010, 0.009, 0.0101, [0.002, 0.018],
                                        reps=1, workers=2))

    # balance mean 0.010 -> everything ~1.0 -> CMP
    cls, report = classify_profiling(matrix_e, workers=2, reps=1, warmup=0,
                                     timer=scripted())
    assert cls is MatrixClass.CMP
    assert report.t_baseline == 0.010
    # deterministic: a fresh identical timer gives the same answer
    cls2, _ = classify_profiling(matrix_e, workers=2, reps=1, warmup=0,
                                 timer=scripted())
    assert cls2 is cls


def test_classify_profiling_detects_imbalance(matrix_e):
    # balance mean far below baseline -> IMB
    timer = FakeTimer(measure_script(0.010, 0.009, 0.0101, [0.002, 0.002],
                                     reps=1, workers=2))
    cls, report = classify_profiling(matrix_e, workers=2, reps=1, warmup=0,
                                     timer=timer)
    assert report.s_imb == pytest.approx(5.0)
    assert cls is MatrixClass.IMB


@pytest.mark.parametrize("kind, nrows, nnz_per_row, workers", [
    ("small-dense", 100, 16, 1),  # driver work would be a large share here
    ("banded", 24_000, 8, 2),
])
def test_uniform_matrix_is_not_labelled_imb(kind, nrows, nnz_per_row, workers):
    # Real clock.  The partitions of a uniform matrix carry equal work, so
    # s_imb must read about 1: neither the interpreter lock serializing the
    # workers nor driver work outside the partition body may show as
    # imbalance.  The median of three calls damps a noisy machine.
    a = csr_from_triplets(generate_matrix(kind, nrows, nnz_per_row, seed=3))
    runs = [classify_profiling(a, workers=workers) for _ in range(3)]
    s_imb = sorted(report.s_imb for _, report in runs)[1]
    assert s_imb < ThresholdConfig().theta_imb
    assert [cls for cls, _ in runs].count(MatrixClass.IMB) <= 1
