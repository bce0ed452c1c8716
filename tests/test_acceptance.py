"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v``."""

import csv
import itertools
import math
import time

import numpy as np
import pytest

from spmvtune import (CacheConfig, Dataset, MatrixClass, ThresholdConfig,
                      TripletList, classify_from_report, csr_from_triplets,
                      decode_delta, encode_delta, extract_features,
                      kernel_call_count, load_matrix, loo_cv,
                      partition_rows_by_nnz, spmv_baseline, spmv_delta,
                      spmv_prefetch, spmv_scheduled, spmv_unrolled, train_cart,
                      train_gnb, SchedulePolicy, ScheduleKind, FEATURE_NAMES)
from spmvtune.cli import main
from spmvtune.profiling import BenchmarkReport

from conftest import FakeTimer, measure_script, random_triplets
from oracles import (cascade_reference, dense_from_triplets, dense_matvec,
                     expected_delta_width, feature_oracle, row_fits_width)

A_CML, MB, IMB, CMP = (MatrixClass.CML, MatrixClass.MB,
                       MatrixClass.IMB, MatrixClass.CMP)


def _report(name):
    print(f"ACCEPTANCE PASS: {name}")


def _corpus(seed=1234, count=200):
    """The shared randomized corpus: up to 128x128, densities 1%-50%."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 129))
        m = int(rng.integers(1, 129))
        density = float(rng.uniform(0.01, 0.5))
        yield rng, random_triplets(rng, n, m, density)


def test_kernel_oracle_suite():
    started = time.monotonic()
    checked = 0
    for rng, t in _corpus():
        a = csr_from_triplets(t)
        dense = dense_from_triplets(t)
        part = partition_rows_by_nnz(a, int(rng.integers(1, 5)))
        for _ in range(2):
            x = rng.uniform(0.5, 2.0, a.ncols)
            y = spmv_baseline(a, x, part)
            assert np.allclose(y, dense_matvec(dense, x), rtol=1e-12, atol=0)
        x = rng.uniform(0.5, 2.0, a.ncols)
        y = spmv_baseline(a, x, part)
        assert np.array_equal(spmv_delta(encode_delta(a), x, part), y)
        assert np.array_equal(spmv_prefetch(a, x, part, 8), y)
        assert np.array_equal(spmv_baseline(a.with_index_width(64), x, part), y)
        assert np.array_equal(
            spmv_scheduled(a, x, SchedulePolicy(ScheduleKind.DYNAMIC_CHUNKED, 5), 2), y)
        assert np.allclose(spmv_unrolled(a, x, part), y, rtol=1e-10, atol=0)
        checked += 1
    # one matrix hammered with many vectors
    rng = np.random.default_rng(777)
    t = random_triplets(rng, 64, 64, 0.2)
    a = csr_from_triplets(t)
    d = encode_delta(a)
    for _ in range(50):
        x = rng.uniform(0.5, 2.0, 64)
        y = spmv_baseline(a, x)
        assert np.array_equal(spmv_delta(d, x), y)
        assert np.allclose(spmv_unrolled(a, x), y, rtol=1e-10, atol=0)
    elapsed = time.monotonic() - started
    assert checked >= 200
    assert elapsed < 60.0, f"kernel oracle suite took {elapsed:.1f}s"
    _report(f"kernel oracle suite ({checked} matrices, {elapsed:.1f}s)")


def test_feature_oracle_suite():
    exact = ("size", "nnz_min", "nnz_max", "bw_min", "bw_max")
    for rng, t in _corpus():
        a = csr_from_triplets(t)
        llc = int(rng.integers(64, 1 << 14))
        fv = extract_features(a, CacheConfig(llc_bytes=llc, cacheline_bytes=64))
        want = feature_oracle(dense_from_triplets(t), llc, 64)
        for name in FEATURE_NAMES:
            got = getattr(fv, name)
            if name in exact:
                assert got == want[name], name
            else:
                assert got == pytest.approx(want[name], rel=1e-12, abs=1e-15), name

    # module fixtures: identity and the reference matrix
    big = CacheConfig(llc_bytes=1 << 30)
    n = 6
    ident = csr_from_triplets(TripletList.from_entries(
        n, n, [(i, i, 1.0) for i in range(n)]))
    fv = extract_features(ident, big)
    assert (fv.size, fv.density) == (1, 1 / n)
    assert (fv.nnz_min, fv.nnz_max, fv.nnz_avg, fv.nnz_sd) == (1, 1, 1, 0)
    assert (fv.bw_min, fv.bw_max, fv.bw_avg, fv.bw_sd) == (0, 0, 0, 0)
    assert (fv.dispersion_avg, fv.dispersion_sd, fv.clustering, fv.miss_ratio) \
        == (1, 0, 1, 0)

    e = csr_from_triplets(TripletList.from_entries(
        4, 4, [(0, 0, 1), (0, 3, 2), (1, 1, 3), (3, 0, 4), (3, 1, 5), (3, 3, 6)]))
    fv = extract_features(e, big)
    assert fv.density == 0.375
    assert (fv.nnz_min, fv.nnz_max, fv.nnz_avg) == (0, 3, 1.5)
    assert fv.nnz_sd == pytest.approx(math.sqrt(1.25), rel=1e-12)
    assert (fv.bw_min, fv.bw_max, fv.bw_avg, fv.bw_sd) == (0, 3, 1.5, 1.5)
    assert fv.dispersion_avg == 0.5625
    assert fv.dispersion_sd == pytest.approx(0.3697549864, rel=1e-9)
    assert fv.clustering == pytest.approx(2 / 3, rel=1e-12)
    assert fv.miss_ratio == 0
    _report("feature oracle suite")


def test_codec_suite():
    for rng, t in _corpus():
        a = csr_from_triplets(t)
        d = encode_delta(a)
        assert decode_delta(d) == a
        cols = [a.colind[a.rowptr[i]:a.rowptr[i + 1]].tolist()
                for i in range(a.nrows)]
        assert d.delta_width == expected_delta_width(cols)
        limit = 255 if d.delta_width == 8 else 65535
        assert all(bool(d.row_encoding[i]) == row_fits_width(row, limit)
                   for i, row in enumerate(cols))

    # adversarial gaps around both width limits, plus empty/single-row shapes
    for gap in (255, 256, 65535, 65536):
        a = csr_from_triplets(TripletList.from_entries(
            1, gap + 1, [(0, 0, 1.0), (0, gap, 2.0)]))
        d = encode_delta(a)
        assert decode_delta(d) == a
        assert d.delta_width == (8 if gap <= 255 else 16)
        assert bool(d.row_encoding[0]) == (gap <= 65535)
    empty = csr_from_triplets(TripletList.from_entries(5, 5, []))
    assert decode_delta(encode_delta(empty)) == empty
    single = csr_from_triplets(TripletList.from_entries(1, 1, [(0, 0, 9.0)]))
    assert decode_delta(encode_delta(single)) == single
    mixed = csr_from_triplets(TripletList.from_entries(
        3, 70000, [(0, 0, 1.0), (0, 69999, 1.0), (2, 3, 1.0), (2, 4, 1.0)]))
    assert decode_delta(encode_delta(mixed)) == mixed
    _report("codec suite")


def test_cascade_suite():
    grid = (0.9, 1.0, 1.1, 1.16, 1.41, 2.0)
    threshold_sets = [
        ThresholdConfig(),
        ThresholdConfig(theta_cml=1.05, theta_mb=1.05, theta_imb=1.05),
        ThresholdConfig(theta_cml=2.0, theta_mb=1.2, theta_imb=1.3),
        ThresholdConfig(theta_cml=1.01, theta_mb=3.0, theta_imb=1.01),
    ]
    disagreements = 0
    cases = 0
    for th in threshold_sets:
        thetas = {A_CML: th.theta_cml, MB: th.theta_mb, IMB: th.theta_imb}
        for s_cml, s_mb, s_imb in itertools.product(grid, repeat=3):
            r = BenchmarkReport(t_baseline=1.0, t_noxmiss=1.0 / s_cml,
                                t_inflate=s_mb, t_balance_mean=1.0 / s_imb)
            got = classify_from_report(r, th)
            want = cascade_reference(r.scores(), thetas)
            disagreements += got is not want
            cases += 1
    assert cases == 4 * 6 ** 3
    assert disagreements == 0
    _report(f"cascade suite ({cases} cases, 0 disagreements)")


def test_ml_suite():
    rng = np.random.default_rng(99)
    # CART: 100% training accuracy with unlimited depth on distinct vectors
    for _ in range(5):
        n = int(rng.integers(8, 50))
        X = rng.uniform(-1, 1, (n, 4))
        labels = [MatrixClass(int(c)) for c in rng.integers(0, 4, n)]
        tree = train_cart(Dataset(X, labels, ("a", "b", "c", "d")))
        assert all(tree.predict(x) is l for x, l in zip(X, labels))
        _assert_gini_monotone(tree.root, X, np.array([int(l) for l in labels]))

    # GNB against hand-computed log-likelihood argmax (1D, 2 classes)
    from spmvtune import GaussianNB
    m = GaussianNB([A_CML, MB], np.array([0.5, 0.5]),
                   np.array([[0.0], [10.0]]), np.array([[1.0], [1.0]]))
    for x, want in ((0.05, A_CML), (5.2, MB), (5.0, A_CML), (9.9, MB)):
        by_hand = [math.log(0.5) - 0.5 * (math.log(2 * math.pi) + (x - mu) ** 2)
                   for mu in (0.0, 10.0)]
        assert np.allclose(m.log_scores([x]), by_hand, rtol=1e-12)
        assert m.predict([x]) is want

    # LOO fixtures
    sep = Dataset(np.array([[v] for v in
                            (0.0, 0.1, -0.1, 0.05, -0.05,
                             10.0, 10.1, 9.9, 10.05, 9.95)]),
                  [A_CML] * 5 + [MB] * 5, ("f",))
    accuracy, _ = loo_cv(sep, train_gnb)
    assert accuracy == 1.0
    two = Dataset(np.array([[0.0], [10.0]]), [A_CML, MB], ("f",))
    accuracy, _ = loo_cv(two, train_gnb)
    assert accuracy == 0.0
    _report("ml suite")


def _assert_gini_monotone(node, X, codes):
    from spmvtune.ml import TreeNode

    def gini(cs):
        if len(cs) == 0:
            return 0.0
        p = np.bincount(cs, minlength=4) / len(cs)
        return 1.0 - float((p * p).sum())

    if not isinstance(node, TreeNode):
        return
    left = X[:, node.feature] <= node.threshold
    nl, nr = int(left.sum()), int((~left).sum())
    weighted = (nl * gini(codes[left]) + nr * gini(codes[~left])) / len(codes)
    assert weighted <= gini(codes) + 1e-12
    _assert_gini_monotone(node.left, X[left], codes[left])
    _assert_gini_monotone(node.right, X[~left], codes[~left])


# Scripted per-kind benchmark outcomes for auto labeling: each generator
# archetype is steered to the bottleneck class it imitates.
_KIND_SCRIPTS = {
    "banded": (0.010, 0.0099, 0.0140, [0.010, 0.010]),       # -> MB
    "irregular": (0.010, 0.0050, 0.0101, [0.010, 0.010]),    # -> CML
    "skewed": (0.010, 0.0099, 0.0101, [0.005, 0.005]),       # -> IMB
    "small-dense": (0.010, 0.0099, 0.0101, [0.010, 0.010]),  # -> CMP
}


def _kind_script(name):
    kind = name.rsplit("_", 1)[0]
    base, nox, inf, balance = _KIND_SCRIPTS[kind]
    return measure_script(base, nox, inf, balance, reps=1, workers=2)


def test_end_to_end_pipeline(tmp_path, capsys):
    started = time.monotonic()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shapes = {"banded": (128, 4), "irregular": (128, 8),
              "skewed": (128, 6), "small-dense": (16, 8)}
    for kind, (n, k) in shapes.items():
        for seed in range(10):
            assert main(["generate", "--kind", kind, "--n", str(n),
                         "--nnz-per-row", str(k), "--seed", str(seed),
                         "--out", str(corpus / f"{kind}_{seed:02d}.mtx")]) == 0

    flags = ["--workers", "2", "--reps", "1", "--warmup", "0",
             "--llc-bytes", "4096"]
    model_path = tmp_path / "model.json"
    # the corpus is profiled in sorted file-name order
    timer = FakeTimer([d for path in sorted(corpus.glob("*.mtx"))
                       for d in _kind_script(path.stem)])
    assert main(["train", "--corpus", str(corpus), "--labels", "auto",
                 "--classifier", "tree", "--out", str(model_path), *flags],
                timer=timer) == 0
    features_csv = tmp_path / "model.features.csv"
    with open(features_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    by_kind = {r["matrix"].rsplit("_", 1)[0]: r["label"] for r in rows}
    assert by_kind == {"banded": "MB", "irregular": "CML",
                       "skewed": "IMB", "small-dense": "CMP"}

    assert main(["eval", "--corpus", str(corpus), "--labels", str(features_csv),
                 "--classifier", "tree", *flags]) == 0
    out = capsys.readouterr().out
    accuracy = float(next(l.split()[1] for l in out.splitlines()
                          if l.startswith("loo_accuracy ")))
    elapsed = time.monotonic() - started
    assert accuracy >= 0.75
    assert elapsed < 120.0, f"end-to-end pipeline took {elapsed:.1f}s"
    _report(f"end-to-end pipeline (loo accuracy {accuracy:.3f}, {elapsed:.1f}s)")


def test_lightweight_claim(tmp_path, capsys):
    # 20000 rows x 5 nonzeros = 100k nonzeros, real timer throughout.
    matrix = tmp_path / "big.mtx"
    assert main(["generate", "--kind", "irregular", "--n", "20000",
                 "--nnz-per-row", "5", "--seed", "0", "--out", str(matrix)]) == 0
    a = load_matrix(matrix)
    assert a.nnz == 100_000

    # quick model for feature mode
    small = tmp_path / "small"
    small.mkdir()
    for i in range(2):
        assert main(["generate", "--kind", "banded", "--n", "32",
                     "--nnz-per-row", "3", "--seed", str(i),
                     "--out", str(small / f"banded_{i}.mtx")]) == 0
        assert main(["generate", "--kind", "irregular", "--n", "32",
                     "--nnz-per-row", "6", "--seed", str(i),
                     "--out", str(small / f"irregular_{i}.mtx")]) == 0
    labels = tmp_path / "labels.csv"
    labels.write_text("matrix,label\nbanded_0,MB\nbanded_1,MB\n"
                      "irregular_0,CML\nirregular_1,CML\n")
    model = tmp_path / "model.json"
    assert main(["train", "--corpus", str(small), "--labels", str(labels),
                 "--out", str(model)]) == 0
    capsys.readouterr()

    flags = ["--workers", "2", "--reps", "2", "--warmup", "0"]

    def overhead(mode):
        """The run's ``t_classification`` and ``ratio`` lines."""
        args = ["overhead", "--matrix", str(matrix), "--mode", mode, *flags]
        if mode == "features":
            args += ["--model", str(model)]
        assert main(args) == 0
        lines = dict(l.split() for l in capsys.readouterr().out.splitlines())
        return float(lines["t_classification"]), float(lines["ratio"])

    # Both runs divide by a t_spmv of the same matrix and flags, so the
    # claim is decided on the classification times, free of t_spmv's noise.
    features_t, features_ratio = overhead("features")
    profiling_t, profiling_ratio = overhead("profiling")
    assert features_t < profiling_t, \
        f"features {features_t:.3g} s vs profiling {profiling_t:.3g} s"

    # feature-mode advice never executes a kernel
    before = kernel_call_count()
    assert main(["advise", "--matrix", str(matrix), "--mode", "features",
                 "--model", str(model)]) == 0
    capsys.readouterr()
    assert kernel_call_count() == before

    # Context, not an assertion: published measurements of this trade-off on
    # server-class hardware put profiling selection near ~462 SpMV-equivalents
    # and feature-based selection near ~14-16.
    _report(f"lightweight claim (features {features_t:.3g} s < profiling "
            f"{profiling_t:.3g} s; ratios {features_ratio:.2f} vs "
            f"{profiling_ratio:.2f}; 0 kernel calls in feature mode; "
            f"reference points elsewhere: ~462 vs ~14-16)")


def test_report_statistics(tmp_path, capsys):
    results = tmp_path / "speedups.txt"
    results.write_text("1\n2\n3\n4\n5\n")
    assert main(["report", "--results", str(results)]) == 0
    out = capsys.readouterr().out
    for line in ("min 1", "q1 2", "mean 3", "q3 4", "max 5"):
        assert f"{line}\n" in out
    _report("report statistics")
