import argparse
import csv
import json
import threading
import time

import numpy as np
import pytest

from spmvtune import (AdvisorConfig, CacheConfig, FEATURE_NAMES, MatrixClass,
                      ThresholdConfig, TrainedModel, extract_features,
                      classify_profiling, kernel_call_count, load_matrix,
                      save_model)
from spmvtune import bodies, cli, kernels
from spmvtune.cli import main
from spmvtune.ml import DecisionTree, TreeLeaf

from conftest import FakeTimer, measure_script

FAST = ["--reps", "1", "--warmup", "0", "--workers", "2"]


def run(args, **kw):
    return main([str(a) for a in args], **kw)


def generate(tmp_path, kind, n, k, seed, name=None):
    out = tmp_path / (name or f"{kind}_{seed}.mtx")
    assert run(["generate", "--kind", kind, "--n", n, "--nnz-per-row", k,
                "--seed", seed, "--out", out]) == 0
    return out


def stub_model_path(tmp_path, cls=MatrixClass.MB):
    """Single-leaf tree: predicts one class no matter the features."""
    names = ("density", "nnz_avg")
    leaf = TreeLeaf(cls, {c: (1 if c is cls else 0) for c in MatrixClass})
    model = TrainedModel("tree", names, DecisionTree(leaf, len(names)))
    path = tmp_path / "stub.json"
    save_model(model, path)
    return path


# --- generate -----------------------------------------------------------------

def test_generate_banded_has_narrow_rows(tmp_path):
    out = generate(tmp_path, "banded", 8, 3, 1)
    a = load_matrix(out)
    fv = extract_features(a, CacheConfig(llc_bytes=1 << 20))
    assert fv.bw_max <= 2
    assert a.nnz == 24


def test_generate_is_deterministic(tmp_path):
    p1 = generate(tmp_path, "irregular", 30, 4, 9, name="a.mtx")
    p2 = generate(tmp_path, "irregular", 30, 4, 9, name="b.mtx")
    assert p1.read_bytes() == p2.read_bytes()
    p3 = generate(tmp_path, "irregular", 30, 4, 10, name="c.mtx")
    assert p1.read_bytes() != p3.read_bytes()


def test_generate_skewed_is_heavy_tailed(tmp_path):
    out = generate(tmp_path, "skewed", 1000, 8, 3)
    a = load_matrix(out)
    counts = a.row_nnz()
    assert counts.max() / counts.mean() > 10


def test_generate_rejects_bad_sizes(tmp_path):
    assert run(["generate", "--kind", "banded", "--n", 4, "--nnz-per-row", 9,
                "--seed", 0, "--out", tmp_path / "x.mtx"]) == 1


# --- report -------------------------------------------------------------------

def test_report_five_values_exact(tmp_path, capsys):
    results = tmp_path / "r.txt"
    results.write_text("1\n2\n3\n4\n5\n")
    assert run(["report", "--results", results]) == 0
    out = capsys.readouterr().out
    assert "min 1\n" in out and "q1 2\n" in out and "mean 3\n" in out
    assert "q3 4\n" in out and "max 5\n" in out


def test_report_single_value(tmp_path, capsys):
    results = tmp_path / "r.txt"
    results.write_text("1.7\n")
    assert run(["report", "--results", results]) == 0
    out = capsys.readouterr().out
    assert out.count("1.7") == 5


def test_report_interpolated_quartiles(tmp_path, capsys):
    results = tmp_path / "r.csv"
    results.write_text("speedup\n1.0\n1.5\n")
    assert run(["report", "--results", results, "--out", tmp_path / "s.csv"]) == 0
    out = capsys.readouterr().out
    assert "q1 1.125\n" in out and "q3 1.375\n" in out
    with open(tmp_path / "s.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["min", "q1", "mean", "q3", "max"]
    assert [float(v) for v in rows[1]] == [1.0, 1.125, 1.25, 1.375, 1.5]


def test_report_empty_input_is_data_error(tmp_path):
    results = tmp_path / "r.txt"
    results.write_text("")
    assert run(["report", "--results", results]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0", "-1.5"])
def test_report_non_finite_or_non_positive_speedup_is_one_line_data_error(
        tmp_path, capsys, bad):
    results = tmp_path / "r.txt"
    results.write_text(f"1.2\n{bad}\n")
    assert run(["report", "--results", results]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(bad) in captured.err


# --- bench --------------------------------------------------------------------

def test_bench_scripted_speedups(tmp_path, capsys, kernel_backend):
    matrix = generate(tmp_path, "banded", 16, 3, 0)
    timer = FakeTimer([0.010, 0.008, 0.009])
    assert run(["bench", "--matrix", matrix, "--variants", "baseline,delta,prefetch",
                *FAST], timer=timer) == 0
    out = capsys.readouterr().out
    backend = {"native": "native", "numpy": "numpy (selected by the test)"}[kernel_backend]
    assert f"\nbackend: {backend}\nvariant baseline " in out
    assert "variant baseline time 0.01 speedup 1\n" in out
    assert "variant delta time 0.008 speedup 1.25\n" in out
    assert "variant prefetch time 0.009 speedup 1.11111\n" in out
    assert "best delta\n" in out


def test_bench_baseline_only_has_unit_speedup(tmp_path, capsys):
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    assert run(["bench", "--matrix", matrix, "--variants", "baseline",
                *FAST], timer=FakeTimer([0.004])) == 0
    assert "variant baseline time 0.004 speedup 1\n" in capsys.readouterr().out


def test_bench_best_dominates_all_speedups(tmp_path, capsys):
    matrix = generate(tmp_path, "irregular", 32, 4, 5)
    timer = FakeTimer([0.010, 0.009, 0.007, 0.012, 0.008])
    assert run(["bench", "--matrix", matrix, *FAST], timer=timer) == 0
    out = capsys.readouterr().out
    speedups = {line.split()[1]: float(line.split()[5])
                for line in out.splitlines() if line.startswith("variant ")}
    best = out.splitlines()[-1].split()[1]
    assert speedups[best] == max(speedups.values())


def test_bench_variant_off_by_one_ulp_fails_the_gate(tmp_path, capsys, monkeypatch):
    matrix = generate(tmp_path, "banded", 16, 3, 0)
    right = kernels.spmv_prefetch
    monkeypatch.setattr(kernels, "spmv_prefetch",
                        lambda *args: np.nextafter(right(*args), np.inf))
    assert run(["bench", "--matrix", matrix, "--variants", "baseline,prefetch",
                *FAST], timer=FakeTimer([0.01, 0.01])) == 2
    assert "disagrees with baseline" in capsys.readouterr().err


def test_bench_nan_entry_passes_the_gate(tmp_path, capsys):
    matrix = tmp_path / "nan.mtx"
    matrix.write_text("%%MatrixMarket matrix coordinate real general\n"
                      "2 2 2\n1 1 nan\n2 2 1.0\n")
    assert run(["bench", "--matrix", matrix, *FAST],
               timer=FakeTimer([0.010, 0.009, 0.008, 0.011, 0.012])) == 0
    assert "best prefetch\n" in capsys.readouterr().out


def test_bench_infinite_entry_keeps_the_unrolled_gate(tmp_path, capsys, monkeypatch):
    matrix = tmp_path / "inf.mtx"
    matrix.write_text("%%MatrixMarket matrix coordinate real general\n"
                      "2 2 2\n1 1 inf\n2 2 1.0\n")
    right = kernels.spmv_unrolled

    def wrong_row_2(*args):
        y = right(*args)
        y[1] *= 1.5
        return y

    monkeypatch.setattr(kernels, "spmv_unrolled", wrong_row_2)
    assert run(["bench", "--matrix", matrix, "--variants", "baseline,unrolled",
                *FAST], timer=FakeTimer([0.01, 0.01])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "disagrees with baseline" in err


def test_bench_unknown_variant_is_usage_error(tmp_path):
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    assert run(["bench", "--matrix", matrix, "--variants", "warp-shuffle"]) == 1


def test_bench_repeated_variant_is_usage_error(tmp_path, capsys):
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    capsys.readouterr()
    out = tmp_path / "r.csv"
    assert run(["bench", "--matrix", matrix, "--variants", "delta,delta,baseline",
                "--out", out, *FAST]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: variant 'delta' is named twice\n"


def test_bench_writes_results_csv(tmp_path):
    matrix = generate(tmp_path, "banded", 16, 3, 0)
    out = tmp_path / "results.csv"
    assert run(["bench", "--matrix", matrix, "--variants", "baseline,delta",
                "--out", out, *FAST], timer=FakeTimer([0.010, 0.005])) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["variant"] for r in rows] == ["baseline", "delta"]
    assert float(rows[1]["speedup"]) == 2.0


# --- advise -------------------------------------------------------------------

def test_advise_features_recommends_from_stub_model(tmp_path, capsys):
    matrix = generate(tmp_path, "banded", 16, 3, 2)
    model = stub_model_path(tmp_path, MatrixClass.MB)
    before = kernel_call_count()
    assert run(["advise", "--matrix", matrix, "--mode", "features",
                "--model", model]) == 0
    assert kernel_call_count() == before  # feature mode never executes a kernel
    out = capsys.readouterr().out
    assert "class: MB" in out
    assert "optimization: column index compression through delta coding" in out
    # evidence lists every extracted feature, in FEATURE_NAMES order
    fv = extract_features(load_matrix(matrix), AdvisorConfig().cache_config())
    assert out.endswith("evidence:\n" + "".join(
        f"  {name} {getattr(fv, name):.6g}\n" for name in FEATURE_NAMES))


def test_advise_profiling_scripted_cmp(tmp_path, capsys):
    matrix = generate(tmp_path, "small-dense", 12, 6, 4)
    script = measure_script(0.010, 0.0099, 0.0101, [0.0098, 0.0102],
                            reps=1, workers=2)
    before = kernel_call_count()
    assert run(["advise", "--matrix", matrix, "--mode", "profiling", *FAST],
               timer=FakeTimer(script)) == 0
    assert kernel_call_count() > before
    out = capsys.readouterr().out
    assert "class: CMP" in out
    assert "optimization: inner loop unrolling + vectorization" in out
    assert out.endswith("evidence:\n"
                        "  t_baseline 0.01\n"
                        "  t_noxmiss 0.0099\n"
                        "  t_inflate 0.0101\n"
                        "  t_balance_mean 0.01\n"
                        "  s_cml 1.0101\n"
                        "  s_mb 1.01\n"
                        "  s_imb 1\n")


def test_advise_features_draws_no_input_vector(tmp_path, monkeypatch):
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    model = stub_model_path(tmp_path)

    def no_input(a, seed):
        raise AssertionError("features mode drew an SpMV input vector")

    monkeypatch.setattr(cli, "_spmv_input", no_input)
    assert run(["advise", "--matrix", matrix, "--mode", "features",
                "--model", model]) == 0


def test_advise_subset_conflicting_with_model_is_data_error(tmp_path):
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    model = stub_model_path(tmp_path)  # trained on (density, nnz_avg)
    assert run(["advise", "--matrix", matrix, "--mode", "features",
                "--model", model, "--subset", "multicore-nb"]) == 2
    assert run(["advise", "--matrix", matrix, "--mode", "features",
                "--model", model, "--subset", "density,nnz_avg"]) == 0


def test_default_prefetch_distance_is_one_cache_line():
    from spmvtune import AdvisorConfig
    assert AdvisorConfig().prefetch_distance == 8  # 64-byte lines, 8-byte values
    assert AdvisorConfig(cacheline_bytes=128).prefetch_distance == 16


def test_advise_features_without_model_is_usage_error(tmp_path):
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    assert run(["advise", "--matrix", matrix, "--mode", "features"]) == 1


def test_advise_missing_model_file_is_data_error(tmp_path):
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    assert run(["advise", "--matrix", matrix, "--mode", "features",
                "--model", tmp_path / "nope.json"]) == 2


_LEAF = {"class": "CML", "counts": {"CML": 1}}


@pytest.mark.parametrize("kind,names,params", [
    ("tree", ["density"], {"n_features": 1, "root": {"feature": 99, "threshold": 0.5,
                                                     "left": _LEAF, "right": _LEAF}}),
    ("gnb", ["density"], {"classes": ["CML", "MB"], "priors": [0.5, 0.5],
                          "means": [[0.0], [1.0]], "variances": [[-1.0], [-1.0]]}),
    ("tree", ["size", 1], {"n_features": 2, "root": _LEAF}),
], ids=["tree-feature-out-of-range", "gnb-negative-variance", "feature-name-not-a-string"])
def test_advise_invalid_model_is_one_line_data_error(tmp_path, capsys, kind, names,
                                                     params):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps({"format_version": 1, "kind": kind,
                                 "feature_names": names, "parameters": params}))
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    capsys.readouterr()
    assert run(["advise", "--matrix", matrix, "--mode", "features",
                "--model", model]) == 2
    captured = capsys.readouterr()
    assert "class:" not in captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_advise_column_beyond_32_bits_is_one_line_data_error(tmp_path, capsys):
    matrix = tmp_path / "wide.mtx"
    matrix.write_text("%%MatrixMarket matrix coordinate real general\n"
                      "2 5000000000 2\n1 4294967302 1.5\n2 3 2.0\n")
    assert run(["advise", "--matrix", matrix]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "needs 64-bit indices" in captured.err


def test_advise_unreadable_matrix_is_data_error(tmp_path):
    assert run(["advise", "--matrix", tmp_path / "missing.mtx"]) == 2
    bad = tmp_path / "bad.mtx"
    bad.write_text("this is not a matrix\n")
    assert run(["advise", "--matrix", bad]) == 2


# --- train / eval ----------------------------------------------------------------

def _label_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(2):
        generate(corpus, "banded", 32, 3, i, name=f"banded_{i}.mtx")
        generate(corpus, "irregular", 32, 3, i, name=f"irregular_{i}.mtx")
    labels = tmp_path / "labels.csv"
    with open(labels, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["matrix", "label"])
        for i in range(2):
            writer.writerow([f"banded_{i}", "MB"])
            writer.writerow([f"irregular_{i}", "CML"])
    return corpus, labels


def test_train_with_label_file(tmp_path, capsys):
    corpus, labels = _label_corpus(tmp_path)
    model_path = tmp_path / "model.json"
    assert run(["train", "--corpus", corpus, "--labels", labels,
                "--classifier", "tree", "--out", model_path]) == 0
    assert model_path.exists()
    csv_path = tmp_path / "model.features.csv"
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert {r["label"] for r in rows} == {"MB", "CML"}
    assert all("density" in r for r in rows)


def test_train_gnb_model_predicts(tmp_path, capsys):
    # 3 vs 6 nonzeros per row so the small multicore-nb subset separates
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(2):
        generate(corpus, "banded", 32, 3, i, name=f"banded_{i}.mtx")
        generate(corpus, "irregular", 32, 6, i, name=f"irregular_{i}.mtx")
    labels = tmp_path / "labels.csv"
    labels.write_text("matrix,label\nbanded_0,MB\nbanded_1,MB\n"
                      "irregular_0,CML\nirregular_1,CML\n")
    model_path = tmp_path / "nb.json"
    assert run(["train", "--corpus", corpus, "--labels", labels,
                "--classifier", "nb", "--subset", "multicore-nb",
                "--out", model_path]) == 0
    capsys.readouterr()
    assert run(["advise", "--matrix", corpus / "banded_0.mtx",
                "--mode", "features", "--model", model_path]) == 0
    assert "class: MB" in capsys.readouterr().out


def test_train_warns_on_label_for_missing_matrix(tmp_path, capsys):
    corpus, labels = _label_corpus(tmp_path)
    with open(labels, "a", newline="") as fh:
        fh.write("ghost_matrix,CMP\n")
    assert run(["train", "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "m.json"]) == 0
    assert "ghost_matrix" in capsys.readouterr().err


def test_train_rejects_unknown_label_names(tmp_path):
    corpus, labels = _label_corpus(tmp_path)
    with open(labels, "w", newline="") as fh:
        fh.write("matrix,label\nbanded_0,TURBO\n")
    assert run(["train", "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "m.json"]) == 2


def test_label_file_row_with_missing_cell_is_one_line_data_error(tmp_path, capsys):
    corpus, labels = _label_corpus(tmp_path)
    labels.write_text("matrix,label\nbanded_0\n")
    assert run(["train", "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "m.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_label_file_naming_a_matrix_twice_is_one_line_data_error(tmp_path, capsys):
    corpus, labels = _label_corpus(tmp_path)
    labels.write_text("matrix,label\nbanded_0,MB\nbanded_1,CML\nbanded_0,CMP\n")
    assert run(["train", "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "m.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(labels) in err and "line 4" in err and "'banded_0'" in err


def test_train_skips_unparseable_matrices_with_warning(tmp_path, capsys):
    corpus, labels = _label_corpus(tmp_path)
    (corpus / "broken.mtx").write_text("junk\n")
    assert run(["train", "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "m.json"]) == 0
    assert "broken.mtx" in capsys.readouterr().err


def test_corpus_skips_matrix_needing_64_bit_indices_with_warning(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    generate(corpus, "banded", 32, 3, 0, name="a.mtx")
    generate(corpus, "irregular", 32, 3, 0, name="b.mtx")
    (corpus / "wide.mtx").write_text("%%MatrixMarket matrix coordinate real general\n"
                                     "2 5000000000 2\n1 4294967302 1.5\n2 3 2.0\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("matrix,label\na,MB\nb,CML\n")
    assert run(["train", "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "m.json"]) == 0
    err = capsys.readouterr().err
    assert "wide.mtx" in err and "64-bit indices" in err
    for name in ("a.mtx", "b.mtx"):
        (corpus / name).unlink()
    assert run(["train", "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "m.json"]) == 2
    assert capsys.readouterr().err.endswith(f"error: no loadable .mtx files in {corpus}\n")


def test_train_auto_labels_match_direct_classification(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    generate(corpus, "banded", 24, 3, 0, name="a.mtx")
    generate(corpus, "irregular", 24, 3, 0, name="b.mtx")

    scripts = {
        "a": measure_script(0.010, 0.0099, 0.014, [0.010, 0.010], 1, 2),  # MB
        "b": measure_script(0.010, 0.004, 0.0101, [0.010, 0.010], 1, 2),  # CML
    }

    # the corpus is profiled in sorted file-name order
    model_path = tmp_path / "auto.json"
    assert run(["train", "--corpus", corpus, "--labels", "auto",
                "--out", model_path, *FAST],
               timer=FakeTimer(scripts["a"] + scripts["b"])) == 0
    with open(tmp_path / "auto.features.csv") as fh:
        got = {r["matrix"]: r["label"] for r in csv.DictReader(fh)}

    expected = {}
    for name in ("a", "b"):
        a = load_matrix(corpus / f"{name}.mtx")
        cls, _ = classify_profiling(a, workers=2, reps=1, warmup=0,
                                    timer=FakeTimer(scripts[name]))
        expected[name] = cls.name
    assert got == expected == {"a": "MB", "b": "CML"}


def test_eval_separable_corpus_perfect_loo(tmp_path, capsys):
    # 3 vs 6 nonzeros per row: the classes differ in an exactly constant
    # feature, so every leave-one-out fold separates perfectly.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(3):
        generate(corpus, "banded", 40, 3, i, name=f"banded_{i}.mtx")
        generate(corpus, "irregular", 40, 6, i, name=f"irregular_{i}.mtx")
    labels = tmp_path / "labels.csv"
    with open(labels, "w", newline="") as fh:
        fh.write("matrix,label\n")
        for i in range(3):
            fh.write(f"banded_{i},MB\nirregular_{i},CML\n")
    assert run(["eval", "--corpus", corpus, "--labels", labels,
                "--classifier", "tree"]) == 0
    out = capsys.readouterr().out
    assert "loo_accuracy 1\n" in out
    # confusion row sums equal per-class counts
    lines = out.splitlines()
    header = lines[lines.index("confusion (rows=actual, cols=predicted):") + 1]
    assert header.split() == ["CML", "MB", "IMB", "CMP"]
    rows = {l.split()[0]: [int(v) for v in l.split()[1:]]
            for l in lines[lines.index(header) + 1:]}
    assert sum(rows["MB"]) == 3 and sum(rows["CML"]) == 3
    assert sum(rows["IMB"]) == 0 and sum(rows["CMP"]) == 0


def test_eval_two_sample_corpus_gnb_scores_zero(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    generate(corpus, "banded", 24, 3, 0, name="a.mtx")
    generate(corpus, "irregular", 24, 3, 0, name="b.mtx")
    labels = tmp_path / "labels.csv"
    labels.write_text("matrix,label\na,MB\nb,CML\n")
    assert run(["eval", "--corpus", corpus, "--labels", labels,
                "--classifier", "nb"]) == 0
    assert "loo_accuracy 0\n" in capsys.readouterr().out


# --- overhead ---------------------------------------------------------------------

def test_overhead_scripted_ratio(tmp_path, capsys):
    matrix = generate(tmp_path, "banded", 16, 3, 0)
    model = stub_model_path(tmp_path)
    timer = FakeTimer([0.32, 0.02])  # classification region, spmv region
    assert run(["overhead", "--matrix", matrix, "--mode", "features",
                "--model", model, *FAST], timer=timer) == 0
    out = capsys.readouterr().out
    assert "t_classification 0.32\n" in out
    assert "t_spmv 0.02\n" in out
    assert "ratio 16\n" in out


@pytest.mark.parametrize("mode", ["features", "profiling"])
def test_overhead_loads_the_backend_before_its_clock(tmp_path, capsys, monkeypatch, mode):
    # Building or loading the library is paid once per process, not by the
    # classification that happens to run first.
    matrix = generate(tmp_path, "banded", 16, 3, 0)
    monkeypatch.setattr(bodies, "_state", None)  # as in a fresh process
    reads = []

    def timer():
        if not reads:
            assert bodies._state is not None, "the backend loads inside the clock"
        reads.append(time.perf_counter())
        return reads[-1]

    model = ["--model", stub_model_path(tmp_path)] if mode == "features" else []
    assert run(["overhead", "--matrix", matrix, "--mode", mode, *model, *FAST],
               timer=timer) == 0
    assert f"mode {mode}\n" in capsys.readouterr().out


def test_overhead_zero_spmv_time_is_data_error(tmp_path, capsys):
    matrix = generate(tmp_path, "banded", 16, 3, 0)
    model = stub_model_path(tmp_path)
    capsys.readouterr()
    assert run(["overhead", "--matrix", matrix, "--mode", "features",
                "--model", model, *FAST], timer=FakeTimer([0.32, 0.0])) == 2
    captured = capsys.readouterr()
    assert "ratio" not in captured.out
    assert captured.err == "error: t_spmv must be positive\n"


# --- config -----------------------------------------------------------------------

def test_speedup_stats_are_ordered():
    from hypothesis import given, strategies as st
    from spmvtune import SpeedupStats

    @given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40))
    def check(values):
        s = SpeedupStats.from_values(values)
        assert s.minimum <= s.q1 <= s.q3 <= s.maximum
        assert s.minimum <= s.mean <= s.maximum

    check()


def test_config_file_applies_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "workers": 2, "reps": 1, "warmup": 0,
        "thresholds": {"theta_cml": 3.0, "theta_mb": 3.0, "theta_imb": 3.0},
    }))
    matrix = generate(tmp_path, "banded", 16, 3, 0)
    # scores around 2 stay below the configured thresholds -> CMP
    script = measure_script(0.010, 0.005, 0.020, [0.005, 0.005], 1, 2)
    assert run(["advise", "--matrix", matrix, "--config", cfg],
               timer=FakeTimer(script)) == 0
    assert "class: CMP" in capsys.readouterr().out


def test_config_dict_round_trip():
    cfg = AdvisorConfig(workers=2, thresholds=ThresholdConfig(theta_mb=1.3))
    doc = cfg.to_dict()
    assert doc["thresholds"] == {"theta_cml": 1.4, "theta_mb": 1.3, "theta_imb": 1.15}
    assert AdvisorConfig.from_dict(json.loads(json.dumps(doc))) == cfg


def test_workers_bounded_by_usable_cpus(tmp_path, monkeypatch):
    import spmvtune.config as config_module
    monkeypatch.setattr(config_module.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    AdvisorConfig(workers=4)
    with pytest.raises(ValueError, match="workers"):
        AdvisorConfig(workers=5)
    monkeypatch.delattr(config_module.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(config_module.os, "cpu_count", lambda: 2)
    AdvisorConfig(workers=8)
    with pytest.raises(ValueError, match="workers"):
        AdvisorConfig(workers=9)
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    threads = threading.active_count()
    assert run(["advise", "--matrix", matrix, "--workers", 10**6]) == 1
    assert threading.active_count() <= threads


def test_config_with_unknown_key_is_data_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"turbo": True}))
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    assert run(["advise", "--matrix", matrix, "--config", cfg]) == 2


@pytest.mark.parametrize("doc", [
    {"thresholds": 5},
    {"thresholds": {"bogus": 1}},
    {"thresholds": {"theta_mb": "1.3"}},
    {"workers": "4"},
    {"workers": 1.5},
    {"workers": True},
    {"reps": 2.5},
    {"feature_subset": 7},
], ids=["thresholds-number", "thresholds-unknown-key", "threshold-string",
        "workers-string", "workers-float", "workers-bool", "reps-float",
        "subset-number"])
def test_config_with_wrong_typed_value_is_one_line_data_error(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    matrix = generate(tmp_path, "banded", 8, 2, 0)
    capsys.readouterr()
    assert run(["advise", "--matrix", matrix, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad config file ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["advise", "--mode", "profiling"], ["advise", "--mode", "features"],
    ["bench"], ["overhead"], ["train"], ["eval"]],
    ids=["advise-profiling", "advise-features", "bench", "overhead", "train", "eval"])
def test_bad_cacheline_is_one_line_error_in_every_command(tmp_path, capsys, command):
    corpus, labels = _label_corpus(tmp_path)
    inputs = {"advise": ["--matrix", corpus / "banded_0.mtx",
                         "--model", stub_model_path(tmp_path)],
              "bench": ["--matrix", corpus / "banded_0.mtx"],
              "overhead": ["--matrix", corpus / "banded_0.mtx"],
              "train": ["--corpus", corpus, "--labels", labels,
                        "--out", tmp_path / "m.json"],
              "eval": ["--corpus", corpus, "--labels", labels]}[command[0]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cacheline_bytes": 12}))
    for flags, code in ((["--cacheline-bytes", 12], 1), (["--config", cfg], 2)):
        capsys.readouterr()
        assert run([*command, *inputs, *FAST, *flags]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "cacheline_bytes must be divisible by 8" in captured.err


# Each subcommand's options: strings -> (default, required, type, choices).
_CONFIG_OPTIONS = {
    "--config": (None, False, None, None),
    "--workers": (None, False, int, None),
    "--reps": (None, False, int, None),
    "--warmup": (None, False, int, None),
    "--llc-bytes": (None, False, int, None),
    "--cacheline-bytes": (None, False, int, None),
    "--subset": (None, False, None, None),
}
_CLASSIFY_OPTIONS = {
    "--matrix": (None, True, None, None),
    "--mode": ("profiling", False, None, ("profiling", "features")),
    "--model": (None, False, None, None),
    "--seed": (0, False, int, None),
}
_CORPUS_OPTIONS = {
    "--corpus": (None, True, None, None),
    "--labels": ("auto", False, None, None),
    "--classifier": ("tree", False, None, ("tree", "nb")),
    "--max-depth": (None, False, int, None),
    "--min-leaf": (1, False, int, None),
}
CLI_OPTIONS = {
    "advise": {**_CLASSIFY_OPTIONS, **_CONFIG_OPTIONS},
    "train": {**_CORPUS_OPTIONS, **_CONFIG_OPTIONS,
              "--out": (None, True, None, None),
              "--features-csv": (None, False, None, None)},
    "eval": {**_CORPUS_OPTIONS, **_CONFIG_OPTIONS},
    "bench": {**_CONFIG_OPTIONS,
              "--matrix": (None, True, None, None),
              "--variants": ("baseline,delta,prefetch,dynamic,unrolled",
                             False, None, None),
              "--seed": (0, False, int, None),
              "--out": (None, False, None, None)},
    "report": {"--results": (None, True, None, None),
               "--out": (None, False, None, None)},
    "overhead": {**_CLASSIFY_OPTIONS, **_CONFIG_OPTIONS},
    "generate": {"--kind": (None, True, None,
                            ("banded", "irregular", "skewed", "small-dense")),
                 "--n": (None, True, int, None),
                 "--ncols": (None, False, int, None),
                 "--nnz-per-row": (None, True, int, None),
                 "--seed": (0, False, int, None),
                 "--out": (None, True, None, None)},
}


def test_cli_option_table_is_pinned():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    got = {}
    for command, parser in subparsers.choices.items():
        got[command] = {}
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            (flag,) = action.option_strings
            got[command][flag] = (action.default, action.required, action.type,
                                  None if action.choices is None
                                  else tuple(action.choices))
    assert got == CLI_OPTIONS


def test_bad_subset_flag_is_usage_error(tmp_path):
    corpus, labels = _label_corpus(tmp_path)
    assert run(["train", "--corpus", corpus, "--labels", labels,
                "--out", tmp_path / "m.json", "--subset", "bogus"]) == 1


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()
