"""Command-line advisor.

Subcommands: advise, train, eval, bench, report, overhead, generate.
Exit codes: 0 success, 1 usage error, 2 data error.

``main`` accepts one injectable ``timer`` hook so tests can drive every
timing-dependent command deterministically.  Commands that profile several
matrices read it in corpus order (sorted file names).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from .bodies import backend
from .config import AdvisorConfig
from .csr import CsrMatrix, partition_rows_by_nnz, spmv_baseline
from .features import (FEATURE_NAMES, FeatureVector, extract_features,
                       resolve_subset, select_features)
from .generate import GENERATOR_KINDS, generate_matrix
from .kernels import BASELINE, VARIANTS, optimization_for
from .ml import (Dataset, ModelFormatError, TrainedModel, load_model, loo_cv,
                 save_model, train_cart, train_gnb)
from .mmio import MatrixMarketError, load_matrix, write_matrix_market
from .profiling import BenchmarkReport, classify_profiling, median_time
from .reporting import SpeedupStats
from .taxonomy import MatrixClass

REPORT_FIELDS = ("t_baseline", "t_noxmiss", "t_inflate", "t_balance_mean",
                 "s_cml", "s_mb", "s_imb")


class UsageError(Exception):
    """Bad command-line input (exit code 1)."""


class DataError(Exception):
    """Unreadable or inconsistent input data (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems by default; this tool
    # reserves 2 for data errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spmvtune",
                     description="Detect the dominant SpMV bottleneck of a sparse "
                                 "matrix and pick a matching kernel optimization.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    # Every dest here but "config" is an AdvisorConfig field: see _cfg_from_args.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON config file mirroring AdvisorConfig")
    config.add_argument("--workers", type=int, help="worker count for kernels")
    config.add_argument("--reps", type=int, help="timed repetitions per kernel")
    config.add_argument("--warmup", type=int, help="untimed warmup runs per kernel")
    config.add_argument("--llc-bytes", type=int, help="last-level cache capacity")
    config.add_argument("--cacheline-bytes", type=int, help="cache line size")
    config.add_argument("--subset", dest="feature_subset",
                        help="feature subset preset or comma list")

    classify = argparse.ArgumentParser(add_help=False)
    classify.add_argument("--matrix", required=True)
    classify.add_argument("--mode", choices=("profiling", "features"),
                          default="profiling")
    classify.add_argument("--model", help="trained model file (features mode)")
    classify.add_argument("--seed", type=int, default=0,
                          help="seed for the input vector")

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--corpus", required=True, help="directory of .mtx files")
    corpus.add_argument("--labels", default="auto",
                        help="'auto' (profile each matrix) or a CSV with "
                             "matrix,label columns")
    corpus.add_argument("--classifier", choices=("tree", "nb"), default="tree")
    corpus.add_argument("--max-depth", type=int)
    corpus.add_argument("--min-leaf", type=int, default=1)

    sub.add_parser("advise", parents=[classify, config],
                   help="classify one matrix and recommend an optimization")

    p = sub.add_parser("train", parents=[corpus, config],
                       help="train a feature-based classifier over a corpus")
    p.add_argument("--out", required=True, help="output model file (JSON)")
    p.add_argument("--features-csv", help="per-matrix feature/label log "
                                          "(default: model path with .features.csv)")

    sub.add_parser("eval", parents=[corpus, config],
                   help="leave-one-out accuracy of a classifier over a corpus")

    p = sub.add_parser("bench", parents=[config],
                       help="time kernel variants on one matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--variants", default=",".join(VARIANTS),
                   help=f"comma list from: {', '.join(VARIANTS)}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write variant,seconds,speedup CSV")

    p = sub.add_parser("report", help="box-plot statistics over a speedup file")
    p.add_argument("--results", required=True,
                   help="file with one speedup per line (or CSV, last column)")
    p.add_argument("--out", help="write the summary as CSV")

    sub.add_parser("overhead", parents=[classify, config],
                   help="classification cost in SpMV units")

    p = sub.add_parser("generate", help="write a synthetic Matrix Market file")
    p.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p.add_argument("--n", type=int, required=True, help="number of rows")
    p.add_argument("--ncols", type=int, help="number of columns (default: n)")
    p.add_argument("--nnz-per-row", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def _cfg_from_args(args) -> AdvisorConfig:
    if args.config:
        try:
            cfg = AdvisorConfig.from_file(args.config)
        except (ValueError, json.JSONDecodeError) as exc:
            raise DataError(f"bad config file {args.config}: {exc}") from exc
    else:
        cfg = AdvisorConfig()
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(cfg)
                 if getattr(args, f.name, None) is not None}
    try:
        return dataclasses.replace(cfg, **overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _spmv_input(a: CsrMatrix, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.5, 2.0, a.ncols)


def _scan_corpus(corpus):
    corpus = Path(corpus)
    if not corpus.is_dir():
        raise DataError(f"corpus directory not found: {corpus}")
    paths = sorted(corpus.glob("*.mtx"))
    matrices = []
    skipped = 0
    for path in paths:
        try:
            matrices.append((path.stem, load_matrix(path)))
        except ValueError as exc:  # a MatrixMarketError, or indices too wide
            skipped += 1
            print(f"warning: skipping unloadable {path.name}: {exc}", file=sys.stderr)
    if skipped:
        print(f"warning: skipped {skipped} unloadable file(s)", file=sys.stderr)
    if not matrices:
        raise DataError(f"no loadable .mtx files in {corpus}")
    return matrices


def _read_label_file(path) -> dict[str, MatrixClass]:
    labels = {}
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"matrix", "label"} <= set(reader.fieldnames):
            raise DataError(f"label file {path} needs 'matrix' and 'label' columns")
        for row in reader:
            if row["matrix"] is None or row["label"] is None:
                raise DataError(f"label file {path} line {reader.line_num}: "
                                f"missing 'matrix' or 'label' cell")
            name = row["matrix"].strip()
            if name in labels:
                raise DataError(f"label file {path} line {reader.line_num}: "
                                f"matrix {name!r} is labelled twice")
            raw = row["label"].strip().upper()
            try:
                labels[name] = MatrixClass[raw]
            except KeyError:
                valid = ", ".join(c.name for c in MatrixClass)
                raise DataError(f"unknown label {raw!r} for {name!r} "
                                f"(expected one of: {valid})") from None
    return labels


def _profile(a: CsrMatrix, x, cfg: AdvisorConfig, timer):
    """Profile one matrix with ``cfg``'s workers, repetitions and thresholds."""
    return classify_profiling(a, x, workers=cfg.workers, reps=cfg.reps,
                              warmup=cfg.warmup, thresholds=cfg.thresholds,
                              timer=timer)


def _resolve_labels(args, cfg, matrices, timer):
    """Attach a MatrixClass to each corpus matrix, from a file or by profiling."""
    if args.labels == "auto":
        return [(name, a, _profile(a, None, cfg, timer)[0]) for name, a in matrices]
    wanted = _read_label_file(args.labels)
    by_name = dict(matrices)
    for name in wanted:
        if name not in by_name:
            print(f"warning: label file names missing matrix {name!r}, skipping",
                  file=sys.stderr)
    labeled = []
    for name, a in matrices:
        if name in wanted:
            labeled.append((name, a, wanted[name]))
        else:
            print(f"warning: no label for matrix {name!r}, skipping",
                  file=sys.stderr)
    return labeled


def _labeled_corpus(args, timer):
    """Scan and label the corpus; returns (labeled, Dataset, FeatureVectors)."""
    cfg = _cfg_from_args(args)
    labeled = _resolve_labels(args, cfg, _scan_corpus(args.corpus), timer)
    if len(labeled) < 2:
        raise DataError(f"need at least 2 labeled matrices, have {len(labeled)}")
    subset = cfg.subset_names()
    fvs = [extract_features(a, cfg.cache_config()) for _, a, _ in labeled]
    X = np.stack([select_features(fv, subset) for fv in fvs])
    return labeled, Dataset(X, [cls for _, _, cls in labeled], subset), fvs


def _trainer(args):
    if args.classifier == "tree":
        return "tree", lambda ds: train_cart(ds, max_depth=args.max_depth,
                                             min_leaf=args.min_leaf)
    return "gnb", lambda ds: train_gnb(ds)


def _load_feature_model(args) -> TrainedModel | None:
    """The trained model in features mode (None when profiling), cross-checked
    against an explicitly requested subset."""
    if args.mode != "features":
        return None
    if not args.model:
        raise UsageError("features mode requires --model")
    model = load_model(args.model)
    if args.feature_subset is not None:
        requested = resolve_subset(args.feature_subset)
        if tuple(requested) != tuple(model.feature_names):
            raise DataError(
                f"model/feature-subset mismatch: model was trained on "
                f"[{', '.join(model.feature_names)}] but --subset asks for "
                f"[{', '.join(requested)}]")
    return model


def _classify(a: CsrMatrix, x, cfg: AdvisorConfig, model: TrainedModel | None,
              timer) -> tuple[MatrixClass, FeatureVector | BenchmarkReport]:
    """Predict from structural features when a model is given, else profile."""
    if model is None:
        return _profile(a, x, cfg, timer)
    fv = extract_features(a, cfg.cache_config())
    try:
        features = select_features(fv, model.feature_names)
    except ValueError as exc:
        raise DataError(f"model/feature-subset mismatch: {exc}") from exc
    return model.predict(features), fv


def _cmd_advise(args, timer) -> int:
    cfg = _cfg_from_args(args)
    a = load_matrix(args.matrix)
    model = _load_feature_model(args)
    x = _spmv_input(a, args.seed) if model is None else None
    cls, evidence = _classify(a, x, cfg, model, timer)
    print(f"matrix: {args.matrix} ({a.nrows}x{a.ncols}, {a.nnz} nonzeros)")
    print(f"class: {cls.name}")
    print(f"optimization: {optimization_for(cls).optimization}")
    print("evidence:")
    for name in REPORT_FIELDS if model is None else FEATURE_NAMES:
        print(f"  {name} {getattr(evidence, name):.6g}")
    return 0


def _write_features_csv(path, labeled, fvs) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["matrix", *FEATURE_NAMES, "label"])
        for (name, _, cls), fv in zip(labeled, fvs):
            writer.writerow([name,
                             *(repr(float(getattr(fv, f))) for f in FEATURE_NAMES),
                             cls.name])


def _cmd_train(args, timer) -> int:
    labeled, ds, fvs = _labeled_corpus(args, timer)
    kind, trainer = _trainer(args)
    model = TrainedModel(kind, ds.feature_names, trainer(ds))
    save_model(model, args.out)
    log_path = args.features_csv or str(Path(args.out).with_suffix(".features.csv"))
    _write_features_csv(log_path, labeled, fvs)
    for name, _, cls in labeled:
        print(f"label {name} {cls.name}")
    print(f"trained {kind} model on {len(labeled)} matrices "
          f"({len(ds.feature_names)} features) -> {args.out}")
    print(f"feature log -> {log_path}")
    return 0


def _cmd_eval(args, timer) -> int:
    _, ds, _ = _labeled_corpus(args, timer)
    _, trainer = _trainer(args)
    accuracy, predictions = loo_cv(ds, trainer)
    confusion = np.zeros((len(MatrixClass), len(MatrixClass)), dtype=np.int64)
    for truth, pred in zip(ds.labels, predictions):
        confusion[int(truth), int(pred)] += 1
    print(f"samples {ds.n_samples}")
    print(f"loo_accuracy {accuracy:.6g}")
    print("confusion (rows=actual, cols=predicted):")
    names = [c.name for c in MatrixClass]
    print("      " + "".join(f"{n:>6}" for n in names))
    for i, row_name in enumerate(names):
        print(f"{row_name:>6}" + "".join(f"{confusion[i, j]:>6}" for j in range(len(names))))
    return 0


def _cmd_bench(args, timer) -> int:
    cfg = _cfg_from_args(args)
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    unknown = [v for v in variants if v not in VARIANTS]
    if unknown or not variants:
        raise UsageError(f"unknown variant(s): {', '.join(unknown) or '(none given)'}; "
                         f"choose from: {', '.join(VARIANTS)}")
    repeated = [v for i, v in enumerate(variants) if v in variants[:i]]
    if repeated:
        raise UsageError(f"variant {repeated[0]!r} is named twice")
    a = load_matrix(args.matrix)
    x = _spmv_input(a, args.seed)
    part = partition_rows_by_nnz(a, cfg.workers)
    runners = {name: VARIANTS[name].prepare(a, cfg, part)
               for name in (BASELINE.name, *variants)}

    # Correctness gate before any timing: a speedup from a wrong answer is
    # worthless.
    y_ref = runners[BASELINE.name](x)
    for name in variants:
        if not VARIANTS[name].agrees(runners[name](x), y_ref):
            raise DataError(f"internal error: variant {name!r} disagrees with baseline")

    # The baseline first, then the variants in the order given.
    times = {name: median_time(partial(run, x), cfg.reps, cfg.warmup, timer)
             for name, run in runners.items()}
    rows = [(name, times[name], times[BASELINE.name] / times[name]) for name in variants]
    best = max(rows, key=lambda r: r[2])
    print(f"backend: {backend()}")
    for name, seconds, speedup in rows:
        print(f"variant {name} time {seconds:.6g} speedup {speedup:.6g}")
    print(f"best {best[0]}")
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["variant", "seconds", "speedup"])
            for name, seconds, speedup in rows:
                writer.writerow([name, repr(seconds), repr(speedup)])
    return 0


def _read_speedups(path) -> list[float]:
    values = []
    lines = Path(path).read_text(encoding="ascii").splitlines()  # OSError: exit 2
    for idx, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        token = line.split(",")[-1].strip()
        try:
            value = float(token)
        except ValueError:
            if idx == 0:
                continue  # header row
            raise DataError(f"cannot parse speedup value {token!r}") from None
        if not (math.isfinite(value) and value > 0):
            raise DataError(f"speedup value {token!r} must be finite and positive")
        values.append(value)
    if not values:
        raise DataError(f"no speedup values found in {path}")
    return values


def _cmd_report(args, timer) -> int:
    values = _read_speedups(args.results)
    stats = SpeedupStats.from_values(values)
    print(f"n {len(values)}")
    print(*stats.summary_lines(), sep="\n")
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["min", "q1", "mean", "q3", "max"])
            writer.writerow(map(repr, dataclasses.astuple(stats)))
    return 0


def _cmd_overhead(args, timer) -> int:
    cfg = _cfg_from_args(args)
    a = load_matrix(args.matrix)
    x = _spmv_input(a, args.seed)
    part = partition_rows_by_nnz(a, cfg.workers)
    model = _load_feature_model(args)
    backend()  # builds or loads the library here, not in the timed classification

    t0 = timer()
    cls, _ = _classify(a, x, cfg, model, timer)
    t_class = timer() - t0

    t_spmv = median_time(lambda: spmv_baseline(a, x, part), cfg.reps,
                         cfg.warmup, timer)
    if t_spmv <= 0.0:
        raise DataError("t_spmv must be positive")
    print(f"mode {args.mode}")
    print(f"class {cls.name}")
    print(f"t_classification {t_class:.6g}")
    print(f"t_spmv {t_spmv:.6g}")
    print(f"ratio {t_class / t_spmv:.6g}")
    return 0


def _cmd_generate(args, timer) -> int:
    try:
        triplets = generate_matrix(args.kind, args.n, args.nnz_per_row,
                                   args.seed, args.ncols)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    write_matrix_market(args.out, triplets,
                        comments=(f"kind={args.kind} n={args.n} "
                                  f"nnz_per_row={args.nnz_per_row} seed={args.seed}",))
    print(f"wrote {args.out} ({triplets.nrows}x{triplets.ncols}, "
          f"{len(triplets)} entries)")
    return 0


_DISPATCH = {
    "advise": _cmd_advise,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "report": _cmd_report,
    "overhead": _cmd_overhead,
    "generate": _cmd_generate,
}


def main(argv=None, *, timer=time.perf_counter) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return _DISPATCH[args.command](args, timer)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, MatrixMarketError, ModelFormatError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
