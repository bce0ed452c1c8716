"""Metric names, units and how each one is computed from a run.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json`` lists;
the self-test checks the two agree.  Every workload reports every name.
A per-layer metric of a layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

from spmvtune import features

from workloads import CONFIG, VARIANTS

KINDS = ("irregular", "banded", "skewed", "small-dense")
LAYERS = ("mmio", "csr", "features", "ml", "kernels", "profiling")

END_TO_END = {"setup_s": "s", "pass_s": "s"}

PER_LAYER = {
    "generate.matrix_s": "s",
    "mmio.write_s": "s",
    "mmio.parse_s": "s",
    "csr.build_s": "s",
    "csr.kernel_calls": "count",
    "csr.spmv_1w_s": "s",
    "features.extract_s": "s",
    "ml.predict_s": "s",
    "ml.train_s": "s",
    "kernels.encode_delta_s": "s",
    "kernels.delta_index_ratio": "ratio",
    **{f"kernels.{v}.gbs": "GB/s" for v in VARIANTS},
    "kernels.balance_worker_ratio": "ratio",
    "profiling.measure_s": "s",
    "profiling.harness_s": "s",
    "profiling.t_baseline_s": "s",
    "profiling.t_noxmiss_s": "s",
    "profiling.t_inflate_s": "s",
    "profiling.t_balance_mean_s": "s",
    **{f"profiling.{s}.{k}": "ratio" for s in ("s_cml", "s_mb", "s_imb") for k in KINDS},
    "profiling.label_flips": "count",
    "machine.copy_gbs": "GB/s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

_REPORT_TIMES = ("t_baseline", "t_noxmiss", "t_inflate", "t_balance_mean")


def summarize(samples) -> dict:
    """Median, quartiles and extremes, plus the highest percentile with at
    least ten samples beyond it (None when there are too few samples)."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s), "min": s[0], "max": s[-1], "n": n}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(s, n=4)
        out["q1"], out["q3"] = q1, q3
        pct = statistics.quantiles(s, n=100)
        for p in (99, 90, 75, 50):
            if n * (100 - p) >= 1000:
                out["tail"] = {"percentile": p, "value": pct[p - 1]}
                break
    out.setdefault("tail", None)
    return out


def median_of(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def fast_decile(values) -> float:
    """10th percentile of the samples, interpolated between them."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def op_statistic(wl):
    """How a run summarizes each operation's times.  The host runs up to
    1.8x slow in phases; a single-threaded operation's 10th percentile
    needs only a tenth of the run in a fast phase.  When pool workers hand
    the interpreter lock back and forth, the fastest samples are lucky
    hand-offs, and the median is steadier (measurements in README.md)."""
    return fast_decile if wl.single_threaded else statistics.median


def op_times(passes, stat) -> dict[tuple[str, str], float]:
    """``stat`` over ``passes`` of each (operation, matrix kind) time."""
    return {key: stat([p.times[key] for p in passes if key in p.times])
            for key in passes[0].times}


def op_summaries(ops, passes, stat) -> dict[str, dict]:
    """Per operation, summed over the set: ``stat`` and the median of its
    per-matrix times, and the spread of its per-pass sums."""
    values = op_times(passes, stat)
    medians = op_times(passes, statistics.median)
    out = {}
    for op in ops:
        summary = summarize([sum(t for (o, _), t in p.times.items() if o == op)
                             for p in passes])
        summary["value"] = sum(t for (o, _), t in values.items() if o == op)
        summary["median"] = sum(t for (o, _), t in medians.items() if o == op)
        summary["statistic"] = "10th percentile" if stat is fast_decile else "median"
        out[op] = summary
    return out


def layer_metrics(wl, tracer, passes, traced_ids) -> tuple[dict, dict]:
    """Per-layer values from the traced run, plus the detail behind them.

    ``passes`` holds every pass of the run, ``traced_ids`` the indices of
    those that ran with the tracer on.
    """
    values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    detail = {"bases": {"csr.kernel_calls": "kernel calls in one pass, exact"}}
    traced = [passes[i] for i in traced_ids]
    span_sum = lambda name, pid, parent=None: tracer.durations(name, pid, parent)
    per_pass = lambda name, parent=None: median_of(
        span_sum(name, i, parent) for i in traced_ids)

    values["generate.matrix_s"] = span_sum("generate.generate_matrix", "prep")
    values["mmio.write_s"] = span_sum("mmio.write_matrix_market", "prep")
    values["mmio.parse_s"] = span_sum("mmio.read_matrix_market", "setup")
    values["csr.build_s"] = span_sum("csr.csr_from_triplets", "setup")
    values["ml.train_s"] = span_sum("ml.train_cart", "setup")
    values["kernels.encode_delta_s"] = span_sum("kernels.encode_delta", "setup")
    values["csr.kernel_calls"] = max(p.kernel_calls for p in passes)
    values["features.extract_s"] = per_pass("features.extract_features", "bench.advise_mem")
    values["ml.predict_s"] = per_pass("ml.TrainedModel.predict", "bench.advise_mem")
    values["profiling.measure_s"] = per_pass("profiling.classify_profiling")
    self_times = {i: tracer.self_times(i) for i in traced_ids}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = median_of(s.get(layer, 0.0) for s in self_times.values())
    detail["self_s_by_pass"] = self_times
    detail["self_s_setup"] = tracer.self_times("setup")

    if wl.name == "profile-advise":
        _profiling_metrics(passes, traced, values, detail)
    if wl.name == "solve-variants":
        _kernel_metrics(wl, traced, values, detail)
    return values, detail


def _profiling_metrics(passes, traced, values, detail) -> None:
    reps_total = CONFIG.reps + CONFIG.warmup
    bases = detail["bases"]
    for name in _REPORT_TIMES:
        values[f"profiling.{name}_s"] = median_of(
            sum(getattr(k["report"], name) for k in p.detail.values()) for p in traced)
    values["profiling.harness_s"] = median_of(
        sum(k["wall_s"] - reps_total * sum(getattr(k["report"], t) for t in _REPORT_TIMES)
            for k in p.detail.values()) for p in traced)
    bases["profiling.harness_s"] = (
        f"classify_profiling wall minus {reps_total} (reps + warmup) x the sum of "
        "the four kernel medians, summed over the set")
    labels = {}
    for kind in KINDS:
        reports = [p.detail[kind]["report"] for p in passes if kind in p.detail]
        labels[kind] = [p.detail[kind]["label"] for p in passes if kind in p.detail]
        for score, ratio in (("s_cml", "t_baseline / t_noxmiss"),
                             ("s_mb", "t_inflate / t_baseline"),
                             ("s_imb", "t_baseline / t_balance_mean")):
            name = f"profiling.{score}.{kind}"
            values[name] = median_of(getattr(r, score) for r in reports)
            bases[name] = f"{ratio}, median of {len(reports)} passes"
    values["profiling.label_flips"] = sum(len(set(v)) > 1 for v in labels.values())
    bases["profiling.label_flips"] = (
        f"matrices whose label changed, of {len(labels)}, over {len(passes)} passes")
    detail["labels_by_pass"] = labels


def working_sets(wl) -> dict[str, int]:
    cache = CONFIG.cache_config()
    return {m.kind: features.working_set_bytes(m.a, cache) for m in wl.matrices}


def _kernel_metrics(wl, traced, values, detail) -> None:
    ws = working_sets(wl)
    stat = op_statistic(wl)
    times = op_times(traced, stat)
    rates = {}
    for variant in VARIANTS:
        per_kind = {}
        for m in wl.matrices:
            t = times[f"spmv_{variant}_s", m.kind]
            per_kind[m.kind] = {"t_s": t, "computed_gbs": ws[m.kind] / t / 1e9}
        t_set = sum(k["t_s"] for k in per_kind.values())
        values[f"kernels.{variant}.gbs"] = sum(ws.values()) / t_set / 1e9
        rates[variant] = per_kind
        detail["bases"][f"kernels.{variant}.gbs"] = (
            f"computed: {sum(ws.values())} working-set bytes / {t_set:.6g} s, "
            f"the set's summed call times, each the {stat.__name__} of its samples")
    detail["kernel_rates"] = rates
    delta_bytes = sum(m.delta.index_bytes for m in wl.matrices)
    csr_bytes = sum(m.a.colind.nbytes for m in wl.matrices)
    values["kernels.delta_index_ratio"] = delta_bytes / csr_bytes
    detail["bases"]["kernels.delta_index_ratio"] = (
        f"{delta_bytes} delta column-index bytes / {csr_bytes} CSR column-index bytes")
