#!/usr/bin/env python3
"""Layered benchmark of spmvtune.

    python3 perfbench/run.py --workload ingest-features --seed 1 --seconds 10 --trace 0

Generates the seeded matrix set, sets the workload up, runs timed passes
over the set for ``--seconds`` and checks every output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics, the layer self times and
the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full report
and the spans are written under ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

WORKLOAD_NAMES = ("ingest-features", "profile-advise", "solve-variants")
SETUP_PROBES = 5   # fresh processes timed for setup_s; the median is reported
MIN_PASSES = 2     # label flips and the traced/untraced pair need two
COPY_ARRAY_CAP = 128 * 1024 ** 2
SMOKE_COPY_BYTES = 4 * 1024 ** 2
REF_REPS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
                   help="'all' runs every workload untraced, then traced")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny matrices, for the benchmark's self-tests")
    p.add_argument("--setup-probe", metavar="DIR", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_files(specs, directory: Path):
    return [(s.kind, directory / s.filename) for s in specs]


def setup_probe(args) -> int:
    """Child process: time import, lazy first-call init and the set-up."""
    t0 = perf_counter()
    import matrix_set
    import spans
    import workloads
    specs = matrix_set.SMOKE_SET if args.smoke else matrix_set.FULL_SET
    wl = workloads.WORKLOADS[args.workload](set_files(specs, args.setup_probe),
                                            spans.NullTracer())
    wl.setup()
    print(json.dumps({"setup_s": perf_counter() - t0}))
    return 0


def time_setup(args, directory: Path) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(directory)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(wl, tracer, seconds: float, traced_share: bool, probe=None):
    """Passes until ``seconds`` are used; with ``traced_share`` every other
    pass runs traced.  ``probe``, when given, runs ``SETUP_PROBES`` times at
    evenly spaced moments between passes, so set-up is sampled over the
    same stretch of machine time as the passes.  Returns the passes, the
    indices of the traced ones and the probe results."""
    import spans
    untraced = spans.NullTracer()
    passes, traced_ids, probes = [], [], []
    n_probes = SETUP_PROBES if probe else 0
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() < start + seconds:
        if len(probes) < n_probes and (
                perf_counter() >= start + len(probes) * seconds / n_probes):
            probes.append(probe())
            continue
        traced = traced_share and len(passes) % 2 == 1
        tracer.pass_id = len(passes)
        wl.tracer = tracer if traced else untraced
        if traced:
            traced_ids.append(len(passes))
        passes.append(wl.timed_pass())
    probes += [probe() for _ in range(n_probes - len(probes))]
    return passes, traced_ids, probes


def reference_measurements(wl, tracer, smoke: bool, env, bases) -> tuple[dict, dict]:
    """Outside the passes: single-worker baseline, worker balance, copy."""
    import machine
    import metrics
    from spmvtune import csr, kernels
    from workloads import CONFIG, spmv_input
    tracer.pass_id = "ref"
    values, detail = {}, {}
    xs = {m.kind: m.x if m.x is not None else spmv_input(m.a.ncols) for m in wl.matrices}
    one_worker = []
    for _ in range(REF_REPS):
        t0 = perf_counter()
        for m in wl.matrices:
            tracer.call(csr.spmv_baseline, m.a, xs[m.kind])
        one_worker.append(perf_counter() - t0)
    values["csr.spmv_1w_s"] = statistics.median(one_worker)

    if wl.name == "profile-advise":
        ratios = {}
        for m in wl.matrices:
            part = csr.partition_rows_by_nnz(m.a, CONFIG.workers)
            samples = []
            for _ in range(REF_REPS):
                _, durations, mean = tracer.call(kernels.bench_balance, m.a, m.x, part)
                samples.append(max(durations) / mean)
            ratios[m.kind] = statistics.median(samples)
        values["kernels.balance_worker_ratio"] = max(ratios.values())
        detail["balance_worker_ratio_by_kind"] = ratios
        bases["kernels.balance_worker_ratio"] = (
            f"max / mean of the {CONFIG.workers} bench_balance worker durations, "
            f"median of {REF_REPS} calls, largest over the set")

    llc = env["reported_llc_bytes"]
    wanted = 4 * llc if llc else None
    array_bytes = SMOKE_COPY_BYTES if smoke else min(wanted or COPY_ARRAY_CAP, COPY_ARRAY_CAP)
    copy = machine.copy_bandwidth(array_bytes)
    values["machine.copy_gbs"] = copy["gbs"]
    bases["machine.copy_gbs"] = (
        f"2 x {copy['array_bytes']} bytes read and written / {copy['median_s']:.6g} s, "
        f"median of {copy['reps']} copies")
    copy["why_this_size"] = f"two arrays of {array_bytes} bytes" + (
        "" if array_bytes == wanted else
        f"; 4x the reported LLC would be {wanted} bytes each, too much on a machine "
        "whose memory is shared with other tenants, so they are smaller and the "
        "copy may run partly from cache and overstate DRAM bandwidth")
    detail["copy"] = copy
    ws = metrics.working_sets(wl)
    detail["working_sets"] = {
        kind: {"bytes": b, "over_llc_bytes_used": b / env["llc_bytes_used"],
               "over_reported_llc": b / llc if llc else None}
        for kind, b in ws.items()}
    detail["bandwidth_note"] = (
        "kernel GB/s are computed as working_set_bytes / t, not measured "
        "traffic; machine.copy_gbs is their ceiling. No matrix of the set "
        "exceeds the reported L3, so no case here is truly bandwidth bound")
    return values, detail


def print_metrics(title, values, units, summaries=None, bases=None) -> None:
    print(title)
    for name, value in values.items():
        line = f"  {name:32s} {value:.6g} {units[name]}"
        if bases and name in bases:
            line += f"  ({bases[name]})"
        if summaries and name in summaries:
            s = summaries[name]
            tail = (f"p{s['tail']['percentile']} {s['tail']['value']:.6g}"
                    if s["tail"] else "under 20 samples: no percentile has 10 beyond it")
            stat = s.get("statistic", "median")
            if stat != "median":
                stat += f", median {s['median']:.6g}"
            line += f"  ({stat} of n={s['n']}, max {s['max']:.6g}; {tail})"
        print(line)


def run(args) -> int:
    import machine
    import matrix_set
    import metrics
    import spans
    import workloads

    specs = matrix_set.SMOKE_SET if args.smoke else matrix_set.FULL_SET
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    try:
        tracer.pass_id = "prep"
        generated = matrix_set.write_set(specs, args.seed, directory, tracer)
        tracer.pass_id = "setup"
        wl = workloads.WORKLOADS[args.workload](set_files(specs, directory), tracer)
        t0 = perf_counter()
        wl.setup()
        in_process_setup_s = perf_counter() - t0
        wl.prepare_checks(generated)
        probe = None if args.trace else lambda: time_setup(args, directory)
        passes, traced_ids, setup_samples = run_passes(wl, tracer, args.seconds,
                                                       bool(args.trace), probe)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    env = machine.environment(ROOT, args.seed, workloads.CONFIG.llc_bytes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    report = {
        "workload": args.workload, "trace": args.trace, "environment": env,
        "config": workloads.CONFIG.to_dict(),
        "matrices": [{"kind": m.kind, "nrows": m.a.nrows, "ncols": m.a.ncols,
                      "nnz": m.a.nnz} for m in wl.matrices],
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "fail_share": {"value": failed / attempted, "base": f"{failed} / {attempted}"},
        "errors": sorted({e for p in passes for e in p.errors}),
        "in_process_setup_s": in_process_setup_s,
    }
    untraced_ids = [i for i in range(len(passes)) if i not in traced_ids]
    untraced = [passes[i] for i in untraced_ids]
    ops = metrics.op_summaries(wl.ops, untraced, metrics.op_statistic(wl))
    report["ops"] = ops
    report["pass_samples"] = [
        {"wall_s": p.wall_s, "traced": i in traced_ids,
         "times": {f"{op}:{kind}": t for (op, kind), t in p.times.items()}}
        for i, p in enumerate(passes)]
    ops_units = {op: "s" for op in wl.ops}

    if args.trace:
        values, detail = metrics.layer_metrics(wl, tracer, passes, traced_ids)
        ref_values, ref_detail = reference_measurements(wl, tracer, args.smoke, env,
                                                        detail["bases"])
        values.update(ref_values)
        detail.update(ref_detail)
        for per_kind in detail.get("kernel_rates", {}).values():
            for kind, rate in per_kind.items():
                rate["copy_gbs_ceiling"] = values["machine.copy_gbs"]
                rate["share_of_copy"] = rate["computed_gbs"] / values["machine.copy_gbs"]
                rate["working_set"] = detail["working_sets"][kind]
        values["trace.overhead_s"] = (
            statistics.median(passes[i].wall_s for i in traced_ids)
            - statistics.median(passes[i].wall_s for i in untraced_ids))
        detail["bases"]["trace.overhead_s"] = (
            f"median wall of {len(traced_ids)} traced passes minus median wall "
            f"of {len(untraced_ids)} untraced passes")
        units = metrics.PER_LAYER
        report["per_layer"] = values
        report["per_layer_detail"] = detail
        tracer.dump(WORK / f"spans-{tag}.json")
    else:
        # Every pass is untraced here, so a pass is the sum of the operations.
        pass_s = metrics.summarize([p.wall_s for p in passes])
        for key in ("value", "median"):
            pass_s[key] = sum(s[key] for s in ops.values())
        pass_s["statistic"] = ops[wl.ops[0]]["statistic"]
        values = {"setup_s": statistics.median(setup_samples), "pass_s": pass_s["value"]}
        units = metrics.END_TO_END
        report["end_to_end"] = {"setup_s": metrics.summarize(setup_samples),
                                "pass_s": pass_s}

    with open(WORK / f"report-{tag}.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  commit {env['git_commit']}")
    caches = ", ".join(f"L{c['level']} {c['type'].lower()} {c['size_bytes']}"
                       for c in env["cache_geometry_cpu0"]) or "unreadable"
    print(f"environment: nproc {env['nproc']}, affinity {env['affinity_cpus']} CPUs, "
          f"python {env['python']}, numpy {env['numpy']}, seed {env['seed']}; "
          f"cpu0 caches (bytes, from sysfs): {caches}; llc_bytes used "
          f"{env['llc_bytes_used']} ({env['cache_note']})")
    print(f"fail_share {failed / attempted:.6g} ratio  (base: {failed} failed / "
          f"{attempted} attempted)")
    for error in report["errors"]:
        print(f"  failed: {error}")
    print_metrics("workload operations (untraced passes; seconds per pass over the set, "
                  "summed over the matrices):",
                  {op: s["value"] for op, s in ops.items()}, ops_units, ops)
    if args.trace:
        print_metrics("per-layer metrics:", values, units,
                      bases=report["per_layer_detail"]["bases"])
    else:
        print_metrics("end-to-end metrics:", values, units, report["end_to_end"])
    if args.trace and "kernel_rates" in report["per_layer_detail"]:
        print(f"kernel rates, computed as working_set_bytes / t, against the copy "
              f"ceiling machine.copy_gbs {values['machine.copy_gbs']:.4g} GB/s "
              "(working set / llc_bytes in brackets):")
        for variant, per_kind in report["per_layer_detail"]["kernel_rates"].items():
            print(f"  {variant:9s}" + ", ".join(
                f"{kind} {r['computed_gbs']:.3g} GB/s = {r['share_of_copy']:.2%} of copy "
                f"[{r['working_set']['over_llc_bytes_used']:.3f}]"
                for kind, r in per_kind.items()))
    if args.trace:
        ref = report["per_layer_detail"]
        print(f"copy reference: {ref['copy']['why_this_size']}")
        print(f"note: {ref['bandwidth_note']}")
    print(f"report: {WORK / f'report-{tag}.json'}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spmvtune" / "__init__.py").is_file():
        print(f"error: no spmvtune package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload != "all":
        return run(args)
    return max(run(argparse.Namespace(**{**vars(args), "workload": name, "trace": trace}))
               for name in WORKLOAD_NAMES for trace in (0, 1))


if __name__ == "__main__":
    sys.exit(main())
