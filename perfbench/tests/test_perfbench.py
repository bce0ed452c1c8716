"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import metrics
import run
import spans
import workloads
from conftest import BENCH

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(capsys, workload, trace, seconds=0.3):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", str(seconds),
                     "--trace", str(trace), "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_metric_tables_match_benchmark_json():
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in SPEC[key]} == table
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(capsys, workload, trace):
    code, result = run_bench(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    if trace:
        calls = result["metrics"]["csr.kernel_calls"]["value"]
        expected = {"ingest-features": 0,
                    "profile-advise": workloads.ProfileAdvise.expected_kernel_calls * 4,
                    "solve-variants": len(workloads.VARIANTS) * 4}
        assert calls == expected[workload]


def test_wrong_variant_is_counted_as_failed(capsys, monkeypatch):
    right = workloads.kernels.spmv_prefetch

    def off_by_one_ulp(a, x, part=None, distance=8):
        y = right(a, x, part, distance)
        y[-1] = np.nextafter(y[-1], np.inf)
        return y

    monkeypatch.setattr(workloads.kernels, "spmv_prefetch", off_by_one_ulp)
    code, result = run_bench(capsys, "solve-variants", 0)
    assert code == 1
    assert result["correct"] is False
    # One prefetch call per matrix per pass, and nothing else, fails.
    passes = result["attempted"] // (len(workloads.VARIANTS) * 4)
    assert result["failed"] == passes * 4


def test_kernel_call_in_feature_mode_is_counted_as_failed(capsys, monkeypatch):
    right = workloads.features.extract_features

    def extract_with_kernel_call(a, cfg):
        workloads.csr.spmv_baseline(a, np.ones(a.ncols))
        return right(a, cfg)

    monkeypatch.setattr(workloads.features, "extract_features", extract_with_kernel_call)
    code, result = run_bench(capsys, "ingest-features", 0)
    assert code == 1
    assert result["failed"] == result["attempted"]


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-variants",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.pass_id = 0
    with tracer.span("bench.outer"):
        with tracer.span("mmio.parse"):
            with tracer.span("csr.build"):
                pass
    (_, o0, o1, *_), (_, p0, p1, *_), (_, b0, b1, *_) = tracer.spans
    self_times = tracer.self_times(0)
    assert self_times["bench"] == pytest.approx((o1 - o0) - (p1 - p0))
    assert self_times["mmio"] == pytest.approx((p1 - p0) - (b1 - b0))
    assert self_times["csr"] == pytest.approx(b1 - b0)
    assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == 1


def test_summary_reports_tail_only_with_ten_samples_beyond_it():
    assert metrics.summarize(range(19))["tail"] is None
    assert metrics.summarize(range(20))["tail"]["percentile"] == 50
    assert metrics.summarize(range(100))["tail"]["percentile"] == 90
