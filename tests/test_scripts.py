import ast
import os
import subprocess
import sys
from pathlib import Path

from spmvtune import kernels

ROOT = Path(__file__).resolve().parent.parent


def test_bench_variants_script_runs_generate_bench_report():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "scripts/bench_variants.py", "irregular", "500", "4"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert any(line.startswith("best ") for line in done.stdout.splitlines())


def test_demo_pipeline_script_runs_train_eval_advise(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "scripts/demo_pipeline.py", str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert any(line.startswith("loo_accuracy ") for line in lines)
    assert any(line.startswith("optimization: ") for line in lines)
    assert (tmp_path / "model.json").is_file()


def test_benchmark_times_the_variants_of_the_table():
    # perfbench names one spmv_<variant>_s operation per entry of its own
    # VARIANTS literal; it is read, not imported, so the check runs no
    # benchmark code.
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    literals = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "VARIANTS" for t in node.targets)]
    assert literals == [tuple(kernels.VARIANTS)]
