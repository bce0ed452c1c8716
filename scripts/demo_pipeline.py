#!/usr/bin/env python3
"""End-to-end demo: generate a synthetic corpus, auto-label it by profiling,
train a decision tree, evaluate it with leave-one-out, and advise on one
matrix.

Usage: python3 scripts/demo_pipeline.py [workdir]

Real wall-clock timings drive the labels here, so on small matrices (and
under the interpreter's global lock) the label quality is illustrative, not
authoritative; deterministic classification behavior is covered by the test
suite's injected timers.
"""

import sys
import tempfile
from pathlib import Path

from spmvtune.cli import main

SHAPES = {
    "banded": (4000, 6),
    "irregular": (4000, 8),
    "skewed": (4000, 6),
    "small-dense": (64, 16),
}
# One worker: a kernel call on two partitions starts and joins a thread
# every time, which costs more than these small kernels take, and profiling
# times each partition alone anyway; see README caveats.
FLAGS = ["--workers", "1", "--reps", "3", "--warmup", "1",
         "--llc-bytes", "16384"]


def run(args):
    print(f"$ spmvtune {' '.join(args)}")
    code = main(args)
    if code != 0:
        sys.exit(code)


def pipeline(workdir: Path) -> None:
    corpus = workdir / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    for kind, (n, k) in SHAPES.items():
        for seed in range(5):
            run(["generate", "--kind", kind, "--n", str(n),
                 "--nnz-per-row", str(k), "--seed", str(seed),
                 "--out", str(corpus / f"{kind}_{seed}.mtx")])

    model = workdir / "model.json"
    run(["train", "--corpus", str(corpus), "--labels", "auto",
         "--classifier", "tree", "--out", str(model), *FLAGS])
    run(["eval", "--corpus", str(corpus),
         "--labels", str(workdir / "model.features.csv"),
         "--classifier", "tree", *FLAGS])
    run(["advise", "--matrix", str(corpus / "irregular_0.mtx"),
         "--mode", "features", "--model", str(model), *FLAGS])


if __name__ == "__main__":
    if len(sys.argv) > 1:
        pipeline(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory(prefix="spmvtune-demo-") as tmp:
            pipeline(Path(tmp))
