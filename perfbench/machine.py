"""What the run was measured on, and the bandwidth ceiling for kernel rates."""

from __future__ import annotations

import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_SIZE_UNITS = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}

VIRTUALIZED_NOTE = (
    "cache sizes are what the (virtual) CPU reports; on a VM the L3 figure "
    "is the host's and is not a private cache of this guest")


def _parse_size(text: str) -> int:
    text = text.strip()
    if text and text[-1] in _SIZE_UNITS:
        return int(text[:-1]) * _SIZE_UNITS[text[-1]]
    return int(text)


def cache_geometry() -> list[dict]:
    """Cache levels of cpu0, read only from sysfs; empty if unreadable."""
    levels = []
    try:
        entries = sorted(_CACHE_DIR.glob("index*"))
        for entry in entries:
            read = lambda name: (entry / name).read_text().strip()
            levels.append({"level": int(read("level")), "type": read("type"),
                           "size_bytes": _parse_size(read("size")),
                           "line_bytes": int(read("coherency_line_size"))})
    except (OSError, ValueError):
        return []
    return levels


def last_level_bytes(geometry) -> int | None:
    sizes = [c["size_bytes"] for c in geometry if c["type"] != "Instruction"]
    return max(sizes) if sizes else None


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from its files; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int, llc_bytes_used: int) -> dict:
    geometry = cache_geometry()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(root),
        "seed": seed,
        "cache_geometry_cpu0": geometry,
        "reported_llc_bytes": last_level_bytes(geometry),
        "llc_bytes_used": llc_bytes_used,
        "cache_note": VIRTUALIZED_NOTE,
    }


def copy_bandwidth(array_bytes: int, reps: int = 7) -> dict:
    """STREAM-style copy ``dst[:] = src``; counts bytes read plus written."""
    n = array_bytes // 8
    src = np.ones(n)
    dst = np.zeros(n)  # touched, so no page faults in the timed copies
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        np.copyto(dst, src)
        times.append(perf_counter() - t0)
    t = statistics.median(times)
    return {"gbs": 2 * n * 8 / t / 1e9, "array_bytes": n * 8, "reps": reps,
            "median_s": t}
