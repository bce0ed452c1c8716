"""Advisor configuration: machine parameters, timing policy, thresholds."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .features import CacheConfig, resolve_subset
from .profiling import ThresholdConfig


@dataclass(frozen=True)
class AdvisorConfig:
    llc_bytes: int = 16 * 1024 * 1024
    cacheline_bytes: int = 64
    workers: int = 4
    reps: int = 20
    warmup: int = 5
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    feature_subset: str = "all"

    def __post_init__(self):
        self.cache_config()  # raises on a bad cache geometry
        if min(self.workers, self.reps) < 1:
            raise ValueError("workers and reps must be >= 1")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        # A kernel runs up to one thread per worker (at most 32).
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if self.workers > 4 * cpus:
            raise ValueError(f"workers must be <= {4 * cpus} (4 x {cpus} usable CPUs)")
        resolve_subset(self.feature_subset)  # raises on unknown preset/features

    @property
    def prefetch_distance(self) -> int:
        """One cache line of values ahead."""
        return self.cache_config().line_values

    def cache_config(self) -> CacheConfig:
        return CacheConfig(llc_bytes=self.llc_bytes,
                           cacheline_bytes=self.cacheline_bytes)

    def subset_names(self) -> tuple[str, ...]:
        return resolve_subset(self.feature_subset)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "AdvisorConfig":
        """Build from a decoded JSON object; each value must have its field's type."""
        doc = dict(doc)
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(doc) - set(types)
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        thr = doc.pop("thresholds", None)
        for name, value in doc.items():
            # Field types are annotation strings here; a bool is not an "int".
            if type(value).__name__ != types[name]:
                raise ValueError(f"{name} must be of type {types[name]}, got {value!r}")
        if thr is not None:
            theta = [f.name for f in dataclasses.fields(ThresholdConfig)]
            if not (isinstance(thr, dict) and set(thr) <= set(theta)
                    and all(type(v) in (int, float) for v in thr.values())):
                raise ValueError(f"thresholds must be an object of numbers "
                                 f"with keys from: {', '.join(theta)}")
            doc["thresholds"] = ThresholdConfig(**thr)
        return cls(**doc)

    @classmethod
    def from_file(cls, path) -> "AdvisorConfig":
        doc = json.loads(Path(path).read_text(encoding="ascii"))
        if not isinstance(doc, dict):
            raise ValueError("config file must contain a JSON object")
        return cls.from_dict(doc)
