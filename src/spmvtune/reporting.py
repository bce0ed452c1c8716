"""Summary statistics for speedup collections."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpeedupStats:
    """Box-plot summary of per-matrix speedups: whiskers at min/max, box at
    the linearly interpolated quartiles, circle at the mean."""

    minimum: float
    q1: float
    mean: float
    q3: float
    maximum: float

    @classmethod
    def from_values(cls, values) -> "SpeedupStats":
        values = np.asarray(values, dtype=np.float64)
        if values.size < 1:
            raise ValueError("need at least one value")
        return cls(minimum=float(values.min()),
                   q1=float(np.quantile(values, 0.25)),
                   # Rounding can put the mean of near-equal values just
                   # outside [min, max].
                   mean=float(np.clip(values.mean(), values.min(), values.max())),
                   q3=float(np.quantile(values, 0.75)),
                   maximum=float(values.max()))

    def summary_lines(self) -> list[str]:
        return [f"min {self.minimum:.6g}",
                f"q1 {self.q1:.6g}",
                f"mean {self.mean:.6g}",
                f"q3 {self.q3:.6g}",
                f"max {self.maximum:.6g}"]
