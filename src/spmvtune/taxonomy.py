"""Bottleneck classes; ``kernels.VARIANTS`` maps each to its optimization."""

import enum


class MatrixClass(enum.IntEnum):
    """Dominant SpMV performance bottleneck of a matrix.

    The integer order doubles as the deterministic tie-break order used
    by the classifiers.
    """

    CML = 0  # cache-miss-latency bound (irregular accesses to x)
    MB = 1   # memory-bandwidth bound
    IMB = 2  # imbalance bound (uneven work across threads)
    CMP = 3  # compute bound (working set fits in cache)
