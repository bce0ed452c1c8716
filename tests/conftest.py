import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spmvtune import CsrMatrix, TripletList, bodies, csr_from_triplets

# The kernel_backend fixture is function-scoped: every example of a test
# runs on the one backend it selected, which is what the test means.
settings.register_profile(
    "suite", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
settings.load_profile("suite")

BACKENDS = ("native", "numpy")


def use_backend(monkeypatch, name: str) -> None:
    """Make the kernels run on backend ``name``; skip when it cannot load."""
    if name == "numpy":
        monkeypatch.setattr(bodies, "_state", (None, "numpy (selected by the test)"))
    elif bodies.library() is None:
        pytest.skip(f"no native backend: {bodies.backend()}")


@pytest.fixture(params=BACKENDS)
def kernel_backend(request, monkeypatch) -> str:
    """Runs the test once per backend."""
    use_backend(monkeypatch, request.param)
    return request.param


# Reference 4x4 matrix used across suites:
#   [[1, 0, 0, 2],
#    [0, 3, 0, 0],
#    [0, 0, 0, 0],
#    [4, 5, 0, 6]]
E_TRIPLETS = [(0, 0, 1.0), (0, 3, 2.0), (1, 1, 3.0),
              (3, 0, 4.0), (3, 1, 5.0), (3, 3, 6.0)]


@pytest.fixture
def matrix_e() -> CsrMatrix:
    return csr_from_triplets(TripletList.from_entries(4, 4, E_TRIPLETS))


def random_triplets(rng, nrows, ncols, density) -> TripletList:
    """Distinct positions, strictly positive values (no accidental stored
    zeros, no cancellation), suitable for dense-scan oracles."""
    total = nrows * ncols
    k = max(0, min(total, int(round(density * total))))
    flat = rng.choice(total, size=k, replace=False)
    rows, cols = np.divmod(flat, ncols)
    vals = rng.uniform(0.5, 2.0, k)
    return TripletList(nrows, ncols, rows, cols, vals)


def random_csr(rng, nrows, ncols, density) -> CsrMatrix:
    return csr_from_triplets(random_triplets(rng, nrows, ncols, density))


class FakeTimer:
    """Scripted clock: each timed region consumes one scripted duration.

    Region starts read 0.0 and region ends read the next duration exactly,
    so measured durations carry no float accumulation error.
    """

    def __init__(self, durations):
        self._durations = iter(durations)
        self._in_region = False

    def __call__(self) -> float:
        if not self._in_region:
            self._in_region = True
            return 0.0
        self._in_region = False
        return float(next(self._durations))


def measure_script(t_baseline, t_noxmiss, t_inflate, balance_workers,
                   reps, workers):
    """Durations consumed by profiling.measure with warmup=0, in its fixed
    region order: one region per worker for each rep of baseline, noxmiss
    and inflate (every worker taking the kernel's time), then the given
    per-worker balance durations for each rep."""
    script = []
    for t in (t_baseline, t_noxmiss, t_inflate):
        script += [t] * (reps * workers)
    assert len(balance_workers) == workers
    for _ in range(reps):
        script += list(balance_workers)
    return script
