"""Golden-number regression tests.

Every algorithm in this library is deterministic (tie-breaking is total,
stimulus is seeded), so synthesis results are exactly reproducible.  These
tests pin the adder counts of all methods at representative design points;
any behaviour-changing edit to the optimizers trips them loudly instead of
silently shifting the reproduced figures.

If a deliberate algorithm improvement changes these numbers, regenerate the
table (the commands are in the module docstring of each method) and update
EXPERIMENTS.md in the same change.
"""

import pytest

from repro import fastpath
from repro.baselines import (
    synthesize_bhm,
    synthesize_cse_filter,
    synthesize_simple,
)
from repro.eval import best_mrpf
from repro.filters import benchmark_suite
from repro.quantize import ScalingScheme, quantize

# (filter_index, wordlength, scaling) -> method -> exact adder count
GOLDEN = {
    (0, 12, "uniform"): {"simple": 12, "cse": 8, "bhm": 8, "mrpf": 8,
                         "mrpf_cse": 8},
    (0, 12, "maximal"): {"simple": 23, "cse": 13, "bhm": 15, "mrpf": 15,
                         "mrpf_cse": 13},
    (1, 12, "uniform"): {"simple": 30, "cse": 17, "bhm": 14, "mrpf": 14,
                         "mrpf_cse": 14},
    (1, 12, "maximal"): {"simple": 40, "cse": 22, "bhm": 26, "mrpf": 27,
                         "mrpf_cse": 21},
    (2, 12, "uniform"): {"simple": 43, "cse": 20, "bhm": 19, "mrpf": 20,
                         "mrpf_cse": 19},
    (2, 12, "maximal"): {"simple": 67, "cse": 32, "bhm": 40, "mrpf": 30,
                         "mrpf_cse": 27},
    (4, 12, "uniform"): {"simple": 39, "cse": 19, "bhm": 16, "mrpf": 17,
                         "mrpf_cse": 17},
    (4, 12, "maximal"): {"simple": 79, "cse": 36, "bhm": 34, "mrpf": 34,
                         "mrpf_cse": 29},
}


def _quantized(index: int, wordlength: int, scaling: str):
    designed = benchmark_suite()[index]
    scheme = ScalingScheme(scaling)
    return quantize(designed.folded, wordlength, scheme)


@pytest.mark.parametrize("point", sorted(GOLDEN), ids=lambda p: f"{p[0]}-{p[2]}")
class TestGoldenAdderCounts:
    def test_simple(self, point):
        q = _quantized(*point)
        assert synthesize_simple(q.integers).adder_count == GOLDEN[point]["simple"]

    def test_cse(self, point):
        q = _quantized(*point)
        assert synthesize_cse_filter(q.integers).adder_count == GOLDEN[point]["cse"]

    def test_bhm(self, point):
        q = _quantized(*point)
        assert synthesize_bhm(q.integers).adder_count == GOLDEN[point]["bhm"]

    def test_mrpf(self, point):
        q = _quantized(*point)
        assert best_mrpf(q.integers, point[1]).adder_count == GOLDEN[point]["mrpf"]

    def test_mrpf_cse(self, point):
        q = _quantized(*point)
        got = best_mrpf(q.integers, point[1], seed_compression="cse").adder_count
        assert got == GOLDEN[point]["mrpf_cse"]


@pytest.fixture()
def _each_fastpath_mode(request):
    """Restore the ambient fast-path mode after a mode-switching test."""
    yield
    fastpath.set_mode(None)


@pytest.mark.usefixtures("_each_fastpath_mode")
class TestGoldenFastVersusLegacy:
    """The fast kernels reproduce the golden table and artifact bytes.

    The golden numbers above already pin the default (fast) path; here the
    same design points are recomputed with every fast path disabled
    (``REPRO_FASTPATH=off``), and the full exported artifacts — not just
    adder counts — must be identical byte for byte.
    """

    POINTS = [(0, 12, "uniform"), (1, 12, "maximal")]

    def _mrpf_count(self, point):
        q = _quantized(*point)
        return best_mrpf(q.integers, point[1]).adder_count

    @pytest.mark.parametrize("mode", ["off", "auto"])
    @pytest.mark.parametrize("point", POINTS, ids=lambda p: f"{p[0]}-{p[2]}")
    def test_golden_mrpf_under_every_mode(self, mode, point):
        fastpath.set_mode(mode)
        assert self._mrpf_count(point) == GOLDEN[point]["mrpf"]

    @pytest.mark.parametrize("fmt", ["verilog", "c", "dot"])
    def test_table1_artifact_bytes_identical(self, fmt):
        # generate_artifact (not fetch_artifact) so no cache layer can
        # serve mode B the bytes computed under mode A.
        from repro.service.artifacts import generate_artifact

        def artifact():
            return generate_artifact(
                0, 10, fmt,
                scaling=ScalingScheme.MAXIMAL,
            )

        fastpath.set_mode("off")
        legacy = artifact()
        fastpath.set_mode("auto")
        assert artifact() == legacy


class TestGoldenInternalConsistency:
    def test_table_orderings(self):
        """The pinned numbers themselves respect the structural guarantees."""
        for point, methods in GOLDEN.items():
            assert methods["mrpf"] <= methods["simple"]
            assert methods["cse"] <= methods["simple"]
            assert methods["bhm"] <= methods["simple"]
            assert methods["mrpf_cse"] <= methods["simple"]
