"""Equivalence lockdown for the fast-path synthesis kernels.

Every fast path in :mod:`repro.fastpath` replaces a reference implementation
that stays in the tree; this suite holds the two ends of each pair to
element-identical output — same edges in the same order, same enumerations,
same costs, same budget charging — under hypothesis-randomized coefficient
sets, wordlengths, and shift ranges.  The graph comparisons run the numpy
and pure-python kernels against the reference loop, and the numpy-absent
world is simulated by monkeypatching the capability probe, so the fallback
is exercised even on hosts with a capable numpy installed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fastpath
from repro.errors import BudgetExceeded, GraphError
from repro.fastpath.digitcost import csd_cost_fast, fast_cost_fn, sm_cost_fast
from repro.fastpath.graphbuild import build_graph_fast
from repro.fastpath import msdtables
from repro.graph import build_spanning_forest, greedy_weighted_set_cover
from repro.graph.colored import ColorEdge, _build_edges, build_colored_graph
from repro.numrep import (
    Representation,
    csd_nonzero_count,
    digit_cost,
    enumerate_msd,
    msd_count,
    oddpart,
)
from repro.numrep import msd as msd_module
from repro.robust.budget import SolverBudget

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

NUMPY_KERNEL = fastpath.numpy_usable()

# Odd positive vertex mantissas in the range real quantized coefficients
# occupy (<= 24-bit wordlengths).
ODD_VERTEX = st.integers(min_value=0, max_value=(1 << 22) - 1).map(
    lambda n: 2 * n + 1
)
VERTEX_SETS = st.lists(ODD_VERTEX, min_size=1, max_size=8, unique=True)
SHIFTS = st.integers(min_value=0, max_value=10)
REPRESENTATIONS = st.sampled_from([Representation.CSD, Representation.SM])
MSD_VALUES = st.integers(min_value=-(2**12), max_value=2**12)


@pytest.fixture(autouse=True)
def _pristine_fastpath(monkeypatch):
    """Each test starts with default mode and empty MSD tables.

    The ambient ``REPRO_FASTPATH`` is cleared as well: each test picks the
    kernels it compares itself, and the MSD-table tests need the tables on,
    so the suite must pass whatever mode the shell selected.
    """
    monkeypatch.delenv("REPRO_FASTPATH", raising=False)
    fastpath.set_mode(None)
    msdtables.clear_tables()
    yield
    fastpath.set_mode(None)
    msdtables.clear_tables()


def assert_graphs_identical(reference, candidate):
    """Element-identical: same indices, same edges, same *order* per color.

    Order matters because downstream spanning-tree tie-breaking walks each
    color's edge list in sequence; equality as sets would not pin exported
    artifacts.
    """
    assert candidate.vertices == reference.vertices
    assert candidate.representation is reference.representation
    assert candidate.max_shift == reference.max_shift
    assert candidate.num_edges == reference.num_edges
    assert candidate.colors == reference.colors
    for color in reference.colors:
        assert candidate.edges_of_color(color) == reference.edges_of_color(color)
        assert candidate.color_set(color) == reference.color_set(color)
        assert candidate.color_cost(color) == reference.color_cost(color)
    for vertex in reference.vertices:
        assert candidate.colors_of_vertex(vertex) == (
            reference.colors_of_vertex(vertex)
        )
        assert candidate.edges_into(vertex, reference.colors) == (
            reference.edges_into(vertex, reference.colors)
        )


class TestDigitCostKernels:
    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_csd_popcount_identity(self, value):
        assert csd_cost_fast(value) == csd_nonzero_count(value)

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_sm_cost(self, value):
        assert sm_cost_fast(value) == digit_cost(value, Representation.SM)

    @given(st.integers(min_value=1, max_value=2**40), REPRESENTATIONS)
    def test_dispatch_matches_reference(self, value, representation):
        assert fast_cost_fn(representation)(value) == (
            digit_cost(value, representation)
        )


class TestGraphKernelEquivalence:
    @given(VERTEX_SETS, SHIFTS, REPRESENTATIONS)
    @settings(max_examples=40)
    def test_python_kernel_matches_reference(self, vertices, max_shift, rep):
        vertex_list = sorted(set(vertices))
        reference = _build_edges(vertex_list, max_shift, rep, None)
        fast = build_graph_fast(vertex_list, max_shift, rep, None, "python")
        assert_graphs_identical(reference, fast)

    @pytest.mark.skipif(not NUMPY_KERNEL, reason="needs numpy >= 2.0")
    @given(VERTEX_SETS, SHIFTS, REPRESENTATIONS)
    @settings(max_examples=40)
    def test_numpy_kernel_matches_reference(self, vertices, max_shift, rep):
        vertex_list = sorted(set(vertices))
        reference = _build_edges(vertex_list, max_shift, rep, None)
        fast = build_graph_fast(vertex_list, max_shift, rep, None, "numpy")
        assert_graphs_identical(reference, fast)

    def test_numpy_kernel_drops_to_python_past_int64(self):
        # (max_v << max_shift) + max_v would overflow 3*xi in int64; the
        # dispatcher must pick the bignum-safe python kernel, silently.
        huge = [(1 << 61) + 1, 3]
        reference = _build_edges(sorted(huge), 2, Representation.CSD, None)
        fast = build_graph_fast(sorted(huge), 2, Representation.CSD, None, "numpy")
        assert_graphs_identical(reference, fast)

    def test_build_colored_graph_modes_agree(self):
        vertices = [3, 7, 11, 23, 45]
        graphs = {}
        for mode in ("off", "python", "auto"):
            fastpath.set_mode(mode)
            graphs[mode] = build_colored_graph(vertices, 6)
        assert_graphs_identical(graphs["off"], graphs["python"])
        assert_graphs_identical(graphs["off"], graphs["auto"])

    def test_fallback_when_numpy_unusable(self, monkeypatch):
        # Simulate a numpy-less host: auto must resolve to the python
        # kernel and still build the identical graph.
        monkeypatch.setattr(fastpath, "_NUMPY_USABLE", False)
        assert fastpath.graph_kernel() == "python"
        fastpath.set_mode("off")
        reference = build_colored_graph([3, 5, 9], 4)
        fastpath.set_mode("auto")
        assert_graphs_identical(reference, build_colored_graph([3, 5, 9], 4))

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    def test_rejects_invalid_vertices(self, kernel):
        with pytest.raises(GraphError):
            build_graph_fast([4], 2, Representation.CSD, None, kernel)
        with pytest.raises(GraphError):
            build_graph_fast([-3, 5], 2, Representation.CSD, None, kernel)


FAST_KERNELS = ("python", "numpy") if NUMPY_KERNEL else ("python",)
BETAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def greedy_solutions(graph):
    """The greedy cover's solution colors at several β, as the forest gets them."""
    index = graph.cover_index()
    return [
        set(greedy_weighted_set_cover(
            set(graph.vertices), index.sets, index.costs, beta=beta, index=index,
        ).colors)
        for beta in BETAS
    ]


class TestLazyEdges:
    """A fast graph makes its edges on demand; what it makes is the reference's.

    ``assert_graphs_identical`` asks every vertex for the edges of all
    colors at once; the spanning forest asks for a handful, in an order of
    its own, and the graph keeps what it made.  These tests ask the way the
    forest does, in several orders, and compare every answer.
    """

    @given(VERTEX_SETS.filter(lambda vs: len(vs) >= 2), SHIFTS, st.data())
    @settings(max_examples=30, deadline=None)
    def test_edges_into_small_allowed_sets(self, vertices, max_shift, data):
        vertex_list = sorted(vertices)
        reference = _build_edges(vertex_list, max_shift, Representation.CSD, None)
        colors = sorted(reference.colors)
        allowed_sets = greedy_solutions(reference)
        for _ in range(4):
            allowed_sets.append(set(data.draw(st.lists(
                st.sampled_from(colors), min_size=1, max_size=8, unique=True,
            ))))
        # Even numbers are never primary colors; 2 * max + 1 is past them all.
        absent = {2, 2 * colors[-1] + 1}
        allowed_sets.append(absent)
        allowed_sets.append(allowed_sets[0] | absent)
        for kernel in FAST_KERNELS:
            fast = build_graph_fast(
                vertex_list, max_shift, Representation.CSD, None, kernel
            )
            for allowed in allowed_sets:
                for vertex in vertex_list:
                    expected = reference.edges_into(vertex, allowed)
                    assert fast.edges_into(vertex, allowed) == expected
                    assert fast.edges_into(vertex, frozenset(allowed)) == (
                        reference.edges_into(vertex, frozenset(allowed))
                    )
            assert fast.edges_into(vertex_list[0], absent) == []

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    @pytest.mark.parametrize("order", ["colors_first", "vertices_first", "reversed"])
    def test_caches_warmed_in_any_order(self, kernel, order):
        vertex_list = [3, 7, 11, 23, 45, 91, 105]
        reference = _build_edges(vertex_list, 6, Representation.CSD, None)
        fast = build_graph_fast(vertex_list, 6, Representation.CSD, None, kernel)
        solutions = greedy_solutions(reference)
        colors = sorted(set().union(*solutions))
        vertices = list(vertex_list)
        if order == "reversed":
            colors.reverse()
            vertices.reverse()
        if order == "colors_first":
            for color in colors:
                assert fast.edges_of_color(color) == (
                    reference.edges_of_color(color)
                )
        for allowed in solutions:
            for vertex in vertices:
                assert fast.edges_into(vertex, allowed) == (
                    reference.edges_into(vertex, allowed)
                )
                assert fast.colors_of_vertex(vertex) == (
                    reference.colors_of_vertex(vertex)
                )
        for color in colors:
            assert fast.edges_of_color(color) == reference.edges_of_color(color)
        assert_graphs_identical(reference, fast)
        for allowed in solutions:
            assert build_spanning_forest(fast, allowed, 3) == (
                build_spanning_forest(reference, allowed, 3)
            )

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_sign_tie_keeps_reference_order(self, kernel):
        # 7 - (1 << 1) = 5 and 7 + (1 << 1) = 9: two edges 1 -> 7 with the
        # same shift, color shift 0 and weight 2, differing only in sign.
        # The forest ranks them equal, so the first one it is handed wins.
        vertex_list = [1, 7]
        reference = _build_edges(vertex_list, 3, Representation.CSD, None)
        fast = build_graph_fast(vertex_list, 3, Representation.CSD, None, kernel)
        tied = [
            edge for edge in reference.edges_into(7, {5, 9})
            if edge.src == 1 and edge.shift == 1
        ]
        assert sorted(edge.src_sign for edge in tied) == [-1, 1]
        assert {edge.color for edge in tied} == {5, 9}
        assert len({(edge.weight, edge.color_shift) for edge in tied}) == 1
        for allowed in ({5, 9}, {9, 5}, frozenset({5, 9})):
            assert fast.edges_into(7, allowed) == reference.edges_into(7, allowed)
        forest = build_spanning_forest(fast, [5, 9], 1)
        assert forest == build_spanning_forest(reference, [5, 9], 1)

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_build_makes_no_edges_until_asked(self, kernel, monkeypatch):
        made = []
        check = ColorEdge.__post_init__

        def counting(edge):
            made.append(edge)
            check(edge)

        monkeypatch.setattr(ColorEdge, "__post_init__", counting)
        vertex_list = [3, 7, 11, 23, 45]
        fast = build_graph_fast(vertex_list, 6, Representation.CSD, None, kernel)
        assert fast.num_edges == 2 * 7 * 5 * 4
        fast.cover_index("benefit")
        fast.cover_index("savings")
        for vertex in vertex_list:
            fast.colors_of_vertex(vertex)
        assert made == []
        color = min(fast.colors_of_vertex(45))
        edges = fast.edges_into(45, {color})
        assert edges and made == edges
        assert fast.edges_into(45, {color}) == edges
        assert len(made) == len(edges)


class TestGraphBudgetEquivalence:
    VERTICES = [3, 5, 7, 9, 11]

    def _spent_at_failure(self, builder):
        budget = SolverBudget(max_nodes=4).start()
        with pytest.raises(BudgetExceeded):
            builder(budget)
        return budget.nodes_used

    def test_kernels_charge_budget_like_reference(self):
        reference = self._spent_at_failure(
            lambda b: _build_edges(self.VERTICES, 4, Representation.CSD, b)
        )
        for kernel in ("python", "numpy") if NUMPY_KERNEL else ("python",):
            fast = self._spent_at_failure(
                lambda b: build_graph_fast(
                    self.VERTICES, 4, Representation.CSD, b, kernel
                )
            )
            assert fast == reference

    def test_sufficient_budget_builds_identical_graph(self):
        def build(kernel):
            budget = SolverBudget(max_nodes=10_000).start()
            if kernel == "off":
                return _build_edges(self.VERTICES, 4, Representation.CSD, budget)
            return build_graph_fast(
                self.VERTICES, 4, Representation.CSD, budget, kernel
            )

        reference = build("off")
        assert_graphs_identical(reference, build("python"))
        if NUMPY_KERNEL:
            assert_graphs_identical(reference, build("numpy"))


class TestMsdTableEquivalence:
    @given(MSD_VALUES)
    @settings(max_examples=40)
    def test_memoized_matches_reference(self, value):
        fastpath.set_mode("off")
        reference = enumerate_msd(value)
        fastpath.set_mode("auto")
        msdtables.clear_tables()
        assert enumerate_msd(value) == reference  # miss populates the table
        assert enumerate_msd(value) == reference  # hit serves from it

    @given(MSD_VALUES)
    @settings(max_examples=40)
    def test_snapshot_restore_roundtrip(self, value):
        expected = enumerate_msd(value)
        snapshot = msdtables.table_snapshot()
        msdtables.clear_tables()
        assert msdtables.restore_tables(snapshot) == len(snapshot)
        assert enumerate_msd(value) == expected
        assert msdtables.table_stats()["misses"] == 0

    def test_table_hit_still_charges_budget(self):
        enumerate_msd(45)  # warm
        budget = SolverBudget(max_nodes=1).start()
        enumerate_msd(45, budget=budget)
        assert budget.nodes_used == 1
        with pytest.raises(BudgetExceeded):
            enumerate_msd(45, budget=budget)

    def test_msd_count_uses_table(self):
        before = msdtables.table_stats()["hits"]
        assert msd_count(363) == msd_count(363)
        assert msdtables.table_stats()["hits"] > before

    def test_off_mode_bypasses_table(self):
        fastpath.set_mode("off")
        enumerate_msd(99)
        assert msdtables.table_stats() == {"entries": 0, "hits": 0, "misses": 0}

    def test_warm_msd_tables_counts_new_entries(self):
        values = [3, 7, 11, 45]
        assert msdtables.warm_msd_tables(values) == len(values)
        assert msdtables.warm_msd_tables(values) == 0

    def test_snapshot_truncates_at_ceiling(self):
        for value in range(1, 40, 2):
            enumerate_msd(value)
        snapshot = msdtables.table_snapshot(max_entries=5)
        assert len(snapshot) == 5

    def test_cached_result_is_a_fresh_list(self):
        first = enumerate_msd(23)
        first.append("sentinel")
        assert "sentinel" not in enumerate_msd(23)


class TestModeMachinery:
    def test_set_mode_rejects_unknown(self):
        with pytest.raises(ValueError):
            fastpath.set_mode("turbo")

    def test_env_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "off")
        assert fastpath.resolve_mode() == "off"
        assert fastpath.graph_kernel() == "off"
        assert not fastpath.msd_tables_enabled()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "off")
        fastpath.set_mode("python")
        assert fastpath.graph_kernel() == "python"

    def test_info_is_json_friendly(self):
        import json

        info = fastpath.fastpath_info()
        assert json.loads(json.dumps(info)) == info
        assert info["kernel_version"] == fastpath.KERNEL_VERSION


class TestOddpartAgreement:
    @given(st.integers(min_value=1, max_value=2**48))
    def test_low_bit_trick_matches_oddpart(self, magnitude):
        color_shift = (magnitude & -magnitude).bit_length() - 1
        assert magnitude >> color_shift == abs(oddpart(magnitude))
        assert magnitude % (1 << color_shift) == 0
