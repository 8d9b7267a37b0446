"""Equivalence lockdown for the fast-path synthesis kernels.

Every fast path in :mod:`repro.fastpath` replaces a reference implementation
that stays in the tree; this suite holds the two ends of each pair to
element-identical output — same edges in the same order, same enumerations,
same costs, same budget charging — under hypothesis-randomized coefficient
sets, wordlengths, and shift ranges.  The graph comparisons run the numpy
kernel against the reference loop, and the spanning forest's BFS root
choice runs against networkx's eccentricity.
"""

from __future__ import annotations

from types import SimpleNamespace

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import fastpath, obs
from repro.core.mrp import MrpOptions, optimize
from repro.errors import BudgetExceeded, GraphError
from repro.fastpath.graphbuild import (
    _NUMPY_VALUE_BOUND,
    _columns_numpy,
    build_graph_fast,
)
from repro.fastpath import msdtables
from repro.filters import benchmark_suite
from repro.graph import build_spanning_forest, greedy_weighted_set_cover, spanning
from repro.graph.colored import (
    ColorEdge,
    ColoredGraph,
    ColumnarGraph,
    _build_edges,
    build_colored_graph,
)
from repro.numrep import (
    Representation,
    csd_nonzero_count,
    digit_cost,
    enumerate_msd,
    msd_count,
    oddpart,
)
from repro.numrep import msd as msd_module
from repro.obs import load_trace
from repro.quantize import ScalingScheme, quantize
from repro.robust.budget import SolverBudget

from .conftest import assert_index_matches_mapping_build

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

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


#: Each fast graph kernel, by the name its tests are parametrized with.
FAST_KERNELS = {"numpy": build_graph_fast}

# SID coefficients up to a quarter of the kernel's value bound: the vertex
# pair kernel_columns builds for each stays inside it.
KERNEL_VALUES = st.integers(min_value=1, max_value=_NUMPY_VALUE_BOUND >> 2)


def kernel_columns(value, representation):
    """The numpy kernel's primary, color shift and weight for SID ``value``.

    The odd vertex ``dst = value + (1 << shift)``, with shift 1 for an odd
    ``value`` and 0 for an even one, makes ``value`` the SID coefficient
    of the edge ``1 -> dst`` at that shift and source sign +1: column
    ``2 * shift``.
    """
    shift = value & 1
    primary, color_shifts, _, weight = _columns_numpy(
        [1, value + (1 << shift)], 1, representation
    )
    at = 2 * shift
    return int(primary[at]), color_shifts[at], int(weight[at])


class TestDigitCostKernels:
    """The numpy kernel's columns against the reference encoders.

    The CSD weight is Reitwiesner's ``popcount(n ^ 3n)``, the SM weight
    ``popcount(n)``, and the color shift the trailing-zero count.
    """

    @given(KERNEL_VALUES)
    def test_csd_popcount_identity(self, value):
        primary, _, weight = kernel_columns(value, Representation.CSD)
        assert weight == csd_nonzero_count(primary)
        assert weight == digit_cost(primary, Representation.CSD)

    @given(KERNEL_VALUES)
    def test_sm_cost(self, value):
        primary, _, weight = kernel_columns(value, Representation.SM)
        assert weight == digit_cost(primary, Representation.SM)

    @given(KERNEL_VALUES, REPRESENTATIONS)
    def test_dispatch_matches_reference(self, value, representation):
        primary, color_shift, weight = kernel_columns(value, representation)
        assert primary == oddpart(value)
        assert primary << color_shift == value
        assert weight == digit_cost(primary, representation)


class TestGraphKernelEquivalence:
    @given(VERTEX_SETS, SHIFTS, REPRESENTATIONS)
    @settings(max_examples=40)
    def test_numpy_kernel_matches_reference(self, vertices, max_shift, rep):
        vertex_list = sorted(set(vertices))
        reference = _build_edges(vertex_list, max_shift, rep, None)
        fast = build_graph_fast(vertex_list, max_shift, rep, None)
        assert_graphs_identical(reference, fast)

    def test_numpy_kernel_drops_to_python_past_int64(self):
        # (max_v << max_shift) + max_v would overflow 3*xi in int64; under
        # auto the build must drop to the bignum-safe reference loop, silently.
        huge = [(1 << 61) + 1, 3]
        fastpath.set_mode("auto")
        graph = build_colored_graph(huge, 2)
        assert type(graph) is ColoredGraph
        reference = _build_edges(sorted(huge), 2, Representation.CSD, None)
        assert_graphs_identical(reference, graph)

    def test_build_colored_graph_modes_agree(self):
        vertices = [3, 7, 11, 23, 45]
        graphs = {}
        for mode in ("off", "auto"):
            fastpath.set_mode(mode)
            graphs[mode] = build_colored_graph(vertices, 6)
        assert isinstance(graphs["auto"], ColumnarGraph)
        assert_graphs_identical(graphs["off"], graphs["auto"])

    def test_build_span_tags_the_path_that_ran(self, tmp_path):
        obs.reset()
        obs.configure(trace_path=tmp_path / "t.jsonl")
        try:
            build_colored_graph([3, 5, 9], 4)  # in bound: the numpy kernel
            build_colored_graph([3, (1 << 61) + 1], 2)  # past it: reference
            fastpath.set_mode("off")
            build_colored_graph([3, 5, 9], 4)
            records = load_trace(obs.finalize()["trace"])
        finally:
            obs.reset()
        kernels = [
            (r["tags"]["vertices"], r["tags"]["kernel"])
            for r in records if r["kind"] == "span" and r["name"] == "graph.build"
        ]
        assert kernels == [(3, "numpy"), (2, "reference"), (3, "reference")]

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_rejects_invalid_vertices(self, kernel):
        build = FAST_KERNELS[kernel]
        with pytest.raises(GraphError):
            build([4], 2, Representation.CSD, None)
        with pytest.raises(GraphError):
            build([-3, 5], 2, Representation.CSD, None)
        with pytest.raises(GraphError, match="int64"):
            build([3, (1 << 61) + 1], 2, Representation.CSD, None)


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
        for build in FAST_KERNELS.values():
            fast = build(vertex_list, max_shift, Representation.CSD, None)
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
        fast = FAST_KERNELS[kernel](vertex_list, 6, Representation.CSD, None)
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
        fast = FAST_KERNELS[kernel](vertex_list, 3, Representation.CSD, None)
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
        fast = FAST_KERNELS[kernel](vertex_list, 6, Representation.CSD, None)
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

    @pytest.mark.parametrize("kernel", FAST_KERNELS)
    def test_cover_makes_no_color_set_and_no_edge(self, kernel, monkeypatch):
        made = []
        check = ColorEdge.__post_init__

        def counting(edge):
            made.append(edge)
            check(edge)

        asked = []
        set_at = ColumnarGraph._set_at

        def counting_set_at(graph, slot):
            members = set_at(graph, slot)
            asked.append(int(graph._incidence.colors[slot]))
            return members

        monkeypatch.setattr(ColorEdge, "__post_init__", counting)
        monkeypatch.setattr(ColumnarGraph, "_set_at", counting_set_at)
        vertex_list = [3, 7, 11, 23, 45, 91, 105]
        fast = FAST_KERNELS[kernel](vertex_list, 8, Representation.CSD, None)
        strategies = (("benefit", BETAS), ("savings", (0.5,)))
        for strategy, _ in strategies:
            fast.cover_index(strategy)
        sets, costs = fast.cover_inputs()
        assert len(sets) == len(costs) > 100
        assert asked == [] and made == []
        picked = set()
        for strategy, betas in strategies:
            index = fast.cover_index(strategy)
            for beta in betas:
                solution = greedy_weighted_set_cover(
                    set(vertex_list), index.sets, index.costs, beta,
                    index.element_weights, strategy, index=index,
                )
                picked.update(solution.colors)
        # Only the picked colors' sets are made.
        assert set(asked) == picked and made == []


class TestCoverIndexEquivalence:
    """The index built from the graph's columns equals the mapping build."""

    @given(VERTEX_SETS, SHIFTS, REPRESENTATIONS)
    @settings(max_examples=40, deadline=None)
    def test_fast_graph_index_matches_mapping_constructor(
        self, vertices, max_shift, rep
    ):
        vertex_list = sorted(vertices)
        reference = _build_edges(vertex_list, max_shift, rep, None)
        ref_sets, ref_costs = reference.cover_inputs()
        for build in FAST_KERNELS.values():
            fast = build(vertex_list, max_shift, rep, None)
            sets, costs = fast.cover_inputs()
            # Views: the reference graph's keys in its order, per-key
            # lookups equal to the bulk walk, O(1) length.
            assert list(sets) == list(ref_sets) == list(costs)
            assert dict(sets.items()) == {c: sets[c] for c in sets} == ref_sets
            assert dict(costs.items()) == {c: costs[c] for c in costs} == ref_costs
            assert list(costs.values()) == list(ref_costs.values())
            assert len(sets) == len(ref_sets)
            for strategy in ("benefit", "savings"):
                assert_index_matches_mapping_build(fast, strategy)


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
        for build in FAST_KERNELS.values():
            fast = self._spent_at_failure(
                lambda b: build(self.VERTICES, 4, Representation.CSD, b)
            )
            assert fast == reference

    @pytest.mark.parametrize("cap", [1, 7, 19])
    def test_partial_build_raises_like_reference(self, cap):
        """A cap inside the build stops every kernel at the same place."""

        def failure(mode):
            budget = SolverBudget(max_nodes=cap).start()
            fastpath.set_mode(mode)
            with pytest.raises(BudgetExceeded) as caught:
                build_colored_graph(self.VERTICES, 4, Representation.CSD, budget)
            return budget.nodes_used, str(caught.value)

        reference = failure("off")
        assert reference[0] == cap + 1
        assert failure("auto") == reference

    def test_sufficient_budget_builds_identical_graph(self):
        def build(builder):
            budget = SolverBudget(max_nodes=10_000).start()
            return builder(self.VERTICES, 4, Representation.CSD, budget)

        reference = build(_build_edges)
        for builder in FAST_KERNELS.values():
            assert_graphs_identical(reference, build(builder))


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
        # "numpy" and "python" are retired modes: unknown like any typo.
        for mode in ("turbo", "numpy", "python"):
            with pytest.raises(ValueError, match=r"choose from \('auto', 'off'\)"):
                fastpath.set_mode(mode)

    def test_env_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "off")
        assert fastpath.resolve_mode() == "off"
        assert fastpath.graph_kernel() == "off"
        assert not fastpath.msd_tables_enabled()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH", "off")
        fastpath.set_mode("auto")
        assert fastpath.graph_kernel() == "numpy"

    @pytest.mark.parametrize("raw", ["numpy", "python"])
    def test_retired_env_values_resolve_to_auto(self, raw, monkeypatch):
        # Benchmark and service children inherit the ambient environment, so
        # a retired REPRO_FASTPATH value must run the fast paths, not fail.
        monkeypatch.setenv("REPRO_FASTPATH", raw)
        assert fastpath.resolve_mode() == "auto"
        assert fastpath.graph_kernel() == "numpy"
        assert fastpath.msd_tables_enabled() and fastpath.tdfsim_enabled()
        assert isinstance(build_colored_graph([3, 5, 9], 4), ColumnarGraph)

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


def networkx_root(graph, colors, unassigned):
    """The root rule as networkx states it: the reference for the BFS."""
    undirected = nx.Graph()
    undirected.add_nodes_from(unassigned)
    for color in colors:
        for edge in graph.edges_of_color(color):
            if edge.src in unassigned and edge.dst in unassigned:
                undirected.add_edge(edge.src, edge.dst)
    component = nx.node_connected_component(undirected, min(unassigned))
    eccentricities = nx.eccentricity(undirected.subgraph(component))
    return min(sorted(component), key=lambda v: (eccentricities[v], v))


class _EdgeTable:
    """Just the part of a colored graph the root choice reads."""

    def __init__(self, edges):
        self._by_color = {}
        for src, dst, color in edges:
            self._by_color.setdefault(color, []).append(
                SimpleNamespace(src=src, dst=dst)
            )

    def edges_of_color(self, color):
        return tuple(self._by_color.get(color, ()))


@st.composite
def root_instances(draw):
    """Undirected multigraphs with self-loops, several components, and
    edges of unchosen colors or to already-assigned vertices."""
    vertices = draw(st.lists(
        st.integers(min_value=0, max_value=60), min_size=1, max_size=24, unique=True,
    ))
    unassigned = set(draw(st.lists(
        st.sampled_from(vertices), min_size=1, max_size=len(vertices), unique=True,
    )))
    edges = draw(st.lists(st.tuples(
        st.sampled_from(vertices), st.sampled_from(vertices),
        st.integers(min_value=0, max_value=5),
    ), max_size=48))
    colors = set(draw(st.lists(st.integers(min_value=0, max_value=5), unique=True)))
    return edges, colors, unassigned


class TestRootChoice:
    """``_choose_root``'s BFS picks the vertex networkx's eccentricity picks."""

    @given(root_instances())
    @example(([(1, 1, 0), (1, 2, 0), (2, 3, 0), (5, 6, 0), (6, 6, 0)], {0},
              {1, 2, 3, 5, 6}))
    @example(([(4, 4, 1)], {1}, {4}))
    @example(([(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0), (9, 0, 0)], {0},
              {0, 1, 2, 3}))
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, instance):
        edges, colors, unassigned = instance
        graph = _EdgeTable(edges)
        assert spanning._choose_root(graph, colors, set(unassigned)) == (
            networkx_root(graph, colors, unassigned)
        )

    def test_roots_of_the_suite_forests(self, monkeypatch):
        """Every root chosen on the 96 suite points at Table 1's depth bound."""
        choose_root = spanning._choose_root
        calls = []

        def checked(graph, colors, unassigned):
            root = choose_root(graph, colors, unassigned)
            assert root == networkx_root(graph, colors, unassigned)
            calls.append(root)
            return root

        monkeypatch.setattr(spanning, "_choose_root", checked)
        options = MrpOptions(depth_limit=3)
        for designed in benchmark_suite():
            for wordlength in (8, 12, 16, 20):
                for scheme in ScalingScheme:
                    taps = quantize(designed.folded, wordlength, scheme).integers
                    optimize(taps, wordlength, options)
        assert len(calls) > 96
