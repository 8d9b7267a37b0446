"""Unit + property tests for the depth-bounded spanning forest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MrpOptions, optimize
from repro.core.sidc import normalize_taps
from repro.errors import GraphError
from repro.eval.experiments import BETA_SWEEP
from repro.filters import benchmark_filter
from repro.graph import (
    SpanningForest,
    TreeAssignment,
    build_colored_graph,
    build_spanning_forest,
    greedy_weighted_set_cover,
)
from repro.graph.spanning import _choose_root
from repro.quantize import ScalingScheme, quantize

ODD_VERTEX = st.integers(min_value=1, max_value=511).map(lambda n: 2 * n + 1)
VERTEX_SETS = st.sets(ODD_VERTEX, min_size=2, max_size=7)


def cover_and_forest(vertices, max_shift, depth_limit=None, beta=0.5):
    graph = build_colored_graph(sorted(vertices), max_shift)
    sets = {c: graph.color_set(c) for c in graph.colors}
    costs = {c: float(graph.color_cost(c)) for c in graph.colors}
    cover = greedy_weighted_set_cover(set(vertices), sets, costs, beta=beta)
    forest = build_spanning_forest(graph, cover.colors, depth_limit)
    return graph, cover, forest


class TestTreeAssignment:
    def test_child_needs_parent(self):
        with pytest.raises(GraphError):
            TreeAssignment(vertex=5, kind="child", depth=1)

    def test_root_depth_must_be_zero(self):
        with pytest.raises(GraphError):
            TreeAssignment(vertex=5, kind="root", depth=1)

    def test_unknown_kind(self):
        with pytest.raises(GraphError):
            TreeAssignment(vertex=5, kind="branch", depth=0)


class TestForestValidation:
    def test_duplicate_vertex_rejected(self):
        a = TreeAssignment(vertex=5, kind="root", depth=0)
        with pytest.raises(GraphError):
            SpanningForest(assignments=(a, a))

    def test_unknown_parent_rejected(self):
        graph, cover, forest = cover_and_forest({3, 5, 11}, 3)
        child = next(a for a in forest.assignments if a.kind == "child")
        bogus = TreeAssignment(
            vertex=child.vertex, kind="child", depth=1,
            parent=999, edge=child.edge,
        )
        others = tuple(a for a in forest.assignments if a.vertex != child.vertex)
        with pytest.raises(GraphError):
            SpanningForest(assignments=others + (bogus,))


class TestForestConstruction:
    def test_depth_limit_validated(self):
        graph, cover, _ = cover_and_forest({3, 5, 11}, 3)
        with pytest.raises(GraphError):
            build_spanning_forest(graph, cover.colors, depth_limit=0)

    def test_all_vertices_assigned(self):
        graph, cover, forest = cover_and_forest({3, 5, 11, 23, 45}, 4)
        assigned = {a.vertex for a in forest.assignments}
        assert assigned == set(graph.vertices)

    def test_at_least_one_root_or_alias(self):
        graph, cover, forest = cover_and_forest({3, 5, 11}, 3)
        assert forest.roots or forest.aliases

    def test_alias_when_vertex_equals_color(self):
        """Paper step 6: a vertex equal to a solution color needs no parent."""
        graph, cover, forest = cover_and_forest({3, 5, 11, 13}, 4)
        for alias in forest.aliases:
            assert alias in cover.colors

    def test_children_use_solution_colors_only(self):
        graph, cover, forest = cover_and_forest({3, 5, 11, 23}, 4)
        solution = set(cover.colors)
        for child in forest.children:
            assert child.edge.color in solution

    def test_depth_limit_respected(self):
        graph, cover, forest = cover_and_forest({3, 5, 11, 23, 45, 91}, 4,
                                                depth_limit=1)
        assert forest.max_depth <= 1

    def test_tighter_depth_never_fewer_total_vertices(self):
        vertices = {3, 5, 11, 23, 45, 91, 179}
        _, _, loose = cover_and_forest(vertices, 4, depth_limit=None)
        _, _, tight = cover_and_forest(vertices, 4, depth_limit=1)
        assert len(tight.assignments) == len(loose.assignments)
        assert len(tight.roots) >= len(loose.roots)

    def test_topological_order_parents_first(self):
        graph, cover, forest = cover_and_forest({3, 5, 11, 23, 45}, 4)
        seen = set()
        for assignment in forest.topological_order():
            if assignment.kind == "child":
                assert assignment.parent in seen
            seen.add(assignment.vertex)

    def test_overhead_adders_counts_children(self):
        graph, cover, forest = cover_and_forest({3, 5, 11, 23}, 4)
        assert forest.overhead_adders == len(forest.children)

    def test_assignment_lookup(self):
        graph, cover, forest = cover_and_forest({3, 5, 11}, 3)
        a = forest.assignment(5)
        assert a.vertex == 5
        with pytest.raises(KeyError):
            forest.assignment(9999)


class TestForestProperties:
    @given(VERTEX_SETS, st.integers(min_value=1, max_value=5),
           st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_forest_invariants(self, vertices, max_shift, depth_limit):
        graph, cover, forest = cover_and_forest(vertices, max_shift, depth_limit)
        assigned = {a.vertex for a in forest.assignments}
        assert assigned == set(vertices)
        if depth_limit is not None:
            assert forest.max_depth <= depth_limit
        # Reconstruction identity holds for every child (via ColorEdge).
        for child in forest.children:
            e = child.edge
            assert (
                e.src_sign * (e.src << e.shift)
                + e.color_sign * (e.color << e.color_shift)
                == child.vertex
            )

    @given(VERTEX_SETS)
    @settings(max_examples=25, deadline=None)
    def test_roots_aliases_children_partition(self, vertices):
        _, _, forest = cover_and_forest(vertices, 3)
        roots = set(forest.roots)
        aliases = set(forest.aliases)
        children = {c.vertex for c in forest.children}
        assert roots | aliases | children == set(vertices)
        assert not roots & aliases
        assert not roots & children
        assert not aliases & children


def reference_forest(graph, colors, depth_limit):
    """The forest builder that asks the graph for each vertex's in-edges at
    every BFS level (the builder keeps one list per vertex instead)."""
    colors = set(colors)
    limit = depth_limit if depth_limit is not None else len(graph.vertices) + 1
    assignments = {
        v: TreeAssignment(vertex=v, kind="alias", depth=0)
        for v in sorted(graph.vertices) if v in colors
    }
    unassigned = set(graph.vertices) - set(assignments)
    while unassigned:
        while True:
            candidates = {}
            for vertex in unassigned:
                best = None
                for edge in graph.edges_into(vertex, colors):
                    parent = assignments.get(edge.src)
                    if parent is None or parent.depth + 1 > limit:
                        continue
                    rank = (parent.depth + 1, edge.weight, edge.shift,
                            edge.color_shift, edge.src)
                    if best is None or rank < best[0]:
                        best = (rank, edge)
                if best is not None:
                    candidates[vertex] = best
            if not candidates:
                break
            depth = min(rank[0] for rank, _ in candidates.values())
            for vertex, (rank, edge) in sorted(candidates.items()):
                if rank[0] == depth:
                    assignments[vertex] = TreeAssignment(
                        vertex=vertex, kind="child", depth=depth,
                        parent=edge.src, edge=edge,
                    )
                    unassigned.discard(vertex)
        if unassigned:
            root = _choose_root(graph, colors, unassigned)
            assignments[root] = TreeAssignment(vertex=root, kind="root", depth=0)
            unassigned.discard(root)
    return SpanningForest(tuple(assignments[v] for v in sorted(assignments)))


class TestForestOracle:
    def test_suite_covers_match_reference(self):
        """Every distinct β-sweep cover of the 96 suite points, unbounded
        and at Table 1's depth 3."""
        checked = 0
        for index in range(12):
            designed = benchmark_filter(index)
            for wordlength in (8, 12, 16, 20):
                for scheme in ScalingScheme:
                    integers = quantize(designed.folded, wordlength, scheme).integers
                    vertices, _ = normalize_taps(integers)
                    if len(vertices) < 2:
                        continue
                    graph = build_colored_graph(vertices, wordlength)
                    covers = {
                        optimize(integers, wordlength, MrpOptions(beta=beta),
                                 graph=graph).solution_colors
                        for beta in BETA_SWEEP
                    }
                    for colors in sorted(covers):
                        for depth_limit in (None, 3):
                            assert build_spanning_forest(
                                graph, colors, depth_limit
                            ) == reference_forest(graph, colors, depth_limit)
                            checked += 1
        assert checked >= 400
