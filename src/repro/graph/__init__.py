"""Graph machinery: SIDC colored multigraph, greedy WMSC, spanning forests."""

from .colored import ColorEdge, ColoredGraph, build_colored_graph
from .exact_cover import exact_weighted_set_cover, prune_dominated_sets
from .setcover import (
    CoverIndex,
    CoverSolution,
    CoverStep,
    benefit,
    greedy_weighted_set_cover,
)
from .spanning import SpanningForest, TreeAssignment, build_spanning_forest

__all__ = [
    "ColorEdge",
    "ColoredGraph",
    "CoverIndex",
    "CoverSolution",
    "CoverStep",
    "SpanningForest",
    "TreeAssignment",
    "benefit",
    "build_colored_graph",
    "build_spanning_forest",
    "exact_weighted_set_cover",
    "prune_dominated_sets",
    "greedy_weighted_set_cover",
]
