"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.filters import benchmark_filter
from repro.quantize import ScalingScheme, quantize

# Hypothesis profiles: "ci" (the default) is fully derandomized — a fixed
# seed per test — so tier-1 results are reproducible run to run and across
# the CI matrix; switch with HYPOTHESIS_PROFILE=dev for fresh randomness
# when hunting for new counterexamples locally.
settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.register_profile("dev", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

# The paper's §3.5 running example: asymmetric 8-tap filter.
PAPER_EXAMPLE = (7, 66, 17, 9, 27, 41, 56, 11)

VERIFY_SAMPLES = (1, -1, 2, 255, -256, 1023, -777, 12345, -54321, 0, 0, 99)

#: Every field a :class:`repro.graph.CoverIndex` fills for the greedy.
COVER_INDEX_FIELDS = (
    "universe", "colors", "cost_of", "count", "weight", "sole", "multi_of",
    "buckets", "singles_of", "sizes", "missing",
)


def assert_index_matches_mapping_build(graph, strategy, plain=None):
    """``graph.cover_index(strategy)`` equals the mapping constructor's index.

    The oracle is built over plain dict copies of the graph's cover inputs
    (``plain``, when the caller has made them) with the same element
    weights, so it shares nothing with the graph.
    """
    from repro.graph import CoverIndex

    index = graph.cover_index(strategy)
    if plain is None:
        sets, costs = graph.cover_inputs()
        plain = (dict(sets.items()), dict(costs.items()))
    oracle = CoverIndex(set(graph.vertices), *plain, index.element_weights)
    for field in COVER_INDEX_FIELDS:
        assert getattr(index, field) == getattr(oracle, field), field
    return index


@pytest.fixture(scope="session")
def paper_coefficients():
    return list(PAPER_EXAMPLE)


@pytest.fixture(scope="session")
def small_filter():
    """The smallest benchmark filter (fast to synthesize)."""
    return benchmark_filter(0)


@pytest.fixture(scope="session")
def medium_filter():
    """A mid-size band-stop benchmark filter."""
    return benchmark_filter(4)


@pytest.fixture(scope="session")
def small_quantized_uniform(small_filter):
    return quantize(small_filter.folded, 12, ScalingScheme.UNIFORM)


@pytest.fixture(scope="session")
def small_quantized_maximal(small_filter):
    return quantize(small_filter.folded, 12, ScalingScheme.MAXIMAL)


@pytest.fixture(scope="session")
def verify_samples():
    return list(VERIFY_SAMPLES)
