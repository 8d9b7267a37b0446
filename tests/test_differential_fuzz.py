"""Differential fuzzing: every synthesis path vs exact convolution.

For random coefficient vectors AND random input stimuli, the synthesized MRP
architecture simulated through the cycle-accurate TDF model must match
``golden_convolution`` bit for bit, and every baseline — hcub, mst_diff,
cse_filter, decor, bhm — must agree with direct convolution on the same
stimulus.  Unlike ``test_cross_method`` (fixed stimulus, no decor), the
stimulus here is adversarial too, so register-chain/latency bugs that a
fixed probe vector happens to miss get exercised.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.simulate import simulate_tdf_filter
from repro.baselines import (
    synthesize_bhm,
    synthesize_cse_filter,
    synthesize_decor,
    synthesize_hcub,
    synthesize_mst_diff,
)
from repro.core import synthesize_mrpf
from repro.eval import best_mrpf
from repro.verify import golden_convolution

WORDLENGTH = 11

COEFFS = st.lists(
    st.integers(min_value=-(2**10), max_value=2**10), min_size=1, max_size=10
).filter(lambda cs: any(cs))

STIMULUS = st.lists(
    st.integers(min_value=-(2**15), max_value=2**15), min_size=1, max_size=24
)


class TestMrpfAgainstExactConvolution:
    @given(COEFFS, STIMULUS)
    @settings(max_examples=40)
    def test_mrpf_tdf_matches_convolution(self, coeffs, samples):
        arch = synthesize_mrpf(coeffs, WORDLENGTH, verify=False)
        got = simulate_tdf_filter(arch.netlist, arch.tap_names, samples)
        assert got == golden_convolution(coeffs, samples)

    @given(COEFFS, STIMULUS)
    @settings(max_examples=15)
    def test_best_mrpf_matches_convolution(self, coeffs, samples):
        arch = best_mrpf(coeffs, WORDLENGTH)
        got = simulate_tdf_filter(arch.netlist, arch.tap_names, samples)
        assert got == golden_convolution(coeffs, samples)

    @given(COEFFS, STIMULUS)
    @settings(max_examples=15)
    def test_compressed_seeds_match_convolution(self, coeffs, samples):
        for compression in ("cse", "recursive"):
            arch = synthesize_mrpf(
                coeffs, WORDLENGTH, seed_compression=compression, verify=False
            )
            got = simulate_tdf_filter(arch.netlist, arch.tap_names, samples)
            assert got == golden_convolution(coeffs, samples)


class TestBaselinesAgainstExactConvolution:
    @given(COEFFS, STIMULUS)
    @settings(max_examples=30)
    def test_netlist_baselines_match_convolution(self, coeffs, samples):
        want = golden_convolution(coeffs, samples)
        baselines = [
            synthesize_hcub(coeffs),
            synthesize_mst_diff(coeffs, WORDLENGTH, verify=False),
            synthesize_cse_filter(coeffs),
            synthesize_bhm(coeffs),
        ]
        for arch in baselines:
            got = simulate_tdf_filter(arch.netlist, arch.tap_names, samples)
            assert got == want

    @given(COEFFS, STIMULUS)
    @settings(max_examples=30)
    def test_decor_matches_convolution(self, coeffs, samples):
        # DECOR's differenced-multiplier + integrator pipeline is not a plain
        # netlist filter, so it is compared through its own process() path.
        arch = synthesize_decor(coeffs, order=1)
        assert arch.process(samples) == golden_convolution(coeffs, samples)
