"""Unit + property tests for CSE pattern mining and Hartley elimination."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ShiftAddNetlist
from repro.core.sidc import normalize_taps
from repro.cse import (
    INPUT_SYMBOL,
    CseNetwork,
    Occurrence,
    Pattern,
    Term,
    build_cse_refs,
    choose_encodings,
    count_frequencies,
    cse_adder_count,
    eliminate,
    eliminate_from_terms,
    find_pattern_occurrences,
)
from repro.errors import SynthesisError
from repro.filters import benchmark_filter
from repro.numrep import Representation, adder_cost, encode
from repro.quantize import ScalingScheme, quantize

NONZERO = st.integers(min_value=-(2**14), max_value=2**14).filter(lambda n: n != 0)
CONSTS = st.lists(NONZERO, min_size=1, max_size=10)
#: Constants each encoded in its own representation, as an MSD search may mix.
MIXED = st.lists(
    st.tuples(NONZERO, st.sampled_from(list(Representation))),
    min_size=1, max_size=10,
)


class TestPatternModel:
    def test_pattern_value(self):
        p = Pattern(sym_a=0, sym_b=0, delta=2, rel_sign=1)  # 1 + 4 = 5
        assert p.value({0: 1}) == 5

    def test_pattern_value_subtract(self):
        p = Pattern(sym_a=0, sym_b=0, delta=2, rel_sign=-1)  # 1 - 4 = -3
        assert p.value({0: 1}) == -3

    def test_occurrence_enumeration(self):
        # constant 5 = 101: one (0,0,2,+) occurrence
        terms = [[Term(pos=0, sign=1), Term(pos=2, sign=1)]]
        occs = find_pattern_occurrences(terms, {0: 1})
        patterns = list(occs)
        assert Pattern(0, 0, 2, 1) in patterns

    def test_trivial_patterns_skipped(self):
        # x + x = 2x is wiring, not a shareable adder
        terms = [[Term(pos=0, sign=1), Term(pos=1, sign=1)],
                 [Term(pos=0, sign=1), Term(pos=1, sign=-1)]]
        occs = find_pattern_occurrences(terms, {0: 1})
        for pattern in occs:
            value = pattern.value({0: 1})
            assert abs(value) not in (1, 2, 4)

    def test_frequency_counts_non_overlapping(self):
        # 0b10101: digits at 0,2,4 -> pattern (delta=2) occurs twice but
        # the middle digit can only participate once.
        terms = [[Term(pos=0, sign=1), Term(pos=2, sign=1), Term(pos=4, sign=1)]]
        occs = find_pattern_occurrences(terms, {0: 1})
        freq = count_frequencies(occs)
        assert freq[Pattern(0, 0, 2, 1)] == 1

    def test_frequency_across_constants(self):
        terms = [
            [Term(pos=0, sign=1), Term(pos=2, sign=1)],
            [Term(pos=1, sign=1), Term(pos=3, sign=1)],  # shifted copy
        ]
        occs = find_pattern_occurrences(terms, {0: 1})
        freq = count_frequencies(occs)
        assert freq[Pattern(0, 0, 2, 1)] == 2


class TestEliminate:
    def test_zero_rejected(self):
        with pytest.raises(SynthesisError):
            eliminate([5, 0])

    def test_shared_pattern_extracted(self):
        # 45 = CSD 101̄01̄? actually 45 and 165 share "101" structure in binary SM.
        network = eliminate([0b101, 0b10100], Representation.SM)
        assert len(network.subexpressions) >= 1
        network.validate()

    def test_adder_count_never_worse_than_plain(self):
        constants = [45, 89, 173, 205]
        plain = sum(adder_cost(c) for c in constants)
        assert cse_adder_count(constants) <= plain

    def test_known_sharing_win(self):
        """Two constants that are shifts of a common 2-digit pattern."""
        network = eliminate([5, 20, 325], Representation.SM)
        # 5 = 101, 20 = 10100, 325 = 101000101: 'x + x<<2' is everywhere.
        assert network.adder_count < sum(
            adder_cost(c, Representation.SM) for c in (5, 20, 325)
        )

    def test_max_rounds_limits_extraction(self):
        full = eliminate([5, 20, 325, 85], Representation.SM)
        limited = eliminate([5, 20, 325, 85], Representation.SM, max_rounds=0)
        assert len(limited.subexpressions) == 0
        assert len(full.subexpressions) >= 1

    @given(CONSTS, st.sampled_from(list(Representation)))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_exact(self, constants, rep):
        network = eliminate(constants, rep)
        network.validate()
        for i, c in enumerate(constants):
            assert network.reconstruct(i) == c

    @given(CONSTS)
    @settings(max_examples=60, deadline=None)
    def test_never_more_adders_than_plain_chains(self, constants):
        plain = sum(adder_cost(c) for c in constants)
        network = eliminate(constants)
        assert network.adder_count <= plain


class TestMaterialization:
    @given(CONSTS, st.sampled_from(list(Representation)))
    @settings(max_examples=60, deadline=None)
    def test_refs_carry_exact_constants(self, constants, rep):
        network = eliminate(constants, rep)
        nl = ShiftAddNetlist()
        refs = build_cse_refs(nl, network)
        for c, ref in zip(constants, refs):
            assert nl.ref_value(ref) == c
        nl.validate()

    @given(CONSTS)
    @settings(max_examples=40, deadline=None)
    def test_materialized_adders_at_most_counted(self, constants):
        """Netlist fundamental reuse can only improve on the CSE count."""
        network = eliminate(constants)
        nl = ShiftAddNetlist()
        build_cse_refs(nl, network)
        assert nl.adder_count <= network.adder_count


class TestCseAdderCountHelper:
    def test_deduplicates_odd_parts(self):
        # 5, 10, -20 are one odd fundamental
        assert cse_adder_count([5, 10, -20]) == cse_adder_count([5])

    def test_empty_after_filtering(self):
        assert cse_adder_count([0, 1, 2, 64]) == 0


# -- the per-round reference loop ---------------------------------------------
#
# Every round re-enumerates every term pair of every constant, counts each
# pattern's non-overlapping occurrences, extracts the best one and rewrites
# the constants holding it.  The incremental loop of ``eliminate_from_terms``
# must reproduce it exactly: the same network and the same rewritten terms.


def reference_occurrences(constants, symbol_values):
    found = {}
    for const_index, terms in enumerate(constants):
        ordered = sorted(
            range(len(terms)), key=lambda i: (terms[i].pos, terms[i].symbol)
        )
        for ai in range(len(ordered)):
            for bi in range(ai + 1, len(ordered)):
                first, second = terms[ordered[ai]], terms[ordered[bi]]
                pattern = Pattern(
                    sym_a=first.symbol, sym_b=second.symbol,
                    delta=second.pos - first.pos,
                    rel_sign=first.sign * second.sign,
                )
                value = pattern.value(symbol_values)
                if value == 0 or reference_trivial(value, symbol_values):
                    continue
                found.setdefault(pattern, []).append(Occurrence(
                    constant_index=const_index, term_a=ordered[ai],
                    term_b=ordered[bi], pos=first.pos, sign=first.sign,
                ))
    return found


def reference_trivial(value, symbol_values):
    magnitude = abs(value)
    for symbol_value in symbol_values.values():
        base = abs(symbol_value)
        if base and magnitude % base == 0:
            ratio = magnitude // base
            if ratio & (ratio - 1) == 0:
                return True
    return False


def reference_first_fit(occs):
    used, kept = {}, []
    for occ in sorted(occs, key=lambda o: (o.constant_index, o.term_a, o.term_b)):
        taken = used.setdefault(occ.constant_index, set())
        if occ.term_a in taken or occ.term_b in taken:
            continue
        taken.update((occ.term_a, occ.term_b))
        kept.append(occ)
    return kept


def reference_frequencies(occurrences):
    return {p: len(reference_first_fit(occs)) for p, occs in occurrences.items()}


def reference_select(frequencies, symbol_values):
    best, best_rank = None, None
    for pattern, frequency in frequencies.items():
        if frequency < 2:
            continue
        rank = (
            frequency,
            -abs(pattern.value(symbol_values)),
            (-pattern.sym_a, -pattern.sym_b, -pattern.delta, pattern.rel_sign),
        )
        if best is None or rank > best_rank:
            best, best_rank = pattern, rank
    return best


def reference_rewrite(terms, occurrences, symbol):
    replacements = {}
    for occ in reference_first_fit(occurrences):
        replacements.setdefault(occ.constant_index, []).append(occ)
    for constant_index, occs in replacements.items():
        removed = {i for occ in occs for i in (occ.term_a, occ.term_b)}
        kept = [t for i, t in enumerate(terms[constant_index]) if i not in removed]
        terms[constant_index] = kept + [
            Term(pos=occ.pos, sign=occ.sign, symbol=symbol) for occ in occs
        ]


def reference_eliminate(constants, terms, max_rounds=None):
    symbol_values = {INPUT_SYMBOL: 1}
    subexpressions = {}
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        rounds += 1
        occurrences = reference_occurrences(terms, symbol_values)
        best = reference_select(
            reference_frequencies(occurrences), symbol_values
        )
        if best is None:
            break
        symbol = len(symbol_values)
        symbol_values[symbol] = best.value(symbol_values)
        subexpressions[symbol] = best
        reference_rewrite(terms, occurrences[best], symbol)
    return CseNetwork(
        constants=tuple(constants),
        subexpressions=subexpressions,
        symbol_values=symbol_values,
        constant_terms=tuple(tuple(t) for t in terms),
    )


def digit_terms(constants, representation=Representation.CSD):
    return [
        [Term(pos=pos, sign=sign) for pos, sign in encode(c, representation).terms]
        for c in constants
    ]


def assert_matches_reference(constants, terms, max_rounds=None):
    """The incremental loop's network and rewritten terms equal the reference's."""
    got_terms = [list(t) for t in terms]
    want_terms = [list(t) for t in terms]
    got = eliminate_from_terms(constants, got_terms, max_rounds)
    want = reference_eliminate(constants, want_terms, max_rounds)
    assert got.constants == want.constants
    assert list(got.subexpressions.items()) == list(want.subexpressions.items())
    assert list(got.symbol_values.items()) == list(want.symbol_values.items())
    assert got.constant_terms == want.constant_terms
    assert got_terms == want_terms
    return got


def suite_vertex_sets():
    for index in range(12):
        designed = benchmark_filter(index)
        for wordlength in (8, 12, 16, 20):
            for scheme in ScalingScheme:
                integers = quantize(designed.folded, wordlength, scheme).integers
                vertices, _ = normalize_taps(integers)
                if vertices:
                    yield vertices


class TestIncrementalOracle:
    @given(CONSTS, st.sampled_from(list(Representation)),
           st.sampled_from([None, 0, 1, 3]))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, constants, rep, max_rounds):
        assert_matches_reference(constants, digit_terms(constants, rep), max_rounds)

    @given(MIXED, st.sampled_from([None, 1, 3]))
    @settings(max_examples=150, deadline=None)
    def test_mixed_encodings_match_reference(self, pairs, max_rounds):
        constants = [c for c, _ in pairs]
        terms = [digit_terms([c], rep)[0] for c, rep in pairs]
        assert_matches_reference(constants, terms, max_rounds)

    def test_pattern_made_trivial_in_an_untouched_constant(self):
        """107 = 1101011 (SM) holds x + 2x twice, so 3 is extracted first.
        93 in CSD holds x - 4x = -3x twice but is not rewritten; that
        pattern is now wiring of the new symbol and must not be extracted."""
        terms = [digit_terms([93])[0], digit_terms([107], Representation.SM)[0]]
        network = assert_matches_reference([93, 107], terms)
        assert list(network.symbol_values.values()) == [1, 3, -31]

    @given(CONSTS, st.sampled_from([None, 1, 3]))
    @settings(max_examples=60, deadline=None)
    def test_msd_term_lists_match_reference(self, constants, max_rounds):
        terms = [
            [Term(pos=pos, sign=sign) for pos, sign in encoding.terms]
            for encoding in choose_encodings(constants)
        ]
        assert_matches_reference(constants, terms, max_rounds)

    def test_suite_vertex_sets_match_reference(self):
        points = 0
        for vertices in suite_vertex_sets():
            assert_matches_reference(vertices, digit_terms(vertices))
            points += 1
        assert points >= 90

    @given(CONSTS, st.sampled_from(list(Representation)))
    @settings(max_examples=60, deadline=None)
    def test_public_miner_matches_reference(self, constants, rep):
        terms = digit_terms(constants, rep)
        network = eliminate(constants, rep, max_rounds=1)
        symbol_values = dict(network.symbol_values)
        rewritten = [list(t) for t in network.constant_terms]
        for term_lists in (terms, rewritten):
            want = reference_occurrences(term_lists, symbol_values)
            got = find_pattern_occurrences(term_lists, symbol_values)
            assert list(got.items()) == list(want.items())
            assert count_frequencies(got) == reference_frequencies(want)
