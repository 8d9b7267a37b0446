"""Iterative common subexpression elimination over signed-digit constants.

This is the paper's CSE comparator and SEED-network compressor: Hartley's
subexpression sharing on CSD digit strings (TCAS-II 1996), generalized in the
usual way so previously extracted subexpressions can themselves participate in
later patterns (Pasko et al.; Park & Kang).

The algorithm repeatedly extracts the pattern with the highest usable
(non-overlapping) frequency — every extraction with frequency ``f`` trades
``f`` adders for 1, saving ``f - 1`` — until no pattern occurs twice.  The
result is an explicit :class:`CseNetwork` that can be counted, inspected, or
materialized into a :class:`~repro.arch.netlist.ShiftAddNetlist`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..arch.netlist import ShiftAddNetlist
from ..arch.nodes import Ref
from ..errors import SynthesisError
from ..numrep import Representation, encode, odd_normalize
from .patterns import (
    INPUT_SYMBOL,
    Key,
    Match,
    Pattern,
    Term,
    first_fit,
    is_shifted,
    mine_constant,
)

__all__ = ["CseNetwork", "eliminate", "eliminate_from_terms", "cse_adder_count", "build_cse_refs"]


@dataclass(frozen=True)
class CseNetwork:
    """Result of CSE over a constant list.

    ``subexpressions`` maps each extracted symbol id (>= 1) to its defining
    pattern; ``symbol_values`` gives every symbol's integer value (symbol 0 is
    the input, value 1); ``constant_terms[i]`` is the residual term list whose
    sum reconstructs ``constants[i]``.
    """

    constants: Tuple[int, ...]
    subexpressions: Dict[int, Pattern]
    symbol_values: Dict[int, int]
    constant_terms: Tuple[Tuple[Term, ...], ...]

    @property
    def adder_count(self) -> int:
        """Total adders: one per subexpression + (terms - 1) per constant."""
        residual = sum(
            max(0, len(terms) - 1) for terms in self.constant_terms
        )
        return len(self.subexpressions) + residual

    def reconstruct(self, index: int) -> int:
        """Value of constant ``index`` recomputed from its terms (self-check)."""
        total = 0
        for term in self.constant_terms[index]:
            total += term.sign * (self.symbol_values[term.symbol] << term.pos)
        return total

    def validate(self) -> None:
        """Verify every constant reconstructs exactly."""
        for index, constant in enumerate(self.constants):
            got = self.reconstruct(index)
            if got != constant:
                raise SynthesisError(
                    f"CSE network reconstructs {got} for constant {constant}"
                )


def eliminate(
    constants: Sequence[int],
    representation: Representation = Representation.CSD,
    max_rounds: Optional[int] = None,
) -> CseNetwork:
    """Run iterative CSE over ``constants``.

    Zero constants are rejected (callers filter them); repeated constants are
    fine — their digit strings coincide, so every pattern in one counts in
    the other too (though exact duplicates should normally be deduplicated by
    the caller for an honest adder count).
    """
    constants = tuple(int(c) for c in constants)
    if any(c == 0 for c in constants):
        raise SynthesisError("CSE input must not contain zeros")

    terms: List[List[Term]] = []
    for constant in constants:
        digit_terms = [
            Term(pos=pos, sign=sign, symbol=INPUT_SYMBOL)
            for pos, sign in encode(constant, representation).terms
        ]
        terms.append(digit_terms)
    return eliminate_from_terms(constants, terms, max_rounds)


def eliminate_from_terms(
    constants: Sequence[int],
    terms: List[List[Term]],
    max_rounds: Optional[int] = None,
) -> CseNetwork:
    """Run the iterative extraction on caller-supplied initial term lists.

    Used by :mod:`repro.cse.msd_search`, which picks a non-canonical minimal
    signed-digit encoding per constant before extraction.  Each term list
    must sum to its constant (validated by the returned network); the
    lists are rewritten in place.

    The extraction is incremental.  Each constant's patterns are mined once,
    and a pattern's frequency is the sum of its per-constant counts.  An
    extraction rewrites only the constants holding the chosen pattern, so
    only those are mined again.  Every other constant keeps its terms and so
    its occurrences; it only loses the patterns the new symbol makes trivial
    (a pattern never stops being trivial, since symbols are only added).
    """
    constants = tuple(int(c) for c in constants)
    symbol_values: Dict[int, int] = {INPUT_SYMBOL: 1}
    subexpressions: Dict[int, Pattern] = {}
    # Value of every pattern seen (None: useless); a live pattern's value
    # is kept current, a pattern that leaves the live set is forgotten.
    values: Dict[Key, Optional[int]] = {}
    mined = [_mine(t, values, symbol_values) for t in terms]
    totals: Dict[Key, int] = {}
    for found in mined:
        _add_counts(totals, found)
    rounds = 0
    while max_rounds is None or rounds < max_rounds:
        rounds += 1
        best = _select_pattern(totals, values)
        if best is None:
            break
        symbol = len(symbol_values)
        symbol_values[symbol] = values[best]
        subexpressions[symbol] = Pattern(*best)
        hits = [(i, found[best][0]) for i, found in enumerate(mined) if best in found]
        base = abs(symbol_values[symbol])
        for key in [k for k in totals if is_shifted(abs(values[k]), base)]:
            values[key] = None
            del totals[key]
            for found in mined:
                found.pop(key, None)
        for index, matches in hits:
            terms[index] = _rewrite(terms[index], matches, symbol)
            _drop_counts(totals, values, mined[index])
            mined[index] = _mine(terms[index], values, symbol_values)
            _add_counts(totals, mined[index])

    return CseNetwork(
        constants=constants,
        subexpressions=subexpressions,
        symbol_values=symbol_values,
        constant_terms=tuple(tuple(t) for t in terms),
    )


Mined = Dict[Key, Tuple[List[Match], int]]


def _mine(
    terms: List[Term], values: Dict[Key, Optional[int]], symbol_values: Dict[int, int]
) -> Mined:
    """One constant's patterns: occurrences and non-overlapping count."""
    found = mine_constant(terms, values, symbol_values)
    return {key: (matches, len(first_fit(matches))) for key, matches in found.items()}


def _add_counts(totals: Dict[Key, int], found: Mined) -> None:
    for key, (_, count) in found.items():
        totals[key] = totals.get(key, 0) + count


def _drop_counts(
    totals: Dict[Key, int], values: Dict[Key, Optional[int]], found: Mined
) -> None:
    """Take one constant's counts out; forget patterns that no longer occur."""
    for key, (_, count) in found.items():
        left = totals[key] - count
        if left:
            totals[key] = left
        else:
            del totals[key]
            del values[key]


def _select_pattern(
    frequencies: Dict[Key, int], values: Dict[Key, Optional[int]]
) -> Optional[Key]:
    """Most frequent pattern (needs >= 2), deterministic tie-breaking.

    Ties prefer the pattern with the smaller absolute value (cheaper wiring
    growth), then the lexicographically smallest definition.  The rank is a
    total order over distinct patterns, so the winner does not depend on
    the order of ``frequencies``.
    """
    best: Optional[Key] = None
    best_rank: Tuple[int, int, Tuple] = (0, 0, ())
    for key, frequency in frequencies.items():
        if frequency < 2:
            continue
        sym_a, sym_b, delta, rel_sign = key
        rank = (frequency, -abs(values[key]), (-sym_a, -sym_b, -delta, rel_sign))
        if best is None or rank > best_rank:
            best, best_rank = key, rank
    return best


def _rewrite(terms: List[Term], matches: List[Match], symbol: int) -> List[Term]:
    """One constant's terms with the non-overlapping ``matches`` replaced.

    The untouched terms keep their order; the new symbol's terms follow,
    one per replaced occurrence in :func:`first_fit` order.
    """
    chosen = first_fit(matches)
    removed = {index for match in chosen for index in match[:2]}
    kept = [t for i, t in enumerate(terms) if i not in removed]
    return kept + [Term(pos=pos, sign=sign, symbol=symbol) for _, _, pos, sign in chosen]


def cse_adder_count(
    constants: Sequence[int],
    representation: Representation = Representation.CSD,
) -> int:
    """Convenience: adders after CSE over the (deduplicated) odd constants."""
    unique = sorted({abs(odd_normalize(abs(int(c)))[0]) for c in constants if c} - {1})
    if not unique:
        return 0
    network = eliminate(unique, representation)
    network.validate()
    return network.adder_count


def build_cse_refs(
    netlist: ShiftAddNetlist,
    network: CseNetwork,
) -> List[Ref]:
    """Materialize a CSE network into ``netlist``; return one ref per constant.

    Subexpression symbols become adder nodes (in extraction order, so operand
    symbols always exist); each constant becomes a left-to-right chain over
    its residual terms.  Single-term constants are pure wiring.
    """
    network.validate()
    symbol_refs: Dict[int, Ref] = {INPUT_SYMBOL: netlist.input}
    for symbol in sorted(network.subexpressions):
        pattern = network.subexpressions[symbol]
        a = symbol_refs[pattern.sym_a]
        b = symbol_refs[pattern.sym_b]
        ref = netlist.add(
            a,
            Ref(node=b.node, shift=b.shift + pattern.delta,
                sign=b.sign * pattern.rel_sign),
            label=f"cse_s{symbol}",
        )
        symbol_refs[symbol] = ref

    constant_refs: List[Ref] = []
    for index, terms in enumerate(network.constant_terms):
        ordered = sorted(terms, key=lambda t: (t.pos, t.symbol, t.sign))
        if not ordered:
            raise SynthesisError("constant with no terms cannot be materialized")
        acc = _term_ref(symbol_refs, ordered[0])
        for term in ordered[1:]:
            acc = netlist.add(acc, _term_ref(symbol_refs, term),
                              label=f"cse_c{index}")
        if netlist.ref_value(acc) != network.constants[index]:
            raise SynthesisError(
                f"CSE materialization of {network.constants[index]} "
                f"produced {netlist.ref_value(acc)}"
            )
        constant_refs.append(acc)
    return constant_refs


def _term_ref(symbol_refs: Dict[int, Ref], term: Term) -> Ref:
    base = symbol_refs[term.symbol]
    return Ref(node=base.node, shift=base.shift + term.pos, sign=base.sign * term.sign)
