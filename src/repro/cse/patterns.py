"""Pattern mining for common subexpression elimination.

A constant's signed-digit string is a sum of *terms* ``sign * 2**pos *
symbol`` where symbol 0 is the filter input and higher symbols are previously
extracted subexpressions.  A **pattern** is an ordered pair of symbols at a
relative shift with a relative sign — e.g. the classic CSD pattern ``101``
is ``(sym0, sym0, delta=2, +1)`` — and an **occurrence** is a concrete pair
of terms inside one constant matching the pattern.

Patterns are canonicalized with a leading ``+`` so ``x - (y << d)`` and
``-x + (y << d)`` count as the same shared hardware (the sign is free wiring
at the use site).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["Term", "Pattern", "Occurrence", "find_pattern_occurrences", "count_frequencies"]

INPUT_SYMBOL = 0


@dataclass(frozen=True)
class Term:
    """One addend of a constant: ``sign * (symbol_value << pos)``."""

    pos: int
    sign: int
    symbol: int = INPUT_SYMBOL


@dataclass(frozen=True)
class Pattern:
    """A canonical two-term subexpression: ``a + rel_sign * (b << delta)``.

    ``sym_a``/``sym_b`` identify the operand symbols; ``delta >= 0`` is the
    shift of the second operand relative to the first.  By canonicalization
    the first operand always carries ``+``.
    """

    sym_a: int
    sym_b: int
    delta: int
    rel_sign: int

    def value(self, symbol_values: Dict[int, int]) -> int:
        """Integer multiple of x this pattern computes."""
        return symbol_values[self.sym_a] + self.rel_sign * (
            symbol_values[self.sym_b] << self.delta
        )


@dataclass(frozen=True)
class Occurrence:
    """A concrete pattern match: which two term indices of one constant."""

    constant_index: int
    term_a: int
    term_b: int
    pos: int
    sign: int


#: A pattern inside the extraction loop: ``(sym_a, sym_b, delta, rel_sign)``.
Key = Tuple[int, int, int, int]
#: An occurrence inside one constant: ``(term_a, term_b, pos, sign)``.
Match = Tuple[int, int, int, int]

_UNSEEN = object()


def mine_constant(
    terms: Sequence[Term],
    values: Dict[Key, Optional[int]],
    symbol_values: Dict[int, int],
) -> Dict[Key, List[Match]]:
    """Every useful pattern's occurrences inside one constant's term list.

    Terms are paired in ``(pos, symbol)`` order, so each pair is canonical:
    the occurrence keeps the lower term's position and sign, and the
    pattern only the relative sign.
    Useless patterns are skipped: those whose value is zero, or a pure
    power of two times a single existing symbol (that is wiring, not an
    adder worth sharing).  ``values`` caches each key's value, ``None`` for
    a useless one; it is filled here and may be shared between calls over
    the same ``symbol_values``.  Occurrences overlap freely here —
    :func:`first_fit` picks the non-overlapping ones.
    """
    order = sorted(range(len(terms)), key=lambda i: (terms[i].pos, terms[i].symbol))
    found: Dict[Key, List[Match]] = {}
    for at, index_a in enumerate(order):
        first = terms[index_a]
        pos, sign, symbol = first.pos, first.sign, first.symbol
        for index_b in order[at + 1:]:
            second = terms[index_b]
            key = (symbol, second.symbol, second.pos - pos, sign * second.sign)
            value = values.get(key, _UNSEEN)
            if value is _UNSEEN:
                value = values[key] = _useful_value(key, symbol_values)
            if value is None:
                continue
            found.setdefault(key, []).append((index_a, index_b, pos, sign))
    return found


def _useful_value(key: Key, symbol_values: Dict[int, int]) -> Optional[int]:
    """The pattern's value, or ``None`` when it is zero or trivial."""
    sym_a, sym_b, delta, rel_sign = key
    value = symbol_values[sym_a] + rel_sign * (symbol_values[sym_b] << delta)
    magnitude = abs(value)
    if magnitude == 0 or any(
        is_shifted(magnitude, abs(v)) for v in symbol_values.values()
    ):
        return None
    return value


def is_shifted(magnitude: int, base: int) -> bool:
    """True if ``magnitude`` is ``base << k`` for some ``k >= 0``."""
    if base == 0 or magnitude % base:
        return False
    ratio = magnitude // base
    return ratio & (ratio - 1) == 0


def first_fit(matches: List[Match]) -> List[Match]:
    """The occurrences a left-to-right sweep keeps inside one constant.

    Two occurrences sharing a term cannot both be rewritten; sweeping in
    ``(term_a, term_b)`` order gives the usable frequency (optimal for
    interval-style conflicts in practice and deterministic, which matters
    more here).
    """
    if len(matches) == 1:
        return matches
    taken: Set[int] = set()
    kept: List[Match] = []
    for match in sorted(matches):
        term_a, term_b = match[0], match[1]
        if term_a in taken or term_b in taken:
            continue
        taken.add(term_a)
        taken.add(term_b)
        kept.append(match)
    return kept


def find_pattern_occurrences(
    constants: Sequence[Sequence[Term]],
    symbol_values: Dict[int, int],
) -> Dict[Pattern, List[Occurrence]]:
    """Enumerate every candidate pattern and its occurrences over all constants.

    The patterns come in order of first occurrence, each with its
    occurrences in constant order (see :func:`mine_constant`).
    """
    values: Dict[Key, Optional[int]] = {}
    found: Dict[Pattern, List[Occurrence]] = {}
    for const_index, terms in enumerate(constants):
        for key, matches in mine_constant(terms, values, symbol_values).items():
            found.setdefault(Pattern(*key), []).extend(
                Occurrence(const_index, *match) for match in matches
            )
    return found


def count_frequencies(
    occurrences: Dict[Pattern, List[Occurrence]],
) -> Dict[Pattern, int]:
    """Max non-overlapping occurrence count per pattern.

    Occurrences conflict only inside one constant, so a pattern's frequency
    is the sum of its per-constant :func:`first_fit` counts.
    """
    frequencies: Dict[Pattern, int] = {}
    for pattern, occs in occurrences.items():
        per_constant: Dict[int, List[Match]] = {}
        for occ in occs:
            per_constant.setdefault(occ.constant_index, []).append(
                (occ.term_a, occ.term_b, occ.pos, occ.sign)
            )
        frequencies[pattern] = sum(
            len(first_fit(matches)) for matches in per_constant.values()
        )
    return frequencies
