"""Seeded input draws for the three workloads.

The suite's twelve filters have distinct unique-tap counts (8 to 40).  The
draws stratify by that count: adjacent filters in tap order form pairs.
Every seed gives the same amount of work, so the end-to-end metrics agree
across seeds: the sweep's picks inside each pair are balanced on total
taps, the robust draw is a fixed balanced half of the grid in seeded order, and the
service mix submits every distinct spec in seeded order.

This module reads no program code; tap counts are listed here so the draw
can be made before the program is imported.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: Unique (folded) tap count of each suite filter, by 0-based index.
UNIQUE_TAPS: Tuple[int, ...] = (8, 13, 21, 17, 23, 27, 31, 29, 25, 26, 40, 36)

#: The paper's coefficient wordlengths.
WORDLENGTHS: Tuple[int, ...] = (8, 12, 16, 20)
SCALINGS: Tuple[str, ...] = ("uniform", "maximal")

_TAP_ORDER = sorted(range(len(UNIQUE_TAPS)), key=UNIQUE_TAPS.__getitem__)

#: Tap-count strata: the suite in tap order, cut into adjacent pairs
#: (8|13, 17|21, 23|25, 26|27, 29|31, 36|40 unique taps).
PAIRS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(_TAP_ORDER[i:i + 2]) for i in range(0, len(_TAP_ORDER), 2)
)

#: The sweep's small, mid and large strata (8|13, 17|21, 26|27 taps).  The
#: full twelve-filter grid takes minutes cold; the filters above 27 taps
#: take 15-35 s each, so the sweep stops at the 26|27 pair.
SWEEP_PAIRS: Tuple[Tuple[int, ...], ...] = (PAIRS[0], PAIRS[1], PAIRS[3])

#: Small and mid filters (8 to 21 unique taps) the service jobs draw from.
SERVICE_FILTERS: Tuple[int, ...] = tuple(
    i for pair in PAIRS[:2] for i in pair
)

SERVICE_EXPERIMENTS: Tuple[str, ...] = (
    "fig6", "fig7", "fig8a", "fig8b", "summary", "table1",
)

#: Share of service requests that resubmit an already completed spec.
RESUBMIT_SHARE = 0.25


def sweep_filters(seed: int) -> Tuple[int, ...]:
    """One filter per tap-count stratum, sorted by index.

    The seed picks the lower or the upper member of the first and last
    pair and the opposite member of the middle pair, so both possible
    draws hold nearly the same total of unique taps.
    """
    flip = random.Random(f"sweep:{seed}").randrange(2)
    picks = [
        pair[flip if position != 1 else 1 - flip]
        for position, pair in enumerate(SWEEP_PAIRS)
    ]
    return tuple(sorted(picks))


def robust_points(seed: int) -> List[Tuple[int, int, str]]:
    """48 design points ``(filter, wordlength, scaling)`` in seeded order.

    Half of the filter x W x scaling grid, stratified by tap count: inside
    each pair the two members alternate over the W x scaling grid like the
    squares of a checkerboard.  Every pair covers each (W, scaling) cell
    once, and each filter gets every W once and each scaling twice.

    The half is fixed and the seed sets the order.  Letting the seed pick
    the half (the checkerboard's orientation per pair) was not steady: a
    few points exhaust the node budget and take 2-6 s where the median
    point takes 0.2 s, and which of them a draw held moved the adder total
    by 6% and the time per design point by 30% from seed to seed.
    """
    points = [
        (member, wordlength, scaling)
        for pair in PAIRS
        for m_index, member in enumerate(pair)
        for w_index, wordlength in enumerate(WORDLENGTHS)
        for s_index, scaling in enumerate(SCALINGS)
        if (m_index + w_index + s_index) % 2 == 0
    ]
    random.Random(f"robust:{seed}").shuffle(points)
    return points


def service_specs() -> List[Dict[str, object]]:
    """Every distinct job spec: one experiment, one filter, one or two W."""
    width_sets = [[w] for w in WORDLENGTHS] + [
        [a, b] for i, a in enumerate(WORDLENGTHS) for b in WORDLENGTHS[i + 1:]
    ]
    return [
        {"experiments": [experiment], "filters": [index], "wordlengths": ws}
        for experiment in SERVICE_EXPERIMENTS
        for index in SERVICE_FILTERS
        for ws in width_sets
    ]


def service_mix(seed: int) -> List[Tuple[str, int]]:
    """The request sequence as ``(kind, spec index)``.

    Every distinct spec is submitted once as a new job, in seeded order.
    A seeded quarter of the requests resubmit a spec submitted at least a
    few requests earlier (the idempotent read path).
    """
    rng = random.Random(f"service:{seed}")
    order = list(range(len(service_specs())))
    rng.shuffle(order)
    mix: List[Tuple[str, int]] = []
    submitted: List[int] = []
    for index in order:
        while submitted[:-8] and rng.random() < RESUBMIT_SHARE:
            mix.append(("read", rng.choice(submitted[:-8])))
        mix.append(("new", index))
        submitted.append(index)
    return mix
