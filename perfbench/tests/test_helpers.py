"""Tests of the benchmark's own helpers (no program code is exercised).

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

from collections import Counter

import pytest

from perfbench import draws, stats
from perfbench.spans import Span, attribute, layer_totals, self_intervals


# -- the tail-percentile rule ------------------------------------------------


def test_tail_needs_ten_samples_beyond_the_percentile():
    values = list(range(1, 101))  # 100 samples
    value, percentile, n = stats.tail(values)
    assert (percentile, n) == (90.0, 100)
    assert value == 90  # nearest rank; exactly ten samples lie beyond it
    assert sum(v > value for v in values) == 10


def test_tail_moves_up_as_samples_grow():
    assert stats.tail(list(range(200)))[1] == 95.0
    assert stats.tail(list(range(1000)))[1] == 99.0
    assert stats.tail(list(range(10000)))[1] == 99.9
    assert stats.tail(list(range(40)))[1] == 75.0
    assert stats.tail(list(range(39)))[1] == 50.0


def test_tail_of_a_small_sample_is_its_maximum():
    value, percentile, n = stats.tail([3.0, 1.0, 2.0])
    assert (value, percentile, n) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        stats.tail([])


# -- host-speed scaling -------------------------------------------------------


def host_log(tmp_path, samples):
    path = tmp_path / "host.log"
    path.write_text("".join(f"{at!r} {cost!r}\n" for at, cost in samples)
                    + "12.5")  # a half-written last line is skipped
    return stats.HostLog(path).refresh()


def test_host_factor_is_the_window_median_over_the_reference(tmp_path):
    ref = stats.REFERENCE_CALIBRATION_S
    log = host_log(tmp_path, [(t / 10, ref * (2 if t >= 50 else 1))
                              for t in range(100)])
    assert log.factor(0.0, 4.0) == 1.0
    assert log.factor(6.0, 9.0) == 2.0
    assert log.scale(6.0, 3.0) == 1.5


def test_short_timings_use_the_minimum_window(tmp_path):
    ref = stats.REFERENCE_CALIBRATION_S
    step = stats.MIN_WINDOW_S / 10
    # One slow sample inside the timing, fast ones around it.
    log = host_log(tmp_path, [(t * step, ref * (3 if t == 20 else 1))
                              for t in range(40)])
    assert log.factor(20 * step - 0.001, 20 * step + 0.001) == 1.0
    with pytest.raises(RuntimeError):
        log.factor(100 * step, 101 * step)


# -- hypervisor steal ----------------------------------------------------------


def test_steal_is_read_from_the_aggregate_cpu_line(tmp_path):
    stat = tmp_path / "stat"
    # user nice system idle iowait irq softirq steal guest guest_nice
    stat.write_text("cpu  60 0 20 100 5 0 5 10 7 0\ncpu0 1 2 3 4 5 6 7 8 9 0\n")
    assert stats.steal_ticks(str(stat)) == (10, 200)
    assert stats.steal_ticks(str(tmp_path / "missing")) == (0, 0)
    stat.write_text("cpu  60 0 20 100\n")  # no steal column
    assert stats.steal_ticks(str(stat)) == (0, 0)


def test_steal_share():
    assert stats.steal_share((10, 200), (30, 600)) == 0.05
    assert stats.steal_share((10, 200), (10, 200)) == 0.0


def test_quiet_rounds_are_the_least_stolen_under_the_threshold():
    assert stats.quiet_rounds([0.03, 0.0, 0.01, 0.0, 0.2], 3, 0.01) == [1, 2, 3]
    assert stats.quiet_rounds([0.0, 0.0], 3, 0.01) == [0, 1]
    assert stats.quiet_rounds([0.0, 0.02, 0.005], 3, 0.01) == [0, 2]


def test_without_a_quiet_round_only_the_least_stolen_counts():
    assert stats.quiet_rounds([0.05, 0.03, 0.2, 0.03], 3, 0.01) == [1]


# -- self time from nested spans ---------------------------------------------


def span(id, parent, layer, start, end, thread=1):
    return Span(id, parent, layer, start, end, thread)


def test_self_time_subtracts_children():
    spans = [
        span(1, None, "outer", 0.0, 10.0),
        span(2, 1, "inner", 2.0, 5.0),
        span(3, 2, "leaf", 3.0, 4.0),
        span(4, 1, "inner", 6.0, 7.0),
    ]
    pieces = self_intervals(spans)
    assert pieces[1] == [(0.0, 2.0), (5.0, 6.0), (7.0, 10.0)]
    assert pieces[2] == [(2.0, 3.0), (4.0, 5.0)]
    self_s, unattributed = attribute(spans, -1.0, 12.0)
    assert self_s == pytest.approx({"outer": 6.0, "inner": 3.0, "leaf": 1.0})
    assert unattributed == pytest.approx(3.0)
    assert sum(self_s.values()) + unattributed == pytest.approx(13.0)


def test_overlapping_threads_share_the_wall_time():
    spans = [
        span(1, None, "client", 0.0, 4.0, thread=1),
        span(2, None, "store", 2.0, 6.0, thread=2),
    ]
    self_s, unattributed = attribute(spans, 0.0, 8.0)
    assert self_s == pytest.approx({"client": 3.0, "store": 3.0})
    assert unattributed == pytest.approx(2.0)


def test_busy_time_does_not_count_a_layer_inside_itself():
    spans = [
        span(1, None, "store", 0.0, 4.0),
        span(2, 1, "store", 1.0, 2.0),
        span(3, 1, "wal", 2.0, 3.0),
    ]
    totals = layer_totals(spans)
    assert totals["store"]["calls"] == 2
    assert totals["store"]["busy_s"] == pytest.approx(4.0)
    assert totals["wal"]["busy_s"] == pytest.approx(1.0)


# -- the seeded draws ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_same_seed_same_draw(seed):
    assert draws.sweep_filters(seed) == draws.sweep_filters(seed)
    assert draws.robust_points(seed) == draws.robust_points(seed)
    assert draws.service_mix(seed) == draws.service_mix(seed)


def test_draws_vary_with_the_seed():
    assert len({draws.sweep_filters(s) for s in range(20)}) == 2
    assert len({tuple(draws.robust_points(s)) for s in range(20)}) == 20
    assert draws.service_mix(1) != draws.service_mix(2)


def test_pairs_are_adjacent_in_tap_count():
    taps = [[draws.UNIQUE_TAPS[i] for i in pair] for pair in draws.PAIRS]
    flat = [t for pair in taps for t in pair]
    assert flat == sorted(draws.UNIQUE_TAPS)


@pytest.mark.parametrize("seed", range(8))
def test_sweep_draw_is_one_filter_per_stratum_balanced_in_taps(seed):
    picks = draws.sweep_filters(seed)
    for pair in draws.SWEEP_PAIRS:
        assert len(set(pair) & set(picks)) == 1
    totals = {
        sum(draws.UNIQUE_TAPS[i] for i in draws.sweep_filters(s))
        for s in range(20)
    }
    assert max(totals) - min(totals) <= 2


@pytest.mark.parametrize("seed", range(8))
def test_robust_draw_is_stratified_by_tap_count(seed):
    points = draws.robust_points(seed)
    assert len(points) == 48 == len(set(points))
    per_pair = Counter(
        next(k for k, pair in enumerate(draws.PAIRS) if f in pair)
        for f, _, _ in points
    )
    assert set(per_pair.values()) == {8}
    for pair in draws.PAIRS:
        cells = [(w, s) for f, w, s in points if f in pair]
        assert len(set(cells)) == 8  # each (W, scaling) cell once per pair
    for f in range(len(draws.UNIQUE_TAPS)):
        mine = [(w, s) for g, w, s in points if g == f]
        assert sorted(w for w, _ in mine) == list(draws.WORDLENGTHS)
        assert Counter(s for _, s in mine) == {"uniform": 2, "maximal": 2}
    assert sorted(points) == sorted(draws.robust_points(seed + 1))


def test_service_mix_submits_every_spec_once_then_reads():
    specs = draws.service_specs()
    mix = draws.service_mix(3)
    new = [i for kind, i in mix if kind == "new"]
    assert sorted(new) == list(range(len(specs)))
    position = {i: p for p, (kind, i) in enumerate(mix) if kind == "new"}
    for p, (kind, i) in enumerate(mix):
        if kind == "read":
            assert position[i] < p
    share = sum(kind == "read" for kind, _ in mix) / len(mix)
    assert 0.15 < share < 0.35
