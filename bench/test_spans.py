"""Span nesting and self-time arithmetic of bench/spans.py.

Run from the repository root: python3 -m pytest -q bench/test_spans.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

from spans import LAYER_ROWS, Tracer, covered, layer_rows, self_times, totals  # noqa: E402


class FakeClock:
    """Advances by one tick per reading, so span times are exact integers."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_covered_merges_overlaps_and_gaps():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered([(5, 6), (0, 1)]) == 2.0


def test_nesting_and_self_time():
    tr = Tracer(clock=FakeClock())
    leaf = tr.span_wrapper("m.leaf", lambda: None)
    mid = tr.span_wrapper("m.mid", lambda: (leaf(), leaf()))
    top = tr.span_wrapper("m.top", lambda: (mid(), leaf()))
    top()
    names = [s[0] for s in tr.spans]
    parents = [s[3] for s in tr.spans]
    assert names == ["m.top", "m.mid", "m.leaf", "m.leaf", "m.leaf"]
    assert parents == [-1, 0, 1, 1, 0]
    # ticks: top 1..10, mid 2..7, leaves 3-4, 5-6 and 8-9
    assert [(s[1], s[2]) for s in tr.spans] == [(1, 10), (2, 7), (3, 4), (5, 6), (8, 9)]
    assert self_times(tr.spans) == [9 - 5 - 1, 5 - 2, 1, 1, 1]
    agg = totals(tr.spans)
    assert agg["m.leaf"]["calls"] == 3 and agg["m.leaf"]["self_s"] == 3
    assert sum(row["self_s"] for row in agg.values()) == 9  # self times add up to the root


def test_span_closes_when_the_call_raises():
    tr = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.span_wrapper("m.boom", boom)()
    assert tr.stack == [] and tr.spans[0][2] is not None


def test_counter_attributes_to_open_span():
    tr = Tracer(clock=FakeClock())
    tick = tr.count_wrapper("m.tick", lambda: None)
    tr.span_wrapper("m.outer", lambda: (tick(), tick()))()
    tick()
    assert tr.counts["m.tick"] == 3
    assert tr.spans[0][4] == {"m.tick": 2}


def test_install_rebinds_importers_and_uninstall_restores():
    import circlemaps
    from circlemaps import approx, blaschke, disk

    original = disk.as_disk
    tr = Tracer()
    tr.install()
    try:
        assert blaschke.as_disk is approx.as_disk is disk.as_disk is not original
        circlemaps.certify_quotient(circlemaps.identity_quotient())
        names = {s[0] for s in tr.spans}
        assert "certify.certify_quotient" in names and "disk.as_disk" not in names
        assert tr.counts["disk.as_disk"] >= 1
        rows, absent = layer_rows([tr.dump()], passes=1)
        assert set(rows) == {name for name, _ in LAYER_ROWS} and absent == []
        assert rows["certify.certify_quotient.calls"] == 1
    finally:
        tr.uninstall()
    assert blaschke.as_disk is original
    assert not hasattr(circlemaps.certify_quotient, "__wrapped__")


def test_missing_function_reports_absent_row():
    dump = {"spans": [], "counts": {}, "installed": ["disk.as_disk"]}
    rows, absent = layer_rows([dump], passes=1)
    assert "blaschke.power_sums.self_s" in absent and rows["blaschke.power_sums.self_s"] == 0.0
    assert "disk.as_disk.calls" not in absent
