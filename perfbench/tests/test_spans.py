import pytest

from perfbench.spans import Span, Tracer, percentile, samples_beyond, self_times


def _span(id, start, end, parent=None, name="x"):
    return Span(id, name, start, end, parent, 0, None)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps span 1: covered once
        _span(3, 2.5, 4.0, parent=2),  # grandchild: only its parent's self time shrinks
        _span(4, 9.0, 12.0, parent=0),  # runs past its parent: clipped to 9..10
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(3.0 - 1.5)
    assert st[3] == pytest.approx(1.5)
    assert st[4] == pytest.approx(3.0)


def test_self_times_of_a_tree_sum_to_the_root_duration():
    spans = [
        _span(0, 0.0, 8.0),
        _span(1, 0.5, 2.0, parent=0),
        _span(2, 1.0, 1.5, parent=1),
        _span(3, 3.0, 7.0, parent=0),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(8.0)


def test_tracer_records_nesting_instance_and_errors():
    tr = Tracer(True)
    tr.instance = 7
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with pytest.raises(ValueError):
            with tr.span("failing"):
                raise ValueError("boom")
    by_name = {s.name: s for s in tr.spans}
    outer = by_name["outer"]
    assert outer.parent is None
    assert by_name["inner"].parent == outer.id
    assert by_name["failing"].parent == outer.id
    assert by_name["failing"].error == "ValueError"
    assert by_name["inner"].error is None
    assert {s.instance for s in tr.spans} == {7}
    assert len({s.id for s in tr.spans}) == 3


def test_disabled_tracer_records_nothing():
    tr = Tracer(False)
    with tr.span("a"):
        tr.add("n", 3)
    assert tr.spans == [] and dict(tr.counters) == {}


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.0
    assert percentile([5.0], 90) == 5.0
    assert percentile(list(range(1, 11)), 91) == 10


def test_samples_beyond_the_percentile():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(150, 90) == 15


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
