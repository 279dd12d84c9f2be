"""Unit tests of the benchmark's percentile, window-rate, self-time,
span-join and tracing helpers."""

import json

import pytest

from perfbench import tracer as tracer_module
from perfbench.ledger import Span, join, percentile, self_times, spans_of, window_rates
from perfbench.tracer import Tracer, load


def span(name, start, end, sid, parent=None, rid=None, pid=1):
    return Span(name, start, end, sid, parent, rid, None, None, pid)


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 50) is None

    def test_interpolates_between_ranks(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        assert percentile([10, 0, 20], 50) == 10
        assert percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)

    def test_extremes_are_min_and_max(self):
        values = [7.0, 3.0, 9.0, 1.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_infinite_failure_sorts_last(self):
        assert percentile([1.0, float("inf"), 2.0], 50) == 2.0


class TestWindowRates:
    def test_windows_close_once_long_enough_and_hold_the_gaps(self):
        calls = [(0.0, 0.1, 10), (0.2, 0.1, 10), (0.3, 0.1, 5), (0.4, 0.2, 6)]
        # The first window ends with the second call (0.3 s, gap included),
        # the second with the last call (0.4 s).
        assert window_rates(calls, 0.25) == pytest.approx([20 / 0.3, 11 / 0.3])

    def test_a_short_tail_joins_the_last_window(self):
        assert window_rates([(0.0, 0.3, 9), (0.3, 0.1, 4)], 0.25) == pytest.approx([32.5])

    def test_a_phase_shorter_than_a_window_is_one_window(self):
        assert window_rates([(0.0, 0.05, 2), (0.05, 0.05, 3)], 0.25) == pytest.approx([50.0])

    def test_calls_without_decisions_count_as_time(self):
        calls = [(0.0, 0.1, 4), (0.1, 0.1, 0), (0.2, 0.2, 0)]
        assert window_rates(calls, 0.25) == pytest.approx([10.0])


class TestSelfTimes:
    def test_children_are_subtracted(self):
        spans = [
            span("parent", 0, 100, 1),
            span("child", 10, 30, 2, parent=1),
            span("child", 50, 60, 3, parent=1),
        ]
        assert self_times(spans)[(1, 1)] == 70
        assert self_times(spans)[(1, 2)] == 20

    def test_overlapping_children_count_once(self):
        spans = [
            span("parent", 0, 100, 1),
            span("a", 10, 50, 2, parent=1),
            span("b", 40, 70, 3, parent=1),
        ]
        assert self_times(spans)[(1, 1)] == 40

    def test_children_are_clipped_to_the_parent(self):
        spans = [span("parent", 0, 100, 1), span("late", 90, 150, 2, parent=1)]
        assert self_times(spans)[(1, 1)] == 90

    def test_grandchildren_belong_to_their_own_parent(self):
        spans = [
            span("top", 0, 100, 1),
            span("mid", 0, 60, 2, parent=1),
            span("leaf", 0, 50, 3, parent=2),
        ]
        times = self_times(spans)
        assert (times[(1, 1)], times[(1, 2)], times[(1, 3)]) == (40, 10, 50)

    def test_same_span_ids_in_two_processes_stay_apart(self):
        spans = [
            span("parent", 0, 100, 1, pid=1),
            span("child", 0, 100, 2, parent=1, pid=2),
        ]
        assert self_times(spans)[(1, 1)] == 100


class TestJoin:
    def test_pairs_by_request_id_across_processes(self):
        client = [span("call", 0, 100, 1, rid=("decide", "t", 1), pid=1),
                  span("call", 100, 200, 2, rid=("decide", "t", 2), pid=1)]
        server = [span("req", 10, 90, 7, rid=("decide", "t", 2), pid=2)]
        pairs = join(client, server)
        assert [(c.sid, s.sid) for c, s in pairs] == [(2, 7)]

    def test_spans_without_request_id_are_ignored(self):
        assert join([span("a", 0, 1, 1)], [span("b", 0, 1, 2)]) == []

    def test_longest_span_stands_for_a_retried_request(self):
        rid = ("decide", "t", 3)
        left = [span("call", 0, 100, 1, rid=rid)]
        right = [span("fwd", 0, 10, 2, rid=rid, pid=2),
                 span("fwd", 20, 80, 3, rid=rid, pid=2)]
        assert join(left, right)[0][1].sid == 3


class _Target:
    def work(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2


class _Child(_Target):
    pass


class TestTracer:
    def test_nested_spans_link_and_share_request_ids(self, tmp_path):
        tracer = Tracer(tmp_path, "test")
        tracer.patch(f"{__name__}:_Target.work",
                     lambda f: tracer.span(f, "outer"))
        tracer.patch(f"{__name__}:_Target.inner",
                     lambda f: tracer.span(f, "inner", rid=lambda a, k: ["req", a[1]]))
        try:
            assert _Target().work(3) == 7
        finally:
            tracer.uninstall()
        path = tracer.dump()
        spans = {s.name: s for s in spans_of(json.loads(path.read_text()))}
        assert spans["inner"].parent == spans["outer"].sid
        assert spans["outer"].rid == spans["inner"].rid == ("req", 3)
        assert spans["outer"].start <= spans["inner"].start <= spans["inner"].end <= spans["outer"].end

    def test_tally_counts_outermost_calls_and_charges_the_span(self, tmp_path):
        tracer = Tracer(tmp_path, "test")
        tracer.patch(f"{__name__}:_Target.work",
                     lambda f: tracer.span(f, "outer"))
        tracer.patch(f"{__name__}:_Target.inner",
                     lambda f: tracer.tally(f, "codec", size=lambda a, r: r))
        try:
            _Target().work(5)
            _Target().inner(1)
        finally:
            tracer.uninstall()
        count, elapsed, nbytes = tracer.tallies["codec"]
        assert (count, nbytes) == (2, 12)
        assert elapsed > 0
        outer = [s for s in tracer.spans if s.name == "outer"][0]
        assert outer.counts == {"codec": [1, 10]}

    def test_inherited_method_is_wrapped_and_restored(self, tmp_path):
        tracer = Tracer(tmp_path, "test")
        assert tracer.patch(f"{__name__}:_Child.inner", lambda f: tracer.span(f, "x"))
        assert "inner" in vars(_Child)
        _Target().inner(1)
        _Child().inner(1)
        tracer.uninstall()
        assert "inner" not in vars(_Child)
        assert [s.name for s in tracer.spans] == ["x"]

    def test_missing_target_is_recorded_absent(self, tmp_path):
        tracer = Tracer(tmp_path, "test")
        assert not tracer.patch(f"{__name__}:_Target.gone", lambda f: f)
        assert not tracer.patch("no_such_module_here:thing", lambda f: f)
        assert tracer.absent == [f"{__name__}:_Target.gone", "no_such_module_here:thing"]

    def test_load_keeps_the_latest_dump_per_process(self, tmp_path):
        tracer = Tracer(tmp_path, "role-with-dash")
        tracer.dump()
        tracer.spans.append(tracer_module._Span("late", 99, None, None))
        tracer.spans[-1].start, tracer.spans[-1].end = 1, 2
        tracer.dump()
        documents = load(tmp_path)
        assert len(documents) == 1
        assert [entry[0] for entry in documents[0]["spans"]] == ["late"]
