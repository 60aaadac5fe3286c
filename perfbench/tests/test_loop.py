import time

from perfbench.run import end_to_end_metrics, layer_metrics, run_probes, run_rounds
from perfbench.spans import Tracer


class Refusal(Exception):
    pass


class Flaky:
    """Instance i: refused when i % 5 == 1, crashes when i % 5 == 2, answers
    wrongly when i % 5 == 3, passes otherwise.  The probes are refused."""

    batch = 10

    def prepare(self, i):
        return i

    def run(self, i, tr):
        with tr.span("lattices.pushforward"):
            if i % 5 == 1:
                raise Refusal("over the point cap")
        if i % 5 == 2:
            raise OverflowError("math range error")
        return i

    def judge(self, i, out):
        return [["check", True, 0.0, ""]], ("wrong" if i % 5 == 3 else None)

    def probes(self):
        return [1, 6, 11]


def test_failures_are_counted_and_never_stop_the_loop():
    digest = []
    res = run_rounds(Flaky(), 0.0, Tracer(False), digest, min_rounds=3)
    assert res.attempted == 30 and res.rounds == 3
    assert [row["i"] for row in digest] == list(range(10))
    assert res.errors["Refusal"] == 6
    assert res.errors["OverflowError"] == 6
    assert res.mismatched == 2  # only the first round is judged
    assert res.failed == 14
    assert res.failed_instances == {1, 2, 3, 6, 7, 8}
    assert res.passed == 4
    for row in digest:
        if row["i"] % 5 in (1, 2):
            assert row["error"] and row["answers"] == []
        else:
            assert row["error"] is None and row["answers"]
        assert row["best_ms"] >= 0.0


def test_rounds_run_until_the_deadline():
    res = run_rounds(Flaky(), 0.05, Tracer(False))
    assert res.rounds > 1 and res.wall_s >= 0.05


class Slow:
    """The first attempt at each instance sleeps 20 ms, later ones 1 ms."""

    batch = 4

    def __init__(self):
        self.seen = set()

    def prepare(self, i):
        return i

    def run(self, i, tr):
        time.sleep(0.001 if i in self.seen else 0.02)
        self.seen.add(i)
        return i

    def judge(self, i, out):
        return [], None


def test_each_instance_counts_at_its_fastest_attempt():
    res = run_rounds(Slow(), 0.0, Tracer(False), min_rounds=2)
    assert all(0.001 <= t < 0.015 for t in res.best_s)
    m = end_to_end_metrics(res, setup_s=0.25)
    assert m["setup_s"] == (0.25, "s")
    assert m["instances_per_s"][0] == 4 / sum(res.best_s)
    assert m["instance_ms_p50"][0] <= m["instance_ms_p90"][0] < 15.0


def test_layer_metrics_count_refusals_in_rounds_and_probes():
    untraced = run_rounds(Flaky(), 0.0, Tracer(False))
    tracer, probes = Tracer(True), Tracer(True)
    traced = run_rounds(Flaky(), 0.0, tracer, min_rounds=2)
    rows = run_probes(Flaky(), probes)
    assert [row["error"] is not None for row in rows] == [True, True, True]
    m = layer_metrics(tracer, traced, untraced, probes)
    assert m["lattices.pushforward.calls"][0] == 20
    assert m["lattices.refused"][0] == 4 + 3
    assert m["lattices.refused_frac"][0] == 1.0
    assert m["checks.pairs"][0] == 0 and m["checks.ns_per_pair"][0] == 0.0
    assert 0.0 <= m["bench.uncovered_s"][0] <= traced.wall_s
