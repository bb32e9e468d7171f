"""Unit tests for the medtrace core: spans, metrics, renderers."""

import json

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _no_leftover_tracer():
    yield
    obs.uninstall()


class TestNoopDefault:
    def test_default_is_disabled(self):
        assert obs.active() is obs.NOOP
        assert not obs.active().enabled

    def test_noop_span_is_inert_and_shared(self):
        span = obs.span("anything", attr=1)
        assert span is obs.NOOP_SPAN
        with span as entered:
            entered.set(more=2)
        assert not span.enabled

    def test_noop_helpers_do_nothing(self):
        obs.event("e", a=1)
        obs.count("c", 5)
        assert obs.active() is obs.NOOP


class TestInstallUninstall:
    def test_install_and_uninstall(self):
        tracer = obs.install()
        assert obs.active() is tracer
        assert obs.active().enabled
        returned = obs.uninstall()
        assert returned is tracer
        assert obs.active() is obs.NOOP

    def test_capture_restores_previous(self):
        outer = obs.install(obs.Tracer("outer"))
        with obs.capture("inner") as inner:
            assert obs.active() is inner
        assert obs.active() is outer
        obs.uninstall()
        assert obs.active() is obs.NOOP


class TestSpans:
    def test_nesting_and_attrs(self):
        with obs.capture() as tracer:
            with obs.span("parent", a=1) as parent:
                with obs.span("child", b=2):
                    obs.event("tick", n=3)
                parent.set(done=True)
        assert [root.name for root in tracer.roots] == ["parent"]
        parent = tracer.roots[0]
        assert parent.attrs == {"a": 1, "done": True}
        assert [c.name for c in parent.children] == ["child"]
        child = parent.children[0]
        assert child.attrs == {"b": 2}
        assert [e.name for e in child.events] == ["tick"]
        assert child.events[0].attrs == {"n": 3}

    def test_durations_measured(self):
        with obs.capture() as tracer:
            with obs.span("timed"):
                pass
        duration = tracer.roots[0].duration()
        assert duration is not None and duration >= 0

    def test_exception_is_recorded_and_span_closed(self):
        with obs.capture() as tracer:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("no")
        span = tracer.roots[0]
        assert span.duration() is not None
        assert span.attrs["error"] == "ValueError"
        assert tracer.current is obs.NOOP_SPAN

    def test_find_spans_depth_first(self):
        with obs.capture() as tracer:
            with obs.span("a"):
                with obs.span("x", which=1):
                    pass
            with obs.span("x", which=2):
                pass
        assert [s.attrs["which"] for s in tracer.find_spans("x")] == [1, 2]


class TestMetrics:
    def test_counters_and_gauges(self):
        metrics = obs.Metrics()
        metrics.count("hits")
        metrics.count("hits", 2)
        metrics.count("hits", 1, source="A")
        metrics.gauge("size", 10)
        metrics.gauge("size", 20)
        assert metrics.counter_value("hits") == 3
        assert metrics.counter_value("hits", source="A") == 1
        assert metrics.counter_total("hits") == 4
        assert metrics.as_dict()["gauges"] == [
            {"name": "size", "labels": {}, "value": 20}
        ]

    def test_merge(self):
        a, b = obs.Metrics(), obs.Metrics()
        a.count("n", 1)
        b.count("n", 2)
        b.gauge("g", 5)
        a.merge(b)
        assert a.counter_value("n") == 3
        assert a.as_dict()["gauges"] == [{"name": "g", "labels": {}, "value": 5}]

    def test_as_dict_is_sorted_and_json_ready(self):
        metrics = obs.Metrics()
        metrics.count("b")
        metrics.count("a", 2, k="v")
        exported = metrics.as_dict()
        names = [row["name"] for row in exported["counters"]]
        assert names == sorted(names)
        json.dumps(exported)  # must not raise


class TestRenderers:
    def _sample_tracer(self):
        with obs.capture("sample") as tracer:
            with obs.span("outer", n=1):
                with obs.span("inner", label="two words"):
                    obs.event("skip", source="S")
            obs.count("things", 3)
            tracer.gauge("level", 0.5)
        return tracer

    def test_tree_masks_timings_deterministically(self):
        tracer = self._sample_tracer()
        text = obs.render_tree(tracer, mask_timings=True)
        assert text == obs.render_tree(tracer, mask_timings=True)
        assert "outer" in text and "inner" in text
        assert "'two words'" in text
        assert "! skip" in text
        assert "things = 3" in text
        assert "ms" not in text.split("counters:")[0]

    def test_unmasked_tree_shows_milliseconds(self):
        tracer = self._sample_tracer()
        assert "ms" in obs.render_tree(tracer)

    def test_json_document_shape(self):
        tracer = self._sample_tracer()
        document = json.loads(obs.to_json(tracer))
        assert document["trace"] == "sample"
        (outer,) = document["spans"]
        assert outer["name"] == "outer"
        assert outer["duration_ms"] >= 0
        (inner,) = outer["children"]
        assert inner["events"][0]["name"] == "skip"
        counter_names = {c["name"] for c in document["metrics"]["counters"]}
        assert counter_names == {"things"}

    def test_json_masked_timings_are_null(self):
        tracer = self._sample_tracer()
        document = json.loads(obs.to_json(tracer, mask_timings=True))
        assert document["spans"][0]["duration_ms"] is None


class TestEvaluationMetrics:
    def test_strata_and_totals(self):
        metrics = obs.EvaluationMetrics()
        s0 = metrics.begin_stratum(0, ["p/1"])
        s0.rounds.extend([5, 2])
        s0.facts_derived = 7
        s1 = metrics.begin_stratum(1)
        s1.rounds.append(1)
        s1.facts_derived = 1
        assert metrics.facts_derived == 8
        assert [s.rounds for s in metrics.strata] == [[5, 2], [1]]
        assert metrics.strata[0].relations == ["p/1"]
