"""Tests for the deterministic fault-injection harness."""

import pytest

from repro.errors import SourceError, XMLTransportError
from repro.resilience import (
    Fault,
    FaultInjectingWrapper,
    FaultSchedule,
    VirtualClock,
)
from repro.sources import Column, RelStore, Wrapper


def make_wrapper(name="LAB"):
    store = RelStore(name)
    store.create_table(
        "samples", [Column("id", "int"), Column("value", "float")], key="id"
    ).insert_many(
        [
            {"id": 1, "value": 1.5},
            {"id": 2, "value": 2.5},
            {"id": 3, "value": 3.5},
        ]
    )
    wrapper = Wrapper(name, store)
    wrapper.export_class(
        "sample", "samples", "id", methods={"sid": "id", "value": "value"}
    )
    return wrapper


def sample_query():
    from repro.sources.wrapper import SourceQuery

    return SourceQuery("sample", {}, None)


class TestFaultSchedule:
    def test_add_and_lookup(self):
        schedule = FaultSchedule().add("S", 2, Fault("error"))
        assert schedule.faults_for("S", 1) == []
        assert [f.kind for f in schedule.faults_for("S", 2)] == ["error"]

    def test_kill_fails_everything_after(self):
        schedule = FaultSchedule().kill("S", after=1)
        assert schedule.faults_for("S", 1) == []
        assert [f.kind for f in schedule.faults_for("S", 2)] == ["error"]
        assert [f.kind for f in schedule.faults_for("S", 99)] == ["error"]

    def test_from_seed_is_deterministic(self):
        kwargs = dict(sources=["A", "B"], calls=40, rate=0.3)
        a = FaultSchedule.from_seed(7, **kwargs)
        b = FaultSchedule.from_seed(7, **kwargs)
        c = FaultSchedule.from_seed(8, **kwargs)
        assert a.describe() == b.describe()
        assert a.describe() != c.describe()
        assert a.describe()  # seed 7 at rate 0.3 faults something

    def test_from_seed_bounds_consecutive_faults(self):
        schedule = FaultSchedule.from_seed(
            3, ["S"], calls=200, rate=0.9, max_consecutive=2
        )
        streak = longest = 0
        for call in range(1, 201):
            if schedule.faults_for("S", call):
                streak += 1
                longest = max(longest, streak)
            else:
                streak = 0
        assert longest <= 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("meteor-strike")


class TestFaultInjectingWrapper:
    def test_clean_calls_pass_through(self):
        facade = FaultInjectingWrapper(make_wrapper(), FaultSchedule())
        rows = facade.query(sample_query())
        assert len(rows) == 3
        assert facade.injected == []

    def test_error_fault_raises_source_error(self):
        schedule = FaultSchedule().add("LAB", 1, Fault("error"))
        facade = FaultInjectingWrapper(make_wrapper(), schedule)
        with pytest.raises(SourceError):
            facade.query(sample_query())
        # the next call (a retry) is clean
        assert len(facade.query(sample_query())) == 3
        assert facade.injected_counts() == {"error": 1}

    def test_transport_fault_raises_transport_error(self):
        schedule = FaultSchedule().add("LAB", 1, Fault("transport"))
        facade = FaultInjectingWrapper(make_wrapper(), schedule)
        with pytest.raises(XMLTransportError):
            facade.query(sample_query())

    def test_latency_fault_advances_the_clock(self):
        clock = VirtualClock()
        schedule = FaultSchedule().add(
            "LAB", 1, Fault("latency", latency=2.5)
        )
        facade = FaultInjectingWrapper(make_wrapper(), schedule, clock=clock)
        rows = facade.query(sample_query())
        assert len(rows) == 3  # latency does not fail the call
        assert clock.now() == pytest.approx(2.5)

    def test_truncate_fault_drops_trailing_rows(self):
        schedule = FaultSchedule().add("LAB", 1, Fault("truncate", drop=2))
        facade = FaultInjectingWrapper(make_wrapper(), schedule)
        assert len(facade.query(sample_query())) == 1

    def test_malformed_in_direct_mode_raises(self):
        schedule = FaultSchedule().add("LAB", 1, Fault("malformed"))
        facade = FaultInjectingWrapper(make_wrapper(), schedule)
        with pytest.raises(XMLTransportError):
            facade.query(sample_query())

    def test_control_plane_is_not_faulted(self):
        # schema export and capabilities delegate untouched even under
        # a kill-everything schedule
        schedule = FaultSchedule().kill("LAB")
        facade = FaultInjectingWrapper(make_wrapper(), schedule)
        assert "sample" in facade.capabilities()
        assert facade.schema_cm() is not None
        assert facade.calls == 0


class TestMalformedXmlMode:
    def run_xml(self, variant):
        from repro.xmlio.messages import (
            handle_request,
            query_to_xml,
            rows_from_xml,
        )

        schedule = FaultSchedule().add(
            "LAB", 1, Fault("malformed", variant=variant)
        )
        facade = FaultInjectingWrapper(
            make_wrapper(), schedule, mode="xml"
        )
        answer = handle_request(facade, query_to_xml(sample_query()))
        return rows_from_xml(answer)

    @pytest.mark.parametrize(
        "variant", ["truncated-doc", "wrong-root", "bad-count"]
    )
    def test_each_variant_is_caught_by_the_codec(self, variant):
        # every corruption mode must surface as XMLTransportError —
        # never ExpatError / KeyError / silent bad data
        with pytest.raises(XMLTransportError):
            self.run_xml(variant)

    def test_clean_xml_round_trips(self):
        from repro.xmlio.messages import (
            handle_request,
            query_to_xml,
            rows_from_xml,
        )

        facade = FaultInjectingWrapper(
            make_wrapper(), FaultSchedule(), mode="xml"
        )
        answer = handle_request(facade, query_to_xml(sample_query()))
        class_name, rows = rows_from_xml(answer)
        assert class_name == "sample"
        assert len(rows) == 3
