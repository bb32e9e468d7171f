"""Tests for the registration protocol and the Mediator facade."""

import pytest

from repro.errors import MediatorError, RegistrationError, UnknownConceptError
from repro.core import (
    DistributionView,
    IntegratedView,
    Mediator,
    build_registration,
    parse_registration,
)
from repro.domainmap import DomainMap
from repro.neuro import build_scenario, section5_query
from repro.sources import AnchorSpec, Column, QueryTemplate, RelStore, Wrapper


def make_dm():
    dm = DomainMap("t")
    dm.add_axioms(
        """
        Organ < exists has.Tissue
        Tissue < exists has.Cell
        """
    )
    return dm


def make_wrapper(name="LAB", concept="Cell"):
    store = RelStore(name)
    table = store.create_table(
        "sample",
        [Column("id", "int"), Column("kind", "str"), Column("value", "float")],
        key="id",
    )
    table.insert_many(
        [
            {"id": 1, "kind": "cell body", "value": 2.0},
            {"id": 2, "kind": "cell body", "value": 3.0},
        ]
    )
    wrapper = Wrapper(name, store)
    wrapper.export_class(
        "sample",
        "sample",
        "id",
        methods={"kind": "kind", "value": "value"},
        anchor=AnchorSpec(column="kind", mapping={"cell body": concept}),
        selectable={"kind"},
    )
    wrapper.add_template(
        "sample",
        QueryTemplate("all_above", ["threshold"]),
        lambda store, threshold: store.select(
            "sample", predicate=lambda r: r["value"] > threshold
        ),
    )
    return wrapper


class TestRegistrationWire:
    def test_message_roundtrip(self):
        wrapper = make_wrapper()
        message = build_registration(wrapper, include_data=True)
        parsed = parse_registration(message)
        assert parsed.source == "LAB"
        assert parsed.cm.class_names() == ["sample"]
        assert ("sample", "Cell", "kind") in parsed.anchors
        assert parsed.facts  # eager data travelled

    def test_capabilities_roundtrip(self):
        wrapper = make_wrapper()
        parsed = parse_registration(build_registration(wrapper))
        capability = parsed.capabilities["sample"]
        assert capability.answerable({"kind": "x"})
        assert not capability.answerable({"value": 1.0})
        assert "all_above" in capability.templates
        assert capability.templates["all_above"].parameters == ("threshold",)

    def test_refinement_travels(self):
        wrapper = make_wrapper()
        message = build_registration(
            wrapper, dm_refinement="MyCell = Cell & exists has.Cell"
        )
        parsed = parse_registration(message)
        assert "MyCell" in parsed.refinement

    def test_without_data(self):
        parsed = parse_registration(build_registration(make_wrapper()))
        assert parsed.facts == []

    def test_boolean_and_numeric_facts_survive_wire(self):
        # regression: `True` in Datalog text reparses as a variable;
        # facts must travel with typed argument encoding
        wrapper = make_wrapper()
        wrapper.store.create_table(
            "flags", [Column("id", "int"), Column("ok", "bool")], key="id"
        ).insert_many([{"id": 1, "ok": True}, {"id": 2, "ok": False}])
        wrapper.export_class(
            "flag", "flags", "id", methods={"fid": "id", "ok": "ok"}
        )
        parsed = parse_registration(
            build_registration(wrapper, include_data=True)
        )
        values = {
            tuple(a.value for a in rule.head.args)
            for rule in parsed.facts
            if rule.head.pred == "method_inst"
        }
        assert ("LAB.flag.1", "ok", True) in values
        assert ("LAB.flag.2", "ok", False) in values
        # type preserved, not stringified
        ok_values = [v for _o, m, v in values if m == "ok"]
        assert all(isinstance(v, bool) for v in ok_values)

    def test_bad_message_rejected(self):
        with pytest.raises(RegistrationError):
            parse_registration("<nope/>")
        with pytest.raises(RegistrationError):
            parse_registration("<register/>")
        with pytest.raises(RegistrationError):
            parse_registration('<register source="s"/>')


class TestMediatorRegistration:
    def test_register_and_query(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        assert mediator.source_names() == ["LAB"]
        rows = mediator.ask("X : sample[value -> V]")
        assert len(rows) == 2

    def test_anchored_instances_propagate_up_dm(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        # anchored at Cell, visible as Cell instances
        assert len(mediator.ask("X : 'Cell'")) == 2

    def test_anchors_indexed(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        assert mediator.index.sources_for("Cell") == ["LAB"]
        # has-containment is not isa: Tissue has no anchors of its own
        assert mediator.index.sources_for("Tissue") == []
        mediator.dm.isa("Cell", "Anatomical_Entity")
        assert mediator.index.sources_for("Anatomical_Entity") == ["LAB"]

    def test_duplicate_registration_rejected(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        with pytest.raises(RegistrationError):
            mediator.register(make_wrapper())

    def test_registration_with_refinement(self):
        mediator = Mediator(make_dm())
        mediator.register(
            make_wrapper(), dm_refinement="Neuron_Cell < Cell"
        )
        assert "Neuron_Cell" in mediator.dm.concepts

    def test_lazy_registration_loads_no_data(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper(), eager=False)
        assert mediator.ask("X : sample") == []
        # but schema is known
        assert mediator.ask("sample[value => T]") == [{"T": "float"}]

    def test_non_xml_path_equivalent(self):
        via_xml = Mediator(make_dm())
        via_xml.register(make_wrapper(), via_xml=True)
        direct = Mediator(make_dm())
        direct.register(make_wrapper(), via_xml=False)
        assert via_xml.ask("X : sample[value -> V]") == direct.ask(
            "X : sample[value -> V]"
        )

    def test_wire_log_records_messages(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        assert len(mediator.wire_log) == 1
        assert mediator.wire_log[0][0] == "register:LAB"
        assert mediator.wire_log[0][1] > 100

    def test_wire_log_keeps_only_the_newest_messages(self, monkeypatch):
        from repro.core import mediator as mediator_module

        monkeypatch.setattr(mediator_module, "WIRE_LOG_LIMIT", 2)
        mediator = Mediator(make_dm())
        for name in ("LAB0", "LAB1", "LAB2"):
            mediator.register(make_wrapper(name))
        assert [message for message, _size in mediator.wire_log] == [
            "register:LAB1",
            "register:LAB2",
        ]

    def test_deregister(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        mediator.deregister("LAB")
        assert mediator.source_names() == []
        assert mediator.index.sources_for("Cell") == []
        assert mediator.ask("X : sample") == []

    def test_deregister_unknown_rejected(self):
        mediator = Mediator(make_dm())
        with pytest.raises(RegistrationError):
            mediator.deregister("LAB")

    def test_unknown_wrapper_lookup(self):
        mediator = Mediator(make_dm())
        with pytest.raises(MediatorError):
            mediator.wrapper("LAB")


def make_protein_wrapper(concepts):
    """A ``protein_amount`` source BAD whose location values anchor at
    `concepts`."""
    store = RelStore("BAD")
    store.create_table(
        "protein", [Column("id", "int"), Column("location", "str")], key="id"
    ).insert_many(
        [{"id": i, "location": "loc%d" % i} for i in range(len(concepts))]
    )
    wrapper = Wrapper("BAD", store)
    wrapper.export_class(
        "protein_amount",
        "protein",
        "id",
        methods={"location": "location"},
        anchor=AnchorSpec(
            column="location",
            mapping={"loc%d" % i: c for i, c in enumerate(concepts)},
        ),
        selectable={"location"},
    )
    return wrapper


class TestFailedRegistration:
    """A registration that raises changes nothing."""

    SOURCES = ["NCMIR", "SENSELAB", "SYNAPSE"]

    def test_unknown_anchor_leaves_no_orphan(self):
        mediator = build_scenario(eager=False).mediator
        bad = make_protein_wrapper(["Purkinje_Cell", "Zz_Not_A_Concept"])
        with pytest.raises(UnknownConceptError):
            mediator.register(bad, eager=False)
        assert mediator.index.sources_for("Purkinje_Cell") == ["NCMIR"]
        assert mediator.source_names() == self.SOURCES
        assert len(mediator.correlate(section5_query()).answers) == 4
        mediator.register(make_protein_wrapper(["Purkinje_Cell"]), eager=False)
        assert mediator.index.sources_for("Purkinje_Cell") == ["BAD", "NCMIR"]

    def test_unknown_anchor_leaves_map_and_cache_alone(self):
        from repro.cache import AnswerCache

        mediator = build_scenario(eager=False, cache=AnswerCache()).mediator
        mediator.correlate(section5_query())
        entries = len(mediator.cache.entries())
        revision = mediator.dm.revision
        concepts = set(mediator.dm.concepts)
        bad = make_protein_wrapper(["Bad_Cell", "Zz_Not_A_Concept"])
        with pytest.raises(UnknownConceptError):
            mediator.register(bad, dm_refinement="Bad_Cell < Neuron", eager=False)
        assert mediator.dm.revision == revision
        assert set(mediator.dm.concepts) == concepts
        assert len(mediator.cache.entries()) == entries
        assert mediator.source_names() == self.SOURCES
        # a concept the registration's own refinement defines is known
        mediator.register(
            make_protein_wrapper(["Bad_Cell"]),
            dm_refinement="Bad_Cell < Neuron",
            eager=False,
        )
        assert mediator.index.sources_for("Bad_Cell") == ["BAD"]


class TestViews:
    def test_integrated_view(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        mediator.add_view(
            IntegratedView(
                "big_sample",
                "X : big_sample :- X : sample[value -> V], V > 2.5.",
            )
        )
        assert len(mediator.ask("X : big_sample")) == 1

    def test_duplicate_view_rejected(self):
        mediator = Mediator(make_dm())
        view = IntegratedView("v", "X : v :- X : sample.")
        mediator.add_view(view)
        with pytest.raises(MediatorError):
            mediator.add_view(IntegratedView("v", "X : v :- X : sample."))

    def test_failed_add_view_leaves_no_view(self):
        from repro.errors import FLogicParseError

        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        with pytest.raises(FLogicParseError):
            # no final dot
            mediator.add_view(IntegratedView("v", "X : good :- X : sample"))
        assert mediator.view_names() == []
        mediator.add_view(IntegratedView("v", "X : good :- X : sample."))
        assert mediator.view_names() == ["v"]
        assert len(mediator.ask("X : good")) == 2

    def test_distribution_view_materialization(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        mediator.add_view(
            DistributionView(
                "value_distribution",
                source_class="sample",
                group_attr="kind",
                value_attr="value",
            )
        )
        distribution = mediator.materialize_distribution(
            "value_distribution", "cell body", "Organ"
        )
        assert distribution.total() == 5.0
        rows = mediator.ask(
            "D : value_distribution[distribution_root -> R]"
        )
        assert rows[0]["R"] == "Organ"
        # per-region rows are queryable
        rows = mediator.ask("dist_row(D, 'Cell', Direct, Cum)")
        assert rows[0]["Cum"] == 5.0

    def test_materialize_non_distribution_view_rejected(self):
        mediator = Mediator(make_dm())
        mediator.add_view(IntegratedView("v", "X : v :- X : sample."))
        with pytest.raises(MediatorError):
            mediator.materialize_distribution("v", "x", "Organ")

    def test_select_sources(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        assert mediator.select_sources(["Cell"]) == ["LAB"]
        assert mediator.select_sources(["Cell"], target_class="sample") == ["LAB"]
        assert mediator.select_sources(["Cell"], target_class="nope") == []

    def test_compute_distribution_directly(self):
        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        distribution = mediator.compute_distribution("Tissue", "value")
        assert distribution.total() == 5.0

    def test_check_integrity(self):
        from repro.gcm import cardinality_constraint

        mediator = Mediator(make_dm())
        mediator.register(make_wrapper())
        report = mediator.check_integrity(
            [cardinality_constraint("anchor", 2, counted_position=1, exact=1)]
        )
        assert report.ok  # each object anchored at exactly one concept
