"""Golden tests for the feasibility pass: MBM030-MBM033, MBM041,
MBM010, MBM032."""

import pytest

from repro.analysis import (
    analyze_capabilities,
    analyze_views,
    analyze_wrapper,
    schema_sort_diagnostics,
    template_diagnostics,
)
from repro.core.mediator import Mediator
from repro.core.views import DistributionView, IntegratedView
from repro.domainmap.model import DomainMap
from repro.gcm.model import ConceptualModel
from repro.sources import Column, QueryTemplate, RelStore, Wrapper
from repro.sources.capabilities import BindingPattern, ClassCapability


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


def small_store():
    store = RelStore("s")
    store.create_table(
        "t", [Column("id", "str"), Column("v", "int")], key="id"
    )
    store.table("t").insert({"id": "x", "v": 1})
    return store


def small_mediator(**wrapper_kwargs):
    dm = DomainMap("d")
    dm.add_concepts(["alpha", "beta"])
    dm.isa("alpha", "beta")
    wrapper = Wrapper("SRC", small_store())
    wrapper.export_class(
        "thing", "t", "id", {"ident": "id", "v": "v"}, **wrapper_kwargs
    )
    mediator = Mediator(dm=dm, name="m")
    mediator.register(wrapper, eager=False)
    return mediator


class TestCapabilityCodes:
    def test_mbm031_unanswerable_class(self):
        capability = ClassCapability("c", ["a"], key="a", scannable=False)
        diags = analyze_capabilities({"S": {"c": capability}})
        assert codes_of(diags) == ["MBM031"]
        assert "'c'" in diags[0].message and "S" in diags[0].message

    def test_scannable_class_is_answerable(self):
        capability = ClassCapability("c", ["a"], key="a", scannable=True)
        assert analyze_capabilities({"S": {"c": capability}}) == []

    def test_binding_pattern_makes_class_answerable(self):
        capability = ClassCapability("c", ["a"], key="a", scannable=False)
        capability.allow_selection_on({"a"})
        assert analyze_capabilities({"S": {"c": capability}}) == []

    def test_mbm041_pattern_over_foreign_attributes(self):
        capability = ClassCapability("c", ["a", "b"], key="a")
        capability.binding_patterns.append(BindingPattern(["a", "zz"], "bb"))
        diags = analyze_capabilities({"S": {"c": capability}})
        assert "MBM041" in codes_of(diags)
        (diag,) = [d for d in diags if d.code == "MBM041"]
        assert "'zz'" in diag.message

    def test_mbm032_template_without_implementation(self):
        capability = ClassCapability("c", ["a"], key="a")
        capability.add_template(QueryTemplate("ghost", ["p"]))
        diags = template_diagnostics("S", {"c": capability}, {})
        assert codes_of(diags) == ["MBM032"]
        assert "'ghost'" in diags[0].message

    def test_registered_template_is_fine(self):
        capability = ClassCapability("c", ["a"], key="a")
        capability.add_template(QueryTemplate("real", ["p"]))
        diags = template_diagnostics("S", {"c": capability}, {("c", "real"): 1})
        assert diags == []


class TestViewCodes:
    def test_mbm030_dead_integrated_view(self):
        mediator = small_mediator()
        mediator.add_view(
            IntegratedView("dead", "X : out :- X : nonexistent.")
        )
        diags = analyze_views(mediator)
        assert "MBM030" in codes_of(diags)
        (diag,) = [d for d in diags if d.code == "MBM030"]
        assert "'nonexistent'" in diag.message

    def test_view_over_exported_class_is_live(self):
        mediator = small_mediator()
        mediator.add_view(IntegratedView("live", "X : out :- X : thing."))
        # 'thing' is exported (without an anchor): no dead view
        assert codes_of(analyze_views(mediator)) == []

    def test_view_over_dm_concept_is_live(self):
        mediator = small_mediator()
        mediator.add_view(IntegratedView("live", "X : out :- X : alpha."))
        assert analyze_views(mediator) == []

    def test_view_over_own_head_is_live(self):
        mediator = small_mediator()
        mediator.add_view(
            IntegratedView(
                "chain", "X : mid :- X : thing. X : out :- X : mid."
            )
        )
        assert codes_of(analyze_views(mediator)) == []

    def test_mbm032_dangling_depends_on(self):
        mediator = small_mediator()
        mediator.add_view(
            IntegratedView(
                "v", "X : out :- X : thing.", depends_on=("missing_thing",)
            )
        )
        diags = analyze_views(mediator)
        assert "MBM032" in codes_of(diags)

    def test_mbm033_distribution_view_unexported_class(self):
        mediator = small_mediator()
        mediator.add_view(
            DistributionView("dist", "ghost_class", "ident", "v", "has")
        )
        diags = analyze_views(mediator)
        assert "MBM033" in codes_of(diags)

    def test_mbm033_distribution_view_missing_attribute(self):
        mediator = small_mediator()
        mediator.add_view(
            DistributionView("dist", "thing", "ident", "weight", "has")
        )
        diags = analyze_views(mediator)
        assert "MBM033" in codes_of(diags)
        (diag,) = [d for d in diags if d.code == "MBM033"]
        assert "'weight'" in diag.message

    def test_mbm025_distribution_view_unknown_role(self):
        mediator = small_mediator()
        mediator.add_view(
            DistributionView("dist", "thing", "ident", "v", "phantom")
        )
        diags = analyze_views(mediator)
        assert "MBM025" in codes_of(diags)

    def test_clean_distribution_view(self):
        mediator = small_mediator()
        mediator.dm.ex("beta", "has", "alpha")
        mediator.add_view(
            DistributionView("dist", "thing", "ident", "v", "has")
        )
        assert analyze_views(mediator) == []


class TestSchemaSorts:
    def test_mbm010_unknown_result_sort(self):
        cm = ConceptualModel("cm")
        cm.add_class("c", methods={"m": "strnig"})  # typo'd sort
        diags = schema_sort_diagnostics(cm)
        assert codes_of(diags) == ["MBM010"]
        assert "'strnig'" in diags[0].message

    def test_builtin_sorts_accepted(self):
        cm = ConceptualModel("cm")
        cm.add_class("c", methods={"m": "string", "n": "integer"})
        assert schema_sort_diagnostics(cm) == []

    def test_class_valued_method_accepted(self):
        cm = ConceptualModel("cm")
        cm.add_class("other")
        cm.add_class("c", methods={"m": "other"})
        assert schema_sort_diagnostics(cm) == []

    def test_dm_concept_valued_method_accepted(self):
        dm = DomainMap("d")
        dm.add_concept("alpha")
        cm = ConceptualModel("cm")
        cm.add_class("c", methods={"m": "alpha"})
        assert schema_sort_diagnostics(cm, dm=dm) == []


class TestAnalyzeWrapper:
    def test_clean_wrapper(self):
        wrapper = Wrapper("SRC", small_store())
        wrapper.export_class("thing", "t", "id", {"ident": "id", "v": "v"})
        report = analyze_wrapper(wrapper)
        assert not report.has_errors

    def test_unanswerable_wrapper_class(self):
        wrapper = Wrapper("SRC", small_store())
        wrapper.export_class(
            "thing", "t", "id", {"ident": "id"}, scannable=False
        )
        wrapper.capabilities()["thing"].binding_patterns.clear()
        report = analyze_wrapper(wrapper)
        assert "MBM031" in report.codes()
