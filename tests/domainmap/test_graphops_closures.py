"""Closure edge cases backing medcache's affected-set computation:
lub over disconnected worlds, has_a_star through eqv bridges, and
refinements that add only role links."""

import pytest

from repro.domainmap import DomainMap
from repro.domainmap.graphops import (
    ancestors,
    has_a_star,
    least_upper_bounds,
    lub,
    role_containers,
)
from repro.domainmap.registry import register_concepts
from repro.errors import NoUpperBoundError


def disconnected_dm():
    dm = DomainMap("islands")
    dm.add_axioms(
        """
        Neuron < Cell
        Paper < Document
        """
    )
    return dm


class TestLubEdgeCases:
    def test_no_common_ancestor_raises(self):
        dm = disconnected_dm()
        with pytest.raises(NoUpperBoundError):
            least_upper_bounds(dm, ["Neuron", "Paper"])
        with pytest.raises(NoUpperBoundError):
            lub(dm, ["Cell", "Document"])

    def test_empty_concept_set_raises(self):
        with pytest.raises(NoUpperBoundError):
            least_upper_bounds(disconnected_dm(), [])

    def test_singleton_is_its_own_lub(self):
        assert lub(disconnected_dm(), ["Neuron"]) == "Neuron"

    def test_dag_can_have_multiple_lubs(self):
        dm = DomainMap("diamond")
        dm.add_axioms(
            """
            A < L
            A < R
            B < L
            B < R
            """
        )
        assert least_upper_bounds(dm, ["A", "B"]) == ["L", "R"]
        assert lub(dm, ["A", "B"]) == "L"  # ties break by name


class TestHasAStarThroughEqv:
    def build(self):
        # the containment edge lives on Cerebellum; Kleinhirn only
        # reaches it through the eqv bridge
        dm = DomainMap("bilingual")
        dm.add_axioms("Cerebellum < exists has.Purkinje_Cell")
        dm.add_concept("Kleinhirn")
        dm.add_axioms("Kleinhirn = Cerebellum")
        return dm

    def test_eqv_aliases_share_role_links(self):
        links = has_a_star(self.build())
        assert ("Cerebellum", "Purkinje_Cell") in links
        assert ("Kleinhirn", "Purkinje_Cell") in links

    def test_role_containers_sees_through_eqv(self):
        containers = role_containers(
            self.build(), "Purkinje_Cell", "has"
        )
        assert "Cerebellum" in containers
        assert "Kleinhirn" in containers

    def test_ancestors_follow_eqv_both_ways(self):
        dm = self.build()
        dm.add_axioms("Cerebellum < Brain_Part")
        assert "Brain_Part" in ancestors(dm, "Kleinhirn")


class TestRoleOnlyRefinement:
    def test_refinement_adding_only_role_links(self):
        dm = DomainMap("d")
        dm.add_axioms(
            """
            Basket_Cell < Neuron
            Cerebellar_Cortex < Tissue
            Scaffold < exists has.Strut
            """
        )
        result = register_concepts(
            dm, "Cerebellar_Cortex < exists has.Basket_Cell"
        )
        assert result.new_concepts == []
        assert result.new_isa == []
        # the closure also lifts the link to the superclass: having a
        # Basket_Cell is having a Neuron
        assert result.new_role_links == [
            ("Cerebellar_Cortex", "has", "Basket_Cell"),
            ("Cerebellar_Cortex", "has", "Neuron"),
        ]
        # medcache seeds exactly the link endpoints
        assert result.touched_concepts() == {
            "Cerebellar_Cortex",
            "Basket_Cell",
            "Neuron",
        }

    def test_role_only_refinement_extends_has_a_star(self):
        dm = DomainMap("d")
        dm.add_axioms("Basket_Cell < Neuron\nScaffold < exists has.Strut")
        dm.add_concept("Dendrite")  # refinements must attach to the map
        before = has_a_star(dm)
        register_concepts(dm, "Neuron < exists has.Dendrite")
        after = has_a_star(dm)
        assert ("Neuron", "Dendrite") in after - before
        # the link is inherited downward by the subclass
        assert ("Basket_Cell", "Dendrite") in after
