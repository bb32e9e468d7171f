"""Tests for restricted subsumption reasoning (Proposition 1 boundary)."""

import pytest

from repro.errors import UndecidableFragmentError
from repro.domainmap import (
    DomainMap,
    Reasoner,
    check_fragment,
    parse_concept,
)
from repro.domainmap.dl import Conj, Eqv, Exists, Named, Sub


@pytest.fixture
def anatomy():
    dm = DomainMap("t")
    dm.add_axioms(
        """
        Neuron < Cell
        Neuron < exists has.Compartment
        Spiny_Neuron = Neuron & exists has.Spine
        Purkinje_Cell < Spiny_Neuron
        Spine < Compartment
        Big_Spine < Spine
        """
    )
    return dm


class TestFragmentBoundary:
    def test_clean_map_accepted(self, anatomy):
        assert check_fragment(anatomy)

    def test_disjunction_rejected(self):
        dm = DomainMap("t")
        dm.add_axiom("M < exists proj.(A | B)")
        with pytest.raises(UndecidableFragmentError):
            check_fragment(dm)

    def test_forall_rejected(self):
        dm = DomainMap("t")
        dm.add_axiom("M < all has.D")
        with pytest.raises(UndecidableFragmentError):
            check_fragment(dm)

    def test_complex_lhs_rejected(self):
        dm = DomainMap("t")
        dm.add_axiom(Sub(Conj([Named("A"), Named("B")]), Named("C")))
        with pytest.raises(UndecidableFragmentError):
            check_fragment(dm)

    def test_cyclic_definition_rejected(self):
        dm = DomainMap("t")
        dm.add_axiom("A < exists r.B")
        dm.add_axiom("B < exists r.A")
        with pytest.raises(UndecidableFragmentError):
            check_fragment(dm)

    def test_reasoner_construction_enforces_fragment(self):
        dm = DomainMap("t")
        dm.add_axiom("M < all has.D")
        with pytest.raises(UndecidableFragmentError):
            Reasoner(dm)


class TestSubsumption:
    def test_told_subsumption(self, anatomy):
        assert Reasoner(anatomy).subsumes("Cell", "Neuron")

    def test_transitive_subsumption(self, anatomy):
        assert Reasoner(anatomy).subsumes("Cell", "Purkinje_Cell")

    def test_through_definition(self, anatomy):
        assert Reasoner(anatomy).subsumes("Neuron", "Spiny_Neuron")
        assert Reasoner(anatomy).subsumes("Neuron", "Purkinje_Cell")

    def test_not_subsumed(self, anatomy):
        assert not Reasoner(anatomy).subsumes("Purkinje_Cell", "Neuron")
        assert not Reasoner(anatomy).subsumes("Spine", "Neuron")

    def test_reflexive(self, anatomy):
        assert Reasoner(anatomy).subsumes("Neuron", "Neuron")

    def test_definition_sufficiency(self, anatomy):
        # Anything that is a Neuron with a Spine IS a Spiny_Neuron.
        expr = parse_concept("Neuron & exists has.Spine")
        assert Reasoner(anatomy).subsumes("Spiny_Neuron", expr)

    def test_definition_sufficiency_with_more_specific_filler(self, anatomy):
        expr = parse_concept("Neuron & exists has.Big_Spine")
        assert Reasoner(anatomy).subsumes("Spiny_Neuron", expr)

    def test_primitive_not_inferred_from_structure(self, anatomy):
        # Purkinje_Cell is primitive: having its necessary conditions
        # does not make something a Purkinje_Cell.
        expr = parse_concept("Spiny_Neuron")
        assert not Reasoner(anatomy).subsumes("Purkinje_Cell", expr)

    def test_existential_monotonicity(self, anatomy):
        reasoner = Reasoner(anatomy)
        general = Exists("has", Named("Compartment"))
        specific = Exists("has", Named("Spine"))
        assert reasoner.subsumes(general, specific)
        assert not reasoner.subsumes(specific, general)

    def test_conjunction_subsumption(self, anatomy):
        reasoner = Reasoner(anatomy)
        assert reasoner.subsumes(
            parse_concept("Cell"), parse_concept("Neuron & exists has.Spine")
        )

    def test_equivalent(self, anatomy):
        reasoner = Reasoner(anatomy)
        assert reasoner.equivalent(
            "Spiny_Neuron", parse_concept("Neuron & exists has.Spine")
        )
        assert not reasoner.equivalent("Spiny_Neuron", "Neuron")

    def test_multiple_definitions_conjoin(self):
        dm = DomainMap("t")
        dm.add_axiom("A < B")
        dm.add_axiom("A < C")
        assert Reasoner(dm).subsumes("B", "A")
        assert Reasoner(dm).subsumes("C", "A")
