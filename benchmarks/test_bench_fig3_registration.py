"""FIG3 — domain map after registering MyNeuron and MyDendrite.

Figure 3 shows the map after a source registers two refinements; the
paper derives: "MyNeuron, like any Medium_Spiny_Neuron projects to
certain structures (OR in Fig. 3).  With the newly registered
knowledge, it follows that MyNeuron definitely projects to Globus
Palladius External."  The bench replays the registration, asserts every
derived edge, and times it.
"""

import pytest

from conftest import report
from repro.domainmap import (
    ALL,
    Edge,
    definite_projections,
    isa_closure,
    register_concepts,
    to_text,
)
from repro.neuro import FIGURE3_REGISTRATION, build_figure3_base


def test_fig3_registration(benchmark):
    dm = build_figure3_base()
    before_concepts = len(dm.concepts)

    result = register_concepts(dm, FIGURE3_REGISTRATION)

    # the two dark nodes of Figure 3
    assert result.new_concepts == ["MyDendrite", "MyNeuron"]
    assert len(dm.concepts) == before_concepts + 2

    closure = isa_closure(dm)
    # necessary conditions became isa edges
    assert ("MyNeuron", "Medium_Spiny_Neuron") in closure
    assert ("MyNeuron", "Spiny_Neuron") in closure
    assert ("MyNeuron", "Neuron") in closure
    assert ("MyDendrite", "Dendrite") in closure
    assert ("MyDendrite", "Compartment") in closure

    # the (ex) and (all) edges of the dark region
    assert ("MyNeuron", "proj", "Globus_Pallidus_External") in dm.role_triples()
    assert ("MyDendrite", "exp", "Dopamine_R") in dm.role_triples()
    assert Edge(ALL, "MyNeuron", "MyDendrite", "has") in dm.edges()

    # the paper's derived fact
    assert definite_projections(dm, "MyNeuron", "proj") == [
        "Globus_Pallidus_External"
    ]
    # inherited: the OR-node projection possibilities remain at the
    # superclass (no definite projection for Medium_Spiny_Neuron alone)
    assert definite_projections(dm, "Medium_Spiny_Neuron", "proj") == []

    report(
        "FIG3: registration of MyNeuron / MyDendrite",
        [
            result.describe(),
            "",
            "definite projections of MyNeuron: %s"
            % definite_projections(dm, "MyNeuron", "proj"),
        ],
    )

    def kernel():
        fresh = build_figure3_base()
        register_concepts(fresh, FIGURE3_REGISTRATION)
        return definite_projections(fresh, "MyNeuron", "proj")

    benchmark(kernel)
