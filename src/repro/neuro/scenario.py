"""Wiring the KIND scenario: ANATOM + SYNAPSE + NCMIR + SENSELAB.

:func:`build_scenario` assembles the full mediated system of the
paper's prototype; :func:`section5_query` is the running query:

    "What is the distribution of those calcium-binding proteins that
    are found in neurons that receive signals from parallel fibers in
    rat brains?"
"""

from __future__ import annotations

from ..core.mediator import Mediator
from ..core.planner import CorrelationQuery
from .anatom import build_anatom
from .ncmir import build_ncmir
from .senselab import build_senselab
from .synapse import build_synapse
from .views import (
    calcium_binding_protein_view,
    neurotransmission_paths_view,
    protein_distribution_view,
    spine_change_view,
)


class KindScenario:
    """The assembled mediated system plus handles to its parts."""

    def __init__(self, mediator, synapse, ncmir, senselab):
        self.mediator = mediator
        self.synapse = synapse
        self.ncmir = ncmir
        self.senselab = senselab

    def __repr__(self):
        return "KindScenario(%r)" % self.mediator


def build_scenario(seed=2001, scale=1, eager=True, via_xml=True,
                   include_anatom_source=False, dialogue_via_xml=False,
                   cache=None):
    """Build the full KIND mediation scenario.

    Args:
        seed: RNG seed for the synthetic source data.
        scale: data-size multiplier (replicates per cell).
        eager: load all source data into the mediator at registration;
            with ``eager=False`` only query plans fetch data.
        via_xml: round-trip registrations through the XML wire format.
        include_anatom_source: also register the ANATOM atlas source,
            whose registration refines the domain map with cerebellar
            interneuron concepts (the Figure 3 mechanism in situ).
        dialogue_via_xml: run source *queries* over the XML wire too.
        cache: optional medcache configuration, passed through to
            :class:`~repro.core.Mediator` (an AnswerCache, an
            LRUStore, or True).
    """
    mediator = Mediator(build_anatom(), name="KIND",
                        dialogue_via_xml=dialogue_via_xml, cache=cache)
    synapse = build_synapse(seed, scale)
    ncmir = build_ncmir(seed + 1, scale)
    senselab = build_senselab(seed + 2, scale)
    for wrapper in (synapse, ncmir, senselab):
        mediator.register(wrapper, eager=eager, via_xml=via_xml)
    if include_anatom_source:
        from .anatom_source import DM_REFINEMENT, build_anatom_source

        mediator.register(
            build_anatom_source(),
            dm_refinement=DM_REFINEMENT.strip(),
            eager=eager,
            via_xml=via_xml,
        )
    mediator.add_view(protein_distribution_view())
    mediator.add_view(calcium_binding_protein_view())
    mediator.add_view(spine_change_view())
    mediator.add_view(neurotransmission_paths_view())
    return KindScenario(mediator, synapse, ncmir, senselab)


def section5_query():
    """The paper's Section 5 query as a :class:`CorrelationQuery`."""
    return CorrelationQuery(
        seed_class="neurotransmission",
        seed_selections={
            "organism": "rat",
            "transmitting_compartment": "parallel fiber",
        },
        anchor_attrs=("receiving_neuron", "receiving_compartment"),
        target_class="protein_amount",
        target_anchor_attr="location",
        # "in rat brains": the organism selection is pushable at NCMIR;
        # the ion filter is not declared in its binding patterns and is
        # applied mediator-side (step 3 mixes both).
        target_filters={"ion_bound": "calcium", "organism": "rat"},
        group_attr="protein_name",
        value_attr="amount",
        role="has",
        func="sum",
        seed_source="SENSELAB",
    )
