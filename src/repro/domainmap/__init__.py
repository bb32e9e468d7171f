"""Domain maps: the paper's "semantic coordinate system".

Domain maps (Section 4) formalize the expert knowledge needed to
mediate across *multiple worlds*: semantic nets whose nodes are
concepts and whose labeled edges carry description-logic semantics
(Definition 1).  Sources anchor their data at concepts (the semantic
index), edges can be executed as integrity constraints or as
placeholder-creating assertions, and graph operations — deductive
closures, `has_a_star`, `lub` — drive integrated-view definition and
query processing.

Quick use::

    from repro.domainmap import DomainMap, has_a_star, lub

    dm = DomainMap("anatom")
    dm.add_axioms('''
        Dendrite < Compartment
        Dendrite < exists has.Branch
        Shaft < Branch & exists has.Spine
    ''')
    has_a_star(dm, "has")
    lub(dm, ["Spine", "Branch"])
"""

from .dl import (
    Axiom,
    ConceptExpr,
    Conj,
    Disj,
    Eqv,
    Exists,
    Forall,
    Named,
    Sub,
    parse_axiom,
    parse_axioms,
    parse_concept,
)
from .execute import (
    PLACEHOLDER_FUNCTOR,
    base_rules,
    compile_domain_map,
    dm_facts,
    edge_assertion_rules,
    edge_constraint_rules,
)
from .graphops import (
    CLOSURE_RULES,
    navigation_graph,
    ancestors,
    closure_program,
    closure_rules,
    deductive_closure,
    descendants,
    downward_closure,
    has_a_star,
    isa_closure,
    isa_graph,
    least_upper_bounds,
    lub,
    part_graph,
    part_tree,
    region_of_correspondence,
    role_containers,
    role_graph,
    transitive_closure,
    upper_bounds,
)
from .index import Anchor, SemanticIndex
from .model import ALL, AND, EQV, EX, ISA, OR, DomainMap, Edge
from .reasoning import Reasoner, check_fragment
from .registry import RegistrationResult, definite_projections, register_concepts
from .render import edge_census, to_dot, to_text

__all__ = [
    "ALL",
    "AND",
    "Anchor",
    "Axiom",
    "CLOSURE_RULES",
    "ConceptExpr",
    "Conj",
    "Disj",
    "DomainMap",
    "EQV",
    "EX",
    "Edge",
    "Eqv",
    "Exists",
    "Forall",
    "ISA",
    "Named",
    "OR",
    "PLACEHOLDER_FUNCTOR",
    "Reasoner",
    "RegistrationResult",
    "SemanticIndex",
    "Sub",
    "ancestors",
    "base_rules",
    "check_fragment",
    "closure_program",
    "closure_rules",
    "compile_domain_map",
    "deductive_closure",
    "definite_projections",
    "descendants",
    "dm_facts",
    "downward_closure",
    "edge_assertion_rules",
    "edge_census",
    "edge_constraint_rules",
    "has_a_star",
    "isa_closure",
    "isa_graph",
    "least_upper_bounds",
    "lub",
    "navigation_graph",
    "parse_axiom",
    "parse_axioms",
    "parse_concept",
    "part_graph",
    "part_tree",
    "region_of_correspondence",
    "register_concepts",
    "role_containers",
    "role_graph",
    "to_dot",
    "to_text",
    "transitive_closure",
    "upper_bounds",
]
