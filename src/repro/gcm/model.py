"""The generic conceptual model (GCM): schemas and instances.

Section 3 of the paper derives the GCM core from the common features of
conceptual models: classes with methods, a subclass partial order with
inheritance, and n-ary relations with named roles.  This module gives
those declarations a programmatic API and compiles them to the Datalog
relations of Table 1:

==================================  =========================================
GCM declaration                     compiled form
==================================  =========================================
``instance(X, C)``                  fact `instance(X, C)`
``subclass(C1, C2)``                fact `subclass(C1, C2)`
``method(C, M, CM)``                fact `method(C, M, CM)`
``methodinst(X, M, Y)``             fact `method_inst(X, M, Y)`
``relation(R, A1=C1, ..., An=Cn)``  facts `relation_sig(R, i, Ai, Ci)` and
                                    `method(R, Ai, Ci)` (the paper's
                                    ``R[A1 => C1; ...]`` rendering) plus
                                    bridge rules between the predicate
                                    ``R(X1, ..., Xn)`` and reified tuple
                                    objects ``t_R(X1, ..., Xn)``
==================================  =========================================

The tuple-object bridge implements Table 1's equivalence
``relationinst(R, A1=X1, ...) == r(X1,...,Xn) == :R[A1->X1; ...]``: a
relation instance is visible both as a flat predicate fact and as an
anonymous object of class R whose role methods hold the components.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SchemaError
from ..datalog.ast import Atom, Literal, Program, Rule
from ..datalog.terms import Const, Struct, Var, coerce_term
from ..flogic.parser import parse_fl_program

#: relation signature bookkeeping predicate: relation_sig(R, index, role, class)
PRED_RELATION_SIG = "relation_sig"


class MethodDef:
    """A method (attribute/slot) declaration ``C[M => CM]``.

    `multivalued` distinguishes ``=>>`` from ``=>``; scalar methods can
    additionally be enforced with
    :func:`repro.gcm.library.scalar_method_constraint`.
    """

    __slots__ = ("name", "result_class", "multivalued")

    def __init__(self, name, result_class, multivalued=False):
        self.name = name
        self.result_class = result_class
        self.multivalued = multivalued

    def __repr__(self):
        arrow = "=>>" if self.multivalued else "=>"
        return "MethodDef(%s %s %s)" % (self.name, arrow, self.result_class)


class ClassDef:
    """A class declaration with superclasses and method signatures."""

    def __init__(self, name, superclasses=(), methods=()):
        self.name = name
        self.superclasses = tuple(superclasses)
        self.methods: Dict[str, MethodDef] = {}
        for method in methods:
            self.add_method(method)

    def add_method(self, method):
        if method.name in self.methods:
            raise SchemaError(
                "duplicate method %r on class %r" % (method.name, self.name)
            )
        self.methods[method.name] = method
        return self

    def __repr__(self):
        return "ClassDef(%r, supers=%r, methods=%r)" % (
            self.name,
            self.superclasses,
            sorted(self.methods),
        )


class RelationDef:
    """An n-ary relation with ordered, named, typed roles."""

    def __init__(self, name, roles):
        self.name = name
        self.roles: Tuple[Tuple[str, str], ...] = tuple(roles)
        if not self.roles:
            raise SchemaError("relation %r needs at least one role" % name)
        names = [role for role, _cls in self.roles]
        if len(set(names)) != len(names):
            raise SchemaError("relation %r has duplicate role names" % name)

    @property
    def arity(self):
        return len(self.roles)

    @property
    def role_names(self):
        return tuple(role for role, _cls in self.roles)

    def tuple_functor(self):
        """Functor of the reified tuple objects for this relation."""
        return "t_%s" % self.name

    def __repr__(self):
        return "RelationDef(%r, %r)" % (self.name, self.roles)


class ConceptualModel:
    """A conceptual model: schema + semantic rules + instance data.

    This is what a wrapper exports to the mediator ("CM(S)"): class
    schemas, relationship schemas, semantic rules, and instances.  The
    mediator merges registered CMs into one F-logic engine.
    """

    def __init__(self, name):
        self.name = name
        self.classes: Dict[str, ClassDef] = {}
        self.relations: Dict[str, RelationDef] = {}
        self._instance_facts: List[Rule] = []
        self._value_facts: List[Rule] = []
        self._relation_facts: List[Rule] = []
        self._rules: List[Rule] = []

    # -- schema declarations --------------------------------------------

    def add_class(self, name, superclasses=(), methods=None):
        """Declare a class; `methods` maps name -> result class, or
        name -> (result class, multivalued)."""
        if name in self.classes:
            raise SchemaError("class %r already declared in %r" % (name, self.name))
        class_def = ClassDef(name, superclasses)
        for method_name, spec in (methods or {}).items():
            if isinstance(spec, tuple):
                result_class, multivalued = spec
            else:
                result_class, multivalued = spec, False
            class_def.add_method(MethodDef(method_name, result_class, multivalued))
        self.classes[name] = class_def
        return class_def

    def add_superclass(self, name, superclass):
        """Add a superclass to an already-declared class (used by CM
        plug-ins, which discover generalizations after classes)."""
        class_def = self.classes.get(name)
        if class_def is None:
            raise SchemaError("class %r not declared in %r" % (name, self.name))
        if superclass not in class_def.superclasses:
            class_def.superclasses = class_def.superclasses + (superclass,)
        return class_def

    def add_method(self, class_name, method_name, result_class, multivalued=False):
        """Add a method to an already-declared class."""
        class_def = self.classes.get(class_name)
        if class_def is None:
            raise SchemaError(
                "class %r not declared in %r" % (class_name, self.name)
            )
        class_def.add_method(MethodDef(method_name, result_class, multivalued))
        return class_def

    def add_relation(self, name, roles):
        """Declare an n-ary relation; `roles` is an ordered sequence of
        (role name, class name) pairs."""
        if name in self.relations:
            raise SchemaError(
                "relation %r already declared in %r" % (name, self.name)
            )
        relation = RelationDef(name, roles)
        self.relations[name] = relation
        return relation

    # -- semantic rules ----------------------------------------------------

    def add_rule(self, fl_text):
        """Add semantic rules in F-logic syntax."""
        from ..flogic.translate import translate_rules

        self._rules.extend(translate_rules(parse_fl_program(fl_text)))
        return self

    def add_datalog(self, text_or_rules):
        """Add raw Datalog rules (text or Rule iterable)."""
        if isinstance(text_or_rules, str):
            from ..datalog.parser import parse_program

            self._rules.extend(parse_program(text_or_rules))
        else:
            self._rules.extend(text_or_rules)
        return self

    # -- instance data ------------------------------------------------------

    def add_instance(self, obj, class_name):
        """Assert ``obj : class_name``."""
        if class_name not in self.classes:
            raise SchemaError(
                "class %r not declared in CM %r" % (class_name, self.name)
            )
        self._instance_facts.append(
            Rule(Atom("instance", (coerce_term(obj), Const(class_name))))
        )
        return self

    def set_value(self, obj, method, value):
        """Assert ``obj[method -> value]``."""
        self._value_facts.append(
            Rule(
                Atom(
                    "method_inst",
                    (coerce_term(obj), Const(method), coerce_term(value)),
                )
            )
        )
        return self

    def add_relation_instance(self, relation_name, **role_values):
        """Assert a relation tuple by role name, e.g.
        ``cm.add_relation_instance("has", whole="n1", part="a1")``."""
        relation = self.relations.get(relation_name)
        if relation is None:
            raise SchemaError(
                "relation %r not declared in CM %r" % (relation_name, self.name)
            )
        missing = set(relation.role_names) - set(role_values)
        extra = set(role_values) - set(relation.role_names)
        if missing or extra:
            raise SchemaError(
                "relation %r instance roles mismatch (missing %s, extra %s)"
                % (relation_name, sorted(missing), sorted(extra))
            )
        args = tuple(
            coerce_term(role_values[role]) for role in relation.role_names
        )
        self._relation_facts.append(Rule(Atom(relation_name, args)))
        return self

    # -- compilation -----------------------------------------------------

    def schema_rules(self):
        """Datalog rules/facts for the schema declarations."""
        rules: List[Rule] = []
        for class_def in self.classes.values():
            rules.append(Rule(Atom("class", (Const(class_def.name),))))
            for sup in class_def.superclasses:
                rules.append(
                    Rule(Atom("subclass", (Const(class_def.name), Const(sup))))
                )
            for method in class_def.methods.values():
                rules.append(
                    Rule(
                        Atom(
                            "method",
                            (
                                Const(class_def.name),
                                Const(method.name),
                                Const(method.result_class),
                            ),
                        )
                    )
                )
        for relation in self.relations.values():
            rules.extend(_relation_schema_rules(relation))
        return rules

    def data_rules(self):
        """Datalog facts for the instance-level data."""
        return list(self._instance_facts) + list(self._value_facts) + list(
            self._relation_facts
        )

    def semantic_rules(self):
        """User-supplied semantic rules (already translated to Datalog)."""
        return list(self._rules)

    def all_rules(self):
        return self.schema_rules() + self.data_rules() + self.semantic_rules()

    # -- introspection ------------------------------------------------------

    def class_names(self):
        return sorted(self.classes)

    def relation_names(self):
        return sorted(self.relations)

    def describe(self):
        """A human-readable schema summary."""
        lines = ["conceptual model %s" % self.name]
        for name in self.class_names():
            class_def = self.classes[name]
            supers = (
                " :: " + ", ".join(class_def.superclasses)
                if class_def.superclasses
                else ""
            )
            lines.append("  class %s%s" % (name, supers))
            for method in sorted(class_def.methods):
                method_def = class_def.methods[method]
                arrow = "=>>" if method_def.multivalued else "=>"
                lines.append(
                    "    %s %s %s" % (method, arrow, method_def.result_class)
                )
        for name in self.relation_names():
            relation = self.relations[name]
            roles = ", ".join("%s/%s" % role for role in relation.roles)
            lines.append("  relation %s(%s)" % (name, roles))
        return "\n".join(lines)


def _relation_schema_rules(relation):
    """Signature facts + tuple-object bridge for one relation."""
    rules: List[Rule] = []
    r_const = Const(relation.name)
    rules.append(Rule(Atom("class", (r_const,))))
    for index, (role, class_name) in enumerate(relation.roles):
        rules.append(
            Rule(
                Atom(
                    PRED_RELATION_SIG,
                    (r_const, Const(index), Const(role), Const(class_name)),
                )
            )
        )
        rules.append(Rule(Atom("method", (r_const, Const(role), Const(class_name)))))

    arg_vars = tuple(Var("X%d" % i) for i in range(relation.arity))
    tuple_term = Struct(relation.tuple_functor(), arg_vars)
    flat = Atom(relation.name, arg_vars)

    # predicate fact -> reified tuple object
    rules.append(Rule(Atom("instance", (tuple_term, r_const)), (Literal(flat),)))
    for index, (role, _cls) in enumerate(relation.roles):
        rules.append(
            Rule(
                Atom("method_inst", (tuple_term, Const(role), arg_vars[index])),
                (Literal(flat),),
            )
        )

    # any object of class R with all roles filled -> predicate fact
    t_var = Var("T")
    body = [Literal(Atom("instance", (t_var, r_const)))]
    for index, (role, _cls) in enumerate(relation.roles):
        body.append(
            Literal(Atom("method_val", (t_var, Const(role), arg_vars[index])))
        )
    rules.append(Rule(flat, tuple(body)))
    return rules
