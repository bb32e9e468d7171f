"""Wrappers: lifting raw source data to conceptual models.

In model-based mediation, "structural integration and lifting of data
to the conceptual level is pushed down from the mediator to wrappers
which ... export classes, associations, constraints, and query
capabilities of a source" (abstract).  A :class:`Wrapper` sits on a
:class:`~repro.sources.relstore.RelStore` and declares, per exported
class:

* which table and key column back it,
* how columns map to methods (attributes) and their result types,
* the **anchor attribute**: which DM concept each object is an instance
  of — statically, or per row via a column with an optional
  value-to-concept mapping (the paper's ``location`` attribute holding
  values like ``"Purkinje Cell"``),
* **role links** tying objects into the domain map (``role_fact``
  triples) or to other exported objects (foreign keys),
* query capabilities: binding patterns and query templates.

The wrapper answers :class:`SourceQuery` objects — validated against
the declared capabilities, mirroring real pushed-down selections — and
*lifts* result rows into GCM facts for the mediator's engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .. import obs
from ..errors import CapabilityError, SchemaError, SourceError
from ..datalog.ast import Atom, Rule
from ..datalog.terms import Const
from ..gcm.model import ConceptualModel
from .capabilities import BindingPattern, ClassCapability, QueryTemplate
from .relstore import RelStore


class SourceQuery:
    """A selection/projection request against one exported class."""

    __slots__ = ("class_name", "selections", "projection")

    def __init__(self, class_name, selections=None, projection=None):
        self.class_name = class_name
        self.selections = dict(selections or {})
        self.projection = list(projection) if projection is not None else None

    def __repr__(self):
        return "SourceQuery(%r, selections=%r)" % (self.class_name, self.selections)


class AnchorSpec:
    """How objects of a class anchor into the domain map.

    Either a static `concept`, or a per-row `column` whose value names
    the concept — optionally via a value-to-concept `mapping` (source
    vocabularies rarely match DM concept names exactly).
    """

    __slots__ = ("concept", "column", "mapping")

    def __init__(self, concept=None, column=None, mapping=None):
        if (concept is None) == (column is None):
            raise SchemaError("AnchorSpec needs exactly one of concept/column")
        self.concept = concept
        self.column = column
        self.mapping = dict(mapping or {})

    def concept_for(self, row):
        """The DM concept this row's object is anchored at (or None)."""
        if self.concept is not None:
            return self.concept
        value = row.get(self.column)
        if value is None:
            return None
        return self.mapping.get(value, value)

    def possible_concepts(self, table):
        """All concepts rows of `table` may anchor at (for the schema-
        level semantic index)."""
        if self.concept is not None:
            return {self.concept}
        return {
            self.mapping.get(value, value)
            for value in table.distinct(self.column)
            if value is not None
        }


class RoleLink:
    """A per-row role fact emitted during lifting.

    Targets either a DM concept taken from a column (``role_fact(role,
    obj, concept)``) or another exported object via foreign key
    (``role_fact(role, obj, other_object_id)``).
    """

    __slots__ = ("role", "column", "mapping", "target_class", "static_target")

    def __init__(self, role, column=None, mapping=None, target_class=None,
                 static_target=None):
        self.role = role
        self.column = column
        self.mapping = dict(mapping or {})
        self.target_class = target_class
        self.static_target = static_target
        if column is None and static_target is None:
            raise SchemaError("RoleLink needs a column or a static target")

    def target_for(self, row, wrapper):
        if self.static_target is not None:
            return self.static_target
        value = row.get(self.column)
        if value is None:
            return None
        if self.target_class is not None:
            return wrapper.object_id(self.target_class, value)
        return self.mapping.get(value, value)


class ExportedClass:
    """One class a wrapper exports, with its table binding."""

    def __init__(
        self,
        class_name,
        table_name,
        key_column,
        methods,
        superclasses=(),
        anchor=None,
        role_links=(),
    ):
        self.class_name = class_name
        self.table_name = table_name
        self.key_column = key_column
        self.methods = dict(methods)  # method name -> column name
        self.superclasses = tuple(superclasses)
        self.anchor = anchor
        self.role_links = list(role_links)


class Wrapper:
    """A wrapped source: relational store + conceptual export."""

    def __init__(self, name, store=None):
        self.name = name
        self.store = store if store is not None else RelStore(name)
        self.exports: Dict[str, ExportedClass] = {}
        self._rules: List[str] = []
        self._rule_objects: List = []
        self._template_bodies: Dict[Tuple[str, str], Callable] = {}
        self._capabilities: Dict[str, ClassCapability] = {}

    # -- declaration -------------------------------------------------------

    def export_class(
        self,
        class_name,
        table_name,
        key_column,
        methods,
        superclasses=(),
        anchor=None,
        role_links=(),
        selectable=(),
        scannable=True,
    ):
        """Export a class backed by a table.

        Args:
            methods: method name -> column name mapping.
            anchor: an :class:`AnchorSpec` (or None).
            role_links: :class:`RoleLink` objects.  Their columns and
                the anchor's must be exported by some method: lifting
                reads answer rows, which carry methods only.
            selectable: attribute names the source accepts bound
                (becomes a binding pattern); the key is always
                selectable.
            scannable: whether the mediator may browse all instances.
        """
        if class_name in self.exports:
            raise SchemaError(
                "class %r already exported by %r" % (class_name, self.name)
            )
        table = self.store.table(table_name)
        for column in [key_column] + list(methods.values()):
            if column not in table.column_names:
                raise SchemaError(
                    "table %r has no column %r" % (table_name, column)
                )
        linked = [link.column for link in role_links if link.column is not None]
        if anchor is not None and anchor.column is not None:
            linked.append(anchor.column)
        for column in linked:
            if column not in methods.values():
                raise SchemaError(
                    "class %r links through column %r, which no method exports"
                    % (class_name, column)
                )
        export = ExportedClass(
            class_name,
            table_name,
            key_column,
            methods,
            superclasses,
            anchor,
            role_links,
        )
        self.exports[class_name] = export

        attributes = sorted(methods)
        capability = ClassCapability(
            class_name, attributes, key=key_column, scannable=scannable
        )
        key_methods = [m for m, c in methods.items() if c == key_column]
        always = set(key_methods)
        if always:
            capability.allow_selection_on(always)
        if selectable:
            capability.allow_selection_on(set(selectable) | always)
        self._capabilities[class_name] = capability
        return export

    def add_rule(self, fl_text):
        """Attach semantic rules (exported with the CM)."""
        self._rules.append(fl_text)
        return self

    def add_rule_objects(self, rules):
        """Attach already-translated Datalog rules/facts (exported with
        the CM; used by CM-backed wrappers to carry relation tuples)."""
        self._rule_objects.extend(rules)
        return self

    def add_template(self, class_name, template, body):
        """Register a query template with its implementation."""
        capability = self._capability(class_name)
        capability.add_template(template)
        self._template_bodies[(class_name, template.name)] = body
        return self

    # -- exported views ----------------------------------------------------

    def schema_cm(self):
        """The conceptual model CM(S) this wrapper exports (schema +
        semantic rules, no instance data)."""
        cm = ConceptualModel(self.name)
        declared = set()
        for export in self.exports.values():
            table = self.store.table(export.table_name)
            dtype_of = {c.name: c.dtype for c in table.columns}
            methods = {}
            for method, column in sorted(export.methods.items()):
                methods[method] = _result_class(dtype_of.get(column))
            cm.add_class(export.class_name, superclasses=export.superclasses, methods=methods)
            declared.add(export.class_name)
        for export in self.exports.values():
            for sup in export.superclasses:
                if sup not in declared and sup not in cm.classes:
                    cm.add_class(sup)
                    declared.add(sup)
        for fl_text in self._rules:
            cm.add_rule(fl_text)
        if self._rule_objects:
            cm.add_datalog(list(self._rule_objects))
        return cm

    def capabilities(self):
        """Per-class capability records (sent to the mediator)."""
        return dict(self._capabilities)

    def anchors(self):
        """Schema-level anchor declarations: (class, concept, context)."""
        out = []
        for export in self.exports.values():
            if export.anchor is None:
                continue
            table = self.store.table(export.table_name)
            for concept in sorted(export.anchor.possible_concepts(table)):
                out.append((export.class_name, concept, export.anchor.column))
        return out

    # -- querying -----------------------------------------------------------

    def _capability(self, class_name):
        capability = self._capabilities.get(class_name)
        if capability is None:
            raise SourceError(
                "source %r does not export class %r" % (self.name, class_name)
            )
        return capability

    def _export(self, class_name):
        export = self.exports.get(class_name)
        if export is None:
            raise SourceError(
                "source %r does not export class %r" % (self.name, class_name)
            )
        return export

    def query(self, source_query):
        """Answer a :class:`SourceQuery`; returns row dicts (methods as
        keys, plus ``_object`` holding the lifted object id)."""
        with obs.span(
            "source.query",
            source=self.name,
            class_name=source_query.class_name,
            selections=len(source_query.selections),
        ) as span:
            export = self._export(source_query.class_name)
            capability = self._capability(source_query.class_name)
            capability.require_answerable(source_query.selections)
            where = {
                export.methods[attribute]: value
                for attribute, value in source_query.selections.items()
            }
            raw_rows = self.store.select(export.table_name, where=where)
            rows = [
                self._present(export, row, source_query.projection)
                for row in raw_rows
            ]
            if span.enabled:
                span.set(rows=len(rows))
                obs.count("source.queries", source=self.name)
                obs.count("source.rows_retrieved", len(rows), source=self.name)
            return rows

    def run_template(self, class_name, template_name, **arguments):
        """Execute a declared query template."""
        capability = self._capability(class_name)
        template = capability.templates.get(template_name)
        if template is None:
            raise CapabilityError(
                "source %r has no template %r for class %r"
                % (self.name, template_name, class_name)
            )
        template.check_arguments(arguments)
        body = self._template_bodies[(class_name, template_name)]
        export = self._export(class_name)
        with obs.span(
            "source.template",
            source=self.name,
            class_name=class_name,
            template=template_name,
        ) as span:
            raw_rows = body(self.store, **arguments)
            rows = [self._present(export, row, None) for row in raw_rows]
            if span.enabled:
                span.set(rows=len(rows))
                obs.count("source.rows_retrieved", len(rows), source=self.name)
            return rows

    def _present(self, export, raw_row, projection):
        row = {
            method: raw_row.get(column)
            for method, column in export.methods.items()
        }
        row["_object"] = self.object_id(
            export.class_name, raw_row[export.key_column]
        )
        if projection is not None:
            projected = {name: row[name] for name in projection}
            projected["_object"] = row["_object"]
            return projected
        return row

    def selection_values_for_concept(self, class_name, attribute, concept):
        """The source-vocabulary values of `attribute` that anchor at a
        DM `concept` (inverse of the anchor mapping).

        Used by the mediator to push concept-level selections: the DM
        talks about ``Purkinje_Dendrite`` while the source's location
        column holds ``"Purkinje Cell dendrite"``.
        """
        export = self._export(class_name)
        anchor = export.anchor
        if anchor is None or anchor.column is None:
            return []
        if export.methods.get(attribute) != anchor.column:
            return []
        table = self.store.table(export.table_name)
        values = []
        for value in table.distinct(anchor.column):
            if value is None:
                continue
            if anchor.mapping.get(value, value) == concept:
                values.append(value)
        return values

    # -- lifting ------------------------------------------------------------

    def object_id(self, class_name, key_value):
        """The mediator-visible object identifier of one source object."""
        return "%s.%s.%s" % (self.name, class_name, key_value)

    def lift_rows(self, class_name, rows):
        """Lift queried rows into GCM facts for the mediator's engine.

        Emits ``instance(obj, class)``, ``method_inst`` values, the
        anchor tagging ``instance(obj, concept)``, and ``role_fact``
        triples for declared role links.  Rows are what :meth:`query`
        answers (or what crossed the XML wire): a projected row lifts
        only the methods it carries.
        """
        export = self._export(class_name)
        facts: List[Rule] = []
        for row in rows:
            obj = row["_object"]
            # anchor and role-link columns, read through their methods
            columns = {
                column: row[method]
                for method, column in export.methods.items()
                if method in row
            }
            facts.append(
                Rule(Atom("instance", (Const(obj), Const(class_name))))
            )
            for method in export.methods:
                value = row.get(method)
                if value is not None:
                    facts.append(
                        Rule(
                            Atom(
                                "method_inst",
                                (Const(obj), Const(method), Const(value)),
                            )
                        )
                    )
            if export.anchor is not None:
                concept = export.anchor.concept_for(columns)
                if concept is not None:
                    facts.append(
                        Rule(Atom("instance", (Const(obj), Const(concept))))
                    )
                    # the stated anchor (never closed under subclass):
                    # distribution aggregation counts each object once,
                    # at its semantic coordinates
                    facts.append(
                        Rule(Atom("anchor", (Const(obj), Const(concept))))
                    )
            for link in export.role_links:
                target = link.target_for(columns, self)
                if target is not None:
                    facts.append(
                        Rule(
                            Atom(
                                "role_fact",
                                (Const(link.role), Const(obj), Const(target)),
                            )
                        )
                    )
        return facts

    def export_all_facts(self):
        """Eagerly lift every exported class (small-source registration)."""
        facts: List[Rule] = []
        for class_name in sorted(self.exports):
            rows = self.query(SourceQuery(class_name))
            facts.extend(self.lift_rows(class_name, rows))
        return facts

    def __repr__(self):
        return "Wrapper(%r, exports=%r)" % (self.name, sorted(self.exports))


def _result_class(dtype):
    return {
        None: "string",
        "str": "string",
        "int": "integer",
        "float": "float",
        "bool": "boolean",
    }[dtype]
