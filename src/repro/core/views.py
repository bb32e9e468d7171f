"""Integrated view definitions (IVDs).

The mediation engineer defines global views in the GAV style, "not only
over classes from information sources, but over a combination of
information sources and the domain map" (Section 4).  Two flavours:

* :class:`IntegratedView` — plain F-logic rules over registered CMs and
  DM relations (loose federation and rule-definable views).
* :class:`DistributionView` — Example 4's ``protein_distribution``
  pattern: a mediated class whose instances carry a *distribution*
  computed by the recursive `aggregate` builtin over the domain map.
  The view declares which source class supplies the values, which
  attributes name the group (protein) and the value (amount), and which
  DM role to traverse; the mediator materializes instances on demand.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ViewError
from ..datalog.ast import Atom, Rule
from ..datalog.terms import Const, Struct


class IntegratedView:
    """A GAV view defined by F-logic rules at the mediator."""

    def __init__(self, name, fl_rules, description="", depends_on=()):
        self.name = name
        self.fl_rules = fl_rules
        self.description = description
        self.depends_on = tuple(depends_on)

    def datalog_rules(self):
        """The view's F-logic rules parsed and translated to Datalog,
        inside ``flogic.parse`` / ``flogic.translate`` obs spans.

        One definition shared by the mediator (``add_view``) and the
        medlint capability and deployment passes.
        """
        from .. import obs
        from ..flogic.parser import parse_fl_program
        from ..flogic.translate import translate_rules

        with obs.span("flogic.parse", chars=len(self.fl_rules)):
            fl_rules = parse_fl_program(self.fl_rules)
        with obs.span("flogic.translate", fl_rules=len(fl_rules)):
            return translate_rules(fl_rules)

    def __repr__(self):
        return "IntegratedView(%r)" % self.name


class DistributionView:
    """Example 4's mediated class: a distribution over the domain map.

    Attributes mirror the paper's frame::

        D : protein_distribution[protein_name -> Y; animal -> Z;
                                 distribution_root -> P; distribution -> D]

    `source_class` objects anchored at DM concepts supply `value_attr`
    numbers, grouped by `group_attr`; the mediator's aggregate builtin
    traverses `role` (has_a_star) below a chosen root.
    """

    def __init__(
        self,
        name,
        source_class,
        group_attr,
        value_attr,
        role="has",
        func="sum",
        description="",
    ):
        self.name = name
        self.source_class = source_class
        self.group_attr = group_attr
        self.value_attr = value_attr
        self.role = role
        self.func = func
        self.description = description

    def instance_id(self, group_value, root):
        """The object identifier of one materialized view instance."""
        return Struct(
            self.name, (Const(str(group_value)), Const(root))
        )

    def materialize_facts(self, group_value, root, distribution, extra=None):
        """GCM facts representing one materialized view instance.

        Emits the frame values plus one ``dist_row(D, concept, direct,
        cumulative)`` fact per region of the distribution, so the
        result is queryable from F-logic.
        """
        obj = self.instance_id(group_value, root)
        facts: List[Rule] = [
            Rule(Atom("instance", (obj, Const(self.name)))),
            Rule(
                Atom(
                    "method_inst",
                    (obj, Const(self.group_attr), Const(group_value)),
                )
            ),
            Rule(
                Atom(
                    "method_inst",
                    (obj, Const("distribution_root"), Const(root)),
                )
            ),
        ]
        for key, value in (extra or {}).items():
            facts.append(
                Rule(Atom("method_inst", (obj, Const(key), Const(value))))
            )
        for row in distribution.rows:
            if row.cumulative is None:
                continue
            facts.append(
                Rule(
                    Atom(
                        "dist_row",
                        (
                            obj,
                            Const(row.concept),
                            Const(row.direct if row.direct is not None else 0),
                            Const(row.cumulative),
                        ),
                    )
                )
            )
        return facts

    def __repr__(self):
        return "DistributionView(%r over %r)" % (self.name, self.source_class)
