"""The F-logic axioms of Table 1, as Datalog rules.

Three groups:

* :func:`core_axioms` — the paper's minimal axiom set: reflexivity of
  ``::`` over the metaclass `class`, transitivity of ``::``, upward
  propagation of ``:`` along ``::``, plus the bookkeeping rules deriving
  `class` membership from usage and the `method_val` bridge that makes
  stated values visible to body frames.
* :func:`signature_inheritance_axioms` — structural inheritance:
  signatures propagate down the class hierarchy (subclasses inherit
  their superclass's slot structure; Section 3).
* :func:`value_inheritance_axioms` — nonmonotonic value inheritance of
  ``*->`` defaults: an instance inherits a default from class C unless a
  strictly more specific class redefines it or the instance has a
  locally stated value.  When user rules derive stated values *from*
  inherited ones this becomes negation through recursion, and the engine
  evaluates it under the well-founded semantics — exactly the treatment
  the paper prescribes ("nonmonotonic inheritance, e.g., using FL with
  well-founded semantics can be employed", Section 4).
"""

from __future__ import annotations

from ..datalog.parser import parse_program

_CORE = """
% Table 1: '::' is reflexive on classes and transitive; ':' propagates up.
subclass(C, C) :- class(C).
subclass(C1, C2) :- subclass(C1, C3), subclass(C3, C2).
instance(X, C2) :- instance(X, C1), subclass(C1, C2).

% The metaclass 'class' is populated from usage.
class(C) :- subclass(C, _).
class(C) :- subclass(_, C).
class(C) :- instance(_, C).
class(C) :- method(C, _, _).
class(C) :- method(_, _, C).
class(C) :- default_val(C, _, _).

% The metaclass: every class is an instance of 'class' (enables the
% paper's schema-level reasoning, e.g. Example 2 with C = class).
instance(C, class) :- class(C).

% Body frames read method_val: stated values are always visible.
method_val(X, M, V) :- method_inst(X, M, V).
"""

_SIGNATURE_INHERITANCE = """
% Structural inheritance: subclasses inherit signatures.
method(C1, M, CM) :- subclass(C1, C2), method(C2, M, CM).
"""

_VALUE_INHERITANCE = """
% Nonmonotonic value inheritance of '*->' defaults.
method_val(X, M, V) :- inherits(X, M, V).
inherits(X, M, V) :- instance(X, C), default_val(C, M, V),
                     not shadowed(X, M, C).
% Shadowed by a locally stated value ...
shadowed(X, M, C) :- instance(X, C), default_val(C, M, _),
                     method_inst(X, M, _).
% ... or by a default on a strictly more specific class.
shadowed(X, M, C) :- instance(X, C), default_val(C, M, _),
                     instance(X, C1), subclass(C1, C), C1 != C,
                     default_val(C1, M, _).
"""


def core_axioms():
    """The mandatory Table 1 axiom rules."""
    return list(parse_program(_CORE))


def signature_inheritance_axioms():
    """Downward propagation of method signatures."""
    return list(parse_program(_SIGNATURE_INHERITANCE))


def value_inheritance_axioms():
    """Nonmonotonic default-value inheritance rules."""
    return list(parse_program(_VALUE_INHERITANCE))

