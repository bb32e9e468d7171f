"""Property test: program text round-trips through print + parse."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    Atom,
    Comparison,
    Const,
    Literal,
    Program,
    Rule,
    Struct,
    Var,
    parse_program,
)

# constants whose printed form reparses to the same value
safe_consts = st.one_of(
    st.integers(-1000, 1000),
    st.floats(
        allow_nan=False, allow_infinity=False, min_value=-100, max_value=100
    ).map(lambda f: round(f, 3)),
    st.sampled_from(["a", "b", "neuron", "Purkinje Cell", "it's", 'x "y"']),
).map(Const)

variables = st.sampled_from(["X", "Y", "Z", "Long_Name"]).map(Var)

terms = st.one_of(
    safe_consts,
    variables,
    st.builds(
        lambda f, args: Struct(f, tuple(args)),
        st.sampled_from(["f", "g", "skolem"]),
        st.lists(safe_consts, min_size=1, max_size=3),
    ),
)

atoms = st.builds(
    lambda p, args: Atom(p, tuple(args)),
    st.sampled_from(["p", "q", "edge", "method_inst"]),
    st.lists(terms, min_size=0, max_size=3),
)


@st.composite
def safe_rules(draw):
    """Rules that satisfy the safety checker by construction: the head
    reuses only variables from a positive body atom."""
    body_atom = draw(atoms)
    body_vars = list({v for v in body_atom.variables()})
    head_args = draw(
        st.lists(
            st.one_of(safe_consts, st.sampled_from(body_vars))
            if body_vars
            else safe_consts,
            min_size=0,
            max_size=3,
        )
    )
    head = Atom(draw(st.sampled_from(["h", "out"])), tuple(head_args))
    body = [Literal(body_atom)]
    if body_vars and draw(st.booleans()):
        body.append(Comparison("!=", draw(st.sampled_from(body_vars)), Const(0)))
    return Rule(head, tuple(body))


ground_facts = st.builds(
    lambda p, args: Rule(Atom(p, tuple(args))),
    st.sampled_from(["p", "edge"]),
    st.lists(
        st.one_of(
            safe_consts,
            st.builds(
                lambda f, args: Struct(f, tuple(args)),
                st.sampled_from(["f", "g"]),
                st.lists(safe_consts, min_size=1, max_size=2),
            ),
        ),
        min_size=0,
        max_size=3,
    ),
)


class TestTextRoundtrip:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(ground_facts, min_size=1, max_size=8))
    def test_facts_roundtrip(self, facts):
        program = Program(facts)
        reparsed = parse_program(str(program))
        assert set(reparsed) == set(program)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(safe_rules(), min_size=1, max_size=6))
    def test_rules_roundtrip(self, rules):
        program = Program(rules)
        reparsed = parse_program(str(program))
        assert set(reparsed) == set(program)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(ground_facts, min_size=1, max_size=6))
    def test_double_roundtrip_fixpoint(self, facts):
        once = str(Program(facts))
        twice = str(parse_program(once))
        assert list(parse_program(twice)) == list(parse_program(once))
