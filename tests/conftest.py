"""Shared test configuration.

The ``ci`` Hypothesis profile runs the property suites ten times
harder than the default one::

    python -m pytest tests/datalog/test_continue.py --hypothesis-profile=ci

Property tests that pin their own example count scale it by the loaded
profile (see :func:`examples`).
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000)


def examples(count):
    """`count` under the default profile, scaled by the loaded
    profile's example count relative to the default's."""
    default = settings.get_profile("default").max_examples
    return count * settings().max_examples // default


def fl_rules(fl_text):
    """`fl_text` parsed and translated to Datalog rules, the form
    ``FLogicEngine.tell_rules`` takes."""
    from repro.flogic.parser import parse_fl_program
    from repro.flogic.translate import translate_rules

    return translate_rules(parse_fl_program(fl_text))


def query(program, goal):
    """The bindings of `goal`'s variables in the model of `program`."""
    from repro.datalog.engine import evaluate, match_atom

    return match_atom(evaluate(program).store, goal)


def parse_rule(text):
    """The one Datalog clause of `text`."""
    from repro.datalog import parse_program

    (rule,) = parse_program(text)
    return rule


def parse_term(text):
    """One Datalog term."""
    from repro.datalog import parse_atom

    return parse_atom("t(%s)" % text).args[0]


def parse_fl_rule(text):
    """The one F-logic rule of `text`."""
    from repro.flogic.parser import parse_fl_program

    (rule,) = parse_fl_program(text)
    return rule


def cm_to_xml(cm):
    """A conceptual model as XML text, the registration's encoding."""
    from repro.xmlio import cm_to_element, serialize

    return serialize(cm_to_element(cm))


def cm_from_xml(text):
    """The conceptual model an XML text encodes."""
    from repro.xmlio import cm_from_element, parse_xml

    return cm_from_element(parse_xml(text))
