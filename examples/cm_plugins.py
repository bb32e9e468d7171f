"""The CM plug-in mechanism (Section 2): one GCM engine, many formalisms.

Three sources describe their conceptual models in three different
formalisms — RDF(S), UML/XMI and (E)ER — each shipped as XML together
with a *declarative translator* (itself XML: "nothing more than a
complex XML query expression that a source sends once to the
mediator").  The mediator needs only a single GCM engine.

Run:  python examples/cm_plugins.py
"""

from repro.xmlio import BUILTIN_PLUGINS
from repro.flogic import FLogicEngine


def main():
    engine = FLogicEngine()  # the mediator's single GCM engine

    for name, module in sorted(BUILTIN_PLUGINS.items()):
        result = module.translate(module.SAMPLE_DOCUMENT)
        print("=" * 64)
        print("plug-in %r translated CM %r" % (name, result.cm.name))
        print(result.cm.describe())
        if result.anchors:
            print("  anchors:", result.anchors)
        # every translated CM loads into the same engine
        engine.tell_rules(result.cm.all_rules())

    print("=" * 64)
    print("...and the same CMs register with a mediator as sources:\n")

    from repro.core import Mediator
    from repro.domainmap import DomainMap
    from repro.sources import wrapper_from_cm

    dm = DomainMap("cells")
    dm.add_concepts(["Purkinje_Cell", "Neuron"])
    mediator = Mediator(dm)
    for module in BUILTIN_PLUGINS.values():
        result = module.translate(module.SAMPLE_DOCUMENT)
        mediator.register(wrapper_from_cm(result.cm, result.anchors))
    print("registered:", mediator.source_names())
    print("semantic index:", mediator.index.coverage())
    print("anchored query:", mediator.ask("X : 'Purkinje_Cell'"))

    print("\n" + "=" * 64)
    print("one engine now answers over all three worlds:\n")

    # the RDF world
    print("RDF instance p1 is a neuron:", engine.holds("p1 : neuron"))
    print("   location:", engine.ask("p1[location -> L]"))

    # the UML world (associations became GCM relations)
    print("UML link:", engine.ask("has(X, Y)"))

    # the ER world (relationships + typed rows)
    print("ER measures:", engine.ask("measures(E, N)"))

    # and schema-level reasoning spans them all
    print("\nall classes known to the mediator:")
    print(" ", ", ".join(engine.classes()))


if __name__ == "__main__":
    main()
