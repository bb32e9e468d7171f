"""Golden tests for the domain-map pass: MBM020-MBM025."""

from repro.analysis import analyze_domain_map
from repro.domainmap.model import DomainMap


def codes_of(diagnostics):
    return [d.code for d in diagnostics]


def base_map():
    dm = DomainMap("dm")
    dm.add_concepts(["a", "b", "c"])
    dm.isa("a", "b")
    dm.ex("b", "has", "c")
    return dm


class TestDanglingReferences:
    def test_clean_map_is_silent(self):
        assert analyze_domain_map(base_map()) == []

    def test_mbm020_edge_to_undeclared_concept(self):
        dm = base_map()
        dm._concepts -= {"c"}  # corrupt the map behind the API
        diags = analyze_domain_map(dm)
        assert "MBM020" in codes_of(diags)
        (diag,) = [d for d in diags if d.code == "MBM020"]
        assert "'c'" in diag.message

    def test_mbm025_edge_with_undeclared_role(self):
        dm = base_map()
        dm._roles -= {"has"}
        diags = analyze_domain_map(dm)
        assert "MBM025" in codes_of(diags)


class TestCycles:
    def test_mbm021_isa_cycle(self):
        dm = base_map()
        dm.isa("b", "a")
        diags = analyze_domain_map(dm)
        assert "MBM021" in codes_of(diags)
        (diag,) = [d for d in diags if d.code == "MBM021"]
        assert "a" in diag.message and "b" in diag.message
        assert diag.severity == "error"

    def test_mbm021_self_loop(self):
        dm = base_map()
        dm.isa("a", "a")
        diags = analyze_domain_map(dm)
        assert "MBM021" in codes_of(diags)

    def test_mbm023_circular_eqv_definitions(self):
        dm = base_map()
        dm.add_axioms(
            """
            a = b & c
            b = a & c
            """
        )
        diags = analyze_domain_map(dm)
        assert "MBM023" in codes_of(diags)

    def test_acyclic_eqv_definition_is_fine(self):
        dm = base_map()
        dm.add_axioms("a = b & c")
        assert "MBM023" not in codes_of(analyze_domain_map(dm))


class TestIsolationAndAnchors:
    def test_mbm022_isolated_concept(self):
        dm = base_map()
        dm.add_concept("floating")
        diags = analyze_domain_map(dm)
        assert codes_of(diags) == ["MBM022"]
        assert diags[0].severity == "info"
        assert "'floating'" in diags[0].message

    def test_anchor_suppresses_isolation(self):
        dm = base_map()
        dm.add_concept("floating")
        diags = analyze_domain_map(dm, anchors=[("S", "cls", "floating")])
        assert "MBM022" not in codes_of(diags)

    def test_mbm024_anchor_to_missing_concept(self):
        dm = base_map()
        diags = analyze_domain_map(dm, anchors=[("S", "cls", "nowhere")])
        assert "MBM024" in codes_of(diags)
        (diag,) = [d for d in diags if d.code == "MBM024"]
        assert "S.cls" in diag.message
        assert "source S" in str(diag.span)
