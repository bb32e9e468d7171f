"""Shared deployment builders for the medlint test suite."""

import pytest

from repro.core.mediator import Mediator
from repro.core.views import IntegratedView
from repro.domainmap.model import DomainMap
from repro.sources import Column, RelStore, Wrapper


def build_broken_deployment():
    """A deployment seeded with one defect per analyzer pass:

    * an unsafe view rule (head variable unbound)        -> MBM001
    * an isa cycle in the domain map                     -> MBM021
    * a class capability no query can ever be answered   -> MBM031
    * a view over a class nothing supplies               -> MBM030
    """
    dm = DomainMap("broken")
    dm.add_concepts(["alpha", "beta", "gamma", "lonely"])
    dm.isa("alpha", "beta")
    dm.isa("beta", "alpha")

    store = RelStore("s")
    store.create_table("t", [Column("id", "str"), Column("v", "int")], key="id")
    store.table("t").insert({"id": "x", "v": 1})

    wrapper = Wrapper("SRC", store)
    wrapper.export_class(
        "thing", "t", "id", {"ident": "id", "v": "v"}, scannable=False
    )
    wrapper.capabilities()["thing"].binding_patterns.clear()

    mediator = Mediator(dm=dm, name="broken_med")
    mediator.register(wrapper, eager=False)
    mediator.add_view(IntegratedView("bad_view", "X : ghost_class[v -> Y]."))
    mediator.add_view(
        IntegratedView("dead", "X : dead_out :- X : nonexistent_class.")
    )
    return mediator


@pytest.fixture
def broken_mediator():
    return build_broken_deployment()


@pytest.fixture(scope="session")
def kind_mediator():
    from repro.neuro import build_scenario

    return build_scenario(include_anatom_source=True).mediator
