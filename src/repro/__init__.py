"""repro — Model-Based Mediation with Domain Maps (ICDE 2001).

A from-scratch reproduction of the KIND model-based mediator of
Ludäscher, Gupta & Martone: sources export *conceptual models* rather
than raw XML trees, a *domain map* (a semantic net with description-
logic semantics) interrelates "multiple worlds", and integrated views
are F-logic programs executed over a Datalog engine with well-founded
negation.

Package layout (bottom-up):

* :mod:`repro.obs` — medtrace: span tracing + metrics (leaf package;
  the no-op default keeps it free when disabled).
* :mod:`repro.datalog` — Datalog with well-founded negation + aggregates.
* :mod:`repro.flogic` — F-logic front end (Table 1 fragment) compiling
  to Datalog.
* :mod:`repro.gcm` — generic conceptual model: schemas, rules, integrity
  constraints with `ic` failure witnesses.
* :mod:`repro.domainmap` — domain maps: DL edges, graph operations,
  registration, restricted reasoning.
* :mod:`repro.xmlio` — XML wire format and the CM plug-in mechanism.
* :mod:`repro.sources` — relational substrate, wrappers, query
  capabilities.
* :mod:`repro.core` — the mediator: registration, integrated views,
  query planning and execution.
* :mod:`repro.neuro` — the KIND Neuroscience scenario (ANATOM domain
  map, SYNAPSE / NCMIR / SENSELAB sources).

The names most deployments need — the mediator, the correlation query,
and the opt-in layer configurations — are re-exported here::

    from repro import Mediator, CorrelationQuery
    from repro import AnswerCache, ResiliencePolicy
"""

__version__ = "1.1.0"

from .cache.answers import AnswerCache
from .core.mediator import Mediator
from .core.planner import CorrelationQuery
from .resilience.policy import ResiliencePolicy

__all__ = [
    "AnswerCache",
    "CorrelationQuery",
    "Mediator",
    "ResiliencePolicy",
    "__version__",
]
