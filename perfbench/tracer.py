"""The outside tracer: per-layer spans recorded around repro's public
functions, without changing a line under ``src/``.

Each layer is a list of functions (``module:qualname``).  Installing the
tracer wraps every one of them and patches the wrapper in *wherever the
function is bound*: a module-level function is replaced in its defining
module and in every ``repro`` module that imported it by name (so
``repro.core.planner.lub`` is traced, not only ``graphops.lub``); a
method is replaced on its class.  While recording, each call appends a
span ``[layer, parent index, start, end, rows]``; self time is the
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

GRAPHOPS = (
    "transitive_closure",
    "isa_graph",
    "isa_closure",
    "role_graph",
    "deductive_closure",
    "has_a_star",
    "navigation_graph",
    "role_containers",
    "ancestors",
    "descendants",
    "upper_bounds",
    "least_upper_bounds",
    "lub",
    "part_graph",
    "part_tree",
    "downward_closure",
    "region_of_correspondence",
    "closure_program",
    "closure_rules",
)

XMLIO = (
    "repro.xmlio.messages:query_to_xml",
    "repro.xmlio.messages:query_from_xml",
    "repro.xmlio.messages:template_query_to_xml",
    "repro.xmlio.messages:template_query_from_xml",
    "repro.xmlio.messages:rows_to_xml",
    "repro.xmlio.messages:rows_from_xml",
    "repro.xmlio.messages:handle_request",
    "repro.core.registration:build_registration",
    "repro.core.registration:parse_registration",
)

#: the five plan step kinds of the Section 5 plan and their classes
STEP_KINDS = {
    "push-selection": "PushSelectionStep",
    "select-sources": "SelectSourcesStep",
    "retrieve": "RetrieveAnchoredStep",
    "compute-lub": "ComputeLubStep",
    "aggregate": "AggregateStep",
}

#: layer name -> the functions whose calls are that layer's spans
LAYERS = {
    "datalog.evaluate": ["repro.datalog.engine:evaluate"],
    "datalog.stratify": [
        "repro.datalog.stratify:stratify",
        "repro.datalog.stratify:is_aggregate_stratified",
    ],
    "datalog.safety": [
        "repro.datalog.safety:check_program_safety",
        "repro.datalog.safety:check_rule_safety",
    ],
    "datalog.provenance": ["repro.datalog.provenance:explain"],
    "domainmap.graphops": ["repro.domainmap.graphops:%s" % name for name in GRAPHOPS],
    "domainmap.compile": ["repro.domainmap.execute:compile_domain_map"],
    "flogic.ask": ["repro.flogic.engine:FLogicEngine.ask"],
    "core.mediator.assembled_rules": ["repro.core.mediator:Mediator.assembled_rules"],
    "core.aggregate": ["repro.core.aggregate:aggregate_over_dm"],
    "xmlio": list(XMLIO),
    "sources.query": ["repro.sources.wrapper:Wrapper.query"],
    "sources.lift_rows": ["repro.sources.wrapper:Wrapper.lift_rows"],
    "cache.lookup": ["repro.cache.answers:AnswerCache.lookup"],
    "resilience.call": ["repro.resilience.guard:SourceGuard.call"],
}
LAYERS.update(
    ("core.planner.%s" % kind, ["repro.core.planner:%s.run" % cls])
    for kind, cls in STEP_KINDS.items()
)

#: the one layer whose spans also record the returned list's length
ROWS_LAYER = "sources.query"

#: the layer name of the root span the runner opens around each op
OP = "op"


class OutsideTracer:
    """Wraps the :data:`LAYERS` functions; records spans while
    :attr:`recording` is on.  Use as a context manager: patches are
    removed on exit."""

    def __init__(self):
        self.recording = False
        self.spans = []
        self._stack = []
        self._patches = []

    # -- patching ----------------------------------------------------------

    def __enter__(self):
        for layer, targets in LAYERS.items():
            for target in targets:
                self._patch(layer, target)
        return self

    def __exit__(self, *exc_info):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        self.recording = False
        return False

    def _patch(self, layer, target):
        module_name, qualname = target.split(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attribute = qualname.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attribute]
            self._set(owner, attribute, self._wrap(layer, original))
            return
        original = getattr(module, qualname)
        traced = self._wrap(layer, original)
        for name, loaded in sorted(sys.modules.items()):
            if loaded is not None and (name == "repro" or name.startswith("repro.")):
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, attribute, traced)

    def _set(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _wrap(self, layer, fn):
        count_rows = layer == ROWS_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = self.open(layer)
            try:
                result = fn(*args, **kwargs)
                if count_rows:
                    span[4] = len(result)
                return result
            finally:
                self.close(span)

        return traced

    # -- spans -------------------------------------------------------------

    def open(self, layer):
        """Start a span of `layer` under the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        span = [layer, parent, perf_counter(), None, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span[3] = perf_counter()
        self._stack.pop()

    def layer_totals(self):
        """``{layer: [calls, self seconds, rows]}`` over the recorded
        spans, self time being duration minus child durations."""
        child_time = [0.0] * len(self.spans)
        for layer, parent, start, end, _rows in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for index, (layer, _parent, start, end, rows) in enumerate(self.spans):
            entry = totals.setdefault(layer, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += (end - start) - child_time[index]
            entry[2] += rows
        return totals

    def op_durations(self):
        """Durations of the root ``op`` spans, in order."""
        return [end - start for layer, parent, start, end, _ in self.spans if parent < 0]
