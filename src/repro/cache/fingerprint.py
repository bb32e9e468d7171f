"""Deterministic fingerprints for source calls.

A fingerprint identifies "the same question to the same source under
the same contract": the source name, the exported class, the bound
selections and projection, and a signature of the class's declared
query capability.  Two calls with equal fingerprints are guaranteed the
same answer as long as the source's data is unchanged — which is what
the invalidation engine (:mod:`repro.cache.invalidation`) watches for.

The capability signature matters because a re-registered source may
export the same class under different binding patterns or templates:
pushing the same selections could then legally return different rows
(a pattern the source filters vs. one the mediator filters locally),
so such answers must not be conflated.
"""

from __future__ import annotations


def _canonical(value):
    """A hashable, deterministically comparable stand-in for a
    selection value (selection values are normally str/int/float, but
    nothing stops a wrapper from accepting richer ones)."""
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


def capability_signature(capability):
    """A hashable signature of one :class:`ClassCapability`: attributes,
    key, scannability, binding patterns, template names."""
    if capability is None:
        return None
    return (
        tuple(capability.attributes),
        capability.key,
        bool(capability.scannable),
        tuple(
            sorted(
                (tuple(pattern.attributes), pattern.pattern)
                for pattern in capability.binding_patterns
            )
        ),
        tuple(sorted(capability.templates)),
    )


def query_fingerprint(source, source_query, signature=None):
    """The cache key of one source call.

    ``(source, class, sorted selections, projection, capability
    signature)`` — plain nested tuples, so keys are hashable, ordered
    deterministically, and printable.  `signature` is the class's
    :func:`capability_signature`, computed once when the source
    registers (None without a capability).
    """
    return (
        source,
        source_query.class_name,
        tuple(
            sorted(
                (attr, _canonical(value))
                for attr, value in source_query.selections.items()
            )
        ),
        tuple(source_query.projection)
        if source_query.projection is not None
        else None,
        signature,
    )
