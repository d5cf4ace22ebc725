"""``repro.serve``: the what-if serving tier.

The paper's §7 what-if analysis is the product this repository grows
toward — and a full simulation per query cannot serve it at scale.
This package answers queries through three tiers, cheapest first:

1. a **content-addressed result store** (:mod:`.store`): every result
   ever computed — by a campaign sweep, a serve-tier miss or the
   verifier — is addressable by the stable hash of its inputs, so a
   repeated query costs one JSON read;
2. **surrogate models** (:mod:`.surrogate`): the paper's §6 analytic
   composition plus multilinear interpolation fitted over swept axes,
   each with an explicit *validity envelope* — an in-envelope query is
   answered in microseconds without simulating, an out-of-envelope
   query falls back to simulation rather than extrapolating;
3. **simulation** as the backstop for store misses outside every
   envelope, fanned out across the campaign layer's process pool
   (:func:`repro.campaign.runner.execute_points`).

Simulation is also the *auditor*: a sampled verifier (:mod:`.verify`)
re-simulates a configurable fraction of surrogate answers and
quarantines any surrogate whose error exceeds the margin (5% by
default), so surrogates stay honest without paying for verification on
every query.

Front doors: :class:`repro.serve.service.ServeTier` (or
``Experiment.serve()`` / ``Experiment.query()`` in :mod:`repro.api`),
and ``python -m repro serve`` for batch query files.  See
docs/serving.md.
"""

from __future__ import annotations

from typing import Any

from repro.serve.store import ResultStore, code_version, query_key

__all__ = [
    "AnalyticSurrogate",
    "Answer",
    "Envelope",
    "InterpolatedSurrogate",
    "OutOfEnvelope",
    "Query",
    "ResultStore",
    "SampledVerifier",
    "ServeTier",
    "code_version",
    "fit_surrogate",
    "query_key",
]

#: Names resolved lazily so that importing the store (which the
#: campaign layer builds on) never drags the campaign layer back in.
_LAZY = {
    "AnalyticSurrogate": "repro.serve.surrogate",
    "Envelope": "repro.serve.surrogate",
    "InterpolatedSurrogate": "repro.serve.surrogate",
    "OutOfEnvelope": "repro.serve.surrogate",
    "fit_surrogate": "repro.serve.surrogate",
    "SampledVerifier": "repro.serve.verify",
    "Answer": "repro.serve.service",
    "Query": "repro.serve.service",
    "ServeTier": "repro.serve.service",
}


def __getattr__(name: str) -> Any:
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.serve' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return sorted(__all__)
