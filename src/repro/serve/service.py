"""The serving tier: store hit → surrogate → simulation, audited.

:class:`ServeTier` is the front door of :mod:`repro.serve`.  One query
— a workload name, parameters, optional config overrides and a seed —
flows through three tiers, cheapest first:

1. **store**: the content-addressed result store is consulted under
   the same key a campaign sweep would use, so anything ever simulated
   (by a campaign, a previous query or the verifier) answers in one
   JSON read;
2. **surrogate**: the first non-quarantined surrogate whose validity
   envelope contains the query predicts without simulating.  A sampled
   fraction of these answers is re-simulated by the
   :class:`~repro.serve.verify.SampledVerifier`; an answer that fails
   its audit is replaced by the fresh simulation and the surrogate is
   quarantined;
3. **simulation**: everything else runs the real workload — inline for
   single queries, fanned out across a process pool for batches (see
   :func:`repro.campaign.runner.execute_points`) — and the result is
   written back to the store, so the same question is never simulated
   twice.

Counters mirror :mod:`repro.trace`'s style: monotonically increasing
totals (queries, store hits, surrogate hits, simulations, ...) with
derived rates in :meth:`ServeTier.stats`.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Any

from repro.node.config import SystemConfig
from repro.serve.store import ResultStore, query_key
from repro.serve.surrogate import (
    AnalyticSurrogate,
    InterpolatedSurrogate,
    OutOfEnvelope,
    fit_surrogate,
    normalized_config_hash,
)
from repro.serve.verify import SampledVerifier, Verification

__all__ = ["Answer", "Query", "ServeTier"]

#: Answer sources, cheapest first.
SOURCE_STORE = "store"
SOURCE_SURROGATE = "surrogate"
SOURCE_SIMULATION = "simulation"
SOURCE_ERROR = "error"


@dataclass(frozen=True)
class Query:
    """One what-if question for the serving tier.

    ``params`` keys containing a dot are config overrides (the
    :class:`~repro.campaign.spec.SweepAxis` convention), and are moved
    into ``config_overrides`` automatically — a query file can say
    ``{"payload_bytes": 64, "nic.txq_depth": 4}`` without caring which
    side each knob lives on.
    """

    workload: str
    params: dict[str, Any] = field(default_factory=dict)
    config_overrides: dict[str, Any] = field(default_factory=dict)
    seed: int = 2019

    def __post_init__(self) -> None:
        dotted = {k: v for k, v in self.params.items() if "." in k}
        if dotted:
            params = {k: v for k, v in self.params.items() if "." not in k}
            object.__setattr__(self, "params", params)
            object.__setattr__(
                self, "config_overrides", {**self.config_overrides, **dotted}
            )

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Query":
        """Build from a query-file entry (see ``python -m repro serve``)."""
        return cls(
            workload=payload["workload"],
            params=dict(payload.get("params", {})),
            config_overrides=dict(payload.get("config_overrides", {})),
            seed=int(payload.get("seed", 2019)),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-encodable form."""
        return {
            "workload": self.workload,
            "params": dict(self.params),
            "config_overrides": dict(self.config_overrides),
            "seed": self.seed,
        }


@dataclass
class Answer:
    """A served result plus full provenance.

    ``source`` says which tier answered; ``key`` is the store address
    the result lives (or would live) under; ``verification`` is the
    audit record when this answer was sampled for verification.
    """

    query: Query
    measurements: dict[str, Any]
    source: str
    key: str
    config_hash: str
    surrogate: str | None = None
    verification: Verification | None = None
    error: str | None = None
    #: Host seconds spent producing this answer (not deterministic).
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True unless the backing simulation failed."""
        return self.source != SOURCE_ERROR

    def to_dict(self, include_host: bool = True) -> dict[str, Any]:
        """JSON form; ``include_host=False`` drops host-time fields so
        two runs over the same store compare byte-identical."""
        payload: dict[str, Any] = {
            "query": self.query.to_dict(),
            "measurements": self.measurements,
            "source": self.source,
            "key": self.key,
            "config_hash": self.config_hash,
            "surrogate": self.surrogate,
            "verification": (
                self.verification.to_dict() if self.verification else None
            ),
            "error": self.error,
        }
        if include_host:
            payload["duration_s"] = self.duration_s
        return payload


def _workload_defaults(workload: str) -> dict[str, Any]:
    """Keyword defaults of a workload (sans ``config``), for envelope checks."""
    from repro.campaign.workloads import get_workload

    parameters = inspect.signature(get_workload(workload)).parameters
    return {
        name: parameter.default
        for name, parameter in parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


class ServeTier:
    """Answer what-if queries through store, surrogates and simulation.

    Parameters
    ----------
    store:
        A :class:`~repro.serve.store.ResultStore` or a directory path
        for one.  Campaigns pointed at the same directory share it.
    base_config:
        The system every query is asked about; per-query
        ``config_overrides`` evolve it.  Defaults to the paper testbed
        with deterministic timing (surrogates predict means).
    verifier:
        The sampled verifier; ``None`` builds the default
        (``fraction=0.1, margin=0.05``).  Pass ``fraction=0`` to
        disable auditing.
    jobs:
        Default worker processes for batch cache misses and for
        :meth:`fit` campaigns.
    """

    def __init__(
        self,
        store: ResultStore | str | Any,
        base_config: SystemConfig | None = None,
        verifier: SampledVerifier | None = None,
        jobs: int = 1,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.base_config = base_config or SystemConfig.paper_testbed(
            deterministic=True
        )
        self.verifier = verifier if verifier is not None else SampledVerifier()
        self.jobs = jobs
        self.surrogates: list[InterpolatedSurrogate | AnalyticSurrogate] = []
        self._base_hash = normalized_config_hash(self.base_config)
        self.counters: dict[str, int] = {
            "queries": 0,
            "store_hits": 0,
            "surrogate_hits": 0,
            "simulations": 0,
            "errors": 0,
            "out_of_envelope": 0,
        }

    # -- surrogate management ----------------------------------------------
    def add_surrogate(
        self, surrogate: InterpolatedSurrogate | AnalyticSurrogate
    ) -> None:
        """Register a fitted or analytic surrogate for query answering."""
        if surrogate.envelope.config_hash != self._base_hash:
            raise ValueError(
                f"surrogate {surrogate.name!r} was fitted against config "
                f"{surrogate.envelope.config_hash}, but this tier serves "
                f"{self._base_hash}"
            )
        self.surrogates.append(surrogate)

    def fit(
        self,
        workload: str,
        axes: dict[str, Any],
        params: dict[str, Any] | None = None,
        seeds: tuple[int, ...] = (2019,),
        metrics: list[str] | None = None,
        free_params: tuple[str, ...] = (),
        name: str | None = None,
        jobs: int | None = None,
    ) -> InterpolatedSurrogate:
        """Sweep ``axes`` over the base config, fit and register a surrogate.

        The campaign writes every point into this tier's store, so the
        fit both trains the surrogate *and* warms the store — the grid
        points themselves will answer from tier 1.
        """
        from repro.campaign.runner import run_campaign
        from repro.campaign.spec import CampaignSpec, SweepAxis

        spec = CampaignSpec(
            name=name or f"fit-{workload}",
            workload=workload,
            base_config=self.base_config,
            axes=tuple(SweepAxis(key, tuple(values)) for key, values in axes.items()),
            params=params or {},
            seeds=seeds,
        )
        result = run_campaign(
            spec, jobs=jobs or self.jobs, cache_dir=self.store.directory
        )
        surrogate = fit_surrogate(
            result,
            axes=list(axes),
            base_config=self.base_config,
            metrics=metrics,
            free_params=free_params,
            name=name,
        )
        self.surrogates.append(surrogate)
        return surrogate

    # -- query plumbing ----------------------------------------------------
    def _resolve(self, query: Query) -> tuple[SystemConfig, str, dict[str, Any]]:
        """(resolved config, store key, params-with-defaults) of a query.

        The key mirrors the campaign runner exactly — same overrides
        application, same seed placement, same params-as-given — so
        campaign-produced entries answer serve queries and vice versa.
        """
        from repro.campaign.spec import apply_config_overrides

        config = apply_config_overrides(self.base_config, query.config_overrides)
        config = config.evolve(seed=query.seed)
        key = query_key(query.workload, config, query.params, query.seed)
        resolved = {**_workload_defaults(query.workload), **query.params}
        return config, key, resolved

    def _implied_overrides(
        self, envelope: Any, config_overrides: dict[str, Any]
    ) -> dict[str, Any]:
        """Fill dotted envelope axes the query left at their config value.

        A query that omits ``network.switch_count`` still *has* a hop
        count — the base config's — so the envelope check and the
        prediction both see it explicitly.
        """
        implied = dict(config_overrides)
        for axis in envelope.axes:
            if "." not in axis or axis in implied:
                continue
            value: Any = self.base_config
            try:
                for attr in axis.split("."):
                    value = getattr(value, attr)
            except AttributeError:
                continue
            implied[axis] = value
        return implied

    def _match(
        self, query: Query, resolved: dict[str, Any]
    ) -> tuple[Any, dict[str, Any]] | None:
        """First non-quarantined surrogate whose envelope contains ``query``.

        Returns the surrogate plus the config overrides to predict with
        (the query's, completed with base-config values for dotted axes
        the query left implicit).
        """
        eligible = False
        for surrogate in self.surrogates:
            if surrogate.envelope.workload != query.workload:
                continue
            eligible = True
            if surrogate.quarantined:
                continue
            overrides = self._implied_overrides(
                surrogate.envelope, query.config_overrides
            )
            if surrogate.envelope.contains(resolved, overrides, self._base_hash):
                return surrogate, overrides
        if eligible:
            self.counters["out_of_envelope"] += 1
        return None

    def _payload(self, query: Query, config: SystemConfig, key: str) -> tuple:
        """A :func:`repro.campaign.runner.execute_points` payload for a miss."""
        return (
            "serve",  # campaign name slot — shows up in record provenance
            0,
            query.workload,
            config,
            query.params,
            query.seed,
            query.config_overrides,
            key,
            False,  # trace
            None,  # timeout_s
            0,  # retries
            0.0,  # retry_backoff_s
            str(self.store.directory),
        )

    def _answer_from_record(
        self,
        query: Query,
        key: str,
        record: dict[str, Any],
        source: str,
        verification: Verification | None = None,
    ) -> Answer:
        if record.get("status") != "ok":
            self.counters["errors"] += 1
            return Answer(
                query=query,
                measurements={},
                source=SOURCE_ERROR,
                key=key,
                config_hash=record.get("config_hash", ""),
                error=record.get("error") or "simulation failed",
                verification=verification,
            )
        return Answer(
            query=query,
            measurements=dict(record["measurements"]),
            source=source,
            key=key,
            config_hash=record.get("config_hash", ""),
            verification=verification,
        )

    # -- the front door ----------------------------------------------------
    def query(
        self,
        workload: str | Query,
        params: dict[str, Any] | None = None,
        config_overrides: dict[str, Any] | None = None,
        seed: int = 2019,
    ) -> Answer:
        """Answer one what-if question (store → surrogate → simulation)."""
        if isinstance(workload, Query):
            q = workload
        else:
            q = Query(workload, params or {}, config_overrides or {}, seed)
        (answer,) = self.query_batch([q], jobs=1)
        return answer

    def query_batch(
        self, queries: list[Query], jobs: int | None = None
    ) -> list[Answer]:
        """Answer many queries; cache misses fan out across ``jobs`` workers.

        Answers come back in query order.  Store and surrogate answers
        cost microseconds; the remaining misses (plus the sampled
        verification re-simulations) run through
        :func:`repro.campaign.runner.execute_points`, on a process pool
        when ``jobs > 1``.
        """
        from repro.campaign.runner import execute_points

        jobs = jobs if jobs is not None else self.jobs
        started = time.perf_counter()
        answers: list[Answer | None] = [None] * len(queries)
        #: query index -> simulation payload (misses + sampled audits).
        needs_sim: dict[int, tuple] = {}
        #: query index -> (surrogate, prediction) awaiting its audit.
        audits: dict[int, tuple[Any, dict[str, float]]] = {}

        for index, q in enumerate(queries):
            self.counters["queries"] += 1
            config, key, resolved = self._resolve(q)
            cached = self.store.get(key)
            if cached is not None and cached.get("status") == "ok":
                self.counters["store_hits"] += 1
                answers[index] = self._answer_from_record(
                    q, key, cached, SOURCE_STORE
                )
                continue
            match = self._match(q, resolved)
            surrogate = None
            if match is not None:
                surrogate, implied = match
                try:
                    predicted = surrogate.predict(resolved, implied)
                except OutOfEnvelope:  # pragma: no cover - envelope said yes
                    surrogate = None
            if surrogate is not None:
                self.counters["surrogate_hits"] += 1
                if self.verifier.should_verify():
                    audits[index] = (surrogate, predicted)
                    needs_sim[index] = self._payload(q, config, key)
                else:
                    answers[index] = Answer(
                        query=q,
                        measurements=predicted,
                        source=SOURCE_SURROGATE,
                        key=key,
                        config_hash=config.stable_hash(),
                        surrogate=surrogate.name,
                    )
                continue
            needs_sim[index] = self._payload(q, config, key)

        if needs_sim:
            items = sorted(needs_sim.items())
            payloads = [payload for _, payload in items]
            self.counters["simulations"] += len(payloads)
            records = execute_points(payloads, jobs)
            for (index, payload), record in zip(items, records):
                q, key = queries[index], payload[7]
                if index in audits:
                    surrogate, predicted = audits[index]
                    if record.get("status") != "ok":
                        # Can't audit against a failed simulation; the
                        # error is the answer either way.
                        self.counters["surrogate_hits"] -= 1
                        answers[index] = self._answer_from_record(
                            q, key, record, SOURCE_ERROR
                        )
                        continue
                    verification = self.verifier.check(
                        surrogate, predicted, record["measurements"]
                    )
                    if verification.passed:
                        answers[index] = Answer(
                            query=q,
                            measurements=predicted,
                            source=SOURCE_SURROGATE,
                            key=key,
                            config_hash=record.get("config_hash", ""),
                            surrogate=surrogate.name,
                            verification=verification,
                        )
                    else:
                        # Audit failed: serve the truth, not the guess.
                        self.counters["surrogate_hits"] -= 1
                        answers[index] = self._answer_from_record(
                            q, key, record, SOURCE_SIMULATION, verification
                        )
                else:
                    answers[index] = self._answer_from_record(
                        q, key, record, SOURCE_SIMULATION
                    )

        elapsed = time.perf_counter() - started
        for answer in answers:
            assert answer is not None
            answer.duration_s = elapsed / len(queries) if queries else 0.0
        return answers  # type: ignore[return-value]

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Counter totals plus derived rates, store and verifier stats."""
        queries = self.counters["queries"]

        def rate(count: int) -> float:
            return count / queries if queries else 0.0

        return {
            **self.counters,
            "rates": {
                "store_hit": rate(self.counters["store_hits"]),
                "surrogate_hit": rate(self.counters["surrogate_hits"]),
                "simulation": rate(self.counters["simulations"]),
                "out_of_envelope": rate(self.counters["out_of_envelope"]),
            },
            "surrogates": [
                {
                    "name": surrogate.name,
                    "quarantined": surrogate.quarantined,
                    "workload": surrogate.envelope.workload,
                }
                for surrogate in self.surrogates
            ],
            "store": self.store.stats(),
            "verifier": self.verifier.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ServeTier store={self.store.directory} "
            f"surrogates={len(self.surrogates)} "
            f"queries={self.counters['queries']}>"
        )
