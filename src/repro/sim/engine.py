"""The fleet-engine core: one billing fold, one shard merge, one worker pool.

Every fleet engine prices a request by the paper's Lambda rule (§5): the
handler's run time — the sum of its component latencies — rounds up to
100 ms units, then bills as GB-seconds plus per-request and transfer
charges. This module is the one home of that rule: :func:`fold_chunk`
is the scalar fold of the batched engine and the batched replayer,
:class:`ShardFold` the vectorized fold (numpy, or a bit-identical
fallback) of the sharded engine and the sharded replayer, and
:func:`meter_rollup` the single float conversion all four make from
exact integers. :func:`merge_totals` is the shared part of a shard
merge and :func:`map_jobs` the process pool. What stays with each
engine is where its arrivals come from and how it counts them per
tenant; every RNG draw and meter call happens in the same order as
before the core existed, so every golden stays byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.billing import BillingMeter, UsageKind
from repro.errors import ConfigurationError
from repro.sim import vecmath
from repro.sim.metrics import AvailabilityTracker, MetricSeries, sla_report
from repro.units import MICROS_PER_HOUR

__all__ = [
    "HANDLER_COMPONENTS",
    "handler_components",
    "store_usage",
    "billed_units",
    "gb_seconds",
    "meter_requests",
    "meter_rollup",
    "fold_chunk",
    "ShardFold",
    "merge_totals",
    "MergedDigests",
    "served_tracker",
    "fleet_sla_report",
    "map_jobs",
]

# The per-request handler profile: invocation overhead plus the §6.2
# chat prototype's dominant service calls (store ciphertext, notify).
HANDLER_COMPONENTS: Tuple[str, ...] = ("lambda.handler_base", "s3.put", "sqs.send")

_BILLING_GRANULARITY_MICROS = 100_000  # Lambda bills in 100 ms increments
_USAGE_PER_COMPONENT: Dict[str, UsageKind] = {
    "s3.put": UsageKind.S3_PUT,
    "dynamo.put": UsageKind.DYNAMO_WRITES,
    "sqs.send": UsageKind.SQS_REQUESTS,
}


def handler_components(storage: str = "s3") -> Tuple[str, ...]:
    """The per-request component profile for one storage backend.

    ``"s3"`` is :data:`HANDLER_COMPONENTS` itself — same strings, same
    RNG namespaces, so default configs stay byte-identical to the
    seed-era goldens. ``"dynamo"`` swaps the state write for the KV
    backend's component (its own canonical stream).
    """
    if storage == "dynamo":
        return ("lambda.handler_base", "dynamo.put", "sqs.send")
    return HANDLER_COMPONENTS


def store_usage(components: Sequence[str]) -> UsageKind:
    """The usage kind of a profile's state write (its second component)."""
    return _USAGE_PER_COMPONENT[components[1]]


def billed_units(run_micros: int) -> int:
    """Lambda billing: run time rounded up to 100 ms units, at least one."""
    return -(-run_micros // _BILLING_GRANULARITY_MICROS) or 1


def gb_seconds(billed_ms: int, memory_mb: int) -> float:
    """Billed milliseconds at ``memory_mb`` as Lambda GB-seconds."""
    return billed_ms * (memory_mb / 1024) / 1000.0


def meter_requests(meter: BillingMeter, components: Sequence[str], n: int) -> None:
    """Meter ``n`` requests: an invocation, a state write and a send each."""
    meter.record_batch(UsageKind.LAMBDA_REQUESTS, float(n), n)
    meter.record_batch(store_usage(components), float(n), n)
    meter.record_batch(UsageKind.SQS_REQUESTS, float(n), n)


def meter_rollup(meter: BillingMeter, memory_mb: int, billed_ms: int, payload_bytes: int) -> None:
    """The two float billing quantities, each from one exact integer."""
    meter.record(UsageKind.LAMBDA_GB_SECONDS, gb_seconds(billed_ms, memory_mb))
    meter.record(UsageKind.TRANSFER_OUT_GB, payload_bytes / 1e9)


def fold_chunk(
    meter: BillingMeter, models: Dict[str, object], components: Sequence[str],
    n: int, memory_mb: int, health=None,
) -> Tuple[List[List[int]], List[int], int]:
    """Bill and meter one chunk of ``n`` requests on the scalar path.

    Draws each component's ``sample_block`` from its own model, in
    ``components`` order, and returns ``(blocks, run_micros, units)``.
    A ``health`` plane gets the chunk's count, billed ms and run times.
    """
    blocks = [models[comp].sample_block(comp, n, memory_mb) for comp in components]
    run_micros = [a + b + c for a, b, c in zip(*blocks)]
    units = sum(map(billed_units, run_micros))
    if health is not None:
        health.counter("fleet.requests").inc(n)
        health.counter("fleet.billed_ms").inc(units * 100)
        health.histogram("fleet.request_us").observe_block(run_micros)
    meter_requests(meter, components, n)
    return blocks, run_micros, units


class ShardFold:
    """One shard's exact accumulators over vectorized chunks.

    Each :meth:`add` draws the chunk's component latencies from one
    model's ``sample_block_vec``, bills them, bins the arrivals by hour
    of day and keeps every ``stride``-th run time counted from the
    shard's first event. The numpy and fallback paths do the same
    integer arithmetic and the same float divisions, so they agree
    bitwise.
    """

    def __init__(self, model, components: Sequence[str], memory_mb: int, stride: int,
                 collect_health: bool = False):
        self.np = vecmath.numpy_or_none()
        self.model = model
        self.components = components
        self.memory_mb = memory_mb
        self.stride = stride
        self.events = 0
        self.billed_units = 0
        self.latency_ms: List[float] = []
        self.hod = self.np.zeros(24, dtype=self.np.int64) if self.np is not None else [0] * 24
        self.health = None
        if collect_health:
            from repro.obs.metrics import MetricsPlane

            self.health = MetricsPlane()

    def add(self, at_micros) -> None:
        """Fold one chunk of arrivals (virtual micros, in shard order)."""
        np = self.np
        n = len(at_micros)
        base, store, send = [
            self.model.sample_block_vec(comp, n, self.memory_mb) for comp in self.components
        ]
        first = (-self.events) % self.stride  # first index on the sampling stride
        if np is not None and not isinstance(base, list):
            run_micros = base + store + send
            units = (run_micros + (_BILLING_GRANULARITY_MICROS - 1)) // _BILLING_GRANULARITY_MICROS
            np.maximum(units, 1, out=units)
            self.billed_units += int(units.sum())
            self.hod += np.bincount((np.asarray(at_micros, dtype=np.int64) // MICROS_PER_HOUR) % 24,
                                    minlength=24)
            self.latency_ms.extend((run_micros[first::self.stride] / 1000.0).tolist())
        else:
            run_micros = [a + b + c for a, b, c in zip(base, store, send)]
            self.billed_units += sum(map(billed_units, run_micros))
            for at in at_micros:
                self.hod[(at // MICROS_PER_HOUR) % 24] += 1
            self.latency_ms.extend(r / 1000.0 for r in run_micros[first::self.stride])
        if self.health is not None:
            self.health.histogram("fleet.request_us").observe_block(run_micros)
        self.events += n

    def count_health(self) -> None:
        """Add the shard's request and billed-ms totals to its health plane."""
        if self.health is not None:
            self.health.counter("fleet.requests").inc(self.events)
            self.health.counter("fleet.billed_ms").inc(self.billed_units * 100)

    def fields(self) -> Dict[str, object]:
        """The accumulators, as the shard-result fields they fill."""
        return {
            "events": self.events,
            "billed_units": self.billed_units,
            "latency_ms": self.latency_ms,
            "hod_hist": [int(h) for h in self.hod],
            "samples_drawn": self.model.samples_drawn,
            "health": self.health,
        }


def merge_totals(results: Sequence, shards: int, series: str) -> Tuple[List, Dict[str, object]]:
    """Fold what every shard result carries alike, order-independently.

    Returns the results in shard-id order and the merged-result fields
    they fill. Counts add exactly, health-plane merges are integer-exact
    and commutative, and :class:`~repro.sim.metrics.MetricSeries`
    statistics sort or ``fsum``, so no total depends on which worker
    finished first.
    """
    ordered = sorted(results, key=lambda r: r.shard_id)
    if len({r.shard_id for r in ordered}) != len(ordered):
        raise ConfigurationError("duplicate shard id in merge")
    health = None
    if any(r.health is not None for r in ordered):
        from repro.obs.metrics import MetricsPlane

        health = MetricsPlane()
        for result in ordered:
            if result.health is not None:
                health.merge(result.health)
    shard_events = [0] * shards
    latency = MetricSeries(series, "ms")
    for result in ordered:
        shard_events[result.shard_id] = result.events
        latency.extend(result.latency_ms)
    return ordered, {
        "events": sum(r.events for r in ordered),
        "billed_units": sum(r.billed_units for r in ordered),
        "samples_drawn": sum(r.samples_drawn for r in ordered),
        "hod_hist": [sum(r.hod_hist[hour] for r in ordered) for hour in range(24)],
        "shard_events": shard_events,
        "latency": latency,
        "health": health,
    }


class MergedDigests:
    """The byte-identity probes of a merged sharded run."""

    # The result fields that open the digest, in digest order.
    DIGEST_FIELDS: Tuple[str, ...] = ("events", "billed_units", "invoice_total")

    def determinism_digest(self) -> Dict[str, object]:
        """Everything two runs must agree on byte-for-byte."""
        digest = {name: getattr(self, name) for name in self.DIGEST_FIELDS}
        digest["tenant_counts_sha256"] = self.counts_sha256()
        digest["sla_report"] = json.loads(json.dumps(self.report))
        digest["latency_p99_ms"] = self.latency.p99() if len(self.latency) else None
        # Only present with health collection on, so health-off digests
        # stay byte-identical to the seed's.
        if self.health is not None:
            digest["exposition_sha256"] = self.exposition_sha256()
        return digest

    def total_billed_ms(self) -> int:
        return self.billed_units * 100

    def counts_sha256(self) -> str:
        """Digest of the per-tenant event counts."""
        payload = ",".join(map(str, self.tenant_counts)).encode("ascii")
        return hashlib.sha256(payload).hexdigest()

    def exposition_sha256(self) -> Optional[str]:
        """Digest of the merged health plane's JSONL exposition, if any."""
        if self.health is None:
            return None
        return hashlib.sha256(self.health.to_jsonl().encode("ascii")).hexdigest()


def served_tracker(requests: int) -> AvailabilityTracker:
    """A tracker in which every one of ``requests`` attempts succeeded."""
    tracker = AvailabilityTracker()
    tracker.attempts = tracker.successes = requests
    return tracker


def fleet_sla_report(arrivals: int, latency_ms: Optional[MetricSeries] = None) -> Dict[str, object]:
    """The synthetic-fleet SLA view: every arrival is a delivered request.

    The recorder side, both replayers and the sharded merge all build
    their report here, so "SLA reports are byte-identical" is a claim
    about the underlying counts, not about formatting paths agreeing.
    """
    return sla_report(served_tracker(arrivals), delivered=arrivals, expected=arrivals,
                      latency_ms=latency_ms)


def _pool_context():
    """Prefer fork (cheap, shares the loaded tables); fall back to spawn."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-forking platforms
        return multiprocessing.get_context()


def map_jobs(fn: Callable, jobs: Sequence[Tuple], workers: int) -> List:
    """``[fn(*job) for job in jobs]``, inline or on ``workers`` processes.

    Results come back in job order on any worker count. ``fn`` goes to
    the workers by import path, so callers pass a module-level function.
    A worker that dies (OOM kill, ``os._exit``) raises
    :class:`~concurrent.futures.process.BrokenProcessPool` instead of
    hanging the run.
    """
    if workers <= 0:
        raise ConfigurationError(f"worker count must be positive, got {workers}")
    if workers == 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    pool_size = min(workers, len(jobs))
    with ProcessPoolExecutor(pool_size, mp_context=_pool_context()) as pool:
        return list(pool.map(fn, *zip(*jobs), chunksize=max(1, len(jobs) // (pool_size * 4))))
