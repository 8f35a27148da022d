"""TraceReplayer: feed recorded arrivals back through the fleet engines.

Three replay paths, one determinism discipline:

``run_replay_batched``
    Re-drives a trace through the batched engine's fold
    (:func:`repro.sim.engine.fold_chunk`): per-tenant chunks of the
    config's storage profile, ``sample_block`` latency streams under the
    *same* ``scale/tenant-<t>/<component>`` RNG namespaces, the same
    aggregate metering and float rollups. Replaying a trace recorded
    from ``run_fleet(engine="batched")`` with the same
    :class:`ScaleConfig` reproduces the recorded invoice, per-tenant
    counts, and SLA report byte for byte — the record→replay
    **fixpoint** (``tests/sim/test_replay.py``).

``run_replay_sharded``
    Scale-out replay on the sharded engine's core
    (:class:`repro.sim.engine.ShardFold`, :func:`~repro.sim.engine.merge_totals`,
    :func:`~repro.sim.engine.map_jobs`): the trace is partitioned by the
    same splitmix64 ``shard_of`` tenant map, workers process whole
    logical shards, latencies come from ``sample_block_vec`` quantile
    tables under ``replay/shard-<id>/latency`` namespaces, and the merge
    is order-independent with integer-exact accumulators. Only the
    arrival source (the trace columns) and the tenant counting are this
    module's own. The resulting
    :meth:`ReplayFleetResult.determinism_digest` is byte-identical for
    any worker count and with or without numpy — the same contract
    ``BENCH_fleet.json`` pins for the synthetic path. It bills the S3
    profile: :class:`ReplayConfig` has no storage field.

``run_replay_chaos``
    Replays a trace's per-tenant send schedule through **real app
    stacks** (ChatClient → gateway → Lambda) under the chaos engine's
    fault schedule, asserting the resilience story holds for recorded
    traffic: 100% eventual delivery, per the paper's SLA claims.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.billing import BillingMeter, Invoice
from repro.cloud.pricing import PRICES_2017, PriceBook
from repro.errors import ConfigurationError
from repro.sim.engine import (
    HANDLER_COMPONENTS,
    MergedDigests,
    ShardFold,
    fleet_sla_report,
    fold_chunk,
    map_jobs,
    merge_totals,
    meter_requests,
    meter_rollup,
)
from repro.sim.latency import LatencyModel
from repro.sim.metrics import AvailabilityTracker, MetricSeries, sla_report
from repro.sim.replay.format import Trace, TraceEvent, trace_digest
from repro.sim.rng import SeededRng
from repro.sim.scale import ScaleConfig, _tenant_models
from repro.sim.shard import DEFAULT_LOGICAL_SHARDS, shard_of

__all__ = [
    "ReplayConfig",
    "ReplayResult",
    "ReplayShardResult",
    "ReplayFleetResult",
    "partition_trace",
    "run_replay_batched",
    "replay_shard",
    "merge_replay",
    "run_replay_sharded",
    "run_replay_chaos",
]


# -- batched replay (the fixpoint path) ----------------------------------


@dataclass(frozen=True)
class ReplayResult:
    """What the batched replay produced — comparable to a FleetResult."""

    trace_name: str
    trace_sha256: str
    arrivals: int
    per_tenant_arrivals: Tuple[int, ...]
    total_billed_ms: int
    invoice_total: str
    report: Dict[str, object]
    wall_seconds: float
    events_per_second: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace": self.trace_name,
            "trace_sha256": self.trace_sha256,
            "arrivals": self.arrivals,
            "total_billed_ms": self.total_billed_ms,
            "invoice_total": self.invoice_total,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
        }


def run_replay_batched(
    trace: Trace, config: ScaleConfig, prices: PriceBook = PRICES_2017,
    health=None,
) -> ReplayResult:
    """Replay a trace through the batched engine's exact billing math.

    ``config`` supplies what the trace does not carry: the latency-RNG
    seed, Lambda memory size, and chunk size. With the config that
    *recorded* the trace, every RNG draw, meter call, and float
    conversion happens in the same order as the recorded run — the
    fixpoint. Payload bytes come from the trace itself (summed exactly
    in integers), so replaying an edited trace bills the edited bytes.

    ``health`` (a :class:`~repro.obs.metrics.MetricsPlane`) accumulates
    the same series the recorded run's plane did (``fleet.requests``,
    ``fleet.billed_ms``, ``fleet.request_us``). The fixpoint extends to
    the health plane: counters and histogram buckets are order-free
    accumulators over the identical per-request latencies, so a replay
    with the recording config produces byte-identical exposition.
    """
    if trace.header.tenants < 1:
        raise ConfigurationError("replay needs a trace with at least one tenant")
    start = time.perf_counter()
    counts = [0] * trace.header.tenants
    payloads = [0] * trace.header.tenants
    for event in trace.events:
        counts[event.tenant] += 1
        payloads[event.tenant] += event.payload_bytes
    components = config.components()
    meter = BillingMeter()
    total_billed_ms = 0
    for tenant in range(trace.header.tenants):
        models = _tenant_models(config, tenant, components)
        tenant_billed = 0
        for lo in range(0, counts[tenant], config.chunk):
            n = min(config.chunk, counts[tenant] - lo)
            _, _, units = fold_chunk(meter, models, components, n, config.memory_mb, health)
            tenant_billed += units * 100
        # The same rollup the recorded run made, from the exact integer
        # payload sum rather than a per-request size.
        meter_rollup(meter, config.memory_mb, tenant_billed, payloads[tenant])
        total_billed_ms += tenant_billed
    invoice = Invoice(meter, prices)
    wall = time.perf_counter() - start
    arrivals = len(trace.events)
    return ReplayResult(
        trace_name=trace.header.name,
        trace_sha256=trace_digest(trace),
        arrivals=arrivals,
        per_tenant_arrivals=tuple(counts),
        total_billed_ms=total_billed_ms,
        invoice_total=str(invoice.total()),
        report=fleet_sla_report(arrivals),
        wall_seconds=wall,
        events_per_second=arrivals / wall if wall > 0 else 0.0,
    )


# -- sharded replay ------------------------------------------------------


@dataclass(frozen=True)
class ReplayConfig:
    """Everything the sharded replayer needs beyond the trace itself."""

    seed: int = 2017
    memory_mb: int = 448
    logical_shards: int = DEFAULT_LOGICAL_SHARDS
    chunk_events: int = 1 << 18
    latency_samples: int = 1 << 16

    def __post_init__(self):
        if self.logical_shards <= 0:
            raise ConfigurationError("replay needs at least one logical shard")
        if self.chunk_events <= 0:
            raise ConfigurationError("chunk_events must be positive")
        if self.latency_samples <= 0:
            raise ConfigurationError("latency_samples must be positive")

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "memory_mb": self.memory_mb,
            "logical_shards": self.logical_shards,
            "chunk_events": self.chunk_events,
            "latency_samples": self.latency_samples,
        }


# A shard's slice of a trace, as parallel integer columns (picklable,
# vectorizable): arrival micros, tenant ids, payload bytes.
ShardColumns = Tuple[List[int], List[int], List[int]]


def partition_trace(trace: Trace, shards: int = DEFAULT_LOGICAL_SHARDS) -> List[ShardColumns]:
    """Split a trace into per-shard columns by the splitmix64 tenant map.

    Each event lands on ``shard_of(event.tenant)`` — the same pure
    function of the tenant id the synthetic sharded engine uses — and
    keeps its trace order within the shard. Worker count never enters
    the partitioning, which is what makes sharded replay byte-identical
    on any pool size.
    """
    if shards <= 0:
        raise ConfigurationError(f"shard count must be positive, got {shards}")
    columns: List[ShardColumns] = [([], [], []) for _ in range(shards)]
    shard_cache: Dict[int, int] = {}
    for event in trace.events:
        shard_id = shard_cache.get(event.tenant)
        if shard_id is None:
            shard_id = shard_of(event.tenant, shards)
            shard_cache[event.tenant] = shard_id
        at, tenants, payloads = columns[shard_id]
        at.append(event.at_micros)
        tenants.append(event.tenant)
        payloads.append(event.payload_bytes)
    return columns


@dataclass
class ReplayShardResult:
    """One shard's exact replay accumulators — plain data, picklable."""

    shard_id: int
    events: int
    billed_units: int
    payload_bytes: int
    tenant_counts: List[Tuple[int, int]]  # sorted (tenant, count) pairs
    latency_ms: List[float]
    hod_hist: List[int]
    samples_drawn: int
    run_seconds: float
    # Shard-local health plane when the replay collected health.
    health: Optional[object] = None


def _replay_stride(total_events: int, config: ReplayConfig) -> int:
    """Latency-sample stride: a pure function of (trace size, config)."""
    return max(1, total_events // config.latency_samples)


def replay_shard(
    columns: ShardColumns,
    shard_id: int,
    config: ReplayConfig,
    stride: int,
    collect_health: bool = False,
) -> ReplayShardResult:
    """Replay one shard's recorded arrivals on the core's vectorized fold.

    Latencies draw from ``replay/shard-<id>/latency`` — one stream per
    logical shard, components sampled in ``HANDLER_COMPONENTS`` order
    per chunk, exactly like :func:`repro.sim.shard.run_shard` — so the
    result is a pure function of ``(columns, shard_id, config,
    stride)``. Payload bytes and per-tenant counts come from the trace
    columns as exact integers.
    """
    start = time.perf_counter()
    at_col, tenant_col, payload_col = columns
    fold = ShardFold(
        LatencyModel(rng=SeededRng(config.seed, f"replay/shard-{shard_id}/latency")),
        HANDLER_COMPONENTS, config.memory_mb, stride, collect_health,
    )
    for lo in range(0, len(at_col), config.chunk_events):
        fold.add(at_col[lo:lo + config.chunk_events])
    fold.count_health()
    return ReplayShardResult(
        shard_id=shard_id,
        payload_bytes=sum(payload_col),
        tenant_counts=sorted(Counter(tenant_col).items()),
        run_seconds=time.perf_counter() - start,
        **fold.fields(),
    )


@dataclass
class ReplayFleetResult(MergedDigests):
    """The merged sharded replay: exact totals, invoice, SLA view."""

    DIGEST_FIELDS = ("trace_sha256", "events", "billed_units", "payload_bytes", "invoice_total")

    trace_name: str
    trace_sha256: str
    config: ReplayConfig
    workers: int
    events: int
    billed_units: int
    payload_bytes: int
    tenant_counts: List[int]
    hod_hist: List[int]
    shard_events: List[int]
    samples_drawn: int
    latency: MetricSeries
    meter: BillingMeter
    invoice: Invoice
    invoice_total: str
    report: Dict[str, object]
    wall_seconds: float
    # Merged health plane when shards collected health.
    health: Optional[object] = None


def merge_replay(
    trace: Trace,
    config: ReplayConfig,
    results: Sequence[ReplayShardResult],
    prices: PriceBook = PRICES_2017,
) -> ReplayFleetResult:
    """Fold shard replays into fleet totals, order-independently.

    Shares :func:`repro.sim.engine.merge_totals` with
    :func:`repro.sim.shard.merge_shards`: canonicalize by shard id, add
    exact integers, convert to billable floats once from the merged
    integers. The transfer bill comes from the trace's exact
    payload-byte sum, not a config-level per-request size.
    """
    ordered, totals = merge_totals(results, config.logical_shards, "replay.e2e_ms")
    events = totals["events"]
    if events != len(trace.events):
        raise ConfigurationError(
            f"replay lost events: trace holds {len(trace.events)}, shards replayed {events}"
        )
    tenant_counts = [0] * trace.header.tenants
    for result in ordered:
        for tenant, count in result.tenant_counts:
            tenant_counts[tenant] += count
    payload_total = sum(r.payload_bytes for r in ordered)
    meter = BillingMeter()
    meter_requests(meter, HANDLER_COMPONENTS, events)
    meter_rollup(meter, config.memory_mb, totals["billed_units"] * 100, payload_total)
    invoice = Invoice(meter, prices)
    return ReplayFleetResult(
        trace_name=trace.header.name,
        trace_sha256=trace_digest(trace),
        config=config,
        workers=0,  # set by run_replay_sharded
        payload_bytes=payload_total,
        tenant_counts=tenant_counts,
        meter=meter,
        invoice=invoice,
        invoice_total=str(invoice.total()),
        report=fleet_sla_report(events, totals["latency"]),
        wall_seconds=0.0,
        **totals,
    )


def run_replay_sharded(
    trace: Trace,
    config: Optional[ReplayConfig] = None,
    workers: int = 1,
    prices: PriceBook = PRICES_2017,
    collect_health: bool = False,
) -> ReplayFleetResult:
    """Replay a whole trace on the sharded engine and merge.

    ``workers`` only controls scheduling — whole logical shards per
    worker — so the merged result (and its ``determinism_digest``) is
    byte-identical on 1, 2, or N workers, with or without numpy.
    ``collect_health`` adds shard-local metrics planes merged
    order-independently, exactly like
    :func:`repro.sim.shard.run_fleet_sharded`.
    """
    config = config or ReplayConfig()
    start = time.perf_counter()
    stride = _replay_stride(len(trace.events), config)
    columns = partition_trace(trace, config.logical_shards)
    jobs = [
        (columns[shard_id], shard_id, config, stride, collect_health)
        for shard_id in range(config.logical_shards)
    ]
    results = map_jobs(replay_shard, jobs, workers)
    merged = merge_replay(trace, config, results, prices)
    merged.workers = workers
    merged.wall_seconds = time.perf_counter() - start
    return merged


# -- chaos replay: recorded traffic through real app stacks --------------


def run_replay_chaos(
    trace: Trace,
    chaos: bool = True,
    error_rate: float = 0.01,
    brownout_rate: float = 0.5,
    memory_mb: int = 448,
    storage: str = "s3",
) -> Dict[str, object]:
    """Drive a trace's per-tenant schedule through real chat stacks.

    Each trace tenant gets a fresh :class:`CloudProvider` with the chat
    app deployed; every recorded event becomes an alice→bob groupchat
    send at the recorded virtual time, while the chaos engine (when
    ``chaos=True``) injects the standard fault schedule over the
    tenant's recorded horizon. Clients queue-and-drain through faults;
    the run then settles until the inbox is dry. The SLA rollup proves
    the paper's resilience claim on *recorded* traffic: 100% eventual
    delivery per seed (``tests/sim/test_replay.py``).
    """
    from repro.cloud.provider import CloudProvider
    from repro.sim.scale import ChaosConfig, _chat_pair, _schedule_chaos, _settle
    from repro.units import seconds

    by_tenant: Dict[int, List[TraceEvent]] = {}
    for event in trace.events:
        by_tenant.setdefault(event.tenant, []).append(event)
    fleet_tracker = AvailabilityTracker()
    fleet_latency = MetricSeries("replay-chaos.e2e_ms", "ms")
    per_tenant: List[Dict[str, object]] = []
    delivered_total = 0
    expected_total = 0
    breaker_trips = 0
    injected: Dict[str, int] = {}
    for tenant in sorted(by_tenant):
        events = by_tenant[tenant]
        provider = CloudProvider(name=f"replay-{trace.header.name}-{tenant}",
                                 seed=trace.header.seed)
        alice, bob = _chat_pair(provider, memory_mb, storage)

        base = events[0].at_micros
        horizon = max(events[-1].at_micros - base, seconds(1))
        start = provider.clock.now
        if chaos:
            chaos_config = ChaosConfig(
                tenants=1, messages=len(events), seed=trace.header.seed,
                error_rate=error_rate, brownout_rate=brownout_rate,
                memory_mb=memory_mb, storage=storage,
            )
            _schedule_chaos(provider, chaos_config, start, horizon)

        bodies = []
        received_bodies = set()
        for i, event in enumerate(events):
            target = start + (event.at_micros - base)
            if target > provider.clock.now:
                provider.clock.advance(target - provider.clock.now)
            body = f"replay-{tenant}-{i}"
            bodies.append(body)
            alice.send("room", body)
            if i % 3 == 2:
                for message in bob.poll(wait_seconds=0):
                    received_bodies.add(message.body)

        tracker = _settle(provider, alice, bob, horizon, received_bodies)
        latency = provider.metrics.get("chat.e2e_ms")
        delivered = len(received_bodies.intersection(bodies))
        report = sla_report(
            tracker,
            delivered=delivered,
            expected=len(bodies),
            latency_ms=latency,
            breaker_trips=alice.breaker.trips + bob.breaker.trips,
            injected=dict(provider.faults.injected),
        )
        report["tenant"] = tenant
        per_tenant.append(report)
        delivered_total += delivered
        expected_total += len(bodies)
        breaker_trips += int(report["breaker_trips"])
        for target_name, count in report["injected_faults"].items():
            injected[target_name] = injected.get(target_name, 0) + count
        if latency is not None:
            fleet_latency.extend(latency.samples)
        fleet_tracker.merge(tracker)
    return {
        "scenario": "replay_chaos",
        "trace": trace.header.name,
        "trace_sha256": trace_digest(trace),
        "chaos": chaos,
        "per_tenant": per_tenant,
        "fleet": sla_report(
            fleet_tracker,
            delivered=delivered_total,
            expected=expected_total,
            latency_ms=fleet_latency,
            breaker_trips=breaker_trips,
            injected=injected,
        ),
    }
