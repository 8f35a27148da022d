"""Fleet-scale simulation engine: many tenants, a virtual month, fast.

The ROADMAP's north star is a substrate that can simulate "heavy
traffic from millions of users". This module is the scale-out harness
over the optimized kernel: it drives a *fleet* of DIY tenants — each
with its own diurnal workload, per-component latency streams, and
metered usage — through a virtual month and prices the result, counting
real (wall-clock) throughput as it goes.

Three interchangeable engines run the identical scenario:

``legacy``
    The seed-era per-event path, via :mod:`repro.sim._legacy`: one
    :class:`~repro.sim.workload.Arrival` dataclass per request, the
    diurnal profile re-summed per draw, a fresh
    :class:`~repro.sim.latency.LogNormal` per latency sample. The
    frozen "before" every optimization is measured against.

``inline``
    The current library's per-event path: :meth:`DiurnalWorkload.arrivals`
    and :meth:`LatencyModel.sample`, one object per event.

``batched``
    The throughput path: :meth:`DiurnalWorkload.arrival_batches` chunks
    of bare timestamps billed by the fleet-engine core's scalar fold
    (:func:`repro.sim.engine.fold_chunk`: ``sample_block`` per
    component, aggregate metering).

All three consume identical RNG streams (workload draws from one seeded
stream per tenant; each latency component draws from its own, so block
sampling reorders nothing), bill through the core's one 100 ms rule
(:func:`repro.sim.engine.billed_units`) and convert to float quantities
once per tenant (:func:`repro.sim.engine.meter_rollup`), so a given
:class:`ScaleConfig` produces **byte-identical invoice totals and
arrival counts** on every engine. The only thing that changes is events
per second.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cloud.billing import BillingMeter, Invoice, UsageKind
from repro.cloud.pricing import PRICES_2017, PriceBook
from repro.errors import ConfigurationError, SimulationError
from repro.obs.collector import TraceCollector
from repro.obs.trace import Tracer
from repro.sim import _legacy
from repro.sim.clock import SimClock
from repro.sim.engine import (
    HANDLER_COMPONENTS,
    billed_units,
    fold_chunk,
    gb_seconds,
    handler_components,
    map_jobs,
    meter_rollup,
    store_usage,
)
from repro.sim.event import EventLoop
from repro.sim.latency import LatencyModel
from repro.sim.metrics import AvailabilityTracker, MetricSeries, sla_report
from repro.sim.profile import PerfCounters
from repro.sim.rng import SeededRng
from repro.sim.workload import HOURLY_PROFILE_PERSONAL, DiurnalWorkload
from repro.units import ms, seconds

__all__ = [
    "ScaleConfig",
    "FleetResult",
    "run_fleet",
    "bench_workload",
    "bench_event_loop",
    "bench_latency",
    "run_scale_benchmark",
    "run_obs_benchmark",
    "SCALE_ENGINES",
    "HANDLER_COMPONENTS",
    "ChaosConfig",
    "run_chaos_fleet",
    "ABLATION_APPS",
    "run_storage_ablation",
]

SCALE_ENGINES = ("legacy", "inline", "batched")


class PlanKnobs:
    """A config whose storage and memory knobs can come from a plan."""

    @classmethod
    def from_plan(cls, plan, **overrides):
        """A config whose knobs come from a :class:`~repro.plan.DeploymentPlan`.

        The plan sets storage and (when not ``None``) memory; keyword
        ``overrides`` set everything else. The default plan reproduces
        the default config exactly.
        """
        fields: Dict[str, object] = {"storage": plan.storage}
        if plan.memory_mb is not None:
            fields["memory_mb"] = plan.memory_mb
        fields.update(overrides)
        return cls(**fields)


@dataclass(frozen=True)
class ScaleConfig(PlanKnobs):
    """One fleet scenario: ``tenants`` accounts over ``days`` virtual days."""

    tenants: int = 8
    daily_requests: float = 1500.0
    days: float = 3.0
    seed: int = 2017
    memory_mb: int = 448
    payload_bytes: int = 2048
    chunk: int = 4096
    storage: str = "s3"

    def __post_init__(self):
        from repro.runtime.store import STORAGE_BACKENDS

        if self.tenants <= 0:
            raise ConfigurationError("fleet needs at least one tenant")
        if self.days <= 0:
            raise ConfigurationError("fleet needs a positive duration")
        if self.storage not in STORAGE_BACKENDS:
            raise ConfigurationError(
                f"storage must be one of {STORAGE_BACKENDS}, got {self.storage!r}"
            )

    def components(self) -> Tuple[str, ...]:
        return handler_components(self.storage)

    def expected_requests(self) -> float:
        return self.tenants * self.daily_requests * self.days

    def as_dict(self) -> Dict[str, float]:
        return {
            "tenants": self.tenants,
            "daily_requests": self.daily_requests,
            "days": self.days,
            "seed": self.seed,
            "memory_mb": self.memory_mb,
            "payload_bytes": self.payload_bytes,
            "chunk": self.chunk,
            "storage": self.storage,
        }


@dataclass(frozen=True)
class FleetResult:
    """What one engine produced: the bill, the counts, and the speed."""

    engine: str
    arrivals: int
    per_tenant_arrivals: Tuple[int, ...]
    total_billed_ms: int
    invoice_total: str
    samples_drawn: int
    meter_hits: int
    meter_record_calls: int
    wall_seconds: float
    events_per_second: float
    phases: Dict[str, float]

    def as_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "arrivals": self.arrivals,
            "total_billed_ms": self.total_billed_ms,
            "invoice_total": self.invoice_total,
            "samples_drawn": self.samples_drawn,
            "meter_hits": self.meter_hits,
            "meter_record_calls": self.meter_record_calls,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
            "phases": {name: round(secs, 6) for name, secs in self.phases.items()},
        }


def _workload_rng(config: ScaleConfig, tenant: int) -> SeededRng:
    return SeededRng(config.seed, f"scale/tenant-{tenant}/workload")


def _component_rng(config: ScaleConfig, tenant: int, component: str) -> SeededRng:
    return SeededRng(config.seed, f"scale/tenant-{tenant}/{component}")


def _tenant_models(
    config: ScaleConfig, tenant: int, components: Tuple[str, ...]
) -> Dict[str, LatencyModel]:
    """One latency model per component, each on its own tenant stream."""
    return {
        comp: LatencyModel(rng=_component_rng(config, tenant, comp)) for comp in components
    }


def run_fleet(
    config: ScaleConfig,
    engine: str = "batched",
    prices: PriceBook = PRICES_2017,
    tracer: Tracer = None,
    recorder=None,
    health=None,
) -> FleetResult:
    """Simulate the whole fleet on ``engine`` and price the month.

    ``tracer`` (batched engine only) records the head-sampled requests
    as synthetic span trees via :meth:`Tracer.record_request` — the
    billing math and the unsampled fast path are untouched, which is
    what keeps the tracing-on invoice byte-identical.

    ``recorder`` (batched engine only) is a
    :class:`~repro.sim.replay.TraceRecorder` that captures every
    arrival chunk as trace events. Recording is pure observation — no
    RNG draw, no extra meter call — so the recorded run's invoice is
    byte-identical to an unrecorded one, and replaying the trace with
    the same config reproduces it exactly
    (``tests/sim/test_replay.py``).

    ``health`` (batched engine only) is a
    :class:`~repro.obs.metrics.MetricsPlane` that accumulates every
    request's run time into ``fleet.request_us`` (log-bucketed
    histogram) and counts arrivals/billed ms. Same contract as the
    tracer: pure observation over the already-sampled latency blocks,
    so the metered invoice is byte-identical to an unmetered one.
    """
    if engine not in SCALE_ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}; pick one of {SCALE_ENGINES}")
    if tracer is not None and engine != "batched":
        raise ConfigurationError(
            f"fleet tracing is wired through the batched engine, not {engine!r}"
        )
    if recorder is not None and engine != "batched":
        raise ConfigurationError(
            f"trace recording is wired through the batched engine, not {engine!r}"
        )
    if health is not None and engine != "batched":
        raise ConfigurationError(
            f"fleet metrics are wired through the batched engine, not {engine!r}"
        )
    meter = BillingMeter()
    perf = PerfCounters()
    per_tenant: List[int] = []
    total_billed_ms = 0
    samples = 0
    start = time.perf_counter()
    with perf.phase("simulate"):
        for tenant in range(config.tenants):
            if engine == "batched":
                count, billed = _tenant_batched(
                    config, tenant, meter, tracer, recorder, health
                )
            elif engine == "inline":
                count, billed = _tenant_inline(config, tenant, meter)
            else:
                count, billed = _tenant_legacy(config, tenant, meter)
            meter_rollup(meter, config.memory_mb, billed, count * config.payload_bytes)
            per_tenant.append(count)
            total_billed_ms += billed
            samples += count * len(HANDLER_COMPONENTS)
    with perf.phase("invoice"):
        invoice = Invoice(meter, prices)
        total = str(invoice.total())
    wall = time.perf_counter() - start
    arrivals = sum(per_tenant)
    simulate_seconds = perf.phase_seconds("simulate")
    return FleetResult(
        engine=engine,
        arrivals=arrivals,
        per_tenant_arrivals=tuple(per_tenant),
        total_billed_ms=total_billed_ms,
        invoice_total=total,
        samples_drawn=samples,
        meter_hits=meter.hits,
        meter_record_calls=meter.record_calls,
        wall_seconds=wall,
        events_per_second=arrivals / simulate_seconds if simulate_seconds > 0 else 0.0,
        phases={"simulate": simulate_seconds, "invoice": perf.phase_seconds("invoice")},
    )


# -- the three engines --------------------------------------------------


def _tenant_batched(
    config: ScaleConfig, tenant: int, meter: BillingMeter, tracer: Tracer = None,
    recorder=None, health=None,
) -> Tuple[int, int]:
    """Chunked timestamps billed by the core's scalar fold.

    With a tracer attached, head sampling is decided per chunk in one
    arithmetic call (:meth:`TraceCollector.admit_batch`) and only the
    sampled requests materialize span trees; the billing accumulators
    are computed identically either way.

    With a ``health`` plane attached, each chunk's per-request run
    times land in ``fleet.request_us`` via one vectorized
    ``observe_block`` call — no windows or per-tenant labels, so the
    plane stays O(buckets) however many tenants run through it.
    """
    components = config.components()
    workload = DiurnalWorkload(
        config.daily_requests, _workload_rng(config, tenant), HOURLY_PROFILE_PERSONAL
    )
    models = _tenant_models(config, tenant, components)
    count = 0
    total_billed_ms = 0
    for chunk in workload.arrival_batches(config.days, chunk=config.chunk):
        n = len(chunk)
        if recorder is not None:
            recorder.record_fleet_chunk(tenant, chunk, config.payload_bytes)
        blocks, run_micros, units = fold_chunk(
            meter, models, components, n, config.memory_mb, health
        )
        if tracer is not None:
            _trace_chunk(tracer, config, tenant, chunk, components, blocks, run_micros)
        total_billed_ms += units * 100
        count += n
    return count, total_billed_ms


def _trace_chunk(tracer, config, tenant, chunk, components, blocks, run_micros) -> None:
    """Span trees for a chunk's head-sampled requests (typically 1/64th).

    Reads the already-sampled blocks, so the billing fold is identical
    with tracing on or off.
    """
    base, store, send = blocks
    store_comp = components[1]
    store_kind = store_usage(components)
    for i in tracer.collector.admit_batch(len(chunk)):
        billed_ms = billed_units(run_micros[i]) * 100
        tracer.record_request(
            chunk[i],
            (
                ("lambda.handler_base", base[i], None),
                (store_comp, store[i], (store_kind, 1.0)),
                ("sqs.send", send[i], (UsageKind.SQS_REQUESTS, 1.0)),
            ),
            root_usage=(
                (UsageKind.LAMBDA_REQUESTS, 1.0),
                (UsageKind.LAMBDA_GB_SECONDS, gb_seconds(billed_ms, config.memory_mb)),
            ),
            root_attrs={"tenant": tenant, "billed_ms": billed_ms},
        )


def _tenant_inline(config: ScaleConfig, tenant: int, meter: BillingMeter) -> Tuple[int, int]:
    """The current library's per-event objects, one meter call per event."""
    components = config.components()
    store_kind = store_usage(components)
    workload = DiurnalWorkload(
        config.daily_requests, _workload_rng(config, tenant), HOURLY_PROFILE_PERSONAL
    )
    models = _tenant_models(config, tenant, components)
    memory_mb = config.memory_mb
    count = 0
    total_billed_ms = 0
    for _arrival in workload.arrivals(config.days):
        run_micros = 0
        for comp in components:
            run_micros += models[comp].sample(comp, memory_mb).micros
        total_billed_ms += billed_units(run_micros) * 100
        meter.record(UsageKind.LAMBDA_REQUESTS, 1.0)
        meter.record(store_kind, 1.0)
        meter.record(UsageKind.SQS_REQUESTS, 1.0)
        count += 1
    return count, total_billed_ms


def _tenant_legacy(config: ScaleConfig, tenant: int, meter: BillingMeter) -> Tuple[int, int]:
    """The seed-era hot paths, preserved in :mod:`repro.sim._legacy`."""
    components = config.components()
    store_kind = store_usage(components)
    rng = _workload_rng(config, tenant)
    rngs = {comp: _component_rng(config, tenant, comp) for comp in components}
    memory_mb = config.memory_mb
    count = 0
    total_billed_ms = 0
    for _arrival in _legacy.legacy_arrivals(
        config.daily_requests, rng, HOURLY_PROFILE_PERSONAL, config.days
    ):
        run_micros = 0
        for comp in components:
            run_micros += _legacy.legacy_sample(rngs[comp], comp, memory_mb=memory_mb).micros
        total_billed_ms += billed_units(run_micros) * 100
        meter.record(UsageKind.LAMBDA_REQUESTS, 1.0)
        meter.record(store_kind, 1.0)
        meter.record(UsageKind.SQS_REQUESTS, 1.0)
        count += 1
    return count, total_billed_ms


# -- the chaos fleet ----------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig(PlanKnobs):
    """A Table 3 chat workload re-run under fault injection.

    Each tenant is a full :class:`~repro.cloud.provider.CloudProvider`
    with the chat app deployed; ``messages`` groupchat sends go from
    alice to bob, spaced ``send_gap_micros`` of virtual time apart,
    while the chaos engine injects a per-service ``error_rate``, one
    regional brown-out, a short hard regional outage, a gateway throttle
    storm, and an S3 latency spike. The run is byte-identical per seed.
    """

    tenants: int = 2
    messages: int = 30
    send_gap_micros: int = seconds(2)
    seed: int = 2017
    error_rate: float = 0.01
    brownout_rate: float = 0.5
    memory_mb: int = 448
    storage: str = "s3"  # the DIY_STORAGE backend the chat state uses

    def __post_init__(self):
        from repro.runtime.store import STORAGE_BACKENDS

        if self.tenants <= 0:
            raise ConfigurationError("chaos fleet needs at least one tenant")
        if self.messages <= 0:
            raise ConfigurationError("chaos fleet needs at least one message")
        if self.send_gap_micros <= 0:
            raise ConfigurationError("send gap must be positive")
        if self.storage not in STORAGE_BACKENDS:
            raise ConfigurationError(
                f"storage must be one of {STORAGE_BACKENDS}, got {self.storage!r}"
            )

    def expected_messages(self) -> int:
        return self.tenants * self.messages

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenants": self.tenants,
            "messages": self.messages,
            "send_gap_micros": self.send_gap_micros,
            "seed": self.seed,
            "error_rate": self.error_rate,
            "brownout_rate": self.brownout_rate,
            "memory_mb": self.memory_mb,
            "storage": self.storage,
        }


def _schedule_chaos(provider, config: ChaosConfig, start: int, horizon: int) -> None:
    """The scenario's fault schedule, all in virtual micros from ``start``."""
    faults = provider.faults
    region = provider.home_region.name
    # A low background error rate on every service boundary.
    for service in ("s3", "sqs", "kms", "lambda", "gateway"):
        faults.schedule_error_rate(service, start, horizon, config.error_rate)
    # One short hard regional outage: failover has nowhere to go (single
    # region), so clients must ride it out with backoff.
    faults.schedule_outage(region, start + horizon // 4, ms(500))
    # One regional brown-out: requests fail at brownout_rate for a sixth
    # of the run.
    faults.schedule_brownout(
        region, start + horizon // 3, horizon // 6, rate=config.brownout_rate
    )
    # An S3 latency spike and a gateway throttle storm later in the run.
    faults.schedule_latency_spike(
        "s3", start + horizon // 2, seconds(5), extra_micros=ms(40)
    )
    faults.schedule_throttle_storm(
        "gateway", start + (2 * horizon) // 3, seconds(2)
    )


def _chat_pair(provider, memory_mb: int, storage: str) -> List[object]:
    """Deploy the chat app and connect alice and bob to one room."""
    from repro.apps.chat import ChatClient, ChatService, chat_manifest
    from repro.core.deployment import Deployer

    app = Deployer(provider).deploy(
        chat_manifest(memory_mb=memory_mb, storage=storage), owner="alice"
    )
    service = ChatService(app)
    service.create_room("room", ["alice@diy", "bob@diy"])
    clients = []
    for name in ("alice@diy", "bob@diy"):
        client = ChatClient(service, name)
        client.join("room")
        client.connect()
        clients.append(client)
    return clients


def _settle(provider, alice, bob, horizon: int, delivered: set) -> AvailabilityTracker:
    """Move past every fault window, drain the outbox, poll until dry.

    Adds every body bob receives to ``delivered``; returns both
    clients' merged tracker.
    """
    provider.clock.advance(horizon)
    for _ in range(5):
        if not alice.outbox:
            break
        alice.drain_outbox()
        provider.clock.advance(seconds(5))
    empty_polls = 0
    while empty_polls < 2:
        received = bob.poll(wait_seconds=0)
        if received:
            delivered.update(message.body for message in received)
            empty_polls = 0
        else:
            empty_polls += 1
        provider.clock.advance(seconds(1))
    tracker = AvailabilityTracker()
    tracker.merge(alice.tracker)
    tracker.merge(bob.tracker)
    return tracker


def _chaos_tenant(
    config: ChaosConfig, tenant: int, chaos: bool
) -> Tuple[Dict[str, object], AvailabilityTracker]:
    """Run one tenant's chat workload; returns (SLA report, raw tracker)."""
    from repro.cloud.provider import CloudProvider

    provider = CloudProvider(name=f"chaos-{tenant}", seed=config.seed)
    alice, bob = _chat_pair(provider, config.memory_mb, config.storage)

    horizon = config.messages * config.send_gap_micros
    start = provider.clock.now
    if chaos:
        _schedule_chaos(provider, config, start, horizon)

    bodies = [f"msg-{tenant}-{i}" for i in range(config.messages)]
    delivered = set()
    for i, body in enumerate(bodies):
        alice.send("room", body)
        provider.clock.advance(config.send_gap_micros)
        if i % 3 == 2:
            for received in bob.poll(wait_seconds=0):
                delivered.add(received.body)

    tracker = _settle(provider, alice, bob, horizon, delivered)
    region = provider.home_region.name
    latency = provider.metrics.get("chat.e2e_ms")
    report = sla_report(
        tracker,
        delivered=len(delivered.intersection(bodies)),
        expected=config.messages,
        latency_ms=latency,
        breaker_trips=alice.breaker.trips + bob.breaker.trips,
        injected=dict(provider.faults.injected),
        downtime_micros={
            region: provider.faults.downtime_in(region, start, provider.clock.now)
        },
    )
    report["tenant"] = tenant
    report["undelivered"] = sorted(set(bodies) - delivered)
    report["_latency_samples"] = latency.samples if latency is not None else []
    return report, tracker


def run_chaos_fleet(
    config: ChaosConfig, chaos: bool = True, workers: int = 1
) -> Dict[str, object]:
    """Run the chat workload for every tenant under fault injection.

    Returns a deterministic SLA summary: per-tenant reports plus the
    fleet-level rollup (eventual delivery rate, per-attempt
    availability, retries, breaker trips, p99 latency under chaos, and
    downtime attribution). With ``chaos=False`` the identical workload
    runs with no faults scheduled — the control the golden tests compare
    against.

    ``workers > 1`` fans the tenants out over a process pool — sound
    because each tenant's run is a pure function of ``(config, tenant,
    chaos)`` (its provider is seeded from those alone) — and merges the
    results in tenant order, so the report is byte-identical to the
    sequential run (``tests/sim/test_chaos_fleet.py``).
    """
    tenant_runs = map_jobs(
        _chaos_tenant, [(config, tenant, chaos) for tenant in range(config.tenants)], workers
    )
    fleet_tracker = AvailabilityTracker()
    fleet_latency = MetricSeries("chaos.e2e_ms", "ms")
    per_tenant: List[Dict[str, object]] = []
    delivered = 0
    breaker_trips = 0
    injected: Dict[str, int] = {}
    downtime: Dict[str, int] = {}
    for report, tracker in tenant_runs:
        fleet_latency.extend(report.pop("_latency_samples"))
        per_tenant.append(report)
        delivered += int(report["delivered"])
        breaker_trips += int(report["breaker_trips"])
        for target, count in report["injected_faults"].items():
            injected[target] = injected.get(target, 0) + count
        for target, micros in report["downtime_micros"].items():
            downtime[target] = downtime.get(target, 0) + micros
        fleet_tracker.merge(tracker)
    return {
        "scenario": "chaos_fleet",
        "chaos": chaos,
        "config": config.as_dict(),
        "per_tenant": per_tenant,
        "fleet": sla_report(
            fleet_tracker,
            delivered=delivered,
            expected=config.expected_messages(),
            latency_ms=fleet_latency,
            breaker_trips=breaker_trips,
            injected=injected,
            downtime_micros=downtime,
        ),
    }


# -- the storage-backend ablation ---------------------------------------


def _ablate_chat(provider, storage: str, requests: int) -> str:
    """Table 3's chat workload on one backend; returns the handler name."""
    from repro.apps.chat import ChatClient, ChatService, chat_manifest
    from repro.core.deployment import Deployer

    app = Deployer(provider).deploy(
        chat_manifest(storage=storage), owner="alice",
        instance_name=f"chat-{storage}",
    )
    service = ChatService(app)
    service.create_room("r", ["alice@diy", "bob@diy"])
    alice = ChatClient(service, "alice@diy")
    bob = ChatClient(service, "bob@diy")
    for client in (alice, bob):
        client.join("r")
        client.connect()
    for i in range(requests):
        alice.send("r", f"m{i}")
        bob.poll()
    return f"{app.instance_name}-handler"


def _ablate_email(provider, storage: str, requests: int) -> str:
    """Outbound sends through the email app; returns the handler name."""
    from repro.apps.email import EmailClient, EmailService_, email_manifest
    from repro.core.deployment import Deployer
    from repro.crypto.keys import KeyPair
    from repro.protocols.mime import Address, EmailMessage

    keys = KeyPair.generate(provider.rng.child("ablation/email-keys").randbytes)
    app = Deployer(provider).deploy(
        email_manifest(storage=storage), owner="carol",
        instance_name=f"email-{storage}",
    )
    client = EmailClient(EmailService_(app, keys, domain="carol.diy"))
    for i in range(requests):
        client.send(EmailMessage(
            Address("carol@carol.diy"), (Address("pen-pal@example.com"),),
            f"note {i}", f"body {i}",
        ))
    return f"{app.instance_name}-outbound"


def _ablate_filetransfer(provider, storage: str, requests: int) -> str:
    """Chunk round trips through the transfer app; returns the handler name."""
    from repro.apps.filetransfer import FileTransferClient, file_transfer_manifest
    from repro.core.deployment import Deployer

    app = Deployer(provider).deploy(
        file_transfer_manifest(storage=storage), owner="dana",
        instance_name=f"xfer-{storage}",
    )
    sender = FileTransferClient(app, "dana", chunk_bytes=2048)
    receiver = FileTransferClient(app, "eli", chunk_bytes=2048)
    for i in range(requests):
        ticket = sender.send_file(f"f{i}.bin", "eli", f"payload {i}".encode() * 64)
        receiver.download(ticket)
        receiver.acknowledge(ticket)
    return f"{app.instance_name}-handler"


ABLATION_APPS: Dict[str, object] = {
    "chat": _ablate_chat,
    "email": _ablate_email,
    "filetransfer": _ablate_filetransfer,
}


def run_storage_ablation(
    apps: Tuple[str, ...] = ("chat", "email", "filetransfer"),
    requests: int = 40,
    seed: int = 2017,
) -> Dict[str, object]:
    """Run each app's workload on both ``DIY_STORAGE`` backends.

    One fresh provider per (app, backend) cell, same seed, so each pair
    differs only in where the state store's calls land. Returns the
    JSON-ready record the ``bench-storage`` CLI writes to
    ``BENCH_storage.json``: per-app median handler run times on S3 vs
    DynamoDB, the run-time ratio, and the storage price ratio the
    paper's footnote doesn't mention.
    """
    from repro.cloud.pricing import PRICES_2017
    from repro.cloud.provider import CloudProvider
    from repro.runtime.store import STORAGE_BACKENDS

    per_app: Dict[str, Dict[str, object]] = {}
    for app in apps:
        if app not in ABLATION_APPS:
            raise ConfigurationError(
                f"unknown ablation app {app!r}; pick from {tuple(ABLATION_APPS)}"
            )
        medians: Dict[str, float] = {}
        for storage in STORAGE_BACKENDS:
            provider = CloudProvider(name="bench", seed=seed)
            handler = ABLATION_APPS[app](provider, storage, requests)
            medians[storage] = provider.lambda_.metrics.get(f"{handler}.run_ms").median()
        per_app[app] = {
            "s3_run_ms": round(medians["s3"], 3),
            "dynamo_run_ms": round(medians["dynamo"], 3),
            "runtime_ratio": round(medians["s3"] / medians["dynamo"], 3),
            "dynamo_is_faster": medians["dynamo"] < medians["s3"],
        }
    price_ratio = float(
        PRICES_2017.dynamo_storage_per_gb_month / PRICES_2017.s3_storage_per_gb_month
    )
    return {
        "bench": "storage_backend_ablation",
        "config": {"apps": list(apps), "requests": requests, "seed": seed},
        "apps": per_app,
        "storage_price_ratio": round(price_ratio, 3),
    }


# -- microbenchmarks ----------------------------------------------------


def bench_workload(arrivals: int = 100_000, seed: int = 2017) -> Dict[str, object]:
    """Seed arrival loop vs batched generation, same stream asserted."""
    daily = float(arrivals)  # one virtual day at this rate ≈ `arrivals` events
    legacy_rng = SeededRng(seed, "bench/workload")
    start = time.perf_counter()
    legacy_times = [
        a.at_micros
        for a in _legacy.legacy_arrivals(daily, legacy_rng, HOURLY_PROFILE_PERSONAL, 1.0)
    ]
    legacy_seconds = time.perf_counter() - start

    workload = DiurnalWorkload(daily, SeededRng(seed, "bench/workload"), HOURLY_PROFILE_PERSONAL)
    start = time.perf_counter()
    fast_times: List[int] = []
    for chunk in workload.arrival_batches(1.0):
        fast_times.extend(chunk)
    fast_seconds = time.perf_counter() - start

    if fast_times != legacy_times:
        raise SimulationError("batched arrival stream diverged from the seed path")
    return _micro_record("workload", len(fast_times), legacy_seconds, fast_seconds)


def bench_event_loop(events: int = 50_000, seed: int = 2017) -> Dict[str, object]:
    """Seed dataclass-heap loop vs tuple-heap loop, same schedule."""
    times_rng = SeededRng(seed, "bench/events")
    # Dense timestamps with many ties: heap comparisons fall through to
    # the sequence number, the worst case for dataclass __lt__.
    when = [times_rng.randint(0, max(events // 4, 1)) for _ in range(events)]

    fired = [0]

    def action() -> None:
        fired[0] += 1

    legacy_loop = _legacy.LegacyEventLoop()
    start = time.perf_counter()
    for t in when:
        legacy_loop.schedule_at(t, action)
    legacy_executed = legacy_loop.run_until_idle(max_events=events + 1)
    legacy_seconds = time.perf_counter() - start

    fast_loop = EventLoop()
    start = time.perf_counter()
    for t in when:
        fast_loop.schedule_at(t, action)
    fast_executed = 0
    while True:
        batch = fast_loop.run_batch()
        if batch == 0:
            break
        fast_executed += batch
    fast_seconds = time.perf_counter() - start

    if fast_executed != legacy_executed or fired[0] != 2 * events:
        raise SimulationError("event-loop fast path executed a different schedule")
    return _micro_record("event_loop", events, legacy_seconds, fast_seconds)


def bench_latency(samples: int = 100_000, seed: int = 2017, memory_mb: int = 448) -> Dict[str, object]:
    """Seed per-call sampling vs block sampling, same values asserted."""
    component = "s3.put"
    legacy_rng = SeededRng(seed, "bench/latency")
    start = time.perf_counter()
    legacy_values = [
        _legacy.legacy_sample(legacy_rng, component, memory_mb=memory_mb).micros
        for _ in range(samples)
    ]
    legacy_seconds = time.perf_counter() - start

    model = LatencyModel(rng=SeededRng(seed, "bench/latency"))
    start = time.perf_counter()
    fast_values = model.sample_block(component, samples, memory_mb)
    fast_seconds = time.perf_counter() - start

    if fast_values != legacy_values:
        raise SimulationError("block sampling diverged from the seed path")
    return _micro_record("latency", samples, legacy_seconds, fast_seconds)


def _micro_record(
    name: str, events: int, legacy_seconds: float, fast_seconds: float
) -> Dict[str, object]:
    return {
        "name": name,
        "events": events,
        "legacy_seconds": round(legacy_seconds, 6),
        "fast_seconds": round(fast_seconds, 6),
        "legacy_events_per_second": round(events / legacy_seconds, 1) if legacy_seconds else 0.0,
        "fast_events_per_second": round(events / fast_seconds, 1) if fast_seconds else 0.0,
        "speedup": round(legacy_seconds / fast_seconds, 3) if fast_seconds else float("inf"),
    }


# -- the full benchmark record ------------------------------------------


def run_scale_benchmark(
    config: ScaleConfig,
    micro_events: int = 100_000,
    include_inline: bool = True,
) -> Dict[str, object]:
    """Run fleet (legacy vs batched) plus the microbenchmarks.

    Returns the JSON-ready record the benchmark writes to
    ``BENCH_scale.json``: per-engine fleet results, the headline
    events/sec speedup, per-hot-path microbenchmark speedups, and a
    determinism block proving every engine produced the same bill.
    """
    legacy = run_fleet(config, "legacy")
    batched = run_fleet(config, "batched")
    engines = {"legacy": legacy, "batched": batched}
    if include_inline:
        engines["inline"] = run_fleet(config, "inline")

    totals = {result.invoice_total for result in engines.values()}
    counts = {result.arrivals for result in engines.values()}
    streams = {result.per_tenant_arrivals for result in engines.values()}
    deterministic = len(totals) == 1 and len(counts) == 1 and len(streams) == 1
    if not deterministic:
        raise SimulationError(
            f"engines disagreed: totals={sorted(totals)}, arrivals={sorted(counts)}"
        )

    fleet_speedup = (
        legacy.phases["simulate"] / batched.phases["simulate"]
        if batched.phases["simulate"] > 0
        else float("inf")
    )
    micro = [
        bench_workload(micro_events, config.seed),
        bench_event_loop(max(micro_events // 2, 1), config.seed),
        bench_latency(micro_events, config.seed, config.memory_mb),
    ]
    return {
        "bench": "scale_throughput",
        "config": config.as_dict(),
        "fleet": {name: result.as_dict() for name, result in engines.items()},
        "fleet_speedup": round(fleet_speedup, 3),
        "micro": micro,
        "determinism": {
            "engines": sorted(engines),
            "invoice_total": legacy.invoice_total,
            "arrivals": legacy.arrivals,
            "identical": deterministic,
        },
    }


def run_obs_benchmark(
    config: ScaleConfig,
    sample_rate: float = 1 / 64,
    capacity: int = 4096,
    prices: PriceBook = PRICES_2017,
    repeats: int = 3,
) -> Dict[str, object]:
    """Tracing-off vs tracing-on throughput on the batched engine.

    The acceptance budget is <10% overhead at the default 1/64 head
    sample rate. The run also proves tracing changed *nothing* billable
    (identical invoice total and arrival counts) and summarizes the
    retained traces' critical path — the JSON-ready record the CLI
    writes to ``BENCH_obs.json``.

    Each mode runs ``repeats`` times and keeps its fastest wall time
    (best-of-N), so the overhead figure reflects the instrumentation,
    not allocator warm-up or scheduler jitter.
    """
    # Function-level: obs.export pulls in sim.metrics, whose package
    # init imports this module (a cycle at import time, not at runtime).
    from repro.obs.export import decomposition_report

    if repeats < 1:
        raise ConfigurationError("obs benchmark needs at least one repeat")
    # Interleave the modes (off, on, off, on, ...) so a load drift on
    # the host machine penalizes both equally, then keep each mode's
    # fastest repeat.
    off = on = tracer = None
    for _ in range(repeats):
        candidate_off = run_fleet(config, "batched", prices)
        if off is None or candidate_off.wall_seconds < off.wall_seconds:
            off = candidate_off
        # A fresh tracer per repeat: the collector's stride counter and
        # the id stream must start from the same state every time.
        candidate_tracer = Tracer(
            SimClock(),
            SeededRng(config.seed, "scale/obs"),
            TraceCollector(capacity=capacity, sample_rate=sample_rate),
        )
        candidate_on = run_fleet(config, "batched", prices, tracer=candidate_tracer)
        if on is None or candidate_on.wall_seconds < on.wall_seconds:
            on, tracer = candidate_on, candidate_tracer
    identical = (
        off.invoice_total == on.invoice_total
        and off.per_tenant_arrivals == on.per_tenant_arrivals
    )
    if not identical:
        raise SimulationError("tracing perturbed the batched engine's bill")
    off_eps = off.events_per_second
    on_eps = on.events_per_second
    overhead_pct = 100.0 * (off_eps - on_eps) / off_eps if off_eps else 0.0
    return {
        "bench": "obs_overhead",
        "config": config.as_dict(),
        "sample_rate": sample_rate,
        "capacity": capacity,
        "tracing_off": off.as_dict(),
        "tracing_on": on.as_dict(),
        "overhead_pct": round(overhead_pct, 3),
        "within_budget": overhead_pct < 10.0,
        "spans": tracer.collector.stats(),
        "determinism": {
            "invoice_total": off.invoice_total,
            "arrivals": off.arrivals,
            "identical": identical,
        },
        "critical_path": decomposition_report(tracer.collector.traces(), prices),
    }
