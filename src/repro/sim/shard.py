"""Sharded, vectorized fleet engine: one virtual year for a million tenants.

:mod:`repro.sim.scale` proved the single-process engines agree byte for
byte; this module is the next rung on the ROADMAP's "millions of users"
ladder. The fleet is partitioned into a fixed number of **logical
shards** — the unit of both vectorization and parallelism — and each
shard runs independently on the bit-reproducible kernels in
:mod:`repro.sim.vecmath`:

* arrivals come from :meth:`DiurnalWorkload.arrival_batches_vec
  <repro.sim.workload.DiurnalWorkload.arrival_batches_vec>` over a
  *pooled* workload (the superposition of ``n`` i.i.d. diurnal Poisson
  processes is one diurnal Poisson process at ``n``× the rate, with
  each arrival assigned to a uniformly random tenant — statistically
  exact, and 1-D vectorizable);
* per-request latencies come from :meth:`LatencyModel.sample_block_vec
  <repro.sim.latency.LatencyModel.sample_block_vec>` quantile tables;
* billing is the fleet-engine core's vectorized fold
  (:class:`repro.sim.engine.ShardFold`), in exact integer accumulators
  until a single fleet-level float conversion after the merge
  (:func:`repro.sim.engine.meter_rollup`).

What is this engine's own is the arrival source — a pooled workload
per shard, each arrival assigned to a tenant by one ``assign`` draw —
and the tenant map. The shard loop, the merge's shared part
(:func:`repro.sim.engine.merge_totals`) and the worker pool
(:func:`repro.sim.engine.map_jobs`) are the core's, shared with the
sharded replayer.

Determinism contract (``tests/sim/test_shard_fleet.py``):

1. **Worker-count invariance.** ``shard_of`` maps a tenant to its
   logical shard as a pure function of the tenant id — never of list
   order or worker count — and workers process whole shards, so the
   same :class:`FleetConfig` produces byte-identical invoices, tenant
   counts, and SLA reports on 1, 2, or N workers.
2. **Merge order independence.** :func:`merge_shards` canonicalizes by
   shard id; integer totals add exactly, float conversions happen once
   from the merged integers, and :class:`~repro.sim.metrics.MetricSeries`
   statistics go through ``fsum`` — so no statistic depends on which
   worker finished first.
3. **Numpy independence.** Every kernel is bitwise identical with and
   without numpy (``tests/sim/test_vec_fallback.py``); the fallback is
   just slower.

The sharded stream is its *own* canonical stream (per-shard RNG
namespaces ``fleet/shard-<id>/...``): deterministic per seed, but not
the per-tenant stream of :func:`repro.sim.scale.run_fleet`, whose
seed-era goldens stay untouched.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.billing import BillingMeter, Invoice, UsageKind
from repro.cloud.pricing import PRICES_2017, PriceBook
from repro.errors import ConfigurationError
from repro.sim import vecmath
from repro.sim.engine import (
    MergedDigests,
    ShardFold,
    fleet_sla_report,
    handler_components,
    map_jobs,
    merge_totals,
    meter_requests,
    meter_rollup,
    served_tracker,
)
from repro.sim.latency import LatencyModel
from repro.sim.metrics import AvailabilityTracker, MetricSeries
from repro.sim.profile import PerfCounters
from repro.sim.rng import SeededRng
from repro.sim.scale import PlanKnobs, ScaleConfig, run_fleet
from repro.sim.workload import HOURLY_PROFILE_PERSONAL, DiurnalWorkload
from repro.units import DAYS_PER_MONTH

__all__ = [
    "DEFAULT_LOGICAL_SHARDS",
    "shard_of",
    "shard_tenants",
    "FleetConfig",
    "ShardResult",
    "ShardedFleetResult",
    "run_shard",
    "merge_shards",
    "run_fleet_sharded",
    "run_fleet_benchmark",
]

# The fixed partitioning of the tenant space. Logical shards — not
# workers — are the unit of determinism: a worker pool of any size
# processes whole shards, so results can never depend on worker count.
DEFAULT_LOGICAL_SHARDS = 64

_MASK64 = (1 << 64) - 1


def shard_of(tenant_id: int, shards: int = DEFAULT_LOGICAL_SHARDS) -> int:
    """The logical shard owning ``tenant_id`` — a pure function of the id.

    A splitmix64 finalizer scrambles the id before the modulo so that
    contiguous tenant ranges spread evenly across shards; nothing about
    the mapping depends on fleet size, tenant ordering, or worker
    count.
    """
    if shards <= 0:
        raise ConfigurationError(f"shard count must be positive, got {shards}")
    x = (tenant_id + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x = x ^ (x >> 31)
    return x % shards


def _shard_map(tenants: int, shards: int):
    """Every tenant's logical shard, ``shard_of`` over ``range(tenants)``.

    An int64 ``ndarray`` under numpy, a list under the fallback; the
    values are identical either way (splitmix64 is exact integer math
    in both).
    """
    np = vecmath.numpy_or_none()
    if np is None:
        return [shard_of(t, shards) for t in range(tenants)]
    ids = np.arange(tenants, dtype=np.uint64)
    x = (ids + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(_MASK64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return (x % np.uint64(shards)).astype(np.int64)


def shard_tenants(
    tenants: int, shard_id: int, shards: int = DEFAULT_LOGICAL_SHARDS
):
    """Ascending tenant ids owned by ``shard_id`` (vectorized when possible).

    Returns an int64 ``ndarray`` under numpy, a list under the
    fallback; the ids are identical either way.
    """
    owners = _shard_map(tenants, shards)
    if isinstance(owners, list):
        return [t for t, owner in enumerate(owners) if owner == shard_id]
    return (owners == shard_id).nonzero()[0].astype("int64")


@dataclass(frozen=True)
class FleetConfig(PlanKnobs):
    """One sharded-fleet scenario: ``tenants`` accounts over ``days`` days.

    Defaults model the paper's setting at headline scale: a million
    personal deployments making ~1 request/day each for one virtual
    year, each Lambda at the prototype's 448 MB.
    """

    tenants: int = 1_000_000
    daily_requests: float = 1.0
    days: float = 365.0
    seed: int = 2017
    memory_mb: int = 448
    payload_bytes: int = 2048
    logical_shards: int = DEFAULT_LOGICAL_SHARDS
    chunk_events: int = 1 << 18
    latency_samples: int = 1 << 16
    storage: str = "s3"
    # GB of at-rest state per tenant: 0.0 (the default) meters no
    # storage-month usage at all, keeping pre-plan invoices byte-identical.
    storage_gb_per_tenant: float = 0.0

    def __post_init__(self):
        from repro.runtime.store import STORAGE_BACKENDS

        if self.storage not in STORAGE_BACKENDS:
            raise ConfigurationError(
                f"storage must be one of {STORAGE_BACKENDS}, got {self.storage!r}"
            )
        if self.storage_gb_per_tenant < 0:
            raise ConfigurationError("per-tenant storage cannot be negative")
        if self.tenants <= 0:
            raise ConfigurationError("fleet needs at least one tenant")
        if self.daily_requests < 0:
            raise ConfigurationError("daily request rate cannot be negative")
        if self.days <= 0:
            raise ConfigurationError("fleet needs a positive duration")
        if self.logical_shards <= 0:
            raise ConfigurationError("fleet needs at least one logical shard")
        if self.chunk_events <= 0:
            raise ConfigurationError("chunk_events must be positive")
        if self.latency_samples <= 0:
            raise ConfigurationError("latency_samples must be positive")

    def components(self) -> Tuple[str, ...]:
        return handler_components(self.storage)

    def expected_requests(self) -> float:
        return self.tenants * self.daily_requests * self.days

    def sample_stride(self) -> int:
        """Keep roughly ``latency_samples`` e2e samples fleet-wide.

        A pure function of the config (not of shard or worker count),
        applied to each shard's local event index — so the sampled set
        is invariant to how shards are scheduled onto workers.
        """
        return max(1, int(self.expected_requests()) // self.latency_samples)

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenants": self.tenants,
            "daily_requests": self.daily_requests,
            "days": self.days,
            "seed": self.seed,
            "memory_mb": self.memory_mb,
            "payload_bytes": self.payload_bytes,
            "logical_shards": self.logical_shards,
            "chunk_events": self.chunk_events,
            "latency_samples": self.latency_samples,
            "storage": self.storage,
            "storage_gb_per_tenant": self.storage_gb_per_tenant,
        }


@dataclass
class ShardResult:
    """One logical shard's exact accumulators — plain data, picklable.

    Everything here is either an exact integer or a float produced by a
    deterministic kernel, so merging shard results in any order
    reconstructs the same fleet totals.
    """

    shard_id: int
    tenant_count: int
    events: int
    billed_units: int
    tenant_counts: List[int]
    latency_ms: List[float]
    hod_hist: List[int]
    samples_drawn: int
    run_seconds: float
    # Shard-local health plane (repro.obs.metrics.MetricsPlane) when the
    # run collected health, else None. Plain data + integer accumulators,
    # so it pickles across the process pool and merges order-free.
    health: Optional[object] = None

    def total_billed_ms(self) -> int:
        return self.billed_units * 100


def _shard_rng(config: FleetConfig, shard_id: int, stream: str) -> SeededRng:
    return SeededRng(config.seed, f"fleet/shard-{shard_id}/{stream}")


def run_shard(
    config: FleetConfig, shard_id: int, collect_health: bool = False
) -> ShardResult:
    """Simulate one logical shard on the vectorized kernels.

    The shard's tenants share one *pooled* diurnal workload at the sum
    of their rates (superposition), and each accepted arrival is
    assigned to a tenant by one uniform draw — the construction that
    turns a million per-tenant event loops into a handful of 1-D array
    passes. All RNG streams are namespaced by logical shard id, so the
    result is a pure function of ``(config, shard_id)``.

    With ``collect_health``, a shard-local
    :class:`~repro.obs.metrics.MetricsPlane` accumulates the same
    series :func:`repro.sim.scale.run_fleet` records (``fleet.requests``,
    ``fleet.billed_ms``, the ``fleet.request_us`` log histogram) and
    rides back on the result. Collection reads the already-computed
    latency blocks — no extra RNG draw — so billing stays byte-identical.
    """
    if not 0 <= shard_id < config.logical_shards:
        raise ConfigurationError(
            f"shard id {shard_id} out of range [0, {config.logical_shards})"
        )
    start = time.perf_counter()
    np = vecmath.numpy_or_none()
    tenant_ids = shard_tenants(config.tenants, shard_id, config.logical_shards)
    n_t = len(tenant_ids)
    fold = ShardFold(
        LatencyModel(rng=_shard_rng(config, shard_id, "latency")),
        config.components(), config.memory_mb, config.sample_stride(), collect_health,
    )
    counts = np.zeros(n_t, dtype=np.int64) if np is not None else [0] * n_t
    if n_t and config.daily_requests:
        workload = DiurnalWorkload(
            config.daily_requests * n_t,
            _shard_rng(config, shard_id, "workload"),
            HOURLY_PROFILE_PERSONAL,
        )
        assign_rng = _shard_rng(config, shard_id, "assign")
        for chunk in workload.arrival_batches_vec(config.days, chunk=config.chunk_events):
            assign = assign_rng.uniform_block(len(chunk))
            if np is not None:
                idx = (np.asarray(assign) * n_t).astype(np.int64)
                # u < 1.0 can still round up to n_t at large n_t; clamp
                # like the scalar path's min().
                np.minimum(idx, n_t - 1, out=idx)
                counts += np.bincount(idx, minlength=n_t)
            else:
                for u in assign:
                    counts[min(int(u * n_t), n_t - 1)] += 1
            fold.add(chunk)
        fold.count_health()
    return ShardResult(
        shard_id=shard_id,
        tenant_count=n_t,
        tenant_counts=[int(c) for c in counts],
        run_seconds=time.perf_counter() - start,
        **fold.fields(),
    )


@dataclass
class ShardedFleetResult(MergedDigests):
    """The merged fleet: exact totals, the priced invoice, the SLA view."""

    config: FleetConfig
    workers: int
    events: int
    billed_units: int
    tenant_counts: List[int]
    hod_hist: List[int]
    shard_events: List[int]
    samples_drawn: int
    latency: MetricSeries
    tracker: AvailabilityTracker
    meter: BillingMeter
    invoice: Invoice
    invoice_total: str
    report: Dict[str, object]
    perf: PerfCounters
    # Merged fleet-wide health plane when shards collected health.
    health: Optional[object] = None


def merge_shards(
    config: FleetConfig,
    results: Sequence[ShardResult],
    prices: PriceBook = PRICES_2017,
) -> ShardedFleetResult:
    """Fold shard results into fleet totals, order-independently.

    The shared part — shard-id order, health planes, hour-of-day,
    latency series — is :func:`repro.sim.engine.merge_totals`. Tenant
    counts go back to their tenants through one tenant→shard map, and
    the two float billing quantities are computed *once* from the
    merged integers (:func:`repro.sim.engine.meter_rollup`) — so the
    invoice cannot depend on which worker delivered which shard first.
    """
    ordered, totals = merge_totals(results, config.logical_shards, "fleet.e2e_ms")
    events = totals["events"]
    meter = BillingMeter()
    meter_requests(meter, config.components(), events)
    meter_rollup(
        meter, config.memory_mb, totals["billed_units"] * 100, events * config.payload_bytes
    )
    if config.storage_gb_per_tenant > 0:
        gb_months = (
            config.storage_gb_per_tenant * config.tenants
            * config.days / DAYS_PER_MONTH
        )
        storage_kind = (
            UsageKind.DYNAMO_STORAGE_GB_MONTH if config.storage == "dynamo"
            else UsageKind.S3_STORAGE_GB_MONTH
        )
        meter.record(storage_kind, gb_months)
    invoice = Invoice(meter, prices)
    return ShardedFleetResult(
        config=config,
        workers=0,  # set by run_fleet_sharded
        tenant_counts=_place_tenant_counts(config, ordered),
        tracker=served_tracker(events),
        meter=meter,
        invoice=invoice,
        invoice_total=str(invoice.total()),
        report=fleet_sla_report(events, totals["latency"]),
        perf=PerfCounters(),
        **totals,
    )


def _place_tenant_counts(config: FleetConfig, ordered: Sequence[ShardResult]) -> List[int]:
    """Fleet-wide per-tenant counts, through one tenant→shard map.

    A stable argsort of the map lists each shard's tenants together and
    in ascending id order — the order a shard lists its counts in — so
    the counts, laid end to end by shard id, scatter back in one step.
    Shards missing from ``ordered`` leave their tenants at zero.
    """
    np = vecmath.numpy_or_none()
    owners = _shard_map(config.tenants, config.logical_shards)
    if np is None:
        order = sorted(range(config.tenants), key=owners.__getitem__)
        sizes = Counter(owners)
    else:
        order = np.argsort(owners, kind="stable")
        sizes = np.bincount(owners, minlength=config.logical_shards).tolist()
    by_shard = {result.shard_id: result for result in ordered}
    values: List[int] = []
    for shard_id in range(config.logical_shards):
        result = by_shard.get(shard_id)
        if result is None:
            values.extend([0] * sizes[shard_id])
            continue
        if result.tenant_count != sizes[shard_id]:
            raise ConfigurationError(
                f"shard {shard_id} result does not match config "
                f"({result.tenant_count} tenants vs {sizes[shard_id]})"
            )
        values.extend(result.tenant_counts)
    if np is None:
        counts = [0] * config.tenants
        for tenant, count in zip(order, values):
            counts[tenant] = count
        return counts
    counts = np.empty(config.tenants, dtype=np.int64)
    counts[order] = values
    return counts.tolist()


def run_fleet_sharded(
    config: FleetConfig,
    workers: int = 1,
    prices: PriceBook = PRICES_2017,
    collect_health: bool = False,
) -> ShardedFleetResult:
    """Run every logical shard — inline or on a worker pool — and merge.

    ``workers`` only controls scheduling: each worker process runs
    whole logical shards through :func:`run_shard`, so the merged
    result is byte-identical for any worker count
    (``tests/sim/test_shard_fleet.py`` pins 1 vs 2 vs 8). With
    ``collect_health``, each shard carries a local metrics plane and
    the merge folds them — the merged exposition is byte-identical
    across worker counts too (the digest gains ``exposition_sha256``).
    """
    perf = PerfCounters()
    jobs = [
        (config, shard_id, collect_health)
        for shard_id in range(config.logical_shards)
    ]
    with perf.phase("simulate"):
        results = map_jobs(run_shard, jobs, workers)
    with perf.phase("merge"):
        merged = merge_shards(config, results, prices)
    with perf.phase("invoice"):
        # Re-price from the merged meter so the invoice phase is timed
        # apart from the merge arithmetic.
        merged.invoice = Invoice(merged.meter, prices)
        merged.invoice_total = str(merged.invoice.total())
    merged.workers = workers
    perf.set("events", merged.events)
    perf.set("samples_drawn", merged.samples_drawn)
    perf.set("shard_seconds", sum(r.run_seconds for r in results))
    merged.perf = perf
    return merged


def run_fleet_benchmark(
    config: Optional[FleetConfig] = None,
    worker_counts: Sequence[int] = (1, 2, 4),
    prices: PriceBook = PRICES_2017,
    baseline: Optional[ScaleConfig] = None,
) -> Dict[str, object]:
    """The headline benchmark: a virtual year at fleet scale, plus proof.

    Runs the sharded engine at each worker count on the same config,
    measures a single-process batched-engine baseline on a calibration
    config (small enough to finish, per-event cost is scale-free), and
    emits a JSON-ready record with per-phase timings, events/s, the
    speedup over the batched engine, and a determinism block showing
    the invoice, tenant-count digest, and SLA report byte-identical
    across worker counts.
    """
    config = config or FleetConfig()
    baseline = baseline or ScaleConfig(tenants=48, daily_requests=1500.0, days=3.0,
                                       seed=config.seed, memory_mb=config.memory_mb,
                                       payload_bytes=config.payload_bytes)
    base_result = run_fleet(baseline, engine="batched", prices=prices)
    runs: List[Dict[str, object]] = []
    digests: List[Dict[str, object]] = []
    for workers in worker_counts:
        result = run_fleet_sharded(config, workers=workers, prices=prices)
        snapshot = result.perf.snapshot()
        simulate = result.perf.phase_seconds("simulate")
        runs.append({
            "workers": workers,
            "events": result.events,
            "wall_seconds": round(snapshot["wall_seconds"], 3),
            "phases": snapshot["phases"],
            "events_per_second": round(result.events / simulate, 1) if simulate else 0.0,
            "invoice_total": result.invoice_total,
            "latency_p99_ms": round(result.latency.p99(), 3) if len(result.latency) else None,
        })
        digests.append(result.determinism_digest())
    reference = digests[0]
    identical = all(d == reference for d in digests[1:])
    best_eps = max(run["events_per_second"] for run in runs)
    return {
        "benchmark": "fleet_sharded",
        "config": config.as_dict(),
        "host": {
            "cpu_count": os.cpu_count(),
            "numpy": vecmath.numpy_or_none() is not None,
        },
        "baseline": {
            "engine": "batched",
            "config": baseline.as_dict(),
            "events": base_result.arrivals,
            "events_per_second": round(base_result.events_per_second, 1),
        },
        "runs": runs,
        "speedup_vs_batched": round(best_eps / base_result.events_per_second, 2)
        if base_result.events_per_second else None,
        "determinism": {
            "worker_counts": list(worker_counts),
            "identical_across_worker_counts": identical,
            "digest": reference,
        },
    }
