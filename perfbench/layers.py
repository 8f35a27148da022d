"""Which ``repro`` entry points the traced run wraps, and the per-layer metrics.

Layer names follow the ``repro`` modules. A wrapped call's self time
(its span minus its wrapped children) is charged to its layer; code
that no wrapper covers is charged to the nearest wrapped caller.
``bench`` is the benchmark's own loop around each op.
"""

from __future__ import annotations

from typing import Dict, List

from spans import Instrumentation, SpanRecorder, by_op, layer_of, self_times

REQUEST_LAYERS = (
    "crypto", "net.tls", "protocols", "cloud.gateway", "runtime.kernel",
    "cloud.lambda", "cloud.kms", "cloud.s3", "cloud.sqs", "apps",
)
ENGINE_LAYERS = (
    "sim.workload.arrivals", "sim.rng.uniform", "sim.latency.sample",
    "sim.shard.assign", "sim.shard.fold", "sim.shard.merge", "cloud.billing.invoice",
    "replay.format.parse", "replay.format.digest", "replay.partition",
    "replay.shard", "replay.merge",
)
LARGE_AEAD_BYTES = 1024

# Every per-layer metric with its unit, in print order.
PER_LAYER_UNITS: Dict[str, str] = {
    **{f"{layer}.self_ms_per_op": "ms" for layer in REQUEST_LAYERS},
    "crypto.aead_calls_per_op": "count",
    "crypto.aead_kib_per_op": "KiB",
    "crypto.aead_large_share": "ratio",
    "crypto.x25519_ms": "ms",
    "cloud.lambda.invocations_per_op": "count",
    "cloud.lambda.cold_start_share": "ratio",
    "cloud.kms.calls_per_op": "count",
    "cloud.s3.objects_at_end": "count",
    "cloud.sqs.empty_receive_share": "ratio",
    "resilience.retries_per_op": "count",
    **{f"{layer}_ms": "ms" for layer in ENGINE_LAYERS},
    "sim.shard.assign_calls": "count",
    "sim.shard.latency_samples": "count",
    "sim.shard.pool_util": "ratio",
    "bench.self_ms_per_op": "ms",
    "tracing.overhead_share": "ratio",
}


def _aead_seal(rec: SpanRecorder, args, kwargs, result) -> None:
    _aead(rec, len(args[2]))


def _aead_open(rec: SpanRecorder, args, kwargs, result) -> None:
    _aead(rec, len(args[2]) - 16)


def _aead(rec: SpanRecorder, nbytes: int) -> None:
    rec.count("aead_calls")
    rec.count("aead_bytes", nbytes)
    if nbytes >= LARGE_AEAD_BYTES:
        rec.count("aead_large_bytes", nbytes)


def _invocation(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.count("lambda_invocations")
    rec.count("lambda_cold", 1 if result.cold_start else 0)


def _counter(key: str):
    def hook(rec: SpanRecorder, args, kwargs, result) -> None:
        rec.count(key)
    return hook


def _receive(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.count("sqs_receives")
    rec.count("sqs_empty", 0 if result else 1)


def install(inst: Instrumentation) -> None:
    """Wrap every layer entry point (the modules must import cleanly)."""
    import repro.apps.chat.client as chat_client
    import repro.apps.filetransfer.client as ft_client
    import repro.cloud.billing as billing
    import repro.cloud.gateway as gateway
    import repro.cloud.kms as kms
    import repro.cloud.lambda_.platform as platform
    import repro.cloud.s3 as s3
    import repro.cloud.sqs as sqs
    import repro.core.client as core_client
    import repro.crypto.envelope as envelope
    import repro.net.tls as tls
    import repro.protocols.bosh as bosh
    import repro.protocols.xmpp as xmpp
    import repro.runtime.kernel as kernel
    import repro.runtime.router as router
    import repro.runtime.store as store
    import repro.sim.latency as latency
    import repro.sim.replay.format  # noqa: F401  (bound by name below)
    import repro.sim.replay.replayer  # noqa: F401
    import repro.sim.rng as rng
    import repro.sim.shard  # noqa: F401
    import repro.sim.workload as workload

    # crypto
    inst.function("repro.crypto.aead", "seal", "crypto", _aead_seal)
    inst.function("repro.crypto.aead", "open_sealed", "crypto", _aead_open)
    inst.function("repro.crypto.aead", "chacha20_encrypt", "crypto")
    inst.function("repro.crypto.aead", "poly1305_mac", "crypto")
    inst.function("repro.crypto.x25519", "x25519", "crypto")
    inst.function("repro.crypto.x25519", "x25519_base", "crypto")
    inst.function("repro.crypto.hkdf", "hkdf", "crypto")
    inst.method(envelope.EnvelopeEncryptor, "encrypt", "crypto")
    inst.method(envelope.EnvelopeEncryptor, "decrypt", "crypto")
    # net.tls: the record layer, the handshake and the client's channel
    inst.method(tls.TlsSession, "seal", "net.tls")
    inst.method(tls.TlsSession, "open", "net.tls")
    inst.function("repro.net.tls", "handshake", "net.tls")
    inst.method(core_client.SecureChannel, "request", "net.tls")
    # protocols
    inst.method(bosh.BoshBody, "serialize", "protocols")
    inst.method(bosh.BoshBody, "deserialize", "protocols")
    inst.method(bosh.BoshSession, "wrap", "protocols")
    inst.method(xmpp.Stanza, "serialize", "protocols")
    inst.function("repro.protocols.xmpp", "parse_stanza", "protocols")
    # cloud services
    inst.method(gateway.ApiGateway, "handle", "cloud.gateway")
    inst.method(gateway.ApiGateway, "respond", "cloud.gateway")
    inst.method(platform.ServerlessPlatform, "invoke", "cloud.lambda", _invocation)
    for attr in ("generate_data_key", "encrypt_data_key", "decrypt_data_key"):
        inst.method(kms.KeyManagementService, attr, "cloud.kms", _counter("kms_calls"))
    for attr in ("put_object", "get_object", "delete_object", "list_objects"):
        inst.method(s3.ObjectStore, attr, "cloud.s3")
    inst.method(sqs.QueueService, "send_message", "cloud.sqs")
    inst.method(sqs.QueueService, "receive_messages", "cloud.sqs", _receive)
    inst.method(sqs.QueueService, "delete_message", "cloud.sqs")
    # runtime kernel: the built handler and the state store
    inst.wrap_returned(kernel.AppKernel, "handler", "runtime.kernel", "kernel_handler")
    for cls in (store.S3Store, store.CachedStore):
        for attr in ("get", "put", "list", "delete"):
            inst.method(cls, attr, "runtime.kernel")
    # apps: client entry points and the server endpoints the router picks
    inst.wrap_route_endpoints(router.Router, "match", "apps")
    inst.method(chat_client.ChatClient, "send", "apps")
    inst.method(chat_client.ChatClient, "poll", "apps")
    for attr in ("send_file", "download", "acknowledge"):
        inst.method(ft_client.FileTransferClient, attr, "apps")
    # fleet engines
    inst.generator_method(workload.DiurnalWorkload, "arrival_batches_vec", "sim.workload.arrivals")
    inst.method(rng.SeededRng, "uniform_block", "sim.rng.uniform")
    inst.method(latency.LatencyModel, "sample_block_vec", "sim.latency.sample")
    inst.function("repro.sim.shard", "shard_tenants", "sim.shard.assign", _counter("assign_calls"))
    inst.function("repro.sim.shard", "run_shard", "sim.shard.fold")
    inst.function("repro.sim.shard", "merge_shards", "sim.shard.merge")
    inst.method(billing.Invoice, "__init__", "cloud.billing.invoice")
    inst.method(billing.Invoice, "total", "cloud.billing.invoice")
    inst.function("repro.sim.replay.format", "read_trace", "replay.format.parse")
    inst.function("repro.sim.replay.format", "trace_digest", "replay.format.digest")
    inst.function("repro.sim.replay.replayer", "partition_trace", "replay.partition")
    inst.function("repro.sim.replay.replayer", "replay_shard", "replay.shard")
    inst.function("repro.sim.replay.replayer", "merge_replay", "replay.merge")


def self_time_check(rec: SpanRecorder, walls: Dict[object, float]) -> float:
    """Largest |sum of an op's self times - its measured wall| / wall."""
    per_op = by_op(rec.spans, self_times(rec.spans))
    worst = 0.0
    for op, wall in walls.items():
        total = sum(per_op[op].values())
        worst = max(worst, abs(total - wall) / wall)
    return worst


def per_layer_metrics(rec: SpanRecorder, ops: List[object], extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric (0 where the workload has no such layer)."""
    selfs = self_times(rec.spans)
    layer_ms: Dict[str, float] = {}
    x25519_ms = 0.0
    op_set = set(ops)
    for span, own in zip(rec.spans, selfs):
        if span[4] in op_set:
            layer = layer_of(span[0])
            layer_ms[layer] = layer_ms.get(layer, 0.0) + own * 1000.0
        elif span[4] == "setup" and span[0].startswith("crypto:x25519"):
            x25519_ms += own * 1000.0
    n = len(ops)
    counts = rec.counts
    aead_bytes = counts["aead_bytes"]
    metrics = {f"{layer}.self_ms_per_op": layer_ms.get(layer, 0.0) / n for layer in REQUEST_LAYERS}
    metrics.update({
        "crypto.aead_calls_per_op": counts["aead_calls"] / n,
        "crypto.aead_kib_per_op": aead_bytes / 1024.0 / n,
        "crypto.aead_large_share": counts["aead_large_bytes"] / aead_bytes if aead_bytes else 0.0,
        "crypto.x25519_ms": x25519_ms,
        "cloud.lambda.invocations_per_op": counts["lambda_invocations"] / n,
        "cloud.lambda.cold_start_share": (
            counts["lambda_cold"] / counts["lambda_invocations"]
            if counts["lambda_invocations"] else 0.0),
        "cloud.kms.calls_per_op": counts["kms_calls"] / n,
        "cloud.sqs.empty_receive_share": (
            counts["sqs_empty"] / counts["sqs_receives"] if counts["sqs_receives"] else 0.0),
        "sim.shard.assign_calls": counts["assign_calls"] / n,
        "bench.self_ms_per_op": layer_ms.get("bench", 0.0) / n,
    })
    metrics.update({f"{layer}_ms": layer_ms.get(layer, 0.0) / n for layer in ENGINE_LAYERS})
    metrics.update(extra)
    missing = set(PER_LAYER_UNITS) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: metrics[name] for name in PER_LAYER_UNITS}
