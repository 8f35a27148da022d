"""The four benchmark workloads: seeded inputs, set-up, one op, its check.

Every workload is a closed loop at a fixed input size. A workload object
is built from the seed and a :class:`Scale`; ``run.py``
then calls, in order:

``make_inputs(n_ops)``
    Seeded inputs (message bodies, file bytes, the replay trace file).
    Never timed, and never part of ``setup_s``.
``setup()``
    The program's own set-up before the first timed op, warm-up ops
    included. Returns the state the ops run against.
``op(state, i)``
    One operation; returns what ``check`` needs and the host seconds
    spent in the program's calls (the check's own work is not timed).
``check(state, i, result)``
    The output check of one op: ``None`` or a failure message.
``finish(state)``
    Checks that need the whole run, plus the values printed as checked
    simulation outputs (not metrics). Returns ``(errors, checked)``.
"""

from __future__ import annotations

import hashlib
import os
import random
import string
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

DEFAULT_SEED = 2017

# Pinned determinism digests (events, billed units, invoice total,
# per-tenant count sha256) for the default seed. The warm-up entries are
# checked on every run, the full-size ones when --seed is the default.
PINNED = {
    "fleet-warmup": (1998, 2811, "$0.01",
                     "1805cb9a277cf523bab77fff0c5c8eb318682c3eed0e8b16ea09ea88240c06f1"),
    "fleet-month": (6001938, 8489883, "$34.03",
                    "0f5370dfcc8937aebbf43cd0eb7117a7c7e6cd929245ede40955a7badedf57a2"),
    "replay-warmup": (11757, 16626, "$0.06",
                      "1a59d79dd4e6ce9e8be7d23228e4cbc07d7f086ff6224812d61a8fa792bfa876"),
    "replay-iot": (188112, 266074, "$1.21",
                   "170aebf4eaef11f9534e540feb622fe8935d41f6aad96d75aed0eca54653a3d4"),
}


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    fleet_tenants: int = 200_000
    fleet_days: float = 30.0
    replay_copies: int = 16


FULL = Scale()
TINY = Scale(fleet_tenants=3_000, fleet_days=1.0, replay_copies=1)


def _digest_key(digest: Dict[str, object]) -> Tuple[object, ...]:
    return (digest["events"], digest["billed_units"], digest["invoice_total"],
            digest["tenant_counts_sha256"])


class Workload:
    name = ""
    kind = ""  # "request" or "engine"
    workers = 0  # pool workers of one op; 0 means the op runs in-process
    ops_per_second = 1.0  # op count per second of --seconds (fixed, not measured)
    min_ops = 3
    warmup_ops = 0  # untimed ops at the end of set-up
    # Host-speed reference (see run.py): ``reference_count`` timings of the
    # reference kernel before every ``reference_every``-th op (and after
    # the last op); an op's time is scaled by the timings taken within
    # ``reference_span`` ops of it.
    reference_every = 1
    reference_count = 1
    reference_span = 5

    def __init__(self, seed: int, scale: Scale = FULL, cache_dir: Optional[Path] = None):
        self.seed = seed
        self.scale = scale
        self.cache_dir = cache_dir

    def op_count(self, seconds: float) -> int:
        return max(self.min_ops, round(self.ops_per_second * seconds))


# -- request path -----------------------------------------------------------


class ChatSmall(Workload):
    """alice sends one 64-200 B message; bob long-polls until it arrives."""

    name = "chat-small"
    kind = "request"
    ops_per_second = 100.0
    warmup_ops = 10
    reference_every = 4
    reference_span = 20
    max_polls = 3

    def make_inputs(self, n_ops: int) -> None:
        rng = random.Random(f"chat-small/{self.seed}")
        alphabet = string.ascii_letters + string.digits + " .,"
        self.messages = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(64, 200)))
            for _ in range(self.warmup_ops + n_ops)
        ]

    def setup(self):
        from repro import CloudProvider
        from repro.apps.chat import ChatClient, ChatService, chat_manifest
        from repro.core.deployment import Deployer

        provider = CloudProvider(seed=self.seed)
        app = Deployer(provider).deploy(chat_manifest(memory_mb=448), owner="alice")
        service = ChatService(app)
        service.create_room("room", ["alice@diy", "bob@diy"])
        alice = ChatClient(service, "alice@diy")
        bob = ChatClient(service, "bob@diy")
        for client in (alice, bob):
            client.join("room")
            client.connect()
        state = {"provider": provider, "app": app, "alice": alice, "bob": bob,
                 "seen": set(), "clients": (alice, bob)}
        for i in range(self.warmup_ops):
            self._exchange(state, self.messages[i])
        return state

    def _exchange(self, state, text: str):
        state["alice"].send("room", text)
        received = []
        for _ in range(self.max_polls):
            received.extend(state["bob"].poll())
            if received:
                break
        return received

    def op(self, state, i: int):
        started = time.perf_counter()
        received = self._exchange(state, self.messages[self.warmup_ops + i])
        return received, time.perf_counter() - started

    def check(self, state, i: int, received) -> Optional[str]:
        expected = self.messages[self.warmup_ops + i]
        if len(received) != 1:
            return f"message {i}: {len(received)} deliveries, want exactly 1"
        message = received[0]
        key = (message.sender, message.stanza.stanza_id)
        if key in state["seen"]:
            return f"message {i}: delivered twice"
        state["seen"].add(key)
        if message.body != expected or message.sender != "alice@diy":
            return f"message {i}: wrong body or sender"
        return None

    def finish(self, state):
        errors = []
        leftover = state["bob"].poll()
        if leftover:
            errors.append(f"{len(leftover)} messages delivered after their op")
        provider, app = state["provider"], state["app"]
        name = f"{app.instance_name}-handler"
        e2e = provider.metrics.get("chat.e2e_ms").median()
        billed = provider.lambda_.metrics.get(f"{name}.billed_ms").median()
        total = provider.invoice().total()
        # Table 3 of the paper: 211 ms chat E2E, 200 ms billed at 448 MB.
        if not 150.0 <= e2e <= 300.0:
            errors.append(f"virtual chat e2e p50 {e2e:.1f} ms is outside 150-300 ms")
        if billed != 200:
            errors.append(f"billed-ms p50 {billed} is not 200 ms")
        if not total.amount > 0:
            errors.append("the invoice is empty")
        checked = {"virtual_e2e_ms_p50": round(e2e, 3), "billed_ms_p50": billed,
                   "invoice_total": str(total)}
        return errors, checked


class FiledropBulk(Workload):
    """send_file -> download -> acknowledge of one seeded 8 KiB file."""

    name = "filedrop-bulk"
    kind = "request"
    ops_per_second = 7.0
    warmup_ops = 2
    file_bytes = 8 * 1024

    def make_inputs(self, n_ops: int) -> None:
        rng = random.Random(f"filedrop-bulk/{self.seed}")
        self.files = [rng.randbytes(self.file_bytes)
                      for _ in range(self.warmup_ops + n_ops)]
        self.sha = [hashlib.sha256(data).hexdigest() for data in self.files]

    def setup(self):
        from repro import CloudProvider
        from repro.apps.filetransfer import FileTransferClient, file_transfer_manifest
        from repro.core.deployment import Deployer

        provider = CloudProvider(seed=self.seed)
        app = Deployer(provider).deploy(file_transfer_manifest(), owner="dana")
        dana = FileTransferClient(app, "dana")
        eli = FileTransferClient(app, "eli")
        state = {"provider": provider, "app": app, "dana": dana, "eli": eli,
                 "bucket": f"{app.instance_name}-drop", "clients": (dana, eli)}
        # The clients open their TLS channels on their first request.
        for i in range(self.warmup_ops):
            self._transfer(state, self.files[i])
        return state

    def _transfer(self, state, data: bytes):
        started = time.perf_counter()
        ticket = state["dana"].send_file("f.bin", "eli", data)
        received = state["eli"].download(ticket)
        elapsed = time.perf_counter() - started
        # Ciphertext is at rest only until the ack, so the check's scan
        # for plaintext happens here, outside the timed calls.
        stored = [raw for _key, raw in state["provider"].s3.raw_scan(state["bucket"])]
        started = time.perf_counter()
        deleted = state["eli"].acknowledge(ticket)
        elapsed += time.perf_counter() - started
        return (received, stored, deleted), elapsed

    def op(self, state, i: int):
        return self._transfer(state, self.files[self.warmup_ops + i])

    def check(self, state, i: int, result) -> Optional[str]:
        received, stored, deleted = result
        data = self.files[self.warmup_ops + i]
        if hashlib.sha256(received).hexdigest() != self.sha[self.warmup_ops + i]:
            return f"file {i}: downloaded sha256 differs from the upload"
        if not stored:
            return f"file {i}: nothing stored before the ack"
        if any(data[:64] in raw for raw in stored):
            return f"file {i}: plaintext visible in the drop bucket"
        if list(state["provider"].s3.raw_scan(state["bucket"])):
            return f"file {i}: drop bucket not empty after the ack ({deleted} deleted)"
        return None

    def finish(self, state):
        total = state["provider"].invoice().total()
        errors = [] if total.amount > 0 else ["the invoice is empty"]
        return errors, {"invoice_total": str(total)}


# -- fleet engines ------------------------------------------------------------


class _Engine(Workload):
    kind = "engine"
    workers = 2
    reference_count = 3
    reference_span = 1
    setup_modules: Tuple[str, ...] = ()  # imported as part of set-up
    warmup_key = ""  # the PINNED entry of the warm-up run

    def _check_digest(self, key: str, digest: Dict[str, object]) -> Optional[str]:
        want = PINNED[key]
        got = _digest_key(digest)
        if got != want:
            return f"{key} digest {got} differs from the pinned {want}"
        return None

    def setup(self):
        # In-process, so the latency tables are built before the pool
        # forks and every worker inherits them.
        return {"warmup_error": self._check_digest(self.warmup_key, self.warmup(1))}

    def check(self, state, i: int, result) -> Optional[str]:
        digest = result.determinism_digest()
        if state.get("digest") is None:
            state["digest"] = digest
            if self.seed == DEFAULT_SEED and self.scale == FULL:
                return self._check_digest(self.name, digest)
            return None
        if digest != state["digest"]:
            return f"op {i}: determinism digest differs from op 0"
        return None

    def finish(self, state):
        digest = state.get("digest") or {}
        errors = [state["warmup_error"]] if state["warmup_error"] else []
        # The warm-up again at the ops' worker count, outside timing and
        # set-up: the pool and merge path meet a pinned value at any seed.
        pooled = self._check_digest(self.warmup_key, self.warmup(self.workers))
        if pooled:
            errors.append(f"at {self.workers} workers: {pooled}")
        return errors, {"invoice_total": digest.get("invoice_total"),
                        "events": digest.get("events")}


class FleetMonth(_Engine):
    """run_fleet_sharded(FleetConfig(tenants=200_000, days=30), workers=2)."""

    name = "fleet-month"
    ops_per_second = 0.55
    setup_modules = ("repro.sim.shard",)
    warmup_key = "fleet-warmup"

    def make_warmup_inputs(self) -> None:
        pass

    def make_inputs(self, n_ops: int) -> None:
        from repro.sim.shard import FleetConfig

        self.config = FleetConfig(tenants=self.scale.fleet_tenants,
                                  days=self.scale.fleet_days, seed=self.seed)

    def warmup(self, workers: int):
        from repro.sim.shard import FleetConfig, run_fleet_sharded

        config = FleetConfig(tenants=2_000, days=1.0, seed=DEFAULT_SEED)
        return run_fleet_sharded(config, workers=workers).determinism_digest()

    def op(self, state, i: int, workers: Optional[int] = None):
        from repro.sim.shard import run_fleet_sharded

        started = time.perf_counter()
        result = run_fleet_sharded(self.config, workers=workers or self.workers)
        return result, time.perf_counter() - started


# The program files that decide the replay trace file's bytes; the
# cached file's name carries their hash, so a change to any of them
# writes a new file instead of reusing one an older program wrote.
TRACE_SOURCES = ("repro/sim/replay/format.py", "repro/sim/rng.py", "repro/units.py",
                 "repro/sim/scenarios/__init__.py", "repro/sim/scenarios/library.py",
                 "repro/sim/scenarios/transforms.py")


def trace_sources_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for name in TRACE_SOURCES:
        digest.update(name.encode() + b"\0" + (src / name).read_bytes() + b"\0")
    return digest.hexdigest()


class ReplayIot(_Engine):
    """read_trace of iot-fleet x tenant_multiply(16), then run_replay_sharded."""

    name = "replay-iot"
    ops_per_second = 0.5
    setup_modules = ("repro.sim.replay.format", "repro.sim.replay.replayer")
    warmup_key = "replay-warmup"

    def _trace_path(self) -> Path:
        import repro

        sources = trace_sources_sha256(Path(repro.__file__).resolve().parent.parent)
        return self.cache_dir / (f"iot-fleet-x{self.scale.replay_copies}-seed{self.seed}"
                                 f"-{sources[:16]}.jsonl.gz")

    def make_inputs(self, n_ops: int) -> None:
        from repro.sim.replay.format import trace_digest, write_trace
        from repro.sim.scenarios import build_scenario, tenant_multiply

        path = self._trace_path()
        sidecar = path.with_name(path.name + ".sha256")
        if not (path.exists() and sidecar.exists()):
            trace = tenant_multiply(build_scenario("iot-fleet", self.seed),
                                    self.scale.replay_copies)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            partial = path.with_name(path.name + f".{os.getpid()}.part.gz")
            write_trace(partial, trace)
            sidecar.write_text(trace_digest(trace) + "\n")
            os.replace(partial, path)
        self.path = path
        self.written_sha256 = sidecar.read_text().strip()
        self.make_warmup_inputs()

    def make_warmup_inputs(self) -> None:
        from repro.sim.scenarios import build_scenario

        self.warm_trace = build_scenario("iot-fleet", DEFAULT_SEED)

    def warmup(self, workers: int):
        from repro.sim.replay.replayer import ReplayConfig, run_replay_sharded

        config = ReplayConfig(seed=DEFAULT_SEED)
        return run_replay_sharded(self.warm_trace, config, workers=workers).determinism_digest()

    def op(self, state, i: int, workers: Optional[int] = None):
        from repro.sim.replay.format import read_trace
        from repro.sim.replay.replayer import ReplayConfig, run_replay_sharded

        started = time.perf_counter()
        trace = read_trace(self.path)
        result = run_replay_sharded(trace, ReplayConfig(seed=self.seed),
                                    workers=workers or self.workers)
        elapsed = time.perf_counter() - started
        state["read_events"] = len(trace.events)
        return result, elapsed

    def check(self, state, i: int, result) -> Optional[str]:
        if result.trace_sha256 != self.written_sha256:
            return f"op {i}: read trace digest differs from the written one"
        if result.events != state["read_events"]:
            return (f"op {i}: replayed {result.events} events of the "
                    f"{state['read_events']} in the read trace")
        return super().check(state, i, result)


WORKLOADS = {cls.name: cls for cls in (ChatSmall, FiledropBulk, FleetMonth, ReplayIot)}
