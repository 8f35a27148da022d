"""The fleet-engine core: the shared billing rule and the worker pool.

* both folds — the scalar one of the batched engines and the vectorized
  one of the sharded engines, numpy and fallback — round run time to
  100 ms units exactly as the Lambda platform's price book does;
* a pool worker that dies fails the run at once instead of hanging it;
* ``merge_shards`` puts every tenant count back on its tenant through
  one tenant→shard map, on both paths and for partial merges too.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.sim.shard as shard
from repro.cloud.billing import BillingMeter
from repro.cloud.pricing import PRICES_2017
from repro.errors import ConfigurationError
from repro.sim import vecmath
from repro.sim.engine import HANDLER_COMPONENTS, ShardFold, fold_chunk, map_jobs
from repro.sim.shard import FleetConfig, merge_shards, run_shard

RUN_MICROS = (1, 99_999, 100_000, 100_001, 200_000)


class _FixedModel:
    """A latency model whose handler takes ``run_micros`` and calls take 0."""

    def __init__(self, run_micros: int):
        self.run_micros = run_micros
        self.samples_drawn = 0

    def sample_block(self, component, n, memory_mb=None):
        value = self.run_micros if component == HANDLER_COMPONENTS[0] else 0
        return [value] * n

    def sample_block_vec(self, component, n, memory_mb=None):
        block = self.sample_block(component, n, memory_mb)
        np = vecmath.numpy_or_none()
        return np.asarray(block, dtype=np.int64) if np is not None else block


class TestBillingRule:
    @pytest.mark.parametrize("fallback", (False, True))
    @pytest.mark.parametrize("run_micros", RUN_MICROS)
    def test_folds_round_like_the_lambda_platform(self, monkeypatch, fallback, run_micros):
        monkeypatch.setattr(vecmath, "_FORCE_FALLBACK", fallback)
        platform_ms = PRICES_2017.round_up_billing(run_micros / 1000)

        model = _FixedModel(run_micros)
        models = {comp: model for comp in HANDLER_COMPONENTS}
        _, _, units = fold_chunk(BillingMeter(), models, HANDLER_COMPONENTS, 3, 448)
        assert units * 100 == 3 * platform_ms

        fold = ShardFold(model, HANDLER_COMPONENTS, 448, stride=1)
        fold.add([0, 1, 2])
        assert fold.billed_units * 100 == 3 * platform_ms
        assert fold.latency_ms == [run_micros / 1000.0] * 3


def _exit_on_shard_one(config, shard_id, collect_health=False):
    if shard_id == 1:
        os._exit(3)
    return run_shard(config, shard_id, collect_health)


class TestWorkerPool:
    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            map_jobs(pow, [(2, 3)], workers=0)

    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        monkeypatch.setattr(shard, "run_shard", _exit_on_shard_one)
        config = FleetConfig(tenants=200, days=1.0, logical_shards=4)
        with pytest.raises(BrokenProcessPool):
            shard.run_fleet_sharded(config, workers=2)


class TestTenantCountMerge:
    @pytest.mark.parametrize("fallback", (False, True))
    def test_partial_merge_fills_only_merged_shards(self, monkeypatch, fallback):
        monkeypatch.setattr(vecmath, "_FORCE_FALLBACK", fallback)
        config = FleetConfig(tenants=500, days=1.0, logical_shards=4)
        results = [run_shard(config, shard_id) for shard_id in range(4)]
        full = merge_shards(config, results).tenant_counts
        partial = merge_shards(config, results[1:3]).tenant_counts
        owners = [shard.shard_of(t, 4) for t in range(config.tenants)]
        assert partial == [c if o in (1, 2) else 0 for c, o in zip(full, owners)]

    @pytest.mark.parametrize("fallback", (False, True))
    def test_result_from_another_fleet_size_rejected(self, monkeypatch, fallback):
        monkeypatch.setattr(vecmath, "_FORCE_FALLBACK", fallback)
        config = FleetConfig(tenants=500, days=1.0, logical_shards=4)
        other = FleetConfig(tenants=900, days=1.0, logical_shards=4)
        with pytest.raises(ConfigurationError, match="does not match config"):
            merge_shards(config, [run_shard(other, 0)])
