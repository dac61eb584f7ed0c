"""Determinism and protocol tests for the parallel fleet executor.

The load-bearing property (ISSUE satellite): sequential and parallel
executors produce **identical virtual-time commit logs** — same tx ids,
same submit/commit timestamps, same validation codes and block numbers —
for the same spec, with churn and a partition window enabled.
"""

import multiprocessing
import os

import pytest

from repro.common.errors import ConfigurationError, NotFoundError, SimulationError
from repro.consensus.batching import BatchConfig
from repro.core.client import HyperProvClient
from repro.core.topology import DeploymentSpec, build_deployment
from repro.devices.profiles import DESKTOP_PROFILES, XEON_E5_1603
from repro.simulation import parallel
from repro.simulation.parallel import (
    DEFAULT_WINDOW_S,
    MIN_LOOKAHEAD_S,
    ShardRunStats,
    _assign_sites,
    _prepare_worker_deployment,
    conservative_lookahead,
    run_fleet_parallel,
    run_fleet_sequential,
    window_count,
)
from repro.middleware.cache import ReadCacheMiddleware
from repro.middleware.config import PipelineConfig
from repro.workloads.fleet import FleetSpec, device_name


def property_spec(**overrides) -> FleetSpec:
    """A small fleet with churn and a partition window — fast but adversarial."""
    base = dict(
        devices=60,
        shards=2,
        rate_per_device_s=0.05,
        duration_s=60.0,
        seed=7,
        churn_fraction=0.2,
        partition_windows=((20.0, 35.0),),
    )
    base.update(overrides)
    return FleetSpec(**base)


class TestDeterminism:
    @pytest.mark.parametrize("max_message_count", [1, 10])
    def test_sequential_vs_parallel_commit_logs_identical(self, max_message_count):
        spec = property_spec(
            batch_config=BatchConfig(max_message_count=max_message_count)
        )
        sequential = run_fleet_sequential(spec)
        parallel = run_fleet_parallel(spec, workers=2)
        assert sequential.committed > 0
        assert parallel.mode == "parallel"
        # Full logs, not just digests: a mismatch then shows *which* line.
        assert parallel.lines_by_site == sequential.lines_by_site
        assert parallel.anchor == sequential.anchor
        assert parallel.counts_by_site == sequential.counts_by_site
        assert parallel.submitted == sequential.submitted

    def test_inline_windowed_executor_matches_sequential(self):
        spec = property_spec()
        sequential = run_fleet_sequential(spec)
        inline = run_fleet_parallel(spec, workers=1)
        assert inline.mode == "parallel-inline"
        assert inline.lines_by_site == sequential.lines_by_site
        assert inline.anchor == sequential.anchor

    def test_churn_and_partition_visible_in_run(self):
        spec = property_spec()
        plan = spec.arrival_plan()
        churned = [s for s in plan.schedules if s.offline_window is not None]
        assert churned, "property spec must exercise churn"
        result = run_fleet_sequential(spec)
        assert result.committed > 0


class TestBarrierProtocol:
    def test_window_count_covers_horizon_plus_tail(self):
        assert window_count(0.0, 5.0) == 1
        assert window_count(4.9, 5.0) == 1
        assert window_count(5.0, 5.0) == 2
        assert window_count(60.0, 5.0) == 13

    def test_conservative_lookahead_floors(self):
        spec = property_spec()
        assert conservative_lookahead(spec) == DEFAULT_WINDOW_S
        assert conservative_lookahead(spec, 0.5) == 0.5
        # Never below the orderer intake pacing interval.
        paced = property_spec(orderer_intake_interval_s=2.0)
        assert conservative_lookahead(paced, 0.5) == 2.0
        # Never below the LAN propagation floor.
        assert conservative_lookahead(spec, 1e-9) == MIN_LOOKAHEAD_S

    def test_lookahead_rejects_nonpositive_window(self):
        with pytest.raises(ConfigurationError):
            conservative_lookahead(property_spec(), 0.0)

    def test_workers_validated(self):
        with pytest.raises(ConfigurationError):
            run_fleet_parallel(property_spec(), workers=0)

    def test_assign_sites_round_robin(self):
        spec = property_spec(devices=60, shards=4)
        assert _assign_sites(spec, 2) == [[0, 2], [1, 3]]
        assert _assign_sites(spec, 4) == [[0], [1], [2], [3]]
        # More workers than shards clamps to one site per worker.
        assert _assign_sites(spec, 9) == [[0], [1], [2], [3]]

    def test_shard_stats_accounting(self):
        spec = property_spec()
        result = run_fleet_parallel(spec, workers=2)
        assert len(result.shard_stats) == 2
        horizon = spec.arrival_plan().horizon_s()
        expected_windows = window_count(horizon, result.window_s)
        for stats in result.shard_stats:
            assert stats.windows == expected_windows
            assert stats.busy_wall_s > 0
            assert 0.0 <= stats.utilization <= 1.0
        assert sum(s.events for s in result.shard_stats) > 0

    def test_utilization_math(self):
        stats = ShardRunStats(worker=0, sites=[0], busy_wall_s=3.0, barrier_stall_s=1.0)
        assert stats.utilization == pytest.approx(0.75)
        assert ShardRunStats(worker=0, sites=[0]).utilization == 0.0


class TestWorkerCommitEvents:
    def test_worker_site_publishes_every_commit(self):
        """A worker-built site publishes every commit to the observers a
        client attaches: the provenance listener and a default read cache.
        """
        spec = FleetSpec(
            devices=20, shards=2, rate_per_device_s=0.1, duration_s=30.0,
            seed=5, batch_config=BatchConfig(max_message_count=1),
        )
        deployment, submitted = _prepare_worker_deployment(spec, [0])
        client = HyperProvClient(
            network=deployment.fabric,
            client_name=device_name(0),
            pipeline_config=PipelineConfig(cache=True),
        )
        cache = next(
            m for m in client.pipeline.middlewares
            if isinstance(m, ReadCacheMiddleware)
        )
        recorded = []
        client.on_provenance_recorded(recorded.append)
        store = client.as_store()
        key = "fleet/dev0/r0"
        # The not-yet-written key's "not found" answer is cached; the
        # commit that writes the key must drop it.
        with pytest.raises(NotFoundError):
            store.get(key)
        assert [args for (_, _, args) in cache.cached_keys()] == [(key,)]

        window = 5.0
        for index in range(window_count(spec.duration_s, window)):
            deployment.engine.run(until=(index + 1) * window)
        deployment.drain()

        committed = [h.tx_id for _, h in deployment.handles[0] if h.is_valid]
        assert len(committed) == submitted > 0
        assert sorted(event["tx_id"] for event in recorded) == sorted(committed)
        assert cache.cached_keys() == []
        assert store.get(key).key == key


class TestDeploymentWorkersKnob:
    def test_workers_default_and_validation(self):
        spec = DeploymentSpec(
            peer_profiles=DESKTOP_PROFILES[:1],
            orderer_profile=XEON_E5_1603,
            storage_profile=XEON_E5_1603,
            client_profile=DESKTOP_PROFILES[0],
        )
        assert spec.workers == 1
        spec.workers = 0
        with pytest.raises(ConfigurationError):
            build_deployment(spec)


class TestWorkerFailure:
    """A worker that dies without reporting surfaces as a typed error."""

    def kill_worker_one(self, monkeypatch, during_window: bool):
        original = parallel._prepare_worker_deployment

        def prepare(spec, sites):
            if list(sites) != [1]:
                return original(spec, sites)
            if not during_window:
                os._exit(3)
            deployment, submitted = original(spec, sites)
            deployment.engine.run = lambda until: os._exit(3)
            return deployment, submitted

        monkeypatch.setattr(parallel, "_prepare_worker_deployment", prepare)

    @pytest.mark.parametrize("during_window, where", [
        (False, "in the 'ready' phase died"),
        (True, "in the 'window' phase (window 0) died"),
    ])
    def test_killed_worker_raises_simulation_error(self, monkeypatch, during_window, where):
        self.kill_worker_one(monkeypatch, during_window)
        spec = property_spec(devices=20, duration_s=20.0, partition_windows=())
        with pytest.raises(SimulationError) as info:
            run_fleet_parallel(spec, workers=2)
        message = str(info.value)
        assert message.startswith("fleet worker 1 (sites [1]) ")
        assert where in message
        assert isinstance(info.value.__cause__, (EOFError, ConnectionResetError))
        assert multiprocessing.active_children() == []
