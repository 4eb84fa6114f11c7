"""Tests for heterogeneous replica performance (paper Sec. 2.1)."""

import pytest

from repro.core import RepEx
from repro.core.config import (
    ConfigError,
    DimensionSpec,
    PatternSpec,
    ResourceSpec,
)

from tests.conftest import small_tremd_config


def het_config(sigma, **over):
    defaults = dict(
        dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=8),
        replica_heterogeneity=sigma,
        n_cycles=2,
    )
    defaults.update(over)
    return small_tremd_config(**defaults)


class TestReplicaSpeed:
    def test_homogeneous_is_identity(self):
        amm = RepEx(het_config(0.0)).amm
        assert all(amm.replica_speed(rid) == 1.0 for rid in range(8))

    def test_heterogeneous_spreads(self):
        amm = RepEx(het_config(0.5)).amm
        speeds = [amm.replica_speed(rid) for rid in range(8)]
        assert max(speeds) / min(speeds) > 1.3
        assert all(s > 0 for s in speeds)

    def test_deterministic_per_seed(self):
        a = RepEx(het_config(0.5)).amm
        b = RepEx(het_config(0.5)).amm
        assert [a.replica_speed(i) for i in range(8)] == [
            b.replica_speed(i) for i in range(8)
        ]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            het_config(-0.1)


class TestBarrierEffect:
    def test_sync_cycle_set_by_slowest_replica(self):
        homo = RepEx(het_config(0.0)).run()
        hetero = RepEx(het_config(0.6)).run()
        # the barrier waits for the slowest: cycles lengthen
        assert (
            hetero.average_cycle_time() > homo.average_cycle_time()
        )
        # and utilization drops (fast replicas idle at the barrier)
        assert hetero.utilization() < homo.utilization()

    def test_async_fifo_beats_sync_under_heterogeneity(self):
        """A claim about the ensemble, so it is checked on ten seeds: an
        8-replica, 3-cycle run is one small sample of the speed draws."""
        sigma = 0.6
        sync_u, fifo_u = [], []
        for seed in range(10):
            sync_u.append(
                RepEx(het_config(sigma, n_cycles=3, seed=seed)).run().utilization()
            )
            fifo = RepEx(
                het_config(
                    sigma,
                    n_cycles=3,
                    seed=seed,
                    pattern=PatternSpec(
                        kind="asynchronous",
                        window_seconds=1e6,
                        fifo_count=4,
                    ),
                )
            ).run()
            fifo_u.append(fifo.utilization())
        assert sum(fifo_u) > sum(sync_u)
        assert sum(f > s for f, s in zip(fifo_u, sync_u)) >= 8

    def test_sync_beats_window_async_when_homogeneous(self):
        """Fig. 13's regime: with equal replicas the time-window criterion
        wastes pool-wait time and the synchronous pattern wins.  (The FIFO
        criterion can tie or beat sync at small scale, which is exactly
        the paper's point about better transition criteria.)"""
        sync = RepEx(het_config(0.0, n_cycles=3)).run()
        window = RepEx(
            het_config(
                0.0,
                n_cycles=3,
                pattern=PatternSpec(
                    kind="asynchronous", window_seconds=60.0
                ),
            )
        ).run()
        assert sync.utilization() > window.utilization()
