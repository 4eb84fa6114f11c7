"""Tests for deterministic RNG streams and counter-based draws."""

import math

import numpy as np
import pytest

from repro.utils.rng import (
    RNGRegistry,
    _splitmix64,
    counter_normal,
    counter_normals,
    spawn_streams,
)


class TestSpawnStreams:
    def test_count(self):
        assert len(spawn_streams(0, 5)) == 5
        assert spawn_streams(0, 0) == []

    def test_reproducible(self):
        a = [g.random() for g in spawn_streams(42, 3)]
        b = [g.random() for g in spawn_streams(42, 3)]
        assert a == b

    def test_streams_differ(self):
        streams = spawn_streams(42, 4)
        draws = [g.random() for g in streams]
        assert len(set(draws)) == len(draws)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_streams(0, -1)


class TestRNGRegistry:
    def test_same_key_same_stream_object(self):
        reg = RNGRegistry(1)
        assert reg.stream("a", 1) is reg.stream("a", 1)

    def test_determinism_across_registries(self):
        r1 = RNGRegistry(99).stream("replica", 7)
        r2 = RNGRegistry(99).stream("replica", 7)
        assert r1.random() == r2.random()

    def test_order_independence(self):
        r1 = RNGRegistry(5)
        _ = r1.stream("x")
        a = r1.stream("y").random()
        r2 = RNGRegistry(5)
        b = r2.stream("y").random()
        assert a == b

    def test_different_keys_different_draws(self):
        reg = RNGRegistry(3)
        a = reg.stream("md", 0).random()
        b = reg.stream("md", 1).random()
        c = reg.stream("exchange", 0).random()
        assert len({a, b, c}) == 3

    def test_different_seeds_differ(self):
        a = RNGRegistry(1).stream("k").random()
        b = RNGRegistry(2).stream("k").random()
        assert a != b

    def test_rejects_unhashable_key_types(self):
        reg = RNGRegistry(0)
        with pytest.raises(TypeError):
            reg.stream(3.14)

    def test_len_counts_created_streams(self):
        reg = RNGRegistry(0)
        reg.stream("a")
        reg.stream("b")
        reg.stream("a")
        assert len(reg) == 2

    def test_numpy_int_keys_ok(self):
        reg = RNGRegistry(0)
        s = reg.stream("r", np.int64(4))
        assert isinstance(s, np.random.Generator)


def normals(n, *prefix):
    return np.array([counter_normal(11, *prefix, i) for i in range(n)])


def pearson(a, b):
    a = a - a.mean()
    b = b - b.mean()
    return float((a * b).sum() / math.sqrt((a * a).sum() * (b * b).sum()))


class TestCounterNormal:
    """Seeded property tests of :func:`counter_normal`.  Tolerances are four
    standard errors of the statistic at the stated sample size, so each
    check fails by chance with probability below 1e-4."""

    N = 20_000

    def test_splitmix64_reference_vectors(self):
        # first outputs of Vigna's SplitMix64 for seeds 0 and 1234567
        assert _splitmix64(0) == 0xE220A8397B1DCDAF
        assert _splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
        assert _splitmix64(1234567) == 6457827717110365317

    @pytest.mark.parametrize(
        "key, value",
        [
            ((0,), -0.2788749225862045),
            ((7, "init", 0, 0), 0.6088612134418981),
            ((7, "init", 0, 1), 0.10893441162279227),
            ((2016, "replica-speed", 3, 1), -1.0047939755786146),
            ((20160113, "md_r00042_c0003"), -0.2883390349827718),
            ((20160113, "ex_temperature_c0001"), -0.2826455584627723),
            ((2**64 + 5, -1), 0.06827865290118537),
        ],
    )
    def test_pinned_values(self, key, value):
        # pure integer hashing + one libm log/cos: no NumPy stream involved
        assert counter_normal(*key) == pytest.approx(value, rel=1e-13, abs=1e-15)

    def test_pure_function_of_seed_and_key(self):
        assert counter_normal(5, "a", 1) == counter_normal(5, "a", 1)
        assert counter_normal(5, "a", np.int64(1)) == counter_normal(5, "a", 1)
        draws = {
            counter_normal(5, "a", 1),
            counter_normal(6, "a", 1),
            counter_normal(5, "b", 1),
            counter_normal(5, "a", 2),
            counter_normal(5, "a", 1, 0),
        }
        assert len(draws) == 5

    def test_rejects_other_key_types(self):
        with pytest.raises(TypeError):
            counter_normal(0, 1.5)

    def test_mean_and_variance(self):
        x = normals(self.N, "moments")
        se = 1.0 / math.sqrt(self.N)
        assert abs(x.mean()) < 4 * se
        # var of the sample variance of N(0,1) is 2/N
        assert abs(x.var() - 1.0) < 4 * math.sqrt(2.0) * se
        # and the tails are there: about 0.27% beyond 3 sigma
        beyond = np.mean(np.abs(x) > 3.0)
        assert 0.0015 < beyond < 0.0040

    def test_kolmogorov_smirnov_against_normal(self):
        x = np.sort(normals(self.N, "ks"))
        cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
        i = np.arange(1, self.N + 1)
        d = max(np.max(i / self.N - cdf), np.max(cdf - (i - 1) / self.N))
        # KS critical value at alpha = 0.001 is 1.95 / sqrt(N)
        assert d < 1.95 / math.sqrt(self.N)

    def test_adjacent_replicas_uncorrelated(self):
        n = self.N
        x = np.array([counter_normal(7, "init", rid, 0) for rid in range(n + 1)])
        assert abs(pearson(x[:-1], x[1:])) < 4 / math.sqrt(n)
        # the two coordinates of one replica are independent too
        y = np.array([counter_normal(7, "init", rid, 1) for rid in range(n)])
        assert abs(pearson(x[:-1], y)) < 4 / math.sqrt(n)

    def test_adjacent_cycles_uncorrelated(self):
        n = self.N
        speed = np.array(
            [
                [counter_normal(7, "replica-speed", rid, c) for c in (0, 1)]
                for rid in range(n)
            ]
        )
        assert abs(pearson(speed[:, 0], speed[:, 1])) < 4 / math.sqrt(n)
        # task tags of consecutive cycles differ in one character
        tags = np.array(
            [
                [counter_normal(20160113, f"md_r{rid:05d}_c{c:04d}") for c in (0, 1)]
                for rid in range(n)
            ]
        )
        assert abs(pearson(tags[:, 0], tags[:, 1])) < 4 / math.sqrt(n)
        assert abs(pearson(tags[:-1, 0], tags[1:, 0])) < 4 / math.sqrt(n)


class TestCounterNormals:
    """The batched form hashes on NumPy arrays above a size threshold; its
    values must be the scalar draws bit for bit on either side of it."""

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 500])
    def test_equals_scalar_draws(self, n):
        keys = [(f"md_r{i:05d}_c0001", i, -i) for i in range(n)]
        for seed in (0, 7, -1, 2**64 + 3):
            assert counter_normals(seed, keys) == [
                counter_normal(seed, *key) for key in keys
            ]

    def test_mixed_part_types(self):
        keys = [("é☃", np.int64(i), 2**70 + i, "") for i in range(64)]
        assert counter_normals(5, keys) == [counter_normal(5, *k) for k in keys]

    def test_ragged_keys_rejected(self):
        keys = [("a", i) for i in range(40)] + [("b",)]
        with pytest.raises(ValueError):
            counter_normals(0, keys)

    def test_bad_part_type_rejected(self):
        with pytest.raises(TypeError):
            counter_normals(0, [(0.5,)] * 40)
