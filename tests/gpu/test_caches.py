"""Set-associative LRU cache model tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.assembly import TriangleSoup
from repro.gpu.caches import Cache
from repro.gpu.config import CacheConfig, GPUConfig
from repro.gpu.stats import GPUStats
from repro.gpu.tiling import bin_triangles, fetch_tile_lists


def small_cache(ways: int = 2, sets: int = 4, line: int = 64) -> Cache:
    return Cache(CacheConfig("test", line * ways * sets, line, ways))


class TestBasics:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(0) is False
        assert cache.access(0) is True
        assert cache.access(63) is True   # same line
        assert cache.access(64) is False  # next line

    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == pytest.approx(0.5)
        assert cache.hits == 1

    def test_reset_stats_keeps_contents(self):
        cache = small_cache()
        cache.access(0)
        cache.reset_stats()
        assert cache.accesses == 0
        assert cache.access(0) is True  # line still resident

    def test_flush_evicts(self):
        cache = small_cache()
        cache.access(0)
        cache.flush()
        assert cache.access(0) is False

    def test_empty_miss_rate_zero(self):
        assert small_cache().miss_rate == 0.0


class TestAssociativityAndLRU:
    def test_two_way_holds_two_conflicting_lines(self):
        cache = small_cache(ways=2, sets=4)
        # Lines 0 and 4 map to the same set (4 sets).
        cache.access_line(0)
        cache.access_line(4)
        assert cache.access_line(0) is True
        assert cache.access_line(4) is True

    def test_lru_evicts_least_recent(self):
        cache = small_cache(ways=2, sets=4)
        cache.access_line(0)
        cache.access_line(4)
        cache.access_line(0)      # 0 now MRU
        cache.access_line(8)      # evicts 4
        assert cache.access_line(0) is True
        assert cache.access_line(4) is False

    def test_direct_mapped_conflicts(self):
        cache = small_cache(ways=1, sets=4)
        cache.access_line(0)
        cache.access_line(4)      # evicts 0
        assert cache.access_line(0) is False


class TestBatchAccess:
    def test_access_range_counts_lines(self):
        cache = small_cache(sets=64)
        misses = cache.access_range(0, 256)  # 4 lines
        assert misses == 4
        assert cache.access_range(0, 256) == 0

    def test_access_range_empty(self):
        assert small_cache().access_range(0, 0) == 0

    def test_access_many_matches_sequential(self):
        rng = np.random.RandomState(0)
        addresses = rng.randint(0, 8 * 1024, size=500)
        a = small_cache(ways=2, sets=8)
        b = small_cache(ways=2, sets=8)
        batch_misses = a.access_many(addresses)
        seq_misses = sum(0 if b.access(int(addr)) else 1 for addr in addresses)
        assert batch_misses == seq_misses
        assert a.accesses == b.accesses == 500

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=120))
    def test_access_many_equivalence_property(self, addresses):
        a = small_cache(ways=2, sets=4)
        b = small_cache(ways=2, sets=4)
        batch = a.access_many(np.array(addresses))
        seq = sum(0 if b.access(addr) else 1 for addr in addresses)
        assert batch == seq

    def test_streaming_pattern_one_miss_per_line(self):
        cache = small_cache(sets=64)
        addresses = np.arange(0, 64 * 16, 4)  # sequential words
        misses = cache.access_many(addresses)
        assert misses == 16


class StampCache:
    """Exactness oracle: the earlier stamp-array LRU model, verbatim.

    Per-set tag and last-use stamp arrays; a hit refreshes the stamp,
    a miss replaces the way with the smallest stamp (an invalid way's
    stamp is 0, so empty ways fill first, lowest index first).
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets = config.num_sets
        self._ways = config.ways
        self._tags = np.full((self._sets, self._ways), -1, dtype=np.int64)
        self._stamps = np.zeros((self._sets, self._ways), dtype=np.int64)
        self._clock = 0
        self.accesses = 0
        self.misses = 0

    def access_line(self, line: int) -> bool:
        self.accesses += 1
        self._clock += 1
        set_idx = line % self._sets
        tags = self._tags[set_idx]
        hit_ways = np.nonzero(tags == line)[0]
        if hit_ways.size:
            self._stamps[set_idx, hit_ways[0]] = self._clock
            return True
        self.misses += 1
        victim = int(self._stamps[set_idx].argmin())
        self._tags[set_idx, victim] = line
        self._stamps[set_idx, victim] = self._clock
        return False

    def access(self, address: int) -> bool:
        return self.access_line(address // self.config.line_bytes)


def address_streams():
    """Random, sorted and strided non-negative address streams."""
    random_ = st.lists(
        st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=300
    )
    sorted_ = random_.map(sorted)
    strided = st.builds(
        lambda start, stride, count, reps: [
            start + stride * (k % count) for k in range(count * reps)
        ],
        st.integers(min_value=0, max_value=4096),
        st.sampled_from([4, 32, 64, 128, 256, 1024, 4096]),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=4),
    )
    return st.one_of(random_, sorted_, strided)


class TestStampOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        ways=st.sampled_from([1, 2, 4, 8]),
        sets=st.sampled_from([1, 2, 4, 16, 64]),
        addresses=address_streams(),
    )
    def test_hit_miss_sequence_and_counts_match(self, ways, sets, addresses):
        oracle = StampCache(CacheConfig("o", 64 * ways * sets, 64, ways))
        cache = small_cache(ways=ways, sets=sets)
        want = [oracle.access(a) for a in addresses]
        assert [cache.access(a) for a in addresses] == want
        assert (cache.accesses, cache.misses) == (oracle.accesses, oracle.misses)

        batched = small_cache(ways=ways, sets=sets)
        misses = batched.access_many(np.array(addresses, dtype=np.int64))
        assert misses == want.count(False)
        assert (batched.accesses, batched.misses) == (oracle.accesses, oracle.misses)

    @settings(max_examples=60, deadline=None)
    @given(
        ways=st.sampled_from([1, 2, 4, 8]),
        addresses=address_streams(),
        cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=6),
    )
    def test_segmented_access_many_splits_misses_exactly(self, ways, addresses, cuts):
        offsets = np.array(
            [0] + sorted(min(c, len(addresses)) for c in cuts) + [len(addresses)]
        )
        oracle = StampCache(CacheConfig("o", 64 * ways * 4, 64, ways))
        hits = np.array([oracle.access(a) for a in addresses])
        want = [
            int((~hits[lo:hi]).sum()) for lo, hi in zip(offsets[:-1], offsets[1:])
        ]
        cache = small_cache(ways=ways, sets=4)
        got = cache.access_many(np.array(addresses, dtype=np.int64), offsets)
        assert got.dtype == np.int64
        assert got.tolist() == want
        assert (cache.accesses, cache.misses) == (oracle.accesses, oracle.misses)

    def test_access_range_matches_oracle(self):
        oracle = StampCache(CacheConfig("o", 64 * 2 * 4, 64, 2))
        cache = small_cache(ways=2, sets=4)
        for address, length in [(0, 300), (100, 64), (640, 1), (0, 700), (5, 0)]:
            first, last = address // 64, (address + length - 1) // 64
            want = sum(
                not oracle.access_line(line) for line in range(first, last + 1)
            ) if length > 0 else 0
            assert cache.access_range(address, length) == want
        assert (cache.accesses, cache.misses) == (oracle.accesses, oracle.misses)


class TestSinglePassTileFetch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_tile_misses_equal_the_per_tile_loop(self, seed):
        config = GPUConfig().with_screen(128, 96)
        rng = np.random.default_rng(seed)
        n = 400
        centre = rng.uniform([-8.0, -8.0], [136.0, 104.0], size=(n, 1, 2))
        xy = centre + rng.uniform(-20.0, 20.0, size=(n, 3, 2))
        soup = TriangleSoup(
            xy=xy,
            z=np.full((n, 3), 0.5),
            object_id=np.full(n, -1, dtype=np.int64),
            front=np.ones(n, dtype=bool),
            tagged=np.zeros(n, dtype=bool),
            draw_index=np.zeros(n, dtype=np.int64),
        )
        binning = bin_triangles(soup, config, GPUStats())

        oracle = StampCache(config.tile_cache)
        want = np.zeros(config.tile_count, dtype=np.int64)
        for tile in range(config.tile_count):
            for address in binning.record_addresses[binning.pairs_of_tile(tile)]:
                want[tile] += not oracle.access(int(address))

        stats = GPUStats()
        cache = Cache(config.tile_cache)
        got = fetch_tile_lists(binning, config, stats, cache)
        np.testing.assert_array_equal(got, want)
        assert want.sum() > 0
        assert stats.tile_cache_load_misses == int(want.sum())
        assert stats.tile_cache_loads == binning.pair_count
        assert (cache.accesses, cache.misses) == (oracle.accesses, oracle.misses)
