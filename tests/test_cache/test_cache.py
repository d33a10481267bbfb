"""Tests for the set-associative pattern-tagged cache."""

import pytest

from repro.cache.cache import Cache
from repro.errors import ConfigError


def make_cache(size=1024, assoc=2, line=64, latency=4) -> Cache:
    return Cache("test", size, assoc, line, latency)


class TestGeometry:
    def test_set_count(self):
        assert make_cache(size=1024, assoc=2).num_sets == 8

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            Cache("bad", 1000, 2, 64)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            Cache("bad", 3 * 64 * 2, 2, 64)

    def test_set_index_ignores_pattern(self):
        cache = make_cache()
        assert cache.set_index(0) == cache.set_index(0)
        assert cache.set_index(64) == 1


class TestLookupFill:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(0, 0) is None
        cache.fill(0, 0, bytearray(64))
        assert cache.lookup(0, 0) is not None

    def test_pattern_extends_tag(self):
        cache = make_cache()
        cache.fill(0, 0, bytearray(b"\x01" * 64))
        cache.fill(0, 7, bytearray(b"\x02" * 64))
        assert cache.lookup(0, 0).data[0] == 1
        assert cache.lookup(0, 7).data[0] == 2

    def test_refill_replaces_data_in_place(self):
        cache = make_cache()
        first, _ = cache.fill(0, 0, bytearray(b"\x01" * 64))
        line, evicted = cache.fill(0, 0, bytearray(b"\x02" * 64))
        assert evicted is None
        assert line is first
        assert cache.lookup(0, 0).data[0] == 2

    def test_refill_keeps_dirty_bit(self):
        cache = make_cache()
        cache.fill(0, 0, bytearray(64), dirty=True)
        cache.fill(0, 0, bytearray(64), dirty=False)
        assert cache.lookup(0, 0).dirty


class TestLRU:
    def test_evicts_least_recently_used(self):
        cache = make_cache(size=2 * 64, assoc=2, line=64)  # 1 set, 2 ways
        cache.fill(0, 0, bytearray(64))
        cache.fill(64, 0, bytearray(64))
        cache.lookup(0, 0)  # touch the older line
        _, victim = cache.fill(128, 0, bytearray(64))
        assert victim.line_address == 64

    def test_lookup_without_touch_does_not_refresh(self):
        cache = make_cache(size=2 * 64, assoc=2, line=64)
        cache.fill(0, 0, bytearray(64))
        cache.fill(64, 0, bytearray(64))
        cache.lookup(0, 0, touch=False)
        _, victim = cache.fill(128, 0, bytearray(64))
        assert victim.line_address == 0

    def test_refill_of_resident_line_makes_it_most_recent(self):
        cache = make_cache(size=2 * 64, assoc=2, line=64)
        cache.fill(0, 0, bytearray(64))
        cache.fill(64, 0, bytearray(64))
        cache.fill(0, 0, bytearray(64))  # refill the older line
        _, victim = cache.fill(128, 0, bytearray(64))
        assert victim.line_address == 64

    def test_fill_returns_the_inserted_line(self):
        cache = make_cache()
        line, victim = cache.fill(0, 7, bytearray(64), dirty=True)
        assert victim is None
        assert line is cache.lookup(0, 7, touch=False)
        assert line.key == (0, 7) and line.dirty


class TestInvalidate:
    def test_removes_line(self):
        cache = make_cache()
        cache.fill(0, 0, bytearray(64))
        line = cache.invalidate(0, 0)
        assert line is not None
        assert cache.lookup(0, 0) is None

    def test_absent_line_returns_none(self):
        assert make_cache().invalidate(0, 0) is None

    def test_returns_dirty_line_for_writeback(self):
        cache = make_cache()
        cache.fill(0, 0, bytearray(64), dirty=True)
        assert cache.invalidate(0, 0).dirty


class TestIntrospection:
    def test_dirty_lines(self):
        cache = make_cache()
        cache.fill(0, 0, bytearray(64), dirty=True)
        cache.fill(64, 0, bytearray(64))
        assert len(cache.dirty_lines()) == 1

    def test_occupancy(self):
        cache = make_cache(size=4 * 64, assoc=2)
        assert cache.occupancy() == 0.0
        cache.fill(0, 0, bytearray(64))
        assert cache.occupancy() == 0.25

    def test_stats_counters(self):
        cache = make_cache(size=2 * 64, assoc=2)
        cache.fill(0, 0, bytearray(64), dirty=True)
        cache.fill(64, 0, bytearray(64))
        cache.fill(128, 0, bytearray(64))  # evicts dirty line 0
        assert cache.stats.get("fills") == 3
        assert cache.stats.get("evictions") == 1
        assert cache.stats.get("dirty_evictions") == 1
