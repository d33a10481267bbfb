"""Model-based test: the Cache against a reference LRU implementation.

Hypothesis drives random sequences of lookup/peek/fill/refill/invalidate
against both the real cache and a brute-force reference; residency,
dirtiness, each set's recency order, and eviction choices (victim and
its dirty bit) must agree at every step. ``peek`` is
``lookup(touch=False)`` and must not reorder a set; ``refill`` fills an
already resident line, which must move it to most recent and OR its
dirty bit.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache

SETS = 4
ASSOC = 2
LINE = 64


class ReferenceCache:
    """Brute-force set-associative LRU cache."""

    def __init__(self) -> None:
        # set index -> list of (key, dirty), most recent last.
        self.sets: dict[int, list] = {i: [] for i in range(SETS)}

    def _set(self, line_address: int) -> int:
        return (line_address // LINE) % SETS

    def lookup(self, line_address: int, pattern: int, touch: bool = True) -> bool:
        entries = self.sets[self._set(line_address)]
        for index, (key, dirty) in enumerate(entries):
            if key == (line_address, pattern):
                if touch:
                    entries.append(entries.pop(index))
                return True
        return False

    def fill(self, line_address: int, pattern: int, dirty: bool):
        entries = self.sets[self._set(line_address)]
        for index, (key, was_dirty) in enumerate(entries):
            if key == (line_address, pattern):
                entries.pop(index)
                entries.append((key, was_dirty or dirty))
                return None
        victim = None
        if len(entries) >= ASSOC:
            victim = entries.pop(0)  # (key, dirty)
        entries.append(((line_address, pattern), dirty))
        return victim

    def invalidate(self, line_address: int, pattern: int) -> bool:
        entries = self.sets[self._set(line_address)]
        for index, (key, _dirty) in enumerate(entries):
            if key == (line_address, pattern):
                entries.pop(index)
                return True
        return False

    def resident(self):
        return {key for entries in self.sets.values() for key, _ in entries}

    def recency_order(self):
        """Every resident key, set by set, least recently used first."""
        return [key for index in range(SETS) for key, _ in self.sets[index]]

    def dirty(self):
        return {key for entries in self.sets.values()
                for key, is_dirty in entries if is_dirty}


operations = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "peek", "fill", "fill_dirty", "refill",
                         "refill_dirty", "invalidate"]),
        st.integers(min_value=0, max_value=7),  # line index: 2 per set
        st.sampled_from([0, 7]),  # pattern
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=operations)
# A peek must not save the set's LRU line from eviction...
@example(ops=[("fill", 0, 0), ("fill", 4, 0), ("peek", 0, 0), ("fill", 0, 7)])
# ...and a refill must: it makes the line most recent and keeps it dirty.
@example(ops=[("fill_dirty", 0, 0), ("fill", 4, 0), ("refill", 0, 0),
              ("fill", 0, 7)])
def test_cache_matches_reference(ops):
    cache = Cache("model", SETS * ASSOC * LINE, ASSOC, LINE)
    reference = ReferenceCache()
    for op, line_index, pattern in ops:
        address = line_index * LINE
        if op.startswith("refill"):
            resident = sorted(reference.resident())
            if not resident:
                continue
            address, pattern = resident[line_index % len(resident)]
        if op in ("lookup", "peek"):
            touch = op == "lookup"
            real = cache.lookup(address, pattern, touch=touch) is not None
            assert real == reference.lookup(address, pattern, touch=touch)
        elif op.startswith(("fill", "refill")):
            dirty = op.endswith("_dirty")
            line, victim = cache.fill(address, pattern, bytearray(LINE),
                                      dirty=dirty)
            expected_victim = reference.fill(address, pattern, dirty)
            assert line is cache.lookup(address, pattern, touch=False)
            real_victim = (victim.key, victim.dirty) if victim is not None else None
            assert real_victim == expected_victim
            if op.startswith("refill"):
                assert victim is None
        else:
            removed = cache.invalidate(address, pattern) is not None
            assert removed == reference.invalidate(address, pattern)
        # The LRU order itself, not only the next victim, must agree.
        assert [line.key for line in cache.resident_lines()] == (
            reference.recency_order()
        )

    assert {line.key for line in cache.dirty_lines()} == reference.dirty()
