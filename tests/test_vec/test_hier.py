"""Laws of :class:`repro.vec.hier.DirtyReplay` on arbitrary streams.

The replay elides provable L1 hits in a numpy pre-pass and carries its
cache, DBI and open-row state across :meth:`DirtyReplay.run` calls.
These laws pin both: a stream may be cut into batches anywhere (one
access per batch disables elision entirely), and repeating an access in
place is exactly one more L1 hit. A hand-built cross-pattern stream
pins the store/flush accounting against the event machine.
"""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from repro.cpu.isa import Load, Store
from repro.dram.address import Geometry
from repro.sim.config import plain_dram_config, table1_config
from repro.sim.system import System
from repro.vec.hier import DirtyReplay
from repro.vec.shim import component_snapshot

#: 2 banks x 8 rows x 16 columns of 64-byte lines.
GEOMETRY = Geometry(chips=8, banks=2, rows_per_bank=8, columns_per_row=16)
LINE_BYTES = GEOMETRY.line_bytes
#: Tiny caches (L1 4 sets x 2 ways, L2 4 sets x 4 ways) so short
#: streams evict, demote and write back.
CACHES = dict(l1_size=8 * LINE_BYTES, l1_assoc=2,
              l2_size=16 * LINE_BYTES, l2_assoc=4)
CONFIGS = {
    "gs": table1_config(geometry=GEOMETRY, **CACHES),
    "plain": plain_dram_config(geometry=GEOMETRY, **CACHES),
}


@st.composite
def streams(draw, min_size=0):
    """(config name, accesses); each access is (line, pattern, alt, write).

    GS streams follow the Section 4.1 restriction: one alt pattern per
    stream, accessed as pattern 0 or the alt.
    """
    name = draw(st.sampled_from(sorted(CONFIGS)))
    alt = draw(st.sampled_from([0, 1, 3, 7])) if name == "gs" else 0
    access = st.tuples(
        # Mostly one row (so gathers overlap), sometimes four.
        st.one_of(
            st.integers(0, GEOMETRY.columns_per_row - 1),
            st.integers(0, 4 * GEOMETRY.columns_per_row - 1),
        ).map(lambda line: line * LINE_BYTES),
        st.sampled_from(sorted({0, alt})),
        st.just(alt),
        st.booleans(),
    )
    return name, draw(st.lists(access, min_size=min_size, max_size=60))


def replay(name: str, *batches) -> DirtyReplay:
    """A fresh replay of ``batches``, one :meth:`run` call each."""
    machine = DirtyReplay(CONFIGS[name])
    for batch in batches:
        machine.run(*(list(zip(*batch)) or [(), (), (), ()]))
    return machine


def state(machine: DirtyReplay):
    """Every counter plus the ordered cache contents and dirty DBI rows."""
    return (
        dict(machine.counts),
        [list(s.items()) for s in machine._l1_sets],
        [list(s.items()) for s in machine._l2_sets],
        {row: sorted(keys) for row, keys in machine._dbi.items()},
        list(machine._open_rows),
    )


@given(streams(), st.lists(st.integers(0, 60), max_size=4))
def test_split_anywhere_equals_one_run(case, cuts):
    name, stream = case
    bounds = [0, *sorted(min(cut, len(stream)) for cut in cuts), len(stream)]
    batches = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
    assert state(replay(name, *batches)) == state(replay(name, stream))


#: A load of line 0, a pattern-7 store to line 1 (another L1 set) whose
#: overlap eviction drops line 0, then line 0 again: a miss, although
#: the previous access to its set touched the same key.
OVERLAP_EVICTS_BETWEEN = ("gs", [(0, 0, 7, False), (LINE_BYTES, 7, 7, True),
                                 (0, 0, 7, False)])


@given(streams())
@example(OVERLAP_EVICTS_BETWEEN)
def test_one_access_per_run_equals_one_run(case):
    # Single-access batches are never elided: the per-access loop alone
    # must reproduce the elided run.
    name, stream = case
    singles = [[access] for access in stream]
    assert state(replay(name, *singles)) == state(replay(name, stream))


@given(streams(min_size=1), st.data())
def test_duplicate_access_is_one_more_l1_hit(case, data):
    name, stream = case
    i = data.draw(st.integers(0, len(stream) - 1))
    expected = replay(name, stream).counts
    expected["l1_hits"] += 1
    doubled = stream[: i + 1] + stream[i:]
    assert replay(name, doubled).counts == expected
    # The copy opening a new batch takes the per-access loop instead.
    assert replay(name, doubled[: i + 1], doubled[i + 1 :]).counts == expected


def test_pattern0_store_then_gather_of_the_same_row():
    """Store to column 0, then the pattern-7 gather that includes it.

    The gather's fetch queries the DBI, flushes the dirty pattern-0 line
    (an L1 invalidation written back as a row-hit WRITE), then reads.
    """
    config = table1_config(geometry=GEOMETRY)
    replay = DirtyReplay(config)
    replay.run([0, 0], [0, 7], [7, 7], [True, False])
    replay.publish()
    expected = {
        "controller": {
            "requests": 3, "requests_read": 2, "requests_write": 1,
            "requests_patterned": 1, "row_hits": 2, "row_misses": 1,
            "cmd_ACT": 1, "cmd_RD": 2, "cmd_WR": 1,
        },
        "l1": {"misses": 2, "fills": 2, "invalidations": 1},
        "l2": {"misses": 2, "fills": 2, "invalidations": 1},
        "hierarchy": {
            "writebacks": 1, "coherence_invalidations": 1,
            "coherence_flushes": 1, "prefetch_flushes": 1,
        },
        "dbi": {"marks": 1, "cleans": 1, "overlap_queries": 2},
    }
    assert component_snapshot(replay.machine) == expected

    # The event machine agrees on the same program.
    system = System(config)
    base = system.pattmalloc(GEOMETRY.row_bytes, shuffle=True, pattern=7)
    system.run([[Store(base, bytes(8), pattern=0), Load(base, pattern=7)]])
    event = component_snapshot(system)
    for component, stats in expected.items():
        assert {k: v for k, v in event[component].items() if v} == stats
