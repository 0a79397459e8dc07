"""Unit tests for the TSO/RMO store buffer."""

import random

from repro.uarch import CacheParams, Consistency, MemoryHierarchy, StoreBuffer
from repro.uarch.stats import SimStats


def hierarchy():
    return MemoryHierarchy(
        CacheParams(size_bytes=4096, assoc=4, line_bytes=64, hit_latency=4),
        CacheParams(size_bytes=65536, assoc=8, line_bytes=64, hit_latency=12),
        dram_latency=100, dram_banks=4, stats=SimStats())


class TestCapacity:
    def test_fills_and_rejects(self):
        sb = StoreBuffer(capacity=2, consistency=Consistency.TSO,
                         coalescing=False)
        assert sb.push(1, 0x100, 0)
        assert sb.push(2, 0x200, 1)
        assert not sb.push(3, 0x300, 2)
        assert len(sb) == 2

    def test_can_accept_tracks_capacity(self):
        sb = StoreBuffer(capacity=1, consistency=Consistency.TSO,
                         coalescing=False)
        assert sb.can_accept(0x100)
        sb.push(1, 0x100, 0)
        assert not sb.can_accept(0x200)


class TestCoalescing:
    def test_consecutive_same_word_merges(self):
        """Paper Section V: under TSO only consecutive stores coalesce."""
        sb = StoreBuffer(capacity=2, consistency=Consistency.TSO,
                         coalescing=True)
        sb.push(1, 0x100, 0)
        sb.push(2, 0x100, 1)
        assert len(sb) == 1
        assert sb.coalesced_stores == 1
        assert sb.entries[0].ssn == 2
        assert sb.entries[0].trace_indices == [0, 1]

    def test_non_consecutive_does_not_merge(self):
        sb = StoreBuffer(capacity=4, consistency=Consistency.TSO,
                         coalescing=True)
        sb.push(1, 0x100, 0)
        sb.push(2, 0x200, 1)
        sb.push(3, 0x100, 2)    # same word as the first, but not the tail
        assert len(sb) == 3

    def test_coalescing_into_full_buffer_still_accepted(self):
        sb = StoreBuffer(capacity=1, consistency=Consistency.TSO,
                         coalescing=True)
        sb.push(1, 0x100, 0)
        assert sb.can_accept(0x100)     # merges with the tail
        assert sb.push(2, 0x100, 1)
        assert not sb.can_accept(0x200)

    def test_no_merge_after_write_started(self):
        sb = StoreBuffer(capacity=4, consistency=Consistency.TSO,
                         coalescing=True)
        sb.push(1, 0x100, 0)
        sb.tick(0, hierarchy())         # head write begins
        sb.push(2, 0x100, 1)
        assert len(sb) == 2


class TestTsoDrain:
    def test_in_order_commit(self):
        sb = StoreBuffer(capacity=8, consistency=Consistency.TSO,
                         coalescing=False)
        hier = hierarchy()
        # Warm the cache so both stores are L1 hits.
        hier.access(0x100, 0)
        hier.access(0x200, 0)
        sb.push(1, 0x100, 0)
        sb.push(2, 0x200, 1)
        done_order = []
        for cycle in range(1000):
            for entry in sb.tick(cycle, hier):
                done_order.append((entry.ssn, cycle))
            if sb.is_empty:
                break
        # TSO: commits become visible strictly in program order (their
        # cache accesses may overlap -- store miss-level parallelism).
        assert [ssn for ssn, _ in done_order] == [1, 2]
        assert done_order[1][1] >= done_order[0][1]

    def test_miss_blocks_younger_hit(self):
        sb = StoreBuffer(capacity=8, consistency=Consistency.TSO,
                         coalescing=False)
        hier = hierarchy()
        hier.access(0x200, 0)            # second store would hit
        sb.push(1, 0x9000, 0)            # cold miss: slow
        sb.push(2, 0x200, 1)
        completions = {}
        for cycle in range(500):
            for entry in sb.tick(cycle, hier):
                completions[entry.ssn] = cycle
            if sb.is_empty:
                break
        assert completions[1] > 100      # DRAM
        # The hit's cache access finished long before, but TSO holds its
        # visibility until the missing head commits.
        assert completions[2] >= completions[1]


class TestRmoDrain:
    def test_out_of_order_completion(self):
        """RMO lets a hit bypass an older miss (paper Section VI-g)."""
        sb = StoreBuffer(capacity=8, consistency=Consistency.RMO,
                         coalescing=False, rmo_parallelism=4)
        hier = hierarchy()
        hier.access(0x200, 0)
        sb.push(1, 0x9000, 0)            # miss
        sb.push(2, 0x200, 1)             # hit
        completions = {}
        for cycle in range(500):
            for entry in sb.tick(cycle, hier):
                completions[entry.ssn] = cycle
            if sb.is_empty:
                break
        assert completions[2] < completions[1]

    def test_rmo_frees_slots_sooner(self):
        """With a missing head and hitting tail, RMO frees buffer slots
        long before TSO can (less retire back-pressure)."""
        def cycles_until_half_empty(consistency):
            sb = StoreBuffer(capacity=16, consistency=consistency,
                             coalescing=False, rmo_parallelism=8)
            hier = hierarchy()
            for addr in (0x200, 0x240, 0x280, 0x2C0):
                hier.access(addr, 0)     # warm: these will be hits
            sb.push(1, 0x9000, 0)        # head: cold miss
            for i, addr in enumerate((0x200, 0x240, 0x280, 0x2C0)):
                sb.push(i + 2, addr, i + 1)
            for cycle in range(5000):
                sb.tick(cycle, hier)
                if len(sb) <= 2:
                    return cycle
            raise AssertionError("did not drain")
        assert cycles_until_half_empty(Consistency.RMO) < \
            cycles_until_half_empty(Consistency.TSO)


class TestNextEventCycle:
    """`next_event_cycle` powers the pipeline's event-driven cycle skipping:
    between `cycle` and the returned cycle, ticking every cycle must be a
    no-op, so eliding those ticks cannot change any drain timing."""

    def test_empty_buffer_has_no_event(self):
        sb = StoreBuffer(capacity=4, consistency=Consistency.TSO)
        assert sb.next_event_cycle(0) is None

    def test_unstarted_entry_with_free_slot_fires_next_cycle(self):
        sb = StoreBuffer(capacity=4, consistency=Consistency.TSO,
                         coalescing=False)
        sb.push(1, 0x100, 0)
        assert sb.next_event_cycle(0) == 1

    def test_tso_completed_behind_missing_head_is_inert(self):
        """Younger entries whose cache write finished stay buffered behind
        a missing head; their state cannot change until the head's write
        completes, so the head's deadline is the only event."""
        sb = StoreBuffer(capacity=8, consistency=Consistency.TSO,
                         coalescing=False)
        hier = hierarchy()
        hier.access(0x200, 0)            # the second store will hit
        sb.push(1, 0x9000, 0)            # head: cold miss
        sb.push(2, 0x200, 1)
        sb.tick(0, hier)                 # both writes start at cycle 0
        head_done = sb.entries[0].done_cycle
        tail_done = sb.entries[1].done_cycle
        assert tail_done < head_done
        # After the tail completes, the next observable change is the
        # head's completion -- hundreds of cycles out, not cycle+1.
        assert sb.next_event_cycle(tail_done + 1) == head_done

    def test_rmo_completed_entry_pops_next_tick(self):
        sb = StoreBuffer(capacity=8, consistency=Consistency.RMO,
                         coalescing=False)
        hier = hierarchy()
        hier.access(0x200, 0)
        sb.push(1, 0x9000, 0)
        sb.push(2, 0x200, 1)
        sb.tick(0, hier)
        tail_done = sb.entries[1].done_cycle
        assert sb.next_event_cycle(tail_done) == tail_done + 1

    @staticmethod
    def _drain(consistency, skip):
        sb = StoreBuffer(capacity=8, consistency=consistency,
                         coalescing=False, rmo_parallelism=2)
        hier = hierarchy()
        for addr in (0x200, 0x240):
            hier.access(addr, 0)         # warm: these stores will hit
        for i, addr in enumerate((0x9000, 0x200, 0xA000, 0x240, 0xB000)):
            sb.push(i + 1, addr, i)
        timeline = []
        cycle = 0
        while not sb.is_empty and cycle < 5000:
            for entry in sb.tick(cycle, hier):
                timeline.append((entry.ssn, cycle))
            if skip:
                wake = sb.next_event_cycle(cycle)
                cycle = wake if wake is not None else cycle + 1
            else:
                cycle += 1
        assert sb.is_empty
        return timeline

    def test_skipping_matches_tick_every_cycle(self):
        """Jumping straight between events reproduces the exact per-cycle
        drain timeline under both consistency models."""
        for consistency in (Consistency.TSO, Consistency.RMO):
            assert (self._drain(consistency, skip=True)
                    == self._drain(consistency, skip=False))


class TestStats:
    def test_peak_occupancy(self):
        sb = StoreBuffer(capacity=8, consistency=Consistency.TSO,
                         coalescing=False)
        for i in range(5):
            sb.push(i + 1, 0x100 + 4 * i, i)
        assert sb.peak_occupancy == 5


class TestStartedPrefix:
    """``tick`` counts in-flight entries and starts pending ones in one
    pass, which relies on the started entries always forming a prefix of
    the buffer."""

    @staticmethod
    def _started_is_prefix(sb):
        started = [entry.start_cycle is not None for entry in sb.entries]
        return started == sorted(started, reverse=True)

    def test_started_entries_form_a_prefix(self):
        for consistency in (Consistency.TSO, Consistency.RMO):
            for seed in range(20):
                rng = random.Random(seed)
                sb = StoreBuffer(capacity=8, consistency=consistency,
                                 coalescing=True, rmo_parallelism=3)
                hier = hierarchy()
                for addr in range(0x200, 0x400, 0x40):
                    hier.access(addr, 0)     # a mix of hits and misses
                ssn = drained = 0
                for cycle in range(600):
                    for _ in range(rng.randrange(3)):
                        # A few words, so the tail often coalesces.
                        word = rng.choice((0x200, 0x240, 0x9000, 0xA000,
                                           0x280, 0x280))
                        if sb.can_accept(word):
                            ssn += 1
                            sb.push(ssn, word, ssn)
                    drained += len(sb.tick(cycle, hier))
                    assert self._started_is_prefix(sb), (consistency,
                                                         seed, cycle)
                assert drained > 0 and sb.coalesced_stores > 0
