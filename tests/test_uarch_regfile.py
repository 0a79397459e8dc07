"""Unit + property tests for physical-register reference counting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch import PhysRegFile, RegfileError


class TestAllocation:
    def test_allocate_unique(self):
        prf = PhysRegFile(64)
        seen = {prf.allocate() for _ in range(64)}
        assert len(seen) == 64
        assert prf.allocate() is None
        assert prf.alloc_stalls == 1

    def test_minimum_size_enforced(self):
        with pytest.raises(RegfileError):
            PhysRegFile(10)

    def test_release_on_virtual_release(self):
        prf = PhysRegFile(64)
        preg = prf.allocate()
        free_before = prf.free_count
        prf.dec_producer(preg)
        assert prf.free_count == free_before + 1

    def test_consumer_hold_delays_release(self):
        """The paper's core lifetime extension: a store's data register
        stays alive after virtual release until the store commits."""
        prf = PhysRegFile(64)
        preg = prf.allocate()
        prf.add_consumer(preg)          # store will read it at commit
        prf.dec_producer(preg)          # overwriter retired
        assert preg not in prf.free     # still held
        prf.dec_consumer(preg)          # store committed
        assert preg in prf.free

    def test_multiple_definitions(self):
        """Paper Fig. 9: producer counter counts definitions."""
        prf = PhysRegFile(64)
        preg = prf.allocate()           # def 1 (count=1)
        prf.add_producer(preg)          # def 2 (cloaking / second CMOV)
        prf.dec_producer(preg)          # first overwriter retires
        assert preg not in prf.free
        prf.dec_producer(preg)          # second overwriter retires
        assert preg in prf.free

    def test_add_producer_on_consumer_held_register(self):
        prf = PhysRegFile(64)
        preg = prf.allocate()
        prf.add_consumer(preg)
        prf.dec_producer(preg)          # producer hits 0, consumer holds
        prf.add_producer(preg)          # cloaking onto the held register
        assert prf.producer[preg] == 1

    def test_add_producer_on_dead_register_rejected(self):
        prf = PhysRegFile(64)
        preg = prf.allocate()
        prf.dec_producer(preg)
        with pytest.raises(RegfileError):
            prf.add_producer(preg)

    def test_underflow_detected(self):
        prf = PhysRegFile(64)
        preg = prf.allocate()
        prf.dec_producer(preg)
        with pytest.raises(RegfileError):
            prf.dec_producer(preg)
        with pytest.raises(RegfileError):
            prf.dec_consumer(preg)


class TestReadyBits:
    def test_not_ready_until_set(self):
        prf = PhysRegFile(64)
        preg = prf.allocate()
        assert not prf.is_ready(preg, 100)
        prf.set_ready(preg, 10)
        assert prf.is_ready(preg, 10)
        assert not prf.is_ready(preg, 9)

    def test_set_ready_keeps_latest(self):
        prf = PhysRegFile(64)
        preg = prf.allocate()
        prf.set_ready(preg, 10)
        prf.set_ready(preg, 5)       # earlier: ignored
        assert prf.ready_cycle[preg] == 10

    def test_release_clears_ready(self):
        prf = PhysRegFile(64)
        preg = prf.allocate()
        prf.set_ready(preg, 3)
        prf.dec_producer(preg)
        assert prf.ready_cycle[preg] is None


class TestRebuild:
    def test_rebuild_frees_everything_not_live(self):
        prf = PhysRegFile(64)
        pregs = [prf.allocate() for _ in range(10)]
        for preg in pregs:
            prf.set_ready(preg, 1)
        live = {pregs[0]: 1, pregs[1]: 2}
        held = {pregs[2]: 1}
        prf.rebuild(live, held)
        assert prf.producer[pregs[0]] == 1
        assert prf.producer[pregs[1]] == 2
        assert prf.consumer[pregs[2]] == 1
        assert prf.free_count == 64 - 3
        # Survivors keep their ready state; the dead lose it.
        assert prf.ready_cycle[pregs[0]] == 1
        assert prf.ready_cycle[pregs[5]] is None


class TestCountingInvariant:
    @given(st.lists(st.sampled_from(["alloc", "vrelease", "hold", "unhold"]),
                    min_size=1, max_size=200))
    @settings(max_examples=100)
    def test_free_plus_live_is_constant(self, ops):
        """No register is ever lost or double-freed."""
        prf = PhysRegFile(48)
        live = []       # (preg, has_consumer)
        for op in ops:
            if op == "alloc":
                preg = prf.allocate()
                if preg is not None:
                    live.append([preg, 0])
            elif op == "vrelease" and live:
                preg, holds = live[0]
                if holds == 0:
                    prf.dec_producer(preg)
                    live.pop(0)
            elif op == "hold" and live:
                live[-1][1] += 1
                prf.add_consumer(live[-1][0])
            elif op == "unhold":
                for item in live:
                    if item[1] > 0:
                        item[1] -= 1
                        prf.dec_consumer(item[0])
                        break
            # Invariant: every live register is not in the free list and
            # the books balance.
            assert prf.free_count + len(live) == 48
