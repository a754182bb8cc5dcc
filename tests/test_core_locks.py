"""Tests for the lock protocol: LR / UW / U, the separate lock
directory, LH busy-waiting and UL broadcast (Sections 3.1, 3.3)."""

from repro.core.config import CacheConfig, SimulationConfig
from repro.core.lock_directory import LockDirectory
from repro.core.states import BusPattern, CacheState, LockState
from repro.core.system import BLOCKED, PIMCacheSystem
from repro.trace.events import AREA_BASE, FLAG_LOCK_CONTENDED, Area, Op

HEAP = AREA_BASE[Area.HEAP]


def make_system(n_pes=4):
    return PIMCacheSystem(SimulationConfig(track_data=True), n_pes)


class TestLockDirectory:
    def test_lock_unlock_cycle(self):
        directory = LockDirectory(0, capacity=2)
        assert directory.state(5) == LockState.EMP
        directory.lock(5)
        assert directory.state(5) == LockState.LCK
        directory.mark_waiting(5)
        assert directory.state(5) == LockState.LWAIT
        assert directory.unlock(5) == LockState.LWAIT
        assert directory.state(5) == LockState.EMP

    def test_mark_waiting_on_absent_address_is_noop(self):
        directory = LockDirectory(0)
        directory.mark_waiting(9)
        assert directory.state(9) == LockState.EMP

    def test_overflow_is_counted_not_fatal(self):
        directory = LockDirectory(0, capacity=1)
        directory.lock(1)
        directory.lock(2)
        assert directory.overflows == 1
        assert directory.max_occupancy == 2

    def test_unlock_absent_returns_none(self):
        assert LockDirectory(0).unlock(3) is None


class TestLockRead:
    def test_lr_hit_exclusive_costs_no_bus(self):
        """The headline property: LR to EC/EM uses zero bus cycles."""
        system = make_system()
        system.access(0, Op.R, Area.HEAP, HEAP)  # EC
        before = system.stats.bus_cycles_total
        cycles, _, value = system.access(0, Op.LR, Area.HEAP, HEAP)
        assert cycles == 1
        assert system.stats.bus_cycles_total == before
        assert system.stats.lr_no_bus == 1
        assert system.lock_directories[0].state(HEAP) == LockState.LCK

    def test_lr_hit_shared_rides_invalidate_plus_lk(self):
        system = make_system()
        system.access(0, Op.R, Area.HEAP, HEAP)
        system.access(1, Op.R, Area.HEAP, HEAP)  # both S
        cycles, _, _ = system.access(0, Op.LR, Area.HEAP, HEAP)
        assert cycles == 2  # I + LK broadcast
        assert system.stats.lr_bus == 1
        assert system.line_state(1, HEAP) == CacheState.INV

    def test_lr_miss_rides_fi_plus_lk(self):
        system = make_system()
        cycles, _, _ = system.access(0, Op.LR, Area.HEAP, HEAP)
        assert cycles == 13
        assert system.stats.lr_bus == 1
        assert system.line_state(0, HEAP) in (CacheState.EC, CacheState.EM)

    def test_lr_reads_current_value(self):
        system = make_system()
        system.access(1, Op.W, Area.HEAP, HEAP, value=33)
        _, _, value = system.access(0, Op.LR, Area.HEAP, HEAP)
        assert value == 33


class TestConflicts:
    def test_remote_access_to_locked_word_blocks(self):
        system = make_system()
        system.access(0, Op.LR, Area.HEAP, HEAP)
        cycles, _, _ = system.access(1, Op.R, Area.HEAP, HEAP)
        assert cycles == BLOCKED
        assert system.is_waiting(1)
        assert system.stats.lh_responses == 1
        # The holder's entry flipped to LWAIT.
        assert system.lock_directories[0].state(HEAP) == LockState.LWAIT

    def test_busy_wait_retries_use_no_bus(self):
        system = make_system()
        system.access(0, Op.LR, Area.HEAP, HEAP)
        system.access(1, Op.R, Area.HEAP, HEAP)
        bus_before = system.stats.bus_cycles_total
        for _ in range(5):
            cycles, _, _ = system.access(1, Op.R, Area.HEAP, HEAP)
            assert cycles == BLOCKED
        assert system.stats.bus_cycles_total == bus_before
        assert system.stats.lh_responses == 1  # one episode, one LH

    def test_unlock_with_waiter_broadcasts_ul_and_frees(self):
        system = make_system()
        system.access(0, Op.LR, Area.HEAP, HEAP)
        system.access(1, Op.R, Area.HEAP, HEAP)  # waits
        cycles, flags, _ = system.access(0, Op.UW, Area.HEAP, HEAP, value=5)
        assert flags == FLAG_LOCK_CONTENDED
        assert system.stats.unlocks_with_waiter == 1
        # The waiter's retry now succeeds and sees the new value.
        cycles, _, value = system.access(1, Op.R, Area.HEAP, HEAP)
        assert cycles != BLOCKED
        assert value == 5
        assert not system.is_waiting(1)

    def test_unlock_without_waiter_is_silent(self):
        system = make_system()
        system.access(0, Op.R, Area.HEAP, HEAP)
        system.access(0, Op.LR, Area.HEAP, HEAP)
        bus_before = system.stats.bus_cycles_total
        cycles, flags, _ = system.access(0, Op.UW, Area.HEAP, HEAP, value=5)
        assert cycles == 1
        assert flags == 0
        assert system.stats.bus_cycles_total == bus_before
        assert system.stats.unlocks_no_waiter == 1

    def test_plain_u_releases_without_writing(self):
        system = make_system()
        system.access(0, Op.W, Area.HEAP, HEAP, value=7)
        system.access(0, Op.LR, Area.HEAP, HEAP)
        system.access(0, Op.U, Area.HEAP, HEAP)
        assert system.lock_directories[0].state(HEAP) == LockState.EMP
        _, _, value = system.access(0, Op.R, Area.HEAP, HEAP)
        assert value == 7  # unchanged

    def test_word_granularity_two_locks_same_pe(self):
        """The separate directory distinguishes words within a block."""
        system = make_system()
        system.access(0, Op.R, Area.HEAP, HEAP)
        system.access(0, Op.LR, Area.HEAP, HEAP)
        system.access(0, Op.LR, Area.HEAP, HEAP + 1)
        assert len(system.lock_directories[0]) == 2
        system.access(0, Op.UW, Area.HEAP, HEAP, value=1)
        # The second lock still guards the block.
        assert system.access(1, Op.R, Area.HEAP, HEAP)[0] == BLOCKED
        system.access(0, Op.U, Area.HEAP, HEAP + 1)
        assert system.access(1, Op.R, Area.HEAP, HEAP)[0] != BLOCKED

    def test_lock_survives_local_eviction(self):
        """The lock directory snoops even after the block is swapped out."""
        system = PIMCacheSystem(
            SimulationConfig(
                cache=CacheConfig(block_words=4, n_sets=2, associativity=1),
                track_data=True,
            ),
            2,
        )
        system.access(0, Op.LR, Area.HEAP, HEAP)
        system.access(0, Op.R, Area.HEAP, HEAP + 8)  # evicts the locked block
        assert system.line_state(0, HEAP) == CacheState.INV
        assert system.access(1, Op.R, Area.HEAP, HEAP)[0] == BLOCKED
        # UW after eviction refetches and still works.
        cycles, _, _ = system.access(0, Op.UW, Area.HEAP, HEAP, value=9)
        assert cycles != BLOCKED
        assert system.access(1, Op.R, Area.HEAP, HEAP)[1:] != (None,)

    def test_spurious_unlock_counted(self):
        system = make_system()
        system.access(0, Op.U, Area.HEAP, HEAP)
        assert system.stats.spurious_unlocks == 1


class TestDemotionsUnderLH:
    """A demoted ``DW`` or ``ER`` that the LH check inhibits busy-waits
    and retries; its demotion is counted once, by the attempt that
    passes the check, not once per attempt."""

    def _spin_then_pass(self, op, area, address):
        system = PIMCacheSystem(SimulationConfig(), 2)
        system.access(1, Op.LR, area, address)
        for _ in range(3):
            cycles, _, _ = system.access(0, op, area, address)
            assert cycles == BLOCKED
        system.access(1, Op.UW, area, address)
        cycles, _, _ = system.access(0, op, area, address)
        assert cycles != BLOCKED
        return system.stats

    def test_blocked_dw_demotion_counts_once(self):
        # Not a block boundary: demoted to W, whose miss meets PE1's lock.
        stats = self._spin_then_pass(Op.DW, Area.HEAP, HEAP + 1)
        assert stats.dw_demotions == 1

    def test_blocked_er_demotion_counts_once(self):
        # The last word of a goal block: demoted to R, inhibited likewise.
        goal = AREA_BASE[Area.GOAL]
        stats = self._spin_then_pass(Op.ER, Area.GOAL, goal + 3)
        assert stats.er_demotions == 1


class TestReplayAnnotations:
    def test_contended_flag_reenacts_lh_and_ul(self):
        system = make_system()
        system.access(0, Op.R, Area.HEAP, HEAP)
        cycles, flags, _ = system.access(
            0, Op.LR, Area.HEAP, HEAP, flags=FLAG_LOCK_CONTENDED
        )
        assert flags == FLAG_LOCK_CONTENDED
        assert system.stats.lh_responses == 1
        before = system.stats.pattern_counts[BusPattern.INVALIDATION]
        system.access(0, Op.UW, Area.HEAP, HEAP, value=1, flags=FLAG_LOCK_CONTENDED)
        assert system.stats.unlocks_with_waiter == 1
        assert system.stats.pattern_counts[BusPattern.INVALIDATION] == before + 1
