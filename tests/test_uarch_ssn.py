"""Unit tests for SSN tracking."""

from repro.uarch import SsnState


class TestSsnState:
    def test_initial_state(self):
        ssn = SsnState()
        assert ssn.rename == ssn.retire == ssn.commit == 0

    def test_rename_monotonic(self):
        ssn = SsnState()
        assert ssn.next_rename() == 1
        assert ssn.next_rename() == 2
        assert ssn.rename == 2

    def test_retire_commit_track_max(self):
        ssn = SsnState()
        for _ in range(5):
            ssn.next_rename()
        ssn.on_retire(3)
        ssn.on_retire(2)       # stale: ignored
        assert ssn.retire == 3
        ssn.on_commit(1)
        ssn.on_commit(3)
        assert ssn.commit == 3

    def test_rewind_on_squash(self):
        ssn = SsnState()
        for _ in range(10):
            ssn.next_rename()
        ssn.on_retire(4)
        ssn.rewind_rename(4)
        assert ssn.rename == 4
        # Rewind can never go below the retired SSN.
        ssn.rewind_rename(2)
        assert ssn.rename == 4

    def test_ordering_invariant(self):
        """commit <= retire <= rename must always hold in normal flow."""
        ssn = SsnState()
        for i in range(1, 8):
            assert ssn.next_rename() == i
        for i in range(1, 6):
            ssn.on_retire(i)
            assert ssn.commit <= ssn.retire <= ssn.rename
        for i in range(1, 4):
            ssn.on_commit(i)
            assert ssn.commit <= ssn.retire <= ssn.rename

