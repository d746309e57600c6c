"""TimeAccount unit tests."""

import pytest

from repro.util.timing import (
    APP_COMPUTE,
    APP_MPI,
    CHECKPOINT_FUNCTION,
    RECOMPUTE,
    TimeAccount,
)


class TestCharging:
    def test_default_buckets(self):
        acct = TimeAccount()
        acct.charge("compute", 1.0)
        acct.charge("mpi", 2.0)
        assert acct.get(APP_COMPUTE) == 1.0
        assert acct.get(APP_MPI) == 2.0

    def test_unknown_kind_becomes_its_own_bucket(self):
        acct = TimeAccount()
        acct.charge("checkpoint_function", 0.5)
        assert acct.get(CHECKPOINT_FUNCTION) == 0.5

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            TimeAccount().charge("compute", -1.0)

    def test_total(self):
        acct = TimeAccount()
        acct.charge("compute", 1.0)
        acct.charge("mpi", 2.0)
        assert acct.total() == 3.0


class TestLabels:
    def test_label_redirects(self):
        acct = TimeAccount()
        with acct.label(RECOMPUTE):
            acct.charge("compute", 1.0)
            acct.charge("mpi", 0.5)
        assert acct.get(RECOMPUTE) == 1.5
        assert acct.get(APP_COMPUTE) == 0.0

    def test_nested_labels_innermost_wins(self):
        acct = TimeAccount()
        with acct.label(RECOMPUTE):
            with acct.label("force_compute"):
                acct.charge("compute", 1.0)
            acct.charge("compute", 2.0)
        assert acct.get("force_compute") == 1.0
        assert acct.get(RECOMPUTE) == 2.0

    def test_label_restored_after_exception(self):
        acct = TimeAccount()
        with pytest.raises(RuntimeError):
            with acct.label("x"):
                raise RuntimeError
        acct.charge("compute", 1.0)
        assert acct.get("x") == 0.0 and acct.get(APP_COMPUTE) == 1.0

    def test_active_label(self):
        acct = TimeAccount()
        with acct.label("a"):
            acct.charge("compute", 1.0)
        acct.charge("compute", 2.0)
        assert acct.get("a") == 1.0 and acct.get(APP_COMPUTE) == 2.0


class TestMerge:
    def test_snapshot_is_copy(self):
        acct = TimeAccount()
        acct.charge("compute", 1.0)
        snap = acct.snapshot()
        acct.charge("compute", 1.0)
        assert snap[APP_COMPUTE] == 1.0


class TestRecomputeNesting:
    """Labels nested under ``recompute`` (MiniMD's phase labels override
    the recompute label; plain charges stay in recompute)."""

    def test_phase_label_under_recompute_wins(self):
        acct = TimeAccount()
        with acct.label(RECOMPUTE):
            with acct.label("force_compute"):
                acct.charge("compute", 2.0)
            with acct.label("neighboring"):
                acct.charge("compute", 0.5)
            acct.charge("mpi", 1.0)
        assert acct.get("force_compute") == 2.0
        assert acct.get("neighboring") == 0.5
        assert acct.get(RECOMPUTE) == 1.0
        assert acct.get(APP_COMPUTE) == 0.0
        assert acct.get(APP_MPI) == 0.0

    def test_recompute_restored_after_inner_exits(self):
        acct = TimeAccount()
        with acct.label(RECOMPUTE):
            with acct.label(CHECKPOINT_FUNCTION):
                acct.charge("compute", 1.0)
            acct.charge("compute", 3.0)
        acct.charge("compute", 4.0)
        assert acct.get(RECOMPUTE) == 3.0
        assert acct.get(CHECKPOINT_FUNCTION) == 1.0
        assert acct.get(APP_COMPUTE) == 4.0

    def test_recompute_restored_after_inner_exception(self):
        acct = TimeAccount()
        with acct.label(RECOMPUTE):
            with pytest.raises(RuntimeError):
                with acct.label("force_compute"):
                    raise RuntimeError
            acct.charge("compute", 1.0)
        acct.charge("compute", 2.0)
        assert acct.get("force_compute") == 0.0
        assert acct.get(RECOMPUTE) == 1.0 and acct.get(APP_COMPUTE) == 2.0

    def test_reentrant_recompute_label(self):
        acct = TimeAccount()
        with acct.label(RECOMPUTE):
            with acct.label(RECOMPUTE):
                acct.charge("compute", 1.0)
            acct.charge("compute", 1.0)
        assert acct.get(RECOMPUTE) == 2.0

