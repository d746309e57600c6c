"""Checkpoint data-path ablation: full vs incremental.

The acceptance bar for the incremental data path: restore after a
failure is *bit-identical* between ``incremental=True`` and
``incremental=False`` on the fig5 heatdis scenario.
"""

import numpy as np
import pytest

from repro.experiments.ablations import (
    _arm_specs,
    format_ablation,
    run_checkpoint_ablation,
    verify_restore_equivalence,
)
from repro.parallel import execute_cell


class TestRestoreEquivalence:
    def test_fig5_heatdis_bit_identical(self):
        # three in-process runs: failed(full), failed(incr), clean(incr)
        outcome = verify_restore_equivalence(n_ranks=2, data_size="16MB")
        assert outcome["ranks"] == 2
        # 2 ranks x 2 pairings (incr/full and failed/clean)
        assert outcome["compared"] == 4

    def test_mismatch_detection_is_real(self):
        # guard the guard: grids from *different* scenarios must differ,
        # otherwise the equivalence assertion is vacuous
        specs_a = _arm_specs("heatdis", "incremental", 2, 16e6)
        specs_b = _arm_specs("heatdis", "incremental", 2, 16e6)
        clean = execute_cell(specs_a[0]).report
        failed = execute_cell(specs_b[1]).report
        # same scenario, clean vs failed: equal by recovery exactness
        ga = clean.results[0]["grid"]
        gb = failed.results[0]["grid"]
        assert np.array_equal(ga, gb)
        assert not np.array_equal(ga, np.zeros_like(ga))


class TestAblationSweep:
    def test_heatdis_arms_report_data_path(self):
        cells = run_checkpoint_ablation(n_ranks=2, data_size="16MB",
                                        apps=["heatdis"])
        by_arm = {c.arm: c for c in cells}
        assert set(by_arm) == {"full", "incremental"}
        full, incr = by_arm["full"], by_arm["incremental"]
        # both arms survive the injected failure and pay a failure cost
        assert full.failure_cost > 0 and incr.failure_cost > 0
        # the full arm reports an all-dirty path
        assert full.data_path["dirty_fraction"] == pytest.approx(1.0)
        # heatdis mutates raw arrays: the incremental arm must stay
        # conservative (full copies), never under-report
        assert incr.data_path["dirty_fraction"] == pytest.approx(1.0)
        assert "dedup_ratio" not in incr.data_path
        table = format_ablation(cells)
        assert "dirty%" in table and "incremental" in table
        assert "dedup" not in table

    def test_warm_cache_prints_the_cold_table(self, tmp_path):
        """dirty% is the ablation's result column: a sweep
        served from the run cache must not print them as ``--``."""
        from repro.parallel import RunCache

        kwargs = dict(n_ranks=2, data_size="16MB", apps=["heatdis"])
        cold = format_ablation(run_checkpoint_ablation(
            **kwargs, cache=RunCache(tmp_path)))
        warm_cache = RunCache(tmp_path)
        warm = format_ablation(run_checkpoint_ablation(
            **kwargs, cache=warm_cache))
        assert (warm_cache.hits, warm_cache.misses) == (4, 0)
        assert warm == cold
        assert "--" not in cold
