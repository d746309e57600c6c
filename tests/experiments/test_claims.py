"""Every claim predicate bites: it holds on the committed default-scale
cells, and a doctored copy of those cells -- one number moved past the
claim's bound, or two runs swapped -- makes it return False."""

import copy

import pytest

from repro.experiments import claims


def _set(report, category, value):
    report.buckets[category] = value


def _swap_failed(cells, strategy_key, other_key):
    cells[strategy_key].failed, cells[other_key].failed = \
        cells[other_key].failed, cells[strategy_key].failed


def _scale_wall(get, factor):
    def doctor(evidence):
        get(evidence).wall_time *= factor
    return doctor


def _last_rank(fig6):
    return max(n for _, n in fig6)


def _reverse(study, column):
    """Reverse one column of an ablation study's rows."""
    def doctor(studies):
        rows = studies[study]
        values = [r[column] for r in rows][::-1]
        studies[study] = [r[:column] + (v,) + r[column + 1:]
                          for r, v in zip(rows, values)]
    return doctor


#: predicate -> how to break it on a deep copy of its target's evidence
BITES = {
    # fig5
    "claim_1_kr_manages_veloc_for_free":
        _scale_wall(lambda ev: ev.largest("kr_veloc").clean, 1.03),
    "claim_2_fenix_adds_nothing_to_a_clean_run":
        _scale_wall(lambda ev: ev.largest("fenix_kr_veloc").clean, 1.03),
    "claim_3_fenix_cuts_failure_cost_in_other": lambda ev: _swap_failed(
        ev.data, ("fenix_kr_veloc", ev.sizes[0]), ("kr_veloc", ev.sizes[0])),
    "claim_4_veloc_cost_is_congestion_not_the_call": lambda ev: _set(
        ev.largest("fenix_kr_veloc").clean, "app_mpi",
        ev.largest("none").clean.category("app_mpi")),
    "claim_6_imr_checkpoint_scales_with_size": lambda ev: _set(
        ev.largest("fenix_kr_imr").clean, "checkpoint_function",
        20 * ev.smallest("fenix_kr_imr").clean.category(
            "checkpoint_function")),
    "claim_7_imr_beats_veloc_at_small_sizes": lambda ev: setattr(
        ev.smallest("fenix_kr_imr").clean, "wall_time",
        ev.smallest("fenix_kr_veloc").clean.wall_time),
    "claim_8_imr_scales_better_with_ranks": _scale_wall(
        lambda ev: ev.weak["fenix_kr_imr", ev.nodes[-1]].clean, 1.05),
    "claim_9_recovery_follows_data_not_backend": lambda ev: _set(
        ev.largest("fenix_kr_imr").failed, "data_recovery",
        2.5 * ev.largest("fenix_kr_veloc").failed.category("data_recovery")),
    "claim_10_recompute_dominates_recovery": lambda ev: _set(
        ev.largest("fenix_kr_veloc").failed, "recompute",
        ev.largest("fenix_kr_veloc").failed.category("data_recovery")),
    # fig6
    "claim_2_resilience_adds_little_to_minimd": _scale_wall(
        lambda ev: ev["fenix_kr_veloc", _last_rank(ev)].clean, 1.05),
    "claim_11_phase_ordering": lambda ev: _set(
        ev["fenix_kr_veloc", _last_rank(ev)].clean, "neighboring",
        ev["fenix_kr_veloc", _last_rank(ev)].clean.category("force_compute")),
    "claim_12_checkpointing_hits_the_communicator": lambda ev: _set(
        ev["kr_veloc", _last_rank(ev)].clean, "communicator",
        1.02 * ev["none", _last_rank(ev)].clean.category("communicator")),
    "claim_13_fenix_saves_the_relaunch": lambda ev: _swap_failed(
        ev, ("fenix_kr_veloc", _last_rank(ev)), ("kr_veloc", _last_rank(ev))),
    "claim_14_wall_flat_across_node_counts": _scale_wall(
        lambda ev: ev["fenix_kr_veloc", _last_rank(ev)].clean, 1.3),
    # fig7
    "claim_15_census_is_39_3_19_at_every_size":
        lambda rows: rows[2].counts.update(alias=4),
    "claim_16_one_view_holds_the_majority":
        lambda rows: setattr(rows[-1], "dominant_view_fraction", 0.5),
    "claim_17_skipped_views_are_large":
        lambda rows: rows[0].fractions.update(skipped=0.3),
    # partial, complexity
    "claim_19_keeping_survivor_data_speeds_recovery": lambda result: setattr(
        result, "partial_rollback_wall", result.full_rollback_wall),
    "complexity_mpi_call_sites_in_every_app_file":
        lambda report: report.modules.pop(),
    # ablations
    "ablation_collectives_tree_beats_flat": _reverse("collectives", 2),
    "ablation_pfs_more_servers_less_overhead": _reverse("pfs", 1),
    "ablation_flush_chunk_coarse_chunks_block_app_mpi":
        _reverse("flush_chunk", 1),
    "ablation_burst_buffer_absorbs_flushes": _reverse("burst_buffer", 1),
    "ablation_spares_absorb_each_failure": _reverse("spares", 1),
    "ablation_interval_rare_checkpoints_recompute_more":
        _reverse("interval", 2),
    # campaign
    "campaign_online_recovery_wins": lambda ledger: setattr(
        ledger.group("fenix_kr_veloc")[0], "attempts", 2),
}

PREDICATES = [(target, fn) for target, fns in claims.CLAIMS.items()
              for fn in fns]


@pytest.mark.parametrize("target,predicate", PREDICATES,
                         ids=[fn.__name__ for _, fn in PREDICATES])
def test_a_doctored_cell_set_breaks_the_claim(target, predicate, figures):
    committed = figures.evidence(target)
    assert predicate(committed)
    doctored = copy.deepcopy(committed)
    BITES[predicate.__name__](doctored)
    assert not predicate(doctored)
    assert predicate(committed)  # the doctoring touched the copy only
