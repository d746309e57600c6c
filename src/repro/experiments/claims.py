"""The evaluation's claims, as named predicates over the cells a table is
made from.

``python -m repro experiments TARGET`` writes the target's tables, then
runs :func:`failed` over the same cells (the *evidence* that the
target's function in ``repro.experiments.__main__.TARGETS`` returns): a
claim that does not hold is one stderr line and exit 1.  A predicate's
name carries its EXPERIMENTS.md claim number, or the study it checks
where a target has no numbered claims.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Tuple

#: target -> its predicates, in declaration order
CLAIMS: Dict[str, List[Callable[[Any], bool]]] = {}


def _claim(target: str) -> Callable:
    def register(fn: Callable[[Any], bool]) -> Callable[[Any], bool]:
        CLAIMS.setdefault(target, []).append(fn)
        return fn
    return register


def failed(target: str, evidence: Any) -> List[str]:
    """One line per claim of ``target`` that ``evidence`` breaks."""
    return [f"claim does not hold: {target} {fn.__name__}"
            for fn in CLAIMS.get(target, ()) if not fn(evidence)]


def _within(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


def _extra_other(cell: Any) -> float:
    """What the failure added to the paper's "Other" category."""
    return cell.failed.other - cell.clean.other


# -- Figure 5 -----------------------------------------------------------------


class Fig5(NamedTuple):
    """Figure 5's cells: ``data[strategy, bytes]`` (left panel) and
    ``weak[strategy, nodes]`` (right panel)."""

    data: Dict[Tuple[str, float], Any]
    weak: Dict[Tuple[str, int], Any]

    @classmethod
    def of(cls, data: List[Any], weak: List[Any]) -> "Fig5":
        return cls({(c.strategy, c.data_bytes): c for c in data},
                   {(c.strategy, c.n_ranks): c for c in weak})

    @property
    def sizes(self) -> List[float]:
        return sorted({size for _, size in self.data})

    @property
    def nodes(self) -> List[int]:
        return sorted({n for _, n in self.weak})

    def largest(self, strategy: str) -> Any:
        return self.data[strategy, self.sizes[-1]]

    def smallest(self, strategy: str) -> Any:
        return self.data[strategy, self.sizes[0]]


def _overhead(panel: Dict[tuple, Any], strategy: str, x: Any) -> float:
    """A strategy's clean wall over ``none``'s in one panel column."""
    return panel[strategy, x].clean.wall_time - panel["none", x].clean.wall_time


def _ckpt_call(cell: Any) -> float:
    return cell.clean.category("checkpoint_function")


@_claim("fig5")
def claim_1_kr_manages_veloc_for_free(fig5: Fig5) -> bool:
    """KR-managed VeloC's clean wall is manual VeloC's, to 2 %."""
    return all(_within(fig5.data["kr_veloc", s].clean.wall_time,
                       fig5.data["veloc", s].clean.wall_time, 0.02)
               for s in fig5.sizes)


@_claim("fig5")
def claim_2_fenix_adds_nothing_to_a_clean_run(fig5: Fig5) -> bool:
    return all(_within(fig5.data["fenix_kr_veloc", s].clean.wall_time,
                       fig5.data["kr_veloc", s].clean.wall_time, 0.02)
               for s in fig5.sizes)


@_claim("fig5")
def claim_3_fenix_cuts_failure_cost_in_other(fig5: Fig5) -> bool:
    """Online repair beats relaunch at every size and node count, and the
    saving sits in "Other" at every size."""
    cheaper = all(panel["fenix_kr_veloc", x].failure_cost
                  < panel["kr_veloc", x].failure_cost
                  for panel, xs in ((fig5.data, fig5.sizes),
                                    (fig5.weak, fig5.nodes)) for x in xs)
    return cheaper and all(_extra_other(fig5.data["fenix_kr_veloc", s])
                           < _extra_other(fig5.data["kr_veloc", s])
                           for s in fig5.sizes)


@_claim("fig5")
def claim_4_veloc_cost_is_congestion_not_the_call(fig5: Fig5) -> bool:
    """The checkpoint call is a memcpy (< 10 ms at the smallest size,
    < 0.1 s at the largest); the App-MPI congestion over ``none`` is
    positive and larger than the call."""
    veloc = fig5.largest("fenix_kr_veloc")
    congestion = (veloc.clean.category("app_mpi")
                  - fig5.largest("none").clean.category("app_mpi"))
    return (_ckpt_call(fig5.smallest("fenix_kr_veloc")) < 0.01
            and _ckpt_call(veloc) < 0.1
            and congestion > max(0.0, _ckpt_call(veloc)))


@_claim("fig5")
def claim_6_imr_checkpoint_scales_with_size(fig5: Fig5) -> bool:
    """IMR's call grows over 20x across the sizes, and by over 3x what
    VeloC's grows."""
    def growth(strategy: str) -> float:
        return (_ckpt_call(fig5.largest(strategy))
                - _ckpt_call(fig5.smallest(strategy)))

    imr_small = _ckpt_call(fig5.smallest("fenix_kr_imr"))
    return (_ckpt_call(fig5.largest("fenix_kr_imr")) > 20 * imr_small
            and growth("fenix_kr_imr") > 3 * growth("fenix_kr_veloc"))


@_claim("fig5")
def claim_7_imr_beats_veloc_at_small_sizes(fig5: Fig5) -> bool:
    small = fig5.sizes[0]
    return (_overhead(fig5.data, "fenix_kr_imr", small)
            < _overhead(fig5.data, "fenix_kr_veloc", small))


@_claim("fig5")
def claim_8_imr_scales_better_with_ranks(fig5: Fig5) -> bool:
    """Against a fixed PFS, VeloC's overhead over ``none`` grows with the
    node count more than IMR's does."""
    lo, hi = fig5.nodes[0], fig5.nodes[-1]

    def growth(strategy: str) -> float:
        return (_overhead(fig5.weak, strategy, hi)
                - _overhead(fig5.weak, strategy, lo))

    return growth("fenix_kr_imr") < growth("fenix_kr_veloc")


@_claim("fig5")
def claim_9_recovery_follows_data_not_backend(fig5: Fig5) -> bool:
    """Data recovery grows with size, and IMR's is VeloC's to within
    100 % (the same magnitude)."""
    def recovery(cell: Any) -> float:
        return cell.failed.category("data_recovery")

    veloc = recovery(fig5.largest("fenix_kr_veloc"))
    return (veloc > recovery(fig5.smallest("fenix_kr_veloc"))
            and _within(recovery(fig5.largest("fenix_kr_imr")), veloc, 1.0))


@_claim("fig5")
def claim_10_recompute_dominates_recovery(fig5: Fig5) -> bool:
    failed_run = fig5.largest("fenix_kr_veloc").failed
    return (failed_run.category("recompute")
            > failed_run.category("data_recovery"))


# -- Figure 6 -----------------------------------------------------------------


def _ranks(fig6: Dict[Tuple[str, int], Any]) -> List[int]:
    return sorted({n for _, n in fig6})


@_claim("fig6")
def claim_2_resilience_adds_little_to_minimd(fig6) -> bool:
    """Fenix + KR + VeloC keeps MiniMD's clean wall within 5 %."""
    return all(fig6["fenix_kr_veloc", n].clean.wall_time
               < 1.05 * fig6["none", n].clean.wall_time for n in _ranks(fig6))


@_claim("fig6")
def claim_11_phase_ordering(fig6) -> bool:
    """Force Compute outweighs Neighboring and the (nonzero)
    Communicator at every rank count."""
    def ordered(run: Any) -> bool:
        force = run.category("force_compute")
        return (force > run.category("communicator") > 0
                and force > run.category("neighboring"))

    return all(ordered(fig6["fenix_kr_veloc", n].clean) for n in _ranks(fig6))


@_claim("fig6")
def claim_12_checkpointing_hits_the_communicator(fig6) -> bool:
    """The communicator's relative overhead beats force compute's, and
    both resilient strategies add over 2 % to it: x/v/f change every
    step, so every version is flushed (stale chunk digests once
    deduplicated those flushes away)."""
    def relative(n: int, phase: str) -> float:
        base = fig6["none", n].clean.category(phase)
        run = fig6["fenix_kr_veloc", n].clean.category(phase)
        return (run - base) / base if base > 0 else 0.0

    return all(
        relative(n, "communicator") > relative(n, "force_compute")
        and all(fig6[s, n].clean.category("communicator")
                > 1.02 * fig6["none", n].clean.category("communicator")
                for s in ("kr_veloc", "fenix_kr_veloc"))
        for n in _ranks(fig6))


@_claim("fig6")
def claim_13_fenix_saves_the_relaunch(fig6) -> bool:
    """Fenix's failure cost is lower, and its extra "Other" is over 2 s
    below the relaunch's (launch + MiniMD's big init)."""
    return all(
        fig6["fenix_kr_veloc", n].failure_cost < fig6["kr_veloc", n].failure_cost
        and _extra_other(fig6["kr_veloc", n])
        - _extra_other(fig6["fenix_kr_veloc", n]) > 2.0
        for n in _ranks(fig6))


@_claim("fig6")
def claim_14_wall_flat_across_node_counts(fig6) -> bool:
    walls = [fig6["fenix_kr_veloc", n].clean.wall_time for n in _ranks(fig6)]
    return max(walls) / min(walls) < 1.2


# -- Figure 7 -----------------------------------------------------------------


@_claim("fig7")
def claim_15_census_is_39_3_19_at_every_size(rows) -> bool:
    return [r.sim_size for r in rows] == [100, 200, 300, 400] and all(
        r.counts == {"checkpointed": 39, "alias": 3, "skipped": 19}
        for r in rows)


@_claim("fig7")
def claim_16_one_view_holds_the_majority(rows) -> bool:
    return all(r.dominant_view_fraction > 0.5 for r in rows)


@_claim("fig7")
def claim_17_skipped_views_are_large(rows) -> bool:
    """Skipped views outweigh aliases and hold over 30 % of view memory;
    the three classes partition it, at every size alike (to 0.02)."""
    first = rows[0].fractions
    return all(
        r.fractions["skipped"] > max(r.fractions["alias"], 0.3)
        and _within(sum(r.fractions.values()), 1.0, 1e-6)
        and all(abs(r.fractions[k] - first[k]) <= 0.02 for k in first)
        for r in rows)


# -- Section VI-D2 and VI-E ---------------------------------------------------


@_claim("partial")
def claim_19_keeping_survivor_data_speeds_recovery(result) -> bool:
    """Over 1.4x recovery speedup, both rollbacks converging; the partial
    run may take fewer counted iterations (the survivors' kept data is
    ahead of the rolled-back counter), but over half the clean run's."""
    return (result.partial_recovery_cost < result.full_recovery_cost
            and result.speedup > 1.4
            and 0 < result.clean_iterations <= result.full_iterations
            and result.clean_iterations // 2 < result.partial_iterations
            <= result.full_iterations)


@_claim("complexity")
def complexity_mpi_call_sites_in_every_app_file(report) -> bool:
    return report.total_mpi_call_sites >= 9 and report.files_with_mpi == 3


# -- extensions: the design ablations and the MTBF campaign -------------------


@_claim("ablation")
def ablation_collectives_tree_beats_flat(studies) -> bool:
    """The flat root serializes P-1 sends; the tree pipelines in log P,
    so its lead grows with P."""
    rows = studies["collectives"]
    return (all(flat > tree for n, tree, flat in rows if n >= 16)
            and rows[-1][2] / rows[-1][1] > rows[0][2] / rows[0][1])


@_claim("ablation")
def ablation_pfs_more_servers_less_overhead(studies) -> bool:
    rows = studies["pfs"]
    return rows[0][1] > rows[-1][1]


@_claim("ablation")
def ablation_flush_chunk_coarse_chunks_block_app_mpi(studies) -> bool:
    """Giant chunks hold halo messages behind whole checkpoints."""
    rows = studies["flush_chunk"]
    return rows[-1][1] > rows[0][1]


@_claim("ablation")
def ablation_burst_buffer_absorbs_flushes(studies) -> bool:
    pfs_only, bb = studies["burst_buffer"]
    return bb[1] <= pfs_only[1]


@_claim("ablation")
def ablation_spares_absorb_each_failure(studies) -> bool:
    """Never a relaunch, and each failure adds cost."""
    rows = studies["spares"]
    walls = [wall for _, wall, _ in rows]
    return all(a == 1 for _, _, a in rows) and walls == sorted(walls)


@_claim("ablation")
def ablation_interval_rare_checkpoints_recompute_more(studies) -> bool:
    recompute = {i: r for i, _, r, _ in studies["interval"]}
    return recompute[max(recompute)] > recompute[min(recompute)]


@_claim("campaign")
def campaign_online_recovery_wins(ledger) -> bool:
    """The same failures hit both; Fenix absorbs them in one attempt at a
    better efficiency, the relaunch pays one attempt per failure."""
    (relaunch,) = ledger.group("kr_veloc")
    (fenix,) = ledger.group("fenix_kr_veloc")
    (ideal,) = ledger.ideal.values()
    return (relaunch.failures >= 1 and fenix.failures >= 1
            and fenix.attempts == 1
            and relaunch.attempts == relaunch.failures + 1
            and fenix.efficiency(ideal) > relaunch.efficiency(ideal))
