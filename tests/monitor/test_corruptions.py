"""Seeded trace corruptions are each caught with a causal chain.

Acceptance criterion: at least four corruptions -- a reordered revoke, a
restore of an unflushed version, an illegal role edge, and a stale buddy
block -- are detected, and each violation's chain names the offending
records.  Clean replays of the same traces (see test_monitors) pass, so
these prove the monitors check the protocol rather than the workload.
"""

import dataclasses

from repro.sim.trace import TraceRecord
from repro.vocabulary import parse_source
from tests.monitor.conftest import check


def rules_of(violations):
    return [f"{v.monitor}/{v.rule}" for v in violations]


def reorder_revoke(records):
    """Move the first revoke to after the fenix shrink record."""
    records = list(records)
    revoke = next(r for r in records if r.kind == "revoke")
    shrink = next(r for r in records
                  if r.source == "fenix" and r.kind == "shrink")
    records.remove(revoke)
    records.insert(records.index(shrink) + 1, revoke)
    return records, revoke, shrink


class TestReorderedRevoke:
    def test_detected_on_spare_repair_path(self, veloc_run):
        _, _, clean = veloc_run
        corrupted, _, shrink = reorder_revoke(clean)
        violations = check(corrupted)
        assert "ULFMOrderMonitor/revoke-before-shrink" in rules_of(violations)
        v = next(x for x in violations if x.rule == "revoke-before-shrink")
        chain_kinds = [r.kind for r in v.chain]
        # the chain walks cause to effect: the death that should have
        # triggered a revoke, then the shrink that ran without one
        assert "rank_dead" in chain_kinds
        assert v.offending is shrink

    def test_detected_on_spare_exhaustion_shrink_path(self, shrink_run):
        """PROTOCOLS.md §4: same corruption on the zero-spare shrink path."""
        _, _, clean = shrink_run
        corrupted, _, _ = reorder_revoke(clean)
        assert "ULFMOrderMonitor/revoke-before-shrink" in rules_of(
            check(corrupted)
        )

    def test_dropped_revoke_also_detected(self, veloc_run):
        _, _, clean = veloc_run
        records = [r for r in clean if r.kind != "revoke"]
        rules = rules_of(check(records))
        assert any(r.startswith("ULFMOrderMonitor/revoke-before")
                   for r in rules)


class TestRestoredUnflushedVersion:
    def test_detected(self, veloc_run):
        _, _, clean = veloc_run
        recover = next(r for r in clean
                       if r.kind == "recover"
                       and r.fields.get("tier") in ("bb", "pfs"))
        rank = parse_source(recover.source)[1]
        version = recover.fields["version"]

        def backs(rec):
            if rec.kind != "flush_done":
                return False
            key = rec.fields.get("key") or ()
            return len(key) == 4 and key[2] == version and key[3] == rank

        records = [r for r in clean if not backs(r)]
        violations = check(records)
        assert "FlushMonitor/restore-unflushed" in rules_of(violations)
        v = next(x for x in violations if x.rule == "restore-unflushed")
        assert v.offending is recover
        assert str(version) in v.message


class TestIllegalRoleEdge:
    def test_detected(self, veloc_run):
        _, _, clean = veloc_run
        records = list(clean)
        role = next(r for r in records
                    if r.kind == "role" and r.fields.get("role") == "RECOVERED")
        bad = dataclasses.replace(
            role, fields={**role.fields, "role": "SURVIVOR"}
        )
        records[records.index(role)] = bad
        violations = check(records)
        assert "RoleTransitionMonitor/illegal-role-edge" in rules_of(violations)
        v = next(x for x in violations if x.rule == "illegal-role-edge")
        assert v.offending is bad
        # the chain includes the previous role record proving the edge
        assert any(r.kind == "role" and r is not bad for r in v.chain)


class TestCalledBackFromFinalize:
    def test_a_rank_waiting_in_finalize_is_still_expected_at_the_gate(
            self, veloc_run):
        """Arriving at Fenix_Finalize is not retiring (PROTOCOLS.md §1): a
        death calls the waiters back to the repair gate, so a repair that
        completes without one of them is incomplete.  The monitor used to
        take ``finalize_arrive`` for retirement and would have missed it."""
        _, _, clean = veloc_run
        records = list(clean)
        repair = next(r for r in records
                      if r.source == "fenix" and r.kind == "repair")
        survivor = next(w for w in repair["members"]
                        if w not in repair["recovered"])
        at = records.index(repair)
        records[at] = bad = dataclasses.replace(repair, fields={
            **repair.fields, "contributors": [
                w for w in repair["contributors"] if w != survivor]})
        records.insert(at, TraceRecord(
            repair.time, "fenix", "finalize_arrive", {"rank": survivor}))
        violations = check(records)
        assert rules_of(violations) == [
            "RepairGateMonitor/incomplete-rendezvous"]
        assert violations[0].offending is bad
        assert str(survivor) in violations[0].message


class TestStaleBuddy:
    def test_detected(self, imr_run):
        _, _, clean = imr_run
        records = list(clean)
        restore = next(r for r in records
                       if r.kind == "imr_restore"
                       and r.fields.get("tier") == "buddy")
        bad = dataclasses.replace(
            restore,
            fields={**restore.fields,
                    "version": restore.fields["version"] + 10},
        )
        records[records.index(restore)] = bad
        violations = check(records)
        assert "BuddyMonitor/stale-buddy" in rules_of(violations)
        v = next(x for x in violations if x.rule == "stale-buddy")
        assert v.offending is bad


class TestCleanReplays:
    def test_uncorrupted_traces_stay_clean(self, veloc_run, imr_run):
        for _, _, records in (veloc_run, imr_run):
            assert check(records) == []
