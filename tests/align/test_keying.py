"""Canonical logical keys: wrank/epoch extraction, volatility, the
protocol-critical skeleton, layer attribution, and occurrence indexing."""

from repro.align.keying import (
    canonical_fields,
    key_records,
    protocol_critical,
    record_epoch,
    record_wrank,
)
from repro.sim.trace import TraceRecord
from repro.vocabulary import ANCHOR_KINDS, PER_ITERATION_KINDS, layer_of


def rec(time=0.0, source="veloc.rank3", kind="checkpoint", **fields):
    return TraceRecord(time=time, source=source, kind=kind, fields=fields)


# -- wrank ---------------------------------------------------------------


def test_wrank_prefers_explicit_rank_field():
    assert record_wrank(rec(source="veloc.rank3", rank=7)) == 7


def test_wrank_from_per_rank_source_suffix():
    assert record_wrank(rec(source="kr.rank0")) == 0
    assert record_wrank(rec(source="imr.rank12")) == 12


def test_wrank_from_spare_and_member_fields():
    assert record_wrank(rec(source="fenix", spare=4)) == 4
    assert record_wrank(rec(source="fenix", member=2)) == 2


def test_wrank_none_for_global_records():
    assert record_wrank(rec(source="mpi", kind="revoke")) is None


# -- epoch ---------------------------------------------------------------


def test_epoch_precedence_generation_version_iteration():
    assert record_epoch(rec(generation=2, version=9, iteration=1)) == 2
    assert record_epoch(rec(version=9, iteration=1)) == 9
    assert record_epoch(rec(iteration=1)) == 1
    assert record_epoch(rec()) is None


def test_epoch_ignores_booleans():
    assert record_epoch(rec(generation=True, version=3)) == 3


# -- canonical value -----------------------------------------------------


def test_canonical_excludes_volatile_fields():
    a = canonical_fields(rec(nbytes=100, seconds=0.5, backlog=3))
    b = canonical_fields(rec(nbytes=100, seconds=0.9, backlog=7))
    assert a == b
    c = canonical_fields(rec(nbytes=200, seconds=0.5))
    assert a != c


def test_canonical_collapses_tuples_to_lists():
    a = canonical_fields(rec(survivors=(0, 1, 2)))
    b = canonical_fields(rec(survivors=[0, 1, 2]))
    assert a == b


# -- the protocol-critical skeleton --------------------------------------


def test_protocol_critical_is_the_per_iteration_complement():
    for kind in ["rank_killed", "checkpoint", "recover", "repair",
                 "kr_region_begin", "compute", "detect"]:
        assert protocol_critical(kind) == (kind not in PER_ITERATION_KINDS)
    assert not protocol_critical("kr_region_begin")


def test_anchor_kinds_are_all_protocol_critical():
    assert all(protocol_critical(kind) for kind in ANCHOR_KINDS)


# -- layer attribution ---------------------------------------------------


def test_layer_of_vocabulary():
    assert layer_of(rec(kind="rank_killed", source="plan")) == "process"
    assert layer_of(rec(kind="detect", source="mpi")) == "ulfm"
    assert layer_of(rec(kind="revoke", source="mpi")) == "ulfm"
    assert layer_of(rec(kind="repair", source="fenix")) == "fenix"
    # agree exists at both levels: source decides
    assert layer_of(rec(kind="agree", source="fenix")) == "fenix"
    assert layer_of(rec(kind="agree", source="mpi")) == "ulfm"
    assert layer_of(rec(kind="kr_region_commit", source="kr.rank0")) == "kr"
    assert layer_of(rec(kind="checkpoint", source="veloc.rank1")) == "veloc"
    assert layer_of(rec(kind="imr_store", source="imr.rank1")) == "veloc"
    assert layer_of(rec(kind="recompute", source="kr.rank0")) == "recompute"
    assert layer_of(rec(kind="compute", source="app.rank0")) == "app"


# -- occurrence indexing -------------------------------------------------


def test_occurrence_counts_repeats_in_stream_order():
    records = [rec(time=float(i), version=1) for i in range(3)]
    keyed = key_records(records)
    assert [kr.occurrence for kr in keyed] == [0, 1, 2]
    assert len({kr.key for kr in keyed}) == 3


def test_reverse_occurrence_counts_from_stream_end():
    records = [rec(time=float(i), version=1) for i in range(3)]
    keyed = key_records(records, reverse_occurrence=True)
    assert [kr.occurrence for kr in keyed] == [2, 1, 0]


def test_reverse_occurrence_aligns_ring_suffixes():
    """A ring buffer keeps a suffix; reverse indexing keeps the
    surviving records' keys identical to the full stream's tail."""
    records = [rec(time=float(i), version=1) for i in range(5)]
    full = key_records(records, reverse_occurrence=True)
    suffix = key_records(records[2:], reverse_occurrence=True)
    assert [kr.key for kr in suffix] == [kr.key for kr in full[2:]]


def test_keys_unique_on_a_real_trace(base_records):
    keyed = key_records(base_records)
    keys = [kr.key for kr in keyed]
    assert len(set(keys)) == len(keys)
    # the kill cell exercises the resiliency layers of the vocabulary
    layers = {kr.layer for kr in keyed}
    assert {"process", "ulfm", "fenix", "kr", "veloc"} <= layers
