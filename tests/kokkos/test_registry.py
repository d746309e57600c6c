"""Tests for the view registry and the Figure-7-style census."""

import numpy as np
import pytest

from repro.kokkos import KokkosRuntime
from repro.util.errors import ConfigError


@pytest.fixture
def rt():
    return KokkosRuntime()


class TestRegistryBasics:
    def test_lookup_by_label(self, rt):
        v = rt.view("positions", shape=(8,))
        assert rt.registry.find("positions") is v
        assert rt.registry.find("missing") is None

    def test_len_and_iter(self, rt):
        rt.view("a", shape=(1,))
        rt.view("b", shape=(1,))
        assert len(rt.registry) == 2
        assert sorted(v.label for v in rt.registry) == ["a", "b"]

    def test_finalize_clears(self, rt):
        rt.view("a", shape=(1,))
        rt.finalize()
        assert len(rt.registry) == 0
        assert rt.finalized


class TestAliases:
    def test_declare_and_query(self, rt):
        a = rt.view("x", shape=(4,))
        b = rt.view("x_swap", shape=(4,))
        rt.declare_alias("x_swap", "x")
        assert rt.registry.is_alias(b)
        assert not rt.registry.is_alias(a)

    def test_self_alias_rejected(self, rt):
        with pytest.raises(ConfigError):
            rt.declare_alias("x", "x")


class TestCensus:
    def test_distinct_views_all_checkpointed(self, rt):
        views = [rt.view(f"v{i}", shape=(4,)) for i in range(3)]
        census = rt.registry.census()
        assert census.checkpointed == views
        assert census.aliases == []
        assert census.skipped == []

    def test_duplicates_skipped(self, rt):
        base = rt.view("base", shape=(10,))
        dup = base.subview(slice(0, 10), label="captured_copy")
        census = rt.registry.census()
        assert census.checkpointed == [base]
        assert census.skipped == [dup]

    def test_alias_excluded(self, rt):
        main = rt.view("state", shape=(8,))
        swap = rt.view("state_swap", shape=(8,))
        rt.declare_alias("state_swap", "state")
        census = rt.registry.census()
        assert census.checkpointed == [main]
        assert census.aliases == [swap]

    def test_census_on_subset(self, rt):
        a = rt.view("a", shape=(2,))
        b = rt.view("b", shape=(2,))
        census = rt.registry.census([b])
        assert census.checkpointed == [b]

    def test_fig7_style_breakdown(self, rt):
        # One dominant view plus small ones, a swap alias, duplicates: the
        # qualitative structure of MiniMD's census in the paper.
        big = rt.view("dominant", shape=(1000,))
        small = [rt.view(f"s{i}", shape=(10,)) for i in range(5)]
        swap = rt.view("dominant_swap", shape=(1000,))
        rt.declare_alias("dominant_swap", "dominant")
        dups = [big.subview(slice(None), label=f"dup{i}") for i in range(3)]
        census = rt.registry.census()
        assert len(census.checkpointed) == 6
        assert len(census.aliases) == 1
        assert len(census.skipped) == 3
        fracs = census.fractions_by_class()
        assert fracs["checkpointed"] + fracs["alias"] + fracs["skipped"] == pytest.approx(1.0)
        # the dominant view makes checkpointed the biggest single class
        assert fracs["checkpointed"] > 0.15

    def test_fractions_empty(self, rt):
        census = rt.registry.census([])
        assert census.fractions_by_class() == {
            "checkpointed": 0.0, "alias": 0.0, "skipped": 0.0,
        }

    def test_bytes_by_class_uses_modeled(self, rt):
        v = rt.view("modeled", shape=(2,), modeled_nbytes=1e6)
        census = rt.registry.census()
        assert census.bytes_by_class()["checkpointed"] == 1e6
