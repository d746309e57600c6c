"""Differential test: bytes-chunk ``snapshot_view`` vs the oracle.

Random programs -- tracked row writes (some rewriting the bytes already
there, some writing ``-0.0`` or a NaN with another payload), raw writes
through a kept ``.data`` reference, writes on either side of a
parent/subview pair, ``load_data`` restores of earlier versions and
``reset_dirty_tracking()`` -- run against four views that are
snapshotted, version after version, by the real
:func:`repro.veloc.snapshot.snapshot_view` and by the always-copy
:func:`~tests.veloc.reference_snapshot.reference_snapshot_view`.  Each
chain has its own previous snapshot; per version the two must agree on
everything the model sees, and the real one must share a chunk object
with its predecessor exactly when the bytes are equal.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kokkos import KokkosRuntime
from repro.veloc import VeloCConfig
from repro.veloc import client as client_module
from repro.veloc.snapshot import snapshot_view
from tests.veloc.conftest import run_veloc_ranks
from tests.veloc.reference_snapshot import reference_snapshot_view

COLS = 16          # 128 B per float64 row
CHUNK_BYTES = 512  # 4 rows per chunk
TRACKED, RAW, PARENT, CHILD = range(4)


def bits(pattern):
    """A float64 with exactly this bit pattern (NaN payloads survive)."""
    return np.array([pattern], dtype=np.uint64).view(np.float64)[0]


VALUES = [0.0, -0.0, 1.0, 2.0, bits(0x7FF8000000000000),
          bits(0x7FF8000000000001)]
#: None rewrites the bytes that are already there
KINDS = st.sampled_from(VALUES + [None, None])
ROWS = st.integers(0, 31)
SPANS = st.integers(1, 6)

OPS = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 3), ROWS, SPANS, KINDS),
    st.tuples(st.just("raw_write"), ROWS, SPANS, KINDS),
    st.tuples(st.just("load"), st.integers(0, 3), st.integers(1, 3)),
    st.tuples(st.just("reset"), st.sampled_from([TRACKED, RAW])),
    st.tuples(st.just("snap")),
)
PROGRAMS = st.lists(OPS, max_size=40)


def same_bytes(a, b):
    return a.tobytes() == b.tobytes()


class Machine:
    """One program, one set of views, two snapshot chains."""

    def __init__(self):
        rt = KokkosRuntime()
        # 30 and 26 rows: the last chunk of three of the views is short
        tracked = rt.view("tracked", shape=(30, COLS), chunk_bytes=CHUNK_BYTES)
        raw = rt.view("raw", shape=(30, COLS), chunk_bytes=CHUNK_BYTES)
        parent = rt.view("parent", shape=(32, COLS), chunk_bytes=CHUNK_BYTES)
        child = parent.subview(slice(2, 28), label="child")
        self.views = [tracked, raw, parent, child]
        self.raw_handle = raw.data  # kept across snapshots
        self.prevs, self.oracle_prevs = {}, {}
        self.history = {i: [] for i in range(4)}

    def payload(self, view, row, span, kind):
        current = view.copy_data()[row:row + span]
        if kind is None:
            return current
        return np.full_like(current, kind)

    def run(self, program):
        for op in list(program) + [("snap",)]:
            getattr(self, op[0])(*op[1:])

    def write(self, which, row, span, kind):
        view = self.views[which]
        row %= view.shape[0]
        view[row:row + span] = self.payload(view, row, span, kind)

    def raw_write(self, row, span, kind):
        view = self.views[RAW]
        if self.raw_handle is None:
            self.raw_handle = view.data
        row %= view.shape[0]
        self.raw_handle[row:row + span] = self.payload(view, row, span, kind)

    def load(self, which, back):
        older = self.history[which]
        if older:
            self.views[which].load_data(older[-min(back, len(older))])

    def reset(self, which):
        # the contract: no outstanding raw reference writes afterwards
        if which == RAW:
            self.raw_handle = None
        self.views[which].reset_dirty_tracking()

    def snap(self):
        for which, view in enumerate(self.views):
            prev = self.prevs.get(which)
            snap, fresh = snapshot_view(view, prev=prev)
            osnap, ofresh = reference_snapshot_view(
                view, prev=self.oracle_prevs.get(which))
            self.prevs[which], self.oracle_prevs[which] = snap, osnap
            assert fresh == ofresh
            contents = view.copy_data()
            assert same_bytes(snap.materialize(), contents)
            assert same_bytes(osnap.materialize(), contents)
            assert all(type(chunk) is bytes for chunk in snap.chunks)
            if prev is not None:
                for i, chunk in enumerate(snap.chunks):
                    assert (chunk is prev.chunks[i]) == (chunk == prev.chunks[i])
            self.history[which].append(contents)
            view.clear_dirty()


@settings(max_examples=150, deadline=None)
@given(PROGRAMS)
def test_snapshot_chain_matches_oracle(program):
    Machine().run(program)


class TestClientAfterRecover:
    """checkpoint -> recover(latest) -> checkpoint: the view is all-dirty,
    every byte is what the latest snapshot holds, so every chunk of the
    new version is the latest one's object, and the whole view is still
    charged and flushed."""

    @staticmethod
    def _job(monkeypatch, reference):
        if reference:
            monkeypatch.setattr(client_module, "snapshot_view",
                                reference_snapshot_view)

        def body(client, h, rt):
            v = rt.view("x", shape=(64, COLS), chunk_bytes=CHUNK_BYTES,
                        modeled_nbytes=1.6e6)
            v[:] = np.arange(64 * COLS, dtype=float).reshape(64, COLS)
            client.mem_protect(0, v)
            yield from client.checkpoint(0)
            v[5] = -1.0
            yield from client.checkpoint(1)
            yield from client.wait_flushes()
            v.fill(0.0)  # scrub, then restore the latest version
            yield from client.recover(1)
            before = dict(client.stats)
            yield from client.checkpoint(2)
            delta = {k: client.stats[k] - before[k] for k in before}
            scratch = client.ctx.node.scratch
            (v1,), (v2,) = (scratch[client._key(version)][0].values()
                            for version in (1, 2))
            shared = [a is b for a, b in zip(v2.chunks, v1.chunks)]
            return delta, shared, h.ctx.engine.now

        results, _ = run_veloc_ranks(1, body, config=VeloCConfig())
        return results[0]

    def test_hashes_nothing_and_reports_what_the_oracle_reports(
            self, monkeypatch):
        with monkeypatch.context() as patch:
            odelta, _, onow = self._job(patch, reference=True)
        delta, shared, now = self._job(monkeypatch, reference=False)
        assert shared == [True] * 16
        assert delta == odelta
        assert delta["dirty_bytes"] == 1.6e6  # still charged as a full copy
        assert delta["novel_bytes"] == 1.6e6  # and flushed as one
        assert now == onow
