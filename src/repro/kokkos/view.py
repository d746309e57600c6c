"""Labelled array views.

A :class:`View` wraps a numpy array with a label and registry membership.
Three properties matter to the resilience layers:

- **buffer identity** (:meth:`View.buffer_id`): views created as slices or
  shallow copies of another view share the underlying buffer; Kokkos
  Resilience uses this to skip double-checkpointing (Figure 7's "Skipped"
  class);
- **modelled size** (:attr:`View.modeled_nbytes`): experiments model
  paper-scale data (e.g. 1 GB/node) over laptop-scale real arrays; the
  modelled size drives every checkpoint/transfer cost while the real array
  keeps numerical correctness;
- **dirty tracking** (:meth:`View.dirty_chunks`): the buffer is split into
  fixed-size chunks and writes through the view API mark the chunks they
  touch, so the incremental VeloC data path copies and flushes only what
  changed since the previous checkpoint (ReStore-style incremental
  checkpointing).

Dirty-tracking contract (see docs/PERFORMANCE.md):

- writes through :meth:`__setitem__`, :meth:`fill`, :meth:`load_data`,
  :func:`deep_copy` and :meth:`mark_dirty` are tracked exactly;
- reading :attr:`View.data` hands out the raw ndarray, which the caller
  may mutate at any later time -- the view becomes *raw-exposed* and
  conservatively reports every chunk dirty from then on (the full-copy
  behaviour, never an under-report).  :meth:`reset_dirty_tracking` is the
  explicit opt-back-in for callers that guarantee no outstanding raw
  reference will write;
- creating a :meth:`subview` aliases storage both ways, so parent and
  child both become raw-exposed;
- a view holds dirty bits and no other chunk state: it cannot see
  writes through a raw reference or an alias, so anything it kept could
  go stale.  :meth:`chunk_hash` is a pure function;
- constructing a view with ``data=`` transfers ownership of the array to
  the view (the Kokkos unmanaged-view convention): the caller must not
  keep writing through its own reference.
"""

from __future__ import annotations

import weakref
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.util.errors import ConfigError

#: default dirty-tracking chunk size (bytes).  Small enough that partial
#: updates of megabyte-class arrays resolve to a useful dirty fraction,
#: large enough that per-chunk bookkeeping stays negligible.
DEFAULT_CHUNK_BYTES = 64 * 1024


class View:
    """A labelled, registry-tracked ndarray wrapper."""

    def __init__(
        self,
        label: str,
        shape: Optional[Union[int, Tuple[int, ...]]] = None,
        dtype: Any = np.float64,
        data: Optional[np.ndarray] = None,
        registry: Optional["Any"] = None,
        modeled_nbytes: Optional[float] = None,
        space: str = "host",
        chunk_bytes: Optional[int] = None,
    ) -> None:
        if not label:
            raise ConfigError("views must be labelled")
        if (shape is None) == (data is None):
            raise ConfigError("View needs exactly one of shape= or data=")
        if space not in ("host", "device"):
            raise ConfigError(f"unknown memory space {space!r}")
        if chunk_bytes is not None and chunk_bytes < 1:
            raise ConfigError("chunk_bytes must be positive")
        self.label = label
        if data is not None:
            arr = np.asarray(data)
        else:
            arr = np.zeros(shape, dtype=dtype)
        self._modeled_nbytes = modeled_nbytes
        #: memory space ("host" or "device"); device views are staged
        #: through the host by the resilience layer around C/R operations
        self.space = space
        #: dirty-tracking granularity for this view's buffer
        self.chunk_bytes = int(chunk_bytes or DEFAULT_CHUNK_BYTES)
        # -- dirty-tracking state (initialized before .data is assigned,
        #    because the data setter resets it) --
        self._dirty: set = set()
        self._all_dirty = True
        self._raw_exposed = False
        self._bind(arr)
        # named weakly: the registry lists the view
        self._registry = None if registry is None else weakref.ref(registry)
        if registry is not None:
            registry.register(self)

    @property
    def registry(self) -> Optional["Any"]:
        """The registry listing this view; None for an unregistered view
        or once the registry is gone."""
        ref = self._registry
        return None if ref is None else ref()

    @property
    def on_device(self) -> bool:
        return self.space == "device"

    # -- raw storage ---------------------------------------------------------

    @property
    def data(self) -> np.ndarray:
        """The underlying ndarray.

        Handing out the raw array makes untracked writes possible, so the
        view conservatively becomes *raw-exposed*: every chunk reports
        dirty until :meth:`reset_dirty_tracking` asserts otherwise.
        """
        self._raw_exposed = True
        return self._data

    @data.setter
    def data(self, array: np.ndarray) -> None:
        """Rebind the storage (e.g. the Heatdis swap); everything dirty."""
        old = self._data
        if array.size == old.size and array.itemsize == old.itemsize:
            # the Heatdis swap, twice per iteration: the grid stands
            self._data = array
        else:
            self._bind(array)
        self.mark_dirty()

    def _bind(self, array: np.ndarray) -> None:
        """Point the view at ``array`` and size its chunk grid.  The grid
        depends on the buffer and on ``chunk_bytes``, which nothing
        assigns after construction, so it is worked out once per binding
        instead of on each of the several reads every write, dirty query
        and snapshot makes."""
        self._data: np.ndarray = array
        #: elements per dirty-tracking chunk (at least one)
        self.chunk_elems = max(1, self.chunk_bytes // max(1, array.itemsize))
        #: chunks covering the buffer (the last may be short)
        self.n_chunks = -(-array.size // self.chunk_elems)

    # -- identity / sizing -------------------------------------------------

    def buffer_id(self) -> int:
        """Identity of the underlying memory buffer.

        Views sharing storage (subviews, shallow copies) report the same
        id, which is how duplicate captures are detected.

        Liveness: the returned id is ``id()`` of the *root* ndarray of the
        ``.base`` chain.  That root is kept alive by the chain itself --
        every numpy slice/reshape holds a strong reference to its base --
        so the id stays valid (and unambiguous) for as long as this view
        exists, even after the caller's own reference to the parent array
        has gone out of scope.  The id is only meaningful while the views
        being compared are alive; it must never be persisted.
        """
        base = self._data
        while base.base is not None:
            base = base.base
        return id(base)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self):
        return self._data.dtype

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def nbytes(self) -> float:
        """Actual bytes held."""
        return float(self._data.nbytes)

    @property
    def modeled_nbytes(self) -> float:
        """Bytes this view *represents* in the experiment's cost model."""
        if self._modeled_nbytes is not None:
            return float(self._modeled_nbytes)
        return float(self._data.nbytes)

    @modeled_nbytes.setter
    def modeled_nbytes(self, value: Optional[float]) -> None:
        self._modeled_nbytes = value

    # -- chunked dirty tracking ----------------------------------------------

    @property
    def chunkable(self) -> bool:
        """Whether the buffer can be chunk-addressed (C-contiguous)."""
        return bool(self._data.flags["C_CONTIGUOUS"]) and self._data.size > 0

    def _chunks_for_rows(self, start: int, stop: int) -> range:
        """Chunk indices covering rows ``[start, stop)`` of axis 0."""
        if self._data.ndim == 0 or self._data.size == 0:
            return range(0)
        row_elems = self._data.size // max(1, self._data.shape[0])
        first = (start * row_elems) // self.chunk_elems
        last_elem = stop * row_elems
        last = -(-last_elem // self.chunk_elems)
        return range(max(0, first), min(self.n_chunks, last))

    def mark_dirty(self, index: Any = None) -> None:
        """Record a write.  ``index`` is ``None`` (everything), an int, or
        a slice over axis 0; anything finer-grained than axis-0 addressing
        conservatively dirties every chunk the covered rows overlap."""
        if index is None or self._data.ndim == 0:
            self._all_dirty = True
            return
        n_rows = self._data.shape[0]
        if isinstance(index, (int, np.integer)):
            i = int(index)
            if i < 0:
                i += n_rows
            chunks = self._chunks_for_rows(i, i + 1)
        elif isinstance(index, slice):
            start, stop, step = index.indices(n_rows)
            if step != 1:
                start, stop = 0, n_rows
            chunks = self._chunks_for_rows(start, stop)
        else:
            self._all_dirty = True
            return
        self._dirty.update(chunks)

    def dirty_chunks(self) -> List[int]:
        """Chunk indices that may have changed since :meth:`clear_dirty`.

        Raw-exposed or non-chunkable views report every chunk (the
        conservative full-copy fallback).
        """
        if self._all_dirty or self._raw_exposed or not self.chunkable:
            return list(range(self.n_chunks))
        return sorted(self._dirty)

    @property
    def dirty_fraction(self) -> float:
        """Fraction of chunks currently dirty (1.0 when conservative)."""
        n = self.n_chunks
        if n == 0:
            return 0.0
        return len(self.dirty_chunks()) / n

    def clear_dirty(self) -> None:
        """Mark the current contents checkpointed.  A raw-exposed view
        stays conservative (the raw reference may still write)."""
        self._dirty.clear()
        self._all_dirty = False

    def reset_dirty_tracking(self) -> None:
        """Drop the raw-exposed flag and start tracking exactly again.

        Only call when no previously handed-out ``.data`` reference will
        be written through any more; the next checkpoint still copies
        everything (all chunks are marked dirty)."""
        self._raw_exposed = False
        self._dirty.clear()
        self._all_dirty = True

    # -- chunk access / hashing ---------------------------------------------

    def chunk_slice(self, index: int) -> slice:
        """Flat-element slice of chunk ``index``."""
        ce = self.chunk_elems
        return slice(index * ce, min(self._data.size, (index + 1) * ce))

    def flat_array(self) -> np.ndarray:
        """The whole buffer as one flat array (no copy for a chunkable
        view).  Like :meth:`chunk_array` this is for reading -- snapshot
        and hashing code -- and does not count as raw exposure."""
        return self._data.reshape(-1)

    def chunk_array(self, index: int) -> np.ndarray:
        """Chunk ``index`` as a flat array view (no copy)."""
        return self.flat_array()[self.chunk_slice(index)]

    def chunk_hash(self, index: int) -> int:
        """``hash()`` of chunk ``index``'s bytes.  A pure function of the
        current bytes, nothing is cached; process-local, never to be
        persisted.  Nothing in the checkpoint path calls it:
        benchmarks/e2e/probes.py times it until ROADMAP item 9."""
        return hash(self.chunk_array(index).tobytes())

    # -- subviews ------------------------------------------------------------

    def subview(self, index: Any, label: Optional[str] = None) -> "View":
        """A view on a slice of this view's buffer (shares storage).

        Storage is aliased both ways, so parent and child both fall back
        to conservative dirty tracking.
        """
        sliced = self._data[index]
        if not isinstance(sliced, np.ndarray):
            sliced = np.asarray(sliced)
        self._raw_exposed = True
        child = View(
            label or f"{self.label}[sub]",
            data=sliced,
            registry=self.registry,
            space=self.space,
            chunk_bytes=self.chunk_bytes,
        )
        child._raw_exposed = True
        return child

    # -- array protocol -----------------------------------------------------------

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._data.astype(dtype, copy=bool(copy))
        if copy:
            return self._data.copy()
        # the raw buffer escapes: conservative tracking from here on
        self._raw_exposed = True
        return self._data

    def __getitem__(self, index):
        result = self._data[index]
        if isinstance(result, np.ndarray) and result.base is not None:
            # a writable alias of the buffer escaped
            self._raw_exposed = True
        return result

    def __setitem__(self, index, value):
        self._data[index] = value
        if isinstance(index, tuple) and index:
            self.mark_dirty(index[0])
        else:
            self.mark_dirty(index)

    def __len__(self) -> int:
        return len(self._data)

    def fill(self, value) -> None:
        self._data.fill(value)
        self.mark_dirty()

    def copy_data(self) -> np.ndarray:
        """A snapshot of the contents (used by checkpoint serialization)."""
        return self._data.copy()

    def load_data(self, array: np.ndarray) -> None:
        """Restore contents in place (shape/dtype must match).

        Everything is dirty afterwards: the first checkpoint after a
        restore is a full copy by construction.
        """
        src = np.asarray(array)
        if src.shape != self._data.shape:
            raise ConfigError(
                f"view {self.label!r}: restore shape {src.shape} != {self._data.shape}"
            )
        np.copyto(self._data, src)
        self.mark_dirty()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<View {self.label!r} shape={self.shape} dtype={self.dtype}>"


def deep_copy(dst: "View | np.ndarray", src: "View | np.ndarray | float") -> None:
    """Kokkos deep_copy: copy contents between views/arrays or broadcast a
    scalar into a view."""
    dst_arr = dst._data if isinstance(dst, View) else dst
    if isinstance(src, View):
        np.copyto(dst_arr, src._data)
    elif isinstance(src, np.ndarray):
        np.copyto(dst_arr, src)
    else:
        dst_arr.fill(src)
    if isinstance(dst, View):
        dst.mark_dirty()
