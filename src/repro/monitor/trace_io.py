"""Flight-recorder trace files: JSONL persistence for Trace records.

One JSON object per line.  The first line is a meta header carrying the
ring-buffer drop accounting, so a reader of a truncated
trace knows the bounds of what is missing::

    {"meta": {"version": 1, "dropped": 12, "dropped_window": [0.1, 0.4]}}
    {"seq": 13, "time": 0.41, "source": "fenix", "kind": "repair", ...}

Meta lines are accepted *anywhere* in the stream (last one wins):
:class:`JsonlTraceSink` streams records as they are emitted and only
knows the final drop counts at close, so it appends a trailing meta
line rather than seeking back to rewrite the header.

Tuples inside record fields (e.g. VeloC flush keys) become JSON lists on
the way out; monitors normalize on the way back in, so a replayed trace
checks identically to a live one.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.cli import open_input
from repro.sim.trace import Trace, TraceListener, TraceRecord
from repro.util.errors import ConfigError
from repro.util.schema import stamp, warn_on_mismatch

FORMAT_VERSION = 1


def _json_default(value: Any) -> Any:
    if isinstance(value, (set, frozenset, tuple)):
        return list(value)
    return repr(value)


#: one encoder for every line written (``json.dumps(..., default=...)``
#: builds a new one per call); same output, byte for byte
_encode = json.JSONEncoder(default=_json_default).encode


def trace_meta(trace: Trace) -> Dict[str, Any]:
    """The meta-header payload: schema/version stamp + drop accounting
    (also the meta :mod:`repro.align` reads to excuse accounted gaps)."""
    return stamp({
        "version": FORMAT_VERSION,
        "dropped": trace.dropped,
        "dropped_window": list(trace.dropped_window)
        if trace.dropped_window else None,
    }, FORMAT_VERSION)


def write_trace(path: str, trace: Trace) -> int:
    """Write every held record (plus the drop header); returns the count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_encode({"meta": trace_meta(trace)}) + "\n")
        for rec in trace:
            fh.write(_encode(rec.to_dict()) + "\n")
            n += 1
    return n


def read_trace(path: str) -> Tuple[List[TraceRecord], Dict[str, Any]]:
    """Load a trace file; returns ``(records, meta)``.

    ``meta`` holds at least ``dropped`` (int) and ``dropped_window``
    (``[first, last]`` or None); files written by other tools without a
    header are accepted with zeroed meta.  Meta lines may appear on any
    line (streamed sinks append a trailing one); the last wins.

    A writer that stops mid-record leaves the file's final line cut
    short: every whole line before it is kept and ``meta["torn"]`` counts
    the line (readers report it as they report drops).  A file that
    cannot be opened, an unparseable line with more lines after it (or
    with none before it), or a line that is no trace record, is a
    :class:`~repro.util.errors.ConfigError`.
    """
    records: List[TraceRecord] = []
    meta: Dict[str, Any] = {"dropped": 0, "dropped_window": None}
    whole = 0
    torn: Optional[str] = None
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if torn is not None:  # not the final line after all
                raise ConfigError(torn)
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                torn = f"{path}:{lineno}: not valid JSON ({exc.msg})"
                continue
            whole += 1
            if isinstance(obj, dict) and "meta" in obj:
                meta.update(obj["meta"])
                continue
            try:
                records.append(TraceRecord.from_dict(obj))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"{path}:{lineno}: malformed trace record ({exc})"
                ) from exc
    if torn is not None:
        if not whole:  # nothing before it: not a trace at all
            raise ConfigError(torn)
        meta["torn"] = 1
    warn_on_mismatch(
        f"trace {path}", FORMAT_VERSION,
        found_schema=meta.get("schema", meta.get("version")),
        found_version=meta.get("repro_version"),
    )
    return records, meta


class JsonlTraceSink(TraceListener):
    """Streaming flight recorder: records hit disk *as they are emitted*.

    :func:`write_trace` is post-hoc -- nothing lands until the run ends,
    so a hung or killed run leaves an empty file and ``tail -f`` shows
    nothing.  This sink subscribes to the live trace and writes each
    record the moment it exists, flushing per line so external tailers
    (``repro.live tail``, CI log collectors) see the run unfold.  A meta
    header goes out at attach; a trailing meta line with the *final*
    drop accounting goes out at close (readers take the last meta seen).
    """

    def __init__(self, path: str, trace: Optional[Trace] = None) -> None:
        self.path = path
        self.records_written = 0
        self._fh: Optional[Any] = open(path, "w", encoding="utf-8")
        self._fh.write(_encode(
            {"meta": stamp({"version": FORMAT_VERSION, "streaming": True},
                           FORMAT_VERSION)}) + "\n")
        self._fh.flush()
        if trace is not None:
            self.attach(trace)

    def feed(self, rec: TraceRecord) -> None:
        if self._fh is None:
            return
        self._fh.write(_encode(rec.to_dict()) + "\n")
        self._fh.flush()  # the whole point: no block buffering
        self.records_written += 1

    def close(self) -> None:
        if self._fh is None:
            return
        if self._trace is not None:
            self.detach()
            self._fh.write(_encode({"meta": trace_meta(self._trace)}) + "\n")
            self._trace = None
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

