"""Exporters: Chrome trace-event JSON (Perfetto / chrome://tracing),
metrics JSON, and a validator for the trace-event subset we emit.

Track layout: pid 0 holds one tid per source, rank tracks first in
numeric order (``rank0``, ``rank1``, ...), then protocol tracks
(``fenix``, ``mpi``, ``engine``, ``job``), then per-node VeloC server
tracks.  Layer sources (``veloc.rank3`` spans and legacy
:class:`~repro.sim.trace.Trace` records) are folded onto the track of
the *world rank they belong to* (:func:`repro.vocabulary.world_rank`)
so one row tells a process's whole story across all three resilience
layers -- a substituted spare's restore sits on the spare's row, not on
the row of the rank whose slot it adopted.

Times are simulated seconds; the trace-event ``ts``/``dur`` fields are
microseconds, matching what Perfetto expects.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.vocabulary import parse_source, world_rank

#: event phases this exporter emits (the subset the validator accepts)
PHASES = {"X", "i", "M"}


def track_for_source(source: str,
                     fields: Optional[Mapping[str, Any]] = None,
                     members: Sequence[int] = ()) -> str:
    """Fold per-layer rank sources (``veloc.rank3``, ``imr.rank3``) onto
    the track of the process they belong to (``rank3``, or the slot's
    holder when ``fields``/``members`` say who that is)."""
    rank = world_rank(source, fields or {}, members)
    return source if rank is None else f"rank{rank}"


def _track_sort_key(track: str) -> Tuple[int, int, str]:
    layer, n = parse_source(track)
    if n is not None and not layer:
        return (0, n, track)
    order = {"fenix": 1, "mpi": 2, "engine": 3, "job": 4}
    if track in order:
        return (order[track], 0, track)
    return (5, 0, track)


def _json_safe(value: Any) -> Any:
    """Coerce span/trace fields to JSON-serializable shapes."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def chrome_trace_events(telemetry: Any, trace: Any = None) -> List[Dict]:
    """Flatten telemetry spans/instants (plus optional legacy
    :class:`~repro.sim.trace.Trace` records) into trace-event dicts."""
    tracer = telemetry.tracer
    end_of_time = 0.0
    raw: List[Tuple[float, str, Dict]] = []  # (time, track, event)

    for rec in tracer.spans:
        end = rec.end if rec.end is not None else rec.start
        end_of_time = max(end_of_time, end)
    for rec in tracer.instants:
        end_of_time = max(end_of_time, rec.start)
    if trace is not None:
        for tr in trace:
            end_of_time = max(end_of_time, tr.time)

    for rec in tracer.spans:
        track = track_for_source(rec.source, rec.fields)
        end = rec.end if rec.end is not None else end_of_time
        args = dict(_json_safe(rec.fields))
        if rec.error:
            args["error"] = rec.error
        if rec.end is None:
            args["unterminated"] = True
        raw.append((
            rec.start,
            track,
            {
                "name": rec.name,
                "cat": rec.name.split(".", 1)[0],
                "ph": "X",
                "ts": rec.start * 1e6,
                "dur": max(0.0, (end - rec.start)) * 1e6,
                "args": args,
            },
        ))
    for rec in tracer.instants:
        raw.append((
            rec.start,
            track_for_source(rec.source, rec.fields),
            {
                "name": rec.name,
                "cat": rec.name.split(".", 1)[0],
                "ph": "i",
                "s": "t",
                "ts": rec.start * 1e6,
                "args": dict(_json_safe(rec.fields)),
            },
        ))
    if trace is not None:
        # (imported here: the simulator this module serves imports it)
        from repro.monitor.state import ProtocolStateTracker

        state = ProtocolStateTracker()  # its slot map, as of ``tr``
        for tr in trace:
            state.feed(tr)
            raw.append((
                tr.time,
                track_for_source(tr.source, tr.fields, state.slots),
                {
                    "name": tr.kind,
                    "cat": "trace",
                    "ph": "i",
                    "s": "t",
                    "ts": tr.time * 1e6,
                    "args": dict(_json_safe(tr.fields)),
                },
            ))
        dropped = getattr(trace, "dropped", 0)
        if dropped:
            # ring-buffer honesty: a truncated trace must say so in the
            # export instead of silently presenting a complete-looking view
            window = getattr(trace, "dropped_window", None) or (0.0, 0.0)
            raw.append((
                window[1],
                "trace",
                {
                    "name": "trace_dropped",
                    "cat": "trace",
                    "ph": "i",
                    "s": "g",  # global scope: the whole view is affected
                    "ts": window[1] * 1e6,
                    "args": {
                        "dropped": dropped,
                        "window": [window[0], window[1]],
                        "note": "ring buffer evicted records in this "
                                "window; earlier events are incomplete",
                    },
                },
            ))

    tracks = sorted({track for _, track, _ in raw}, key=_track_sort_key)
    tids = {track: i for i, track in enumerate(tracks)}
    events: List[Dict] = []
    for track in tracks:
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": tids[track],
            "args": {"name": track},
        })
        events.append({
            "name": "thread_sort_index", "ph": "M", "pid": 0,
            "tid": tids[track], "args": {"sort_index": tids[track]},
        })
    for _time, track, ev in sorted(raw, key=lambda r: (r[0], r[1])):
        ev["pid"] = 0
        ev["tid"] = tids[track]
        events.append(ev)
    return events


def to_chrome_trace(telemetry: Any, trace: Any = None,
                    run_info: Optional[Dict] = None) -> Dict:
    """The full document: ``{"traceEvents": [...], ...}``."""
    doc: Dict[str, Any] = {
        "traceEvents": chrome_trace_events(telemetry, trace=trace),
        "displayTimeUnit": "ms",
    }
    if run_info:
        doc["otherData"] = _json_safe(run_info)
    return doc


def write_chrome_trace(path: str, telemetry: Any, trace: Any = None,
                       run_info: Optional[Dict] = None) -> Dict:
    doc = to_chrome_trace(telemetry, trace=trace, run_info=run_info)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return doc


def validate_chrome_trace(doc: Any) -> List[str]:
    """Check a document against the trace-event subset we emit.

    Returns a list of problems (empty = valid).  Intentionally a
    hand-rolled validator: the environment has no jsonschema package,
    and the checks double as documentation of the format.
    """
    errors: List[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing name")
        if not isinstance(ev.get("pid"), int):
            errors.append(f"{where}: missing integer pid")
        if not isinstance(ev.get("tid"), int):
            errors.append(f"{where}: missing integer tid")
        if ph == "M":
            if not isinstance(ev.get("args"), dict):
                errors.append(f"{where}: metadata event needs args")
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event needs dur >= 0")
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            errors.append(f"{where}: instant event needs scope s")
    return errors


# -- metrics ------------------------------------------------------------


def metrics_to_dict(telemetry: Any, run_info: Optional[Dict] = None) -> Dict:
    doc = telemetry.metrics_summary()
    if run_info:
        doc["run"] = _json_safe(run_info)
    return doc


def write_metrics(path: str, telemetry: Any,
                  run_info: Optional[Dict] = None) -> Dict:
    doc = metrics_to_dict(telemetry, run_info=run_info)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return doc
