"""Folded-stack flame-graph export of the span stream.

Emits Brendan Gregg's folded format -- one ``frame;frame;frame value``
line per unique stack, value in integer **microseconds of simulated
self-time** -- which both ``flamegraph.pl`` and https://speedscope.app
import directly.  Each rank is a root frame; spans nest below their
tracer parents, so a survivor's flame shows e.g.
``rank2;recompute;compute`` next to ``rank2;veloc.recover``.

Layer tracks (``veloc.rank3``, ``imr.rank3``) are folded into the
owning *world* rank's root frame using the spans' ``wrank`` field, so a
replacement spare's recovery work lands under its own rank even though
it adopts the dead rank's checkpoint identity.
"""

from __future__ import annotations

import io
from typing import Any, Dict, List, Optional, TextIO, Union

from repro.vocabulary import world_rank


def _root_frame(source: str, fields: Dict[str, Any]) -> str:
    """Track name for a span: ``rank<N>`` of the world rank it belongs
    to, the source itself for a global one (``fenix``, ``job``)."""
    rank = world_rank(source, fields)
    return source if rank is None else f"rank{rank}"


def folded_stacks(telemetry: Any) -> Dict[str, int]:
    """``{stack: microseconds}`` of self-time for every unique stack.

    Self-time is a span's duration minus its direct children's; values
    are rounded to integer microseconds (the folded format is integral)
    and zero-self-time stacks are dropped.
    """
    tracer = telemetry.tracer
    spans = tracer.spans
    end_of_time = max(
        (r.end for r in tracer.all_records() if r.end is not None),
        default=0.0,
    )

    def clamped_end(rec: Any) -> float:
        return rec.end if rec.end is not None else end_of_time

    by_sid = {s.sid: s for s in spans}
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None and s.parent in by_sid:
            child_time[s.parent] = (child_time.get(s.parent, 0.0)
                                    + (clamped_end(s) - s.start))

    def stack_of(rec: Any) -> str:
        frames: List[str] = []
        cur: Optional[Any] = rec
        while cur is not None:
            frames.append(cur.name)
            cur = by_sid.get(cur.parent) if cur.parent is not None else None
        frames.append(_root_frame(rec.source, rec.fields))
        return ";".join(reversed(frames))

    out: Dict[str, int] = {}
    for s in spans:
        self_time = (clamped_end(s) - s.start) - child_time.get(s.sid, 0.0)
        usec = round(max(0.0, self_time) * 1e6)
        if usec <= 0:
            continue
        stack = stack_of(s)
        out[stack] = out.get(stack, 0) + usec
    return out


def format_folded(stacks: Dict[str, int]) -> str:
    """The folded file body, stacks sorted for stable diffs."""
    return "".join(f"{stack} {value}\n"
                   for stack, value in sorted(stacks.items()))


def write_folded(dest: Union[str, TextIO], telemetry: Any) -> int:
    """Write the folded stacks to ``dest`` (path or file object).

    Returns the number of stack lines written.
    """
    stacks = folded_stacks(telemetry)
    body = format_folded(stacks)
    if isinstance(dest, (str, bytes)):
        with io.open(dest, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        dest.write(body)
    return len(stacks)
