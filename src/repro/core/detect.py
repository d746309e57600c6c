"""Automatic view discovery from checkpoint-region functions.

Kokkos Resilience inspects the checkpoint lambda's captures to find every
View it touches, "deep in nested function calls".  The Python rendering
walks:

- the function's closure cells and default arguments;
- ``functools.partial`` arguments;
- containers (list/tuple/set/dict) to a bounded depth;
- plain objects' attribute dicts (one level -- enough for app state
  structs holding views);
- nested functions found in captures (their closures recursed).

Views are returned in first-discovery order, with *object-level*
de-duplication only; buffer-level de-duplication ("skipped" views) and
alias exclusion are the registry census's job, so the caller can report
Figure-7-style statistics about what discovery actually saw.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, Set

from repro.kokkos.view import View

_MAX_DEPTH = 4


def discover_views(fn: Callable, extra: Any = None) -> List[View]:
    """Find every :class:`View` reachable from ``fn``'s captures.

    ``extra`` is an optional additional root (e.g. an app-state object
    explicitly subscribed to the context).
    """
    found: List[View] = []
    seen_objects: Set[int] = set()
    seen_fns: Set[int] = set()

    def visit(obj: Any, depth: int) -> None:
        if obj is None or depth > _MAX_DEPTH:
            return
        oid = id(obj)
        if isinstance(obj, View):
            if oid not in seen_objects:
                seen_objects.add(oid)
                found.append(obj)
            return
        if callable(obj) and (
            hasattr(obj, "__closure__") or isinstance(obj, functools.partial)
        ):
            visit_callable(obj, depth)
            return
        if isinstance(obj, (list, tuple, set, frozenset)):
            if oid in seen_objects:
                return
            seen_objects.add(oid)
            for item in obj:
                visit(item, depth + 1)
            return
        if isinstance(obj, dict):
            if oid in seen_objects:
                return
            seen_objects.add(oid)
            for value in obj.values():
                visit(value, depth + 1)
            return
        # plain object: walk its attribute dict one level deeper
        attrs = getattr(obj, "__dict__", None)
        if attrs and oid not in seen_objects:
            seen_objects.add(oid)
            for value in attrs.values():
                visit(value, depth + 1)

    def visit_callable(fn_obj: Any, depth: int) -> None:
        fid = id(fn_obj)
        if fid in seen_fns or depth > _MAX_DEPTH:
            return
        seen_fns.add(fid)
        if isinstance(fn_obj, functools.partial):
            for arg in fn_obj.args:
                visit(arg, depth + 1)
            for value in fn_obj.keywords.values():
                visit(value, depth + 1)
            visit_callable(fn_obj.func, depth + 1)
            return
        closure = getattr(fn_obj, "__closure__", None)
        if closure:
            for cell in closure:
                try:
                    visit(cell.cell_contents, depth + 1)
                except ValueError:
                    pass  # empty cell
        defaults = getattr(fn_obj, "__defaults__", None)
        if defaults:
            for value in defaults:
                visit(value, depth + 1)
        # bound methods: inspect the receiver
        receiver = getattr(fn_obj, "__self__", None)
        if receiver is not None:
            visit(receiver, depth + 1)

    visit_callable(fn, 0)
    if extra is not None:
        visit(extra, 1)
    # the two closures call each other (and themselves) through the cells
    # of this frame: emptying the cells lets reference counting free them
    del visit, visit_callable
    return found
