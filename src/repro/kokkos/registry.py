"""Per-runtime view registry with alias and duplicate tracking.

The registry answers the question Kokkos Resilience needs answered at every
checkpoint region: *given the views reachable from this lambda, which must
actually be written?*  Three classes come out of the census, matching
Figure 7 of the paper:

- **checkpointed** -- distinct buffers that must be saved;
- **alias** -- views the user declared to share logical content with
  another view (e.g. the time-step swap buffer in Heatdis/MiniMD), never
  saved;
- **skipped** -- additional view objects over a buffer that is already
  being saved (duplicate captures across nested functions), detected
  automatically by buffer identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.kokkos.view import View
from repro.util.errors import ConfigError

# Global registration-generation counter.  Bumped whenever *any* registry's
# membership or alias set changes; cheap consumers (the KR context's
# memoized view discovery) compare generations instead of re-walking
# closures.  A single process hosts many per-rank registries, so one
# process-wide counter is the conservative, always-correct invalidation
# signal.
_GENERATION = 0


def registry_generation() -> int:
    """Current process-wide registry generation (see module note above)."""
    return _GENERATION


def _bump_generation() -> None:
    global _GENERATION
    _GENERATION += 1


@dataclass
class ViewCensus:
    """Classification of a set of views for one checkpoint region."""

    checkpointed: List[View] = field(default_factory=list)
    aliases: List[View] = field(default_factory=list)
    skipped: List[View] = field(default_factory=list)

    def bytes_by_class(self) -> Dict[str, float]:
        return {
            "checkpointed": sum(v.modeled_nbytes for v in self.checkpointed),
            "alias": sum(v.modeled_nbytes for v in self.aliases),
            "skipped": sum(v.modeled_nbytes for v in self.skipped),
        }

    def fractions_by_class(self) -> Dict[str, float]:
        sizes = self.bytes_by_class()
        total = sum(sizes.values())
        if total <= 0:
            return {k: 0.0 for k in sizes}
        return {k: v / total for k, v in sizes.items()}


class ViewRegistry:
    """All views created under one Kokkos runtime (one rank)."""

    def __init__(self) -> None:
        self._views: List[View] = []
        self._alias_labels: Set[str] = set()

    def register(self, view: View) -> None:
        self._views.append(view)
        _bump_generation()

    def __len__(self) -> int:
        return len(self._views)

    def __iter__(self):
        return iter(self._views)

    def find(self, label: str) -> Optional[View]:
        for view in self._views:
            if view.label == label:
                return view
        return None

    # -- alias management ---------------------------------------------------

    def declare_alias(self, alias_label: str, of_label: str) -> None:
        """Declare that ``alias_label`` holds the same logical content as
        ``of_label`` and must not be checkpointed (the paper: "developers
        can simply list the two view labels as being aliases")."""
        if alias_label == of_label:
            raise ConfigError("a view cannot alias itself")
        self._alias_labels.add(alias_label)
        _bump_generation()

    def is_alias(self, view: View) -> bool:
        return view.label in self._alias_labels

    # -- census ----------------------------------------------------------------

    def census(self, views: Optional[Iterable[View]] = None) -> ViewCensus:
        """Classify ``views`` (default: every registered view) into
        checkpointed / alias / skipped, in discovery order."""
        out = ViewCensus()
        seen_buffers: Set[int] = set()
        for view in views if views is not None else self._views:
            if self.is_alias(view):
                out.aliases.append(view)
                continue
            buf = view.buffer_id()
            if buf in seen_buffers:
                out.skipped.append(view)
                continue
            seen_buffers.add(buf)
            out.checkpointed.append(view)
        return out

    def clear(self) -> None:
        self._views.clear()
        self._alias_labels.clear()
        _bump_generation()
