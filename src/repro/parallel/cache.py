"""Content-addressed run cache: (config + seed + code version) -> report.

Cache key
---------

A cell's identity is the SHA-256 of:

- the canonical JSON form of its :class:`~repro.parallel.spec.CellSpec`
  (every field that affects the simulation, including all seeds; the
  cosmetic ``label`` is excluded), and
- the *code fingerprint*: a digest over the source bytes of every module
  in the ``repro`` package, so any code change -- an engine fix, a cost
  model tweak -- invalidates the whole cache automatically, and
- a schema version constant, bumped when the stored JSON layout changes.

Entries live as ``results/cache/<key>.json`` by default.  Invalidation
is therefore: touch any ``repro`` source file, pass ``--no-cache``, or
simply delete the directory -- entries are self-contained files.

Entry layout (schema 2)
----------------------

``{"schema": 2, "report": RunReport.to_dict(), "failures": n}`` -- the
report document is the one :class:`~repro.harness.RunReport` derives from
its own fields (everything but the per-rank ``results`` payload, which
holds live objects), so a hit carries the alerts, violations, data-path
volumes, profile and warnings of the run it replaces, and a field added
to the report is cached without an edit here.  Floats round-trip exactly
through JSON (``repr``-based) and dict order is kept, which is what
makes a cache hit byte-identical to the simulation it replaced.  An
entry that cannot be read back -- torn text, or well-formed JSON of
another shape -- is a miss: the cell re-simulates and overwrites it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Optional

from repro.harness.runner import RunReport
from repro.parallel.spec import CellResult, CellSpec, spec_to_dict

#: bump when the on-disk entry layout changes; part of the key, so
#: entries of an older layout are orphaned, never misread
CACHE_SCHEMA = 2

DEFAULT_CACHE_DIR = pathlib.Path("results") / "cache"

_code_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of the ``repro`` package sources (computed once per process)."""
    global _code_fingerprint
    if _code_fingerprint is None:
        import repro

        pkg_root = pathlib.Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(pkg_root.rglob("*.py")):
            digest.update(str(path.relative_to(pkg_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def cache_key(spec: CellSpec) -> str:
    """The content address of one cell."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "code": code_fingerprint(),
            "spec": spec_to_dict(spec),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class RunCache:
    """Directory of completed cell results, keyed by content address."""

    def __init__(self, directory: "pathlib.Path | str" = DEFAULT_CACHE_DIR):
        self.directory = pathlib.Path(directory)
        self.hits = 0
        self.misses = 0
        #: entries that existed but were unreadable/corrupt and were
        #: skipped (the cell re-simulates; the entry is overwritten)
        self.skipped = 0
        #: fresh results persisted by this process
        self.stores = 0

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def get(self, spec: CellSpec) -> Optional[CellResult]:
        """The stored result for ``spec``, or None (a miss)."""
        path = self._path(cache_key(spec))
        if not path.exists():
            self.misses += 1
            return None
        try:
            entry = json.loads(path.read_text())
            result = CellResult(
                spec=spec,
                report=RunReport.from_dict(entry["report"]),
                failures=entry["failures"],
                cached=True,
            )
        except (OSError, KeyError, TypeError, ValueError):
            # unreadable, torn (JSONDecodeError is a ValueError) or of
            # another shape: never a crash, the cell re-simulates
            self.misses += 1
            self.skipped += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: CellSpec, result: CellResult) -> None:
        """Persist one completed cell (atomic rename, so a crashed run
        never leaves a truncated entry behind)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        key = cache_key(spec)
        # no sort_keys: dict order (buckets, telemetry) must survive the
        # round trip so a hit re-serializes byte-identically to the run
        payload = json.dumps(
            {
                "schema": CACHE_SCHEMA,
                "report": result.report.to_dict(),
                "failures": result.failures,
            }
        )
        tmp = self._path(key).with_suffix(".tmp")
        tmp.write_text(payload)
        tmp.replace(self._path(key))
        self.stores += 1

    def summary(self) -> str:
        """One-line provenance summary for CLI epilogues."""
        line = (f"run cache: {self.hits} hit{'s' if self.hits != 1 else ''}, "
                f"{self.misses} miss{'es' if self.misses != 1 else ''} "
                f"({self.stores} stored) under {self.directory}")
        if self.skipped:
            line += f"; {self.skipped} corrupt entr" + (
                "y" if self.skipped == 1 else "ies") + " skipped"
        return line

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.directory.exists():
            for path in self.directory.glob("*.json"):
                path.unlink()
                removed += 1
        return removed
