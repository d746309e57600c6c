"""The protocol vocabulary: which layer, which recovery stage, whose record.

The stack speaks to its observers through two streams --
:class:`~repro.sim.trace.TraceRecord` rows and telemetry spans -- and
every observer reads three things off a row: which resiliency layer
emitted it, which step of the recovery protocol (docs/PROTOCOLS.md §1) it
marks, and which world rank it belongs to.  Those readings are declared
here and nowhere else; a data-layer backend declares its kinds by editing
this file and its twin for readers, the table in docs/PROTOCOLS.md §7
(``tests/test_vocabulary.py`` holds the two, and the traces the stack
really emits, to each other).

A leaf, at the top of the package for that reason: it imports nothing
from ``repro`` and no package ``__init__`` runs on the way to it
(``repro.sim``'s imports the engine, the engine imports
``repro.telemetry``, and ``repro.telemetry`` needs this module).  Data
and three small functions, not a registry: nothing registers at run time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

# -- (i) kinds --------------------------------------------------------------

#: the resiliency layers, bottom of the stack first.  Also blame order: a
#: kill and its echoes (the victim's lost region entry, the survivors'
#: detect/gate records) surface at one simulated instant, and the root
#: cause is the lowest layer that moved
LAYERS = ("process", "ulfm", "fenix", "veloc", "kr", "recompute", "app")

#: every record kind the stack emits -> (layer, recovery stage, span
#: twin), row for row the table of docs/PROTOCOLS.md §7.  The *stage* is
#: the step of §1's t0-t5 the kind belongs to; the *span twin* is the
#: telemetry span that ends where the record is emitted, so a walker over
#: spans (``repro.profile``) and one over records stop at the same step.
#: A kind missing here is filed under ``app`` by :func:`layer_of` --
#: right for an application's records, wrong for a backend that forgot
#: to declare itself, which the completeness test fails
KINDS: Dict[str, Tuple[str, Optional[str], Optional[str]]] = {
    # process: rank lifecycle -- what the failure plan injects and
    # mpirun/Fenix observe
    "rank_exit": ("process", None, None),
    "rank_killed": ("process", "failure", None),
    "rank_crashed": ("process", "failure", None),
    "rank_dead": ("process", "failure", None),
    # ULFM: communicator-level fault-tolerance collectives.  ``detect``
    # is emitted by Fenix but charged to ULFM, as the profile critical
    # path charges it; ``agree``/``shrink`` also exist at the Fenix
    # level, where the source decides (see layer_of)
    "comm_create": ("ulfm", None, None),
    "detect": ("ulfm", "detection", None),
    "revoke": ("ulfm", "detection", None),
    "agree": ("ulfm", "roles", None),
    "shrink": ("ulfm", "repair", None),
    # Fenix: the repair gate and what it decides
    "gate_arrive": ("fenix", "rendezvous", None),
    "spare_activated": ("fenix", "repair", None),
    "repair": ("fenix", "repair", None),
    "abort": ("fenix", "repair", None),
    "role": ("fenix", "roles", None),
    "finalize_arrive": ("fenix", None, None),
    # the data layer: VeloC clients and flush servers, IMR buddies (one
    # layer, named for the paper's data backend)
    "checkpoint": ("veloc", "reentry", "veloc.checkpoint"),
    "recover": ("veloc", "restore", "veloc.recover"),
    "flush_submit": ("veloc", None, None),
    "flush_done": ("veloc", None, None),
    "drain_done": ("veloc", None, None),
    "imr_store": ("veloc", "reentry", "imr.store"),
    "imr_buddy_send": ("veloc", None, None),
    "imr_buddy_recv": ("veloc", "restore", None),
    "imr_restore": ("veloc", "restore", "imr.restore"),
    # control flow: Kokkos Resilience checkpoint regions
    "kr_region_begin": ("kr", None, None),
    "kr_region_commit": ("kr", "reentry", "kr.commit"),
    # a span name, never a record: listed so a span stream keyed like a
    # record stream gets the critical path's layer for it
    "recompute": ("recompute", None, None),
}

#: the recovery protocol in order: stage -> every kind that belongs to it
RECOVERY_STAGES: Dict[str, Tuple[str, ...]] = {
    stage: tuple(k for k, (_, s, _) in KINDS.items() if s == stage)
    for stage in ("failure", "detection", "rendezvous", "repair", "roles",
                  "restore", "reentry")
}
SPAN_OF = {kind: span for kind, (_, _, span) in KINDS.items() if span}

#: kinds that mark a failed process (they open a recovery episode)
KILL_KINDS = ("rank_killed", "rank_crashed")
#: kinds that close a repair generation, one way or the other
REPAIR_DONE_KINDS = ("repair", "abort")
#: kinds whose arrival proves data recovery completed on a rank
RECOVERY_DONE_KINDS = ("recover", "imr_restore")
#: kinds proving the first resumed protected step *completed* (restores
#: happen inside that step, so the boundary must be its end)
REENTRY_KINDS = RECOVERY_STAGES["reentry"]
RECOVER_SPANS = tuple(SPAN_OF[kind] for kind in RECOVERY_DONE_KINDS)
REENTRY_SPANS = tuple(SPAN_OF[kind] for kind in REENTRY_KINDS)

#: the spine a recovery is *timed* along: per layer, in protocol order,
#: the kinds whose first arrival after the previous stage ends that
#: layer's share.  Decisions only -- the arrivals and transfers that
#: precede one (``gate_arrive``, ``spare_activated``, ``imr_buddy_recv``)
#: belong to its stage but do not end it
RECOVERY_SPINE: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("ulfm", RECOVERY_STAGES["detection"]),
    ("fenix", REPAIR_DONE_KINDS + ("shrink", "role")),
    ("veloc", RECOVERY_DONE_KINDS),
    ("kr", REENTRY_KINDS),
)

#: kinds two traces of one cell must agree on *in order*: everything up
#: to and including role assignment, plus the data path's restore points
#: and the checkpoints between them
ANCHOR_KINDS = frozenset(
    kind
    for stage in ("failure", "detection", "rendezvous", "repair", "roles")
    for kind in RECOVERY_STAGES[stage]
) | frozenset(RECOVERY_DONE_KINDS) | {"checkpoint"}

#: kinds emitted on every iteration of a protected region whatever the
#: protocol is doing, so they mark no protocol step; every other kind --
#: a kind added tomorrow included -- is protocol-critical, the skeleton
#: two traces of one cell must agree on (:mod:`repro.align`)
PER_ITERATION_KINDS = frozenset({"kr_region_begin"})


def layer_of(rec: Any) -> str:
    """Resiliency layer (one of :data:`LAYERS`) of one record."""
    layer = KINDS.get(rec.kind, ("app",))[0]
    # Fenix re-runs the ULFM steps at its own level (``agree``,
    # ``shrink``) and owns whatever else it emits; only the process
    # lifecycle and ``detect`` keep their layer under its name
    if rec.source == "fenix" and layer != "process" and rec.kind != "detect":
        return "fenix"
    return layer


# -- (ii) the source format ---------------------------------------------------


@lru_cache(maxsize=4096)
def parse_source(source: str) -> Tuple[str, Optional[int]]:
    """``(track, n)`` of a record or span source: ``"rank3"`` -> ``("",
    3)`` (a process track), ``"veloc.rank3"`` -> ``("veloc", 3)`` (a layer
    track), ``"fenix"`` -> ``("fenix", None)`` (anything else, whole).
    Memoised: observers ask per record, a run has a few dozen sources."""
    head, sep, digits = source.rpartition("rank")
    if sep and digits.isdecimal() and (not head or head.endswith(".")):
        return head[:-1], int(digits)
    return source, None


# -- (iii) whose record is this -----------------------------------------------

#: layer tracks whose ``rankN`` names a *slot of the resilient
#: communicator*, not a world rank: the identity a substituted spare
#: adopts so checkpoint keys keep resolving.  ``kr.rankN`` is not among
#: them -- Kokkos Resilience names the process
SLOT_TRACKS = frozenset({"veloc", "imr"})

#: name prefix of Fenix's resilient communicators; the ``members`` of
#: the newest such ``comm_create`` record map slot -> world rank
RESILIENT_COMM = "fenix.resilient."

#: name infix of the worlds the harness launches, one per attempt
#: (``heatdis.attempt2``): after a relaunch the members of a
#: ``comm_create`` under such a name are new, live processes
ATTEMPT_WORLD = ".attempt"


def world_rank(source: str, fields: Mapping[str, Any],
               members: Sequence[int] = ()) -> Optional[int]:
    """The world rank a span or record belongs to (None: a global one).

    In order: the ``wrank`` field a layer-track span carries; else, for a
    slot-named track, the slot's holder in ``members`` (kept by the
    caller from the :data:`RESILIENT_COMM` records it has seen); else the
    ``rankN`` suffix -- already a world rank on process tracks, under
    ``kr.``, and in jobs that never substitute.
    """
    track, n = parse_source(source)
    if n is None or not track:
        return n
    wrank = fields.get("wrank")
    if wrank is not None:
        return int(wrank)
    if track in SLOT_TRACKS and n < len(members):
        return members[n]
    return n
