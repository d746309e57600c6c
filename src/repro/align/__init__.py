"""Differential trace observability: cross-run alignment and
determinism auditing (the sixth observability layer).

Every cell of this reproduction is bit-deterministic by construction:
the same (cluster seed, failure-plan seed) must replay the same recovery
protocol, record for record.  The aggregate tooling (``telemetry diff``,
``profile diff``, ``report diff``) compares *numbers* with tolerances; a
structural regression -- a gate arriving before the revoke, a checkpoint
version restored from the wrong epoch -- shows up there only as "the
totals moved".  :mod:`repro.align` compares *structure*:

- :mod:`repro.align.keying` names every protocol-relevant record by a
  canonical logical key ``(wrank, kind, epoch, occurrence)`` that is
  independent of simulated timestamps;
- :mod:`repro.align.engine` merges two keyed streams and classifies
  every record as matched / reordered / value-drifted / missing /
  extra, excusing gaps a ring buffer accounted for;
- the first-divergence root-causer attributes the earliest divergent
  event to a layer (process/ulfm/fenix/kr/veloc/recompute/app), renders
  its causal record briefs, and reports the downstream deltas on the
  recovery path;
- ``python -m repro.align`` exposes ``diff`` / ``check --replay`` /
  ``record`` / ``bisect``;
- the harness integrates it as ``determinism_audit=`` on the
  ``run_*_job`` entry points (run, replay, align, attach
  ``RunReport.divergences``).
"""

from repro.align.engine import (
    Alignment,
    Divergence,
    align,
    audit_traces,
    first_divergence_report,
)
from repro.align.keying import (
    VOLATILE_FIELDS,
    KeyedRecord,
    canonical_fields,
    key_records,
    protocol_critical,
    record_epoch,
    record_wrank,
)

#: JSON schema version of ``repro.align`` divergence reports
ALIGN_SCHEMA = 1

__all__ = [
    "ALIGN_SCHEMA",
    "Alignment",
    "Divergence",
    "KeyedRecord",
    "VOLATILE_FIELDS",
    "align",
    "audit_traces",
    "canonical_fields",
    "first_divergence_report",
    "key_records",
    "protocol_critical",
    "record_epoch",
    "record_wrank",
]
