"""Payload size estimation and send-time snapshots."""

from __future__ import annotations

import copy
from typing import Any

import numpy as np


def payload_nbytes(payload: Any) -> float:
    """Estimate the wire size of a payload.

    numpy arrays report exactly; common containers recurse; everything else
    gets a small flat estimate.  Applications that model larger-than-actual
    problem sizes pass explicit ``modeled_nbytes`` instead.
    """
    if payload is None:
        return 0.0
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return float(len(payload))
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return 8.0
    if isinstance(payload, str):
        return float(len(payload.encode("utf-8")))
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 16.0 + sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return 16.0 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        )
    return 64.0


def freeze_payload(payload: Any) -> Any:
    """Snapshot a payload at send time (MPI value semantics).

    numpy arrays are copied; containers are deep-copied; immutable scalars
    pass through.
    """
    if payload is None or isinstance(payload, (bool, int, float, complex, str, bytes)):
        return payload
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return copy.deepcopy(payload)
