"""Fenix rank roles (the paper's Figure 2 rank states)."""

from __future__ import annotations

import enum


class Role(enum.Enum):
    """What a rank is, as reported by Fenix initialization.

    - ``INITIAL``: first entry, before any failure -- run communicative
      initialization from scratch.
    - ``SURVIVOR``: re-entered after a failure elsewhere; local data is
      intact, the communicator has been repaired.
    - ``RECOVERED``: a former spare now occupying a failed rank's slot;
      has *no* application data and must restore from a checkpoint.
    - ``SPARE``: held in reserve inside Fenix init (never seen by
      application code).
    """

    INITIAL = "initial"
    SURVIVOR = "survivor"
    RECOVERED = "recovered"
    SPARE = "spare"
