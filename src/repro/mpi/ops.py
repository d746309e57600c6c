"""Reduction operators for the simulated collectives.

Operators work element-wise on numpy arrays and directly on Python
scalars, matching mpi4py's behaviour for the types our applications use.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np


class ReduceOp:
    """A named, associative binary reduction."""

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]) -> None:
        self.name = name
        self._fn = fn

    def __call__(self, a: Any, b: Any) -> Any:
        return self._fn(a, b)

    def __repr__(self) -> str:
        return f"ReduceOp({self.name})"


SUM = ReduceOp("SUM", np.add)
MIN = ReduceOp("MIN", np.minimum)
