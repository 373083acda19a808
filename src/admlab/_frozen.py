"""Read-only arrays for the immutable value objects."""

from __future__ import annotations

import numpy as np


def frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only without freezing anything the caller can write.

    A view of memory that is read-only already (another object's frozen
    array) is returned as it is, strides included, so every result computed
    from it stays the same; anything else is copied before it is frozen.
    """
    owner = a if a.base is None else a.base
    if a.flags.writeable or not isinstance(owner, np.ndarray) or owner.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a
