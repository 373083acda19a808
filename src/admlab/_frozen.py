"""Read-only arrays for the immutable value objects."""

from __future__ import annotations

import numpy as np


def frozen(a: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous copy of ``a``.

    Copying every input keeps the caller's array writable and makes every
    result depend on the entries alone, never on the strides of a view.
    """
    a = np.array(a, order="C")
    a.setflags(write=False)
    return a
