"""The one guard on numpy float arithmetic, shared by the modules that use numpy."""
from __future__ import annotations

import functools

import numpy as np


def float_checked(step):
    """Run a numeric step with numpy's overflow and invalid-value flags
    raising, so values too large for float arithmetic end in one
    ``ValueError`` naming the step, not in warnings and non-finite results."""
    @functools.wraps(step)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", invalid="raise"):
                return step(*args, **kwargs)
        except FloatingPointError as exc:  # not a ValueError
            raise ValueError(f"{step.__name__} overflows the float range: {exc}") from None
    return checked
