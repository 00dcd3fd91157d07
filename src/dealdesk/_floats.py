"""numpy float arithmetic shared by the modules that use numpy: the one
guard on overflow, and the one least-squares factorization."""
from __future__ import annotations

import contextlib
import functools

import numpy as np

# Rows per block of the tall-skinny QR in least_squares_r. It bounds the QR's
# working memory whatever the row count; at up to 14 columns one block
# (under 1 MB) stays in a core's L2 cache, which made 2^13 rows faster at 1M
# points than 2^16 or more.
_QR_BLOCK_ROWS = 1 << 13


@contextlib.contextmanager
def float_range(step: str):
    """Run a block with numpy's overflow and invalid-value flags raising, so
    values too large for float arithmetic end in one ``ValueError`` naming
    ``step``, not in warnings and non-finite results."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:  # not a ValueError
        raise ValueError(f"{step} overflows the float range: {exc}") from None


def float_checked(step):
    """Run a numeric step inside ``float_range``, named by the step."""
    @functools.wraps(step)
    def checked(*args, **kwargs):
        with float_range(step.__name__):
            return step(*args, **kwargs)
    return checked


def least_squares_r(y: np.ndarray, p: int, fill) -> np.ndarray:
    """Square R of the QR of [A | y], A being len(y) x p, zero below row
    len(y). It is folded over row blocks, so memory stays one block wide
    (a sequential tall-skinny QR).

    ``fill(block, start, stop)`` writes A's rows start..stop-1 into
    ``block``. The fit solves R[:p, :p] c = R[:p, p] and leaves a squared
    residual norm of R[p, p]**2; nothing is pivoted, so |R[j, j]| is
    column j's distance from the columns before it. A non-finite R raises
    ``FloatingPointError``, which ``float_range`` names by its step.
    """
    n = len(y)
    width = p + 1
    r = np.empty((0, width))
    for start in range(0, n, _QR_BLOCK_ROWS):
        stop = min(start + _QR_BLOCK_ROWS, n)
        # R so far on top of the new rows; column-major, as LAPACK takes it,
        # which made each qr about 3x faster than on a row-major block
        a = np.empty((width, len(r) + stop - start)).T
        a[:len(r)] = r
        fill(a[len(r):, :p], start, stop)
        a[len(r):, p] = y[start:stop]
        r = np.linalg.qr(a, mode="r")
    if not np.isfinite(r).all():  # LAPACK raises no float flags
        raise FloatingPointError("least-squares data is not finite, or too large for a QR factor")
    square = np.zeros((width, width))
    square[:len(r)] = r
    return square
