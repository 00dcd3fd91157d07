"""The one way every loader and writer opens its source or destination,
the one way a CSV loader checks its header, and the one way a cell or a
flag is read as a number."""
from __future__ import annotations

import contextlib
import math
import os
from typing import Optional

from .errors import ConfigInvalidError, HeaderMismatchError


@contextlib.contextmanager
def open_text(source, mode: str = "r"):
    """Yield an open text stream for ``source``.

    An already open stream is yielded unchanged and left open. A path
    (``str``, ``bytes`` or path-like) is opened as UTF-8 with
    ``newline=""``, as the csv module expects, and closed on exit. A path
    that cannot be opened (missing, a directory, no permission) raises
    ``ConfigInvalidError`` naming it, so the CLI exits 2. Bytes read from
    a path that are not UTF-8 raise ``ValueError`` naming the path and
    the byte's offset in the file.
    """
    if not (isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")):
        yield source
        return
    try:
        stream = open(source, mode, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalidError(f"cannot open {os.fsdecode(source)}: {exc.strerror}") from exc
    with stream:
        try:
            yield stream
        except UnicodeDecodeError as exc:
            # exc.start counts from the start of the bytes the decoder was
            # handed, which end where the binary buffer now stands
            offset = stream.buffer.tell() - len(exc.object) + exc.start
            raise ValueError(f"{os.fsdecode(source)}: not UTF-8 text at byte {offset}: {exc.reason}") from exc


def parse_number(text: Optional[str], name: str = "", thousands: bool = False) -> float:
    """``float(text)`` for a finite number, else ``ValueError``.

    ``None``, the cell of a CSV row cut short, is refused as missing.
    With ``thousands``, commas and outer blanks are dropped first, as
    deal-list exports write "11,850.0". The message starts with ``name``
    when one is given, so a diagnostic says which column or flag it read.
    """
    if text is None:
        reason = "missing"
    else:
        try:
            number = float(text.replace(",", "").strip() if thousands else text)
        except ValueError as exc:
            reason = str(exc)
        else:
            if math.isfinite(number):
                return number
            reason = f"expected a finite number, got {text!r}"
    raise ValueError(f"{name}: {reason}" if name else reason)


def require_columns(header, required, what: str) -> None:
    """Raise ``HeaderMismatchError`` naming each ``required`` column absent
    from ``header`` (the first CSV row, or ``None`` for an empty file), so
    a loader never indexes a row by a column the file does not have."""
    header = header or ()
    missing = tuple(c for c in required if c not in header)
    if missing:
        raise HeaderMismatchError(f"{what} lacks required columns: {', '.join(missing)}", missing=missing)
