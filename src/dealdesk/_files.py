"""The one way every loader and writer opens its source or destination,
and the one way a CSV loader checks its header."""
from __future__ import annotations

import contextlib
import os

from .errors import ConfigInvalidError, HeaderMismatchError


@contextlib.contextmanager
def open_text(source, mode: str = "r"):
    """Yield an open text stream for ``source``.

    An already open stream is yielded unchanged and left open. A path
    (``str``, ``bytes`` or path-like) is opened as UTF-8 with
    ``newline=""``, as the csv module expects, and closed on exit. A path
    that cannot be opened (missing, a directory, no permission) raises
    ``ConfigInvalidError`` naming it, so the CLI exits 2.
    """
    if not (isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")):
        yield source
        return
    try:
        stream = open(source, mode, newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalidError(f"cannot open {os.fsdecode(source)}: {exc.strerror}") from exc
    with stream:
        yield stream


def require_columns(reader, required, what: str) -> None:
    """Raise ``HeaderMismatchError`` naming each ``required`` column absent
    from the header of ``reader`` (a ``csv.DictReader``), so a loader never
    indexes a row by a column the file does not have."""
    header = reader.fieldnames or ()
    missing = tuple(c for c in required if c not in header)
    if missing:
        raise HeaderMismatchError(f"{what} lacks required columns: {', '.join(missing)}", missing=missing)
