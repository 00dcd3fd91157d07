"""The one way every loader and writer opens its source or destination,
the one way CSV rows are written, the one way a CSV loader checks its
header and names a bad row, and the one way a cell is read as text and
a cell or a flag as a number."""
from __future__ import annotations

import contextlib
import csv
import math
import os
import types
from typing import Optional

from .errors import ConfigInvalidError, HeaderMismatchError


def open_text(source, mode: str = "r"):
    """A context manager yielding a text stream for ``source``.

    An already open stream is yielded unchanged and left open. A path
    (``str``, ``bytes`` or path-like) is opened as UTF-8 with
    ``newline=""``, as the csv module expects, so nothing is translated.
    A path that cannot be used (missing, a directory, no permission)
    raises ``ConfigInvalidError`` naming it, so the CLI exits 2. Bytes
    read from a path that are not UTF-8 raise ``ValueError`` naming the
    path and the byte's offset in the file, and so does text the csv
    module refuses (a field over its size limit). Mode ``"w"`` writes a
    path atomically (see ``_replacing``).
    """
    if not (isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")):
        return contextlib.nullcontext(source)
    return _replacing(source) if mode == "w" else _reading(source)


@contextlib.contextmanager
def _reading(source):
    try:
        stream = open(source, newline="", encoding="utf-8")
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
        except csv.Error as exc:  # not a ValueError
            raise ValueError(f"{os.fsdecode(source)}: {exc}") from exc


@contextlib.contextmanager
def _replacing(dest):
    """Write a temp file created exclusively beside ``dest``, renamed over
    it on a clean exit and deleted on any exception, so ``dest`` is never
    torn. ``open()`` makes it, so it gets the mode the umask gives."""
    name = os.fsdecode(dest)
    tmp = os.path.join(os.path.dirname(os.path.abspath(name)), f".tmp-{os.urandom(8).hex()}")
    try:
        stream = open(tmp, "x", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigInvalidError(f"cannot open {name}: {exc.strerror}") from exc
    try:
        with stream:
            yield stream
        os.replace(tmp, name)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # a full disk, or a directory at the rename
            raise ConfigInvalidError(f"cannot write {name}: {exc.strerror}") from exc
        raise


def write_rows(dest, rows) -> None:
    """Write CSV ``rows`` with LF endings, streamed to a path (atomically) or
    an open stream: the one place a cell turns into text. A ``str`` is written
    as it is, a number as csv writes it (``repr`` for a float) and ``None``
    blank; a cell holding a comma, a quote, CR or LF is quoted. A cell csv
    cannot write (NUL, before 3.11) raises ``ValueError``."""
    with open_text(dest, "w") as stream:
        # csv before 3.13 quotes a CR cell only with CR in its row ending: write CRLF, end rows LF
        lf_rows = types.SimpleNamespace(write=lambda row: stream.write(row[:-2] + "\n"))
        try:
            csv.writer(lf_rows, lineterminator="\r\n").writerows(rows)
        except csv.Error as exc:  # not a ValueError
            raise ValueError(f"cannot write a CSV row: {exc}") from exc


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


def text_cell(row, name: str) -> str:
    """The stripped ``name`` cell of a ``csv.DictReader`` row. The missing
    cell of a row cut short raises ``ValueError``, as in ``parse_number``."""
    text = row[name]
    if text is None:
        raise ValueError(f"{name}: missing")
    return text.strip()


def require_columns(header, required, what: str) -> None:
    """Raise ``HeaderMismatchError`` naming each ``required`` column absent
    from ``header`` (the first CSV row, or ``None`` for an empty file), so
    a loader never indexes a row by a column the file does not have."""
    header = header or ()
    missing = tuple(c for c in required if c not in header)
    if missing:
        raise HeaderMismatchError(f"{what} lacks required columns: {', '.join(missing)}", missing=missing)


def parse_rows(rows, parse) -> list:
    """``[parse(row) for row in rows]`` over a CSV reader's data rows, with
    any ``ValueError`` prefixed by "row N: ". Rows are numbered as
    ``deals.parse_deals`` numbers them: the header is row 1 and the blank
    lines a reader skips are not counted."""
    out = []
    for number, row in enumerate(rows, start=2):
        try:
            out.append(parse(row))
        except ValueError as exc:
            raise ValueError(f"row {number}: {exc}") from exc
    return out
