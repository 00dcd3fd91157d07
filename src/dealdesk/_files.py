"""The one way every loader and writer opens its source or destination,
the one CSV row loop every loader reads through (``csv_rows``, which
checks the header and numbers the rows), the one CSV writer, the one way
a loader names a bad row, and the one way a cell is read as text or as a
date, and a cell or a flag as a number (``parse_number`` and
``parse_integer``, which share one grammar)."""
from __future__ import annotations

import contextlib
import csv
import math
import os
import sys
from typing import Optional

from .errors import ConfigInvalidError, HeaderMismatchError


def open_text(source, mode: str = "r"):
    """A context manager yielding a text stream for ``source``.

    An already open stream (or any iterable of lines) is yielded
    unchanged and left open. A path (``str``, ``bytes`` or path-like) is
    opened as UTF-8 with ``newline=""``, as the csv module expects, so
    nothing is translated; reading skips a leading byte-order mark. A path
    that cannot be used (missing, a directory, no permission) raises
    ``ConfigInvalidError`` naming it, so the CLI exits 2. Bytes read from
    a path that are not UTF-8 raise ``ValueError`` naming the path and the
    byte's offset in the file. Text the csv module refuses (a field over
    its size limit) raises ``ValueError`` from a stream as from a path,
    which it names. Mode ``"w"`` writes a path atomically (see ``_replacing``).
    """
    if not (isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")):
        return _passing(source)
    return _replacing(source) if mode == "w" else _reading(source)


class _RefusedText(csv.Error, ValueError):
    """Text csv refuses in a stream: a ``ValueError`` to the caller, and
    still a ``csv.Error`` to an enclosing ``_reading``, which names its
    path (the regression loader reads its CSV body from lines it read)."""


@contextlib.contextmanager
def _passing(stream):
    try:
        yield stream
    except csv.Error as exc:  # not a ValueError
        raise _RefusedText(*exc.args) from exc


@contextlib.contextmanager
def _reading(source):
    try:
        stream = open(source, newline="", encoding="utf-8-sig")
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


_ROWS_PER_WRITE = 1 << 12


def write_rows(dest, header, columns) -> None:
    """Write the ``header`` row, then the rows of the equal-length ``columns``,
    as CSV with LF endings to a path (atomically) or an open stream: the one
    place a cell turns into text. A ``str`` is written as it is, a number as
    ``str`` gives it (``repr`` for a float) and ``None`` blank; a cell holding
    a comma, a quote, CR or LF is quoted, and a row of one empty cell is
    ``""``, as ``csv.QUOTE_MINIMAL`` writes them. A cell holding NUL raises
    ``ValueError`` before Python 3.11, as csv refuses it there. Each column
    is turned into text once, and each block of rows is written at once."""
    columns = list(columns)
    length = len(columns[0]) if columns else 0
    if any(len(column) != length for column in columns):
        raise ValueError(f"columns of unequal length: {[len(column) for column in columns]}")
    with open_text(dest, "w") as stream:
        stream.write(_csv_text([[cell] for cell in header], 1))
        for start in range(0, length, _ROWS_PER_WRITE):
            block = [column[start:start + _ROWS_PER_WRITE] for column in columns]
            stream.write(_csv_text(block, len(block[0])))


def _csv_text(columns, rows: int) -> str:
    """The CSV text of ``rows`` rows read across ``columns``, each row ending in LF."""
    texts = list(map(_cell_texts, columns))
    text = "\n".join(map(",".join, zip(*texts))) + "\n"
    # no cell needs quotes if the text holds no quote or CR, and only the
    # commas and LFs that the block's shape puts there
    if ('"' in text or "\r" in text or text.count(",") > rows * (len(texts) - 1) or text.count("\n") > rows
            or (len(texts) == 1 and "" in texts[0])):
        texts = [list(map(_quoted, column)) for column in texts]
        if len(texts) == 1:  # csv quotes a lone empty cell, so the row is not blank
            texts[0] = [cell or '""' for cell in texts[0]]
        text = "\n".join(map(",".join, zip(*texts))) + "\n"
    if sys.version_info < (3, 11) and "\x00" in text:
        raise ValueError("cannot write a CSV cell holding NUL before Python 3.11")
    return text


def _cell_texts(cells) -> list:
    texts = list(map(str, cells))
    if "None" in texts:  # None is written blank, the text "None" as it is
        texts = ["" if cell is None else text for cell, text in zip(cells, texts)]
    return texts


def _quoted(text: str) -> str:
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _is_numeral(text: str) -> bool:
    """Whether ``text`` keeps to the one number grammar: ASCII, with no
    underscore. ``float`` and ``int`` also read ``1_000`` and the digits of
    any script (``١٢٣``, ``１２``); the grammar refuses them."""
    return text.isascii() and "_" not in text


def parse_number(text: Optional[str], name: str = "") -> float:
    """``float(text)`` for a finite number in the one number grammar (see
    ``_is_numeral``), else ``ValueError``, with float's message for text it
    refuses.

    ``None``, the cell of a CSV row cut short, is refused as missing. The
    message starts with ``name`` when one is given, so a diagnostic says
    which column or flag it read.
    """
    if text is None:
        reason = "missing"
    elif not _is_numeral(text):
        reason = f"could not convert string to float: {text!r}"
    else:
        try:
            number = float(text)
        except ValueError as exc:
            reason = str(exc)
        else:
            if math.isfinite(number):
                return number
            reason = f"expected a finite number, got {text!r}"
    raise ValueError(f"{name}: {reason}" if name else reason)


def parse_integer(text: str) -> int:
    """``int(text)`` in the one number grammar of ``parse_number``, else
    ``ValueError`` with int's message."""
    if not _is_numeral(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def parse_cell(text: str, convert, name: str):
    """``convert(text)``, such as ``date.fromisoformat`` or ``parse_integer``, with
    any ``ValueError`` prefixed by the column ``name``, as in ``parse_number``."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def text_cell(row, name: str) -> str:
    """The stripped ``name`` cell of a ``read_rows`` row. The missing
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


@contextlib.contextmanager
def csv_rows(source, required, what: str):
    """Yield ``(header, rows)`` for the CSV ``source``, opened by
    ``open_text``: the one CSV row loop. ``header`` is the first row, which
    ``require_columns`` checks for the ``required`` columns, naming the file
    as ``what``; ``rows`` yields ``(number, cells)`` for each later row, the
    header being row 1 and blank lines skipped and not numbered."""
    with open_text(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        require_columns(header, required, what)
        yield header, enumerate(filter(None, reader), start=2)


def row_dict(header, cells) -> dict:
    """``cells`` keyed by ``header``, as the csv module's ``DictReader`` keys a row:
    cells past the header listed under ``None``, missing ones ``None``, and
    a repeated column name holding its last cell."""
    row = dict(zip(header, cells))
    if len(cells) > len(header):
        row[None] = cells[len(header):]
    for name in header[len(cells):]:
        row[name] = None
    return row


def read_rows(source, parse, required, what: str) -> list:
    """``[parse(row_dict(header, cells)) for ...]`` over ``csv_rows``: the
    way a loader reads CSV rows by column name. Any ``ValueError`` from
    ``parse`` is prefixed by "row N: "."""
    with csv_rows(source, required, what) as (header, rows):
        out = []
        for number, cells in rows:
            try:
                out.append(parse(row_dict(header, cells)))
            except ValueError as exc:
                raise ValueError(f"row {number}: {exc}") from exc
        return out
