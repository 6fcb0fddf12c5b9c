"""File helpers shared by the loaders and writers: strict JSON and JSONL, atomic
writes, and the reader boundary, the one place where a loader's ``ValueError``
becomes a ``FormatError`` that names the file and line."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

T = TypeVar("T")


class FormatError(ValueError):
    """Malformed input file; carries the path and 1-based line number when known."""

    def __init__(self, message: str, *, path: str | os.PathLike | None = None,
                 line_no: int | None = None):
        self.path = str(path) if path is not None else None
        self.line_no = line_no
        loc = ""
        if self.path is not None:
            loc = self.path if line_no is None else f"{self.path}, line {line_no}"
            loc += ": "
        super().__init__(loc + message)


@contextmanager
def located(path: str | os.PathLike, line_no: int | None = None) -> Iterator[None]:
    """Turn a ``ValueError`` raised in the block into a ``FormatError`` at
    ``path`` and ``line_no``; a ``FormatError`` passes through unchanged.

    Invalid JSON with no ``line_no`` given is placed at the decoder's line.
    An ``OverflowError`` is bad input too: a JSON integer too big for a float."""
    try:
        yield
    except FormatError:
        raise
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON ({exc.msg})", path=path,
                          line_no=exc.lineno if line_no is None else line_no) from exc
    except (ValueError, OverflowError) as exc:
        raise FormatError(str(exc), path=path, line_no=line_no) from exc


def iter_jsonl(path: str | os.PathLike, parse: Callable[[dict], T]) -> Iterator[T]:
    """Yield ``parse(obj)`` for the object on every non-blank line of a JSONL
    file; a ``ValueError`` from the line or from ``parse`` names the line."""
    with open(path, encoding="utf-8") as fh, located(path):
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            with located(path, line_no):
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("expected a JSON object")
                yield parse(obj)


def field(obj: dict, key: str, kind: type | tuple[type, ...], items: type | None = None):
    """Fetch a required field from a decoded JSON object and check its exact
    type, and with ``items`` that of every list element, in one pass. JSON
    values have exact types, so a bool is never taken for an int."""
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    value = obj[key]
    if not (type(value) in (kind if isinstance(kind, tuple) else (kind,))
            and (items is None or set(map(type, value)) <= {items})):
        raise ValueError(f"field {key!r} has the wrong type")
    return value


def fields(objs: Iterable[dict], key: str, kind: type, items: type | None = None) -> list:
    """``field`` of every one of ``objs`` as one column: one type pass over
    all the values, and with ``items`` one more over all their elements."""
    try:
        values = [obj[key] for obj in objs]
    except KeyError:
        raise ValueError(f"missing field {key!r}") from None
    if not (set(map(type, values)) <= {kind}
            and (items is None or set(map(type, chain.from_iterable(values))) <= {items})):
        raise ValueError(f"field {key!r} has the wrong type")
    return values


def to_json(obj, indent: int | None = None) -> str:
    """The one JSON encoder for output files: strict JSON, so a NaN or an
    infinity raises ``ValueError``, with non-ASCII text kept as is."""
    return json.dumps(obj, ensure_ascii=False, allow_nan=False, indent=indent)


@contextmanager
def _atomic_file(path: str | os.PathLike) -> Iterator[TextIO]:
    """A sibling temp file that is renamed into place when the block exits
    cleanly and deleted when it raises."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def atomic_write_lines(path: str | os.PathLike, lines: Iterable[str]) -> None:
    with _atomic_file(path) as fh:
        for line in lines:
            fh.write(line + "\n")


def write_jsonl(path: str | os.PathLike, objs: Iterable) -> None:
    """The one JSONL writer: each object as one ``to_json`` line, written
    atomically."""
    atomic_write_lines(path, (to_json(obj) for obj in objs))


def read_json_object(path: str | os.PathLike, not_object: str) -> dict:
    """Parse a whole file as one JSON object; ``not_object`` is the error
    message when the document is valid JSON of another type."""
    with open(path, encoding="utf-8") as fh, located(path):
        obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(not_object)
    return obj
