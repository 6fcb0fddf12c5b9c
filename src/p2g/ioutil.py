"""File helpers shared by the loaders and writers: strict JSON and JSONL, large
documents encoded a slice at a time, atomic writes, and the reader boundary,
the one place where a loader's ``ValueError`` becomes a ``FormatError`` that
names the file and line."""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager, suppress
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class FormatError(ValueError):
    """Malformed input file, or input files that do not fit each other; the
    message is located: it starts with the path, and the 1-based line number
    when known."""


@contextmanager
def located(path: str | os.PathLike, line_no: int | None = None) -> Iterator[None]:
    """Turn a ``ValueError`` raised in the block into a ``FormatError`` whose
    message starts ``path: `` or, with ``line_no``, ``path, line N: ``; a
    ``FormatError`` passes through unchanged. The one place that writes a
    location.

    Invalid JSON with no ``line_no`` given is placed at the decoder's line.
    An ``OverflowError`` is bad input too: a JSON integer too big for a float;
    so is a ``RecursionError``: JSON nested deeper than the decoder's limit."""
    try:
        yield
    except FormatError:
        raise
    except (ValueError, OverflowError, RecursionError) as exc:
        message = str(exc)
        if isinstance(exc, json.JSONDecodeError):
            message = f"invalid JSON ({exc.msg})"
            line_no = exc.lineno if line_no is None else line_no
        where = path if line_no is None else f"{path}, line {line_no}"
        raise FormatError(f"{where}: {message}") from exc


def _line_constant(name: str) -> float:
    if name != "-Infinity":  # the older spelling of a zero grid cell
        raise ValueError(f"non-standard JSON constant {name}")
    return float(name)


# built once: json.loads and json.dumps with a keyword build a new decoder or
# encoder on every call
_LINE_DECODER = json.JSONDecoder(parse_constant=_line_constant)
_ENCODER = json.JSONEncoder(ensure_ascii=False, allow_nan=False)
# items per encoder call in iter_json: a call costs about 5 us, so one per
# item would cost more than encoding the whole document at once; 64 grid rows
# of 101 cells are about 1 MB of floats and text
_SLICE = 64


def iter_jsonl(path: str | os.PathLike, parse: Callable[[dict], T],
               unique: str | None = None) -> Iterator[T]:
    """Yield ``parse(obj)`` for the object on every non-blank line of a JSONL
    file; a ``ValueError`` from the line or from ``parse`` names the line. With
    ``unique`` (say "grid id"), a line repeating an earlier ``id`` is refused.
    The one JSON dialect of line files: ``NaN`` and ``Infinity`` are refused
    at their line, and the legacy ``-Infinity`` is read as -inf."""
    ids: set[str] = set()
    with open(path, encoding="utf-8") as fh, located(path):
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            with located(path, line_no):
                obj = _LINE_DECODER.decode(line)
                if not isinstance(obj, dict):
                    raise ValueError("expected a JSON object")
                item = parse(obj)
                if unique:
                    if obj["id"] in ids:
                        raise ValueError(f"duplicate {unique} {obj['id']!r}")
                    ids.add(obj["id"])
                yield item


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
    if indent is None:
        return _ENCODER.encode(obj)
    return json.dumps(obj, ensure_ascii=False, allow_nan=False, indent=indent)


def iter_json(head: dict, key: str, items: Iterable) -> Iterator[str]:
    """``to_json({**head, key: list(items)})`` in pieces, with ``key`` not in
    ``head``: the same text, but encoded ``_SLICE`` items per encoder call, so
    neither the item list nor the whole text is held at once. The pieces
    join exactly because ``to_json([a, b])[1:-1]`` is
    ``to_json(a) + ", " + to_json(b)``."""
    yield to_json({**head, key: []})[:-2]  # up to and including the "["
    items, sep = iter(items), ""
    while chunk := list(islice(items, _SLICE)):
        yield sep + to_json(chunk)[1:-1]
        sep = ", "
    yield "]}"


def atomic_write(path: str | os.PathLike, pieces: Iterable[str]) -> None:
    """The one file writer: the text of ``pieces`` in order, written where and
    how ``open(path, "w")`` would write it, but atomically. The target is
    ``path`` with its symlinks resolved; a temp file beside it, named
    ``.p2g-`` and 16 hex digits so that any name ``open`` can create fits,
    created as ``open`` creates a file (0o666 less the umask) or given an
    existing target's mode, replaces it once every piece is written, and is
    deleted if anything raises. A piece is consumed as it is written. An
    ``OSError`` in creating or renaming the temp file names ``path``, as
    ``open`` would; one raised by a piece passes through as it is."""
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".p2g-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise _at(exc, path) from exc
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            with suppress(FileNotFoundError):
                os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            for piece in pieces:  # faster than writelines on many small pieces
                fh.write(piece)
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise _at(exc, path) from exc
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _at(exc: OSError, path: str | os.PathLike) -> OSError:
    """``exc`` of the same class and errno, naming ``path`` alone."""
    return type(exc)(exc.errno, exc.strerror, os.fspath(path))


def write_jsonl(path: str | os.PathLike, objs: Iterable) -> None:
    """The one JSONL writer: each object as one ``to_json`` line, written
    atomically."""
    atomic_write(path, (to_json(obj) + "\n" for obj in objs))


def read_json_object(path: str | os.PathLike, not_object: str) -> dict:
    """Parse a whole file as one JSON object; ``not_object`` is the error
    message when the document is valid JSON of another type."""
    with open(path, encoding="utf-8") as fh, located(path):
        obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError(not_object)
    return obj
