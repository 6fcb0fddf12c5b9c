"""File helpers shared by the loaders and writers: JSON and line-delimited
JSON, and atomic writes."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO


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


def iter_jsonl(path: str | os.PathLike) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, object) for every non-blank line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON ({exc.msg})", path=path,
                                  line_no=line_no) from exc
            if not isinstance(obj, dict):
                raise FormatError("expected a JSON object", path=path, line_no=line_no)
            yield line_no, obj


def field(obj: dict, key: str, kind: type | tuple[type, ...], *,
          path: str | os.PathLike, line_no: int):
    """Fetch a required, type-checked field from a decoded JSONL object."""
    if key not in obj:
        raise FormatError(f"missing field {key!r}", path=path, line_no=line_no)
    value = obj[key]
    if isinstance(value, bool) and bool not in (kind if isinstance(kind, tuple) else (kind,)):
        raise FormatError(f"field {key!r} has the wrong type", path=path, line_no=line_no)
    if not isinstance(value, kind):
        raise FormatError(f"field {key!r} has the wrong type", path=path, line_no=line_no)
    return value


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
    """The one JSONL writer: each object as one line of ``json.dumps`` with
    ``ensure_ascii=False``, written atomically."""
    atomic_write_lines(path, (json.dumps(obj, ensure_ascii=False) for obj in objs))


def read_json_object(path: str | os.PathLike, not_object: str) -> dict:
    """Parse a whole file as one JSON object; ``not_object`` is the error
    message when the document is valid JSON of another type."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON ({exc.msg})", path=path,
                              line_no=exc.lineno) from exc
    if not isinstance(obj, dict):
        raise FormatError(not_object, path=path)
    return obj
