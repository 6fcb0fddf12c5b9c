"""Checks on every artifact the pipeline writes.

Each checker takes a path and returns ``(records, problems)``: the number of
output records it looked at (one per JSONL line or training line, one per
expected id that is missing, one for a whole-file JSON artifact) and one
message per record that failed. Every file
is parsed as strict JSON: ``NaN`` and ``±Infinity`` are rejected.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import Callable

from p2g.data import parse_training_line, serialize_training_line

Checker = Callable[[Path], tuple[int, list[str]]]


def _reject_constant(name: str):
    raise ValueError(f"non-finite constant {name}")


def strict_loads(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _lines(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _jsonl(path: Path, check_row: Callable[[dict], str | None],
           ids: tuple[str, ...] | None) -> tuple[int, list[str]]:
    """Parse each line strictly, apply ``check_row``, and when ``ids`` is
    given require every one of them exactly once."""
    problems: list[str] = []
    seen: set[str] = set()
    lines = _lines(path)
    for line_no, line in enumerate(lines, start=1):
        where = f"{path.name}:{line_no}"
        try:
            row = strict_loads(line)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        if not isinstance(row, dict) or not isinstance(row.get("id"), str):
            problems.append(f"{where}: not an object with a string id")
            continue
        problem = check_row(row)
        if problem is None and ids is not None:
            if row["id"] in seen:
                problem = f"duplicate id {row['id']!r}"
            elif row["id"] not in ids:
                problem = f"unknown id {row['id']!r}"
        seen.add(row["id"])
        if problem is not None:
            problems.append(f"{where}: {problem}")
    missing = [i for i in ids if i not in seen] if ids is not None else []
    problems.extend(f"{path.name}: missing id {i!r}" for i in missing)
    return len(lines) + len(missing), problems


def _descending(values: list) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def beam(ids: tuple[str, ...], k: int) -> Checker:
    """``beam`` output: 1..k hypotheses, finite log scores <= 0, best first."""
    def row(obj: dict) -> str | None:
        hyps = obj.get("hyps")
        if not isinstance(hyps, list) or not 1 <= len(hyps) <= k:
            return f"expected 1..{k} hypotheses"
        scores = [h.get("logp") if isinstance(h, dict) else None for h in hyps]
        if not all(_finite(s) and s <= 0 for s in scores):
            return "hypothesis logp not finite and <= 0"
        if not _descending(scores):
            return "hypotheses not sorted by descending logp"
        if not all(isinstance(h.get("phonemes"), list) for h in hyps):
            return "hypothesis without a phoneme list"
        return None
    return lambda path: _jsonl(path, row, ids)


def decoded(ids: tuple[str, ...]) -> Checker:
    """``decode`` output: the winner equals pool[0], pool sorted by logp."""
    def row(obj: dict) -> str | None:
        pool = obj.get("pool")
        if not isinstance(pool, list) or not pool or not all(isinstance(p, dict) for p in pool):
            return "empty or malformed pool"
        scores = [p.get("logp") for p in pool]
        if not all(_finite(s) for s in scores):
            return "pool logp not finite"
        if not _descending(scores):
            return "pool not sorted by descending logp"
        if (obj.get("text"), obj.get("lid")) != (pool[0].get("text"), pool[0].get("lid")):
            return "text/lid differ from pool[0]"
        return None
    return lambda path: _jsonl(path, row, ids)


def scores(ids: tuple[str, ...], method: str, k: int) -> Checker:
    """``score`` output: one finite log_marginal <= 0 per reference."""
    def row(obj: dict) -> str | None:
        if obj.get("method") != method or obj.get("k") != k:
            return "wrong method or k"
        value = obj.get("log_marginal")
        if not (_finite(value) and value <= 0):
            return f"log_marginal {value!r} not finite and <= 0"
        return None
    return lambda path: _jsonl(path, row, ids)


def balanced(ids: tuple[str, ...]) -> Checker:
    """``balance`` output: each original once, copies only of known ids."""
    def check(path: Path) -> tuple[int, list[str]]:
        originals: list[str] = []

        def row(obj: dict) -> str | None:
            if obj["id"] not in ids:
                return f"unknown id {obj['id']!r}"
            if not obj.get("repeat"):
                originals.append(obj["id"])
            return None
        records, problems = _jsonl(path, row, None)
        counts = Counter(originals)
        problems.extend(f"{path.name}: id {i!r} appears {counts[i]} times as an original"
                        for i in ids if counts[i] != 1)
        return records + sum(1 for i in ids if counts[i] == 0), problems
    return check


def training_lines(path: Path) -> tuple[int, list[str]]:
    """Every training line round-trips through the line parser."""
    problems: list[str] = []
    lines = _lines(path)
    for line_no, line in enumerate(lines, start=1):
        try:
            again = serialize_training_line(*parse_training_line(line))
        except ValueError as exc:
            problems.append(f"{path.name}:{line_no}: {exc}")
            continue
        if again != line:
            problems.append(f"{path.name}:{line_no}: does not round-trip")
    if not lines:
        problems.append(f"{path.name}: no training lines")
    return max(1, len(lines)), problems


def json_object(required: tuple[str, ...]) -> Checker:
    """A whole-file strict JSON object that has the given keys."""
    def check(path: Path) -> tuple[int, list[str]]:
        try:
            obj = strict_loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            return 1, [f"{path.name}: {exc}"]
        if not isinstance(obj, dict) or any(key not in obj for key in required):
            return 1, [f"{path.name}: missing one of {required}"]
        return 1, []
    return check


scorer = json_object(("format", "version", "counts"))
report = json_object(("macro_avg", "hours_weighted_avg", "languages"))
