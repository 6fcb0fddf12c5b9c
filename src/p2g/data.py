"""Corpus plumbing: manifests, training-line serialization, noisy-phoneme
augmentation, and duration-balanced oversampling.

Phoneme tokens live as symbol strings here; index sequences only exist inside
the CTC layer and are converted at the boundary through a grid's alphabet.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .ctc import Alphabet, ScoredHypothesis
from .ioutil import atomic_write_lines, field, iter_jsonl, located, write_jsonl
from .scorer import TargetText, lid_token

IPA_TAG = "<ipa>"


@dataclass(frozen=True)
class UtteranceRecord:
    """One manifest row. ``repeat`` marks copies appended by oversampling;
    the remaining fields of a copy are identical to its source record."""

    utterance_id: str
    lang: str
    dur_sec: float
    phonemes: tuple[str, ...]
    text: TargetText
    repeat: bool = False

    def __post_init__(self) -> None:
        if not self.utterance_id:
            raise ValueError("utterance id must be non-empty")
        if not math.isfinite(self.dur_sec) or self.dur_sec <= 0:
            raise ValueError("dur_sec must be a positive duration")
        if self.lang != self.text.lid:
            raise ValueError(f"record language {self.lang!r} does not match "
                             f"text lid {self.text.lid!r}")
        object.__setattr__(self, "phonemes", tuple(self.phonemes))


@dataclass(frozen=True)
class CorpusManifest:
    records: tuple[UtteranceRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))

    def by_language(self) -> dict[str, list[UtteranceRecord]]:
        groups: dict[str, list[UtteranceRecord]] = defaultdict(list)
        for rec in self.records:
            groups[rec.lang].append(rec)
        return dict(groups)


def serialize_training_line(phonemes: Sequence[str], text: TargetText) -> str:
    """Render one training sample as ``<ipa> p1 p2 ... | <lid:xx> graphemes``.

    Phoneme tokens may not be empty or contain whitespace or '|'; graphemes
    may not contain line breaks. Everything else round-trips verbatim.
    """
    for tok in phonemes:
        if not tok:
            raise ValueError("phoneme tokens must be non-empty")
        if "|" in tok or any(ch.isspace() for ch in tok):
            raise ValueError(f"phoneme token {tok!r} contains '|' or whitespace")
    if "\n" in text.graphemes or "\r" in text.graphemes:
        raise ValueError("graphemes must not contain line breaks")
    return f"{IPA_TAG} {' '.join(phonemes)} | {lid_token(text.lid)} {text.graphemes}"


def parse_training_line(line: str) -> tuple[tuple[str, ...], TargetText]:
    """Exact inverse of serialize_training_line on its valid output domain."""
    prefix = IPA_TAG + " "
    if not line.startswith(prefix):
        raise ValueError(f"line does not start with {prefix!r}")
    body = line[len(prefix):]
    # phoneme tokens never contain '|', so the first separator is the real one
    sep = body.find(" | ")
    if sep < 0:
        raise ValueError("missing ' | ' separator")
    phoneme_part, rest = body[:sep], body[sep + 3:]
    if phoneme_part:
        tokens = tuple(phoneme_part.split(" "))
        for tok in tokens:
            if not tok:
                raise ValueError("empty phoneme token")
    else:
        tokens = ()
    if not rest.startswith("<lid:"):
        raise ValueError("missing <lid:..> tag")
    close = rest.find("> ")
    if close < 0:
        raise ValueError("unterminated <lid:..> tag")
    code = rest[len("<lid:"):close]
    graphemes = rest[close + 2:]
    return tokens, TargetText(lid=code, graphemes=graphemes)


def generate_danp(record: UtteranceRecord, hyps: Sequence[ScoredHypothesis],
                  alphabet: Alphabet,
                  include_clean: bool = False) -> list[tuple[tuple[str, ...], TargetText]]:
    """Noisy training pairs: the utterance's n-best phoneme hypotheses, in
    beam-rank order, each paired with the record's own clean text.

    The n-best depends only on the grid, so oversampled copies of a record
    can share one ``prefix_beam_search`` result. ``include_clean`` appends
    the record's reference phonemes as one extra pair.
    """
    pairs = [(alphabet.to_symbols(h.sequence), record.text) for h in hyps]
    if include_clean:
        pairs.append((record.phonemes, record.text))
    return pairs


def oversample_manifest(manifest: CorpusManifest, target_hours: float,
                        rng: np.random.Generator) -> CorpusManifest:
    """Bring every language up to max(actual, target) hours.

    Languages already at or above the target are untouched. A deficient
    language appends uniform-with-replacement copies of its own records until
    its cumulative hours first reach the target, so the overshoot is less
    than one utterance. Original records keep their order and content; copies
    follow them with the repeat marker set.
    """
    if not math.isfinite(target_hours) or target_hours <= 0:
        raise ValueError("target_hours must be positive")
    appended: list[UtteranceRecord] = []
    groups = manifest.by_language()
    for lang in sorted(groups):
        pool = groups[lang]
        if not pool:
            raise ValueError(f"language {lang!r} has no records to sample from")
        hours = sum(rec.dur_sec for rec in pool) / 3600.0
        while hours < target_hours:
            pick = pool[int(rng.integers(len(pool)))]
            appended.append(replace(pick, repeat=True))
            hours += pick.dur_sec / 3600.0
    return CorpusManifest(records=manifest.records + tuple(appended))


@dataclass(frozen=True)
class LanguageStats:
    hours: float
    original_hours: float
    records: int
    repetition_factor: float


def manifest_stats(manifest: CorpusManifest) -> dict[str, LanguageStats]:
    """Per-language totals; the repetition factor compares effective hours
    (all records) against the hours of non-repeat records."""
    stats: dict[str, LanguageStats] = {}
    for lang, recs in sorted(manifest.by_language().items()):
        hours = sum(r.dur_sec for r in recs) / 3600.0
        original = sum(r.dur_sec for r in recs if not r.repeat) / 3600.0
        factor = hours / original if original > 0 else float("inf")
        stats[lang] = LanguageStats(hours=hours, original_hours=original,
                                    records=len(recs), repetition_factor=factor)
    return stats


def load_manifest(path) -> CorpusManifest:
    """Read a JSONL manifest of {"id", "lang", "dur_sec", "phonemes", "text"}
    rows; an optional boolean "repeat" marks oversampling copies."""
    def parse(obj: dict) -> UtteranceRecord:
        utt_id = field(obj, "id", str)
        lang = field(obj, "lang", str)
        dur = field(obj, "dur_sec", (int, float))
        phonemes = field(obj, "phonemes", list, items=str)
        text = field(obj, "text", str)
        repeat = obj.get("repeat", False)
        if not isinstance(repeat, bool):
            raise ValueError("field 'repeat' must be a boolean")
        return UtteranceRecord(
            utterance_id=utt_id, lang=lang, dur_sec=float(dur),
            phonemes=tuple(phonemes), text=TargetText(lid=lang, graphemes=text),
            repeat=repeat)

    return CorpusManifest(records=tuple(iter_jsonl(path, parse)))


def _record_obj(rec: UtteranceRecord) -> dict:
    obj: dict = {"id": rec.utterance_id, "lang": rec.lang, "dur_sec": rec.dur_sec,
                 "phonemes": list(rec.phonemes), "text": rec.text.graphemes}
    if rec.repeat:
        obj["repeat"] = True
    return obj


def save_manifest(manifest: CorpusManifest, path) -> None:
    write_jsonl(path, (_record_obj(rec) for rec in manifest.records))


def load_training_lines(path) -> list[tuple[tuple[str, ...], TargetText]]:
    pairs, parsed = [], {}  # oversampled copies repeat lines: parse each once
    with open(path, encoding="utf-8") as fh, located(path):
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line:
                if line not in parsed:
                    with located(path, line_no):
                        parsed[line] = parse_training_line(line)
                pairs.append(parsed[line])
    return pairs


def save_training_lines(pairs: Iterable[tuple[Sequence[str], TargetText]], path) -> None:
    atomic_write_lines(path, (serialize_training_line(p, t) for p, t in pairs))
