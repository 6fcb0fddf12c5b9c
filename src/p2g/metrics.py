"""Edit-distance error rates, language-id accuracy, and corpus aggregation.

Error rates pool edits over a whole corpus (total edits / total reference
length), which is not the mean of per-utterance rates. Aggregation over
languages reports both the unweighted macro average and the
training-hours-weighted average; values stay unrounded internally and are
only rounded for display.
"""

from __future__ import annotations

import unicodedata
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .data import CorpusManifest
from .ioutil import to_json
from .scorer import TargetText


def edit_distance(ref: Sequence, hyp: Sequence) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    if len(ref) < len(hyp):
        ref, hyp = hyp, ref
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h))
        prev = cur
    return prev[-1]


def error_rate(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Corpus-pooled error percentage: 100 * total edits / total ref length."""
    total_ref = sum(len(ref) for ref, _ in pairs)
    if total_ref == 0:
        raise ValueError("error rate undefined: total reference length is zero")
    edits = sum(edit_distance(ref, hyp) for ref, hyp in pairs)
    return 100.0 * edits / total_ref


def lid_accuracy(pairs: Sequence[tuple[str, str]]) -> float:
    """Percentage of (reference lid, predicted lid) pairs that match."""
    if not pairs:
        raise ValueError("lid accuracy undefined: no pairs")
    hits = sum(1 for ref, hyp in pairs if ref == hyp)
    return 100.0 * hits / len(pairs)


def aggregate(values: Mapping[str, float], hours: Mapping[str, float]) -> tuple[float, float]:
    """(macro average, hours-weighted average) over per-language values."""
    if set(values) != set(hours):
        raise ValueError("values and hours cover different language sets")
    if not values:
        raise ValueError("nothing to aggregate")
    total_hours = sum(hours.values())
    if total_hours <= 0:
        raise ValueError("total hours must be positive")
    macro = sum(values.values()) / len(values)
    weighted = sum(values[lang] * hours[lang] for lang in values) / total_hours
    return macro, weighted


def tokenize_words(text: str) -> tuple[str, ...]:
    """NFC-normalize, then split on Unicode whitespace."""
    return tuple(unicodedata.normalize("NFC", text).split())


@dataclass(frozen=True)
class LanguageEval:
    error_rate: float
    lid_accuracy: float
    hours: float


@dataclass(frozen=True)
class EvalReport:
    metric: str
    languages: dict[str, LanguageEval]
    macro_avg: float
    hours_weighted_avg: float
    lid_macro_avg: float
    lid_hours_weighted_avg: float


def evaluate(manifest: CorpusManifest, hypotheses: Mapping[str, TargetText]) -> EvalReport:
    """Word error rate and lid accuracy per language, with both aggregates.

    Every manifest record needs a hypothesis under its utterance id; extra
    hypotheses are ignored. Hours come from the manifest durations. A
    language whose reference texts hold no word has no error rate: refused.
    """
    for rec in manifest.records:
        if rec.utterance_id not in hypotheses:
            raise ValueError(f"no hypothesis for utterance {rec.utterance_id!r}")
    per_lang = {}
    for lang, recs in sorted(manifest.by_language().items()):
        pairs = [(rec.text, hypotheses[rec.utterance_id]) for rec in recs]
        try:
            wer = error_rate([(tokenize_words(ref.graphemes), tokenize_words(hyp.graphemes))
                              for ref, hyp in pairs])
        except ValueError as exc:  # no reference words in this language
            raise ValueError(f"language {lang!r}: {exc}") from None
        per_lang[lang] = LanguageEval(
            error_rate=wer,
            lid_accuracy=lid_accuracy([(ref.lid, hyp.lid) for ref, hyp in pairs]),
            hours=sum(rec.dur_sec / 3600.0 for rec in recs))
    hours = {lang: e.hours for lang, e in per_lang.items()}
    wer_macro, wer_weighted = aggregate(
        {l: e.error_rate for l, e in per_lang.items()}, hours)
    lid_macro, lid_weighted = aggregate(
        {l: e.lid_accuracy for l, e in per_lang.items()}, hours)
    return EvalReport(metric="wer", languages=per_lang,
                      macro_avg=wer_macro, hours_weighted_avg=wer_weighted,
                      lid_macro_avg=lid_macro, lid_hours_weighted_avg=lid_weighted)


def report_to_json(report: EvalReport) -> str:
    return to_json(asdict(report), indent=2) + "\n"


def render_report(report: EvalReport) -> str:
    """Aligned text table: one column per language plus both averages,
    values rounded to two decimals for display."""
    langs = sorted(report.languages)
    headers = ["", *langs, "avg", "hrs-wavg"]
    rows = [
        ["hours", *(f"{report.languages[l].hours:.2f}" for l in langs), "", ""],
        [report.metric,
         *(f"{report.languages[l].error_rate:.2f}" for l in langs),
         f"{report.macro_avg:.2f}", f"{report.hours_weighted_avg:.2f}"],
        ["lid-acc",
         *(f"{report.languages[l].lid_accuracy:.2f}" for l in langs),
         f"{report.lid_macro_avg:.2f}", f"{report.lid_hours_weighted_avg:.2f}"],
    ]
    table = [headers, *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in table]
    return "\n".join(lines) + "\n"
