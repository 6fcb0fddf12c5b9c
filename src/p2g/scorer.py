"""Conditional text scorer: log p(<lid> + graphemes | phonemes).

The model is an additively smoothed n-gram over a unified output stream
``<lid:xx> g_1 ... g_L <eos>`` where graphemes are single characters. Step 0
always emits a language-id token; every later step emits a character or the
end marker. Each step conditions on the previous ``order - 1`` output units
plus a window of phoneme symbols around a monotone alignment position that
depends only on the step index, so scoring and generation walk identical
state keys.

The same machinery stands in for any autoregressive text model with a
``log_score`` / ``generate_top_s`` / ``predict_lid`` interface.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Protocol, Sequence

from .ioutil import FormatError, atomic_write_text

EOS = "<eos>"
BOS = "<bos>"

SCORER_FORMAT = "p2g-ngram-scorer"
SCORER_VERSION = 1

_LID_RE = re.compile(r"^[a-z0-9][a-z0-9-]*$")


def lid_token(code: str) -> str:
    return f"<lid:{code}>"


@dataclass(frozen=True, order=True)
class TargetText:
    """A language id plus its grapheme string. Ordering is lexicographic on
    (lid, graphemes), which is the tie-break used everywhere downstream."""

    lid: str
    graphemes: str

    def __post_init__(self) -> None:
        if not _LID_RE.match(self.lid):
            raise ValueError(f"invalid language id {self.lid!r}")


class ConditionalScorer(Protocol):
    def log_score(self, y: TargetText, phonemes: Sequence[str]) -> float: ...

    def generate_top_s(self, phonemes: Sequence[str], s: int,
                       max_len: int = 64) -> list[tuple[TargetText, float]]: ...

    def predict_lid(self, phonemes: Sequence[str]) -> str: ...


StateKey = tuple[tuple[str, ...], tuple[str, ...]]


@dataclass(frozen=True, eq=True)
class NGramScorer:
    """Count tables plus smoothing config; immutable once trained."""

    order: int
    smoothing_alpha: float
    context_window: int
    languages: tuple[str, ...]
    units: tuple[str, ...]
    counts: dict[StateKey, dict[str, int]]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.smoothing_alpha <= 0:
            raise ValueError("smoothing_alpha must be positive")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")
        if not self.languages:
            raise ValueError("scorer needs at least one language")
        # candidate units of step 0 (lid tokens) and of every later step
        lids = tuple(lid_token(c) for c in self.languages)
        later = self.units + (EOS,)
        object.__setattr__(self, "_cands", (lids, later))
        object.__setattr__(self, "_cand_sets", (frozenset(lids), frozenset(later)))

    @property
    def vocab(self) -> tuple[str, ...]:
        """Full output inventory: lid tokens, grapheme units, end marker."""
        return self._cands[0] + self._cands[1]  # type: ignore[attr-defined]

    # ---- state handling ------------------------------------------------

    def _state_key(self, phonemes: Sequence[str], step: int,
                   history: Sequence[str]) -> StateKey:
        m = len(phonemes)
        if m == 0:
            ctx: tuple[str, ...] = ()
        else:
            # monotone alignment: grapheme i sits near phoneme i, clamped to
            # the tail; the lid step looks at the head of the sequence
            pos = 0 if step == 0 else min(step - 1, m - 1)
            lo = max(0, pos - self.context_window)
            hi = min(m, pos + self.context_window + 1)
            ctx = tuple(phonemes[lo:hi])
        need = self.order - 1
        hist = tuple(history[-need:]) if need else ()
        if len(hist) < need:
            hist = (BOS,) * (need - len(hist)) + hist
        return ctx, hist

    def _normalizer(self, key: StateKey,
                    step: int) -> tuple[tuple[str, ...], dict[str, int], float]:
        """The step's candidate set, the key's count bucket, and the smoothed
        denominator ``total + alpha * len(candidates)`` shared by every
        log-prob of the step."""
        which = 0 if step == 0 else 1
        cands = self._cands[which]  # type: ignore[attr-defined]
        cand_set = self._cand_sets[which]  # type: ignore[attr-defined]
        bucket = self.counts.get(key, {})
        # integer counts: summing the bucket's few candidate entries gives
        # the same total as summing over every candidate
        total = sum(n for unit, n in bucket.items() if unit in cand_set)
        return cands, bucket, total + self.smoothing_alpha * len(cands)

    def _distribution(self, key: StateKey, step: int) -> list[tuple[str, float]]:
        """Smoothed conditional over the step's candidate set; sums to 1."""
        cands, bucket, denom = self._normalizer(key, step)
        alpha = self.smoothing_alpha
        return [(c, math.log((bucket.get(c, 0) + alpha) / denom)) for c in cands]

    def _step_log_prob(self, key: StateKey, step: int, unit: str) -> float:
        _, bucket, denom = self._normalizer(key, step)
        # an out-of-vocabulary unit scores at the smoothing floor
        return math.log((bucket.get(unit, 0) + self.smoothing_alpha) / denom)

    # ---- scoring -------------------------------------------------------

    def step_log_probs(self, y: TargetText, phonemes: Sequence[str]) -> list[float]:
        """Per-step conditional log-probs for lid, each grapheme, and eos.

        Unknown graphemes fall back to the smoothing floor, but an unknown
        language has no lid token in the step-0 candidate set at all, so it
        cannot be scored."""
        if y.lid not in self.languages:
            raise ValueError(f"unknown language {y.lid!r}")
        phonemes = tuple(phonemes)
        stream = (lid_token(y.lid), *y.graphemes, EOS)
        out = []
        for step, unit in enumerate(stream):
            key = self._state_key(phonemes, step, stream[:step])
            out.append(self._step_log_prob(key, step, unit))
        return out

    def log_score(self, y: TargetText, phonemes: Sequence[str]) -> float:
        """log p(y.lid, y.graphemes, eos | phonemes); always finite and <= 0."""
        total = 0.0
        for value in self.step_log_probs(y, phonemes):
            total += value
        return total

    # ---- generation ----------------------------------------------------

    def generate_top_s(self, phonemes: Sequence[str], s: int, max_len: int = 64,
                       beam_width: int | None = None) -> list[tuple[TargetText, float]]:
        """Beam search for the s most probable complete outputs.

        Hypotheses are expanded level by level; at ``max_len`` graphemes only
        the end marker may follow, so every returned string is complete and
        its score equals ``log_score`` of that text exactly.

        The search stops early, with the same result as running all
        ``max_len + 1`` levels, once s texts are complete and the best live
        partial scores strictly below the s-th best of them. Every step adds
        a log-prob <= 0 and every later completion extends a partial of the
        current layer, so no later text can score above that partial or
        enter the top s. The test is strict so that a later text tying the
        s-th score still competes on the ``(lid, graphemes)`` tie-break.
        """
        if s < 1:
            raise ValueError("s must be >= 1")
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        phonemes = tuple(phonemes)
        width = beam_width if beam_width is not None else max(2 * s, 8)
        if width < 1:
            raise ValueError("beam_width must be >= 1")

        # the best (at most s) complete texts so far, best first
        completed: list[tuple[float, TargetText]] = []
        key = self._state_key(phonemes, 0, ())
        layer = [((unit,), lp) for unit, lp in self._distribution(key, 0)]
        layer.sort(key=lambda it: (-it[1], it[0]))
        layer = layer[:width]

        step = 1
        while layer and step <= max_len + 1:
            if len(completed) == s and layer[0][1] < completed[-1][0]:
                break
            grown: list[tuple[tuple[str, ...], float]] = []
            for stream, score in layer:
                key = self._state_key(phonemes, step, stream)
                for unit, lp in self._distribution(key, step):
                    if unit == EOS:
                        lid = stream[0][len("<lid:"):-1]
                        text = TargetText(lid=lid, graphemes="".join(stream[1:]))
                        completed.append((score + lp, text))
                    elif step <= max_len:
                        grown.append((stream + (unit,), score + lp))
            completed.sort(key=lambda it: (-it[0], it[1]))
            del completed[s:]
            grown.sort(key=lambda it: (-it[1], it[0]))
            layer = grown[:width]
            step += 1

        return [(text, score) for score, text in completed]

    def predict_lid(self, phonemes: Sequence[str]) -> str:
        """Most probable language for the phonemes; ties take the
        lexicographically smaller code (languages are stored sorted)."""
        key = self._state_key(tuple(phonemes), 0, ())
        dist = dict(self._distribution(key, 0))
        return max(self.languages, key=lambda code: dist[lid_token(code)])


def train_scorer(pairs: Sequence[tuple[Sequence[str], TargetText]], order: int = 3,
                 smoothing_alpha: float = 0.1, context_window: int = 1) -> NGramScorer:
    """Count-based training over (phoneme tokens, target text) pairs.

    Counting is order-independent, so shuffling the pairs yields an
    identical scorer.
    """
    if not pairs:
        raise ValueError("training needs at least one pair")
    languages = tuple(sorted({text.lid for _, text in pairs}))
    units = tuple(sorted({ch for _, text in pairs for ch in text.graphemes}))
    probe = NGramScorer(order=order, smoothing_alpha=smoothing_alpha,
                        context_window=context_window, languages=languages,
                        units=units, counts={})
    counts: dict[StateKey, Counter] = defaultdict(Counter)
    for phonemes, text in pairs:
        phonemes = tuple(phonemes)
        stream = (lid_token(text.lid), *text.graphemes, EOS)
        for step, unit in enumerate(stream):
            key = probe._state_key(phonemes, step, stream[:step])
            counts[key][unit] += 1
    table = {key: dict(bucket) for key, bucket in counts.items()}
    return NGramScorer(order=order, smoothing_alpha=smoothing_alpha,
                       context_window=context_window, languages=languages,
                       units=units, counts=table)


def save_scorer(scorer: NGramScorer, path) -> None:
    """Versioned JSON dump; loading gives bitwise-identical scores because
    only integer counts and the exact config floats are stored."""
    entries = []
    for (ctx, hist), bucket in sorted(scorer.counts.items()):
        entries.append({"ctx": list(ctx), "hist": list(hist),
                        "n": {u: bucket[u] for u in sorted(bucket)}})
    payload = {
        "format": SCORER_FORMAT,
        "version": SCORER_VERSION,
        "order": scorer.order,
        "smoothing_alpha": scorer.smoothing_alpha,
        "context_window": scorer.context_window,
        "languages": list(scorer.languages),
        "units": list(scorer.units),
        "counts": entries,
    }
    atomic_write_text(path, json.dumps(payload, ensure_ascii=False) + "\n")


def load_scorer(path) -> NGramScorer:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON ({exc.msg})", path=path,
                              line_no=exc.lineno) from exc
    if not isinstance(payload, dict) or payload.get("format") != SCORER_FORMAT:
        raise FormatError("not a scorer file", path=path)
    if payload.get("version") != SCORER_VERSION:
        raise FormatError(f"unsupported scorer version {payload.get('version')!r}",
                          path=path)
    try:
        counts: dict[StateKey, dict[str, int]] = {}
        for entry in payload["counts"]:
            key = (tuple(entry["ctx"]), tuple(entry["hist"]))
            counts[key] = {str(u): int(n) for u, n in entry["n"].items()}
        return NGramScorer(order=int(payload["order"]),
                           smoothing_alpha=float(payload["smoothing_alpha"]),
                           context_window=int(payload["context_window"]),
                           languages=tuple(payload["languages"]),
                           units=tuple(payload["units"]),
                           counts=counts)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed scorer payload: {exc}", path=path) from exc
