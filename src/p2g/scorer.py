"""Conditional text scorer: log p(<lid> + graphemes | phonemes).

The model is an additively smoothed n-gram over a unified output stream
``<lid:xx> g_1 ... g_L <eos>`` where graphemes are single characters. Step 0
always emits a language-id token; every later step emits a character or the
end marker. Each step conditions on the previous ``order - 1`` output units
plus a window of phoneme symbols around a monotone alignment position that
depends only on the step index, so scoring and generation walk identical
state keys.

The same machinery stands in for any autoregressive text model with a
``log_score`` / ``generate_top_s`` interface.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import chain, filterfalse, islice, repeat
from operator import add
from typing import Iterator, Protocol, Sequence

from .ioutil import atomic_write_text, field, fields, located, read_json_object, to_json

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
        # NaN fails every comparison, so the range test rejects it too
        if not 0 < self.smoothing_alpha < math.inf:
            raise ValueError("smoothing_alpha must be finite and positive")
        if self.context_window < 0:
            raise ValueError("context_window must be >= 0")
        if not self.languages:
            raise ValueError("scorer needs at least one language")
        if len(set(self.languages)) != len(self.languages):
            raise ValueError("duplicate language in scorer inventory")
        if len(set(self.units)) != len(self.units):
            raise ValueError("duplicate unit in scorer inventory")
        if any(len(unit) != 1 for unit in self.units):
            raise ValueError("every scorer unit must be one character")
        ns = list(chain.from_iterable(map(dict.values, self.counts.values())))
        if not set(map(type, ns)) <= {int} or min(ns, default=0) < 0:  # a bool is no int
            raise ValueError("every count must be an integer >= 0")
        lids = tuple(lid_token(c) for c in self.languages)
        cand_sets = (frozenset(lids), frozenset(self.units + (EOS,)))
        # no row reads a count outside both candidate sets, so it would be lost
        stray = set().union(*self.counts.values()) - cand_sets[0] - cand_sets[1]
        if stray:
            raise ValueError(f"counts for units outside the scorer inventory: "
                             f"{', '.join(map(repr, sorted(stray)))}")
        # candidates of step 0 (lid tokens) and of every later step, and the
        # ones generation grows a stream by, in string order
        object.__setattr__(self, "_cand_sets", cand_sets)
        object.__setattr__(self, "_sorted",
                           (tuple(sorted(lids)), tuple(sorted(self.units))))
        # rows are built on first read: step 0 and later steps have separate
        # tables because at order 1 they share state keys
        object.__setattr__(self, "_rows", ({}, {}))

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

    def _windows(self, phonemes: Sequence[str]) -> list[tuple[str, ...]]:
        """The phoneme window of steps 0, 1, ...; steps past the end read the last.
        Step 0 reads the head window, step s >= 1 that of phoneme s - 1."""
        phonemes, w = tuple(phonemes), self.context_window
        wins = [phonemes[pos - w if pos > w else 0:pos + w + 1]
                for pos in range(len(phonemes))] or [()]
        return wins[:1] + wins

    def _keys(self, phonemes: Sequence[str], stream: Sequence[str]) -> Iterator[StateKey]:
        """``_state_key(phonemes, step, stream[:step])`` of every step, from the
        ``_windows`` and the shifted copies of the once-padded stream."""
        wins, need = self._windows(phonemes), self.order - 1
        padded = (BOS,) * need + tuple(stream[:-1])
        hists = zip(*(padded[i:] for i in range(need))) if need else repeat((), len(stream))
        return zip(chain(wins, repeat(wins[-1])), hists)

    def _row(self, key: StateKey, step: int) -> tuple[float, dict[str, float]]:
        """The smoothed step distribution at ``key``, the one definition of it.

        Over the step's candidate set C, with n the key's counts, a candidate
        has log-prob ``log((n + alpha) / denom)`` where ``denom = sum(n) +
        alpha * |C|``. The row holds the floor ``log(alpha / denom)`` shared
        by every zero-count candidate (and any unit outside C), plus the
        log-prob of each candidate in the key's count bucket."""
        which = 0 if step == 0 else 1
        rows = self._rows[which]  # type: ignore[attr-defined]
        if key not in self.counts:
            key = None  # every key without counts has the same row
        row = rows.get(key)
        if row is None:
            cands = self._cand_sets[which]  # type: ignore[attr-defined]
            bucket = {u: n for u, n in self.counts.get(key, {}).items() if u in cands}
            alpha = self.smoothing_alpha
            # integer counts, so their sum does not depend on the order
            denom = sum(bucket.values()) + alpha * len(cands)
            seen = {u: math.log((n + alpha) / denom) for u, n in bucket.items()}
            row = rows[key] = (math.log(alpha / denom), seen)
        return row

    # ---- scoring -------------------------------------------------------

    def step_log_probs(self, y: TargetText, phonemes: Sequence[str]) -> list[float]:
        """Per-step conditional log-probs for lid, each grapheme, and eos.

        Unknown graphemes fall back to the smoothing floor, but an unknown
        language has no lid token in the step-0 candidate set at all, so it
        cannot be scored."""
        if y.lid not in self.languages:
            raise ValueError(f"unknown language {y.lid!r}")
        stream = (lid_token(y.lid), *y.graphemes, EOS)
        keys = self._keys(phonemes, stream)
        floor, seen = self._row(next(keys), 0)
        # a built row is one memo lookup; a miss (no counts, or not built yet) goes to _row
        memo = self._rows[1]  # type: ignore[attr-defined]
        return [seen.get(stream[0], floor)] + [
            (row := memo.get(key) or self._row(key, 1))[1].get(unit, row[0])
            for key, unit in zip(keys, stream[1:])]

    def log_score(self, y: TargetText, phonemes: Sequence[str]) -> float:
        """log p(y.lid, y.graphemes, eos | phonemes); always finite and <= 0."""
        return reduce(add, self.step_log_probs(y, phonemes), 0.0)  # left to right

    # ---- generation ----------------------------------------------------

    def generate_top_s(self, phonemes: Sequence[str], s: int, max_len: int = 64,
                       beam_width: int | None = None) -> list[tuple[TargetText, float]]:
        """Beam search for the s most probable complete outputs.

        Hypotheses are expanded level by level, keeping the ``beam_width``
        best by (score descending, stream ascending); at ``max_len``
        graphemes only the end marker may follow, so every returned string
        is complete and its score equals ``log_score`` of that text exactly.
        The result equals that of growing every entry by every candidate,
        fully sorting each level and running all ``max_len + 1`` levels,
        because each shortcut below is exact:

        - An entry grows by the units in its row's count bucket plus only
          the first ``width`` zero-count units in string order. Its
          zero-count children tie on score and break the tie on the stream
          tuple, which they share up to that last unit, so no other
          zero-count child can rank among the ``width`` kept.
        - Entries are ``(-score, stream)`` tuples, so ``heapq.nsmallest``
          keeps the same ``width`` in the same order as the full sort. A
          child is ``(-score, stream, unit)`` until it is kept; all streams
          of a level have one length, so it orders as ``stream + (unit,)``.
          Rounding is sign-symmetric, so ``-score - lp`` equals
          ``-(score + lp)`` bit for bit.
        - Completions are ``(-score, lid, graphemes)``, which orders as
          ``(-score, TargetText)``; only the s returned become ``TargetText``.
        - The held s-th best completion only improves within a level, so an
          end-marker completion scoring strictly below it at the start of
          the level can never enter the top s. A tie still competes on the
          ``(lid, graphemes)`` tie-break.
        - The search stops once s texts are complete and the best live
          partial scores strictly below the s-th of them. Every step adds a
          log-prob <= 0 and every later completion extends a partial of the
          current level, so no later text can enter the top s; the test is
          strict for the same tie-break.
        """
        if s < 1:
            raise ValueError("s must be >= 1")
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        wins, pad = self._windows(phonemes), (BOS,) * (self.order - 1)
        width = beam_width if beam_width is not None else max(2 * s, 8)
        if width < 1:
            raise ValueError("beam_width must be >= 1")

        # the best (at most s) complete texts so far, best first
        completed: list[tuple[float, str, str]] = []
        # level 0 grows the empty stream by the lid tokens
        layer: list[tuple[float, tuple[str, ...]]] = [(-0.0, ())]
        step = 0
        while layer and step <= max_len + 1:
            cutoff = completed[-1][0] if len(completed) == s else math.inf
            if layer[0][0] > cutoff:
                break
            which = 0 if step == 0 else 1
            order, memo = self._sorted[which], self._rows[which]  # type: ignore[attr-defined]
            # every entry of a level shares the window; pad + stream holds
            # order - 1 + step units, so its history is the slice from step
            ctx = wins[min(step, len(wins) - 1)]
            grown: list[tuple[float, tuple[str, ...], str]] = []
            for neg, stream in layer:
                key = (ctx, (pad + stream)[step:])
                floor, seen = memo.get(key) or self._row(key, step)
                if step:
                    done = neg - seen.get(EOS, floor)
                    if done <= cutoff:
                        completed.append((done, stream[0][len("<lid:"):-1],
                                          "".join(stream[1:])))
                if step <= max_len:
                    grown += [(neg - lp, stream, unit)
                              for unit, lp in seen.items() if unit != EOS]
                    unseen = neg - floor
                    zeros = islice(filterfalse(seen.__contains__, order), width)
                    grown += [(unseen, stream, unit) for unit in zeros]
            completed = heapq.nsmallest(s, completed)
            layer = [(neg, stream + (unit,))
                     for neg, stream, unit in heapq.nsmallest(width, grown)]
            step += 1

        return [(TargetText(lid, graphemes), -neg) for neg, lid, graphemes in completed]


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
    # oversampled copies repeat whole pairs: walk each distinct pair once and
    # add its multiplicity; first-occurrence order keeps the key order too
    distinct = Counter((tuple(phonemes), text) for phonemes, text in pairs)
    counts: dict[StateKey, Counter] = defaultdict(Counter)
    for (phonemes, text), m in distinct.items():
        stream = (lid_token(text.lid), *text.graphemes, EOS)
        for key, unit in zip(probe._keys(phonemes, stream), stream):
            counts[key][unit] += m
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
    atomic_write_text(path, to_json(payload) + "\n")


def load_scorer(path) -> NGramScorer:
    """Read a ``save_scorer`` file. Every field is type-checked as stored,
    never coerced; the scorer's own invariants do the rest."""
    payload = read_json_object(path, "not a scorer file")
    with located(path):
        if payload.get("format") != SCORER_FORMAT:
            raise ValueError("not a scorer file")
        if (version := field(payload, "version", int)) != SCORER_VERSION:
            raise ValueError(f"unsupported scorer version {version!r}")
        entries = field(payload, "counts", list, items=dict)
        keys = zip(map(tuple, fields(entries, "ctx", list, items=str)),
                   map(tuple, fields(entries, "hist", list, items=str)))
        counts = dict(zip(keys, fields(entries, "n", dict)))
        if len(counts) != len(entries):
            raise ValueError("duplicate counts key (ctx, hist)")
        return NGramScorer(order=field(payload, "order", int),
                           smoothing_alpha=field(payload, "smoothing_alpha", (int, float)),
                           context_window=field(payload, "context_window", int),
                           languages=tuple(field(payload, "languages", list, items=str)),
                           units=tuple(field(payload, "units", list, items=str)),
                           counts=counts)
