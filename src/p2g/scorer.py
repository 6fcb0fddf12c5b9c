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

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, filterfalse, islice, repeat
from operator import add
from typing import Iterator, Protocol, Sequence

from .ioutil import atomic_write, field, fields, iter_json, located, read_json_object

EOS = "<eos>"
BOS = "<bos>"

SCORER_FORMAT = "p2g-ngram-scorer"
SCORER_VERSION = 1

_LID_RE = re.compile(r"[a-z0-9][a-z0-9-]*")


def _check_lid(code: str) -> None:
    """The one language-id rule, for records, decode output and scorer files."""
    if not _LID_RE.fullmatch(code):
        raise ValueError(f"invalid language id {code!r}")


def lid_token(code: str) -> str:
    return f"<lid:{code}>"


_LID_CODE = slice(len("<lid:"), -1)  # where a lid_token holds its code


def lid_code(token: str) -> str | None:
    """Inverse of lid_token: the code it writes as ``token``, or None when it
    writes no such token."""
    code = token[_LID_CODE]
    return code if lid_token(code) == token else None


@dataclass(frozen=True, order=True)
class TargetText:
    """A language id plus its grapheme string. Ordering is lexicographic on
    (lid, graphemes), which is the tie-break used everywhere downstream."""

    lid: str
    graphemes: str

    def __post_init__(self) -> None:
        _check_lid(self.lid)


class ConditionalScorer(Protocol):
    def log_score(self, y: TargetText, phonemes: Sequence[str]) -> float: ...

    def generate_top_s(self, phonemes: Sequence[str], s: int,
                       max_len: int = 64) -> list[tuple[TargetText, float]]: ...


Units = tuple[str, ...]  # a phoneme window or a history of output units
StateKey = tuple[Units, Units]  # (window, history)
Row = tuple[float, dict[str, float]]  # (floor log-prob, {counted unit: log-prob})
Kids = tuple[float, tuple[tuple[float, str], ...]]  # (end-marker lp, children)
Step = tuple[dict[Units, Row], Row, str]  # ({window: row}, floor row, unit)

_NO_ROWS: dict = {}  # the table of a history without counts: every window reads the floor


def _windows(phonemes: Sequence[str], w: int) -> Iterator[Units]:
    """The phoneme window of steps 0, 1, ...: step 0 reads the head window, step
    s >= 1 that of phoneme s - 1, and every step past the last phoneme reads the
    last window, so the iterator never ends. The one statement of that clamp."""
    phonemes = tuple(phonemes)
    wins = [phonemes[pos - w if pos > w else 0:pos + w + 1]
            for pos in range(len(phonemes))] or [()]
    return chain(wins[:1], wins, repeat(wins[-1]))


def _hists(stream: Sequence[str], order: int) -> list[Units]:
    """The history of every step of ``stream``: the last ``order - 1`` units
    before it, padded with BOS."""
    need = order - 1
    padded = (BOS,) * need + tuple(stream[:-1])
    return [padded[i:i + need] for i in range(len(stream))]


@dataclass(frozen=True, eq=True)
class NGramScorer:
    """Count tables plus smoothing config; immutable once trained. Training,
    scoring and generation key each step by its ``_windows`` and ``_hists``
    entries. The row and children tables (``_rows``, ``_children``) are built
    whole on first read and keyed history first, ``{history: {window: row}}``:
    a text fixes the history of each of its steps, so the scoring plan of a
    text (``_plan``) holds each step's ``{window: row}`` table, and a phoneme
    sequence only picks windows."""

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
        for code in self.languages:
            _check_lid(code)
        if len(set(self.languages)) != len(self.languages):
            raise ValueError("duplicate language in scorer inventory")
        if len(set(self.units)) != len(self.units):
            raise ValueError("duplicate unit in scorer inventory")
        if any(len(unit) != 1 for unit in self.units):
            raise ValueError("every scorer unit must be one character")
        # a step reads the key of its order - 1 unit history and its window of
        # at most 2w + 1 phonemes (none for no phonemes): another key is dead
        need, widest = self.order - 1, 2 * self.context_window + 1
        if any(len(hist) != need or len(win) > widest for win, hist in self.counts):
            raise ValueError(f"a counts key that no step reads: every hist must hold "
                             f"{need} units and every ctx at most {widest} phonemes")
        ns = list(chain.from_iterable(map(dict.values, self.counts.values())))
        if not set(map(type, ns)) <= {int} or min(ns, default=0) < 0:  # a bool is no int
            raise ValueError("every count must be an integer >= 0")
        cand_sets = (frozenset(map(lid_token, self.languages)), frozenset(self.units + (EOS,)))
        # no row reads a count outside both candidate sets, so it would be lost
        stray = set().union(*self.counts.values()) - cand_sets[0] - cand_sets[1]
        if stray:
            raise ValueError(f"counts for units outside the scorer inventory: "
                             f"{', '.join(map(repr, sorted(stray)))}")
        # no row's denominator exceeds this one, so a nonzero quotient has a log
        most = max(map(sum, map(dict.values, self.counts.values())), default=0)
        if (alpha := self.smoothing_alpha) / (most + alpha * max(map(len, cand_sets))) == 0:
            raise ValueError(f"smoothing_alpha {alpha!r} underflows a log-prob at {most} counts")
        # candidates of step 0 (lid tokens) and of every later step
        object.__setattr__(self, "_cand_sets", cand_sets)

    # ---- tables --------------------------------------------------------

    @cached_property
    def _rows(self) -> tuple[tuple[dict[Units, dict[Units, Row]], Row], ...]:
        """The one definition of the smoothed step distributions, built whole on first
        read, for step 0 and for later steps (at order 1 they share state keys): the
        ``{history: {window: row}}`` table of the keys whose counts meet the step's
        candidate set C, and the floor row every other key reads. With n the key's
        counts in C and ``denom = sum(n) + alpha * |C|``, a row is the floor
        ``log(alpha / denom)`` of every zero-count candidate (and unit outside C) and
        ``log((n + alpha) / denom)`` of each candidate in n. One loop per C, with one
        memo keyed by n: keys with equal n share one row object, and each floor row,
        which has no counts, is built apart from the memo."""
        alpha, out = self.smoothing_alpha, []
        for cands in self._cand_sets:  # type: ignore[attr-defined]
            scale = alpha * len(cands)
            by_hist: dict[Units, dict[Units, Row]] = {}
            memo: dict[frozenset, Row] = {}
            for (win, hist), bucket in self.counts.items():
                if cands.isdisjoint(bucket):
                    continue
                if not bucket.keys() <= cands:  # only at order 1 do both step kinds share a key
                    bucket = {u: n for u, n in bucket.items() if u in cands}
                if (row := memo.get(n_key := frozenset(bucket.items()))) is None:
                    # integer counts, so their sum does not depend on the order
                    denom = sum(bucket.values()) + scale
                    row = memo[n_key] = (
                        math.log(alpha / denom),
                        {u: math.log((n + alpha) / denom) for u, n in bucket.items()})
                by_hist.setdefault(hist, {})[win] = row
            out.append((by_hist, (math.log(alpha / scale), {})))
        return tuple(out)

    def _children(self, width: int) -> tuple[tuple[dict[Units, dict[Units, Kids]], Kids], ...]:
        """``_rows`` with each row mapped to the end marker's log-prob and the
        ``(lp, unit)`` children an entry grows by, sorted by ``(-lp, unit)``: the
        counted units and the first ``width`` zero-count ones in string order.
        Keyed history first like ``_rows`` and built whole on the first read of
        each width; keys sharing a row object share its children."""
        def grow(row: Row, order: Sequence[str]) -> Kids:
            if (got := grown.get(id(row))) is None:
                floor, seen = row
                zeros = islice(filterfalse(seen.__contains__, order), width)
                kids = sorted([(lp, unit) for unit, lp in seen.items() if unit != EOS]
                              + [(floor, unit) for unit in zeros],
                              key=lambda kid: (-kid[0], kid[1]))
                got = grown[id(row)] = (seen.get(EOS, floor), tuple(kids))
            return got

        kids = self.__dict__.setdefault("_kids", {})
        if width not in kids:
            # a row object belongs to one step kind, so its id fixes the order too
            grown: dict[int, Kids] = {}
            orders = (sorted(c - {EOS}) for c in self._cand_sets)  # type: ignore[attr-defined]
            kids[width] = tuple(({hist: {win: grow(row, order) for win, row in by_win.items()}
                                  for hist, by_win in tables.items()}, grow(floor, order))
                                for (tables, floor), order in zip(self._rows, orders))
        return kids[width]

    # ---- scoring -------------------------------------------------------

    def _plan(self, y: TargetText) -> list[Step]:
        """What scoring ``y`` reads under any phonemes: for each step of its stream
        ``<lid> g_1 ... g_L <eos>``, the ``_rows`` table of the step's history
        (``_NO_ROWS`` without counts), the step kind's floor row and the step's
        unit. Built once per ``TargetText`` object; the last one is kept, so
        scoring one text under k hypotheses builds it once."""
        last = self.__dict__.get("_last_plan")
        if last is not None and last[0] is y:
            return last[1]
        if y.lid not in self.languages:
            raise ValueError(f"unknown language {y.lid!r}")
        stream = (lid_token(y.lid), *y.graphemes, EOS)
        kinds = chain(self._rows[:1], repeat(self._rows[1]))  # step 0, then later steps
        plan = [(tables.get(hist, _NO_ROWS), floor, unit)
                for (tables, floor), hist, unit in zip(kinds, _hists(stream, self.order), stream)]
        self.__dict__["_last_plan"] = (y, plan)
        return plan

    def step_log_probs(self, y: TargetText, phonemes: Sequence[str]) -> list[float]:
        """Per-step conditional log-probs for lid, each grapheme, and eos: the
        steps of ``_plan(y)`` and the endless ``_windows`` walk, zipped, so each
        step reads the row of its window (past the last phoneme, the last one).

        Unknown graphemes fall back to the smoothing floor, but an unknown
        language has no lid token in the step-0 candidate set at all, so it
        cannot be scored."""
        wins = _windows(phonemes, self.context_window)
        return [(row := table.get(win, floor))[1].get(unit, row[0])
                for (table, floor, unit), win in zip(self._plan(y), wins)]

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
          the first ``width`` zero-count units in string order, read from
          the ``_children`` table of this width by the entry's history, then
          by the level's window, the next of its ``_windows`` walk. Its
          zero-count children tie on score and break the tie on the stream
          tuple, which they share up to that last unit, so no other
          zero-count child can rank among the ``width`` kept.
        - An entry walks those children best first and stops at the first
          scoring strictly above ``thr``. Each level starts ``thr`` at the
          bound ``cutoff``, the s-th held completion's ``-score`` (+inf while
          fewer than s are held), and lowers it to the ``width``-th child
          score of any entry; an end-marker completion above ``cutoff`` is
          dropped, and the first entry above it ends the level. This is
          exact. Every step adds a log-prob <= 0 and rounding is monotone, so
          a partial strictly worse than the held s-th completion yields only
          strictly worse completions; the held s-th completion only
          improves; and the ``width`` children at or below ``thr`` rank
          first, so the width cut only loses partials worse still. Ties are
          kept, so they still compete on the ``(lid, graphemes)`` tie-break.
          The search ends at a level that grows nothing.
        - Entries are ``(-score, stream)`` tuples. A child is ``(-score,
          stream, unit)`` until it is kept; all streams of a level have one
          length, so it orders as ``stream + (unit,)``. Each level sorts its
          children once and keeps the first ``width``; no two are equal, so
          the order is total. Rounding is sign-symmetric, so ``-score - lp``
          equals ``-(score + lp)`` bit for bit.
        - Completions are ``(-score, lid, graphemes)``, which orders as
          ``(-score, TargetText)``. They are sorted and cut to s on every
          level, since the cutoff reads the last; only the s returned become
          ``TargetText``.
        """
        if s < 1:
            raise ValueError("s must be >= 1")
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        wins, pad = _windows(phonemes, self.context_window), (BOS,) * (self.order - 1)
        width = beam_width if beam_width is not None else max(2 * s, 8)
        if width < 1:
            raise ValueError("beam_width must be >= 1")

        # the best (at most s) complete texts so far, best first
        completed: list[tuple[float, str, str]] = []
        # level 0 grows the empty stream by the lid tokens
        layer: list[tuple[float, tuple[str, ...]]] = [(-0.0, ())]
        tables, step = self._children(width), 0
        while layer and step <= max_len + 1:
            cutoff = completed[-1][0] if len(completed) == s else math.inf
            kids, floor = tables[step > 0]
            # every entry of a level shares the window; pad + stream holds
            # order - 1 + step units, so its history is the slice from step
            ctx = next(wins)
            grown: list[tuple[float, tuple[str, ...], str]] = []
            # children above thr cannot place; past max_len none may grow
            thr = cutoff if step <= max_len else -math.inf
            for neg, stream in layer:
                if neg > cutoff:
                    break
                end, children = kids.get((pad + stream)[step:], _NO_ROWS).get(ctx, floor)
                if step:
                    done = neg - end
                    if done <= cutoff:
                        completed.append((done, stream[0][_LID_CODE], "".join(stream[1:])))
                if len(children) >= width and (top := neg - children[width - 1][0]) < thr:
                    thr = top
                for lp, unit in children:
                    if (child := neg - lp) > thr:
                        break
                    grown.append((child, stream, unit))
            completed.sort()
            del completed[s:]
            grown.sort()
            layer = [(neg, stream + (unit,)) for neg, stream, unit in grown[:width]]
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
    # oversampled copies repeat whole pairs: walk each distinct pair once and
    # add its multiplicity; first-occurrence order keeps the key order too
    distinct = Counter((tuple(phonemes), text) for phonemes, text in pairs)
    languages = tuple(sorted({text.lid for _, text in distinct}))
    units = tuple(sorted({ch for _, text in distinct for ch in text.graphemes}))
    counts: dict[StateKey, dict[str, int]] = {}
    for (phonemes, text), m in distinct.items():
        stream = (lid_token(text.lid), *text.graphemes, EOS)
        keys = zip(_windows(phonemes, context_window), _hists(stream, order))
        for key, unit in zip(keys, stream):
            if (bucket := counts.get(key)) is None:
                bucket = counts[key] = {}
            bucket[unit] = bucket.get(unit, 0) + m
    return NGramScorer(order=order, smoothing_alpha=smoothing_alpha,
                       context_window=context_window, languages=languages,
                       units=units, counts=counts)


def save_scorer(scorer: NGramScorer, path) -> None:
    """Versioned JSON dump; loading gives bitwise-identical scores because
    only integer counts and the exact config floats are stored. The sorted
    ``counts`` entries are built and encoded a slice at a time."""
    def entries() -> Iterator[dict]:
        for ctx, hist in sorted(scorer.counts):
            bucket = scorer.counts[ctx, hist]
            yield {"ctx": list(ctx), "hist": list(hist),
                   "n": {u: bucket[u] for u in sorted(bucket)}}

    head = {
        "format": SCORER_FORMAT,
        "version": SCORER_VERSION,
        "order": scorer.order,
        "smoothing_alpha": scorer.smoothing_alpha,
        "context_window": scorer.context_window,
        "languages": list(scorer.languages),
        "units": list(scorer.units),
    }
    atomic_write(path, chain(iter_json(head, "counts", entries()), ["\n"]))


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
