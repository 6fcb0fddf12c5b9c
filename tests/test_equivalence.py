"""The fast decode paths against test-local copies of the plain loops they
replaced, on random inputs: equal lists, with bitwise-equal floats.

``generate_top_s`` stops as soon as no later completion can enter the top s;
the reference runs every one of the ``max_len + 1`` levels and recomputes
each smoothed distribution from the raw counts. ``prefix_beam_search``
converts one row at a time to Python floats and selects with
``heapq.nsmallest``; the reference reads numpy rows and fully sorts every
frame.
"""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from p2g import synth
from p2g.ctc import BLANK, Alphabet, PosteriorGrid, prefix_beam_search
from p2g.logmath import LOG_ZERO, log_add
from p2g.scorer import BOS, EOS, NGramScorer, TargetText, lid_token, train_scorer

# ---- reference: full-depth text generation --------------------------------


def _reference_distribution(scorer, key, step):
    if step == 0:
        cands = tuple(lid_token(c) for c in scorer.languages)
    else:
        cands = scorer.units + (EOS,)
    bucket = scorer.counts.get(key, {})
    total = sum(bucket.get(c, 0) for c in cands)
    alpha = scorer.smoothing_alpha
    denom = total + alpha * len(cands)
    return [(c, math.log((bucket.get(c, 0) + alpha) / denom)) for c in cands]


def _reference_generate(scorer, phonemes, s, max_len, beam_width):
    phonemes = tuple(phonemes)
    width = beam_width if beam_width is not None else max(2 * s, 8)
    completed = []
    key = scorer._state_key(phonemes, 0, ())
    layer = [((unit,), lp) for unit, lp in _reference_distribution(scorer, key, 0)]
    layer.sort(key=lambda it: (-it[1], it[0]))
    layer = layer[:width]
    step = 1
    while layer and step <= max_len + 1:
        grown = []
        for stream, score in layer:
            key = scorer._state_key(phonemes, step, stream)
            for unit, lp in _reference_distribution(scorer, key, step):
                if unit == EOS:
                    lid = stream[0][len("<lid:"):-1]
                    text = TargetText(lid=lid, graphemes="".join(stream[1:]))
                    completed.append((score + lp, text))
                elif step <= max_len:
                    grown.append((stream + (unit,), score + lp))
        grown.sort(key=lambda it: (-it[1], it[0]))
        layer = grown[:width]
        step += 1
    completed.sort(key=lambda it: (-it[0], it[1]))
    return [(text, score) for score, text in completed[:s]]


def _random_scorer(rnd: random.Random) -> NGramScorer:
    phones = [f"p{i}" for i in range(rnd.randint(1, 5))]
    letters = "abcdef"[:rnd.randint(1, 6)]
    lids = ["xa", "xb", "xc"][:rnd.randint(1, 3)]
    order = rnd.randint(1, 3)
    # 1e-30 makes seen units certain in floats, so ties are exact
    alpha = rnd.choice([1e-30, 0.05, 0.1, 0.5, 1.0])
    window = rnd.randint(0, 2)
    if rnd.random() < 0.2:
        # no counts at all: every distribution is uniform, so scores tie
        return NGramScorer(order=order, smoothing_alpha=alpha, context_window=window,
                           languages=tuple(lids), units=tuple(letters), counts={})
    pairs = []
    for _ in range(rnd.randint(1, 12)):
        ph = tuple(rnd.choice(phones) for _ in range(rnd.randint(0, 6)))
        text = "".join(rnd.choice(letters) for _ in range(rnd.randint(0, 6)))
        pairs.append((ph, TargetText(rnd.choice(lids), text)))
    return train_scorer(pairs, order=order, smoothing_alpha=alpha,
                        context_window=window)


def _bits(pairs):
    return [(item, float.hex(score)) for item, score in pairs]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       s=st.integers(min_value=1, max_value=12),
       beam_width=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
       max_len=st.one_of(st.integers(min_value=0, max_value=8), st.just(64)))
def test_generate_top_s_equals_full_depth(seed, s, beam_width, max_len):
    rnd = random.Random(seed)
    scorer = _random_scorer(rnd)
    phonemes = tuple(f"p{rnd.randint(0, 4)}" for _ in range(rnd.randint(0, 7)))
    got = scorer.generate_top_s(phonemes, s, max_len, beam_width=beam_width)
    want = _reference_generate(scorer, phonemes, s, max_len, beam_width)
    assert _bits(got) == _bits(want)


def test_generate_top_s_returns_all_when_s_exceeds_reachable():
    """Fewer than s texts exist, so no partial may stop the search, even one
    scoring below every completed text."""
    lid = "<lid:xa>"
    counts = {((), (BOS,)): {lid: 1}, ((), (lid,)): {EOS: 100}}
    scorer = NGramScorer(order=2, smoothing_alpha=0.1, context_window=0,
                         languages=("xa",), units=("a",), counts=counts)
    # max_len 2 reaches "", "a" and "aa"; the partial "a" scores below ""
    got = scorer.generate_top_s((), 50, max_len=2)
    assert [t.graphemes for t, _ in got] == ["", "a", "aa"]
    assert _bits(got) == _bits(_reference_generate(scorer, (), 50, 2, None))


def test_generate_top_s_tie_at_cutoff_uses_text_order():
    """A later text ties the s-th completed one, so the stop must be strict.

    With a vanishing alpha a seen unit has probability 1.0 in floats and
    adds exactly 0.0. <lid:xb> then completes at once with score log(1/2),
    while <lid:xa> must first emit "a" and completes one level later with
    the same score, where the (lid, graphemes) tie-break puts it first."""
    lid_a, lid_b = "<lid:xa>", "<lid:xb>"
    counts = {((), (BOS,)): {lid_a: 5, lid_b: 5},
              ((), (lid_a,)): {"a": 5},
              ((), (lid_b,)): {EOS: 5},
              ((), ("a",)): {EOS: 5}}
    scorer = NGramScorer(order=2, smoothing_alpha=1e-30, context_window=0,
                         languages=("xa", "xb"), units=("a",), counts=counts)
    got = scorer.generate_top_s((), 1)
    assert _bits(got) == _bits(_reference_generate(scorer, (), 1, 64, None))
    assert got == [(TargetText("xa", "a"), math.log(0.5))]


# ---- reference: full-sort prefix beam search ------------------------------


def _reference_beam(grid, beam_width, k):
    lp = grid.logp
    width = lp.shape[1]
    beam = {(): [0.0, LOG_ZERO]}
    for t in range(grid.frames):
        row = lp[t]
        grown = {}

        def cell(prefix):
            entry = grown.get(prefix)
            if entry is None:
                entry = [LOG_ZERO, LOG_ZERO]
                grown[prefix] = entry
            return entry

        for prefix, (pb, pnb) in beam.items():
            total = log_add(pb, pnb)
            entry = cell(prefix)
            entry[0] = log_add(entry[0], total + row[BLANK])
            last = prefix[-1] if prefix else BLANK
            for c in range(1, width):
                pc = row[c]
                if pc == LOG_ZERO:
                    continue
                if c == last:
                    entry[1] = log_add(entry[1], pnb + pc)
                    if pb != LOG_ZERO:
                        target = cell(prefix + (c,))
                        target[1] = log_add(target[1], pb + pc)
                else:
                    target = cell(prefix + (c,))
                    target[1] = log_add(target[1], total + pc)

        live = [(p, m) for p, m in grown.items() if log_add(m[0], m[1]) != LOG_ZERO]
        live.sort(key=lambda it: (-log_add(it[1][0], it[1][1]), len(it[0]), it[0]))
        beam = dict(live[:beam_width])

    final = [(p, log_add(m[0], m[1])) for p, m in beam.items()]
    final.sort(key=lambda it: (-it[1], len(it[0]), it[0]))
    return final[:k]


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       beam_width=st.integers(min_value=1, max_value=10),
       uniform=st.booleans())
def test_prefix_beam_search_equals_full_sort(seed, beam_width, uniform):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, beam_width + 1))
    if uniform:
        # every row uniform: many prefixes tie on score and length
        symbols = tuple(f"p{i}" for i in range(int(rng.integers(1, 4))))
        frames = int(rng.integers(1, 7))
        logp = np.log(np.full((frames, len(symbols) + 1), 1.0 / (len(symbols) + 1)))
        grid = PosteriorGrid("u", Alphabet(symbols), logp)
    else:
        # a small concentration peaks rows and underflows cells to LOG_ZERO
        grid = synth.random_grid(rng, max_frames=10, max_symbols=5,
                                 concentration=float(rng.choice([0.1, 0.5, 2.0])))
    got = prefix_beam_search(grid, beam_width, k)
    want = _reference_beam(grid, beam_width, k)
    assert _bits((h.sequence, h.log_score) for h in got) == _bits(want)
