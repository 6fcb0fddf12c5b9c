"""The fast decode paths and the shared marginal sum against test-local
copies of the code they replaced, on random inputs: equal lists, with
bitwise-equal floats.

``generate_top_s`` reads memoized scorer rows, grows each entry by its
counted units plus the first ``width`` uncounted ones in string order, and
stops as soon as no later completion can enter the top s; the reference
grows every entry by every candidate, fully sorts each level, runs every one
of the ``max_len + 1`` levels and recomputes each smoothed distribution
from the raw counts. ``prefix_beam_search``
extends the whole beam at once as a (beam x (V+1)) numpy array, merges each
member with its parent's extension, and selects with an ``np.partition``
threshold and ``heapq.nsmallest``; the reference grows one prefix and one
label at a time in dicts and fully sorts every frame. ``skm_log_marginal``
and ``sskm_log_marginal`` build weighted hypothesis lists for
``tkm_log_marginal``; the references write out each estimator's own sum.
``forward_logprob`` computes each frame over its reachable band of states in
two alternating buffers, and skips from s - 2 on label states only; the
reference copies alpha, indexes the emissions every frame and runs every
state. The beam's blank merge is one ``np.logaddexp``, which differs from
``log_add`` only on a -0.0 mass, so the beam cases include one-hot rows whose
cell is -0.0. ``train_scorer`` walks each distinct pair
once and adds its multiplicity; the reference counts pair by pair.
``log_score``, ``step_log_probs`` and ``train_scorer`` take every step's
state key from one ``_keys`` walk, and ``generate_top_s`` takes each level's
window from the same ``_windows``; the reference is ``_state_key`` called
step by step.
"""

from __future__ import annotations

import dataclasses
import math
import random
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2g import synth
from p2g.ctc import (
    BLANK,
    Alphabet,
    PosteriorGrid,
    collapse,
    forward_logprob,
    prefix_beam_search,
    sample_k_hypotheses,
)
from p2g.logmath import LOG_ZERO, log_add, log_sum
from p2g.marginal import skm_log_marginal, sskm_log_marginal
from p2g.scorer import (
    BOS,
    EOS,
    NGramScorer,
    TargetText,
    lid_token,
    save_scorer,
    train_scorer,
)
from p2g.seeding import derive_rng
from p2g.selftest import HashScorer

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


def _random_scorer(rnd: random.Random, letters: str | None = None,
                   order: int | None = None) -> NGramScorer:
    phones = [f"p{i}" for i in range(rnd.randint(1, 5))]
    if letters is None:
        letters = "abcdef"[:rnd.randint(1, 6)]
    lids = ["xa", "xb", "xc"][:rnd.randint(1, 3)]
    if order is None:
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


@pytest.mark.parametrize("beam_width", [1, 2, 3, None])
@pytest.mark.parametrize("counts", ["none", "some"])
def test_generate_top_s_takes_zero_count_units_in_string_order(beam_width, counts):
    """Units and languages are stored out of string order. Zero-count
    children tie on score, so the ones kept are the first in string order,
    not in stored order."""
    lids = ("xc", "xa", "xb")
    table = {}
    if counts == "some":
        table = {((), (BOS,)): {lid_token("xb"): 2},
                 ((), (lid_token("xb"),)): {"c": 3, EOS: 1},
                 ((), ("c",)): {"c": 1}}
    scorer = NGramScorer(order=2, smoothing_alpha=0.5, context_window=0,
                         languages=lids, units=("d", "c", "b", "a"), counts=table)
    got = scorer.generate_top_s((), 6, max_len=3, beam_width=beam_width)
    assert _bits(got) == _bits(_reference_generate(scorer, (), 6, 3, beam_width))


# Latin, Latin with diacritics and Cyrillic; string order puts é after z and ё after я
_WIDE_LETTERS = "abcdeéèêfgijkmnoöprsštuüvzžабвгдеёжзийклмнопрстуфхцчшщъыьэюя"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       s=st.integers(min_value=1, max_value=6),
       max_len=st.integers(min_value=0, max_value=5),
       shuffled=st.booleans())
def test_generate_top_s_equals_full_depth_on_wide_inventories(seed, s, max_len, shuffled):
    """|U| from 8 to 40 with a beam narrower than |U|. The inventory holds
    every letter, trained or not, so most units of a row have zero count and
    only some of them may be grown."""
    rnd = random.Random(seed)
    letters = rnd.sample(_WIDE_LETTERS, rnd.randint(8, 40))
    scorer = _random_scorer(rnd, letters="".join(letters))
    if not shuffled:
        letters.sort()
    scorer = dataclasses.replace(scorer, units=tuple(letters))
    beam_width = rnd.randint(1, len(letters) - 1)
    phonemes = tuple(f"p{rnd.randint(0, 4)}" for _ in range(rnd.randint(0, 7)))
    got = scorer.generate_top_s(phonemes, s, max_len, beam_width=beam_width)
    want = _reference_generate(scorer, phonemes, s, max_len, beam_width)
    assert _bits(got) == _bits(want)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       order=st.integers(min_value=1, max_value=3))
def test_step_log_probs_equal_reference_distribution(seed, order):
    """At order 1, step 0 and the later steps share state keys but not
    candidate sets, so their rows must not be shared. Each text is scored
    twice: a row read from the memo must equal the one just built."""
    rnd = random.Random(seed)
    scorer = _random_scorer(rnd, order=order)
    for _ in range(4):
        phonemes = tuple(f"p{rnd.randint(0, 4)}" for _ in range(rnd.randint(0, 7)))
        n = rnd.randint(0, 6) if scorer.units else 0
        graphemes = "".join(rnd.choices(scorer.units, k=n))
        y = TargetText(rnd.choice(scorer.languages), graphemes)
        stream = (lid_token(y.lid), *y.graphemes, EOS)
        want = []
        for step, unit in enumerate(stream):
            key = scorer._state_key(phonemes, step, stream[:step])
            want.append(dict(_reference_distribution(scorer, key, step))[unit])
        for _ in range(2):
            got = scorer.step_log_probs(y, phonemes)
            assert [float.hex(v) for v in got] == [float.hex(v) for v in want]


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


def _with_one_hot_rows(grid, rng, share):
    """The grid with about ``share`` of its rows made certain: -0.0 on the
    row's most likely cell, LOG_ZERO elsewhere."""
    logp = grid.logp.copy()
    for t in np.flatnonzero(rng.random(grid.frames) < share):
        hot = int(np.argmax(logp[t]))
        logp[t] = LOG_ZERO
        logp[t, hot] = -0.0
    return PosteriorGrid(grid.utterance_id, grid.alphabet, logp)


def _same_float(got, want):
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


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
       uniform=st.booleans(),
       one_hot=st.sampled_from([0.0, 0.5, 1.0]))
def test_prefix_beam_search_equals_full_sort(seed, beam_width, uniform, one_hot):
    """``one_hot`` makes that share of the rows certain, with -0.0 cells."""
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
    grid = _with_one_hot_rows(grid, rng, one_hot)
    got = prefix_beam_search(grid, beam_width, k)
    want = _reference_beam(grid, beam_width, k)
    assert _bits((h.sequence, h.log_score) for h in got) == _bits(want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       beam_width=st.integers(min_value=1, max_value=64),
       kind=st.sampled_from(["uniform", "sparse", "dirichlet", "one-hot"]),
       full_k=st.booleans())
def test_prefix_beam_search_equals_full_sort_at_bench_shapes(seed, beam_width, kind,
                                                              full_k):
    """Up to V = 40, 25 frames and width 64, the sizes where the array form
    prunes hardest: uniform rows tie at the cut-off, a concentration of
    0.05-0.1 leaves zero cells, k = width returns the whole beam, and
    one-hot rows hold -0.0 cells."""
    rng = np.random.default_rng(seed)
    k = beam_width if full_k else int(rng.integers(1, beam_width + 1))
    symbols = tuple(f"p{i}" for i in range(int(rng.integers(1, 41))))
    frames = int(rng.integers(1, 26))
    if kind == "uniform":
        logp = np.log(np.full((frames, len(symbols) + 1), 1.0 / (len(symbols) + 1)))
        grid = PosteriorGrid("u", Alphabet(symbols), logp)
    else:
        concentration = float(rng.uniform(0.05, 0.1)) if kind == "sparse" else 1.0
        grid = synth.random_grid(rng, frames=frames, symbols=symbols,
                                 concentration=concentration)
        if kind == "one-hot":
            grid = _with_one_hot_rows(grid, rng, 0.5)
    got = prefix_beam_search(grid, beam_width, k)
    want = _reference_beam(grid, beam_width, k)
    assert _bits((h.sequence, h.log_score) for h in got) == _bits(want)


# ---- reference: each sampled marginal's own sum ---------------------------


def _reference_skm(grid, y, scorer, k, rng):
    distinct = sorted(set(sample_k_hypotheses(grid, k, rng)))
    terms = [forward_logprob(grid, h) + scorer.log_score(y, grid.alphabet.to_symbols(h))
             for h in distinct]
    return log_sum(terms)


def _reference_sskm(grid, y, scorer, k, rng):
    tally = Counter(sample_k_hypotheses(grid, k, rng))
    terms = [scorer.log_score(y, grid.alphabet.to_symbols(h)) + math.log(n)
             for h, n in sorted(tally.items())]
    return log_sum(terms) - math.log(k)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       k=st.one_of(st.just(1), st.integers(min_value=2, max_value=400)),
       zeros=st.booleans())
def test_sampled_marginals_equal_their_own_sums(seed, k, zeros):
    """Up to 4 frames over up to 3 symbols, so a large k draws each sequence
    many times. ``zeros`` sets cells to probability zero, keeping each row's
    largest cell, so some paths and sequences are unreachable."""
    rng = np.random.default_rng(seed)
    grid = synth.random_grid(rng, max_frames=4, max_symbols=3)
    if zeros:
        probs = np.exp(grid.logp)
        mask = rng.random(probs.shape) < 0.4
        mask[0, np.argmin(probs[0])] = True
        mask[np.arange(grid.frames), np.argmax(probs, axis=1)] = False
        with np.errstate(divide="ignore"):
            logp = np.log(np.where(mask, 0.0, probs))
        grid = PosteriorGrid.renormalized("u", grid.alphabet, logp)
        assert np.isneginf(grid.logp).any()
    scorer = HashScorer(str(seed))
    y = TargetText("xx", "ab")
    for estimator, reference in ((skm_log_marginal, _reference_skm),
                                 (sskm_log_marginal, _reference_sskm)):
        got = estimator(grid, y, scorer, k, derive_rng(seed, "marginal"))
        assert got == reference(grid, y, scorer, k, derive_rng(seed, "marginal"))


# ---- reference: forward recursion with a copied alpha per frame -----------


def _reference_forward(grid, h):
    lp = grid.logp
    ext = np.empty(2 * len(h) + 1, dtype=np.int64)
    ext[0::2] = BLANK
    ext[1::2] = h
    states = ext.shape[0]
    allow_skip = np.zeros(states, dtype=bool)
    if states > 2:
        allow_skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])
    alpha = np.full(states, LOG_ZERO)
    alpha[0] = lp[0, BLANK]
    if states > 1:
        alpha[1] = lp[0, ext[1]]
    for t in range(1, lp.shape[0]):
        prev = alpha
        alpha = prev.copy()
        alpha[1:] = np.logaddexp(alpha[1:], prev[:-1])
        if states > 2:
            skip = np.where(allow_skip[2:], prev[:-2], LOG_ZERO)
            alpha[2:] = np.logaddexp(alpha[2:], skip)
        alpha += lp[t, ext]
    total = float(alpha[-1])
    if states > 1:
        total = log_add(total, float(alpha[-2]))
    return total


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       concentration=st.sampled_from([0.05, 0.5, 2.0]))
def test_forward_logprob_equals_copied_alpha_recursion(seed, concentration):
    """Sequences of length 0 to frames + 2 on one grid, so some are
    unreachable; two symbols at most make repeated labels, and the skip
    rule they switch off, common. A small concentration leaves -inf cells."""
    rng = np.random.default_rng(seed)
    grid = synth.random_grid(rng, max_frames=8, max_symbols=2,
                             concentration=concentration)
    symbols = grid.alphabet.size - 1
    # n copies of one label need 2n - 1 frames, a blank between each pair
    seqs = [(), (1,) * ((grid.frames + 1) // 2 + 1)]
    for _ in range(6):
        length = int(rng.integers(0, grid.frames + 3))
        seqs.append(tuple(int(c) for c in rng.integers(1, symbols + 1, size=length)))
    for h in seqs:
        assert forward_logprob(grid, h) == _reference_forward(grid, h)
    assert forward_logprob(grid, seqs[1]) == LOG_ZERO


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       frames=st.integers(min_value=1, max_value=60),
       symbols=st.sampled_from([1, 2, 3, 10, 100]),
       one_hot=st.sampled_from([0.0, 0.3, 1.0]))
def test_forward_logprob_band_equals_full_recursion(seed, frames, symbols, one_hot):
    """Up to 60 frames and V = 100, with sequences of length 0 to frames + 2,
    so S = 2|h| + 1 sits below, near and above T and both band edges cut
    states. Rows are peaked on a reference of ``frames`` phonemes and cut to
    ``frames`` rows; one symbol makes every label a repeat. ``one_hot``
    makes that share of the rows certain, with -0.0 and LOG_ZERO cells; with
    every row certain the most likely sequence scores a signed zero."""
    rng = np.random.default_rng(seed)
    alphabet = Alphabet(tuple(f"p{i}" for i in range(symbols)))
    ref = tuple(alphabet.symbols[i] for i in rng.integers(0, symbols, size=frames))
    peaked = synth.grid_for_phonemes(rng, alphabet, ref, "u")
    grid = _with_one_hot_rows(PosteriorGrid("u", alphabet, peaked.logp[:frames]),
                              rng, one_hot)
    ref_ids = alphabet.to_indices(ref)
    best = collapse(np.argmax(grid.logp, axis=1))
    seqs = [(), best, best[:-1], ref_ids[:(frames + 1) // 2], ref_ids,
            ref_ids + ref_ids[:2]]
    for _ in range(6):
        length = int(rng.integers(0, frames + 3))
        if rng.random() < 0.5:
            seqs.append(ref_ids[:length])
        else:
            seqs.append(tuple(int(c) for c in rng.integers(1, symbols + 1, size=length)))
    for h in seqs:
        assert _same_float(forward_logprob(grid, h), _reference_forward(grid, h))


# ---- reference: train_scorer counting one pair at a time ------------------


def _reference_train(pairs, order, alpha, window):
    languages = tuple(sorted({text.lid for _, text in pairs}))
    units = tuple(sorted({ch for _, text in pairs for ch in text.graphemes}))
    probe = NGramScorer(order=order, smoothing_alpha=alpha, context_window=window,
                        languages=languages, units=units, counts={})
    counts = defaultdict(Counter)
    for phonemes, text in pairs:
        phonemes = tuple(phonemes)
        stream = (lid_token(text.lid), *text.graphemes, EOS)
        for step, unit in enumerate(stream):
            counts[probe._state_key(phonemes, step, stream[:step])][unit] += 1
    return NGramScorer(order=order, smoothing_alpha=alpha, context_window=window,
                       languages=languages, units=units,
                       counts={key: dict(bucket) for key, bucket in counts.items()})


def _key_order(scorer):
    return [(key, list(bucket)) for key, bucket in scorer.counts.items()]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       order=st.integers(min_value=1, max_value=3),
       window=st.integers(min_value=0, max_value=2))
def test_train_scorer_counts_repeated_pairs_once(seed, order, window):
    """Oversampled copies: a few distinct pairs, each repeated up to five
    times, shuffled; phonemes come as lists or tuples."""
    rnd = random.Random(seed)
    distinct = []
    for _ in range(rnd.randint(1, 6)):
        ph = tuple(f"p{rnd.randint(0, 3)}" for _ in range(rnd.randint(0, 5)))
        text = "".join(rnd.choice("abc") for _ in range(rnd.randint(0, 5)))
        distinct.append((ph, TargetText(rnd.choice(["xa", "xb"]), text)))
    pairs = [(list(ph) if rnd.random() < 0.5 else ph, text)
             for ph, text in distinct for _ in range(rnd.randint(1, 5))]
    rnd.shuffle(pairs)
    got = train_scorer(pairs, order=order, smoothing_alpha=0.1, context_window=window)
    want = _reference_train(pairs, order, 0.1, window)
    assert got.counts == want.counts
    assert _key_order(got) == _key_order(want)
    assert (got.languages, got.units) == (want.languages, want.units)
    with tempfile.TemporaryDirectory() as tmp:
        save_scorer(got, Path(tmp) / "got.json")
        save_scorer(want, Path(tmp) / "want.json")
        assert (Path(tmp) / "got.json").read_bytes() == (Path(tmp) / "want.json").read_bytes()


# ---- the flat state-key walk against _state_key ---------------------------


def _phones(rnd, pool, most):
    return tuple(rnd.choice(pool) for _ in range(rnd.randint(0, most)))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       order=st.integers(min_value=1, max_value=4),
       window=st.integers(min_value=0, max_value=2))
def test_scoring_and_training_equal_the_state_key_walk(seed, order, window):
    """``log_score``, ``step_log_probs``, ``train_scorer`` and ``generate_top_s``
    walk state keys from ``_windows`` and read memo rows inline; the reference calls
    ``_row(_state_key(phonemes, step, stream[:step]), step)`` step by step on
    a separately trained copy (its own memo) and sums left to right. Phonemes
    may be empty, texts run past the phoneme sequence, and scored inputs use
    phonemes and letters never counted, so many keys have no counts."""
    rnd = random.Random(seed)
    alpha = rnd.choice([1e-30, 0.05, 0.5, 1])
    pairs = [(_phones(rnd, ["p0", "p1", "p2"], 5),
              TargetText(rnd.choice(["xa", "xb"]),
                         "".join(rnd.choices("abc", k=rnd.randint(0, 8)))))
             for _ in range(rnd.randint(1, 8))]
    scorer = train_scorer(pairs, order=order, smoothing_alpha=alpha, context_window=window)
    ref = _reference_train(pairs, order, alpha, window)
    assert scorer.counts == ref.counts and _key_order(scorer) == _key_order(ref)
    for _ in range(6):
        phonemes = _phones(rnd, ["p0", "p1", "p2", "p3", "p4"], 6)
        n = len(phonemes) + rnd.randint(0, 4) if rnd.random() < 0.5 else rnd.randint(0, 3)
        y = TargetText(rnd.choice(scorer.languages), "".join(rnd.choices("abcz", k=n)))
        stream = (lid_token(y.lid), *y.graphemes, EOS)
        keys = [ref._state_key(phonemes, step, stream[:step]) for step in range(len(stream))]
        want = []
        for step, (key, unit) in enumerate(zip(keys, stream)):
            floor, seen = ref._row(key, step)
            want.append(seen.get(unit, floor))
        total = 0.0
        for value in want:
            total += value
        assert list(scorer._keys(list(phonemes), stream)) == keys
        for _ in range(2):  # rows built, then read from the memo
            assert [float.hex(v) for v in scorer.step_log_probs(y, phonemes)] == \
                [float.hex(v) for v in want]
            assert float.hex(scorer.log_score(y, phonemes)) == float.hex(total)
        assert scorer.generate_top_s(phonemes, 2, max_len=n, beam_width=3) == \
            _reference_generate(ref, phonemes, 2, n, 3)
    # every key without counts shares one row, so the memo holds no such key
    for rows in scorer._rows:  # type: ignore[attr-defined]
        assert set(rows) <= set(scorer.counts) | {None}
