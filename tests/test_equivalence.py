"""The fast decode paths and the shared marginal sum against test-local
copies of the code they replaced, on random inputs: equal lists, with
bitwise-equal floats.

``generate_top_s`` reads each row's children from the whole table built
for its width (its counted units plus the first ``width`` uncounted ones in
string order, best first; a key without counts reads the floor row's),
grows each entry only by the children scoring at or below the level's
threshold ``thr``, ends a level at an entry above both ``thr`` and the
completion cutoff, and stops as soon as no later completion can enter
the top s. Its tie cases use alpha = 1e17 (where n + alpha == alpha) or an
explicit count of 0, so counted children tie uncounted ones at ``thr``. The
reference grows every entry by every candidate, fully sorts each level, runs
every one of the ``max_len + 1`` levels and recomputes each smoothed
distribution from the raw counts. ``prefix_beam_search`` extends the whole
beam at once as a (beam x (V+1)) numpy array, merges each member with the
extension of its parent, found by prefix id, and keeps what reaches an
``np.partition`` threshold, sorting prefixes only for a tie at the cut; the
reference grows one prefix and one label at a time in dicts and fully sorts
every frame. Its cases include long grids at widths 1-4, where a parent
often drops out and comes back while its child stays. ``skm_log_marginal``
and ``sskm_log_marginal`` build weighted hypothesis lists for
``tkm_log_marginal``; the references write out each estimator's own sum.
``forward_logprob`` scores a whole batch in one padded state array, each
frame over the batch's band of states in two alternating buffers, and skips
from s - 2 on label states only; the reference scores one sequence, copies
alpha, indexes the emissions every frame and runs every state. The beam's
blank merge is one ``np.logaddexp``, which differs from ``log_add`` only on
a -0.0 mass, so the beam cases include one-hot rows whose cell is -0.0.
``train_scorer`` walks each distinct pair once and adds its multiplicity;
the reference counts pair by pair.
``train_scorer``, ``step_log_probs`` (so ``log_score``) and ``generate_top_s``
take every step's window from one endless ``_windows`` walk and its history
from ``_hists``, scoring through the text's cached plan; the reference is the
test-local ``_state_key``, called step by step past the text's end, and the
test-local ``_row`` reads the row of one key. The plan cache holds the last
text object of one scorer: texts in any order, equal but distinct objects and
two scorers sharing a text all read a fresh scorer's bits. The row and
children tables, keyed history first and flattened by ``_flat`` here, hold
exactly the keys whose counts meet each step kind's candidate set, including
a key counted only at 0 and, at order 1, a key counted for one kind and not
the other; keys with equal counts share one row and one children entry.
"""

from __future__ import annotations

import dataclasses
import math
import random
import tempfile
from collections import Counter, defaultdict
from functools import reduce
from operator import add
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
    _hists,
    _windows,
    lid_token,
    save_scorer,
    train_scorer,
)
from p2g.seeding import derive_rng
from p2g.selftest import HashScorer

# ---- reference: full-depth text generation --------------------------------


def _state_key(scorer, phonemes, step, history):
    """The state key of one step, computed alone: the phoneme window around a
    monotone alignment position and the BOS-padded last ``order - 1`` units."""
    m = len(phonemes)
    if m == 0:
        ctx = ()
    else:
        # monotone alignment: grapheme i sits near phoneme i, clamped to
        # the tail; the lid step looks at the head of the sequence
        pos = 0 if step == 0 else min(step - 1, m - 1)
        lo = max(0, pos - scorer.context_window)
        hi = min(m, pos + scorer.context_window + 1)
        ctx = tuple(phonemes[lo:hi])
    need = scorer.order - 1
    hist = tuple(history[-need:]) if need else ()
    if len(hist) < need:
        hist = (BOS,) * (need - len(hist)) + hist
    return ctx, hist


def _row(scorer, key, step):
    """The ``_rows`` row that ``key`` reads at ``step``."""
    tables, floor = scorer._rows[step > 0]  # type: ignore[attr-defined]
    win, hist = key
    return tables.get(hist, {}).get(win, floor)


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
    key = _state_key(scorer, phonemes, 0, ())
    layer = [((unit,), lp) for unit, lp in _reference_distribution(scorer, key, 0)]
    layer.sort(key=lambda it: (-it[1], it[0]))
    layer = layer[:width]
    step = 1
    while layer and step <= max_len + 1:
        grown = []
        for stream, score in layer:
            key = _state_key(scorer, phonemes, step, stream)
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
    twice: the second read of the built tables must equal the first."""
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
            key = _state_key(scorer, phonemes, step, stream[:step])
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


def _tie_scorer(case, table):
    """``table`` maps a history unit to counts of "tie" or "big"; at alpha
    1e17 a count of 1 adds nothing (n + alpha == alpha in floats), and an
    explicit count of 0 always adds nothing, so a "tie" unit scores exactly
    as the zero-count ones do while still being in its row's bucket."""
    alpha, n = {"huge-alpha": (1e17, {"tie": 1, "big": 10**18}),
                "zero-count": (0.5, {"tie": 0, "big": 3})}[case]
    counts = {((), (hist,)): {unit: n[kind] for unit, kind in row.items()}
              for hist, row in table.items()}
    return NGramScorer(order=2, smoothing_alpha=alpha, context_window=0,
                       languages=("xb", "xa"), units=("d", "c", "b", "a"), counts=counts)


@pytest.mark.parametrize("beam_width", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("case", ["huge-alpha", "zero-count"])
def test_generate_top_s_keeps_ties_at_the_threshold(case, s, beam_width):
    """Counted units tie the zero-count ones and string order puts some of
    them after zero-count units ("c" after "a" and "b", <lid:xb> after
    <lid:xa>), so the ``thr`` cut of the ordered growth falls inside a group
    of tied children. Every tied child must still compete on the stream."""
    lid_a, lid_b = lid_token("xa"), lid_token("xb")
    scorer = _tie_scorer(case, {BOS: {lid_b: "tie"},
                                lid_a: {"c": "tie", "d": "big", EOS: "tie"},
                                lid_b: {"c": "tie", "a": "big"},
                                "c": {"c": "tie", "b": "tie"},
                                "d": {EOS: "big", "d": "tie"}})
    got = scorer.generate_top_s((), s, max_len=3, beam_width=beam_width)
    assert _bits(got) == _bits(_reference_generate(scorer, (), s, 3, beam_width))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       case=st.sampled_from(["huge-alpha", "zero-count"]),
       s=st.integers(min_value=1, max_value=4),
       beam_width=st.integers(min_value=1, max_value=3),
       max_len=st.integers(min_value=0, max_value=4))
def test_generate_top_s_keeps_random_ties_at_the_threshold(seed, case, s, beam_width,
                                                           max_len):
    """Random rows of "tie" and "big" counts over every history."""
    rnd = random.Random(seed)
    cands = ["a", "b", "c", "d", EOS]
    table = {hist: {unit: rnd.choice(["tie", "tie", "big"])
                    for unit in rnd.sample(cands, rnd.randint(0, 5))}
             for hist in ["a", "b", "c", "d", lid_token("xa"), lid_token("xb")]}
    table[BOS] = {lid: rnd.choice(["tie", "big"])
                  for lid in rnd.sample([lid_token("xa"), lid_token("xb")], rnd.randint(0, 2))}
    scorer = _tie_scorer(case, table)
    got = scorer.generate_top_s((), s, max_len=max_len, beam_width=beam_width)
    assert _bits(got) == _bits(_reference_generate(scorer, (), s, max_len, beam_width))


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


def test_prefix_beam_search_merges_a_parent_that_re_enters():
    """At width 2, (b, a) drops out after frame 2 while its child (b, a, b)
    stays, and comes back at frame 3 by extending (b). At frame 4 the child
    must absorb (b, a)'s extension by b: a member finds its parent by
    prefix, not by the member it grew from."""
    rows = np.log([[0.3, 0.3, 0.4], [0.3, 0.5, 0.2], [0.3, 0.1, 0.6],
                   [0.2, 0.5, 0.3], [0.3, 0.5, 0.2]])
    beams = [[p for p, _ in _reference_beam(PosteriorGrid("u", Alphabet(("a", "b")),
                                                          rows[:frames]), 2, 2)]
             for frames in (3, 4)]
    assert beams == [[(2,), (2, 1, 2)], [(2, 1), (2, 1, 2)]]
    grid = PosteriorGrid("u", Alphabet(("a", "b")), rows)
    for k in (1, 2):
        got = prefix_beam_search(grid, 2, k)
        assert _bits((h.sequence, h.log_score) for h in got) == _bits(_reference_beam(grid, 2, k))


def test_prefix_beam_search_breaks_ties_by_length_then_prefix():
    """Rows (blank, a, b) of weights (3, 1, 1) and (1, 2, 3) at width 2: (a)
    and (b) tie at the cut after frame 0, and (a) keeps its place; after
    frame 1 they tie again, (a) as a sum of two masses and (b) as one; (a) is
    returned first, though the beam holds (b) in an earlier row."""
    weights = np.array([[3.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
    grid = PosteriorGrid("u", Alphabet(("a", "b")),
                         np.log(weights / weights.sum(axis=1, keepdims=True)))
    want = _reference_beam(grid, 2, 2)
    assert [p for p, _ in want] == [(1,), (2,)] and _same_float(want[0][1], want[1][1])
    for k in (1, 2):
        got = prefix_beam_search(grid, 2, k)
        assert _bits((h.sequence, h.log_score) for h in got) == _bits(want[:k])


def test_prefix_beam_search_equals_full_sort_past_4096_prefix_ids():
    """200 frames over 10 symbols at width 64 make more prefix ids than the
    id -> row table first holds, so it grows while the beam runs."""
    grid = synth.random_grid(np.random.default_rng(5), frames=200,
                             symbols=tuple(f"p{i}" for i in range(10)))
    got = prefix_beam_search(grid, 64, 16)
    assert _bits((h.sequence, h.log_score) for h in got) == _bits(_reference_beam(grid, 64, 16))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       beam_width=st.integers(min_value=1, max_value=4),
       kind=st.sampled_from(["dirichlet", "sparse", "one-hot"]))
def test_prefix_beam_search_equals_full_sort_on_long_narrow_beams(seed, beam_width, kind):
    """Up to 60 frames at widths 1-4 over up to 4 symbols: members often
    outlive their parents, and a dropped parent often comes back."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, beam_width + 1))
    grid = synth.random_grid(rng, frames=int(rng.integers(1, 61)), max_symbols=4,
                             concentration=0.1 if kind == "sparse" else 1.0)
    if kind == "one-hot":
        grid = _with_one_hot_rows(grid, rng, 0.3)
    got = prefix_beam_search(grid, beam_width, k)
    want = _reference_beam(grid, beam_width, k)
    assert _bits((h.sequence, h.log_score) for h in got) == _bits(want)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("beam_width", [1, 2, 16])
def test_prefix_beam_search_equals_full_sort_when_no_member_or_every_member_extends(
        seed, beam_width):
    """After one ordinary row, which leaves members of lengths 0 and 1, rows
    alternate between a certain blank (a -0.0 blank, LOG_ZERO labels) and a
    LOG_ZERO blank. On the first kind no member extends, so the next state
    is only gathered. On the second a member stays only as the target of
    its parent's extension, so nearly every row of the next state is
    patched, and at width 1 every row but the dead slot is."""
    rng = np.random.default_rng(seed)
    symbols = tuple(f"p{i}" for i in range(1 + seed % 4))
    frames = int(rng.integers(4, 11))
    logp = np.full((frames, len(symbols) + 1), LOG_ZERO)
    logp[:, 1:] = np.log(rng.dirichlet(np.ones(len(symbols)), size=frames))
    logp[0] = np.log(rng.dirichlet(np.ones(len(symbols) + 1)))
    certain = logp[1 + seed % 2::2]
    certain[:] = LOG_ZERO
    certain[:, BLANK] = -0.0
    grid = PosteriorGrid("u", Alphabet(symbols), logp)
    for k in sorted({1, min(2, beam_width), min(5, beam_width), beam_width}):
        got = prefix_beam_search(grid, beam_width, k)
        assert _bits((h.sequence, h.log_score) for h in got) == \
            _bits(_reference_beam(grid, beam_width, k))


# ---- reference: each sampled marginal's own sum ---------------------------


def _reference_skm(grid, y, scorer, k, rng):
    distinct = sorted(set(sample_k_hypotheses(grid, k, rng)))
    terms = [forward_logprob(grid, [h])[0] + scorer.log_score(y, grid.alphabet.to_symbols(h))
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
        assert forward_logprob(grid, [h])[0] == _reference_forward(grid, h)
    assert forward_logprob(grid, [seqs[1]])[0] == LOG_ZERO


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
        assert _same_float(forward_logprob(grid, [h])[0], _reference_forward(grid, h))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       frames=st.integers(min_value=1, max_value=30),
       symbols=st.sampled_from([1, 2, 3, 100]),
       concentration=st.sampled_from([0.05, 0.5, 2.0]),
       one_hot=st.sampled_from([0.0, 0.3, 1.0]))
def test_forward_logprob_batch_equals_each_sequence_alone(seed, frames, symbols,
                                                          concentration, one_hot):
    """One batch mixes lengths 0 to frames + 2, in random order: the empty
    sequence, one that needs more frames than the grid has (n copies of a
    label need 2n - 1), the argmax path's sequence and random ones, with
    repeated labels common at V = 1 and 2. Short sequences get pad states
    above their last state; without the empty sequence the band's lower edge
    rises, set by the shortest. A small concentration leaves -inf cells,
    one-hot rows -0.0 ones, and a grid of certain blanks scores the empty
    sequence -0.0. Each entry is bitwise the reference recursion and the
    sequence scored alone; a bad index anywhere refuses the batch."""
    rng = np.random.default_rng(seed)
    grid = synth.random_grid(rng, frames=frames, concentration=concentration,
                             symbols=tuple(f"p{i}" for i in range(symbols)))
    grid = _with_one_hot_rows(grid, rng, one_hot)
    unreachable = (1,) * ((frames + 1) // 2 + 1)
    seqs = [(), unreachable, collapse(np.argmax(grid.logp, axis=1))]
    for _ in range(int(rng.integers(1, 8))):
        length = int(rng.integers(0, frames + 3))
        seqs.append(tuple(int(c) for c in rng.integers(1, symbols + 1, size=length)))
    seqs = [seqs[i] for i in rng.permutation(len(seqs))]
    for batch in (seqs, [h for h in seqs if h]):
        got = forward_logprob(grid, batch)
        assert len(got) == len(batch)
        for h, lp in zip(batch, got):
            assert _same_float(lp, _reference_forward(grid, h))
            assert _same_float(lp, forward_logprob(grid, [h])[0])
        assert got[batch.index(unreachable)] == LOG_ZERO
    # every frame certain to be blank: the empty sequence scores -0.0
    certain = PosteriorGrid("u", grid.alphabet, np.where(
        np.arange(grid.alphabet.size) == BLANK, -0.0, np.full(grid.logp.shape, LOG_ZERO)))
    for h, lp in zip(seqs, forward_logprob(certain, seqs)):
        assert _same_float(lp, _reference_forward(certain, h))
    assert forward_logprob(grid, []) == []
    for bad in (BLANK, 1.5, symbols + 1):
        at = int(rng.integers(len(seqs)))
        h = seqs[at]
        cut = int(rng.integers(len(h) + 1))
        broken = seqs[:at] + [h[:cut] + (bad,) + h[cut:]] + seqs[at + 1:]
        with pytest.raises(ValueError, match="is not a phoneme index"):
            forward_logprob(grid, broken)


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
            counts[_state_key(probe, phonemes, step, stream[:step])][unit] += 1
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
    walk state keys from ``_windows`` and read table rows inline; the reference calls
    ``_row(ref, _state_key(ref, phonemes, step, stream[:step]), step)`` step by step on
    a separately trained copy (its own tables) and sums left to right. Phonemes
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
        keys = [_state_key(ref, phonemes, step, stream[:step]) for step in range(len(stream))]
        want = []
        for step, (key, unit) in enumerate(zip(keys, stream)):
            floor, seen = _row(ref, key, step)
            want.append(seen.get(unit, floor))
        total = 0.0
        for value in want:
            total += value
        longer = stream + ("z",) * 3  # generation walks past the text's end
        assert list(zip(_windows(list(phonemes), window), _hists(longer, order))) == \
            [_state_key(ref, phonemes, step, longer[:step]) for step in range(len(longer))]
        for _ in range(2):  # tables built, then read again
            assert [float.hex(v) for v in scorer.step_log_probs(y, phonemes)] == \
                [float.hex(v) for v in want]
            assert float.hex(scorer.log_score(y, phonemes)) == float.hex(total)
        # the narrow width first, so the wide one finds rows it must not reuse
        assert scorer.generate_top_s(phonemes, 1, max_len=n, beam_width=1) == \
            _reference_generate(ref, phonemes, 1, n, 1)
        assert scorer.generate_top_s(phonemes, 2, max_len=n, beam_width=3) == \
            _reference_generate(ref, phonemes, 2, n, 3)
    _assert_whole_tables(scorer, ("p9",) * (2 * window + 1))


def _flat(tables):
    """A history-first ``{hist: {window: value}}`` table as the flat
    ``{(window, hist): value}`` one, with the same value objects."""
    return {(win, hist): value for hist, by_win in tables.items()
            for win, value in by_win.items()}


def _assert_whole_tables(scorer, unseen_ctx):
    """Each step kind's row table holds exactly the keys whose counts meet its
    candidate set, a key without counts reads the floor row itself, and the
    children tables of widths 1 and 3 hold the same keys, the narrow children
    being the wide ones less the zero-count units past the first."""
    lids = {lid_token(c) for c in scorer.languages}
    unseen = (unseen_ctx, (BOS,) * (scorer.order - 1))
    assert unseen not in scorer.counts
    for step, (cands, (tables, floor)) in enumerate(
            zip((lids, {*scorer.units, EOS}), scorer._rows)):  # type: ignore[attr-defined]
        rows = _flat(tables)
        assert set(rows) == {key for key, bucket in scorer.counts.items()
                             if not cands.isdisjoint(bucket)}
        assert _row(scorer, unseen, step) is floor
        assert floor[1] == {} and \
            {lp for _, lp in _reference_distribution(scorer, unseen, step)} == {floor[0]}
        narrow, wide = [(_flat(kids), floor_kids) for kids, floor_kids in
                        (scorer._children(1)[step], scorer._children(3)[step])]
        assert set(narrow[0]) == set(wide[0]) == set(rows)
        for key in [*rows, None]:
            (end, kids), seen = (wide[0][key], rows[key][1]) if key else (wide[1], {})
            extra = sorted(unit for _, unit in kids if unit not in seen)[1:]
            assert (narrow[0][key] if key else narrow[1]) == \
                (end, tuple(c for c in kids if c[1] not in extra))


def test_order_1_tables_keep_step_kinds_apart():
    """At order 1 step 0 and later steps share state keys, so a key can meet
    one candidate set and not the other; an explicit count of 0 puts a key in
    a table while its row keeps the floor values."""
    ctx = [("p0",), ("p1",), ("p2",)]
    scorer = NGramScorer(order=1, smoothing_alpha=0.5, context_window=0,
                         languages=("xa", "xb"), units=("a", "b"),
                         counts={(ctx[0], ()): {"<lid:xa>": 2, "a": 0},
                                 (ctx[1], ()): {"<lid:xb>": 1},
                                 (ctx[2], ()): {"b": 0}})
    (tables0, _), (tables1, floor1) = scorer._rows  # type: ignore[attr-defined]
    rows0, rows1 = _flat(tables0), _flat(tables1)
    assert set(rows0) == {(ctx[0], ()), (ctx[1], ())}
    assert set(rows1) == {(ctx[0], ()), (ctx[2], ())}
    assert _row(scorer, (ctx[1], ()), 1) is floor1
    assert rows1[(ctx[2], ())] == (floor1[0], {"b": floor1[0]})
    for phonemes in [(), ("p0",), ("p1", "p0"), ("p2", "p1", "p0"), ("p3",)]:
        for width in (1, 3):
            assert scorer.generate_top_s(phonemes, 2, max_len=3, beam_width=width) == \
                _reference_generate(scorer, phonemes, 2, 3, width)
        for y in (TargetText("xa", "ab"), TargetText("xb", "bba")):
            stream = (lid_token(y.lid), *y.graphemes, EOS)
            keys = [_state_key(scorer, phonemes, step, stream[:step])
                    for step in range(len(stream))]
            want = [dict(_reference_distribution(scorer, key, step))[unit]
                    for step, (key, unit) in enumerate(zip(keys, stream))]
            assert [float.hex(v) for v in scorer.step_log_probs(y, phonemes)] == \
                [float.hex(v) for v in want]
    _assert_whole_tables(scorer, ("p9",))


@pytest.mark.parametrize("order", [1, 3])
def test_keys_with_equal_counts_share_one_row_and_its_children(order):
    """Keys whose counts in a step kind's candidate set are equal (in any
    insertion order, and whatever they count outside it) read one row object
    and one children entry, each equal to the row and children computed for
    that key alone; both floor rows have no counts but stay apart."""
    buckets = [{"<lid:xa>": 2}, {"<lid:xa>": 2, "<lid:xb>": 0}, {"a": 1, EOS: 3},
               {EOS: 3, "a": 1}, {"b": 0}, {"<lid:xa>": 2, "a": 1, EOS: 3},
               {"<lid:xb>": 1, "b": 0}, {"a": 1}]
    hists = [()] if order == 1 else [(BOS, BOS), (BOS, "<lid:xa>"), ("<lid:xb>", "a")]
    counts = {((f"p{i}",), hists[i % len(hists)]): dict(bucket)
              for i, bucket in enumerate(buckets * 2)}
    scorer = NGramScorer(order=order, smoothing_alpha=0.5, context_window=0,
                         languages=("xa", "xb"), units=("a", "b"), counts=counts)
    alpha = scorer.smoothing_alpha
    (_, floor0), (_, floor1) = scorer._rows  # type: ignore[attr-defined]
    assert floor0 is not floor1
    assert floor0 == (math.log(alpha / (2 * alpha)), {})
    assert floor1 == (math.log(alpha / (3 * alpha)), {})
    for step, cands in enumerate(({"<lid:xa>", "<lid:xb>"}, {"a", "b", EOS})):
        tables, floor = scorer._rows[step]  # type: ignore[attr-defined]
        rows = _flat(tables)
        kids = [(_flat(table), floor_kids)
                for table, floor_kids in (scorer._children(width)[step] for width in (1, 3))]
        first: dict = {}
        for key, bucket in counts.items():
            counted = {u: c for u, c in bucket.items() if u in cands}
            if not counted:
                assert key not in rows
                continue
            dist = dict(_reference_distribution(scorer, key, step))
            want_floor = math.log(alpha / (sum(counted.values()) + alpha * len(cands)))
            assert float.hex(rows[key][0]) == float.hex(want_floor)
            assert {u: float.hex(lp) for u, lp in rows[key][1].items()} == \
                {u: float.hex(dist[u]) for u in counted}
            units = sorted(dist.keys() - {EOS})
            for width, (table, _) in zip((1, 3), kids):
                grown = [u for u in units if u in counted] + \
                    [u for u in units if u not in counted][:width]
                assert table[key] == (dist.get(EOS, want_floor), tuple(
                    sorted(((dist[u], u) for u in grown), key=lambda kid: (-kid[0], kid[1]))))
            same = first.setdefault(frozenset(counted.items()), key)
            assert rows[key] is rows[same]
            assert all(table[key] is table[same] for table, _ in kids)
        assert len({id(rows[key]) for key in first.values()}) == len(first)
        assert not any(row is floor0 or row is floor1 for row in rows.values())
    _assert_whole_tables(scorer, ("p99",))


# ---- the per-text score plan ------------------------------------------------


def _reference_steps(ref, y, phonemes):
    """Each step's log-prob, read row by row along the ``_state_key`` walk."""
    stream = (lid_token(y.lid), *y.graphemes, EOS)
    return [(row := _row(ref, _state_key(ref, phonemes, step, stream[:step]), step))[1]
            .get(unit, row[0]) for step, unit in enumerate(stream)]


def _fresh(scorer):
    """A copy of ``scorer`` with no table and no plan built yet."""
    return dataclasses.replace(scorer)


def _hexes(values):
    return [float.hex(v) for v in values]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       order=st.integers(min_value=1, max_value=4),
       window=st.integers(min_value=0, max_value=2))
def test_plan_cache_scores_texts_in_any_order_as_a_fresh_scorer(seed, order, window):
    """Texts scored in the order A, B, A, then as equal but distinct objects,
    each under several phoneme sequences in turn, read the bits a fresh scorer
    reads for that one call, and the ``_state_key`` walk's."""
    rnd = random.Random(seed)
    alpha = rnd.choice([1e-30, 0.05, 0.5, 1])
    pairs = [(_phones(rnd, ["p0", "p1", "p2"], 5),
              TargetText(rnd.choice(["xa", "xb"]),
                         "".join(rnd.choices("abc", k=rnd.randint(0, 8)))))
             for _ in range(rnd.randint(1, 8))]
    scorer = train_scorer(pairs, order=order, smoothing_alpha=alpha, context_window=window)
    ref = _reference_train(pairs, order, alpha, window)
    a, b = (TargetText(rnd.choice(scorer.languages),
                       "".join(rnd.choices("abcz", k=rnd.randint(0, 6)))) for _ in range(2))
    for y in (a, b, a, TargetText(a.lid, a.graphemes), TargetText(b.lid, b.graphemes)):
        for phonemes in [_phones(rnd, ["p0", "p1", "p2", "p3"], 6) for _ in range(3)]:
            want = _reference_steps(ref, y, phonemes)
            assert _hexes(scorer.step_log_probs(y, list(phonemes))) == _hexes(want)
            assert float.hex(scorer.log_score(y, phonemes)) == \
                float.hex(_fresh(scorer).log_score(y, phonemes)) == \
                float.hex(reduce(add, want, 0.0))


@pytest.mark.parametrize("order", [1, 2, 4])
def test_plan_matches_the_state_key_walk_on_empty_phonemes_and_long_texts(order):
    """One text object under no phonemes, then under phoneme sequences much
    shorter than it, where every step past the last phoneme reads its window."""
    pairs = [(("p0", "p1", "p2"), TargetText("xa", "abcab")), ((), TargetText("xb", "ba")),
             (("p2",), TargetText("xa", "cccccccc"))]
    scorer = train_scorer(pairs, order=order, smoothing_alpha=0.5, context_window=1)
    ref = _reference_train(pairs, order, 0.5, 1)
    for y in (TargetText("xa", "abcabcabcc"), TargetText("xb", ""), TargetText("xa", "cccccccc")):
        for phonemes in [(), ("p2",), ("p0", "p1"), (), ("p9", "p2", "p0")]:
            want = _reference_steps(ref, y, phonemes)
            assert _hexes(scorer.step_log_probs(y, phonemes)) == _hexes(want)
            assert float.hex(scorer.log_score(y, phonemes)) == float.hex(reduce(add, want, 0.0))


def test_unknown_language_raises_right_after_a_known_text():
    """The language check runs on every plan build: a text of an unknown
    language raises after a known one was scored, every time, and leaves the
    known text's scores as they were."""
    scorer = train_scorer([(("p0",), TargetText("xa", "ab")), (("p1",), TargetText("xb", "b"))],
                          order=2)
    known, unknown = TargetText("xa", "ab"), TargetText("xc", "ab")
    want = [scorer.log_score(known, phonemes) for phonemes in [("p0",), ()]]
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown language 'xc'"):
            scorer.log_score(unknown, ("p0",))
        with pytest.raises(ValueError, match="unknown language 'xc'"):
            scorer.step_log_probs(unknown, ())
        assert [scorer.log_score(known, phonemes) for phonemes in [("p0",), ()]] == want


def test_two_scorers_never_share_a_plan():
    """One text object scored by two scorers in turn reads each scorer's own
    rows, and a language one scorer lacks raises there even right after the
    other scored that very object."""
    pairs = [(("p0", "p1"), TargetText("xa", "ab")), (("p1",), TargetText("xb", "ba")),
             (("p0",), TargetText("xa", "b"))]
    one = train_scorer(pairs, order=2)
    two = train_scorer([pairs[0]] * 3 + [pairs[2]], order=2, smoothing_alpha=0.5)
    y = TargetText("xa", "ab")
    for phonemes in [("p0", "p1"), (), ("p1",), ("p0", "p1")]:
        for scorer in (one, two, one):
            assert float.hex(scorer.log_score(y, phonemes)) == \
                float.hex(_fresh(scorer).log_score(y, phonemes))
    assert one.log_score(y, ("p0",)) != two.log_score(y, ("p0",))
    lone = TargetText("xb", "ba")
    one.log_score(lone, ("p1",))
    with pytest.raises(ValueError, match="unknown language 'xb'"):
        two.log_score(lone, ("p1",))
