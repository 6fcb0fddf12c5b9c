import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2g.ioutil import FormatError
from p2g.scorer import (
    BOS,
    EOS,
    NGramScorer,
    TargetText,
    lid_code,
    lid_token,
    load_scorer,
    save_scorer,
    train_scorer,
)
from test_equivalence import _row, _state_key


def small_scorer(order=2, alpha=0.2, window=1):
    pairs = [
        (("k", "a"), TargetText("xx", "ka")),
        (("k", "a", "t"), TargetText("xx", "kat")),
        (("m", "u"), TargetText("yy", "mu")),
        (("m", "u", "t"), TargetText("yy", "mut")),
    ]
    return train_scorer(pairs, order=order, smoothing_alpha=alpha,
                        context_window=window), pairs


# ---- target text / lid tokens -------------------------------------------


def test_lid_token_format():
    assert lid_token("ky") == "<lid:ky>"
    assert lid_token("pt-br") == "<lid:pt-br>"


@pytest.mark.parametrize("token, code", [
    ("<lid:ky>", "ky"), ("<lid:pt-br>", "pt-br"), ("<lid:>", ""), ("<lid:a>b>", "a>b"),
    ("<lid:xx", None), ("lid:xx>", None), ("<lid>", None), ("", None), ("a", None),
])
def test_lid_code_inverts_lid_token(token, code):
    """``lid_code`` gives back the code that ``lid_token`` writes as the
    token, and None for a string that it writes for no code."""
    assert lid_code(token) == code
    if code is not None:
        assert lid_token(code) == token


def test_target_text_rejects_bad_lid():
    for bad in ("", "KY", "k y", "-x", "a_b", "xx\n"):
        with pytest.raises(ValueError):
            TargetText(bad, "text")


def test_target_text_ordering():
    assert TargetText("aa", "b") < TargetText("ab", "a")
    assert TargetText("aa", "a") < TargetText("aa", "b")


# ---- training -----------------------------------------------------------


def test_train_collects_sorted_inventories():
    sc, _ = small_scorer()
    assert sc.languages == ("xx", "yy")
    assert sc.units == tuple(sorted(sc.units))
    assert set("katmu") <= set(sc.units)


def test_train_rejects_empty():
    with pytest.raises(ValueError):
        train_scorer([])


def test_train_is_order_independent():
    sc, pairs = small_scorer()
    shuffled = list(pairs)
    random.Random(7).shuffle(shuffled)
    sc2 = train_scorer(shuffled, order=2, smoothing_alpha=0.2, context_window=1)
    probes = [(TargetText("xx", "kat"), ("k", "a", "t")),
              (TargetText("yy", "zzz"), ("m",))]
    for y, ph in probes:
        assert sc.log_score(y, ph) == sc2.log_score(y, ph)


def test_config_validation():
    with pytest.raises(ValueError):
        NGramScorer(order=0, smoothing_alpha=0.1, context_window=1,
                    languages=("xx",), units=("a",), counts={})
    with pytest.raises(ValueError):
        NGramScorer(order=2, smoothing_alpha=0.0, context_window=1,
                    languages=("xx",), units=("a",), counts={})
    with pytest.raises(ValueError):
        NGramScorer(order=2, smoothing_alpha=0.1, context_window=-1,
                    languages=("xx",), units=("a",), counts={})
    with pytest.raises(ValueError):
        NGramScorer(order=2, smoothing_alpha=0.1, context_window=1,
                    languages=(), units=("a",), counts={})


@pytest.mark.parametrize("languages,units", [
    (("xa", "xa"), ("a",)),
    (("xa",), ("b", "a", "a")),
    (("xa",), ("a", "ab")),
    (("xa",), ("a", "")),
    (("xa",), ("a", EOS)),
], ids=["duplicate-language", "duplicate-unit", "two-characters", "empty-unit", "eos-unit"])
def test_malformed_inventory_rejected(languages, units):
    """A duplicate would be generated twice and count twice in the
    denominator; a unit other than one character cannot be told apart from
    its neighbours in the grapheme string, or from the end marker."""
    with pytest.raises(ValueError):
        NGramScorer(order=2, smoothing_alpha=0.1, context_window=1,
                    languages=languages, units=units, counts={})


@pytest.mark.parametrize("alpha, count", [
    (math.nan, 1), (math.inf, 1), (0.0, 1), (0.1, -1), (0.1, 1.0), (0.1, True),
])
def test_scorer_rejects_bad_alpha_or_count(alpha, count):
    """The invariants hold however a scorer is built, trained or loaded: a
    NaN alpha would make every score NaN, and a count must be an int >= 0."""
    with pytest.raises(ValueError):
        NGramScorer(order=2, smoothing_alpha=alpha, context_window=0,
                    languages=("xa",), units=("a",),
                    counts={((), (BOS,)): {lid_token("xa"): count}})


@pytest.mark.parametrize("order, window", [(1, 0), (2, 1), (3, 2)])
def test_counts_keys_are_those_a_step_reads(tmp_path, order, window):
    """A step reads the key of its ``order - 1`` unit history and its window
    of at most ``2 * window + 1`` phonemes, none for an empty phoneme
    sequence. A trained scorer holds only such keys and loads back; a key
    with a longer or shorter history, or a wider window, is refused, as no
    step would ever read it."""
    pairs = [((), TargetText("xx", "a")), (tuple("katmu"), TargetText("xx", "kat"))]
    scorer = train_scorer(pairs, order=order, smoothing_alpha=0.1, context_window=window)
    widths = {len(win) for win, _ in scorer.counts}
    assert min(widths) == 0 and max(widths) == 2 * window + 1
    assert {len(hist) for _, hist in scorer.counts} == {order - 1}
    save_scorer(scorer, tmp_path / "scorer.json")
    assert load_scorer(tmp_path / "scorer.json") == scorer
    head = (BOS,) * (order - 1)
    dead = [((), head + (BOS,)), (("k",) * (2 * window + 2), head)]
    for key in dead + [((), head[1:])] * (order > 1):
        with pytest.raises(ValueError, match="no step reads"):
            NGramScorer(order=order, smoothing_alpha=0.1, context_window=window,
                        languages=scorer.languages, units=scorer.units,
                        counts={**scorer.counts, key: {EOS: 1}})


@pytest.mark.parametrize("count, ok", [(1, True), (2, False)])
def test_subnormal_alpha_is_refused_only_where_a_log_prob_underflows(count, ok):
    """alpha / (count + alpha * |C|) is alpha itself at a count of 1, and
    rounds to 0 at a count of 2, where the floor log-prob would be log(0)."""
    alpha, lid = 5e-324, lid_token("xa")

    def build():
        return NGramScorer(order=2, smoothing_alpha=alpha, context_window=0,
                           languages=("xa",), units=("a",),
                           counts={((), (BOS,)): {lid: 1}, ((), (lid,)): {"a": count}})

    if not ok:
        with pytest.raises(ValueError, match="smoothing_alpha"):
            build()
        return
    scorer = build()
    assert scorer.log_score(TargetText("xa", ""), ()) == math.log(alpha)
    assert scorer.generate_top_s((), 1, max_len=1)[0][0] == TargetText("xa", "a")


def test_integer_alpha_round_trips_as_stored(tmp_path):
    """Load checks types and converts nothing, so a scorer trained with an
    integer alpha reloads equal, scores the same and saves the same bytes."""
    scorer, pairs = small_scorer(alpha=1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scorer(scorer, p1)
    back = load_scorer(p1)
    assert back == scorer
    assert [back.log_score(t, ph) for ph, t in pairs] == \
        [scorer.log_score(t, ph) for ph, t in pairs]
    save_scorer(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_malformed_inventory(tmp_path, trained_scorer):
    path = tmp_path / "scorer.json"
    save_scorer(trained_scorer, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["units"].append(payload["units"][0])
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match="duplicate unit"):
        load_scorer(path)


@pytest.mark.parametrize("unit", ["z", "<lid:xb>", "<bos>", ""])
def test_load_rejects_counts_outside_inventory(tmp_path, unit):
    """No row reads a count for a unit that is neither a lid token of the
    scorer's languages, one of its units, nor the end marker, so the file
    is malformed rather than silently scored at the floor."""
    scorer = NGramScorer(order=2, smoothing_alpha=0.1, context_window=0,
                         languages=("xa",), units=("a",),
                         counts={((), (lid_token("xa"),)): {"a": 1, EOS: 2}})
    path = tmp_path / "scorer.json"
    save_scorer(scorer, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["counts"][0]["n"][unit] = 5
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match="outside the scorer inventory"):
        load_scorer(path)


# ---- distributions ------------------------------------------------------


def test_step_zero_distributes_over_lid_tokens_only():
    sc, _ = small_scorer()
    ph = ("k", "a")
    step0 = [sc.step_log_probs(TargetText(code, ""), ph)[0] for code in sc.languages]
    assert sum(math.exp(v) for v in step0) == pytest.approx(1.0, abs=1e-12)


def test_later_steps_form_sub_distribution():
    """At every step past 0, probabilities over units + EOS sum to 1."""
    sc, _ = small_scorer()
    ph = ("k", "a", "t")
    for prefix in ("", "k", "ka", "zz"):
        step = len(prefix) + 1
        floor, seen = _row(sc, _state_key(sc, ph, step, (lid_token("xx"), *prefix)), step)
        total = sum(math.exp(seen.get(u, floor)) for u in sc.units + (EOS,))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_log_score_is_sum_of_steps():
    sc, _ = small_scorer()
    y = TargetText("xx", "kat")
    ph = ("k", "a", "t")
    steps = sc.step_log_probs(y, ph)
    assert len(steps) == len(y.graphemes) + 2  # lid + units + eos
    assert sc.log_score(y, ph) == pytest.approx(sum(steps), abs=0.0)


def test_oov_unit_scores_at_floor():
    sc, _ = small_scorer()
    score = sc.log_score(TargetText("xx", "q"), ("k",))  # 'q' never trained
    assert score > float("-inf")


def test_unknown_lid_rejected():
    sc, _ = small_scorer()
    with pytest.raises(ValueError):
        sc.log_score(TargetText("zz", "ka"), ("k", "a"))


def test_context_window_limits_phoneme_influence():
    """Phonemes outside the +/-window around the aligned position are
    invisible to a step's distribution."""
    sc, _ = small_scorer(window=0)
    y = TargetText("xx", "k")
    a = sc.step_log_probs(y, ("k", "a"))
    b = sc.step_log_probs(y, ("k", "t"))
    # step 0 aligns to phoneme 0 and step 1 to phoneme 0; tail can't matter
    assert a[0] == b[0] and a[1] == b[1]


# ---- generation ---------------------------------------------------------


def test_generation_scores_equal_log_score(trained_scorer, corpus):
    _, manifest = corpus
    for rec in manifest.records[:6]:
        for text, score in trained_scorer.generate_top_s(rec.phonemes, 4, max_len=12):
            assert score == trained_scorer.log_score(text, rec.phonemes)


def test_generation_sorted_and_bounded(trained_scorer, corpus):
    _, manifest = corpus
    rec = manifest.records[0]
    out = trained_scorer.generate_top_s(rec.phonemes, 5, max_len=3)
    assert len(out) <= 5
    scores = [s for _, s in out]
    assert scores == sorted(scores, reverse=True)
    assert all(len(t.graphemes) <= 3 for t, _ in out)


def test_generation_deterministic(trained_scorer, corpus):
    _, manifest = corpus
    rec = manifest.records[1]
    a = trained_scorer.generate_top_s(rec.phonemes, 4, max_len=8)
    b = trained_scorer.generate_top_s(rec.phonemes, 4, max_len=8)
    assert a == b


def test_generation_rejects_bad_args(trained_scorer):
    with pytest.raises(ValueError):
        trained_scorer.generate_top_s(("a",), 0)
    with pytest.raises(ValueError):
        trained_scorer.generate_top_s(("a",), 2, max_len=-1)
    with pytest.raises(ValueError, match=r"^beam_width must be >= 1$"):
        trained_scorer.generate_top_s(("a",), 2, beam_width=0)


# ---- persistence --------------------------------------------------------


def test_save_load_round_trip(tmp_path, trained_scorer, corpus):
    path = tmp_path / "scorer.json"
    save_scorer(trained_scorer, path)
    back = load_scorer(path)
    assert back.order == trained_scorer.order
    assert back.languages == trained_scorer.languages
    assert back.units == trained_scorer.units
    _, manifest = corpus
    for rec in manifest.records[:8]:
        assert back.log_score(rec.text, rec.phonemes) == \
            trained_scorer.log_score(rec.text, rec.phonemes)


def test_save_is_deterministic(tmp_path, trained_scorer):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_scorer(trained_scorer, p1)
    save_scorer(trained_scorer, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_format(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"format": "other", "version": 1}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_scorer(p)


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{", encoding="utf-8")
    with pytest.raises(FormatError):
        load_scorer(p)


def _edited_scorer_file(tmp_path, edit):
    scorer, _ = small_scorer()
    path = tmp_path / "scorer.json"
    save_scorer(scorer, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_rejects_two_counts_entries_with_one_key(tmp_path):
    """A repeated (ctx, hist) would otherwise keep the last entry's counts
    and drop the first's without a word."""
    def repeat_first(payload):
        first = payload["counts"][0]
        payload["counts"].append({"ctx": first["ctx"], "hist": first["hist"],
                                  "n": {u: 99 for u in first["n"]}})
    path = _edited_scorer_file(tmp_path, repeat_first)
    with pytest.raises(FormatError, match="duplicate counts key") as info:
        load_scorer(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_load_rejects_a_version_that_is_not_an_integer(tmp_path, version):
    """``True == 1 == 1.0``, so a plain comparison would take these as
    version 1."""
    path = _edited_scorer_file(tmp_path, lambda p: p.update(version=version))
    with pytest.raises(FormatError, match="'version'"):
        load_scorer(path)


def test_load_rejects_a_format_that_is_not_the_scorer_string(tmp_path):
    path = _edited_scorer_file(tmp_path, lambda p: p.update(format=["p2g-ngram-scorer"]))
    with pytest.raises(FormatError, match="not a scorer file"):
        load_scorer(path)


@pytest.mark.parametrize("key, value", [
    ("ctx", "k"), ("ctx", [1]), ("hist", None), ("hist", [True]), ("n", []),
])
def test_load_type_checks_every_counts_entry(tmp_path, key, value):
    """Only the last entry is bad, so the one type pass must cover the whole
    list."""
    path = _edited_scorer_file(tmp_path, lambda p: p["counts"][-1].update({key: value}))
    with pytest.raises(FormatError, match=f"'{key}'"):
        load_scorer(path)


@pytest.mark.parametrize("key", ["ctx", "hist", "n"])
def test_load_rejects_a_counts_entry_missing_a_field(tmp_path, key):
    path = _edited_scorer_file(tmp_path, lambda p: p["counts"][-1].pop(key))
    with pytest.raises(FormatError, match=f"missing field '{key}'"):
        load_scorer(path)


# ---- property: scoring is finite and monotone in length ------------------


@settings(max_examples=30, deadline=None)
@given(st.text(alphabet="kamut", max_size=6))
def test_scores_finite_for_any_unit_string(graphemes):
    sc, _ = small_scorer()
    val = sc.log_score(TargetText("xx", graphemes), ("k", "a"))
    assert math.isfinite(val)
    assert val < 0.0
