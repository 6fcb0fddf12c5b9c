import json
import sys

import numpy as np
import pytest

from p2g import oracles
from p2g.decode import (
    DecodeResult,
    decode,
    load_hypotheses,
    pool_and_rescore,
    save_decode_results,
)
from p2g.ioutil import FormatError
from p2g.logmath import log_add
from p2g.scorer import TargetText, train_scorer

from conftest import make_grid


def tiny_text_scorer():
    """Two languages, three units: small enough to enumerate all texts."""
    pairs = [
        (("a", "b"), TargetText("xx", "xy")),
        (("a",), TargetText("xx", "x")),
        (("b", "a"), TargetText("yy", "yz")),
        (("b",), TargetText("yy", "z")),
    ]
    return train_scorer(pairs, order=2, smoothing_alpha=0.3, context_window=1)


# ---- pooling ------------------------------------------------------------


def hyp(weight, seq=(1,)):
    from p2g.ctc import ScoredHypothesis
    return ScoredHypothesis(seq, weight)


def test_pool_merges_duplicate_texts():
    t1, t2 = TargetText("xx", "x"), TargetText("xx", "y")
    cands = [
        [(t1, -0.5), (t2, -1.5)],
        [(t1, -0.7)],
    ]
    pool = pool_and_rescore([hyp(-1.0), hyp(-2.0, (2,))], cands)
    assert pool[0][0] == t1
    got = dict(pool)
    assert got[t1] == pytest.approx(log_add(-1.0 + -0.5, -2.0 + -0.7), abs=1e-12)
    assert got[t2] == pytest.approx(-2.5, abs=1e-12)


def test_pool_rejects_misaligned_lengths():
    with pytest.raises(ValueError):
        pool_and_rescore([hyp(-1.0)], [])


def test_pool_tie_breaks_lexicographically():
    a, b = TargetText("aa", "same"), TargetText("ab", "same")
    pool = pool_and_rescore([hyp(0.0), hyp(0.0, (2,))], [[(b, -1.0)], [(a, -1.0)]])
    assert [t for t, _ in pool] == [a, b]


def test_pool_empty_everything_raises():
    with pytest.raises(ValueError):
        pool_and_rescore([], [])


# ---- decode -------------------------------------------------------------


def test_decode_matches_brute_force():
    sc = tiny_text_scorer()
    rng = np.random.default_rng(40)
    for trial in range(8):
        g = make_grid(rng, f"d{trial}", frames=3)
        n = len(oracles.sequence_distribution(g))
        res = decode(g, sc, k=n, s=10_000, beam_width=4 * n + 16, max_len=2)
        want_text, _ = oracles.exact_decode(g, sc, sc.languages, sc.units, max_len=2)
        assert res.best == want_text


def test_decode_result_shape(trained_scorer, corpus):
    grids, _ = corpus
    res = decode(grids[0], trained_scorer, k=3, s=2, beam_width=16, max_len=8)
    assert isinstance(res, DecodeResult)
    assert res.k_used <= 3 and res.s_used <= 2
    scores = [lp for _, lp in res.pool]
    assert scores == sorted(scores, reverse=True)
    assert res.best == res.pool[0][0]


@pytest.mark.parametrize("k, s, message", [(0, 2, "k must be >= 1"), (2, 0, "s must be >= 1")],
                         ids=["k-0", "s-0"])
def test_decode_refuses_k_or_s_below_one(trained_scorer, corpus, k, s, message):
    """The beam refuses k and text generation refuses s; ``decode`` passes
    both on unchecked."""
    grids, _ = corpus
    with pytest.raises(ValueError, match=f"^{message}$"):
        decode(grids[0], trained_scorer, k=k, s=s, beam_width=16)


def test_decode_normalization_never_changes_ranking(trained_scorer, corpus):
    grids, _ = corpus
    a = decode(grids[1], trained_scorer, 4, 3, beam_width=16, max_len=8,
               normalize_weights=True)
    b = decode(grids[1], trained_scorer, 4, 3, beam_width=16, max_len=8,
               normalize_weights=False)
    assert [t for t, _ in a.pool] == [t for t, _ in b.pool]


# ---- persistence --------------------------------------------------------


def test_save_load_round_trip(tmp_path, trained_scorer, corpus):
    grids, _ = corpus
    items = [(g.utterance_id, decode(g, trained_scorer, 2, 2, beam_width=8, max_len=6))
             for g in grids[:3]]
    path = tmp_path / "decoded.jsonl"
    save_decode_results(items, path)
    back = load_hypotheses(path)
    assert set(back) == {g.utterance_id for g in grids[:3]}
    for utt_id, res in items:
        assert back[utt_id] == res.best


def test_load_hypotheses_rejects_duplicate_id(tmp_path):
    line = json.dumps({"id": "u1", "lid": "xx", "text": "t", "pool": []})
    p = tmp_path / "dup.jsonl"
    p.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_hypotheses(p)


def test_load_hypotheses_refuses_nan_in_a_pool(tmp_path):
    """eval reads decode output in the one JSON dialect of line files, so a
    NaN anywhere on a line is refused, even in the pool it does not use."""
    good = json.dumps({"id": "u1", "lid": "xx", "text": "t",
                       "pool": [{"lid": "xx", "text": "t", "logp": -0.5}]})
    p = tmp_path / "decoded.jsonl"
    p.write_text(good + "\n" + good.replace('"u1"', '"u2"').replace("-0.5", "NaN") + "\n",
                 encoding="utf-8")
    with pytest.raises(FormatError, match="decoded.jsonl, line 2: .*NaN"):
        load_hypotheses(p)


def test_package_attribute_is_the_decode_module():
    import p2g
    from p2g import decode as imported

    assert p2g.decode is imported is sys.modules["p2g.decode"]
    assert imported.decode is decode
