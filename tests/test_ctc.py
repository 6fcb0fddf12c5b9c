import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p2g import oracles, synth
from p2g.ctc import (
    BLANK,
    Alphabet,
    PosteriorGrid,
    collapse,
    forward_logprob,
    load_grids,
    prefix_beam_search,
    sample_paths,
    save_grids,
)
from p2g.ioutil import FormatError
from p2g.logmath import LOG_ZERO
from p2g.seeding import derive_rng

from conftest import make_grid


# ---- alphabet -----------------------------------------------------------


def test_alphabet_basics(tiny_alphabet):
    assert BLANK == 0
    assert tiny_alphabet.size == 3
    assert len(tiny_alphabet.symbols) == 2  # non-blank
    assert tiny_alphabet.to_symbols((1, 2, 1)) == ("a", "b", "a")
    assert tiny_alphabet.to_indices(("a", "b")) == (1, 2)


@pytest.mark.parametrize("index", [0, -1, 3])
def test_to_symbols_rejects_what_is_not_a_phoneme_index(tiny_alphabet, index):
    """0 is the blank and V + 1 is past the end; a lookup by position in the
    symbol tuple would wrap -1 to the last symbol."""
    with pytest.raises(ValueError, match=f"index {index} is not a phoneme index"):
        tiny_alphabet.to_symbols((1, index))


def test_to_symbols_takes_numpy_integers(tiny_alphabet):
    seq = np.array([2, 1, 2], dtype=np.int64)
    assert tiny_alphabet.to_symbols(seq) == tiny_alphabet.to_symbols((2, 1, 2)) == ("b", "a", "b")
    assert tiny_alphabet.to_symbols(tuple(seq)) == ("b", "a", "b")


def test_alphabet_rejects_duplicates_and_empty_symbols():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", ""))


def _pairs(hyps):
    return [(h.sequence, h.log_score) for h in hyps]


def test_blank_only_alphabet_is_degenerate_but_usable(tiny_alphabet):
    empty = Alphabet(())
    assert empty.size == 1 and len(empty.symbols) == 0
    g = PosteriorGrid("u", empty, np.zeros((3, 1)))
    assert forward_logprob(g, ()) == pytest.approx(0.0, abs=1e-12)
    assert _pairs(prefix_beam_search(g, 4, 2)) == [((), 0.0)]
    # every label cell LOG_ZERO: the blank path is the only one
    logp = np.full((3, tiny_alphabet.size), LOG_ZERO)
    logp[:, BLANK] = 0.0
    g = PosteriorGrid("u", tiny_alphabet, logp)
    assert _pairs(prefix_beam_search(g, 4, 2)) == [((), 0.0)]


def test_alphabet_unknown_symbol(tiny_alphabet):
    with pytest.raises((KeyError, ValueError)):
        tiny_alphabet.to_indices(("a", "zz"))


# ---- collapse -----------------------------------------------------------


@pytest.mark.parametrize("path,want", [
    ((), ()),
    ((0, 0, 0), ()),
    ((1, 1, 1), (1,)),
    ((1, 0, 1), (1, 1)),
    ((0, 1, 1, 0, 2, 2, 2, 0), (1, 2)),
    ((1, 2, 2, 1), (1, 2, 1)),
])
def test_collapse_cases(path, want):
    assert collapse(path) == want


@given(st.lists(st.integers(min_value=0, max_value=3), max_size=12))
def test_collapse_never_emits_blank_and_merges_runs(path):
    out = collapse(tuple(path))
    assert BLANK not in out
    # runs of one symbol in the path never survive as adjacent repeats unless
    # a blank separated them; spot-check by re-collapsing a blank-free version
    rebuilt = collapse(out)
    deduped = tuple(c for i, c in enumerate(out) if i == 0 or out[i - 1] != c)
    assert rebuilt == deduped


def test_collapse_range_check(tiny_alphabet):
    with pytest.raises(ValueError):
        collapse((0, 9), tiny_alphabet)


# ---- grid validation ----------------------------------------------------


def test_grid_rejects_bad_rows(tiny_alphabet):
    bad = np.log(np.array([[0.5, 0.3, 0.3]]))  # sums to 1.1
    with pytest.raises(ValueError):
        PosteriorGrid("u", tiny_alphabet, bad)


def test_grid_rejects_nan_and_positive(tiny_alphabet):
    row = np.log(np.array([[0.5, 0.25, 0.25]]))
    nan = row.copy()
    nan[0, 0] = np.nan
    with pytest.raises(ValueError):
        PosteriorGrid("u", tiny_alphabet, nan)
    pos = row.copy()
    pos[0, 0] = 0.5
    with pytest.raises(ValueError):
        PosteriorGrid("u", tiny_alphabet, pos)


def test_grid_rejects_shape_mismatch(tiny_alphabet):
    with pytest.raises(ValueError):
        PosteriorGrid("u", tiny_alphabet, np.log(np.full((2, 2), 0.5)))


def test_grid_renormalized_and_frozen(tiny_alphabet):
    raw = np.log(np.array([[0.2, 0.2, 0.2], [1.0, 2.0, 1.0]]))
    g = PosteriorGrid.renormalized("u", tiny_alphabet, raw)
    sums = np.exp(g.logp).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        g.logp[0, 0] = -1.0


# ---- forward ------------------------------------------------------------


def test_forward_empty_sequence_is_blank_product(tiny_alphabet):
    probs = np.array([[0.6, 0.3, 0.1], [0.5, 0.25, 0.25], [0.9, 0.05, 0.05]])
    g = PosteriorGrid("u", tiny_alphabet, np.log(probs))
    want = math.log(0.6 * 0.5 * 0.9)
    assert forward_logprob(g, ()) == pytest.approx(want, abs=1e-12)


def test_forward_unreachable_is_log_zero(tiny_alphabet):
    probs = np.full((2, 3), 1.0 / 3.0)
    g = PosteriorGrid("u", tiny_alphabet, np.log(probs))
    assert forward_logprob(g, (1, 1, 1)) == LOG_ZERO  # needs >= 5 frames
    assert forward_logprob(g, (1, 1)) == LOG_ZERO     # repeat needs a blank


def test_forward_rejects_blank_and_out_of_range(tiny_alphabet):
    g = PosteriorGrid("u", tiny_alphabet, np.log(np.full((2, 3), 1.0 / 3.0)))
    with pytest.raises(ValueError):
        forward_logprob(g, (0,))
    with pytest.raises(ValueError):
        forward_logprob(g, (5,))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_forward_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(rng, frames=int(rng.integers(1, 5)))
    dist = oracles.sequence_distribution(g)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
    for seq, p in dist.items():
        assert forward_logprob(g, seq) == pytest.approx(math.log(p), abs=1e-10)


# ---- sampling -----------------------------------------------------------


def test_sample_paths_shape_and_range(tiny_alphabet):
    g = PosteriorGrid("u", tiny_alphabet, np.log(np.full((5, 3), 1.0 / 3.0)))
    paths = sample_paths(g, 7, np.random.default_rng(0))
    assert paths.shape == (7, 5)
    assert paths.dtype.kind == "i"
    assert paths.min() >= 0 and paths.max() < 3


def test_sample_paths_deterministic(tiny_alphabet):
    g = PosteriorGrid("u", tiny_alphabet, np.log(np.full((4, 3), 1.0 / 3.0)))
    a = sample_paths(g, 5, derive_rng(3, "u"))
    b = sample_paths(g, 5, derive_rng(3, "u"))
    assert np.array_equal(a, b)


def test_sample_paths_matches_one_at_a_time(tiny_alphabet):
    """Batch and sequential draws consume the generator stream identically."""
    g = PosteriorGrid("u", tiny_alphabet, np.log(np.full((4, 3), 1.0 / 3.0)))
    batch = sample_paths(g, 6, derive_rng(9, "u"))
    rng = derive_rng(9, "u")
    rows = [sample_paths(g, 1, rng)[0] for _ in range(6)]
    assert np.array_equal(batch, np.array(rows))


def test_sampler_never_picks_zero_mass(tiny_alphabet):
    probs = np.array([[0.5, 0.5, 0.0]] * 6)
    with np.errstate(divide="ignore"):
        g = PosteriorGrid("u", tiny_alphabet, np.log(probs))
    paths = sample_paths(g, 200, np.random.default_rng(1))
    assert not (paths == 2).any()


def test_low_temperature_concentrates(tiny_alphabet):
    probs = np.array([[0.1, 0.6, 0.3]] * 3)
    g = PosteriorGrid("u", tiny_alphabet, np.log(probs))
    paths = sample_paths(g, 50, np.random.default_rng(2), temperature=0.01)
    assert (paths == 1).all()


# ---- beam search --------------------------------------------------------


def test_beam_rejects_bad_widths(tiny_alphabet):
    g = PosteriorGrid("u", tiny_alphabet, np.log(np.full((2, 3), 1.0 / 3.0)))
    with pytest.raises(ValueError):
        prefix_beam_search(g, 0, 1)
    with pytest.raises(ValueError):
        prefix_beam_search(g, 2, 3)  # k > beam width


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_beam_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(rng, frames=int(rng.integers(1, 5)))
    dist = oracles.sequence_distribution(g)
    k = min(4, len(dist))
    hyps = prefix_beam_search(g, 4 * len(dist) + 16, k)
    want = oracles.top_sequences(g, k)
    assert [h.sequence for h in hyps] == [seq for seq, _ in want]
    for h, (_, lp) in zip(hyps, want):
        assert h.log_score == pytest.approx(lp, abs=1e-10)


def test_beam_repeat_needs_blank_bridge(tiny_alphabet):
    # two frames of the same symbol: 'aa' collapses to 'a'; 'a a' unreachable
    probs = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    with np.errstate(divide="ignore"):
        g = PosteriorGrid("u", tiny_alphabet, np.log(probs))
    hyps = prefix_beam_search(g, 8, 1)
    assert hyps[0].sequence == (1,)
    assert hyps[0].log_score == pytest.approx(0.0, abs=1e-12)


def test_beam_deterministic_tie_break(tiny_alphabet):
    probs = np.full((1, 3), 1.0 / 3.0)
    g = PosteriorGrid("u", tiny_alphabet, np.log(probs))
    hyps = prefix_beam_search(g, 8, 3)
    # (), (a,), (b,) all carry 1/3; blank-free shorter first, then index order
    assert [h.sequence for h in hyps] == [(), (1,), (2,)]


def test_beam_never_emits_a_zero_probability_label():
    rng = np.random.default_rng(8)
    probs = rng.dirichlet(np.ones(5), size=12)
    probs[:, 3] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        g = PosteriorGrid("u", Alphabet(("a", "b", "c", "d")), np.log(probs))
    hyps = prefix_beam_search(g, 32, 32)
    assert len(hyps) == 32
    assert all(3 not in h.sequence for h in hyps)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       beam_width=st.integers(min_value=1, max_value=12),
       concentration=st.sampled_from([0.1, 0.5, 1.0, 3.0]))
def test_pruned_beam_never_adds_mass(seed, beam_width, concentration):
    """Pruning only drops paths: each kept score is at most the exact forward
    score of its sequence, and the kept beam holds at most all of the mass."""
    rng = np.random.default_rng(seed)
    g = synth.random_grid(rng, max_frames=8, max_symbols=4,
                          concentration=concentration)
    hyps = prefix_beam_search(g, beam_width, beam_width)
    for h in hyps:
        assert h.log_score <= forward_logprob(g, h.sequence) + 1e-10
    assert sum(math.exp(h.log_score) for h in hyps) <= 1.0 + 1e-10


def test_beam_scores_are_python_floats():
    rng = np.random.default_rng(4)
    hyps = prefix_beam_search(make_grid(rng, frames=3), 8, 4)
    assert hyps and all(type(h.log_score) is float for h in hyps)


# ---- persistence --------------------------------------------------------


def test_grid_round_trip(tmp_path, tiny_alphabet):
    rng = np.random.default_rng(0)
    grids = [make_grid(rng, f"u{i}", frames=3) for i in range(4)]
    path = tmp_path / "grids.jsonl"
    save_grids(grids, path)
    back = load_grids(path)
    assert [g.utterance_id for g in back] == [g.utterance_id for g in grids]
    for a, b in zip(grids, back):
        assert a.alphabet.symbols == b.alphabet.symbols
        assert np.array_equal(a.logp, b.logp)


def test_zero_cell_is_strict_json_null(tmp_path, tiny_alphabet):
    with np.errstate(divide="ignore"):
        g = PosteriorGrid("u", tiny_alphabet,
                          np.log([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))
    path = tmp_path / "grids.jsonl"
    save_grids([g], path)

    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    obj = json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)
    assert obj["logp"] == [[math.log(0.5), math.log(0.5), None], [0.0, None, None]]
    (back,) = load_grids(path)
    assert np.array_equal(back.logp, g.logp)


def test_load_grids_reads_legacy_infinity_and_refuses_nan(tmp_path):
    p = tmp_path / "g.jsonl"
    p.write_text('{"id": "u", "symbols": ["a"], "logp": [[0.0, -Infinity]]}\n',
                 encoding="utf-8")
    assert load_grids(p)[0].logp.tolist() == [[0.0, LOG_ZERO]]
    p.write_text('{"id": "u", "symbols": ["a"], "logp": [[0.0, NaN]]}\n',
                 encoding="utf-8")
    with pytest.raises(FormatError, match="NaN"):
        load_grids(p)


def test_load_grids_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "u"}\nnot json\n', encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_grids(p)
    assert "line" in str(err.value)


def test_load_grids_rejects_non_numeric_cell(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"id": "u", "symbols": ["a"], "logp": [{"x": 1}]}\n',
                 encoding="utf-8")
    with pytest.raises(FormatError, match="bad.jsonl, line 1"):
        load_grids(p)


def test_load_grids_rejects_missing_field(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(json.dumps({"id": "u", "symbols": ["<b>", "a"]}) + "\n",
                 encoding="utf-8")
    with pytest.raises(FormatError):
        load_grids(p)


def test_load_grids_renormalize_flag(tmp_path, tiny_alphabet):
    logp = np.log(np.array([[0.3, 0.3, 0.3]]))  # sums to 0.9
    line = json.dumps({"id": "u", "symbols": list(tiny_alphabet.symbols),
                       "logp": logp.tolist()})
    p = tmp_path / "g.jsonl"
    p.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_grids(p)
    g = load_grids(p, renormalize=True)[0]
    assert np.exp(g.logp).sum() == pytest.approx(1.0, abs=1e-12)
