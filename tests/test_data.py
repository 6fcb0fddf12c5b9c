import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from p2g import cli, synth
from p2g.ctc import prefix_beam_search, save_grids
from p2g.data import (
    CorpusManifest,
    UtteranceRecord,
    generate_danp,
    load_manifest,
    load_training_lines,
    manifest_stats,
    oversample_manifest,
    parse_training_line,
    save_manifest,
    save_training_lines,
    serialize_training_line,
    unwritable_token,
)
from p2g.ioutil import FormatError
from p2g.scorer import TargetText
from p2g.seeding import derive_rng


def rec(utt_id="u1", lang="xx", dur=2.0, phonemes=("k", "a"), text="ka",
        repeat=False):
    return UtteranceRecord(utterance_id=utt_id, lang=lang, dur_sec=dur,
                           phonemes=phonemes, text=TargetText(lang, text),
                           repeat=repeat)


# ---- records ------------------------------------------------------------


def test_record_validation():
    with pytest.raises(ValueError):
        rec(utt_id="")
    with pytest.raises(ValueError):
        rec(dur=0.0)
    with pytest.raises(ValueError):
        rec(dur=float("nan"))
    with pytest.raises(ValueError):
        UtteranceRecord("u", "xx", 1.0, ("k",), TargetText("yy", "t"))


def test_build_corpus_refuses_no_utterances():
    with pytest.raises(ValueError, match=r"^utts_per_lang must be >= 1$"):
        synth.build_corpus(1, 0)


def test_manifest_grouping():
    m = CorpusManifest(records=(rec("a", "xx"), rec("b", "yy"), rec("c", "xx")))
    groups = m.by_language()
    assert sorted(groups) == ["xx", "yy"]
    assert [r.utterance_id for r in groups["xx"]] == ["a", "c"]
    assert manifest_stats(m)["xx"].hours == pytest.approx(4.0 / 3600.0)


# ---- training-line serialization ----------------------------------------


def test_serialize_shape():
    line = serialize_training_line(("k", "a"), TargetText("ky", "кат"))
    assert line == "<ipa> k a | <lid:ky> кат"


@pytest.mark.parametrize("phonemes,text", [
    ((), ""),
    ((), "plain"),
    (("ɧ", "øː"), "sjö ljus"),
    (("a",), " leading and trailing "),
    (("a",), "pipe | inside"),
    (("a",), "<lid:fake> tag in text"),
])
def test_round_trip_edge_cases(phonemes, text):
    line = serialize_training_line(phonemes, TargetText("xx", text))
    back_ph, back_text = parse_training_line(line)
    assert back_ph == tuple(phonemes)
    assert back_text == TargetText("xx", text)


def test_serialize_rejects_bad_tokens():
    with pytest.raises(ValueError):
        serialize_training_line(("a|b",), TargetText("xx", "t"))
    with pytest.raises(ValueError):
        serialize_training_line(("a b",), TargetText("xx", "t"))
    with pytest.raises(ValueError):
        serialize_training_line(("",), TargetText("xx", "t"))
    with pytest.raises(ValueError):
        serialize_training_line(("a",), TargetText("xx", "two\nlines"))


@pytest.mark.parametrize("tokens", [
    ("",), (" a",), ("a b",), ("a|",), ("a\xa0",), ("a\u2028",), ("a\x1c",), (),
])
def test_serialize_token_check_agrees_with_the_token_rule(tokens):
    """The check on the joined line refuses a line exactly when
    ``unwritable_token`` finds a token in it, alone or between good tokens,
    and names that token; the empty sequence is written and read back."""
    text = TargetText("xx", "t")
    for phonemes in (tokens, ("k", *tokens), (*tokens, "t")):
        bad = unwritable_token(phonemes)
        assert (bad is None) == (tokens == ())
        if bad is None:
            assert parse_training_line(serialize_training_line(phonemes, text)) == \
                (phonemes, text)
        else:
            with pytest.raises(ValueError, match=re.escape(f"phoneme token {bad!r} is empty")):
                serialize_training_line(phonemes, text)


@pytest.mark.parametrize("line", [
    "k a | <lid:xx> t",           # missing tag
    "<ipa> k a <lid:xx> t",       # missing separator
    "<ipa> k a | lid:xx t",       # missing lid
    "<ipa> k a | <lid:xx[no-close",
    "<ipa> k  a | <lid:xx> t",    # empty token from double space
])
def test_parse_rejects_malformed(line):
    with pytest.raises(ValueError):
        parse_training_line(line)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="qɯzɑɣɤʑ", min_size=1, max_size=4), max_size=5),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\n\r"), max_size=12),
    st.sampled_from(["ky", "nl", "sv", "tt", "pt-br"]),
)
def test_round_trip_property(phonemes, graphemes, lid):
    text = TargetText(lid, graphemes)
    line = serialize_training_line(phonemes, text)
    assert parse_training_line(line) == (tuple(phonemes), text)


# strings built from the pieces of a training line's layout and from the
# characters a token may not hold: '|' and whitespace other than a space
_hostile = st.lists(st.sampled_from([
    " ", "|", "\t", "\xa0", "\u2028", "<", ">", ":", "<ipa>", "<lid:xx>",
    "<ipa> ", " | ", "<lid:xx> ", "a", "b", "x"]), max_size=12).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_hostile, st.tuples(_hostile, _hostile).map(
    lambda parts: "<ipa> {} | <lid:xx> {}".format(*parts))))
@example("<ipa> | a | <lid:xx> t")
@example("<ipa> a\tb | <lid:xx> t")
def test_parse_accepts_only_what_serialize_writes(line):
    """Every line that ``parse_training_line`` accepts is the line that
    ``serialize_training_line`` writes for the pair it returns, so no token
    the writer refuses (one holding '|' or whitespace) is ever read."""
    try:
        phonemes, text = parse_training_line(line)
    except ValueError:
        return
    assert serialize_training_line(phonemes, text) == line


def test_training_lines_file_round_trip(tmp_path):
    pairs = [(("k", "a"), TargetText("xx", "ka")),
             ((), TargetText("yy", "")),
             (("ʑ",), TargetText("tt", "җы мн"))]
    path = tmp_path / "train.txt"
    save_training_lines(pairs, path)
    assert load_training_lines(path) == [(p, t) for p, t in pairs]


# ---- danp ---------------------------------------------------------------


def test_danp_pairs_noisy_hypotheses_with_clean_text(corpus):
    grids, manifest = corpus
    by_id = {g.utterance_id: g for g in grids}
    record = manifest.records[0]
    grid = by_id[record.utterance_id]
    hyps = prefix_beam_search(grid, 16, 4)
    pairs = generate_danp(record, [grid.alphabet.to_symbols(h.sequence) for h in hyps])
    assert 1 <= len(pairs) <= 4
    assert [ph for ph, _ in pairs] == [grid.alphabet.to_symbols(h.sequence) for h in hyps]
    assert all(text == record.text for _, text in pairs)
    assert len({ph for ph, _ in pairs}) == len(pairs)  # distinct hypotheses


def test_danp_include_clean_appends_reference(corpus):
    grids, manifest = corpus
    by_id = {g.utterance_id: g for g in grids}
    record = manifest.records[2]
    grid = by_id[record.utterance_id]
    hyps = prefix_beam_search(grid, 16, 2)
    pairs = generate_danp(record, [grid.alphabet.to_symbols(h.sequence) for h in hyps],
                          include_clean=True)
    assert len(pairs) == len(hyps) + 1
    assert pairs[-1] == (record.phonemes, record.text)


def test_danp_rejects_bad_n_best(corpus, tmp_path):
    """The n-best size is checked where the beam runs: by the CLI option
    and by prefix_beam_search itself."""
    grids, manifest = corpus
    with pytest.raises(ValueError):
        prefix_beam_search(grids[0], 16, 0)
    save_grids(grids, tmp_path / "grids.jsonl")
    save_manifest(manifest, tmp_path / "refs.jsonl")
    assert cli.main(["augment", "--grids", str(tmp_path / "grids.jsonl"),
                     "--refs", str(tmp_path / "refs.jsonl"),
                     "--out", str(tmp_path / "train.txt"), "--n-best", "0"]) == 1
    assert not (tmp_path / "train.txt").exists()


# ---- oversampling -------------------------------------------------------


def hours_manifest(lang_hours):
    """lang_hours: {lang: (n_records, total_hours)}"""
    records = []
    for lang, (n, hours) in sorted(lang_hours.items()):
        dur = hours * 3600.0 / n
        for i in range(n):
            records.append(rec(f"{lang}-{i}", lang, dur, ("k",), "k"))
    return CorpusManifest(records=tuple(records))


def test_oversample_reaches_envelope():
    m = hours_manifest({"lo": (10, 3.0), "hi": (10, 50.0)})
    out = oversample_manifest(m, 10.0, derive_rng(0, "t"))
    stats = manifest_stats(out)
    max_dur = max(r.dur_sec for r in m.records if r.lang == "lo") / 3600.0
    assert 10.0 <= stats["lo"].hours < 10.0 + max_dur
    assert stats["hi"].hours == pytest.approx(50.0)


def test_oversample_leaves_high_resource_untouched():
    m = hours_manifest({"lo": (4, 1.0), "hi": (4, 20.0)})
    out = oversample_manifest(m, 5.0, derive_rng(1, "t"))
    originals = [r for r in out.records if not r.repeat]
    assert tuple(originals) == m.records
    assert all(r.lang == "lo" for r in out.records if r.repeat)


def test_oversample_copies_only_marked():
    m = hours_manifest({"lo": (3, 1.0)})
    out = oversample_manifest(m, 2.0, derive_rng(2, "t"))
    copies = [r for r in out.records if r.repeat]
    assert copies
    ids = {r.utterance_id for r in m.records}
    for c in copies:
        assert c.utterance_id in ids  # copies reuse original ids
        original = next(r for r in m.records if r.utterance_id == c.utterance_id)
        assert c.phonemes == original.phonemes and c.text == original.text


def test_oversample_deterministic():
    m = hours_manifest({"lo": (5, 2.0), "mid": (5, 4.0)})
    a = oversample_manifest(m, 6.0, derive_rng(3, "t"))
    b = oversample_manifest(m, 6.0, derive_rng(3, "t"))
    assert a.records == b.records


def test_oversample_rejects_bad_target():
    m = hours_manifest({"lo": (2, 1.0)})
    with pytest.raises(ValueError):
        oversample_manifest(m, 0.0, derive_rng(0, "t"))


def test_repetition_factor():
    m = hours_manifest({"lo": (8, 2.0)})
    out = oversample_manifest(m, 8.0, derive_rng(4, "t"))
    st_ = manifest_stats(out)["lo"]
    assert st_.repetition_factor == pytest.approx(st_.hours / 2.0)
    assert st_.original_hours == pytest.approx(2.0)


# ---- manifest persistence -----------------------------------------------


def test_manifest_round_trip(tmp_path):
    m = hours_manifest({"aa": (3, 1.0), "bb": (2, 2.0)})
    m = CorpusManifest(records=m.records + (rec("r1", "aa", 5.0, ("k",), "k",
                                                repeat=True),))
    path = tmp_path / "manifest.jsonl"
    save_manifest(m, path)
    back = load_manifest(path)
    assert back.records == m.records


def test_manifest_originals_serialize_without_repeat_key(tmp_path):
    m = hours_manifest({"aa": (1, 1.0)})
    path = tmp_path / "m.jsonl"
    save_manifest(m, path)
    obj = json.loads(path.read_text(encoding="utf-8").strip())
    assert "repeat" not in obj


def test_load_manifest_rejects_bad_rows(tmp_path):
    good = {"id": "u", "lang": "xx", "dur_sec": 1.0, "phonemes": ["k"],
            "text": "k"}
    cases = [
        {**good, "dur_sec": -1.0},
        {**good, "lang": "XX"},
        {k: v for k, v in good.items() if k != "text"},
        {**good, "phonemes": "k"},
    ]
    for i, case in enumerate(cases):
        p = tmp_path / f"bad{i}.jsonl"
        p.write_text(json.dumps(case) + "\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_manifest(p)


def test_load_manifest_reports_line_numbers(tmp_path):
    p = tmp_path / "m.jsonl"
    good = json.dumps({"id": "u", "lang": "xx", "dur_sec": 1.0,
                       "phonemes": ["k"], "text": "k"})
    p.write_text(good + "\n{broken\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_manifest(p)
    assert "line 2" in str(err.value)
