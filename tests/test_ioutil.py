import math

import pytest

from p2g.ctc import load_grids
from p2g.data import load_manifest, load_training_lines
from p2g.ioutil import FormatError, write_jsonl


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_write_jsonl_refuses_non_finite_and_leaves_no_file(tmp_path, value):
    """Output files are strict JSON: a non-finite number raises instead of
    writing a NaN or Infinity token, and the atomic write leaves neither the
    target nor its temp file behind."""
    target = tmp_path / "out.jsonl"
    with pytest.raises(ValueError):
        write_jsonl(target, [{"id": "u", "logp": 0.0}, {"id": "v", "logp": value}])
    assert list(tmp_path.iterdir()) == []


def test_integer_too_big_for_a_float_is_a_located_format_error(tmp_path):
    big = "1" + "0" * 400
    grids = tmp_path / "g.jsonl"
    grids.write_text('{"id": "u", "symbols": ["a"], "logp": [[0.0, -%s]]}\n' % big,
                     encoding="utf-8")
    with pytest.raises(FormatError, match="g.jsonl, line 1"):
        load_grids(grids)
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"id": "u", "lang": "xx", "dur_sec": %s, "phonemes": [], '
                        '"text": ""}\n' % big, encoding="utf-8")
    with pytest.raises(FormatError, match="m.jsonl, line 1"):
        load_manifest(manifest)


@pytest.mark.parametrize("load", [load_grids, load_manifest, load_training_lines])
def test_file_that_is_not_utf8_is_a_format_error(tmp_path, load):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"\xff\xfe not utf-8\n")
    with pytest.raises(FormatError, match="latin1.txt"):
        load(p)


_GRID = '{"id": "%s", "symbols": ["a"], "logp": [[%s, 0.0]]}'
_RECORD = '{"id": "%s", "lang": "xx", "dur_sec": %s, "phonemes": [], "text": ""}'


@pytest.mark.parametrize("constant", ["NaN", "Infinity"])
@pytest.mark.parametrize("load, line", [(load_grids, _GRID), (load_manifest, _RECORD)],
                         ids=["grids", "manifest"])
def test_line_files_refuse_nan_and_infinity_at_their_line(tmp_path, load, line, constant):
    """Every line-delimited input is read in one JSON dialect: a NaN or
    Infinity token is refused at its line, whatever field holds it."""
    good = {load_grids: "null", load_manifest: "1.5"}[load]
    p = tmp_path / "in.jsonl"
    p.write_text(line % ("u", good) + "\n" + line % ("v", constant) + "\n",
                 encoding="utf-8")
    with pytest.raises(FormatError, match=f"in.jsonl, line 2: non-standard JSON "
                                          f"constant {constant}"):
        load(p)

