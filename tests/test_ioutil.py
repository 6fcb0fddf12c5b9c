import ast
import math
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from p2g import ioutil
from p2g.ctc import Alphabet, PosteriorGrid, load_grids, save_grids
from p2g.data import load_manifest, load_training_lines
from p2g.ioutil import FormatError, atomic_write, to_json, write_jsonl
from p2g.scorer import (
    EOS,
    SCORER_FORMAT,
    SCORER_VERSION,
    NGramScorer,
    lid_token,
    load_scorer,
    save_scorer,
)


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


# ---- streamed writers ---------------------------------------------------

_UNITS = ("é", "ß", "a", "ж")


def _scorer(n_keys: int) -> NGramScorer:
    """An order-2 scorer with ``n_keys`` state keys, with non-ASCII units and
    context symbols (a language id is ASCII)."""
    counts = {(("ŋ", f"φ{i}"), (_UNITS[i % 4],)):
              {_UNITS[(i + 1) % 4]: i % 7 + 1, EOS: 1, lid_token("ru"): i % 3}
              for i in range(n_keys)}
    return NGramScorer(order=2, smoothing_alpha=0.25, context_window=1,
                       languages=("xx", "ru"), units=_UNITS, counts=counts)


def _grid(frames: int, utt: str = "ütt-é", zeros: bool = False,
          symbols: tuple[str, ...] = ("ŋ", "ʃ", "a")) -> PosteriorGrid:
    """A grid of ``frames`` rows; with ``zeros``, every other row has a zero cell."""
    probs = np.random.default_rng(frames).dirichlet(np.ones(len(symbols) + 1), size=frames)
    if zeros:
        probs[::2, 1] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        return PosteriorGrid(utt, Alphabet(symbols), np.log(probs))


def _one_shot_scorer(scorer: NGramScorer, path) -> None:
    """The whole-document scorer writer that ``save_scorer`` streams: the
    reference for its bytes."""
    entries = [{"ctx": list(ctx), "hist": list(hist),
                "n": {u: bucket[u] for u in sorted(bucket)}}
               for (ctx, hist), bucket in sorted(scorer.counts.items())]
    Path(path).write_text(to_json({
        "format": SCORER_FORMAT, "version": SCORER_VERSION, "order": scorer.order,
        "smoothing_alpha": scorer.smoothing_alpha,
        "context_window": scorer.context_window, "languages": list(scorer.languages),
        "units": list(scorer.units), "counts": entries}) + "\n", encoding="utf-8")


def _one_shot_grids(grids, path) -> None:
    """The whole-line grid writer that ``save_grids`` streams: the reference
    for its bytes."""
    lines = []
    for grid in grids:
        rows = grid.logp.tolist()
        if np.isneginf(grid.logp).any():
            rows = [[None if v == -math.inf else v for v in row] for row in rows]
        lines.append(to_json({"id": grid.utterance_id,
                              "symbols": list(grid.alphabet.symbols), "logp": rows}) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize("n_keys", [0, 1, ioutil._SLICE, ioutil._SLICE + 1,
                                    3 * ioutil._SLICE + 5])
def test_save_scorer_streams_the_one_shot_bytes(tmp_path, n_keys):
    """The counts entries are encoded a slice at a time, yet the file is
    byte for byte ``to_json`` of the whole document: empty, one slice, one
    slice plus one, and several."""
    scorer = _scorer(n_keys)
    save_scorer(scorer, tmp_path / "streamed.json")
    _one_shot_scorer(scorer, tmp_path / "whole.json")
    assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "whole.json").read_bytes()
    assert load_scorer(tmp_path / "streamed.json") == scorer


@pytest.mark.parametrize("grids", [
    [_grid(1)],
    [_grid(1, zeros=True)],
    [_grid(ioutil._SLICE)],
    [_grid(ioutil._SLICE + 1, zeros=True)],
    [_grid(5, "a"), _grid(2 * ioutil._SLICE + 3, "b", zeros=True), _grid(1, "c")],
    [],
], ids=["one-frame", "one-frame-zero", "one-slice", "slice-plus-one-zero", "three", "none"])
def test_save_grids_streams_the_one_shot_bytes(tmp_path, grids):
    """A grid's rows are encoded a slice at a time, zero cells still as
    ``null``, yet every line is ``to_json`` of the whole grid."""
    save_grids(grids, tmp_path / "streamed.jsonl")
    _one_shot_grids(grids, tmp_path / "whole.jsonl")
    assert (tmp_path / "streamed.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()
    back = load_grids(tmp_path / "streamed.jsonl")
    assert [(g.utterance_id, g.alphabet) for g in back] == [
        (g.utterance_id, g.alphabet) for g in grids]
    for got, want in zip(back, grids):
        assert np.array_equal(got.logp, want.logp)


def _transient_bytes(write) -> int:
    """Peak bytes that ``write()`` allocates above what was live when it
    started, as tracemalloc counts them (after one untraced warm-up call)."""
    write()
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


# An added key or row may cost the writer a few pointers (the sorted key
# list: about 8 bytes a key), never its share of the document. Writers that
# encode the whole document at once measured about 840 bytes per added key
# of ``_scorer`` and 3 KB per added 33-cell grid row.
_BYTES_PER_ADDED_ITEM = 48


@pytest.mark.parametrize("writer", ["scorer", "grids"])
def test_streamed_writers_hold_a_slice_not_the_document(tmp_path, writer):
    """The transient memory of ``save_scorer`` and ``save_grids`` stays flat
    when the keys or the frames grow 4x: each holds a slice of the document,
    so at most a few pointers per added item."""
    n = 1000
    if writer == "scorer":
        small, large = _scorer(n), _scorer(4 * n)
        small_t = _transient_bytes(lambda: save_scorer(small, tmp_path / "s.json"))
        large_t = _transient_bytes(lambda: save_scorer(large, tmp_path / "s.json"))
    else:
        symbols = tuple(f"p{i:02d}" for i in range(32))
        small, large = _grid(n, symbols=symbols), _grid(4 * n, symbols=symbols)
        small_t = _transient_bytes(lambda: save_grids([small], tmp_path / "g.jsonl"))
        large_t = _transient_bytes(lambda: save_grids([large], tmp_path / "g.jsonl"))
    assert large_t - small_t < _BYTES_PER_ADDED_ITEM * 3 * n, (small_t, large_t)


@pytest.fixture
def umask():
    """Set a fixed umask for the test and restore the caller's after it."""
    old = os.umask(0o022)
    yield os.umask
    os.umask(old)


@pytest.mark.parametrize("mask, want", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_new_output_file_gets_the_mode_open_would_give(tmp_path, umask, mask, want):
    """A new file is 0o666 less the umask, as ``open(path, "w")`` makes it,
    not the 0600 of the temp file it is renamed from."""
    umask(mask)
    atomic_write(tmp_path / "new.txt", ["x\n"])
    with open(tmp_path / "plain.txt", "w") as fh:
        fh.write("x\n")
    assert stat.S_IMODE((tmp_path / "new.txt").stat().st_mode) == want
    assert stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode) == want


def test_overwritten_output_file_keeps_its_mode(tmp_path, umask):
    """Replacing a file keeps its mode, as writing it in place would."""
    target = tmp_path / "out.jsonl"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    write_jsonl(target, [{"id": "u"}])
    assert target.read_text(encoding="utf-8") == '{"id": "u"}\n'
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def _listing(*dirs) -> list[list[str]]:
    return [sorted(p.name for p in d.iterdir()) for d in dirs]


def _linked_file(tmp_path):
    """``out/link.jsonl``, a symlink to ``real/data.jsonl``, which holds
    ``old`` with mode 0640."""
    (tmp_path / "out").mkdir()
    (tmp_path / "real").mkdir()
    target, link = tmp_path / "real" / "data.jsonl", tmp_path / "out" / "link.jsonl"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    link.symlink_to(target)
    return link, target


def test_symlinked_output_is_written_through_to_its_target(tmp_path, umask):
    """A symlinked output path is written where ``open(path, "w")`` writes:
    the link stays a link, and its target in another directory gets the new
    bytes and keeps its mode."""
    link, target = _linked_file(tmp_path)
    write_jsonl(link, [{"id": "u"}])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == '{"id": "u"}\n'
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert _listing(link.parent, target.parent) == [["link.jsonl"], ["data.jsonl"]]


def test_dangling_symlinked_output_creates_its_target(tmp_path, umask):
    """A link to a file that does not exist yet creates that file, as
    ``open(path, "w")`` does, with the mode the umask leaves."""
    (tmp_path / "real").mkdir()
    link = tmp_path / "link.txt"
    link.symlink_to(Path("real") / "new.txt")  # relative to the link's directory
    umask(0o027)
    atomic_write(link, ["x\n"])
    target = tmp_path / "real" / "new.txt"
    assert link.is_symlink() and target.read_text(encoding="utf-8") == "x\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert _listing(tmp_path, tmp_path / "real") == [["link.txt", "real"], ["new.txt"]]


def test_failed_write_through_a_symlink_changes_nothing(tmp_path):
    """A write that raises midway leaves the link, its target and both
    directories as they were: no temp file is left beside either."""
    link, target = _linked_file(tmp_path)

    def pieces():
        yield "new\n"
        raise RuntimeError("mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        atomic_write(link, pieces())
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert _listing(link.parent, target.parent) == [["link.jsonl"], ["data.jsonl"]]


def _modules_naming(names: set[str]) -> set[str]:
    """Modules of ``src/p2g`` that name any of ``names`` (``json.dumps``
    style) or import a module in ``names``."""
    found = set()
    for path in sorted((Path(ioutil.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                hit = f"{node.value.id}.{node.attr}" in names
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module in names
                       or any(f"{node.module}.{a.name}" in names for a in node.names))
            elif isinstance(node, ast.Import):
                hit = any(a.name in names for a in node.names)
            else:
                continue
            if hit:
                found.add(path.name)
    return found


def test_one_encoder_and_one_atomic_file_path():
    """Only ``ioutil`` encodes JSON and creates or renames a file, and no
    module makes temp files or reads the umask: every output file is strict
    JSON, written atomically where and with the mode ``open(path, "w")``
    would give."""
    assert _modules_naming({"json.dump", "json.dumps", "json.JSONEncoder"}) <= {"ioutil.py"}
    assert _modules_naming({"os.open", "os.replace"}) == {"ioutil.py"}
    assert _modules_naming({"tempfile", "os.umask", "os.rename"}) == set()


def test_every_private_name_is_read_in_the_package():
    """Every private function or class (``_x``, not ``__x__``) that ``src/p2g``
    defines at any depth, and every private name it assigns at module level, is
    read somewhere in the package, as a name or an attribute: code only the
    tests call is dead."""
    defined, read = set(), set()
    for path in sorted((Path(ioutil.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:  # module-level assignments
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            defined.update((path.name, t.id) for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    private = {(module, name) for module, name in defined
               if name.startswith("_") and not name.endswith("__")}
    assert sorted(pair for pair in private if pair[1] not in read) == []
