import argparse
import dataclasses
import gc
import importlib
import json
import logging
import math
import os
import runpy
import sys
from pathlib import Path

import pytest

import p2g.ctc
import p2g.data
import p2g.marginal
from p2g import cli, selftest, synth
from p2g.ctc import save_grids
from p2g.data import (
    CorpusManifest,
    load_manifest,
    load_training_lines,
    manifest_stats,
    save_manifest,
    save_training_lines,
)
from p2g.scorer import NGramScorer, TargetText
from p2g.selftest import CHECKS


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small corpus on disk plus a trained scorer, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    grids, manifest = synth.build_corpus(seed=23, utts_per_lang=4)
    save_grids(grids, root / "grids.jsonl")
    save_manifest(manifest, root / "manifest.jsonl")
    assert cli.main(["augment", "--grids", str(root / "grids.jsonl"),
                     "--refs", str(root / "manifest.jsonl"),
                     "--out", str(root / "train.txt"), "--n-best", "4"]) == 0
    assert cli.main(["train-scorer", "--in", str(root / "train.txt"),
                     "--out", str(root / "scorer.json"),
                     "--order", "2", "--alpha", "0.1"]) == 0
    return root


# ---- config resolution --------------------------------------------------


def test_runconfig_defaults():
    cfg = cli.RunConfig()
    assert (cfg.k, cfg.s, cfg.beam_width, cfg.n_best) == (8, 4, 16, 16)
    assert cfg.target_hours == 240.0
    assert cfg.method == "sskm"
    assert cfg.max_len == 64
    assert (cfg.order, cfg.smoothing_alpha, cfg.context_window) == (3, 0.1, 1)
    assert cfg.epochs == 1 and cfg.temperature == 1.0
    assert cfg.seed is None and cfg.normalize_weights is None
    assert not cfg.resample and not cfg.include_clean and not cfg.renormalize


def test_flags_override_config_file(tmp_path, workdir):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k": 2, "beam_width": 8}), encoding="utf-8")
    out_cfg = tmp_path / "from_config.jsonl"
    out_flag = tmp_path / "from_flag.jsonl"
    base = ["beam", "--in", str(workdir / "grids.jsonl"), "--config", str(config)]
    assert cli.main(base + ["--out", str(out_cfg)]) == 0
    assert cli.main(base + ["--out", str(out_flag), "--k", "1"]) == 0
    n_cfg = {len(json.loads(l)["hyps"]) for l in out_cfg.read_text().splitlines()}
    n_flag = {len(json.loads(l)["hyps"]) for l in out_flag.read_text().splitlines()}
    assert max(n_cfg) == 2 and max(n_flag) == 1


def test_config_paths_section(tmp_path, workdir):
    config = tmp_path / "cfg.json"
    out = tmp_path / "beam.jsonl"
    config.write_text(json.dumps({
        "k": 1, "paths": {"in": str(workdir / "grids.jsonl"), "out": str(out)},
    }), encoding="utf-8")
    assert cli.main(["beam", "--config", str(config)]) == 0
    assert out.exists()


def test_unknown_config_key_exits_1(tmp_path, workdir, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"knn": 3}), encoding="utf-8")
    code = cli.main(["beam", "--in", str(workdir / "grids.jsonl"),
                     "--out", str(tmp_path / "o"), "--config", str(config)])
    assert code == 1
    assert "knn" in capsys.readouterr().err


def test_bad_config_value_exits_1(tmp_path, workdir):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"k": "eight"}), encoding="utf-8")
    assert cli.main(["beam", "--in", str(workdir / "grids.jsonl"),
                     "--out", str(tmp_path / "o"), "--config", str(config)]) == 1


def test_non_string_config_path_exits_1(tmp_path, workdir, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"paths": {"in": [str(workdir / "grids.jsonl")]}}),
                      encoding="utf-8")
    code = cli.main(["beam", "--out", str(tmp_path / "o"), "--config", str(config)])
    assert code == 1
    assert "paths" in capsys.readouterr().err


def test_missing_out_exits_1(workdir, capsys):
    assert cli.main(["beam", "--in", str(workdir / "grids.jsonl")]) == 1
    assert capsys.readouterr().err == "p2g: missing --out (or config paths.out)\n"


def test_unknown_log_level_falls_back_to_warning(workdir, tmp_path, monkeypatch):
    """``P2G_LOG`` that names no logging level logs at WARNING, and the
    command runs."""
    config = {}
    monkeypatch.setenv("P2G_LOG", "bogus")
    monkeypatch.setattr(logging, "basicConfig", lambda **kwargs: config.update(kwargs))
    out = tmp_path / "beam.jsonl"
    assert cli.main(["beam", "--in", str(workdir / "grids.jsonl"), "--out", str(out)]) == 0
    assert config["level"] == logging.WARNING
    assert out.exists()


# every subcommand's option strings, recorded before the options were
# declared in one table; a refactor of the parser must keep them all
FLAG_SURFACE = {
    "beam": ["--beam-width", "--config", "--help", "--in", "--k",
             "--no-renormalize", "--out", "--renormalize", "--seed", "-h"],
    "sample": ["--config", "--help", "--in", "--k", "--no-renormalize", "--out",
               "--renormalize", "--seed", "--temperature", "-h"],
    "score": ["--beam-width", "--config", "--epochs", "--grids", "--help", "--k",
              "--method", "--no-normalize-weights", "--no-renormalize",
              "--no-resample", "--normalize-weights", "--out", "--refs",
              "--renormalize", "--resample", "--scorer", "--seed", "-h"],
    "decode": ["--beam-width", "--config", "--grids", "--help", "--k",
               "--max-len", "--no-normalize-weights", "--no-renormalize",
               "--normalize-weights", "--out", "--renormalize", "--s",
               "--scorer", "--seed", "-h"],
    "augment": ["--beam-width", "--config", "--grids", "--help",
                "--include-clean", "--n-best", "--no-include-clean",
                "--no-renormalize", "--out", "--refs", "--renormalize",
                "--seed", "-h"],
    "balance": ["--config", "--help", "--in", "--out", "--seed",
                "--target-hours", "-h"],
    "train-scorer": ["--alpha", "--config", "--help", "--in", "--order",
                     "--out", "--seed", "--window", "-h"],
    "eval": ["--config", "--help", "--hyps", "--no-table", "--out", "--refs",
             "--seed", "--table", "-h"],
    "selftest": ["--help", "-h"],
}


def test_flag_surface_is_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(o for a in p._actions for o in a.option_strings)
           for name, p in sub.choices.items()}
    assert got == FLAG_SURFACE


def test_one_parser_per_process_keeps_no_flag_between_calls(workdir, tmp_path):
    """``main`` reuses one parser per process; a flag given to one call does
    not carry over to the next, which gets the option's default."""
    assert cli.build_parser() is cli.build_parser()
    base = ["beam", "--in", str(workdir / "grids.jsonl")]
    out = {name: tmp_path / f"{name}.jsonl" for name in ("k1", "default", "k8")}
    assert cli.main(base + ["--out", str(out["k1"]), "--k", "1"]) == 0
    assert cli.main(base + ["--out", str(out["default"])]) == 0
    assert cli.main(base + ["--out", str(out["k8"]), "--k", "8"]) == 0
    hyps = {name: [len(json.loads(line)["hyps"]) for line in path.read_text().splitlines()]
            for name, path in out.items()}
    assert max(hyps["k1"]) == 1 < max(hyps["default"])
    assert out["default"].read_bytes() == out["k8"].read_bytes()


# ---- exit codes ---------------------------------------------------------


def test_missing_input_exits_2(tmp_path, capsys):
    code = cli.main(["beam", "--in", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.startswith("p2g:")


def test_malformed_input_reports_line_and_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "u", "symbols": ["a"], "logp": [[0.0, -1e9]]}\n{oops\n',
                   encoding="utf-8")
    code = cli.main(["beam", "--in", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


# ---- the cyclic garbage collector ----------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("exit_by", [0, 1, 2, "raise"])
def test_main_restores_the_collector_state(workdir, tmp_path, monkeypatch, enabled, exit_by):
    """``main`` pauses the collector for the command and leaves it as it found
    it on every way out: status 0, a bad option (1), a bad input file (2) and
    an exception that escapes the handler."""
    argv = ["beam", "--in", str(workdir / "grids.jsonl"), "--k", "2",
            "--out", str(tmp_path / "beam.jsonl")]
    real, seen = p2g.ctc.load_grids, []

    def load_grids(*args, **kwargs):
        seen.append(gc.isenabled())
        if exit_by == "raise":
            raise RuntimeError("escapes the handler")
        return real(*args, **kwargs)

    monkeypatch.setattr(p2g.ctc, "load_grids", load_grids)
    if exit_by == 1:
        argv += ["--config", str(tmp_path / "cfg.json")]
        (tmp_path / "cfg.json").write_text('{"beam_width": 0}', encoding="utf-8")
    elif exit_by == 2:
        argv[2] = str(tmp_path / "missing.jsonl")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if exit_by == "raise":
            with pytest.raises(RuntimeError, match="escapes the handler"):
                cli.main(argv)
        else:
            assert cli.main(argv) == exit_by
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([] if exit_by == 1 else [False])


def _pipeline(root: Path, utts_per_lang: int) -> dict[str, list[str]]:
    """name -> argv of every pipeline command that reads or writes records, in
    the order they run, on a corpus of ``utts_per_lang`` utterances per
    language."""
    root.mkdir()
    grids, manifest = synth.build_corpus(seed=5, utts_per_lang=utts_per_lang)
    save_grids(grids, root / "grids.jsonl")
    save_manifest(manifest, root / "manifest.jsonl")
    g, m, bal, train, scorer, dec = (str(root / name) for name in (
        "grids.jsonl", "manifest.jsonl", "bal.jsonl", "train.txt", "scorer.json", "dec.jsonl"))
    return {
        "balance": ["balance", "--in", m, "--out", bal, "--target-hours", "0.02",
                    "--seed", "1"],
        "augment": ["augment", "--grids", g, "--refs", bal, "--out", train, "--n-best", "4"],
        "train-scorer": ["train-scorer", "--in", train, "--out", scorer],
        **{f"score {method}": ["score", "--grids", g, "--refs", m, "--scorer", scorer,
                               "--method", method, "--k", "4", "--seed", "1",
                               "--out", str(root / f"{method}.jsonl")]
           for method in p2g.marginal.METHODS},
        "decode": ["decode", "--grids", g, "--scorer", scorer, "--k", "4", "--s", "2",
                   "--out", dec],
        "eval": ["eval", "--refs", m, "--hyps", dec, "--out", str(root / "report.json"),
                 "--no-table"],
    }


def test_commands_make_no_reference_cycles(tmp_path, capsys):
    """What makes pausing the collector safe on large inputs: what a command
    leaves to the collector does not grow with its input. After one warm-up
    command, a full collection after each command, with the collector off,
    frees as many objects on 50 utterances per language as on 10. (It frees
    none, except after ``eval``, whose indented report goes through the
    standard library's pure-Python JSON encoder, a fixed set of closures.)"""
    freed: dict[int, dict[str, int]] = {10: {}, 50: {}}
    was = gc.isenabled()
    gc.disable()
    try:
        for size, counts in freed.items():
            commands = _pipeline(tmp_path / str(size), size)
            if size == 10:
                assert cli.main(commands["balance"]) == 0
            gc.collect()
            for name, argv in commands.items():
                assert cli.main(argv) == 0
                counts[name] = gc.collect()
    finally:
        if was:
            gc.enable()
    capsys.readouterr()
    assert len(freed[10]) == 8 and freed[10] == freed[50]
    assert {n for name, n in freed[10].items() if name != "eval"} == {0}


def _first_lines(path, n=2):
    return path.read_text(encoding="utf-8").splitlines()[:n]


@pytest.mark.parametrize("source", ["grids", "scorer", "config"])
def test_deeply_nested_json_exits_2_naming_the_file(workdir, tmp_path, capsys, source):
    """JSON nested past the decoder's recursion limit is bad input, like any
    other: a grids line, a scorer file or a config file of 100,000 open
    brackets exits 2 naming the file (and the line of a grids file) rather
    than crashing with a ``RecursionError``."""
    deep = "[" * 100_000
    bad = tmp_path / "deep.json"
    out = tmp_path / "out.jsonl"
    grids = str(workdir / "grids.jsonl")
    if source == "grids":
        bad.write_text("\n".join(_first_lines(workdir / "grids.jsonl", 1) + [deep]) + "\n",
                       encoding="utf-8")
        argv, where = ["beam", "--in", str(bad)], f"{bad}, line 2: "
    elif source == "scorer":
        bad.write_text(deep, encoding="utf-8")
        argv, where = ["decode", "--grids", grids, "--scorer", str(bad)], f"{bad}: "
    else:
        bad.write_text(deep, encoding="utf-8")
        argv, where = ["beam", "--in", grids, "--config", str(bad)], f"{bad}: "
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert f"p2g: {where}maximum recursion depth exceeded" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["scorer", "config"])
def test_a_json_file_that_is_not_an_object_exits_2_naming_the_file(workdir, tmp_path, capsys,
                                                                   source):
    """A scorer file or a config file that is JSON, but an array and not an
    object, exits 2 naming the file."""
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    grids = str(workdir / "grids.jsonl")
    if source == "scorer":
        argv = ["decode", "--grids", grids, "--scorer", str(bad)]
        expect = "not a scorer file"
    else:
        argv = ["beam", "--in", grids, "--config", str(bad)]
        expect = "config must be a JSON object"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"p2g: {bad}: {expect}\n"
    assert not out.exists()


@pytest.mark.parametrize("reader", ["grids", "manifest", "hyps", "training", "blank-line",
                                    "not-an-object", "repeat-not-a-boolean"])
def test_every_line_reader_locates_a_bad_record(workdir, tmp_path, capsys, reader):
    """A bad record on the last line of any line-oriented input exits 2 and
    names the file, the line and the fault, whichever check refuses it. A
    line of only whitespace is skipped, and the lines after it keep their
    own numbers."""
    bad = tmp_path / "bad"
    out = str(tmp_path / "out")
    grids = _first_lines(workdir / "grids.jsonl")
    bad_grid = '{"id": "u", "symbols": ["a"], "logp": [[0.0, "x"]]}'
    beam = ["beam", "--in", str(bad), "--out", out]
    balance = ["balance", "--in", str(bad), "--out", out, "--seed", "1"]
    record = {"id": "u", "lang": "xx", "dur_sec": 1.0, "phonemes": [], "text": ""}
    if reader == "grids":
        lines, argv = grids + [bad_grid], beam
        expect = "a logp cell is neither a number nor null"
    elif reader == "blank-line":
        lines, argv = [grids[0], " \t ", grids[1], bad_grid], beam
        expect = "a logp cell is neither a number nor null"
    elif reader == "not-an-object":
        lines, argv, expect = grids + ["[1, 2]"], beam, "expected a JSON object"
    elif reader == "manifest":
        lines = _first_lines(workdir / "manifest.jsonl") + [
            json.dumps({**record, "dur_sec": -1.0})]
        argv, expect = balance, "dur_sec must be a positive duration"
    elif reader == "repeat-not-a-boolean":
        lines = _first_lines(workdir / "manifest.jsonl") + [
            json.dumps({**record, "repeat": 1})]
        argv, expect = balance, "field 'repeat' must be a boolean"
    elif reader == "hyps":
        row = json.dumps({"id": "u1", "lid": "xx", "text": "t"})
        lines = [row, json.dumps({"id": "u2", "lid": "xx", "text": "t"}), row]
        argv = ["eval", "--refs", str(workdir / "manifest.jsonl"),
                "--hyps", str(bad), "--out", out]
        expect = "duplicate utterance id 'u1'"
    else:
        lines = _first_lines(workdir / "train.txt") + ["<ipa> a b <lid:xx> ab"]
        argv = ["train-scorer", "--in", str(bad), "--out", out]
        expect = "expected a training line '<ipa> p1 p2 ... | <lid:xx> graphemes'"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(argv) == 2
    assert f"p2g: {bad}, line {len(lines)}: {expect}\n" in capsys.readouterr().err


@pytest.mark.parametrize("line, expect", [
    ("<ipa> a\tb | <lid:xx> t", "phoneme token 'a\\tb' is empty or contains '|' or whitespace"),
    ("<ipa> | a | <lid:xx> t", "expected a training line '<ipa> p1 p2 ... | <lid:xx> graphemes'"),
], ids=["tab-in-token", "pipe-token"])
def test_train_scorer_refuses_a_line_the_writer_cannot_write(workdir, tmp_path, capsys,
                                                             line, expect):
    """A training line is read only as ``augment`` writes it: a phoneme token
    holding whitespace or '|' exits 2 at its line, and no scorer is trained on
    a phoneme that no training line can hold."""
    bad = tmp_path / "train.txt"
    bad.write_text("\n".join(_first_lines(workdir / "train.txt", 1) + [line]) + "\n",
                   encoding="utf-8")
    out = tmp_path / "scorer.json"
    assert cli.main(["train-scorer", "--in", str(bad), "--out", str(out)]) == 2
    assert f"p2g: {bad}, line 2: {expect}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["beam", "sample", "decode", "score", "augment"])
def test_every_grid_reader_refuses_a_repeated_id(workdir, tmp_path, capsys, command):
    """A grid id given twice exits 2 at its second line in every command that
    reads grids, so no output repeats an id that ``eval`` would refuse."""
    lines = _first_lines(workdir / "grids.jsonl", 3)
    bad = tmp_path / "grids.jsonl"
    bad.write_text("\n".join(lines + lines[1:2]) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    refs, scorer = str(workdir / "manifest.jsonl"), str(workdir / "scorer.json")
    argv = {"beam": ["--in", str(bad)],
            "sample": ["--in", str(bad), "--k", "2", "--seed", "1"],
            "decode": ["--grids", str(bad), "--scorer", scorer],
            "score": ["--grids", str(bad), "--refs", refs, "--scorer", scorer,
                      "--method", "tkm", "--k", "2"],
            "augment": ["--grids", str(bad), "--refs", refs]}[command]
    assert cli.main([command, *argv, "--out", str(out)]) == 2
    utt_id = json.loads(lines[1])["id"]
    assert f"{bad}, line 4: duplicate grid id {utt_id!r}" in capsys.readouterr().err
    assert not out.exists()


def test_bench_traced_names_resolve():
    """The bench tracer patches each ``TRACED`` name where it is defined, and
    a method through ``vars(cls)``: a name that moved breaks only the traced
    bench, so it is checked here."""
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))
    for module, attr in spans["TRACED"]:
        home = importlib.import_module(f"p2g.{module}")
        owner, _, name = attr.rpartition(".")
        assert name in vars(getattr(home, owner) if owner else home), (module, attr)
    assert {"log_score", "generate_top_s"} <= set(vars(NGramScorer))


def test_traced_beam_records_one_span_and_its_frames_per_grid(workdir, tmp_path):
    """The traced bench opens one ``ctc.prefix_beam_search`` span per call
    and counts ``args[0].frames`` of it, so a beam that took several grids
    per call would break the traced bench: it is checked here."""
    spans = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "spans.py"))
    tracer = spans["Tracer"]()
    with spans["Patched"](tracer):
        assert cli.main(["beam", "--in", str(workdir / "grids.jsonl"), "--k", "2",
                         "--out", str(tmp_path / "beam.jsonl")]) == 0
    grids = p2g.ctc.load_grids(workdir / "grids.jsonl")
    beams = [span.utt for span in tracer.spans if span.name == "ctc.prefix_beam_search"]
    assert sorted(beams) == sorted(g.utterance_id for g in grids)
    assert tracer.counters["ctc.prefix_beam_search.frames"] == sum(g.frames for g in grids)


def test_randomized_commands_require_seed(workdir, tmp_path, capsys):
    code = cli.main(["sample", "--in", str(workdir / "grids.jsonl"),
                     "--out", str(tmp_path / "s.jsonl"), "--k", "2"])
    assert code == 1
    assert "--seed" in capsys.readouterr().err
    code = cli.main(["balance", "--in", str(workdir / "manifest.jsonl"),
                     "--out", str(tmp_path / "b.jsonl")])
    assert code == 1
    code = cli.main(["score", "--grids", str(workdir / "grids.jsonl"),
                     "--refs", str(workdir / "manifest.jsonl"),
                     "--scorer", str(workdir / "scorer.json"),
                     "--method", "sskm", "--out", str(tmp_path / "n.jsonl")])
    assert code == 1


def test_tkm_score_needs_no_seed(workdir, tmp_path):
    assert cli.main(["score", "--grids", str(workdir / "grids.jsonl"),
                     "--refs", str(workdir / "manifest.jsonl"),
                     "--scorer", str(workdir / "scorer.json"),
                     "--method", "tkm", "--k", "2",
                     "--out", str(tmp_path / "n.jsonl")]) == 0


def test_score_refs_with_unknown_language_exits_2(workdir, tmp_path, capsys):
    rows = [json.loads(l) for l in
            (workdir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()]
    rows[-1]["lang"] = "fr"
    refs = tmp_path / "refs.jsonl"
    refs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "n.jsonl"
    code = cli.main(["score", "--grids", str(workdir / "grids.jsonl"),
                     "--refs", str(refs), "--scorer", str(workdir / "scorer.json"),
                     "--method", "tkm", "--k", "2", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert str(refs) in captured.err and "'fr'" in captured.err
    assert captured.out == "" and not out.exists()


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


@pytest.mark.parametrize("case", ["eval-missing-hypothesis", "augment-line-break",
                                  "score-missing-grid", "score-unknown-language"])
def test_input_mismatch_exits_2_naming_the_file_and_utterance(workdir, tmp_path, capsys,
                                                              case):
    """An input file that does not fit the others is malformed input: exit 2,
    naming that file and the utterance that shows it."""
    manifest, grids = workdir / "manifest.jsonl", workdir / "grids.jsonl"
    rows = [json.loads(l) for l in manifest.read_text(encoding="utf-8").splitlines()]
    utt_id = rows[1]["id"]
    bad, out = tmp_path / "bad.jsonl", tmp_path / "out"
    score = ["score", "--scorer", str(workdir / "scorer.json"), "--method", "tkm",
             "--k", "2"]
    if case == "eval-missing-hypothesis":
        _write_rows(bad, [{"id": r["id"], "lid": r["lang"], "text": r["text"]}
                          for r in rows if r["id"] != utt_id])
        argv = ["eval", "--refs", str(manifest), "--hyps", str(bad)]
    elif case == "augment-line-break":
        rows[1]["text"] += "\nmore"
        _write_rows(bad, rows)
        argv = ["augment", "--grids", str(grids), "--refs", str(bad)]
    elif case == "score-missing-grid":
        lines = grids.read_text(encoding="utf-8").splitlines()
        bad.write_text("".join(l + "\n" for l in lines if json.loads(l)["id"] != utt_id),
                       encoding="utf-8")
        argv = score + ["--grids", str(bad), "--refs", str(manifest)]
    else:
        rows[1]["lang"] = "fr"
        _write_rows(bad, rows)
        argv = score + ["--grids", str(grids), "--refs", str(bad)]
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"p2g: {bad}: ") and repr(utt_id) in err
    assert not out.exists()


def test_eval_language_without_reference_words_exits_2(workdir, tmp_path, capsys):
    """A language whose every reference text is empty has no word error rate:
    the refs file is bad input, so exit 2 naming it and the language."""
    rows = [json.loads(l) for l in
            (workdir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()]
    for row in rows:
        if row["lang"] == "nl":
            row["text"] = ""
    refs, hyps, out = tmp_path / "refs.jsonl", tmp_path / "hyps.jsonl", tmp_path / "out"
    _write_rows(refs, rows)
    _write_rows(hyps, [{"id": r["id"], "lid": r["lang"], "text": "x"} for r in rows])
    assert cli.main(["eval", "--refs", str(refs), "--hyps", str(hyps),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"p2g: {refs}: language 'nl': error rate "
                                       "undefined: total reference length is zero\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["augment", "balance"])
def test_language_id_with_a_trailing_line_break_exits_2(workdir, tmp_path, capsys, command):
    """A refs language id is matched whole, so one ending in a line break is
    refused at its line rather than written as a ``<lid:..>`` tag split over
    two training lines."""
    rows = [json.loads(l) for l in
            (workdir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()]
    rows[1]["lang"] += "\n"
    bad, out = tmp_path / "refs.jsonl", tmp_path / "out"
    _write_rows(bad, rows)
    argv = {"augment": ["augment", "--grids", str(workdir / "grids.jsonl"), "--refs", str(bad)],
            "balance": ["balance", "--in", str(bad), "--seed", "1"]}[command]
    assert cli.main(argv + ["--out", str(out)]) == 2
    lang = rows[1]["lang"]
    assert f"p2g: {bad}, line 2: invalid language id {lang!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["grids", "refs"])
def test_augment_refuses_an_unwritable_token_naming_its_file(tmp_path, capsys, source):
    """A phoneme token with whitespace cannot go on a training line: exit 2,
    naming the utterance and the file the token came from, the grids file for
    an n-best token and the refs file for an ``--include-clean`` one."""
    grids, refs, out = tmp_path / "grids.jsonl", tmp_path / "refs.jsonl", tmp_path / "out"
    symbols, phonemes = (["a b", "c"], ["c"]) if source == "grids" else (["a", "c"], ["a b"])
    row = [math.log(0.1), math.log(0.8), math.log(0.1)]
    _write_rows(grids, [{"id": "u1", "symbols": symbols, "logp": [row, row, row]}])
    _write_rows(refs, [{"id": "u1", "lang": "xx", "dur_sec": 1.0, "phonemes": phonemes,
                        "text": "t"}])
    assert cli.main(["augment", "--grids", str(grids), "--refs", str(refs), "--n-best", "2",
                     "--include-clean", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    bad = grids if source == "grids" else refs
    assert err.startswith(f"p2g: {bad}: ") and "'u1'" in err and "'a b'" in err
    assert not out.exists()


@pytest.mark.parametrize("command, refused", [
    ("beam", None), ("sample", None), ("decode", None), ("augment", None),
    ("balance", None), ("train-scorer", "in"), ("score", "refs"), ("eval", "refs")])
def test_empty_input(workdir, tmp_path, capsys, command, refused):
    """Every input file but the scorer is empty. A command that maps records
    to records writes an empty output and exits 0; one that reports over its
    records (a scorer, a mean NLL, error rates) refuses the empty file: exit 2,
    naming it."""
    empty = {key: str(tmp_path / f"{key}.empty") for key in ("in", "grids", "refs", "hyps")}
    for path in empty.values():
        Path(path).write_text("", encoding="utf-8")
    scorer = str(workdir / "scorer.json")
    argv = {"beam": ["--in", empty["in"]],
            "sample": ["--in", empty["in"], "--seed", "1"],
            "decode": ["--grids", empty["grids"], "--scorer", scorer],
            "augment": ["--grids", empty["grids"], "--refs", empty["refs"]],
            "balance": ["--in", empty["in"], "--seed", "1"],
            "train-scorer": ["--in", empty["in"]],
            "score": ["--grids", empty["grids"], "--refs", empty["refs"],
                      "--scorer", scorer, "--method", "tkm"],
            "eval": ["--refs", empty["refs"], "--hyps", empty["hyps"]]}[command]
    out = tmp_path / "out"
    code = cli.main([command, *argv, "--out", str(out)])
    if refused is None:
        assert code == 0 and out.read_text(encoding="utf-8") == ""
    else:
        assert code == 2
        assert capsys.readouterr().err == f"p2g: {empty[refused]}: the file holds no records\n"
        assert not out.exists()


_SCORE = ["score", "--grids", "{w}/grids.jsonl", "--refs", "{w}/manifest.jsonl",
          "--scorer", "{w}/scorer.json", "--method", "tkm"]


@pytest.mark.parametrize("argv, config, name", [
    (["train-scorer", "--in", "{w}/train.txt", "--alpha", "nan"], None,
     "smoothing_alpha"),
    (["sample", "--in", "{w}/grids.jsonl", "--temperature", "inf"], None,
     "temperature"),
    (["balance", "--in", "{w}/manifest.jsonl", "--target-hours", "nan"], None,
     "target_hours"),
    (["train-scorer", "--in", "{w}/train.txt"], {"smoothing_alpha": float("nan")},
     "smoothing_alpha"),
    (["sample", "--in", "{w}/grids.jsonl"], {"temperature": float("-inf")},
     "temperature"),
    (["balance", "--in", "{w}/manifest.jsonl"], {"target_hours": float("inf")},
     "target_hours"),
    # zero epochs would otherwise write an empty file and exit 0
    (_SCORE + ["--epochs", "0"], None, "epochs"),
    (_SCORE, {"epochs": 0}, "epochs"),
])
def test_out_of_range_option_exits_1(workdir, tmp_path, capsys, argv, config, name):
    out = tmp_path / "out"
    argv = [a.format(w=workdir) for a in argv] + ["--out", str(out), "--seed", "1"]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config), encoding="utf-8")  # NaN, Infinity
        argv += ["--config", str(path)]
    assert cli.main(argv) == 1
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_rejected(workdir, tmp_path):
    assert cli.main(["sample", "--in", str(workdir / "grids.jsonl"),
                     "--out", str(tmp_path / "s"), "--k", "1",
                     "--seed", "-3"]) == 1


# ---- command behaviour --------------------------------------------------


def test_sample_deterministic(workdir, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert cli.main(["sample", "--in", str(workdir / "grids.jsonl"),
                         "--out", str(out), "--k", "3", "--seed", "11"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_balance_output_hits_target(workdir, tmp_path):
    out = tmp_path / "balanced.jsonl"
    assert cli.main(["balance", "--in", str(workdir / "manifest.jsonl"),
                     "--out", str(out), "--target-hours", "0.02",
                     "--seed", "5"]) == 0
    for st in manifest_stats(load_manifest(out)).values():
        assert st.hours >= 0.02


def _balanced_refs(workdir, tmp_path):
    """The workdir manifest after ``balance``: originals plus copies that
    share their source's id and grid."""
    refs = tmp_path / "balanced.jsonl"
    assert cli.main(["balance", "--in", str(workdir / "manifest.jsonl"),
                     "--out", str(refs), "--target-hours", "0.02",
                     "--seed", "5"]) == 0
    records = load_manifest(refs).records
    assert len({r.utterance_id for r in records}) < len(records)
    return refs


def _augment(workdir, refs, out, *extra):
    return cli.main(["augment", "--grids", str(workdir / "grids.jsonl"),
                     "--refs", str(refs), "--out", str(out), "--n-best", "4", *extra])


@pytest.mark.parametrize("extra", [[], ["--include-clean"]])
def test_augment_with_copies_matches_one_beam_per_record(workdir, tmp_path, extra):
    refs = _balanced_refs(workdir, tmp_path)
    out = tmp_path / "train.txt"
    assert _augment(workdir, refs, out, *extra) == 0
    grids = {g.utterance_id: g for g in p2g.ctc.load_grids(workdir / "grids.jsonl")}
    pairs = []
    for rec in load_manifest(refs).records:
        grid = grids[rec.utterance_id]
        for h in p2g.ctc.prefix_beam_search(grid, 16, 4):
            pairs.append((grid.alphabet.to_symbols(h.sequence), rec.text))
        if extra:
            pairs.append((rec.phonemes, rec.text))
    want = tmp_path / "want.txt"
    save_training_lines(pairs, want)
    assert out.read_bytes() == want.read_bytes()


def test_augment_runs_one_beam_per_grid(workdir, tmp_path, monkeypatch, caplog):
    refs = _balanced_refs(workdir, tmp_path)
    records = load_manifest(refs).records
    real = p2g.ctc.prefix_beam_search
    beamed = []

    def counting(grid, beam_width, k):
        beamed.append(grid.utterance_id)
        return real(grid, beam_width, k)

    monkeypatch.setattr(p2g.ctc, "prefix_beam_search", counting)
    caplog.set_level(logging.INFO, logger="p2g.cli")
    assert _augment(workdir, refs, tmp_path / "train.txt") == 0
    assert sorted(beamed) == sorted({r.utterance_id for r in records})
    lines = (tmp_path / "train.txt").read_text(encoding="utf-8").splitlines()
    assert (f"augment: {len(lines)} pairs from {len(records)} records "
            f"over {len(beamed)} grids") in caplog.messages


def test_augment_pairs_a_shared_grid_with_each_records_own_text(workdir, tmp_path):
    first = load_manifest(workdir / "manifest.jsonl").records[0]
    other = dataclasses.replace(first, text=TargetText(first.lang, "zz"), repeat=True)
    refs = tmp_path / "refs.jsonl"
    save_manifest(CorpusManifest(records=(first, other)), refs)
    out = tmp_path / "train.txt"
    assert _augment(workdir, refs, out, "--include-clean") == 0
    pairs = load_training_lines(out)
    half = len(pairs) // 2
    assert [t for _, t in pairs] == [first.text] * half + [other.text] * half
    assert [p for p, _ in pairs[:half]] == [p for p, _ in pairs[half:]]


def test_score_epochs_without_resample_repeat_values(workdir, tmp_path):
    out = tmp_path / "nll.jsonl"
    assert cli.main(["score", "--grids", str(workdir / "grids.jsonl"),
                     "--refs", str(workdir / "manifest.jsonl"),
                     "--scorer", str(workdir / "scorer.json"),
                     "--method", "sskm", "--k", "8", "--seed", "3",
                     "--epochs", "2", "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    first = {r["id"]: r["log_marginal"] for r in rows if r["epoch"] == 0}
    second = {r["id"]: r["log_marginal"] for r in rows if r["epoch"] == 1}
    assert first == second


def test_score_resample_draws_fresh_each_epoch(workdir, tmp_path):
    out = tmp_path / "nll.jsonl"
    assert cli.main(["score", "--grids", str(workdir / "grids.jsonl"),
                     "--refs", str(workdir / "manifest.jsonl"),
                     "--scorer", str(workdir / "scorer.json"),
                     "--method", "sskm", "--k", "8", "--seed", "3",
                     "--epochs", "2", "--resample", "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    first = {r["id"]: r["log_marginal"] for r in rows if r["epoch"] == 0}
    second = {r["id"]: r["log_marginal"] for r in rows if r["epoch"] == 1}
    assert first != second


@pytest.mark.parametrize("command, patched", [("score", "batch_objective"),
                                               ("sample", "sample_k_hypotheses")])
def test_failure_mid_run_leaves_no_output(workdir, tmp_path, monkeypatch, command, patched):
    """``score`` and ``sample`` feed their writer as they go; a failure after
    the first epoch or grid leaves no new output file and an old one as it
    was. (The golden digests pin the bytes of both, with two epochs.)"""
    argv = {"score": ["score", "--grids", str(workdir / "grids.jsonl"),
                      "--refs", str(workdir / "manifest.jsonl"),
                      "--scorer", str(workdir / "scorer.json"), "--method", "sskm",
                      "--k", "4", "--seed", "3", "--epochs", "2"],
            "sample": ["sample", "--in", str(workdir / "grids.jsonl"), "--k", "2",
                       "--seed", "3"]}[command]
    module = {"score": p2g.marginal, "sample": p2g.ctc}[command]
    real, calls = getattr(module, patched), []

    def fails_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("injected failure")
        return real(*args, **kwargs)

    old = tmp_path / "old.jsonl"
    assert cli.main(argv + ["--out", str(old)]) == 0
    before = old.read_bytes()
    monkeypatch.setattr(module, patched, fails_second)
    assert cli.main(argv + ["--out", str(tmp_path / "new.jsonl")]) == 1
    calls.clear()
    assert cli.main(argv + ["--out", str(old)]) == 1
    assert len(calls) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.jsonl"]
    assert old.read_bytes() == before


def _open_error(path: str) -> str:
    """What ``p2g`` prints for the ``OSError`` of ``open(path, "w")``."""
    try:
        open(path, "w", encoding="utf-8").close()
    except OSError as exc:
        return f"p2g: {exc}\n"
    raise AssertionError(f"open wrote {path}")


def test_output_with_a_long_name_is_written(workdir, tmp_path):
    """The temp file beside the output has a short name of its own, so an
    output name of 250 bytes, which ``open`` can create, is written."""
    short, long = tmp_path / "beam.jsonl", tmp_path / ("o" * 250)
    for out in (short, long):
        assert cli.main(["beam", "--in", str(workdir / "grids.jsonl"), "--out", str(out)]) == 0
    assert long.read_bytes() == short.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([short.name, long.name])


@pytest.mark.parametrize("out", ["nodir/out.jsonl", "isdir"])
def test_output_open_cannot_write_exits_2_as_open_would(workdir, tmp_path, capsys,
                                                        monkeypatch, out):
    """An output in a missing directory, or one that is a directory, exits 2
    with the message ``open(path, "w")`` gives, naming the path as given and
    not the temp file, and leaves no file behind."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "isdir").mkdir()
    want = _open_error(out)
    assert cli.main(["beam", "--in", str(workdir / "grids.jsonl"), "--out", out]) == 2
    assert capsys.readouterr().err == want
    assert [p.name for p in tmp_path.iterdir()] == ["isdir"]
    assert list((tmp_path / "isdir").iterdir()) == []


def _set(key, value):
    def edit(payload):
        payload[key] = value
    return edit


def _set_first_count(value):
    def edit(payload):
        bucket = payload["counts"][0]["n"]
        bucket[next(iter(bucket))] = value
    return edit


@pytest.mark.parametrize("edit, expect", [
    (lambda p: p["languages"].append(p["languages"][0]), "duplicate language"),
    (_set("smoothing_alpha", float("nan")), "smoothing_alpha"),
    (_set("smoothing_alpha", float("inf")), "smoothing_alpha"),
    (_set_first_count(-3), "count"),
    (_set_first_count(2.7), "count"),
    (_set("order", 2.9), "'order'"),
    (_set("order", "2"), "'order'"),
    (_set("order", True), "'order'"),
    (lambda p: p.update(units="".join(p["units"])), "'units'"),
    (lambda p: p["counts"].append(["ctx", "hist"]), "'counts'"),
    (_set("smoothing_alpha", 5e-324), "smoothing_alpha"),
    (lambda p: p["languages"].append("XX"), "invalid language id 'XX'"),
    (lambda p: p["languages"].append("x y"), "invalid language id 'x y'"),
    (lambda p: p["languages"].append(""), "invalid language id ''"),
    (lambda p: p["counts"][0]["hist"].extend(["a", "b"]), "no step reads"),
    (lambda p: p["counts"][0].update(ctx=["a"] * 5), "no step reads"),
    (_set("version", 2), "unsupported scorer version 2"),
], ids=["duplicate-language", "alpha-nan", "alpha-infinity", "count-negative",
        "count-fraction", "order-fraction", "order-string", "order-bool",
        "units-string", "counts-entry-not-object", "alpha-subnormal",
        "language-upper-case", "language-space", "language-empty",
        "hist-longer-than-order", "ctx-wider-than-window", "version-2"])
def test_decode_with_malformed_scorer_inventory_exits_2(workdir, tmp_path, capsys,
                                                        edit, expect):
    """Scorer-file fields are type-checked, never coerced, and the scorer's
    invariants reject a NaN or infinite alpha, an alpha so small that a
    log-prob underflows to log(0), a count that is not a non-negative
    integer, and a counts key that no step reads (at order 2 and window 1,
    a 3-unit hist or a 5-phoneme ctx), and a file of another version: each
    is a located input error, not a crash or a silently different model."""
    payload = json.loads((workdir / "scorer.json").read_text(encoding="utf-8"))
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "decoded.jsonl"
    code = cli.main(["decode", "--grids", str(workdir / "grids.jsonl"),
                     "--scorer", str(bad), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and expect in err
    assert list(tmp_path.iterdir()) == [bad]


def test_train_scorer_with_subnormal_alpha_exits_1(workdir, tmp_path, capsys):
    """An alpha so small that a log-prob underflows is refused before any
    scorer file is written, so no reader meets one."""
    out = tmp_path / "scorer.json"
    assert cli.main(["train-scorer", "--in", str(workdir / "train.txt"),
                     "--out", str(out), "--alpha", "5e-324"]) == 1
    assert "smoothing_alpha" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_decode_with_counts_outside_scorer_inventory_exits_2(workdir, tmp_path, capsys):
    payload = json.loads((workdir / "scorer.json").read_text(encoding="utf-8"))
    payload["counts"][0]["n"]["<unknown>"] = 5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "decoded.jsonl"
    code = cli.main(["decode", "--grids", str(workdir / "grids.jsonl"),
                     "--scorer", str(bad), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'<unknown>'" in err
    assert not out.exists()


def test_beam_widens_to_k_when_k_exceeds_the_default_width(workdir, tmp_path):
    """--k above the default --beam-width of 16 widens the beam to k, as an
    explicit --beam-width equal to k would."""
    implied, explicit = tmp_path / "implied.jsonl", tmp_path / "explicit.jsonl"
    grids = str(workdir / "grids.jsonl")
    assert cli.main(["beam", "--in", grids, "--k", "20", "--out", str(implied)]) == 0
    assert cli.main(["beam", "--in", grids, "--k", "20", "--beam-width", "20",
                     "--out", str(explicit)]) == 0
    assert implied.read_bytes() == explicit.read_bytes()


def test_decode_then_eval(workdir, tmp_path, capsys):
    decoded = tmp_path / "decoded.jsonl"
    report = tmp_path / "report.json"
    assert cli.main(["decode", "--grids", str(workdir / "grids.jsonl"),
                     "--scorer", str(workdir / "scorer.json"),
                     "--k", "4", "--s", "2", "--out", str(decoded)]) == 0
    assert cli.main(["eval", "--refs", str(workdir / "manifest.jsonl"),
                     "--hyps", str(decoded), "--out", str(report)]) == 0
    stdout = capsys.readouterr().out
    assert "hrs-wavg" in stdout
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert set(payload["languages"]) == {"ky", "nl", "sv", "tt"}


def test_eval_no_table_silences_stdout(workdir, tmp_path, capsys):
    decoded = tmp_path / "decoded.jsonl"
    assert cli.main(["decode", "--grids", str(workdir / "grids.jsonl"),
                     "--scorer", str(workdir / "scorer.json"),
                     "--k", "2", "--s", "1", "--out", str(decoded)]) == 0
    capsys.readouterr()
    assert cli.main(["eval", "--refs", str(workdir / "manifest.jsonl"),
                     "--hyps", str(decoded), "--out", str(tmp_path / "r.json"),
                     "--no-table"]) == 0
    assert capsys.readouterr().out == ""


def test_readme_quickstart_scripts_exit_0(tmp_path, monkeypatch):
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    for argv in (["make_synthetic_corpus.py", "--out-dir", str(tmp_path),
                  "--seed", "42", "--utts-per-lang", "2"],
                 ["run_pipeline.py", "--corpus-dir", str(tmp_path), "--seed", "17"]):
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exited:
            runpy.run_path(str(scripts / argv[0]), run_name="__main__")
        assert exited.value.code == 0, argv[0]


# ---- selftest -----------------------------------------------------------


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(CHECKS)
    assert all(line.startswith("PASS  ") for line in lines)


def test_selftest_catches_forward_mutation(monkeypatch, capsys):
    """A corrupted forward algorithm must turn the selftest red; this guards
    against the checks silently testing nothing."""
    real = p2g.ctc.forward_logprob

    def skewed(grid, seqs):
        return [lp + 1e-3 for lp in real(grid, seqs)]

    monkeypatch.setattr(p2g.ctc, "forward_logprob", skewed)
    assert cli.main(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_selftest_catches_sampler_mutation(monkeypatch, capsys):
    real = p2g.ctc.sample_paths

    def biased(grid, k, rng, temperature=1.0):
        paths = real(grid, k, rng, temperature)
        paths = paths.copy()
        paths[::7] = 0  # overwrite every 7th draw with all-blank frames
        return paths

    monkeypatch.setattr(p2g.ctc, "sample_paths", biased)
    assert cli.main(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_selftest_catches_beam_mutation(monkeypatch, capsys):
    real = p2g.ctc.prefix_beam_search

    def swapped(*args, **kwargs):
        hyps = real(*args, **kwargs)
        return hyps[1::-1] + hyps[2:]

    monkeypatch.setattr(p2g.ctc, "prefix_beam_search", swapped)
    assert cli.main(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("defect, off", [
    ("short-of-the-target", "['ky', 'nl', 'ru', 'sv', 'tr', 'tt']"),
    ("high-resource-row-changed", "['en']"),
], ids=["short-of-the-target", "high-resource-row-changed"])
def test_selftest_catches_oversampling_mutation(monkeypatch, defect, off):
    """c09 fails when a low-resource language ends short of the target hours,
    and when a row of a language above the target changes, even with its
    hours and repetition factor kept."""
    real = p2g.data.oversample_manifest

    def mutated(manifest, target_hours, rng):
        if defect == "short-of-the-target":
            return real(manifest, target_hours / 2, rng)
        records = list(real(manifest, target_hours, rng).records)
        first = next(i for i, rec in enumerate(records) if rec.lang == "en")
        records[first] = dataclasses.replace(records[first], phonemes=("q",))
        return CorpusManifest(records=tuple(records))

    monkeypatch.setattr(p2g.data, "oversample_manifest", mutated)
    result = selftest.c09_oversampling(full=False)
    assert not result.passed
    assert f"languages off: {off};" in result.detail


def test_selftest_catches_round_trip_mutation(monkeypatch):
    """c10 fails when reading a training line back gives another pair."""
    real = p2g.data.parse_training_line

    def lossy(line):
        phonemes, text = real(line)
        return phonemes[:-1], text

    monkeypatch.setattr(p2g.data, "parse_training_line", lossy)
    result = selftest.c10_round_trip(full=False)
    assert not result.passed
    assert result.detail.startswith("mismatch on ")


def test_selftest_reports_a_raising_check_and_runs_the_rest(monkeypatch, capsys):
    def broken(line):
        raise ValueError("parser broken")

    monkeypatch.setattr(p2g.data, "parse_training_line", broken)
    assert cli.main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(CHECKS)
    c10 = lines[CHECKS.index(selftest.c10_round_trip)]
    assert c10.startswith("FAIL  c10_round_trip")
    assert "ValueError: parser broken" in c10
    assert lines[CHECKS.index(selftest.sampler_frequencies)].startswith("PASS  ")


_FAKE_BENCH = '''import json, pathlib, sys
count = pathlib.Path(__file__).with_name("count")
n = int(count.read_text()) if count.exists() else 0
count.write_text(str(n + 1))
if n == {fail_at}:
    print("out of luck", file=sys.stderr)
    sys.exit(3)
print("utt_per_s {value} 1/s")
print("decode_s 0.5 s")
print("# sha256 abc decoded.jsonl")
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0}}))
'''


def test_bench_pairs_keeps_failed_runs(tmp_path):
    """A run that exits non-zero is recorded and the other pairs still run;
    the report is written and the exit status is 1."""
    checkouts = {}
    for side, fail_at, value in (("parent", 1, 2.0), ("change", -1, 3.0)):
        root = checkouts[side] = tmp_path / side
        (root / "bench").mkdir(parents=True)
        (root / "bench" / "run.py").write_text(_FAKE_BENCH.format(fail_at=fail_at, value=value))
        (root / "BENCHMARK.json").write_text(json.dumps(
            {"run_seconds": 1, "end_to_end": [{"name": "utt_per_s", "better": "higher"}]}))
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    out = tmp_path / "report.json"
    main = runpy.run_path(str(script))["main"]
    assert main(["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
                 "--workloads", "decode", "--pairs", "3", "--out", str(out)]) == 1
    report = json.loads(out.read_text())["workloads"]["decode"]["seed_1"]
    assert [(r["side"], r["pair"], r["exit"]) for r in report["failed_runs"]] == \
        [("parent", 2, 3)]
    assert "out of luck" in report["failed_runs"][0]["stderr_tail"]
    assert report["utt_per_s"]["parent"]["runs"] == [2.0, 2.0]
    assert report["utt_per_s"]["change"]["runs"] == [3.0, 3.0, 3.0]
    assert report["utt_per_s"]["change_wins"] == "2/2"
    assert report["failed"]["parent"] == [0, None, 0]
    assert report["digests_identical"] and report["stages"]["decode_s"]["ratio"] == 1.0



_FAKE_SERIES = '''import json, pathlib
count = pathlib.Path(__file__).with_name("count")
n = int(count.read_text()) if count.exists() else 0
count.write_text(str(n + 1))
for name, values in {series}.items():
    print(name, values[n], "1")
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0}}))
'''


def test_bench_pairs_claimable_needs_nine_in_ten_wins_and_a_gap_over_the_spread(tmp_path):
    """A metric is claimable when the change wins at least 9 of 10 pairs and
    its median beats the parent's by more than the parent's q3 - q1."""
    # name: better, parent runs, change runs, change wins, claimable
    cases = {
        "all_won": ("higher", [2.0] * 10, [3.0] * 10, "10/10", True),
        "nine_won": ("higher", [2.0] * 10, [3.0] * 9 + [1.0], "9/10", True),
        "eight_won": ("higher", [2.0] * 10, [3.0] * 8 + [1.0] * 2, "8/10", False),
        # every pair won, but by less than the parent's own q3 - q1 (4.5)
        "within_spread": ("higher", list(range(1, 11)), [v + 0.5 for v in range(1, 11)],
                          "10/10", False),
        "lower_won": ("lower", [3.0] * 10, [2.0] * 10, "10/10", True),
    }
    checkouts = {}
    for i, side in enumerate(("parent", "change")):
        root = checkouts[side] = tmp_path / side
        (root / "bench").mkdir(parents=True)
        series = {name: case[1 + i] for name, case in cases.items()}
        (root / "bench" / "run.py").write_text(_FAKE_SERIES.format(series=series))
        (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
            {"name": name, "better": case[0]} for name, case in cases.items()]}))
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    out = tmp_path / "report.json"
    main = runpy.run_path(str(script))["main"]
    assert main(["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
                 "--workloads", "decode", "--pairs", "10", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["workloads"]["decode"]["seed_1"]
    for name, (*_, wins, claimable) in cases.items():
        assert (report[name]["change_wins"], report[name]["claimable"]) == (wins, claimable)


def test_bench_pairs_within_bound_gates_a_regression_by_the_declared_bound(tmp_path):
    """A metric with a ``bound`` in ``BENCHMARK.json`` gets ``within_bound``:
    true when the change's median is no worse than the parent's by more than
    the bound times the parent's median, whatever the wins; a metric without
    a bound gets no flag."""
    # name: better, bound, parent runs, change runs, within_bound
    cases = {
        "higher_at_bound": ("higher", 0.25, [4.0] * 5, [3.0] * 5, True),
        "higher_past_bound": ("higher", 0.25, [4.0] * 5, [2.9] * 5, False),
        "higher_gain": ("higher", 0.25, [4.0] * 5, [5.0] * 5, True),
        "lower_inside": ("lower", 0.1, [50.0] * 5, [54.0] * 5, True),
        "lower_past_bound": ("lower", 0.1, [50.0] * 5, [56.0] * 5, False),
        # four of five pairs lost by far, but the median is inside the bound
        "median_inside": ("higher", 0.25, [4.0] * 5, [1.0, 1.0, 3.5, 5.0, 5.0], True),
        "no_bound": ("higher", None, [4.0] * 5, [1.0] * 5, None),
    }
    checkouts = {}
    for i, side in enumerate(("parent", "change")):
        root = checkouts[side] = tmp_path / side
        (root / "bench").mkdir(parents=True)
        series = {name: case[2 + i] for name, case in cases.items()}
        (root / "bench" / "run.py").write_text(_FAKE_SERIES.format(series=series))
        (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
            {"name": name, "better": case[0],
             **({} if case[1] is None else {"bound": case[1]})}
            for name, case in cases.items()]}))
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    out = tmp_path / "report.json"
    main = runpy.run_path(str(script))["main"]
    assert main(["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
                 "--workloads", "decode", "--pairs", "5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())["workloads"]["decode"]["seed_1"]
    for name, (*_, within) in cases.items():
        assert report[name].get("within_bound") is within, name


def test_bench_pairs_control_runs_in_every_pair_and_its_offset_bounds_a_claim(tmp_path):
    """With ``--control``, every pair also runs a second copy of the parent, in
    the order parent, change, control, reversed on every other pair. Each row
    gains the control's ratio and wins against the parent, and a claim also
    needs the change's median gap to exceed the control's absolute gap."""
    # name: better, parent, change and control runs, aa ratio, aa wins, claimable
    cases = {
        "clear": ("higher", [2.0] * 10, [3.0] * 10, [2.1] * 10, 1.05, "10/10", True),
        "under_offset": ("higher", [2.0] * 10, [2.5] * 10, [2.6] * 10, 1.3, "10/10", False),
        "under_offset_below": ("higher", [2.0] * 10, [2.5] * 10, [1.4] * 10, 0.7, "0/10",
                               False),
        "lower_clear": ("lower", [4.0] * 10, [2.0] * 10, [4.0] * 9 + [3.0], 1.0, "1/10",
                        True),
    }
    log = tmp_path / "order.log"
    checkouts = {}
    for i, side in enumerate(("parent", "change", "control")):
        root = checkouts[side] = tmp_path / side
        (root / "bench").mkdir(parents=True)
        series = {name: case[1 + i] for name, case in cases.items()}
        (root / "bench" / "run.py").write_text(
            _FAKE_SERIES.format(series=series)
            + f"pathlib.Path({str(log)!r}).open('a').write({side!r} + ' ')\n")
        (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": [
            {"name": name, "better": case[0]} for name, case in cases.items()]}))
    script = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    out = tmp_path / "report.json"
    main = runpy.run_path(str(script))["main"]
    assert main(["--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
                 "--control", str(checkouts["control"]), "--workloads", "decode",
                 "--pairs", "10", "--out", str(out)]) == 0
    assert log.read_text().split() == ["parent", "change", "control",
                                       "control", "change", "parent"] * 5
    result = json.loads(out.read_text())
    assert set(result["code.src_lines"]) == {"parent", "change", "control"}
    assert result["argv"][0] == "bench_pairs.py" and result["argv"][-4:] == \
        ["--pairs", "10", "--out", str(out)]
    assert set(result["machine"]) == {"cpu_count", "platform", "python", "numpy"}
    assert result["machine"]["cpu_count"] == os.cpu_count()
    report = result["workloads"]["decode"]["seed_1"]
    assert report["failed"]["control"] == [0] * 10 and report["digests_identical"]
    for name, (*_, aa_ratio, aa_wins, claimable) in cases.items():
        row = report[name]
        assert row["change_wins"] == "10/10" and row["control"]["runs"] == cases[name][3]
        assert (row["aa_ratio"], row["aa_wins"], row["claimable"]) == \
            (aa_ratio, aa_wins, claimable)
