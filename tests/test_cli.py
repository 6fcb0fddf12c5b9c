import argparse
import json

import pytest

import p2g.ctc
from p2g import cli, synth
from p2g.ctc import save_grids
from p2g.data import load_manifest, save_manifest


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
    balanced = load_manifest(out)
    for lang, hours in balanced.language_hours.items():
        assert hours >= 0.02


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


# ---- selftest -----------------------------------------------------------


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 9 and "FAIL" not in out


def test_selftest_catches_forward_mutation(monkeypatch, capsys):
    """A corrupted forward algorithm must turn the selftest red; this guards
    against the checks silently testing nothing."""
    real = p2g.ctc.forward_logprob

    def skewed(grid, h):
        return real(grid, h) + 1e-3

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
