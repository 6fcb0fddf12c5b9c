"""The benchmark's workloads: inputs built from the seed, then the timed
CLI stages, each with the checks its artifacts must pass.

* ``decode`` is the scorer's read path: text generation (``generate_top_s``)
  is most of the decode stage. It mirrors ``scripts/run_pipeline.py``.
* ``train-score`` puts the scorer's write side (training, save, load) beside
  its read side (``log_score``), with the CTC beam, forward scoring and
  sampling on short grids. It never calls ``generate_top_s``, so a
  decode-only change should not move it.
* ``large-grid`` covers input size: long grids over a 100-symbol alphabet,
  where per-frame beam work scales with V x width. A faster beam on big
  alphabets must not lose on the V=17 grids of the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import validate
from p2g import synth
from p2g.ctc import Alphabet, save_grids
from p2g.data import CorpusManifest, UtteranceRecord, load_manifest, save_manifest
from p2g.decode import load_hypotheses
from p2g.metrics import error_rate
from p2g.scorer import TargetText, save_scorer, train_scorer

# decode keeps 200 utterances, so per-call p95 has 10 samples beyond it
DECODE_UTTS_PER_LANG = 50
# train-score and large-grid are scaled down from 400 utterances and 4 grids
# so that a run holds several iterations, whose median is steadier than one
# long iteration on a shared machine
TRAIN_UTTS_PER_LANG = 50
TRAIN_TARGET_HOURS = "0.025"
LARGE_GRIDS = 1
LARGE_PHONEMES = 220
LARGE_SYMBOLS = 100


@dataclass(frozen=True)
class Stage:
    """One ``p2g.cli.main`` call and the checks on the files it writes."""

    name: str
    argv: list[str]
    checks: tuple[tuple[Path, validate.Checker], ...]


@dataclass(frozen=True)
class Inputs:
    dir: Path
    ids: tuple[str, ...]


Runner = Callable[[Stage], None]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Runner, int, Path], Inputs]
    stages: Callable[[int, Inputs, Path], list[Stage]]
    # traced functions that must record calls on this workload
    expects: tuple[str, ...]


def _write_corpus(seed: int, utts_per_lang: int, d: Path) -> Inputs:
    grids, manifest = synth.build_corpus(seed, utts_per_lang=utts_per_lang)
    save_grids(grids, d / "grids.jsonl")
    save_manifest(manifest, d / "manifest.jsonl")
    return Inputs(d, tuple(g.utterance_id for g in grids))


def _balance(seed: int, inp: Inputs, out: Path, hours: str) -> Stage:
    return Stage("balance_s", ["balance", "--in", str(inp.dir / "manifest.jsonl"),
                               "--out", str(out / "balanced.jsonl"),
                               "--target-hours", hours, "--seed", str(seed)],
                 ((out / "balanced.jsonl", validate.balanced(inp.ids)),))


def _augment(inp: Inputs, out: Path, n_best: str) -> Stage:
    return Stage("augment_s", ["augment", "--grids", str(inp.dir / "grids.jsonl"),
                               "--refs", str(out / "balanced.jsonl"),
                               "--out", str(out / "train.txt"), "--n-best", n_best],
                 ((out / "train.txt", validate.training_lines),))


def _train(out: Path, order: str) -> Stage:
    return Stage("train_scorer_s", ["train-scorer", "--in", str(out / "train.txt"),
                                    "--out", str(out / "scorer.json"), "--order", order],
                 ((out / "scorer.json", validate.scorer),))


def _score(seed: int, inp: Inputs, scorer: Path, out: Path, method: str) -> Stage:
    path = out / f"score_{method}.jsonl"
    return Stage(f"score_{method}_s",
                 ["score", "--grids", str(inp.dir / "grids.jsonl"),
                  "--refs", str(inp.dir / "manifest.jsonl"), "--scorer", str(scorer),
                  "--method", method, "--k", "16", "--seed", str(seed), "--out", str(path)],
                 ((path, validate.scores(inp.ids, method, 16)),))


# ---- decode ---------------------------------------------------------------


def _decode_setup(run: Runner, seed: int, d: Path) -> Inputs:
    inp = _write_corpus(seed, DECODE_UTTS_PER_LANG, d)
    run(_balance(seed, inp, d, "0.02"))
    run(_augment(inp, d, "4"))
    run(_train(d, "2"))
    return inp


def _decode_stages(seed: int, inp: Inputs, out: Path) -> list[Stage]:
    decoded, report = out / "decoded.jsonl", out / "report.json"
    return [
        Stage("decode_s", ["decode", "--grids", str(inp.dir / "grids.jsonl"),
                           "--scorer", str(inp.dir / "scorer.json"),
                           "--k", "4", "--s", "2", "--out", str(decoded)],
              ((decoded, validate.decoded(inp.ids)),)),
        Stage("eval_s", ["eval", "--refs", str(inp.dir / "manifest.jsonl"),
                         "--hyps", str(decoded), "--out", str(report)],
              ((report, validate.report),)),
    ]


def decode_quality(inp: Inputs, out: Path) -> dict[str, float]:
    """WER as the eval report's macro average; CER pooled over characters."""
    report = validate.strict_loads((out / "report.json").read_text(encoding="utf-8"))
    refs = load_manifest(inp.dir / "manifest.jsonl").records
    hyps = load_hypotheses(out / "decoded.jsonl")
    pairs = [(rec.text.graphemes, hyps[rec.utterance_id].graphemes) for rec in refs]
    return {"wer_pct": float(report["macro_avg"]), "cer_pct": error_rate(pairs)}


# ---- train-score ----------------------------------------------------------


def _train_score_setup(run: Runner, seed: int, d: Path) -> Inputs:
    return _write_corpus(seed, TRAIN_UTTS_PER_LANG, d)


def _train_score_stages(seed: int, inp: Inputs, out: Path) -> list[Stage]:
    return [_balance(seed, inp, out, TRAIN_TARGET_HOURS), _augment(inp, out, "16"),
            _train(out, "3")] + [_score(seed, inp, out / "scorer.json", out, m)
                                 for m in ("tkm", "skm", "sskm")]


# ---- large-grid -----------------------------------------------------------


def _large_setup(run: Runner, seed: int, d: Path) -> Inputs:
    """Peaked grids of LARGE_PHONEMES phonemes over LARGE_SYMBOLS symbols;
    each phoneme maps to one letter, and a scorer is trained on the refs."""
    rng = np.random.default_rng(seed)
    symbols = tuple(f"p{i:02d}" for i in range(LARGE_SYMBOLS))
    alphabet = Alphabet(symbols)
    grids, records = [], []
    for n in range(LARGE_GRIDS):
        picks = rng.integers(0, LARGE_SYMBOLS, size=LARGE_PHONEMES)
        phonemes = tuple(symbols[i] for i in picks)
        text = TargetText(lid="xx", graphemes="".join(chr(ord("a") + i % 26) for i in picks))
        grid = synth.grid_for_phonemes(rng, alphabet, phonemes, f"lg-{n:02d}")
        grids.append(grid)
        records.append(UtteranceRecord(utterance_id=grid.utterance_id, lang="xx",
                                       dur_sec=grid.frames * 0.04, phonemes=phonemes,
                                       text=text))
    save_grids(grids, d / "grids.jsonl")
    save_manifest(CorpusManifest(records=tuple(records)), d / "manifest.jsonl")
    save_scorer(train_scorer([(r.phonemes, r.text) for r in records], order=3),
                d / "scorer.json")
    return Inputs(d, tuple(g.utterance_id for g in grids))


def _large_stages(seed: int, inp: Inputs, out: Path) -> list[Stage]:
    beam = out / "beam.jsonl"
    return [Stage("beam_s", ["beam", "--in", str(inp.dir / "grids.jsonl"), "--k", "4",
                             "--beam-width", "16", "--out", str(beam)],
                  ((beam, validate.beam(inp.ids, 4)),))] + [
        _score(seed, inp, inp.dir / "scorer.json", out, m) for m in ("skm", "sskm")]


_LOADERS = ("ctc.load_grids", "data.load_manifest", "scorer.load_scorer")
_SAMPLED = ("ctc.prefix_beam_search", "ctc.forward_logprob", "ctc.sample_paths",
            "scorer.log_score", "marginal.skm_log_marginal",
            "marginal.sskm_log_marginal", "marginal.batch_objective",
            "seeding.derive_rng")

WORKLOADS = {
    "decode": Workload(
        "decode", _decode_setup, _decode_stages,
        _LOADERS + ("scorer.generate_top_s", "ctc.prefix_beam_search", "decode.decode",
                    "decode.pool_and_rescore", "decode.save_decode_results",
                    "decode.load_hypotheses", "metrics.evaluate")),
    "train-score": Workload(
        "train-score", _train_score_setup, _train_score_stages,
        _LOADERS + _SAMPLED + ("scorer.train_scorer", "scorer.save_scorer",
                               "marginal.tkm_log_marginal", "data.oversample_manifest",
                               "data.generate_danp", "data.save_manifest",
                               "data.load_training_lines", "data.save_training_lines")),
    "large-grid": Workload("large-grid", _large_setup, _large_stages, _LOADERS + _SAMPLED),
}
