"""Command-line interface.

Subcommands cover the full pipeline: ``beam`` and ``sample`` for hypothesis
generation, ``score`` for marginal objectives, ``decode`` for text output,
``augment`` and ``balance`` for training data, ``train-scorer`` and ``eval``
around the scorer, and ``selftest`` for the built-in oracle checks.

Conventions: every option can also come from a JSON ``--config`` file (flags
win); commands that draw random numbers refuse to run without an explicit
``--seed``; outputs are written atomically and are byte-identical across
reruns with the same inputs, config, and seed. Exit status 1 flags a bad
configuration, 2 a missing or malformed input file. ``P2G_LOG`` sets the log
level.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import ctc, data, marginal, metrics
from .decode import decode as decode_grid, load_hypotheses, save_decode_results
from .ioutil import FormatError, atomic_write_lines, atomic_write_text
from .scorer import load_scorer, save_scorer, train_scorer
from .seeding import derive_rng
from .selftest import run_selftest

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    seed: int | None = None
    k: int = 8
    s: int = 4
    beam_width: int = 16
    n_best: int = 16
    target_hours: float = 240.0
    method: str = "sskm"
    normalize_weights: bool | None = None  # commands pick their own default
    resample: bool = False
    include_clean: bool = False
    max_len: int = 64
    order: int = 3
    smoothing_alpha: float = 0.1
    context_window: int = 1
    epochs: int = 1
    temperature: float = 1.0
    renormalize: bool = False
    paths: dict = field(default_factory=dict)


_INT_FIELDS = {"seed", "k", "s", "beam_width", "n_best", "max_len", "order",
               "context_window", "epochs"}
_FLOAT_FIELDS = {"target_hours", "smoothing_alpha", "temperature"}
_BOOL_FIELDS = {"normalize_weights", "resample", "include_clean", "renormalize"}


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON ({exc.msg})", path=path,
                          line_no=exc.lineno) from exc
    if not isinstance(obj, dict):
        raise FormatError("config must be a JSON object", path=path)
    return obj


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    values = {f.name: (dict() if f.name == "paths" else f.default)
              for f in dataclasses.fields(RunConfig)}
    config_path = getattr(args, "config", None)
    if config_path:
        for key, val in _load_config_file(config_path).items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = val
    for key in values:
        if key == "paths":
            continue
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    cfg = RunConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    for name in _INT_FIELDS:
        val = getattr(cfg, name)
        if val is None and name == "seed":
            continue
        if isinstance(val, bool) or not isinstance(val, int):
            raise ConfigError(f"{name} must be an integer")
    for name in _FLOAT_FIELDS:
        val = getattr(cfg, name)
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"{name} must be a number")
    for name in _BOOL_FIELDS:
        val = getattr(cfg, name)
        if val is not None and not isinstance(val, bool):
            raise ConfigError(f"{name} must be a boolean")
    if not isinstance(cfg.paths, dict):
        raise ConfigError("paths must be an object of name -> file path")
    if cfg.seed is not None and cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    for name in ("k", "s", "beam_width", "n_best", "order", "epochs"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    if cfg.max_len < 0:
        raise ConfigError("max_len must be >= 0")
    if cfg.context_window < 0:
        raise ConfigError("context_window must be >= 0")
    if cfg.target_hours <= 0:
        raise ConfigError("target_hours must be positive")
    if cfg.smoothing_alpha <= 0:
        raise ConfigError("smoothing_alpha must be positive")
    if cfg.temperature <= 0:
        raise ConfigError("temperature must be positive")
    if cfg.method not in ("tkm", "skm", "sskm"):
        raise ConfigError(f"method must be tkm, skm, or sskm, not {cfg.method!r}")


def _path(args: argparse.Namespace, cfg: RunConfig, dest: str, key: str) -> str:
    value = getattr(args, dest, None) or cfg.paths.get(key)
    if not value:
        raise ConfigError(f"missing --{key.replace('_', '-')} (or config paths.{key})")
    return value


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("this command is randomized: pass an explicit --seed")
    return cfg.seed


def _grid_index(grids) -> dict[str, ctc.PosteriorGrid]:
    index: dict[str, ctc.PosteriorGrid] = {}
    for grid in grids:
        if grid.utterance_id in index:
            raise ConfigError(f"duplicate grid id {grid.utterance_id!r}")
        index[grid.utterance_id] = grid
    return index


# ---- commands -----------------------------------------------------------


def cmd_beam(args) -> int:
    cfg = resolve_config(args)
    grids = ctc.load_grids(_path(args, cfg, "in_path", "in"), cfg.renormalize)
    lines = []
    for grid in grids:
        hyps = ctc.prefix_beam_search(grid, cfg.beam_width, cfg.k)
        lines.append(json.dumps({
            "id": grid.utterance_id,
            "hyps": [{"phonemes": list(grid.alphabet.to_symbols(h.sequence)),
                      "logp": h.log_score} for h in hyps],
        }, ensure_ascii=False))
    atomic_write_lines(_path(args, cfg, "out", "out"), lines)
    log.info("beam: %d utterances", len(grids))
    return 0


def cmd_sample(args) -> int:
    cfg = resolve_config(args)
    seed = _require_seed(cfg)
    grids = ctc.load_grids(_path(args, cfg, "in_path", "in"), cfg.renormalize)
    lines = []
    for grid in grids:
        rng = derive_rng(seed, grid.utterance_id)
        seqs = ctc.sample_k_hypotheses(grid, cfg.k, rng, cfg.temperature)
        lines.append(json.dumps({
            "id": grid.utterance_id,
            "samples": [list(grid.alphabet.to_symbols(s)) for s in seqs],
        }, ensure_ascii=False))
    atomic_write_lines(_path(args, cfg, "out", "out"), lines)
    return 0


def _epoch_seed(seed: int, epoch: int, resample: bool) -> int:
    if epoch == 0 or not resample:
        return seed
    return int(np.random.SeedSequence([seed, epoch]).generate_state(1)[0])


def cmd_score(args) -> int:
    cfg = resolve_config(args)
    method = marginal.Method(cfg.method)
    seed = cfg.seed
    if method in (marginal.Method.SKM, marginal.Method.SSKM):
        seed = _require_seed(cfg)
    grids = _grid_index(ctc.load_grids(_path(args, cfg, "grids", "grids"),
                                       cfg.renormalize))
    refs_path = _path(args, cfg, "refs", "refs")
    manifest = data.load_manifest(refs_path)
    model = load_scorer(_path(args, cfg, "scorer", "scorer"))
    records = []
    for rec in manifest.records:
        grid = grids.get(rec.utterance_id)
        if grid is None:
            raise FormatError(f"no grid for utterance {rec.utterance_id!r}",
                              path=_path(args, cfg, "grids", "grids"))
        # the scorer has no lid token for an unseen language, so the text
        # cannot be scored: the refs file does not fit this scorer
        if rec.text.lid not in model.languages:
            raise FormatError(f"utterance {rec.utterance_id!r} has language "
                              f"{rec.text.lid!r}, which the scorer does not know",
                              path=refs_path)
        records.append((grid, rec.text))

    normalize = bool(cfg.normalize_weights) if cfg.normalize_weights is not None else False
    lines = []
    for epoch in range(cfg.epochs):
        batch = marginal.batch_objective(
            records, model, method, cfg.k,
            seed=_epoch_seed(seed if seed is not None else 0, epoch, cfg.resample),
            beam_width=cfg.beam_width, normalize_weights=normalize)
        for utt_id, nll in batch.per_record:
            obj = {"id": utt_id, "method": method.value, "k": cfg.k,
                   "log_marginal": -nll}
            if cfg.epochs > 1:
                obj["epoch"] = epoch
            lines.append(json.dumps(obj, ensure_ascii=False))
        print(f"epoch {epoch}: mean nll {batch.mean_nll:.6f} "
              f"({method.value}, k={cfg.k}, {len(records)} utterances)")
    atomic_write_lines(_path(args, cfg, "out", "out"), lines)
    return 0


def cmd_decode(args) -> int:
    cfg = resolve_config(args)
    grids = ctc.load_grids(_path(args, cfg, "grids", "grids"), cfg.renormalize)
    model = load_scorer(_path(args, cfg, "scorer", "scorer"))
    normalize = bool(cfg.normalize_weights) if cfg.normalize_weights is not None else True
    items = []
    for grid in grids:
        result = decode_grid(grid, model, cfg.k, cfg.s,
                                   beam_width=cfg.beam_width, max_len=cfg.max_len,
                                   normalize_weights=normalize)
        items.append((grid.utterance_id, result))
    save_decode_results(items, _path(args, cfg, "out", "out"))
    log.info("decode: %d utterances", len(items))
    return 0


def cmd_augment(args) -> int:
    cfg = resolve_config(args)
    grids = _grid_index(ctc.load_grids(_path(args, cfg, "grids", "grids"),
                                       cfg.renormalize))
    manifest = data.load_manifest(_path(args, cfg, "refs", "refs"))
    width = max(cfg.beam_width, cfg.n_best)
    pairs = []
    for rec in manifest.records:
        grid = grids.get(rec.utterance_id)
        if grid is None:
            raise FormatError(f"no grid for utterance {rec.utterance_id!r}",
                              path=_path(args, cfg, "grids", "grids"))
        pairs.extend(data.generate_danp(grid, rec, cfg.n_best, beam_width=width,
                                        include_clean=cfg.include_clean))
    data.save_training_lines(pairs, _path(args, cfg, "out", "out"))
    log.info("augment: %d pairs from %d records", len(pairs), len(manifest))
    return 0


def cmd_balance(args) -> int:
    cfg = resolve_config(args)
    seed = _require_seed(cfg)
    manifest = data.load_manifest(_path(args, cfg, "in_path", "in"))
    balanced = data.oversample_manifest(manifest, cfg.target_hours,
                                        derive_rng(seed, "balance"))
    data.save_manifest(balanced, _path(args, cfg, "out", "out"))
    for lang, st in data.manifest_stats(balanced).items():
        log.info("balance: %s %.2fh -> %.2fh (x%.2f, %d records)", lang,
                 st.original_hours, st.hours, st.repetition_factor, st.records)
    return 0


def cmd_train_scorer(args) -> int:
    cfg = resolve_config(args)
    pairs = data.load_training_lines(_path(args, cfg, "in_path", "in"))
    model = train_scorer(pairs, order=cfg.order,
                                    smoothing_alpha=cfg.smoothing_alpha,
                                    context_window=cfg.context_window)
    save_scorer(model, _path(args, cfg, "out", "out"))
    log.info("train-scorer: %d pairs, %d languages, %d units", len(pairs),
             len(model.languages), len(model.units))
    return 0


def cmd_eval(args) -> int:
    cfg = resolve_config(args)
    manifest = data.load_manifest(_path(args, cfg, "refs", "refs"))
    hyps = load_hypotheses(_path(args, cfg, "hyps", "hyps"))
    report = metrics.evaluate(manifest, hyps)
    atomic_write_text(_path(args, cfg, "out", "out"), metrics.report_to_json(report))
    if args.table:
        print(metrics.render_report(report), end="")
    return 0


def cmd_selftest(args) -> int:
    return 0 if run_selftest(print) else 1


# ---- parser -------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of option defaults (flags win)")
    p.add_argument("--seed", type=int, help="global random seed")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (written atomically)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2g",
        description="Phoneme-to-grapheme pipeline over CTC posterior grids.")
    sub = parser.add_subparsers(dest="command", required=True)
    boolean = argparse.BooleanOptionalAction

    p = sub.add_parser("beam", help="top-k phoneme hypotheses per utterance")
    _add_common(p); _add_out(p)
    p.add_argument("--in", dest="in_path", help="posterior grid JSONL")
    p.add_argument("--k", type=int)
    p.add_argument("--beam-width", type=int, dest="beam_width")
    p.add_argument("--renormalize", action=boolean, default=None,
                   help="renormalize grid rows on load")
    p.set_defaults(func=cmd_beam)

    p = sub.add_parser("sample", help="k sampled phoneme sequences per utterance")
    _add_common(p); _add_out(p)
    p.add_argument("--in", dest="in_path", help="posterior grid JSONL")
    p.add_argument("--k", type=int)
    p.add_argument("--temperature", type=float)
    p.add_argument("--renormalize", action=boolean, default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("score", help="marginal log-likelihood of reference texts")
    _add_common(p); _add_out(p)
    p.add_argument("--grids", help="posterior grid JSONL")
    p.add_argument("--refs", help="reference manifest JSONL")
    p.add_argument("--scorer", help="trained scorer JSON")
    p.add_argument("--method", choices=["tkm", "skm", "sskm"])
    p.add_argument("--k", type=int)
    p.add_argument("--beam-width", type=int, dest="beam_width")
    p.add_argument("--normalize-weights", action=boolean, dest="normalize_weights",
                   default=None)
    p.add_argument("--epochs", type=int)
    p.add_argument("--resample", action=boolean, default=None,
                   help="draw fresh samples each epoch")
    p.add_argument("--renormalize", action=boolean, default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("decode", help="best text per utterance with rescored pool")
    _add_common(p); _add_out(p)
    p.add_argument("--grids")
    p.add_argument("--scorer")
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--beam-width", type=int, dest="beam_width")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--normalize-weights", action=boolean, dest="normalize_weights",
                   default=None)
    p.add_argument("--renormalize", action=boolean, default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("augment", help="n-best noisy training lines per utterance")
    _add_common(p); _add_out(p)
    p.add_argument("--grids")
    p.add_argument("--refs")
    p.add_argument("--n-best", type=int, dest="n_best")
    p.add_argument("--beam-width", type=int, dest="beam_width")
    p.add_argument("--include-clean", action=boolean, dest="include_clean",
                   default=None, help="also emit the reference phonemes")
    p.add_argument("--renormalize", action=boolean, default=None)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("balance", help="oversample languages up to target hours")
    _add_common(p); _add_out(p)
    p.add_argument("--in", dest="in_path", help="manifest JSONL")
    p.add_argument("--target-hours", type=float, dest="target_hours")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser("train-scorer", help="fit the n-gram scorer on training lines")
    _add_common(p); _add_out(p)
    p.add_argument("--in", dest="in_path", help="training-line text file")
    p.add_argument("--order", type=int)
    p.add_argument("--alpha", type=float, dest="smoothing_alpha")
    p.add_argument("--window", type=int, dest="context_window")
    p.set_defaults(func=cmd_train_scorer)

    p = sub.add_parser("eval", help="error rate and lid accuracy report")
    _add_common(p); _add_out(p)
    p.add_argument("--refs", help="reference manifest JSONL")
    p.add_argument("--hyps", help="decode output JSONL")
    p.add_argument("--table", action=boolean, default=True,
                   help="print the aligned text table")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run the built-in oracle checks")
    p.set_defaults(func=cmd_selftest)

    return parser


def _setup_logging() -> None:
    name = os.environ.get("P2G_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"p2g: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"p2g: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"p2g: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
