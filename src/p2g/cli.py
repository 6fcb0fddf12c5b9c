"""Command-line interface.

Subcommands cover the full pipeline: ``beam`` and ``sample`` for hypothesis
generation, ``score`` for marginal objectives, ``decode`` for text output,
``augment`` and ``balance`` for training data, ``train-scorer`` and ``eval``
around the scorer, and ``selftest`` for the built-in oracle checks.

Conventions: every option can also come from a JSON ``--config`` file (flags
win); commands that draw random numbers refuse to run without an explicit
``--seed``; outputs are written atomically and are byte-identical across
reruns with the same inputs, config, and seed. Exit status 1 flags a bad
configuration, 2 a missing or malformed input file, one that does not fit
the others, or an empty one where the command reports over its records.
``P2G_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import ctc, data, marginal, metrics
from .decode import decode as decode_grid, load_hypotheses, save_decode_results
from .ioutil import FormatError, atomic_write, located, read_json_object, write_jsonl
from .scorer import load_scorer, save_scorer, train_scorer
from .seeding import derive_rng
from .selftest import run_selftest

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    pass


def _opt(default, *, low=None, flag=None, help=None, choices=None):
    """Declare one option: ``flag`` defaults to ``--`` plus the field name
    with dashes; an integer must be >= ``low``, a string one of ``choices``."""
    return field(default=default, metadata={"low": low, "flag": flag,
                                            "help": help, "choices": choices})


@dataclass
class RunConfig:
    """Every command option, declared once. The annotation gives the type; a
    config file key is the field name. Floats must be finite and > 0."""

    seed: int | None = _opt(None, low=0, help="global random seed")
    k: int = _opt(8, low=1, help="phoneme hypotheses per utterance")
    s: int = _opt(4, low=1, help="texts generated per hypothesis")
    beam_width: int = _opt(16, low=1,
                           help="prefix beam width, widened to the hypotheses asked for")
    n_best: int = _opt(16, low=1, help="noisy phoneme sequences per utterance")
    target_hours: float = _opt(240.0, help="hours to oversample each language up to")
    method: str = _opt("sskm", choices=marginal.METHODS, help="marginal estimator")
    # None lets each command pick its own default: off for score, on for decode
    normalize_weights: bool | None = _opt(
        None, help="rescale hypothesis weights to sum to one")
    resample: bool = _opt(False, help="draw fresh samples each epoch")
    include_clean: bool = _opt(False, help="also emit the reference phonemes")
    max_len: int = _opt(64, low=0, help="longest generated text, in graphemes")
    order: int = _opt(3, low=1, help="n-gram order")
    smoothing_alpha: float = _opt(0.1, flag="--alpha", help="additive smoothing")
    context_window: int = _opt(1, low=0, flag="--window",
                               help="phonemes of context on each side")
    epochs: int = _opt(1, low=1, help="passes over the references")
    temperature: float = _opt(1.0, help="sampling temperature")
    renormalize: bool = _opt(False, help="renormalize grid rows on load")
    table: bool = _opt(True, help="print the aligned text table")
    paths: dict = field(default_factory=dict)


_OPTIONS = {f.name: f for f in dataclasses.fields(RunConfig) if f.name != "paths"}
# annotations are strings here (postponed evaluation); the first member names
# the kind, and "| None" only means the option may be left unset
_KINDS = {"int": int, "float": float, "str": str, "bool": bool}


def _kind(f: dataclasses.Field) -> type:
    return _KINDS[f.type.split(" | ")[0]]


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    values = {}
    config_path = getattr(args, "config", None)
    if config_path:
        values = read_json_object(config_path, "config must be a JSON object")
        for key in values:
            if key != "paths" and key not in _OPTIONS:
                raise ConfigError(f"unknown config key {key!r}")
    for name in _OPTIONS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    cfg = RunConfig(**values)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig) -> None:
    if not (isinstance(cfg.paths, dict)
            and all(isinstance(v, str) for v in cfg.paths.values())):
        raise ConfigError("paths must be an object of name -> file path")
    for name, f in _OPTIONS.items():
        val, kind, meta = getattr(cfg, name), _kind(f), f.metadata
        if val is None and f.default is None:
            continue  # left unset
        if kind is bool:
            ok, rule = isinstance(val, bool), "a boolean"
        elif kind is int:
            ok = type(val) is int and val >= meta["low"]
            rule = f"an integer >= {meta['low']}"
        elif kind is float:
            # NaN fails every comparison, so the range test rejects it too
            ok = type(val) in (int, float) and 0 < val < math.inf
            rule = "a finite number > 0"
        else:
            ok, rule = val in meta["choices"], "one of " + ", ".join(meta["choices"])
        if not ok:
            raise ConfigError(f"{name} must be {rule}, not {val!r}")


def _path(args: argparse.Namespace, cfg: RunConfig, key: str) -> str:
    # a path flag's dest is its config key; no option shares a path key's name
    value = getattr(args, key, None) or cfg.paths.get(key)
    if not value:
        raise ConfigError(f"missing --{key} (or config paths.{key})")
    return value


def _beam_width(cfg: RunConfig, count: int) -> int:
    """The one beam-width rule: ``--beam-width``, widened to the number of
    hypotheses the command asks for, since a beam never returns more."""
    return max(cfg.beam_width, count)


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("this command is randomized: pass an explicit --seed")
    return cfg.seed


def _nonempty(items: list, path: str) -> list:
    """``items`` read from ``path``, refused when there are none: a command
    that reports an aggregate has nothing to report for an empty file."""
    with located(path):
        if not items:
            raise ValueError("the file holds no records")
    return items


def _matched(records, index: dict, path: str, what: str) -> list:
    """``index[utterance id]`` for every record; ``index`` holds the ``what``s
    read from ``path``, which must have one for every record."""
    with located(path):
        for rec in records:
            if rec.utterance_id not in index:
                raise ValueError(f"no {what} for utterance {rec.utterance_id!r}")
    return [index[rec.utterance_id] for rec in records]


def _refs_with_grids(args, cfg: RunConfig
                     ) -> list[tuple[data.UtteranceRecord, ctc.PosteriorGrid]]:
    """(record, grid) for every refs record, matched by utterance id."""
    grids_path = _path(args, cfg, "grids")
    index = {grid.utterance_id: grid for grid in ctc.load_grids(grids_path, cfg.renormalize)}
    records = data.load_manifest(_path(args, cfg, "refs")).records
    return list(zip(records, _matched(records, index, grids_path, "grid")))


# ---- commands -----------------------------------------------------------


def cmd_beam(args, cfg: RunConfig) -> int:
    grids = ctc.load_grids(_path(args, cfg, "in"), cfg.renormalize)
    width = _beam_width(cfg, cfg.k)
    write_jsonl(_path(args, cfg, "out"), ({
        "id": grid.utterance_id,
        "hyps": [{"phonemes": list(grid.alphabet.to_symbols(h.sequence)),
                  "logp": h.log_score}
                 for h in ctc.prefix_beam_search(grid, width, cfg.k)],
    } for grid in grids))
    log.info("beam: %d utterances", len(grids))
    return 0


def cmd_sample(args, cfg: RunConfig) -> int:
    seed = _require_seed(cfg)
    grids = ctc.load_grids(_path(args, cfg, "in"), cfg.renormalize)

    def rows() -> Iterator[dict]:
        for grid in grids:
            rng = derive_rng(seed, grid.utterance_id)
            seqs = ctc.sample_k_hypotheses(grid, cfg.k, rng, cfg.temperature)
            yield {"id": grid.utterance_id,
                   "samples": [list(grid.alphabet.to_symbols(s)) for s in seqs]}

    write_jsonl(_path(args, cfg, "out"), rows())
    return 0


def _epoch_seed(seed: int, epoch: int, resample: bool) -> int:
    if epoch == 0 or not resample:
        return seed
    return int(np.random.SeedSequence([seed, epoch]).generate_state(1)[0])


def cmd_score(args, cfg: RunConfig) -> int:
    method = cfg.method
    seed = cfg.seed
    if method != "tkm":
        seed = _require_seed(cfg)
    refs_path = _path(args, cfg, "refs")
    pairs = _nonempty(_refs_with_grids(args, cfg), refs_path)
    model = load_scorer(_path(args, cfg, "scorer"))
    with located(refs_path):
        for rec, _ in pairs:
            # the scorer has no lid token for an unseen language, so the text
            # cannot be scored: the refs file does not fit this scorer
            if rec.text.lid not in model.languages:
                raise ValueError(f"utterance {rec.utterance_id!r} has language "
                                 f"{rec.text.lid!r}, which the scorer does not know")
    records = [(grid, rec.text) for rec, grid in pairs]

    def rows() -> Iterator[dict]:
        for epoch in range(cfg.epochs):
            batch = marginal.batch_objective(
                records, model, method, cfg.k,
                seed=_epoch_seed(seed if seed is not None else 0, epoch, cfg.resample),
                beam_width=_beam_width(cfg, cfg.k),
                normalize_weights=bool(cfg.normalize_weights))
            print(f"epoch {epoch}: mean nll {batch.mean_nll:.6f} "
                  f"({method}, k={cfg.k}, {len(records)} utterances)")
            for utt_id, nll in batch.per_record:
                obj = {"id": utt_id, "method": method, "k": cfg.k, "log_marginal": -nll}
                if cfg.epochs > 1:
                    obj["epoch"] = epoch
                yield obj

    write_jsonl(_path(args, cfg, "out"), rows())
    return 0


def cmd_decode(args, cfg: RunConfig) -> int:
    grids = ctc.load_grids(_path(args, cfg, "grids"), cfg.renormalize)
    model = load_scorer(_path(args, cfg, "scorer"))
    items = []
    for grid in grids:
        result = decode_grid(grid, model, cfg.k, cfg.s,
                             beam_width=_beam_width(cfg, cfg.k), max_len=cfg.max_len,
                             normalize_weights=cfg.normalize_weights is not False)
        items.append((grid.utterance_id, result))
    save_decode_results(items, _path(args, cfg, "out"))
    log.info("decode: %d utterances", len(items))
    return 0


def cmd_augment(args, cfg: RunConfig) -> int:
    grids_path, refs_path = _path(args, cfg, "grids"), _path(args, cfg, "refs")
    pairs = _refs_with_grids(args, cfg)
    width = _beam_width(cfg, cfg.n_best)
    # oversampled copies share their source's id and grid, so each grid's
    # n-best is computed once and paired with every record's own text
    beams: dict[str, list[ctc.ScoredHypothesis]] = {}
    lines = []
    for rec, grid in pairs:
        if rec.utterance_id not in beams:
            beams[rec.utterance_id] = ctc.prefix_beam_search(grid, width, cfg.n_best)
        lines.extend(data.generate_danp(rec, beams[rec.utterance_id], grid.alphabet,
                                        include_clean=cfg.include_clean,
                                        grids_path=grids_path, refs_path=refs_path))
    data.save_training_lines(lines, _path(args, cfg, "out"))
    log.info("augment: %d pairs from %d records over %d grids", len(lines),
             len(pairs), len(beams))
    return 0


def cmd_balance(args, cfg: RunConfig) -> int:
    seed = _require_seed(cfg)
    manifest = data.load_manifest(_path(args, cfg, "in"))
    balanced = data.oversample_manifest(manifest, cfg.target_hours,
                                        derive_rng(seed, "balance"))
    data.save_manifest(balanced, _path(args, cfg, "out"))
    for lang, st in data.manifest_stats(balanced).items():
        log.info("balance: %s %.2fh -> %.2fh (x%.2f, %d records)", lang,
                 st.original_hours, st.hours, st.repetition_factor, st.records)
    return 0


def cmd_train_scorer(args, cfg: RunConfig) -> int:
    in_path = _path(args, cfg, "in")
    pairs = _nonempty(data.load_training_lines(in_path), in_path)
    model = train_scorer(pairs, order=cfg.order,
                         smoothing_alpha=cfg.smoothing_alpha,
                         context_window=cfg.context_window)
    save_scorer(model, _path(args, cfg, "out"))
    log.info("train-scorer: %d pairs, %d languages, %d units", len(pairs),
             len(model.languages), len(model.units))
    return 0


def cmd_eval(args, cfg: RunConfig) -> int:
    refs_path, hyps_path = _path(args, cfg, "refs"), _path(args, cfg, "hyps")
    manifest = data.load_manifest(refs_path)
    hyps = load_hypotheses(hyps_path)
    _matched(_nonempty(manifest.records, refs_path), hyps, hyps_path, "hypothesis")
    with located(refs_path):  # hypotheses are matched above: evaluate refuses only refs
        report = metrics.evaluate(manifest, hyps)
    atomic_write(_path(args, cfg, "out"), [metrics.report_to_json(report)])
    if cfg.table:
        print(metrics.render_report(report), end="")
    return 0


def cmd_selftest(args, cfg: RunConfig) -> int:
    return 0 if run_selftest() else 1


# ---- parser -------------------------------------------------------------

# command -> (handler, help, {path key: help}, option names). Each command
# also takes --config, --seed and --out. Handlers reach the traced library
# functions through module globals, never through this table.
COMMANDS = {
    "beam": (cmd_beam, "top-k phoneme hypotheses per utterance",
             {"in": "posterior grid JSONL"}, ("k", "beam_width", "renormalize")),
    "sample": (cmd_sample, "k sampled phoneme sequences per utterance",
               {"in": "posterior grid JSONL"}, ("k", "temperature", "renormalize")),
    "score": (cmd_score, "marginal log-likelihood of reference texts",
              {"grids": "posterior grid JSONL", "refs": "reference manifest JSONL",
               "scorer": "trained scorer JSON"},
              ("method", "k", "beam_width", "normalize_weights", "epochs",
               "resample", "renormalize")),
    "decode": (cmd_decode, "best text per utterance with rescored pool",
               {"grids": "posterior grid JSONL", "scorer": "trained scorer JSON"},
               ("k", "s", "beam_width", "max_len", "normalize_weights",
                "renormalize")),
    "augment": (cmd_augment, "n-best noisy training lines per utterance",
                {"grids": "posterior grid JSONL", "refs": "reference manifest JSONL"},
                ("n_best", "beam_width", "include_clean", "renormalize")),
    "balance": (cmd_balance, "oversample languages up to target hours",
                {"in": "manifest JSONL"}, ("target_hours",)),
    "train-scorer": (cmd_train_scorer, "fit the n-gram scorer on training lines",
                     {"in": "training-line text file"},
                     ("order", "smoothing_alpha", "context_window")),
    "eval": (cmd_eval, "error rate and lid accuracy report",
             {"refs": "reference manifest JSONL", "hyps": "decode output JSONL"},
             ("table",)),
}


def _add_option(p: argparse.ArgumentParser, name: str) -> None:
    f = _OPTIONS[name]
    flag = f.metadata["flag"] or "--" + name.replace("_", "-")
    if _kind(f) is bool:
        # default None: an absent flag must not override the config file
        p.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction,
                       default=None, help=f.metadata["help"])
    else:
        p.add_argument(flag, dest=name, type=_kind(f), help=f.metadata["help"],
                       choices=f.metadata["choices"])


@functools.cache  # one parser per process: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p2g",
        description="Phoneme-to-grapheme pipeline over CTC posterior grids.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, text, paths, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON file of option defaults (flags win)")
        for key, path_help in {"out": "output file (written atomically)",
                               **paths}.items():
            p.add_argument(f"--{key}", dest=key, help=path_help)
        for name in ("seed",) + options:
            _add_option(p, name)
    sub.add_parser("selftest", help="run the built-in oracle checks"
                   ).set_defaults(handler=cmd_selftest)
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
        return args.handler(args, resolve_config(args))
    except (FormatError, OSError) as exc:
        print(f"p2g: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"p2g: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
