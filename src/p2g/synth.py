"""Synthetic grids and corpora for tests, experiments, and the self-test.

The corpus generator builds small languages with disjoint phoneme
inventories and a deterministic phoneme-to-character mapping, then renders
each utterance as a noisy posterior grid peaked around its reference
phonemes. Deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import Alphabet, PosteriorGrid
from .data import CorpusManifest, UtteranceRecord
from .scorer import TargetText


def random_grid(rng: np.random.Generator, utterance_id: str = "u",
                frames: int | None = None, symbols: tuple[str, ...] | None = None,
                max_frames: int = 6, max_symbols: int = 3,
                concentration: float = 1.0, min_prob: float = 0.0) -> PosteriorGrid:
    """A grid with independent Dirichlet rows; -inf entries may appear when a
    component underflows, which is valid and exercises the zero paths.
    ``min_prob`` floors every cell (then renormalizes) so no path has
    vanishing probability."""
    if frames is None:
        frames = int(rng.integers(1, max_frames + 1))
    if symbols is None:
        count = int(rng.integers(1, max_symbols + 1))
        symbols = tuple(f"p{i}" for i in range(1, count + 1))
    alphabet = Alphabet(symbols)
    probs = rng.dirichlet(np.full(alphabet.size, concentration), size=frames)
    if min_prob > 0.0:
        probs = probs + min_prob
        probs /= probs.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    return PosteriorGrid.renormalized(utterance_id, alphabet, logp)


@dataclass(frozen=True)
class SynthLanguage:
    code: str
    phonemes: tuple[str, ...]
    graphemes: tuple[str, ...]  # graphemes[i] renders phonemes[i]


# disjoint inventories so language identity is recoverable from phonemes
LANGUAGES = (
    SynthLanguage("ky", ("q", "ɯ", "z", "ɑ"), ("к", "ы", "з", "а")),
    SynthLanguage("nl", ("ɣ", "eː", "s", "t"), ("g", "e", "s", "t")),
    SynthLanguage("sv", ("ɧ", "øː", "r", "l"), ("s", "ö", "r", "l")),
    SynthLanguage("tt", ("ʑ", "ɤ", "m", "n"), ("җ", "ы", "м", "н")),
)


def corpus_alphabet(languages: tuple[SynthLanguage, ...] = LANGUAGES) -> Alphabet:
    symbols: list[str] = []
    for lang in languages:
        symbols.extend(lang.phonemes)
    return Alphabet(tuple(symbols))


def _sample_utterance(rng: np.random.Generator, lang: SynthLanguage) -> tuple[tuple[str, ...], str]:
    words = int(rng.integers(1, 4))
    phonemes: list[str] = []
    chars: list[str] = []
    for w in range(words):
        length = int(rng.integers(2, 5))
        picks = rng.integers(0, len(lang.phonemes), size=length)
        if w > 0:
            chars.append(" ")
        for i in picks:
            phonemes.append(lang.phonemes[int(i)])
            chars.append(lang.graphemes[int(i)])
    return tuple(phonemes), "".join(chars)


def grid_for_phonemes(rng: np.random.Generator, alphabet: Alphabet,
                      phonemes: tuple[str, ...], utterance_id: str,
                      peak: float = 0.85) -> PosteriorGrid:
    """A plausible posterior for the given reference: one or two frames peaked
    on each phoneme, blank-peaked frames in between (always between equal
    neighbours, so the reference stays reachable)."""
    indices = alphabet.to_indices(phonemes)
    targets: list[int] = [0]
    prev = 0
    for idx in indices:
        if idx == prev or rng.random() < 0.4:
            targets.append(0)
        targets.extend([idx] * int(rng.integers(1, 3)))
        prev = idx
    targets.append(0)

    rows = []
    for tgt in targets:
        noise = rng.dirichlet(np.ones(alphabet.size))
        p = float(peak + 0.1 * rng.random())
        row = (1.0 - p) * noise
        row[tgt] += p
        rows.append(row)
    with np.errstate(divide="ignore"):
        logp = np.log(np.array(rows))
    return PosteriorGrid.renormalized(utterance_id, alphabet, logp)


def build_corpus(seed: int, utts_per_lang: int = 6,
                 languages: tuple[SynthLanguage, ...] = LANGUAGES,
                 prefix: str = "utt") -> tuple[list[PosteriorGrid], CorpusManifest]:
    """Aligned grids and manifest for a small multilingual corpus."""
    if utts_per_lang < 1:
        raise ValueError("utts_per_lang must be >= 1")
    alphabet = corpus_alphabet(languages)
    rng = np.random.default_rng(seed)
    grids: list[PosteriorGrid] = []
    records: list[UtteranceRecord] = []
    for lang in languages:
        for i in range(utts_per_lang):
            utt_id = f"{prefix}-{lang.code}-{i:03d}"
            phonemes, text = _sample_utterance(rng, lang)
            grid = grid_for_phonemes(rng, alphabet, phonemes, utt_id)
            dur = round(grid.frames * 0.04 + float(rng.random()) * 0.2, 3)
            grids.append(grid)
            records.append(UtteranceRecord(
                utterance_id=utt_id, lang=lang.code, dur_sec=dur,
                phonemes=phonemes, text=TargetText(lid=lang.code, graphemes=text)))
    return grids, CorpusManifest(records=tuple(records))
