"""Shared fixtures: small grids and a trained scorer."""

from __future__ import annotations

import numpy as np
import pytest

from p2g import synth
from p2g.ctc import Alphabet, PosteriorGrid
from p2g.scorer import train_scorer


@pytest.fixture(scope="session")
def corpus():
    """Synthetic 4-language corpus: (grids, manifest)."""
    return synth.build_corpus(seed=11, utts_per_lang=10)


@pytest.fixture(scope="session")
def trained_scorer(corpus):
    _, manifest = corpus
    pairs = [(r.phonemes, r.text) for r in manifest.records]
    return train_scorer(pairs, order=2, smoothing_alpha=0.2, context_window=1)


@pytest.fixture
def tiny_alphabet():
    return Alphabet(("a", "b"))


def make_grid(rng: np.random.Generator, utterance_id: str = "u", frames: int = 4,
              min_prob: float = 0.0) -> PosteriorGrid:
    """Dirichlet-row grid over the phonemes ("a", "b")."""
    return synth.random_grid(rng, utterance_id, frames=frames, symbols=("a", "b"),
                             min_prob=min_prob)
