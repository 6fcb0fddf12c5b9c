"""Marginal likelihood of a text under a posterior grid.

All three estimators of log p(y | x) = log sum_h p(h | x) p(y | h) are one
weighted sum, log sum_h exp(w_h + log p(y | h)), computed only by
``tkm_log_marginal``. They differ in the hypotheses and their weights w_h:

* ``tkm``: an explicit top-k list, each weighted by its (beam or exact
  forward) score.
* ``skm``: the distinct collapsed sequences among k sampled frame paths,
  each weighted by its exact forward score.
* ``sskm``: the same distinct sequences weighted by their draw count, minus
  log k: the plain Monte Carlo average over the raw draws, which is unbiased
  in probability space.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import ctc
from .ctc import Alphabet, PosteriorGrid, ScoredHypothesis
from .logmath import log_sum
from .scorer import ConditionalScorer, TargetText
from .seeding import derive_rng

METHODS = ("tkm", "skm", "sskm")


def hypothesis_weights(hyps: Sequence[ScoredHypothesis], normalize: bool) -> list[float]:
    """Each hypothesis's log score; ``normalize`` rescales them to sum to
    one, which shifts every weighted sum by a constant and never changes
    rankings."""
    weights = [h.log_score for h in hyps]
    if normalize:
        z = log_sum(weights)
        weights = [w - z for w in weights]
    return weights


def tkm_log_marginal(hyps: Sequence[ScoredHypothesis], y: TargetText,
                     scorer: ConditionalScorer, alphabet: Alphabet,
                     normalize_weights: bool = False) -> float:
    """Fixed-list marginal: logsumexp over hypothesis weight + text score.

    With the complete hypothesis set and exact forward weights this is the
    exact marginal.
    """
    if not hyps:
        raise ValueError("hypothesis list must be non-empty")
    weights = hypothesis_weights(hyps, normalize_weights)
    return log_sum([w + scorer.log_score(y, alphabet.to_symbols(h.sequence))
                    for w, h in zip(weights, hyps)])


def skm_log_marginal(grid: PosteriorGrid, y: TargetText, scorer: ConditionalScorer,
                     k: int, rng: np.random.Generator) -> float:
    """Sampled-support marginal: the distinct sequences among k path draws,
    each weighted by its exact forward score. Coincides with the exact
    marginal once sampling covers every reachable sequence."""
    distinct = sorted(set(ctc.sample_k_hypotheses(grid, k, rng)))
    hyps = list(map(ScoredHypothesis, distinct, ctc.forward_logprob(grid, distinct)))
    return tkm_log_marginal(hyps, y, scorer, grid.alphabet)


def sskm_log_marginal(grid: PosteriorGrid, y: TargetText, scorer: ConditionalScorer,
                      k: int, rng: np.random.Generator) -> float:
    """Equal-weight Monte Carlo marginal over k raw draws.

    exp(result) averages p(y | collapse(path)) over sampled paths, so its
    expectation is exactly the marginal. Duplicates are kept as a log count
    weight; the estimate depends only on the multiset of draws, not their
    order."""
    tally = Counter(ctc.sample_k_hypotheses(grid, k, rng))
    hyps = [ScoredHypothesis(h, math.log(n)) for h, n in sorted(tally.items())]
    return tkm_log_marginal(hyps, y, scorer, grid.alphabet) - math.log(k)


@dataclass(frozen=True)
class BatchObjective:
    mean_nll: float
    per_record: tuple[tuple[str, float], ...]


def batch_objective(records: Sequence[tuple[PosteriorGrid, TargetText]],
                    scorer: ConditionalScorer, method: str, k: int, seed: int,
                    beam_width: int, normalize_weights: bool = False) -> BatchObjective:
    """Mean negative log-marginal over (grid, text) records, by one of
    ``METHODS``; only tkm reads ``beam_width`` and ``normalize_weights``.

    Random streams derive from (seed, utterance id), so batch composition and
    processing order never change a record's value.
    """
    if not records:
        raise ValueError("batch must be non-empty")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    per: list[tuple[str, float]] = []
    for grid, y in records:
        if method == "tkm":
            hyps = ctc.prefix_beam_search(grid, beam_width, k)
            est = tkm_log_marginal(hyps, y, scorer, grid.alphabet, normalize_weights)
        else:
            rng = derive_rng(seed, grid.utterance_id)
            sampled = skm_log_marginal if method == "skm" else sskm_log_marginal
            est = sampled(grid, y, scorer, k, rng)
        per.append((grid.utterance_id, -est))
    mean = sum(v for _, v in per) / len(per)
    return BatchObjective(mean_nll=mean, per_record=tuple(per))
