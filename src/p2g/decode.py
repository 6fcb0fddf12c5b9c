"""Two-stage decoding: phoneme beam search, per-hypothesis text generation,
then marginal rescoring of the pooled candidates.

Each of the top-k phoneme hypotheses proposes its s best texts; the k*s
candidates are deduplicated and rescored by ``pool_and_rescore``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import ctc
from .ctc import PosteriorGrid, ScoredHypothesis
from .ioutil import field, iter_jsonl, write_jsonl
from .logmath import LOG_ZERO, log_add
from .marginal import hypothesis_weights
from .scorer import ConditionalScorer, TargetText


@dataclass(frozen=True)
class DecodeResult:
    best: TargetText
    pool: tuple[tuple[TargetText, float], ...]
    k_used: int
    s_used: int


def pool_and_rescore(hyps: Sequence[ScoredHypothesis],
                     candidates: Sequence[Sequence[tuple[TargetText, float]]],
                     normalize_weights: bool = False) -> list[tuple[TargetText, float]]:
    """Merge per-hypothesis candidate lists into one deduplicated ranking.

    ``candidates[i]`` holds (text, log p(text | hyps[i])) pairs. Sorted by
    score, ties by (lid, graphemes).

    This is the one place that scores a text differently from
    ``marginal.tkm_log_marginal``: the pooled score sums, with sequential
    ``log_add`` in hypothesis order, only over the hypotheses that proposed
    the text; the rest contribute probability zero. Routing the pool through
    the tkm sum would add the non-proposing hypotheses and round through
    ``log_sum`` instead, which changes decode output bytes.
    """
    if not hyps:
        raise ValueError("hypothesis list must be non-empty")
    if len(hyps) != len(candidates):
        raise ValueError("hypothesis and candidate lists are misaligned")
    pooled: dict[TargetText, float] = {}
    for weight, cands in zip(hypothesis_weights(hyps, normalize_weights), candidates):
        for text, lp in cands:
            pooled[text] = log_add(pooled.get(text, LOG_ZERO), weight + lp)
    ranked = sorted(pooled.items(), key=lambda it: (-it[1], it[0]))
    return ranked


def decode(grid: PosteriorGrid, scorer: ConditionalScorer, k: int, s: int,
           beam_width: int, max_len: int = 64,
           normalize_weights: bool = True) -> DecodeResult:
    """Best text for one utterance plus the full rescored pool.

    ``k_used`` may fall below k when the grid supports fewer distinct
    sequences. Weight normalization is on by default here: it never changes
    the ranking but makes pool scores comparable across utterances.
    """
    hyps = ctc.prefix_beam_search(grid, beam_width, k)
    candidates = [scorer.generate_top_s(grid.alphabet.to_symbols(h.sequence), s, max_len)
                  for h in hyps]
    pool = pool_and_rescore(hyps, candidates, normalize_weights)
    s_used = max((len(c) for c in candidates), default=0)
    return DecodeResult(best=pool[0][0], pool=tuple(pool),
                        k_used=len(hyps), s_used=s_used)


def save_decode_results(items: Iterable[tuple[str, DecodeResult]], path) -> None:
    """One JSON line per utterance: id, winning lid/text, and the pool."""
    write_jsonl(path, ({
        "id": utt_id,
        "lid": result.best.lid,
        "text": result.best.graphemes,
        "pool": [{"lid": t.lid, "text": t.graphemes, "logp": lp} for t, lp in result.pool],
    } for utt_id, result in items))


def load_hypotheses(path) -> dict[str, TargetText]:
    """Read decode output back as {utterance id: best text}."""
    def parse(obj: dict) -> tuple[str, TargetText]:
        utt_id = field(obj, "id", str)
        lid = field(obj, "lid", str)
        text = field(obj, "text", str)
        return utt_id, TargetText(lid=lid, graphemes=text)

    return dict(iter_jsonl(path, parse, unique="utterance id"))
