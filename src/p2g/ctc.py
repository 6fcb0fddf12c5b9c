"""CTC core: phoneme alphabets, posterior grids, the collapse mapping, exact
forward scoring, frame-level path sampling, and prefix beam search.

A posterior grid is the interface to any upstream speech-to-phoneme model:
one normalized log-probability row per frame, with the blank symbol fixed in
column 0. Everything here is immutable after construction; all randomness
flows through an explicit numpy Generator.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ioutil import FormatError, atomic_write_lines, field, iter_jsonl
from .logmath import LOG_ZERO, log_add

BLANK = 0

# rows must satisfy |logsumexp(row)| <= ROW_NORM_TOL unless renormalized on load
ROW_NORM_TOL = 1e-6

PhonemeSequence = tuple[int, ...]


@dataclass(frozen=True)
class Alphabet:
    """Ordered phoneme symbol inventory; index 0 is the reserved blank, so
    phoneme i (1-based) is ``symbols[i - 1]``."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        symbols = tuple(self.symbols)
        object.__setattr__(self, "symbols", symbols)
        seen: set[str] = set()
        for sym in symbols:
            if not sym:
                raise ValueError("phoneme symbols must be non-empty strings")
            if sym in seen:
                raise ValueError(f"duplicate phoneme symbol {sym!r}")
            seen.add(sym)
        object.__setattr__(self, "_index", {s: i + 1 for i, s in enumerate(symbols)})

    @property
    def num_symbols(self) -> int:
        """Phoneme count V, blank excluded."""
        return len(self.symbols)

    @property
    def size(self) -> int:
        """Width of a grid row: V + 1."""
        return len(self.symbols) + 1

    def symbol(self, index: int) -> str:
        if not 1 <= int(index) <= len(self.symbols):
            raise ValueError(f"index {index} is not a phoneme index")
        return self.symbols[int(index) - 1]

    def to_symbols(self, seq: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.symbol(i) for i in seq)

    def to_indices(self, tokens: Iterable[str]) -> PhonemeSequence:
        index: dict[str, int] = self._index  # type: ignore[attr-defined]
        out = []
        for tok in tokens:
            if tok not in index:
                raise ValueError(f"unknown phoneme symbol {tok!r}")
            out.append(index[tok])
        return tuple(out)


@dataclass(frozen=True, eq=False)
class PosteriorGrid:
    """T x (V+1) matrix of natural-log posteriors, one row per frame.

    Rows must be normalized distributions; entries are log-probabilities
    (<= 0, LOG_ZERO allowed). The matrix is copied and frozen on construction.
    """

    utterance_id: str
    alphabet: Alphabet
    logp: np.ndarray

    def __post_init__(self) -> None:
        if not self.utterance_id:
            raise ValueError("utterance_id must be non-empty")
        lp = np.array(self.logp, dtype=np.float64)
        if lp.ndim != 2 or lp.shape[0] < 1:
            raise ValueError("logp must be a T x (V+1) matrix with T >= 1")
        if lp.shape[1] != self.alphabet.size:
            raise ValueError(
                f"logp has {lp.shape[1]} columns, alphabet needs {self.alphabet.size}")
        if np.isnan(lp).any():
            raise ValueError("logp contains NaN")
        if (lp > 0.0).any():
            raise ValueError("log-probabilities must be <= 0")
        norms = _row_logsumexp(lp)
        worst = float(np.abs(norms).max())
        if worst > ROW_NORM_TOL:
            raise ValueError(
                f"grid rows are not normalized (worst |logsumexp| = {worst:.3g}); "
                "renormalize on load if the source is approximate")
        lp.setflags(write=False)
        object.__setattr__(self, "logp", lp)

    @property
    def frames(self) -> int:
        return int(self.logp.shape[0])

    @classmethod
    def renormalized(cls, utterance_id: str, alphabet: Alphabet,
                     logp: np.ndarray) -> "PosteriorGrid":
        """Build a grid from approximate rows by renormalizing each one."""
        lp = np.array(logp, dtype=np.float64)
        if lp.ndim != 2 or lp.shape[0] < 1:
            raise ValueError("logp must be a T x (V+1) matrix with T >= 1")
        norms = _row_logsumexp(lp)
        lp = np.minimum(lp - norms[:, None], 0.0)
        return cls(utterance_id, alphabet, lp)


def _row_logsumexp(lp: np.ndarray) -> np.ndarray:
    hi = lp.max(axis=1)
    if not np.isfinite(hi).all():
        raise ValueError("grid row with zero total probability")
    return hi + np.log(np.exp(lp - hi[:, None]).sum(axis=1))


@dataclass(frozen=True)
class ScoredHypothesis:
    """A collapsed phoneme sequence with its log score."""

    sequence: PhonemeSequence
    log_score: float


def collapse(path: Sequence[int], alphabet: Alphabet | None = None) -> PhonemeSequence:
    """Map a frame-level path to its phoneme sequence: merge adjacent repeats
    of non-blank labels, then drop blanks.

    Index range is checked against ``alphabet`` when one is given; negative
    indices are always rejected.
    """
    out: list[int] = []
    prev = BLANK
    limit = alphabet.size if alphabet is not None else None
    for raw in path:
        idx = int(raw)
        if idx < 0 or (limit is not None and idx >= limit):
            raise ValueError(f"label index {idx} outside alphabet range")
        if idx != BLANK and idx != prev:
            out.append(idx)
        prev = idx
    return tuple(out)


def _checked_sequence(h: Sequence[int], alphabet: Alphabet) -> PhonemeSequence:
    seq = tuple(int(i) for i in h)
    for idx in seq:
        if idx == BLANK:
            raise ValueError("phoneme sequence must not contain the blank index")
        if not 1 <= idx < alphabet.size:
            raise ValueError(f"label index {idx} outside alphabet range")
    return seq


def forward_logprob(grid: PosteriorGrid, h: Sequence[int]) -> float:
    """Exact log-probability that a frame path drawn from the grid collapses
    to ``h``: the standard forward recursion over the blank-interleaved label
    sequence, entirely in log space.

    Returns LOG_ZERO when ``h`` is unreachable (for instance longer than the
    frame count allows).
    """
    seq = _checked_sequence(h, grid.alphabet)
    lp = grid.logp
    frames = lp.shape[0]

    # state s: even -> blank, odd -> seq[s // 2]
    ext = np.empty(2 * len(seq) + 1, dtype=np.int64)
    ext[0::2] = BLANK
    ext[1::2] = seq
    states = ext.shape[0]

    allow_skip = np.zeros(states, dtype=bool)
    if states > 2:
        allow_skip[2:] = (ext[2:] != BLANK) & (ext[2:] != ext[:-2])

    alpha = np.full(states, LOG_ZERO)
    alpha[0] = lp[0, BLANK]
    if states > 1:
        alpha[1] = lp[0, ext[1]]
    for t in range(1, frames):
        prev = alpha
        alpha = prev.copy()
        alpha[1:] = np.logaddexp(alpha[1:], prev[:-1])
        if states > 2:
            skip = np.where(allow_skip[2:], prev[:-2], LOG_ZERO)
            alpha[2:] = np.logaddexp(alpha[2:], skip)
        alpha += lp[t, ext]

    total = float(alpha[-1])
    if states > 1:
        total = log_add(total, float(alpha[-2]))
    return total


def _row_cdf(grid: PosteriorGrid, temperature: float) -> np.ndarray:
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    lp = grid.logp
    if temperature != 1.0:
        lp = lp / temperature
        lp = lp - _row_logsumexp(lp)[:, None]
    cdf = np.cumsum(np.exp(lp), axis=1)
    cdf /= cdf[:, -1:]
    return cdf


def sample_paths(grid: PosteriorGrid, k: int, rng: np.random.Generator,
                 temperature: float = 1.0) -> np.ndarray:
    """Draw k independent frame paths as a (k, T) index array; each frame is
    an independent categorical draw from its posterior row."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cdf = _row_cdf(grid, temperature)
    u = rng.random((k, grid.frames))
    out = np.empty((k, grid.frames), dtype=np.int64)
    for t in range(grid.frames):
        out[:, t] = np.searchsorted(cdf[t], u[:, t], side="right")
    return out


def sample_k_hypotheses(grid: PosteriorGrid, k: int, rng: np.random.Generator,
                        temperature: float = 1.0) -> list[PhonemeSequence]:
    """The k sampled paths of sample_paths, each collapsed; duplicates are
    preserved."""
    paths = sample_paths(grid, k, rng, temperature)
    return [collapse(row) for row in paths]


def prefix_beam_search(grid: PosteriorGrid, beam_width: int, k: int) -> list[ScoredHypothesis]:
    """Top-k collapsed sequences by (approximate) total probability.

    Prefixes that collapse to the same sequence are merged, carrying separate
    masses for blank-ending and non-blank-ending paths. With a beam covering
    every reachable prefix the scores equal the exact forward scores; pruning
    can only discard mass, never add it. Ties sort by score, then length,
    then lexicographic index order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if beam_width < k:
        raise ValueError("beam_width must be >= k")

    lp = grid.logp
    # (prefix, blank-ending mass, non-blank-ending mass, total), best first
    beam: list[tuple[PhonemeSequence, float, float, float]] = [((), 0.0, LOG_ZERO, 0.0)]

    for t in range(grid.frames):
        # one row at a time: Python floats are cheap to add and compare, and
        # converting the whole grid up front would hold a second copy of it
        row = lp[t].tolist()
        blank = row[BLANK]
        labels = [(c, pc) for c, pc in enumerate(row) if c != BLANK and pc != LOG_ZERO]
        # prefix -> [blank-ending mass, non-blank-ending mass]
        grown: dict[PhonemeSequence, list[float]] = {}

        for prefix, pb, pnb, total in beam:
            entry = grown.get(prefix)
            if entry is None:
                entry = grown[prefix] = [LOG_ZERO, LOG_ZERO]
            entry[0] = log_add(entry[0], total + blank)
            last = prefix[-1] if prefix else BLANK
            for c, pc in labels:
                if c == last:
                    # repeat frame extends the run; a blank-separated repeat
                    # grows the prefix from the blank-ending mass only
                    entry[1] = log_add(entry[1], pnb + pc)
                    if pb == LOG_ZERO:
                        continue
                    mass = pb + pc
                else:
                    mass = total + pc
                longer = prefix + (c,)
                target = grown.get(longer)
                if target is None:
                    grown[longer] = [LOG_ZERO, mass]
                else:
                    target[1] = log_add(target[1], mass)

        ranked = []
        for prefix, (mb, mnb) in grown.items():
            total = log_add(mb, mnb)
            if total != LOG_ZERO:
                ranked.append((-total, len(prefix), prefix, mb, mnb))
        # nsmallest equals sorted(...)[:beam_width]; prefixes are distinct,
        # so the mass fields never take part in the comparison
        beam = [(prefix, mb, mnb, -neg)
                for neg, _, prefix, mb, mnb in heapq.nsmallest(beam_width, ranked)]

    return [ScoredHypothesis(sequence=p, log_score=total) for p, _, _, total in beam[:k]]


def load_grids(path, renormalize: bool = False) -> list[PosteriorGrid]:
    """Read posterior grids from line-delimited JSON.

    Each line holds ``{"id", "symbols", "logp"}`` where ``symbols`` excludes
    the blank and ``logp`` rows are natural-log posteriors over
    [blank] + symbols. A zero-probability cell is ``null``; the older
    non-standard ``-Infinity`` is read as well.
    """
    grids = []
    for line_no, obj in iter_jsonl(path):
        utt_id = field(obj, "id", str, path=path, line_no=line_no)
        symbols = field(obj, "symbols", list, path=path, line_no=line_no)
        logp = field(obj, "logp", list, path=path, line_no=line_no)
        if not all(isinstance(s, str) for s in symbols):
            raise FormatError("field 'symbols' must be a list of strings",
                              path=path, line_no=line_no)
        try:
            alphabet = Alphabet(tuple(symbols))
            matrix = np.array(logp, dtype=np.float64)
            if matrix.ndim == 2 and np.isnan(matrix).any():
                # null became NaN; a NaN literal in the file stays NaN and
                # is refused below
                is_null = np.array([[v is None for v in row] for row in logp])
                matrix[is_null] = LOG_ZERO
            if renormalize:
                grid = PosteriorGrid.renormalized(utt_id, alphabet, matrix)
            else:
                grid = PosteriorGrid(utt_id, alphabet, matrix)
        except ValueError as exc:
            raise FormatError(str(exc), path=path, line_no=line_no) from exc
        grids.append(grid)
    return grids


def save_grids(grids: Iterable[PosteriorGrid], path) -> None:
    """Write grids as strict JSON lines: JSON has no infinity, so a
    zero-probability cell is written as ``null``."""
    lines = []
    for grid in grids:
        rows = grid.logp.tolist()
        # most grids have no zero cell and skip the per-cell pass
        if np.isneginf(grid.logp).any():
            rows = [[None if v == LOG_ZERO else v for v in row] for row in rows]
        obj = {"id": grid.utterance_id, "symbols": list(grid.alphabet.symbols),
               "logp": rows}
        lines.append(json.dumps(obj, ensure_ascii=False))
    atomic_write_lines(path, lines)
