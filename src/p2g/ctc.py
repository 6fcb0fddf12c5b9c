"""CTC core: phoneme alphabets, posterior grids, the collapse mapping, exact
forward scoring, frame-level path sampling, and prefix beam search.

A posterior grid is the interface to any upstream speech-to-phoneme model:
one normalized log-probability row per frame, with the blank symbol fixed in
column 0. Everything here is immutable after construction; all randomness
flows through an explicit numpy Generator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ioutil import field, iter_jsonl, write_jsonl
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
        object.__setattr__(self, "_symbol", dict(enumerate(symbols, start=1)))

    @property
    def size(self) -> int:
        """Width of a grid row: V + 1."""
        return len(self.symbols) + 1

    def to_symbols(self, seq: Iterable[int]) -> tuple[str, ...]:
        try:  # keyed by index, so 0 and negative indices miss rather than wrap
            return tuple(map(self._symbol.__getitem__, seq))  # type: ignore[attr-defined]
        except KeyError as exc:
            raise ValueError(f"index {exc.args[0]} is not a phoneme index") from None

    def to_indices(self, tokens: Iterable[str]) -> PhonemeSequence:
        try:
            return tuple(map(self._index.__getitem__, tokens))  # type: ignore[attr-defined]
        except KeyError as exc:
            raise ValueError(f"unknown phoneme symbol {exc.args[0]!r}") from None


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

    Frame t (0-based, of T; S = 2|h| + 1 states) is computed only over its
    band ``lo <= s < hi``, and the states outside it are skipped exactly:

    - ``hi = min(S, 2t + 2)``. A path advances at most two states per frame,
      so every state from ``hi`` up is still LOG_ZERO.
    - ``lo = max(0, S - 2(T - t))``. A state below it cannot reach state
      S - 1 or S - 2 by the last frame, so it never feeds the total. The next
      band starts two states higher and reads at most two states back, so it
      reads only states computed at frame t.
    - The skip from s - 2 is applied to label states (odd s >= 3) only,
      through a 0 / LOG_ZERO mask that also blocks repeated labels. On any
      other state it would be ``logaddexp(x, LOG_ZERO)``, which is ``x`` bit
      for bit: ``x`` comes out of the first ``logaddexp``, never as -0.0.

    Every state that feeds the total gets the same two ``logaddexp``s and
    ``+`` in the same order as the full recursion over all S states, so the
    result is bitwise the same.
    """
    seq = _checked_sequence(h, grid.alphabet)
    lp = grid.logp
    frames = lp.shape[0]

    # state s: even -> blank, odd -> seq[s // 2]
    ext = np.empty(2 * len(seq) + 1, dtype=np.int64)
    ext[0::2] = BLANK
    ext[1::2] = seq
    states = ext.shape[0]

    # added to alpha[s - 2] on label states s >= 3 only; its 0.0 turns -0.0
    # into +0.0, which a logaddexp whose x is never -0.0 cannot tell apart
    skip = np.full(states, LOG_ZERO)
    skip[3::2][ext[3::2] != ext[1:-2:2]] = 0.0

    emit = lp[:, ext]
    # two buffers in turn: a state is first written at the frame whose band
    # reaches it, so above the band both hold LOG_ZERO; below it they hold
    # stale values that no band reads
    alpha = np.full(states, LOG_ZERO)
    prev = np.full(states, LOG_ZERO)
    alpha[:2] = emit[0, :2]
    for t in range(1, frames):
        prev, alpha = alpha, prev
        # plain comparisons, not max/min: this runs once per frame per sequence
        lo = states - 2 * (frames - t)
        if lo < 0:
            lo = 0
        hi = 2 * t + 2
        if hi > states:
            hi = states
        if lo == 0:
            alpha[0] = prev[0]
        one = lo or 1
        np.logaddexp(prev[one:hi], prev[one - 1:hi - 1], alpha[one:hi])
        first = lo if lo > 3 else 3
        if first < hi:
            label = alpha[first:hi:2]
            np.logaddexp(label, prev[first - 2:hi - 2:2] + skip[first:hi:2], label)
        band = alpha[lo:hi]
        np.add(band, emit[t, lo:hi], band)

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

    Each frame is a few array operations on a B x (V+1) candidate matrix,
    where B is the live beam size: column 0 holds a member's own prefix,
    column c its extension by label c. The scores are bitwise those of the
    one-prefix-at-a-time recursion. Every sum is the same single float
    addition, and a merged non-blank mass has at most two terms: the
    member's own repeat and its parent's extension. ``log_add`` is exactly
    commutative (max and |a - b| are symmetric, and LOG_ZERO passes the
    other operand through), so the order of the merges cannot change a bit.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if beam_width < k:
        raise ValueError("beam_width must be >= k")

    lp = grid.logp
    cols = lp.shape[1]
    # the beam, best first: prefix, blank-ending mass, non-blank-ending mass,
    # total and last label (BLANK for the empty prefix)
    prefixes: list[PhonemeSequence] = [()]
    pb = np.zeros(1)
    pnb = np.full(1, LOG_ZERO)
    total = np.zeros(1)
    last = np.zeros(1, dtype=np.intp)

    for t in range(grid.frames):
        row = lp[t]
        cand = np.empty((len(prefixes), cols))
        cand[:, 1:] = total[:, None] + row[1:]
        # a repeat reaches the longer prefix only across a blank, so only the
        # blank-ending mass grows it
        rep = np.flatnonzero(last)
        cand[rep, last[rep]] = pb[rep] + row[last[rep]]
        # a member stays by a blank, or by repeating its last label; the
        # empty prefix's non-blank mass is LOG_ZERO, so it gets no repeat
        stay_b = total + row[BLANK]
        stay_nb = pnb + row[last]
        # a member whose parent is also a member absorbs the parent's
        # extension by its last label: at most one merge per member
        index = {p: i for i, p in enumerate(prefixes)}
        for j, p in enumerate(prefixes):
            i = index.get(p[:-1]) if p else None
            if i is not None:
                stay_nb[j] = log_add(float(stay_nb[j]), float(cand[i, p[-1]]))
                cand[i, p[-1]] = LOG_ZERO
        # np.logaddexp is log_add bit for bit except on (-0.0, LOG_ZERO),
        # where it gives +0.0. No mass is -0.0: each is built from the +0.0
        # root by sums, which are -0.0 only if both terms are, and by
        # log_adds, which return an input or add a log1p >= +0.0
        np.logaddexp(stay_b, stay_nb, out=cand[:, BLANK])

        flat = cand.ravel()
        live = flat > LOG_ZERO
        if flat.size > beam_width:
            # every candidate below the beam_width-th largest total loses
            cut = flat.size - beam_width
            live &= flat >= np.partition(flat, cut)[cut]
        ranked = []
        for f, score in zip(np.flatnonzero(live).tolist(), flat[live].tolist()):
            i, c = divmod(f, cols)
            prefix = prefixes[i] + (c,) if c else prefixes[i]
            ranked.append((-score, len(prefix), prefix, f))
        # prefixes are distinct, so f never takes part in the comparison
        best = heapq.nsmallest(beam_width, ranked)
        prefixes = [prefix for _, _, prefix, _ in best]
        chosen = np.array([f for _, _, _, f in best], dtype=np.intp)
        src, label = np.divmod(chosen, cols)
        stays = label == BLANK
        total = flat[chosen]
        pb = np.where(stays, stay_b[src], LOG_ZERO)
        pnb = np.where(stays, stay_nb[src], total)
        last = np.where(stays, last[src], label)

    return [ScoredHypothesis(sequence=p, log_score=s)
            for p, s in zip(prefixes[:k], total[:k].tolist())]


def load_grids(path, renormalize: bool = False) -> list[PosteriorGrid]:
    """Read posterior grids from line-delimited JSON.

    Each line holds ``{"id", "symbols", "logp"}`` where ``symbols`` excludes
    the blank and ``logp`` rows are natural-log posteriors over
    [blank] + symbols. A zero-probability cell is ``null``; the older
    non-standard ``-Infinity`` is read as well.
    """
    def parse(obj: dict) -> PosteriorGrid:
        utt_id = field(obj, "id", str)
        alphabet = Alphabet(tuple(field(obj, "symbols", list, items=str)))
        logp = field(obj, "logp", list)
        try:
            matrix = np.array(logp, dtype=np.float64)
        except TypeError as exc:
            # a cell that is neither a number nor null
            raise ValueError(str(exc)) from exc
        if matrix.ndim == 2 and np.isnan(matrix).any():
            # null became NaN; a NaN literal in the file stays NaN and
            # is refused below
            is_null = np.array([[v is None for v in row] for row in logp])
            matrix[is_null] = LOG_ZERO
        if renormalize:
            return PosteriorGrid.renormalized(utt_id, alphabet, matrix)
        return PosteriorGrid(utt_id, alphabet, matrix)

    return list(iter_jsonl(path, parse))


def save_grids(grids: Iterable[PosteriorGrid], path) -> None:
    """Write grids as strict JSON lines: JSON has no infinity, so a
    zero-probability cell is written as ``null``."""
    def cells(grid: PosteriorGrid) -> list:
        rows = grid.logp.tolist()
        # most grids have no zero cell and skip the per-cell pass
        if np.isneginf(grid.logp).any():
            rows = [[None if v == LOG_ZERO else v for v in row] for row in rows]
        return rows

    write_jsonl(path, ({"id": grid.utterance_id, "symbols": list(grid.alphabet.symbols),
                        "logp": cells(grid)} for grid in grids))
