"""CTC core: phoneme alphabets, posterior grids, the collapse mapping, exact
forward scoring, frame-level path sampling, and prefix beam search.

A posterior grid is the interface to any upstream speech-to-phoneme model:
one normalized log-probability row per frame, with the blank symbol fixed in
column 0. Everything here is immutable after construction; all randomness
flows through an explicit numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .ioutil import atomic_write, field, iter_json, iter_jsonl
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


def collapse(path: Sequence[int]) -> PhonemeSequence:
    """Map a frame-level path to its phoneme sequence: merge adjacent repeats
    of non-blank labels, then drop blanks; the one-row ``_collapse_rows``."""
    return _collapse_rows(np.asarray(path, dtype=np.int64).reshape(1, -1))[0]


def _collapse_rows(paths: np.ndarray) -> list[PhonemeSequence]:
    """``collapse`` of each row of a (k, T) label array in one array pass: a
    label is kept where it is not blank and differs from the label before it.
    A negative label is refused; the alphabet's range is checked where a
    sequence meets its alphabet, by ``Alphabet.to_symbols``."""
    if (paths < 0).any():
        raise ValueError(f"label index {paths[paths < 0][0]} is negative")
    keep = paths != BLANK
    keep[:, 1:] &= paths[:, 1:] != paths[:, :-1]
    labels, ends = paths[keep].tolist(), np.cumsum(keep.sum(axis=1)).tolist()
    return [tuple(labels[a:b]) for a, b in zip([0] + ends, ends)]


def forward_logprob(grid: PosteriorGrid, seqs: Sequence[Sequence[int]]) -> list[float]:
    """Exact log-probability, for each ``h`` in ``seqs``, that a frame path
    drawn from the grid collapses to ``h``: the standard forward recursion
    over the blank-interleaved label sequence, in log space, run as one
    padded batch. An unreachable ``h`` scores LOG_ZERO; an empty batch
    returns ``[]``. Every ``h`` must hold phoneme indices of the grid's
    alphabet (``Alphabet.to_symbols``): a blank, 1.5 or too large an index
    anywhere in the batch raises.

    Column j of one S_max x N state array holds the S_j = 2|h_j| + 1 states
    of ``seqs[j]``, then pad states. A state reads only itself and the two
    below it, so a pad state never feeds a real one. Frame t (of T) is
    computed over the band ``lo <= s < hi`` only:

    - ``hi = min(S_max, 2t + 2)``: a path advances at most two states per
      frame, so every state from ``hi`` up is still LOG_ZERO.
    - ``lo = max(0, S_min - 2(T - t))``. A state below ``S_j - 2(T - t)``
      cannot reach sequence j's last two states by the last frame, so
      whatever it holds, it feeds only states like it. The next band starts
      two states higher and reads at most two states back.
    - The skip from s - 2 is applied to label states (odd s >= 3) only,
      through a 0 / LOG_ZERO mask that also blocks repeated labels. On any
      other state it would be ``logaddexp(x, LOG_ZERO)``, which is ``x`` bit
      for bit: ``x`` comes out of the first ``logaddexp``, never as -0.0.

    Emissions are gathered per frame over the band. Every state that feeds a
    total gets the same ``logaddexp``s and ``+`` in the same order as in the
    recursion over that sequence alone, so each total is bitwise the same.
    """
    seqs = [tuple(h) for h in seqs]
    grid.alphabet.to_symbols(chain.from_iterable(seqs))
    if not seqs:
        return []
    lp, frames = grid.logp, grid.frames
    ends = np.array([2 * len(h) for h in seqs])
    states, floor = int(ends.max()) + 1, int(ends.min()) + 1

    # column j: state s of seqs[j]; even s -> blank, odd s -> seqs[j][s // 2]
    ext = np.zeros((states, len(seqs)), dtype=np.int64)
    for j, h in enumerate(seqs):
        ext[1:2 * len(h):2, j] = h

    # added to alpha[s - 2] on label states s >= 3 only; its 0.0 turns -0.0
    # into +0.0, which a logaddexp whose x is never -0.0 cannot tell apart
    skip = np.full(ext.shape, LOG_ZERO)
    skip[3::2][ext[3::2] != ext[1:-2:2]] = 0.0

    # two buffers in turn: a state is first written at the frame whose band
    # reaches it, so above the band both hold LOG_ZERO; below it they hold
    # stale values that feed no total
    alpha, prev = np.full((2, *ext.shape), LOG_ZERO)
    alpha[:2] = lp[0].take(ext[:2])
    for t in range(1, frames):
        prev, alpha = alpha, prev
        lo, hi = max(floor - 2 * (frames - t), 0), min(2 * t + 2, states)
        if lo == 0:
            alpha[0] = prev[0]
        one = lo or 1
        np.logaddexp(prev[one:hi], prev[one - 1:hi - 1], alpha[one:hi])
        first = max(lo, 3)
        if first < hi:
            label = alpha[first:hi:2]
            np.logaddexp(label, prev[first - 2:hi - 2:2] + skip[first:hi:2], label)
        band = alpha[lo:hi]
        np.add(band, lp[t].take(ext[lo:hi]), band)

    cols = np.arange(len(seqs))
    last, before = alpha[ends, cols].tolist(), alpha[ends - 1, cols].tolist()
    return [log_add(a, b) if end else a for a, b, end in zip(last, before, ends.tolist())]


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


# cells (samples x frames x (V+1)) compared at once in sample_paths
_SAMPLE_BLOCK = 1 << 20


def sample_paths(grid: PosteriorGrid, k: int, rng: np.random.Generator,
                 temperature: float = 1.0) -> np.ndarray:
    """Draw k independent frame paths as a (k, T) index array; each frame is
    an independent categorical draw from its posterior row.

    The label drawn by ``u`` at frame t is ``searchsorted(cdf[t], u,
    side="right")``, computed as the count of ``cdf[t]`` entries <= ``u``,
    for all draws and frames at once, a block of at most ``_SAMPLE_BLOCK``
    cells at a time. The two are equal because each cdf row is
    non-decreasing: a cumsum of non-negative terms divided by its positive
    last entry, and rounding is monotone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    cdf = _row_cdf(grid, temperature)
    u = rng.random((k, grid.frames))
    out = np.empty((k, grid.frames), dtype=np.int64)
    width = cdf.shape[1]
    draws = max(_SAMPLE_BLOCK // (grid.frames * width), 1)
    span = max(_SAMPLE_BLOCK // (draws * width), 1)
    for d in range(0, k, draws):
        for t in range(0, grid.frames, span):
            block = cdf[t:t + span] <= u[d:d + draws, t:t + span, None]
            out[d:d + draws, t:t + span] = block.sum(axis=2)
    return out


def sample_k_hypotheses(grid: PosteriorGrid, k: int, rng: np.random.Generator,
                        temperature: float = 1.0) -> list[PhonemeSequence]:
    """The k sampled paths of sample_paths, each collapsed; duplicates are
    preserved."""
    return _collapse_rows(sample_paths(grid, k, rng, temperature))


def prefix_beam_search(grid: PosteriorGrid, beam_width: int, k: int) -> list[ScoredHypothesis]:
    """Top-k collapsed sequences by (approximate) total probability.

    Prefixes that collapse to the same sequence are merged, carrying separate
    masses for blank-ending and non-blank-ending paths. With a beam covering
    every reachable prefix the scores equal the exact forward scores; pruning
    can only discard mass, never add it. Ties sort by score, then length,
    then lexicographic index order.

    Each frame is a fixed set of array operations on an (n+1) x (V+1)
    candidate matrix: column 0 holds a member's own prefix, column c its
    extension by c, and row n is a dead slot whose masses are all LOG_ZERO.
    The scores are bitwise those of the one-prefix-at-a-time recursion:

    - A prefix is an id, from a trie dict (parent id, label) -> id that only
      the chosen extensions look up. A member finds its parent's row by the
      parent's id (the dead row if it is not a member), adds the parent's
      extension by its last label to its non-blank stay with one
      ``np.logaddexp``, and writes LOG_ZERO back, unmasked. Lineage would
      not do: a dropped prefix can come back while its child is a member.
    - ``np.logaddexp`` is ``log_add`` bit for bit except on (-0.0,
      LOG_ZERO), and no mass is -0.0: each is built from the +0.0 root by
      sums, -0.0 only if both terms are, and by log_adds, which return an
      input or add a log1p >= +0.0.
    - ``np.partition`` finds the ``beam_width``-th largest total, and all
      above it are kept. Prefixes are distinct and the merge commutes, so
      member order never matters: prefix tuples are built only for a tie
      that straddles the cut and for the top k.
    - The next members' state is gathered from the chosen cells' rows, as
      a stay keeps it, and then only the extensions are patched: blank mass
      LOG_ZERO, non-blank mass the cell's total, last label the cell's
      label, parent id the row's id, and a new id from the trie. A gather
      and a patch copy float64 values, so each mass is bitwise the one a
      per-member choice between stay and extension gives, -0.0 included.
      The blank column is read once per call as Python floats, and
      ``total + blank`` is the same float64 sum as with a numpy scalar.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if beam_width < k:
        raise ValueError("beam_width must be >= k")

    cols = grid.logp.shape[1]
    # parent id * cols + label -> id, counting up in insertion order from the
    # root (), id 1; id 0 is no prefix's: the root's parent and the dead slot
    trie = {0: 1}

    def ranks(cells: np.ndarray) -> list[tuple[int, PhonemeSequence]]:
        """(length, prefix) of each cell (row * cols + label) of this frame."""
        keys, out = list(trie), []
        for i, c in zip(pid[cells // cols].tolist(), (cells % cols).tolist()):
            labels = [c] if c else []
            while i > 1:
                i, c = divmod(keys[i - 1], cols)
                labels.append(c)
            out.append((len(labels), tuple(reversed(labels))))
        return out

    # id -> first flat cell of its member's row, or of the dead row (-cols);
    # room for every id a call can make, up to 4096, and grown past that
    row_of = np.full(min(beam_width * grid.frames, 4096) + 2, -cols, dtype=np.intp)
    # per member, then the dead slot: blank-ending and non-blank-ending mass,
    # total, last label (BLANK for the root), prefix id and its parent's id
    pb, pnb, total = np.array([0.0, LOG_ZERO]), np.full(2, LOG_ZERO), np.array([0.0, LOG_ZERO])
    last, pid, ppid = np.zeros(2, np.intp), np.array([1, 0], np.intp), np.zeros(2, np.intp)
    # for the first `rows` rows of a frame: each row's first flat cell, and
    # each cell's row and label; doubled as the beam fills, up to its width
    rows = 0

    for row, blank in zip(grid.logp, grid.logp[:, BLANK].tolist()):
        if pid.size > rows:
            rows = min(2 * pid.size, beam_width + 1)
            row_starts = np.arange(0, rows * cols, cols)
            src_of, label_of = np.divmod(np.arange(rows * cols), cols)
        starts = row_starts[:pid.size]
        flat = (total[:, None] + row).ravel()
        # a repeat reaches the longer prefix only across a blank, so only the
        # blank-ending mass grows it (column 0 is rewritten below)
        row_last = row[last]
        flat[starts + last] = pb + row_last
        # a member stays by a blank, or by repeating its last label
        stay_b = total + blank
        stay_nb = pnb + row_last
        row_of[pid] = starts
        merge = row_of[ppid] + last
        row_of[pid] = -cols
        np.logaddexp(stay_nb, flat[merge], out=stay_nb)
        flat[merge] = LOG_ZERO
        np.logaddexp(stay_b, stay_nb, out=flat[::cols])

        cut = flat.size - beam_width
        thr = np.partition(flat, cut)[cut] if cut > 0 else LOG_ZERO
        keep = flat >= thr if thr > LOG_ZERO else flat > LOG_ZERO
        keep[-cols] = True  # the dead row's column 0: the next dead slot
        chosen = keep.nonzero()[0]
        if chosen.size > beam_width + 1:
            # the shortest, then smallest, of the prefixes tied at thr fill up
            above, tied = chosen[flat[chosen] > thr], chosen[flat[chosen] == thr]
            tied = [f for _, f in sorted(zip(ranks(tied), tied.tolist()))]
            chosen = np.concatenate((above, tied[:beam_width - above.size], chosen[-1:]))
        src, label, total = src_of[chosen], label_of[chosen], flat[chosen]
        pb, pnb, last, pid, ppid = stay_b[src], stay_nb[src], last[src], pid[src], ppid[src]
        ext = label.nonzero()[0]
        if ext.size:
            parents, labels = pid[ext], label[ext]
            pb[ext] = LOG_ZERO
            pnb[ext] = total[ext]
            last[ext] = labels
            ppid[ext] = parents
            if len(trie) + ext.size >= row_of.size:  # room for the new ids
                row_of = np.concatenate((row_of, np.full(len(trie) + ext.size, -cols)))
            pid[ext] = [trie.setdefault(key, len(trie) + 1)
                        for key in (parents * cols + labels).tolist()]

    live = total[:-1]
    top = np.arange(live.size)
    if live.size > k:
        top = (live >= np.partition(live, -k)[-k]).nonzero()[0]
    ranked = sorted(zip((-live[top]).tolist(), ranks(top * cols)))
    return [ScoredHypothesis(sequence=p, log_score=-s) for s, (_, p) in ranked[:k]]


def load_grids(path, renormalize: bool = False) -> list[PosteriorGrid]:
    """Read posterior grids from line-delimited JSON.

    Each line holds ``{"id", "symbols", "logp"}`` where ``symbols`` excludes
    the blank and ``logp`` rows are natural-log posteriors over
    [blank] + symbols. Every cell is a JSON number, or ``null`` for a
    zero-probability cell; any other cell is refused at its line. Ids are unique.
    Grids with the same ``symbols`` share one ``Alphabet``.
    """
    alphabets: dict[tuple[str, ...], Alphabet] = {}  # immutable, so grids share one

    def parse(obj: dict) -> PosteriorGrid:
        utt_id = field(obj, "id", str)
        symbols = tuple(field(obj, "symbols", list, items=str))
        if (alphabet := alphabets.get(symbols)) is None:
            alphabet = alphabets[symbols] = Alphabet(symbols)
        logp = field(obj, "logp", list, items=list)
        if not set(map(type, chain.from_iterable(logp))) <= {float, int, type(None)}:
            raise ValueError("a logp cell is neither a number nor null")
        matrix = np.array(logp, dtype=np.float64)
        # the line reader refuses a NaN literal, so every NaN was a null
        matrix[np.isnan(matrix)] = LOG_ZERO
        if renormalize:
            return PosteriorGrid.renormalized(utt_id, alphabet, matrix)
        return PosteriorGrid(utt_id, alphabet, matrix)

    return list(iter_jsonl(path, parse, unique="grid id"))


def save_grids(grids: Iterable[PosteriorGrid], path) -> None:
    """Write grids as strict JSON lines: JSON has no infinity, so a
    zero-probability cell is written as ``null``. A grid's rows are converted
    and encoded a slice at a time."""
    def rows(grid: PosteriorGrid) -> Iterator[list]:
        for row in grid.logp:
            cells = row.tolist()
            # most rows have no zero cell and skip the per-cell pass
            yield [None if v == LOG_ZERO else v for v in cells] if LOG_ZERO in cells else cells

    def pieces() -> Iterator[str]:
        for grid in grids:
            yield from iter_json({"id": grid.utterance_id,
                                  "symbols": list(grid.alphabet.symbols)}, "logp", rows(grid))
            yield "\n"

    atomic_write(path, pieces())
