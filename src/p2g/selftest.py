"""Oracle check registry: each shipped guarantee, defined once.

Each check compares a production code path against an independent reference
(exhaustive enumeration, closed-form fixtures, or statistical bounds). It runs
one seeded instance stream at one of two scales: ``full=True`` is the scale the
acceptance suite (``tests/test_acceptance.py``) runs, ``full=False`` a prefix
of the same stream that ``p2g selftest`` runs in a few seconds. Tolerances do
not depend on the scale. Checks reach production code through module
attributes (``ctc.forward_logprob``, ...), so a test that patches one of them
reaches every check that uses it.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import ctc, data, decode, marginal, metrics, oracles, synth
from .data import CorpusManifest, UtteranceRecord
from .scorer import TargetText, train_scorer
from .seeding import derive_rng

log = logging.getLogger(__name__)

# ten-language evaluation fixtures with known aggregate values
FIXTURE_HOURS = {"en": 2227.3, "es": 382.3, "fr": 823.4, "it": 271.5, "ky": 32.7,
                 "nl": 70.2, "ru": 149.8, "sv": 29.8, "tr": 61.5, "tt": 20.8}
FIXTURE_WER_ROW_A = {"en": 8.26, "es": 5.84, "fr": 10.44, "it": 6.84, "ky": 10.07,
                     "nl": 6.05, "ru": 5.98, "sv": 17.94, "tr": 10.92, "tt": 23.25}
FIXTURE_WER_ROW_B = {"en": 8.22, "es": 6.12, "fr": 10.62, "it": 7.17, "ky": 2.82,
                     "nl": 5.48, "ru": 3.90, "sv": 10.59, "tr": 7.33, "tt": 14.34}
FIXTURE_PER_ROW = {"en": 5.42, "es": 1.96, "fr": 3.52, "it": 2.25, "ky": 4.06,
                   "nl": 2.64, "ru": 2.97, "sv": 11.33, "tr": 4.04, "tt": 5.97}
FIXTURE_LID_ROW = {"en": 99.72, "es": 99.54, "fr": 99.80, "it": 99.05, "ky": 99.01,
                   "nl": 99.73, "ru": 99.44, "sv": 97.91, "tr": 98.88, "tt": 95.63}
FIXTURE_AGGREGATES = {
    "wer_a": (10.56, 8.46),
    "wer_b": (7.66, 8.22),
    "per": (4.41, 4.37),
    "lid": (98.87, 99.61),
}
LOW_RESOURCE = ("ky", "nl", "ru", "sv", "tr", "tt")
TARGET_HOURS = 240.0

AB = ("a", "b")
Y = TargetText(lid="xx", graphemes="ab")


class HashScorer:
    """Deterministic stand-in conditional model.

    Scores depend on (y, phonemes) through a hash, so they look arbitrary but
    reproduce exactly. Not normalized; fine for estimator algebra, and for any
    test that needs *some* scorer but must not depend on n-gram behaviour.
    """

    def __init__(self, salt: str = ""):
        self.salt = salt

    def log_score(self, y: TargetText, phonemes: Sequence[str]) -> float:
        key = f"{self.salt}\x1f{y.lid}\x1f{y.graphemes}\x1f" + "\x1f".join(phonemes)
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        u = int.from_bytes(digest[:8], "little") / 2.0**64
        return -3.0 * u - 0.05


@dataclass
class CheckResult:
    name: str
    tolerance: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name} ({self.tolerance}; {self.detail})"


def _oracle_grids(seed: int, count: int, max_frames: int, max_symbols: int):
    """Grids with V in [1, max_symbols] drawn before T in [1, max_frames]."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        v = int(rng.integers(1, max_symbols + 1))
        frames = int(rng.integers(1, max_frames + 1))
        yield synth.random_grid(rng, f"g{i}", frames=frames,
                                symbols=tuple(f"p{j}" for j in range(1, v + 1)))


def c01_forward_oracle(full: bool) -> CheckResult:
    start = time.monotonic()
    count = 100 if full else 10
    worst = 0.0
    for grid in _oracle_grids(101, count, 6, 3):
        dist = oracles.sequence_distribution(grid)
        for p, lp in zip(dist.values(), ctc.forward_logprob(grid, list(dist))):
            worst = max(worst, abs(lp - math.log(p)))
    elapsed = time.monotonic() - start
    return CheckResult("c01 forward vs path enumeration", "|dlog| <= 1e-10, under 10 s",
                       worst <= 1e-10 and elapsed < 10.0,
                       f"max |dlog| = {worst:.3g} over {count} grids in {elapsed:.1f}s")


def c02_partition(full: bool) -> CheckResult:
    count = 100 if full else 10
    worst = 0.0
    for grid in _oracle_grids(101, count, 6, 3):
        seqs = list(oracles.sequence_distribution(grid))
        total = sum(map(math.exp, ctc.forward_logprob(grid, seqs)))
        worst = max(worst, abs(total - 1.0))
    return CheckResult("c02 forward partition", "|sum - 1| <= 1e-8",
                       worst <= 1e-8, f"max |sum - 1| = {worst:.3g} over {count} grids")


def c03_sskm_unbiased(full: bool) -> CheckResult:
    start = time.monotonic()
    runs = 1000 if full else 200
    grid = synth.random_grid(np.random.default_rng(303), "bias", frames=3, symbols=AB)
    scorer = HashScorer("unbiased")
    exact = oracles.exact_marginal(grid, Y, scorer)
    values = np.array([
        math.exp(marginal.sskm_log_marginal(
            grid, Y, scorer, 16, derive_rng(run, "unbiased")))
        for run in range(runs)])
    se = values.std(ddof=1) / math.sqrt(runs)
    z = abs(values.mean() - exact) / se
    elapsed = time.monotonic() - start
    return CheckResult("c03 equal-weight sampled marginal is unbiased",
                       "mean within 3 SE at k=16, under 30 s",
                       z <= 3.0 and elapsed < 30.0,
                       f"|z| = {z:.2f} over {runs} runs in {elapsed:.1f}s")


def c04_tkm_exact(full: bool) -> CheckResult:
    rng = np.random.default_rng(404)
    scorer = HashScorer("tkm")
    count = 50 if full else 10
    worst = 0.0
    for i in range(count):
        grid = synth.random_grid(rng, f"t{i}", frames=int(rng.integers(1, 5)), symbols=AB)
        seqs = sorted(oracles.sequence_distribution(grid))
        hyps = list(map(ctc.ScoredHypothesis, seqs, ctc.forward_logprob(grid, seqs)))
        est = marginal.tkm_log_marginal(hyps, Y, scorer, grid.alphabet)
        exact = math.log(oracles.exact_marginal(grid, Y, scorer))
        worst = max(worst, abs(est - exact))
    return CheckResult("c04 full-list weighted marginal", "|dlog| <= 1e-9",
                       worst <= 1e-9, f"max |dlog| = {worst:.3g} over {count} instances")


def c05_skm_sskm_agree(full: bool) -> CheckResult:
    scorer = HashScorer("agree")
    rng = np.random.default_rng(505)
    count = 3 if full else 1
    covered = True
    worst_skm = worst_rel = 0.0
    for i in range(count):
        grid = synth.random_grid(rng, f"a{i}", frames=4, symbols=AB, min_prob=0.12)
        exact = math.log(oracles.exact_marginal(grid, Y, scorer))
        draws = set(ctc.sample_k_hypotheses(grid, 60_000, derive_rng(i, "cov")))
        covered = covered and draws == set(oracles.sequence_distribution(grid))
        skm = marginal.skm_log_marginal(grid, Y, scorer, 60_000, derive_rng(i, "cov"))
        worst_skm = max(worst_skm, abs(skm - exact))
        sskm = marginal.sskm_log_marginal(grid, Y, scorer, 100_000, derive_rng(i, "mc"))
        worst_rel = max(worst_rel, abs(math.exp(sskm - exact) - 1.0))
    return CheckResult("c05 sampled marginals vs exact",
                       "60k draws cover every sequence, skm |dlog| <= 1e-9, "
                       "sskm at k=1e5 within 1%",
                       covered and worst_skm <= 1e-9 and worst_rel <= 0.01,
                       f"{'covered' if covered else 'not covered'}, skm |dlog| = "
                       f"{worst_skm:.3g}, sskm rel {worst_rel:.2%} over {count} instances")


def c06_beam_oracle(full: bool) -> CheckResult:
    count = 60 if full else 10
    mismatches = 0
    worst = 0.0
    for grid in _oracle_grids(606, count, 5, 2):
        k = len(oracles.sequence_distribution(grid))
        want = oracles.top_sequences(grid, k)
        for width in (k, 4 * k + 16):
            got = ctc.prefix_beam_search(grid, width, k)
            mismatches += [h.sequence for h in got] != [seq for seq, _ in want]
            worst = max(worst, max(abs(h.log_score - lp) for h, (_, lp) in zip(got, want)))
    return CheckResult("c06 prefix beam vs enumeration",
                       "sequences exact, |dlog| <= 1e-10, at widths k and 4k+16",
                       mismatches == 0 and worst <= 1e-10,
                       f"{mismatches} sequence mismatches, max |dlog| = {worst:.3g} "
                       f"over {count} grids")


def c07_decode_argmax(full: bool) -> CheckResult:
    pairs = [
        (("a", "b"), TargetText("xx", "xy")),
        (("a",), TargetText("xx", "x")),
        (("b", "a"), TargetText("yy", "yz")),
        (("b",), TargetText("yy", "z")),
        (("a", "a"), TargetText("xx", "xx")),
    ]
    scorer = train_scorer(pairs, order=2, smoothing_alpha=0.3, context_window=1)
    rng = np.random.default_rng(707)
    count = 50 if full else 10
    mismatches = 0
    for i in range(count):
        grid = synth.random_grid(rng, f"d{i}", frames=int(rng.integers(1, 4)), symbols=AB)
        n = len(oracles.sequence_distribution(grid))
        # k, s and the text space fully covered
        got = decode.decode(grid, scorer, k=n, s=10_000, beam_width=4 * n + 16,
                            max_len=2)
        want, _ = oracles.exact_decode(grid, scorer, scorer.languages, scorer.units,
                                       max_len=2)
        mismatches += got.best != want
    return CheckResult("c07 decode vs brute-force argmax",
                       "same text, ties to the smaller (lid, text)",
                       mismatches == 0, f"{mismatches} mismatches over {count} instances")


def c08_metric_fixtures(full: bool) -> CheckResult:
    rows = {"wer_a": FIXTURE_WER_ROW_A, "wer_b": FIXTURE_WER_ROW_B,
            "per": FIXTURE_PER_ROW, "lid": FIXTURE_LID_ROW}
    worst = 0.0
    for key, row in rows.items():
        macro, weighted = metrics.aggregate(row, FIXTURE_HOURS)
        want_macro, want_weighted = FIXTURE_AGGREGATES[key]
        worst = max(worst, abs(macro - want_macro), abs(weighted - want_weighted))
    return CheckResult("c08 aggregate metric fixtures", "each within 0.01",
                       worst <= 0.01, f"max |d| = {worst:.4f} across {len(rows)} rows")


def c09_oversampling(full: bool) -> CheckResult:
    # 20 equal records per language, summing to the fixture hours
    records = []
    for lang, hours in sorted(FIXTURE_HOURS.items()):
        for i in range(20):
            records.append(UtteranceRecord(f"{lang}-{i:03d}", lang, hours * 3600.0 / 20,
                                           ("p",), TargetText(lang, "t")))
    manifest = CorpusManifest(records=tuple(records))
    out = data.oversample_manifest(manifest, TARGET_HOURS, derive_rng(909, "balance"))
    stats = data.manifest_stats(out)
    off = []
    for lang in LOW_RESOURCE:
        max_dur = max(r.dur_sec for r in manifest.records if r.lang == lang) / 3600.0
        if not TARGET_HOURS <= stats[lang].hours < TARGET_HOURS + max_dur:
            off.append(lang)
    for lang in sorted(set(FIXTURE_HOURS) - set(LOW_RESOURCE)):
        before = [r for r in manifest.records if r.lang == lang]
        after = [r for r in out.records if r.lang == lang]
        want = FIXTURE_HOURS[lang]
        if (before != after or stats[lang].repetition_factor != 1.0
                or abs(stats[lang].hours - want) > max(1e-6 * want, 1e-12)):
            off.append(lang)
    factor = stats["ky"].repetition_factor
    want = TARGET_HOURS / FIXTURE_HOURS["ky"]
    return CheckResult("c09 oversampling envelope",
                       "low-resource hours in [target, target + max utterance), "
                       "high-resource rows byte-identical, ky repetition within 5%",
                       not off and abs(factor - want) <= 0.05 * want,
                       f"languages off: {off or 'none'}; ky factor {factor:.3f} vs {want:.3f}")


def c10_round_trip(full: bool) -> CheckResult:
    name = "c10 training-line round-trip"
    rnd = random.Random(1010)
    ipa = [chr(c) for c in range(0x0250, 0x02B0)]          # IPA extensions
    ipa += ["tʃ", "dʒ", "eː", "ɔ̃"]                          # multi-char tokens
    scripts = [
        "abcdefgh",                                         # latin
        "абвгдежз",                                         # cyrillic
        "ÀàÂâÉéÊê",                                         # latin + diacritics
        "أبتثجحخد",                                          # arabic
        "あいうえおかきく",                                  # hiragana
        "가나다라마바사아",                                  # hangul
        "अआइईउऊऋए",                                        # devanagari
        "一二三四五六七八",                                  # cjk
        "|<>:",                                             # line separators
    ]
    lids = ["ky", "nl", "sv", "tt", "ru", "tr", "pt-br", "zh"]
    count = 10_000 if full else 1000
    for _ in range(count):
        phonemes = tuple("".join(rnd.choices(ipa, k=rnd.randint(1, 3)))
                         for _ in range(rnd.randint(0, 6)))
        pool = rnd.choice(scripts) + " "
        graphemes = "".join(rnd.choices(pool, k=rnd.randint(0, 14)))
        text = TargetText(rnd.choice(lids), graphemes)
        line = data.serialize_training_line(phonemes, text)
        if data.parse_training_line(line) != (phonemes, text):
            return CheckResult(name, "exact inverse", False,
                               f"mismatch on {phonemes!r} / {text!r}")
    return CheckResult(name, "exact inverse", True, f"{count} randomized pairs")


def sampler_frequencies(full: bool) -> CheckResult:
    grid = synth.random_grid(np.random.default_rng(104), "g0", max_frames=4,
                             max_symbols=2)
    draws = 50_000
    counts = Counter(ctc.sample_k_hypotheses(grid, draws,
                                             derive_rng(424242, grid.utterance_id)))
    worst = 0.0
    for seq, p in oracles.sequence_distribution(grid).items():
        se = math.sqrt(max(p * (1 - p), 1e-12) / draws)
        worst = max(worst, abs(counts[seq] / draws - p) / (3 * se))
    return CheckResult("path sampler vs forward frequencies",
                       "every sequence within 3 SE at 50k draws",
                       worst <= 1.0, f"max |z|/3 = {worst:.3f}")


CHECKS: tuple[Callable[[bool], CheckResult], ...] = (
    c01_forward_oracle,
    c02_partition,
    c03_sskm_unbiased,
    c04_tkm_exact,
    c05_skm_sskm_agree,
    c06_beam_oracle,
    c07_decode_argmax,
    c08_metric_fixtures,
    c09_oversampling,
    c10_round_trip,
    sampler_frequencies,
)


def run_selftest() -> bool:
    """Run every check at quick scale, one PASS/FAIL line each. A check that
    raises fails with the exception's type and message, and the rest still
    run."""
    ok = True
    for check in CHECKS:
        try:
            result = check(full=False)
        except Exception as exc:
            # one broken check must not hide the others; P2G_LOG=DEBUG
            # shows the traceback
            log.debug("%s raised", check.__name__, exc_info=True)
            result = CheckResult(check.__name__, "no exception", False,
                                 f"{type(exc).__name__}: {exc}")
        ok = ok and result.passed
        print(result.line())
    return ok
