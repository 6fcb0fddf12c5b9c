import math

import numpy as np
import pytest

from p2g import oracles
from p2g.ctc import ScoredHypothesis, forward_logprob, prefix_beam_search, sample_k_hypotheses
from p2g.logmath import LOG_ZERO, log_sum
from p2g.marginal import (
    batch_objective,
    skm_log_marginal,
    sskm_log_marginal,
    tkm_log_marginal,
)
from p2g.scorer import TargetText
from p2g.seeding import derive_rng
from p2g.selftest import HashScorer

from conftest import make_grid

Y = TargetText("xx", "abc")


def full_hypothesis_list(grid):
    dist = oracles.sequence_distribution(grid)
    return [ScoredHypothesis(seq, forward_logprob(grid, [seq])[0]) for seq in sorted(dist)]


# ---- tkm ----------------------------------------------------------------


def test_tkm_empty_list_raises(tiny_alphabet):
    with pytest.raises(ValueError):
        tkm_log_marginal([], Y, HashScorer(), tiny_alphabet)


def test_tkm_exact_with_full_coverage():
    rng = np.random.default_rng(21)
    scorer = HashScorer("tkm")
    for trial in range(10):
        g = make_grid(rng, f"u{trial}", frames=int(rng.integers(1, 5)))
        est = tkm_log_marginal(full_hypothesis_list(g), Y, scorer, g.alphabet)
        want = math.log(oracles.exact_marginal(g, Y, scorer))
        assert est == pytest.approx(want, abs=1e-9)


def test_tkm_normalization_shifts_by_constant():
    rng = np.random.default_rng(4)
    g = make_grid(rng, frames=3)
    hyps = prefix_beam_search(g, 16, 3)
    scorer = HashScorer("norm")
    plain = tkm_log_marginal(hyps, Y, scorer, g.alphabet)
    normed = tkm_log_marginal(hyps, Y, scorer, g.alphabet, normalize_weights=True)
    shift = log_sum([h.log_score for h in hyps])
    assert normed == pytest.approx(plain - shift, abs=1e-12)


# ---- skm ----------------------------------------------------------------


def test_skm_rejects_bad_k():
    g = make_grid(np.random.default_rng(0))
    with pytest.raises(ValueError):
        skm_log_marginal(g, Y, HashScorer(), 0, np.random.default_rng(0))


@pytest.mark.parametrize("estimator", [skm_log_marginal, sskm_log_marginal])
def test_k_below_one_is_refused_before_any_draw(estimator):
    """``sample_paths`` refuses k = 0 for both sampling estimators before it
    draws, so the generator is left as it was."""
    g, rng = make_grid(np.random.default_rng(0)), np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^k must be >= 1$"):
        estimator(g, Y, HashScorer(), 0, rng)
    assert rng.bit_generator.state == state


def test_skm_exact_under_full_coverage():
    """Once sampling hits every reachable sequence, dedup + forward weights
    reproduce the exact marginal."""
    rng = np.random.default_rng(8)
    scorer = HashScorer("skm")
    g = make_grid(rng, frames=3, min_prob=0.15)
    dist = oracles.sequence_distribution(g)
    draw = derive_rng(0, "skm-cov")
    seqs = set(sample_k_hypotheses(g, 30_000, draw))
    assert seqs == set(dist)  # coverage precondition, not the assertion
    est = skm_log_marginal(g, Y, scorer, 30_000, derive_rng(0, "skm-cov"))
    want = math.log(oracles.exact_marginal(g, Y, scorer))
    assert est == pytest.approx(want, abs=1e-9)


def test_skm_deterministic_given_stream():
    g = make_grid(np.random.default_rng(2))
    a = skm_log_marginal(g, Y, HashScorer(), 64, derive_rng(5, g.utterance_id))
    b = skm_log_marginal(g, Y, HashScorer(), 64, derive_rng(5, g.utterance_id))
    assert a == b


# ---- sskm ---------------------------------------------------------------


def test_sskm_equals_naive_average():
    """The tallied implementation must match the plain definition
    logsumexp(score per raw draw) - log k."""
    g = make_grid(np.random.default_rng(3), frames=3)
    scorer = HashScorer("naive")
    k = 500
    est = sskm_log_marginal(g, Y, scorer, k, derive_rng(1, g.utterance_id))
    seqs = sample_k_hypotheses(g, k, derive_rng(1, g.utterance_id))
    naive = log_sum([scorer.log_score(Y, g.alphabet.to_symbols(h)) for h in seqs])
    naive -= math.log(k)
    assert est == pytest.approx(naive, abs=1e-12)


def test_sskm_unbiased_quick():
    g = make_grid(np.random.default_rng(6), frames=3)
    scorer = HashScorer("bias")
    exact = oracles.exact_marginal(g, Y, scorer)
    vals = [math.exp(sskm_log_marginal(g, Y, scorer, 16,
                                       derive_rng(run, "bias")))
            for run in range(300)]
    mean = sum(vals) / len(vals)
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(mean - exact) <= 3 * se


def test_sskm_converges_with_k():
    g = make_grid(np.random.default_rng(12), frames=3, min_prob=0.1)
    scorer = HashScorer("conv")
    exact = math.log(oracles.exact_marginal(g, Y, scorer))
    small = sskm_log_marginal(g, Y, scorer, 50, derive_rng(0, "c"))
    large = sskm_log_marginal(g, Y, scorer, 50_000, derive_rng(0, "c"))
    assert abs(large - exact) < max(abs(small - exact), 5e-3)


# ---- batch objective ----------------------------------------------------


def _records(n, seed):
    rng = np.random.default_rng(seed)
    return [(make_grid(rng, f"r{i}", frames=3), Y) for i in range(n)]


def test_batch_objective_order_and_composition_invariance():
    scorer = HashScorer("batch")
    records = _records(4, 31)
    full = batch_objective(records, scorer, "sskm", 32, seed=9, beam_width=128)
    singles = [batch_objective([r], scorer, "sskm", 32, seed=9, beam_width=128)
               for r in records]
    for (utt, nll), single in zip(full.per_record, singles):
        assert (utt, nll) == single.per_record[0]
    swapped = batch_objective(records[::-1], scorer, "sskm", 32, seed=9,
                              beam_width=128)
    assert dict(swapped.per_record) == dict(full.per_record)


def test_batch_objective_mean():
    scorer = HashScorer("mean")
    records = _records(3, 32)
    out = batch_objective(records, scorer, "tkm", 4, seed=0, beam_width=16)
    assert out.mean_nll == pytest.approx(
        sum(v for _, v in out.per_record) / 3, abs=1e-12)


def test_batch_objective_method_routing():
    scorer = HashScorer("route")
    records = _records(2, 33)
    tkm = batch_objective(records, scorer, "tkm", 4, seed=1, beam_width=16)
    skm = batch_objective(records, scorer, "skm", 4, seed=1, beam_width=16)
    sskm = batch_objective(records, scorer, "sskm", 4, seed=1, beam_width=16)
    assert len({tkm.mean_nll, skm.mean_nll, sskm.mean_nll}) >= 2


def test_batch_objective_rejects_empty():
    with pytest.raises(ValueError):
        batch_objective([], HashScorer(), "tkm", 4, seed=0, beam_width=16)


def test_batch_objective_rejects_an_unknown_method():
    with pytest.raises(ValueError, match=r"^unknown method 'x'$"):
        batch_objective(_records(1, 34), HashScorer(), "x", 4, seed=0, beam_width=16)


def test_derive_rng_refuses_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be non-negative$"):
        derive_rng(-1, "u")


@pytest.mark.parametrize("values", [[], [LOG_ZERO], [LOG_ZERO, LOG_ZERO]],
                         ids=["empty", "one-zero", "two-zeros"])
def test_log_sum_of_no_mass_is_log_zero(values):
    assert log_sum(values) == LOG_ZERO
