"""Phoneme-to-grapheme conversion over CTC posterior grids.

The pieces compose in pipeline order: :mod:`p2g.ctc` turns per-frame
posteriors into phoneme hypotheses (beam search or sampling), :mod:`p2g.marginal`
estimates text likelihoods marginalized over those hypotheses,
:mod:`p2g.scorer` is the conditional text model, :mod:`p2g.decode` picks the
output text, :mod:`p2g.data` handles manifests and training lines, and
:mod:`p2g.metrics` evaluates the result. :mod:`p2g.oracles` holds brute-force
reference implementations used by the test suite and ``p2g selftest``.
"""

from .ctc import (
    BLANK,
    Alphabet,
    PosteriorGrid,
    ScoredHypothesis,
    collapse,
    forward_logprob,
    load_grids,
    prefix_beam_search,
    sample_k_hypotheses,
    sample_paths,
    save_grids,
)
from .data import (
    CorpusManifest,
    UtteranceRecord,
    generate_danp,
    load_manifest,
    load_training_lines,
    manifest_stats,
    oversample_manifest,
    parse_training_line,
    save_manifest,
    save_training_lines,
    serialize_training_line,
)
# the decode function stays at p2g.decode.decode, so p2g.decode is the module
from .decode import DecodeResult, load_hypotheses, pool_and_rescore, save_decode_results
from .ioutil import FormatError
from .marginal import (
    BatchObjective,
    MarginalEstimate,
    Method,
    batch_objective,
    skm_log_marginal,
    sskm_log_marginal,
    tkm_log_marginal,
)
from .metrics import EvalReport, aggregate, edit_distance, error_rate, evaluate, lid_accuracy
from .scorer import NGramScorer, TargetText, lid_token, load_scorer, save_scorer, train_scorer
from .seeding import derive_rng

__version__ = "0.1.0"

__all__ = [
    "BLANK",
    "Alphabet",
    "BatchObjective",
    "CorpusManifest",
    "DecodeResult",
    "EvalReport",
    "FormatError",
    "MarginalEstimate",
    "Method",
    "NGramScorer",
    "PosteriorGrid",
    "ScoredHypothesis",
    "TargetText",
    "UtteranceRecord",
    "aggregate",
    "batch_objective",
    "collapse",
    "derive_rng",
    "edit_distance",
    "error_rate",
    "evaluate",
    "forward_logprob",
    "generate_danp",
    "lid_accuracy",
    "lid_token",
    "load_grids",
    "load_hypotheses",
    "load_manifest",
    "load_scorer",
    "load_training_lines",
    "manifest_stats",
    "oversample_manifest",
    "parse_training_line",
    "pool_and_rescore",
    "prefix_beam_search",
    "sample_k_hypotheses",
    "sample_paths",
    "save_decode_results",
    "save_grids",
    "save_manifest",
    "save_scorer",
    "save_training_lines",
    "serialize_training_line",
    "skm_log_marginal",
    "sskm_log_marginal",
    "tkm_log_marginal",
    "train_scorer",
    "__version__",
]
