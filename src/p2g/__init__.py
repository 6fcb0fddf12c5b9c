"""Phoneme-to-grapheme conversion over CTC posterior grids.

The pieces compose in pipeline order: :mod:`p2g.ctc` turns per-frame
posteriors into phoneme hypotheses (beam search or sampling), :mod:`p2g.marginal`
estimates text likelihoods marginalized over those hypotheses,
:mod:`p2g.scorer` is the conditional text model, :mod:`p2g.decode` picks the
output text, :mod:`p2g.data` handles manifests and training lines, and
:mod:`p2g.metrics` evaluates the result. :mod:`p2g.oracles` holds brute-force
reference implementations used by the test suite and ``p2g selftest``.
"""

__version__ = "0.1.0"
