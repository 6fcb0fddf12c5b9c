"""Acceptance suite: one test per shipped guarantee, at fixed tolerances.

c01 and c03-c10 (c01 holds the old c02's bound on the forward's sum) and
the sampler check are the oracle checks of ``p2g.selftest``, run here at
full scale (c08 under its own test name, the rest as cases of
one parametrized test); ``p2g selftest`` runs a prefix of the same instance
streams at the same tolerances. Each case prints its result line (visible
with ``pytest -s``). c11 writes files, so it lives only here.
"""

import pytest

from p2g import cli, synth
from p2g.selftest import CHECKS, c08_metric_fixtures


def _assert_check(check):
    result = check(full=True)
    print(f"\n{result.line()}")
    assert result.passed, result.detail


@pytest.mark.parametrize(
    "check", [check for check in CHECKS if check is not c08_metric_fixtures],
    ids=lambda check: check.__name__)
def test_oracle_check(check):
    _assert_check(check)


def test_c08_metric_fixtures_reproduce_published_numbers():
    """Stored per-language rows aggregate to the published macro and
    hours-weighted averages within 0.01."""
    _assert_check(c08_metric_fixtures)


def _run_pipeline(root, corpus_dir):
    """balance -> augment -> train-scorer -> decode -> score -> eval."""
    root.mkdir(exist_ok=True)
    grids = str(corpus_dir / "grids.jsonl")
    refs = str(corpus_dir / "manifest.jsonl")
    steps = [
        ["balance", "--in", refs, "--out", str(root / "balanced.jsonl"),
         "--target-hours", "0.02", "--seed", "17"],
        ["augment", "--grids", grids, "--refs", str(root / "balanced.jsonl"),
         "--out", str(root / "train.txt"), "--n-best", "4"],
        ["train-scorer", "--in", str(root / "train.txt"),
         "--out", str(root / "scorer.json"), "--order", "2", "--alpha", "0.1"],
        ["decode", "--grids", grids, "--scorer", str(root / "scorer.json"),
         "--k", "4", "--s", "2", "--out", str(root / "decoded.jsonl")],
        ["score", "--grids", grids, "--refs", refs,
         "--scorer", str(root / "scorer.json"), "--method", "sskm",
         "--k", "16", "--seed", "17", "--out", str(root / "scores.jsonl")],
        ["eval", "--refs", refs, "--hyps", str(root / "decoded.jsonl"),
         "--out", str(root / "report.json"), "--no-table"],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    return ["balanced.jsonl", "train.txt", "scorer.json", "decoded.jsonl",
            "scores.jsonl", "report.json"]


def test_c11_pipeline_runs_are_byte_identical(tmp_path):
    """Two end-to-end runs with the same seed produce byte-identical files."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    grids, manifest = synth.build_corpus(seed=42, utts_per_lang=4)
    from p2g.ctc import save_grids
    from p2g.data import save_manifest
    save_grids(grids, corpus_dir / "grids.jsonl")
    save_manifest(manifest, corpus_dir / "manifest.jsonl")
    names = _run_pipeline(tmp_path / "run1", corpus_dir)
    _run_pipeline(tmp_path / "run2", corpus_dir)
    for name in names:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    print(f"\nPASS determinism: {len(names)} artifacts byte-identical "
          "across two runs")
