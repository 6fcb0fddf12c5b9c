"""Golden digests: the sha256 of every artifact of one small seeded CLI run.

c11 compares two runs of the same code, so it cannot see an output change
between versions. These digests were recorded before the decode and beam
speedups and must not move: a refactor or an exact optimization keeps every
output byte. A change that alters outputs on purpose records new digests
and says why.

The entries after ``score_sskm.jsonl`` were recorded before the CLI options
moved into one declaration table. They cover the paths that move rewired:
seeded ``sample`` and ``balance``, ``augment --include-clean``, a resampled
two-epoch ``score``, ``decode --no-normalize-weights``, a ``score`` set up
only by ``--config`` with a ``paths`` section, ``eval``'s report, and the
run's stdout (score's epoch lines and eval's table).
"""

from __future__ import annotations

import hashlib
import json

from p2g import cli, synth
from p2g.ctc import save_grids
from p2g.data import save_manifest

GOLDEN = {
    "grids.jsonl":
        "6a3cc09df52fab76015c3694d813711a2a24ec4eeb93412681f0b418e9342b8d",
    "manifest.jsonl":
        "6d63e9e4d56a0fdc387363900cce643df9c46c72cde0f5c0f01fbd023c64bfe5",
    "beam.jsonl":
        "78728adaca3dd88292a5498b8c23d9cffb3388a7c07c7838d9f95928019a7073",
    "train.txt":
        "7f4895878a6e1fb482aea5009f7c4b16c4ddff1781f4a08373e386fd358a7660",
    "scorer.json":
        "df25fcd647dbb66c8eb934751fac59645e8ae0f0602fc7a5fcfb92911641b373",
    "decoded.jsonl":
        "421cf3a9a9bef2d45989e4946b87a8aa6d8094171e04962e63a25fc71cde5067",
    "decoded_short.jsonl":
        "07ddf092d52f466d526ead89c33b92d8e74069d1d1a452d1289773f26150c720",
    "score_tkm.jsonl":
        "377bc1f639df1fe10c4208eb30b4becd16f0ff4cf50cfa7ca857338733dd0213",
    "score_skm.jsonl":
        "f5fa709c2c00c7876b446d3537833e9ba074f6882f62fd19a0d7daf3c16f2f5c",
    "score_sskm.jsonl":
        "7aa77ca8da00055952f71184e919160417d960febf6cad8a58328f2423fe3761",
    "sample.jsonl":
        "bb34307af27d70cc4cc92f35b2598aed9a1de18cba754914f0f4500a1237f8e1",
    "balanced.jsonl":
        "2a59d9b5ee0e966e8240a6b02415296e420f23a8753f93f99ccc6ad6a036dd2b",
    "train_clean.txt":
        "d78bf73d0e63009620ea38772c23ea69e840d5b64abed03d1f907004b67f33e4",
    "score_resample.jsonl":
        "826072eee82a5917627e340e6922e2da612b8a11a54e2258cafb9fe0de6f4dc5",
    "decoded_unnorm.jsonl":
        "cd8565bd512a4bd0ba151be00beb4cea75f7fc2a555403dbd07e3eaf84e8a692",
    "score_config.jsonl":
        "1304bdbd24b620839b9e89abc8ab8b0fc812a2cd314f78b4cf3bcc7c48a5bae2",
    "report.json":
        "4e48df061cdedec118bfa744da4ca65077ad42f71343395fdd01be3f3e9b1959",
    "stdout.txt":
        "b311dd214c3322fdb0c8b607fedb791414251ea6fa7873bfb7b868adb6e7f1e4",
}


def _run(root) -> None:
    grids, manifest = synth.build_corpus(seed=42, utts_per_lang=4)
    save_grids(grids, root / "grids.jsonl")
    save_manifest(manifest, root / "manifest.jsonl")
    g, refs, model = (str(root / n) for n in ("grids.jsonl", "manifest.jsonl",
                                              "scorer.json"))
    # every option and path of this run comes from the config file
    config = root / "score_config.json"
    config.write_text(json.dumps({
        "method": "skm", "k": 4, "seed": 9, "beam_width": 8,
        "normalize_weights": True,
        "paths": {"grids": g, "refs": refs, "scorer": model,
                  "out": str(root / "score_config.jsonl")},
    }), encoding="utf-8")
    steps = [
        ["beam", "--in", g, "--k", "4", "--beam-width", "8",
         "--out", str(root / "beam.jsonl")],
        ["augment", "--grids", g, "--refs", refs, "--n-best", "4",
         "--out", str(root / "train.txt")],
        ["train-scorer", "--in", str(root / "train.txt"), "--order", "2",
         "--out", model],
        ["decode", "--grids", g, "--scorer", model, "--k", "4", "--s", "2",
         "--out", str(root / "decoded.jsonl")],
        # a short max_len forces completions at the length cap
        ["decode", "--grids", g, "--scorer", model, "--k", "2", "--s", "6",
         "--max-len", "3", "--out", str(root / "decoded_short.jsonl")],
    ]
    for method in ("tkm", "skm", "sskm"):
        steps.append(["score", "--grids", g, "--refs", refs, "--scorer", model,
                      "--method", method, "--k", "8", "--seed", "5",
                      "--out", str(root / f"score_{method}.jsonl")])
    steps += [
        ["sample", "--in", g, "--k", "3", "--seed", "11",
         "--out", str(root / "sample.jsonl")],
        ["balance", "--in", refs, "--target-hours", "0.02", "--seed", "5",
         "--out", str(root / "balanced.jsonl")],
        ["augment", "--grids", g, "--refs", refs, "--n-best", "2",
         "--include-clean", "--out", str(root / "train_clean.txt")],
        ["score", "--grids", g, "--refs", refs, "--scorer", model,
         "--method", "sskm", "--k", "8", "--seed", "3", "--epochs", "2",
         "--resample", "--out", str(root / "score_resample.jsonl")],
        ["decode", "--grids", g, "--scorer", model, "--k", "4", "--s", "2",
         "--no-normalize-weights", "--out", str(root / "decoded_unnorm.jsonl")],
        ["score", "--config", str(config)],
        ["eval", "--refs", refs, "--hyps", str(root / "decoded.jsonl"),
         "--out", str(root / "report.json")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv


def test_artifact_digests_are_pinned(tmp_path, capsys):
    _run(tmp_path)
    # score's per-epoch lines and eval's table, in run order
    (tmp_path / "stdout.txt").write_text(capsys.readouterr().out, encoding="utf-8")
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN}
    for name, want in GOLDEN.items():
        assert got[name] == want, f"{name} changed: sha256 {got[name]}"
