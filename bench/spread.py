#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload decode --seeds 1-10 [--trace 0] [--out FILE]

Runs ``bench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``. For every metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), and the distance
between the quartiles as a share of the median, next to the bound of each
metric that ``BENCHMARK.json`` declares.
``--out`` also writes the per-seed values and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        # every measured value is printed above the result as "name value unit"
        printed = {}
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 3 and not line.startswith("#"):
                printed[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
        runs.append({"seed": seed, **result, "printed": printed})
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)

    summary = {}
    for name in runs[0]["printed"]:
        values = [r["printed"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}" + (
            "  OVER A THIRD" if spread > bound / 3 else "")
        print(f"{name:48s} median {median:14.6g}  spread {spread:8.4f}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                              "summary": summary}, indent=2) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
