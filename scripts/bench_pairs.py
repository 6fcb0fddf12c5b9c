#!/usr/bin/env python3
"""Time a change against its parent with alternating benchmark runs.

    mkdir -p /tmp/pairs && git archive PARENT_REV --prefix=parent/ | tar -x -C /tmp/pairs
    python3 scripts/bench_pairs.py --parent /tmp/pairs/parent --change . \\
        --workloads train-score decode large-grid --seeds 1 7 --out /tmp/pairs/result.json

Each of ``--pairs`` pairs (10 by default) runs ``bench/run.py --workload W
--seed S --trace 0``, with the ``run_seconds`` of ``BENCHMARK.json``, once in
each checkout, each run a fresh process and one run at a time; the side that
runs first alternates from pair to pair, so a slow spell of a shared machine
falls on both sides. For every workload and seed the output
(``workloads[W]["seed_S"]``) holds:

- for each end-to-end metric that ``BENCHMARK.json`` declares: every run,
  the median and the inclusive quartiles of each side, the spread q3 - q1,
  the change/parent ratio of the medians, and the pairs the change wins
- the same medians and quartiles for every per-stage time (``*_s``)
- the failed and attempted counts of every run
- whether every run of both sides wrote the same artifact digests, the
  digests themselves, and the baseline digest notes ``bench/run.py`` printed

and ``code.src_lines`` of each checkout, counted as ``bench/run.py`` counts
it. The exit status is 1 when a run fails or the digests differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _src_lines(checkout: Path) -> int:
    return sum(p.read_text(encoding="utf-8").count("\n")
               for p in sorted((checkout / "src" / "p2g").glob("*.py")))


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its printed values, digests, notes and result,
    parsed as ``bench/spread.py`` parses them."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)}: exit {proc.returncode}\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    run = {"result": json.loads(lines[-1]), "values": {}, "digests": {}, "notes": []}
    # every measured value is printed above the result as "name value unit"
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            run["values"][parts[0]] = float(parts[1])
        elif line.startswith("# sha256 ") and len(parts) == 4:
            run["digests"][parts[3]] = parts[2]
        elif line.startswith("# ") and "baseline" in line:
            run["notes"].append(line[2:])
    return run


def _side(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4), "spread": round(q3 - q1, 4),
            "runs": [round(v, 4) for v in values]}


def _compare(runs: dict[str, list[dict]], name: str, better: str | None) -> dict:
    per_side = {side: [r["values"][name] for r in runs[side]] for side in SIDES}
    row: dict = {"better": better} if better else {}
    row.update({side: _side(values) for side, values in per_side.items()})
    parent = row["parent"]["median"]
    row["ratio"] = round(row["change"]["median"] / parent, 4) if parent else None
    if better:
        higher = better == "higher"
        wins = sum((c > p) if higher else (c < p) for p, c in zip(*per_side.values()))
        row["change_wins"] = f"{wins}/{len(per_side['parent'])}"
    return row


def _workload(args, workload: str, seed: int, spec: dict) -> dict:
    end_to_end = spec["end_to_end"]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    checkouts = {"parent": args.parent, "change": args.change}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run = _run(checkouts[side], workload, seed, spec["run_seconds"])
            runs[side].append(run)
            print(f"{workload} seed {seed} pair {i + 1} {side}: " + " ".join(
                f"{m['name']}={run['values'][m['name']]:.6g}" for m in end_to_end)
                + f" failed={run['result']['failed']}", file=sys.stderr, flush=True)
    declared = {m["name"] for m in end_to_end}
    stages = sorted(name for name in runs["parent"][0]["values"]
                    if name.endswith("_s") and not name.startswith("wall_")
                    and name not in declared)
    digests = [run["digests"] for side in SIDES for run in runs[side]]
    return {
        "pairs": args.pairs,
        **{m["name"]: _compare(runs, m["name"], m["better"]) for m in end_to_end},
        "stages": {name: _compare(runs, name, None) for name in stages},
        **{key: {side: [r["result"][key] for r in runs[side]] for side in SIDES}
           for key in ("failed", "attempted")},
        "digests_identical": all(d == digests[0] for d in digests),
        "digests": digests[0],
        "baseline_digest_check": sorted({n for side in SIDES for r in runs[side]
                                         for n in r["notes"]}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    args.parent, args.change = args.parent.resolve(), args.change.resolve()

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds "
                   f"{spec['run_seconds']:g} --trace 0",
        "method": "Alternating parent/change pairs, each run a fresh process, one run at "
                  "a time; the side that runs first alternates from pair to pair. "
                  "Quartiles are the inclusive quartiles of one side's runs; "
                  "spread = q3 - q1; change_wins counts the pairs where the change is "
                  "better.",
        "code.src_lines": {side: _src_lines(getattr(args, side)) for side in SIDES},
        "workloads": {w: {f"seed_{s}": _workload(args, w, s, spec)
                          for s in args.seeds} for w in args.workloads},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    ok = all(r["digests_identical"] and not any(r["failed"]["parent"] + r["failed"]["change"])
             for w in report["workloads"].values() for r in w.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
