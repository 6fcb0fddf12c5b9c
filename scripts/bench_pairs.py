#!/usr/bin/env python3
"""Time a change against its parent with alternating benchmark runs.

    mkdir -p /tmp/pairs && git archive PARENT_REV --prefix=parent/ | tar -x -C /tmp/pairs
    git archive PARENT_REV --prefix=control/ | tar -x -C /tmp/pairs
    python3 scripts/bench_pairs.py --parent /tmp/pairs/parent --change . \\
        --control /tmp/pairs/control \\
        --workloads train-score decode large-grid --seeds 1 7 --out /tmp/pairs/result.json

Each of ``--pairs`` pairs (10 by default) runs ``bench/run.py --workload W
--seed S --trace 0``, with the ``run_seconds`` of ``BENCHMARK.json``, once in
each checkout, each run a fresh process and one run at a time. The order
within a pair is parent, change (, control), reversed on every other pair,
so each side runs before each other side in half the pairs and a slow spell
of a shared machine falls on all of them. ``--control`` names a second clean
copy of the parent: an A/A control, whose gap to the parent is the offset
that two checkouts of the same code read. For every workload and seed the
output (``workloads[W]["seed_S"]``) holds:

- for each end-to-end metric that ``BENCHMARK.json`` declares: every run,
  the median and the inclusive quartiles of each side, the spread q3 - q1,
  the change/parent ratio of the medians, the pairs the change wins, and
  ``claimable``: true when the change wins at least 9 in 10 of the pairs in
  which both sides finished, and its median is better than the parent's by
  more than the parent's spread and, with a control, by more than the
  control's absolute gap to the parent. With a control the row also holds
  ``aa_ratio``, the control/parent ratio of the medians, and ``aa_wins``,
  the pairs the control wins over the parent. A metric that declares a
  ``bound`` also gets ``within_bound``, the regression gate: true when the
  change's median is no worse than the parent's by more than ``bound`` times
  the parent's median
- the same medians and quartiles for every per-stage time (``*_s``)
- the failed and attempted counts of every run
- whether every run of every side wrote the same artifact digests, the
  digests themselves, and the baseline digest notes ``bench/run.py`` printed
- every run that exited non-zero, with its side, pair, exit code and the
  tail of its stderr; the other runs still go on, and the statistics above
  cover the runs that finished (wins: the pairs where both sides did)

and ``code.src_lines`` of each checkout, counted as ``bench/run.py`` counts
it, the ``machine`` the runs shared (CPU count, platform, Python and numpy
versions) and the ``argv`` the script was run with. The report is always
written; the exit status is 1 when a run exits non-zero or reports failed
operations, or the digests differ.

A gain or a loss is claimed only when the median gap exceeds both the
parent's spread and the A/A offset; without ``--control``, ``claimable``
checks the spread alone, and the offset must come from a run of this script
with ``--parent`` and ``--change`` on two clean copies of the parent.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def _sides(args) -> tuple[str, ...]:
    return ("parent", "change") + (("control",) if args.control else ())


def _src_lines(checkout: Path) -> int:
    return sum(p.read_text(encoding="utf-8").count("\n")
               for p in sorted((checkout / "src" / "p2g").glob("*.py")))


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run: its printed values, digests, notes and result,
    parsed as ``bench/spread.py`` parses them; for a run that exits non-zero,
    its exit code and the tail of its stderr."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr_tail": proc.stderr[-2000:]}
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


def _compare(runs: dict[str, list[dict]], name: str, better: str | None,
             bound: float | None = None) -> dict:
    """Each side's statistics of ``name`` over its finished runs (None if it
    has none); wins count the pairs in which a side and the parent finished."""
    per_side = {side: [None if "exit" in r else r["values"][name] for r in side_runs]
                for side, side_runs in runs.items()}
    row: dict = {"better": better} if better else {}
    for side, values in per_side.items():
        finished = [v for v in values if v is not None]
        row[side] = _side(finished) if finished else None
    median = {side: row[side] and row[side]["median"] for side in runs}
    parent = median["parent"]
    for side, key in (("change", "ratio"), ("control", "aa_ratio")):
        if side in runs:
            row[key] = round(median[side] / parent, 4) if parent and median[side] is not None \
                else None
    if better:
        sign, tally = 1 if better == "higher" else -1, {}
        for side, key in (("change", "change_wins"), ("control", "aa_wins")):
            if side in runs:
                gaps = [sign * (c - p) for p, c in zip(per_side["parent"], per_side[side])
                        if p is not None and c is not None]
                tally[side] = (sum(gap > 0 for gap in gaps), len(gaps))
                row[key] = "%d/%d" % tally[side]
        won, both = tally["change"]
        # both sides have a median whenever a pair finished on both
        gap = sign * (median["change"] - parent) if both else None
        row["claimable"] = bool(both) and 10 * won >= 9 * both and gap > row["parent"]["spread"]
        if "control" in runs:
            row["claimable"] = row["claimable"] and bool(tally["control"][1]) and \
                gap > abs(median["control"] - parent)
        if bound is not None:
            row["within_bound"] = bool(both) and gap >= -bound * abs(parent)
    return row


def _workload(args, workload: str, seed: int, spec: dict) -> dict:
    end_to_end = spec["end_to_end"]
    sides = _sides(args)
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    failed_runs = []
    for i in range(args.pairs):
        for side in sides if i % 2 == 0 else sides[::-1]:
            run = _run(getattr(args, side), workload, seed, spec["run_seconds"])
            runs[side].append(run)
            head = f"{workload} seed {seed} pair {i + 1} {side}: "
            if "exit" in run:
                failed_runs.append({"side": side, "pair": i + 1, **run})
                print(head + f"exit {run['exit']}\n{run['stderr_tail']}", file=sys.stderr,
                      flush=True)
                continue
            print(head + " ".join(f"{m['name']}={run['values'][m['name']]:.6g}"
                                  for m in end_to_end)
                  + f" failed={run['result']['failed']}", file=sys.stderr, flush=True)
    finished = [run for side in sides for run in runs[side] if "exit" not in run]
    declared = {m["name"] for m in end_to_end}
    stages = sorted(name for name in (finished[0]["values"] if finished else ())
                    if name.endswith("_s") and not name.startswith("wall_")
                    and name not in declared)
    digests = [run["digests"] for run in finished]
    return {
        "pairs": args.pairs,
        **{m["name"]: _compare(runs, m["name"], m["better"], m.get("bound"))
           for m in end_to_end},
        "stages": {name: _compare(runs, name, None) for name in stages},
        **{key: {side: [None if "exit" in r else r["result"][key] for r in runs[side]]
                 for side in sides} for key in ("failed", "attempted")},
        "digests_identical": all(d == digests[0] for d in digests),
        "digests": digests[0] if digests else None,
        "baseline_digest_check": sorted({n for r in finished for n in r["notes"]}),
        "failed_runs": failed_runs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--control", type=Path, help="a second clean copy of the parent")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--out", type=Path, required=True)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for side in _sides(args):
        setattr(args, side, getattr(args, side).resolve())

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds "
                   f"{spec['run_seconds']:g} --trace 0",
        "method": "Alternating pairs, each run a fresh process, one run at a time, in "
                  "the order parent, change (, control), reversed on every other pair. "
                  "Quartiles are the inclusive quartiles of one side's runs; "
                  "spread = q3 - q1; change_wins (aa_wins) counts the pairs where the "
                  "change (the control, a second copy of the parent) is better.",
        "code.src_lines": {side: _src_lines(getattr(args, side)) for side in _sides(args)},
        "machine": {"cpu_count": os.cpu_count(), "platform": platform.platform(),
                    "python": platform.python_version(),
                    "numpy": importlib.metadata.version("numpy")},
        "argv": [Path(__file__).name, *argv],
        "workloads": {w: {f"seed_{s}": _workload(args, w, s, spec)
                          for s in args.seeds} for w in args.workloads},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    ok = all(r["digests_identical"] and not r["failed_runs"]
             and not any(n for counts in r["failed"].values() for n in counts)
             for w in report["workloads"].values() for r in w.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
