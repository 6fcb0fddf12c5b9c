#!/usr/bin/env python3
"""Pipeline benchmark for p2g.

Run from the repository root:

    python3 bench/run.py --workload decode --seed 1 --seconds 10 --trace 0

The workload's inputs are built from ``--seed`` in a temporary directory
under ``.bench_tmp/`` (set-up is repeated and its median reported). Then the
workload's CLI stages run in-process through ``p2g.cli.main`` as a closed
loop, each stage starting when the previous one finishes, for as many whole
iterations as fit in ``--seconds`` (at least one). Every artifact is
validated and its sha256 must match the first iteration's.

While set-up and the untraced iterations run, a timer takes a short sample
of a fixed reference computation every 25 ms (``reference.py``). Each
set-up and each iteration is reported at the reference machine's speed:
its wall time less the samples, times ``reference.NOMINAL_S`` over the mean
sample taken inside it. So runs at moments when the shared machine is slower
or faster read alike. The wall times less the samples are printed beside
them as ``wall_*``.

``--trace 0`` reports the end-to-end metrics with tracing off. ``--trace 1``
alternates untraced and traced iterations, reports the per-layer metrics and
writes the spans to ``.bench_out/``. Which metrics the final line carries,
and their units, come from ``BENCHMARK.json``; every other measured value is
printed above it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit status 0 means
every check passed, 1 that some output failed a check, 2 that the benchmark
could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# set-up repeats at least this often and for at least this long, and its
# median is reported; short set-ups get more repeats so the median is steady
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SHOW_PROBLEMS = 20


def _cap_threads() -> None:
    """One numpy/BLAS thread, well under nproc, so the run is one thread of
    load; the package does no BLAS work. Must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_package():
    """Import p2g from this checkout's ``src``, never from elsewhere; None
    when the checkout has no package to import."""
    src = ROOT / "src"
    if not (src / "p2g" / "__init__.py").is_file():
        print(f"bench: no p2g package under {src}", file=sys.stderr)
        return None
    sys.path.insert(0, str(src))
    import p2g.cli
    if Path(p2g.__file__).resolve().parent != (src / "p2g").resolve():
        print(f"bench: imported p2g from {p2g.__file__}, not {src}", file=sys.stderr)
        return None
    return p2g.cli


def _digests(d: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(d.iterdir()) if p.is_file()}


class Run:
    """Runs stages, validates their artifacts and keeps the failure count."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tracer = None  # set during a traced iteration

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def stage(self, stage) -> tuple[float, float]:
        """One ``cli.main`` call; its stdout and stderr are captured so the
        ``score`` progress lines never mix with the metric output. Returns
        the ``perf_counter`` readings at its start and end."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        root = f"cli.{stage.name.removesuffix('_s')}"
        span = self.tracer.open(root, None) if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(stage.argv)
        except Exception:  # one crashed stage is one failed operation
            code = traceback.format_exc()
        finally:
            end = time.perf_counter()
            if span is not None:
                self.tracer.close(span)
        if code != 0:
            self.fail(f"{stage.argv[0]} exited with {code}: {err.getvalue().strip()}")
            return start, end
        for path, check in stage.checks:
            if not path.is_file():
                self.attempted += 1
                self.fail(f"{stage.argv[0]} wrote no {path.name}")
                continue
            records, problems = check(path)
            self.attempted += records
            self.failed += len(problems)
            self.problems.extend(problems)
        return start, end

    def compare(self, what: str, reference: dict[str, str], got: dict[str, str]) -> None:
        """Byte identity: a repeat with the same seed writes the same files."""
        for name in sorted(set(reference) | set(got)):
            if reference.get(name) != got.get(name):
                self.fail(f"{what}: {name} differs from the first run")


def _baseline_changes(workload: str, seed: int, digests: dict[str, str]) -> str | None:
    path = ROOT / "bench" / "BASELINE.json"
    if not path.is_file():
        return None
    recorded = json.loads(path.read_text(encoding="utf-8")).get("digests", {}).get(workload)
    if not recorded or recorded["seed"] != seed:
        return None
    changed = sorted(n for n in set(recorded["sha256"]) | set(digests)
                     if recorded["sha256"].get(n) != digests.get(n))
    if not changed:
        return f"all {len(digests)} artifacts match the recorded baseline digests"
    return f"artifacts that differ from the recorded baseline: {', '.join(changed)}"


def _src_lines() -> int:
    return sum(p.read_text(encoding="utf-8").count("\n")
               for p in sorted((ROOT / "src" / "p2g").glob("*.py")))


def _layer_values(summary: dict, counters: dict, stage_wall: float) -> dict[str, float]:
    values: dict[str, float] = {}
    for name, row in summary.items():
        for key in ("calls", "total_s", "self_s", "p50_ms", "p95_ms"):
            values[f"{name}.{key}"] = row[key]
        values[f"{name}.total_pct"] = 100.0 * row["total_s"] / stage_wall

    def ratio(num: str, den: float) -> float:
        return counters.get(num, 0.0) / den if den else 0.0

    decodes = summary["decode.decode"]["calls"]
    values.update({
        "ctc.prefix_beam_search.frames": counters.get("ctc.prefix_beam_search.frames", 0),
        "marginal.skm.distinct_per_draw": ratio("skm.forward_calls",
                                                counters.get("skm.draws", 0.0)),
        "scorer.generate_top_s.returned_per_requested": ratio(
            "generate_top_s.returned", counters.get("generate_top_s.requested", 0.0)),
        "decode.pool_size_mean": ratio("decode.pool_size", decodes),
        "decode.k_used_mean": ratio("decode.k_used", decodes),
        "data.generate_danp.pairs": counters.get("data.generate_danp.pairs", 0),
    })
    return values


def run_workload(cli, workload, seed: int, seconds: float, trace: bool,
                 tmp: Path) -> tuple[Run, dict[str, float], dict[str, str]]:
    import reference
    from spans import Patched, Tracer, stage_shares, summarize
    from workloads import decode_quality

    run = Run(cli)
    values: dict[str, float] = {}
    sampler = reference.Sampler()

    setup_work: list[float] = []
    setup_scaled: list[float] = []
    while not setup_work or not trace and (len(setup_work) < SETUP_REPEATS
                                           or sum(setup_work) < SETUP_MIN_S):
        rep = len(setup_work)
        d = tmp / f"setup{rep}"
        d.mkdir()
        with sampler:
            start = time.perf_counter()
            made = workload.setup(run.stage, seed, d)
            end = time.perf_counter()
        setup_work.append(sampler.work(start, end))
        setup_scaled.append(setup_work[-1] * sampler.scale([(start, end)]))
        if rep == 0:
            inputs, setup_digests = made, _digests(d)
        else:
            run.compare(f"set-up {rep}", setup_digests, _digests(d))
            shutil.rmtree(d)

    # per iteration: each stage's wall time less the samples inside it, and
    # for untraced iterations the factor to the reference machine's speed
    untraced: list[tuple[dict[str, float], float]] = []
    traced: list[dict[str, float]] = []
    tracers = []
    start = time.perf_counter()
    n = 0
    while True:
        began = time.perf_counter()
        out = tmp / f"iter{n}"
        out.mkdir()
        is_traced = trace and n % 2 == 1
        windows: dict[str, tuple[float, float]] = {}
        tracer = Tracer() if is_traced else None
        with Patched(tracer) if is_traced else sampler:
            run.tracer = tracer
            for stage in workload.stages(seed, inputs, out):
                windows[stage.name] = run.stage(stage)
            run.tracer = None
        stage_work = {name: sampler.work(*w) for name, w in windows.items()}
        if n == 0:
            iter_digests = _digests(out)
            if workload.name == "decode" and not run.failed:
                values.update(decode_quality(inputs, out))
        else:
            run.compare(f"iteration {n}", iter_digests, _digests(out))
            shutil.rmtree(out)
        if is_traced:
            traced.append(stage_work)
            tracers.append(tracer)
        else:
            untraced.append((stage_work, sampler.scale(list(windows.values()))))
        n += 1
        # stop before an iteration that would end past --seconds
        now = time.perf_counter()
        if now + (now - began) - start > seconds and (not trace or n >= 2):
            break

    utts = len(inputs.ids)
    names = list(untraced[0][0])
    print(f"# {workload.name}: seed {seed}, {utts} utterances, {len(untraced)} untraced "
          f"and {len(traced)} traced iterations, set-up x{len(setup_work)}, "
          f"{len(sampler.samples)} reference samples")
    for name in names:
        work = [w[name] for w, _ in untraced]
        values[f"wall_{name}"] = statistics.median(work)
        values[name] = statistics.median(w[name] * scale for w, scale in untraced)
        print(f"# {name} wall samples: {' '.join(f'{x:.4f}' for x in work)}")
    values["machine_speed"] = statistics.median(scale for _, scale in untraced)
    values["wall_setup_s"] = statistics.median(setup_work)
    values["setup_s"] = statistics.median(setup_scaled)
    values["wall_utt_per_s"] = utts / sum(values[f"wall_{name}"] for name in names)
    values["utt_per_s"] = utts / sum(values[name] for name in names)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["failed_frac"] = run.failed / max(1, run.attempted)

    digests = {**{f"setup/{k}": v for k, v in setup_digests.items()},
               **{f"stages/{k}": v for k, v in iter_digests.items()}}
    if trace:
        summary = summarize(tracers)
        stage_wall = statistics.median(sum(t.values()) for t in traced)
        untraced_wall = statistics.median(sum(t.values()) for t, _ in untraced)
        values.update(_layer_values(summary, tracers[0].counters, stage_wall))
        values["trace_overhead_pct"] = 100.0 * (stage_wall - untraced_wall) / untraced_wall
        values["code.src_lines"] = _src_lines()
        for stage, shares in stage_shares(tracers[0]).items():
            for name, pct in shares.items():
                values[f"{stage}.{name}.share_pct"] = pct
        for name in workload.expects:
            if summary[name]["calls"] == 0:
                run.fail(f"traced run recorded no calls to {name}")
        _write_spans(workload.name, seed, tracers, summary)
    return run, values, digests


def _write_spans(workload: str, seed: int, tracers, summary) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    iterations = []
    for tracer in tracers:
        origin = tracer.spans[0].start if tracer.spans else 0.0
        iterations.append({
            "counters": tracer.counters,
            "spans": [{"name": s.name, "start": s.start - origin, "end": s.end - origin,
                       "parent": s.parent, "utt": s.utt} for s in tracer.spans],
        })
    path = out / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"summary": summary, "iterations": iterations}) + "\n",
                    encoding="utf-8")
    print(f"# spans written to {path.relative_to(ROOT)}")


_RATIOS = ("failed_frac", "distinct_per_draw", "returned_per_requested", "machine_speed")


def _unit(name: str) -> str:
    """Unit of a printed value, from the naming convention."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(_RATIOS):
        return "ratio"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_pct", "%"), ("_mb", "MB"),
                         ("_lines", "lines")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="p2g pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    _cap_threads()
    cli = _import_package()
    if cli is None:
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("seed must be non-negative")

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run, values, digests = run_workload(cli, WORKLOADS[args.workload], args.seed,
                                            args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    for name in sorted(values):
        print(f"{name:52s} {values[name]:16.6f} {_unit(name)}")
    for name, digest in digests.items():
        print(f"# sha256 {digest} {name}")
    note = _baseline_changes(args.workload, args.seed, digests)
    if note:
        print(f"# {note}")
    for problem in run.problems[:SHOW_PROBLEMS]:
        print(f"bench: {problem}", file=sys.stderr)
    if len(run.problems) > SHOW_PROBLEMS:
        print(f"bench: ... {len(run.problems) - SHOW_PROBLEMS} more", file=sys.stderr)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"bench: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
