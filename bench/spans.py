"""Span tracing around the public functions of the p2g modules.

The tracer wraps functions from outside the package: it rebinds every name
in every loaded ``p2g`` module that refers to a traced function, because
``cli`` imports several of them by name (``decode_grid``, ``load_scorer``,
``train_scorer``, ``save_scorer``, ``derive_rng``) and ``marginal`` imports
``derive_rng`` the same way. Patching only the defining module would miss
those calls silently. ``NGramScorer.generate_top_s`` and ``log_score`` are
patched on the class. ``p2g/__init__.py`` rebinds ``p2g.decode`` to the
function, so the module is taken from ``sys.modules``.

Spans (name, start, end, parent, utterance id) are kept in memory; the
benchmark writes them out when the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

# (module, attribute) pairs; "NGramScorer.x" names a method on the class
TRACED = (
    ("ctc", "prefix_beam_search"),
    ("ctc", "forward_logprob"),
    ("ctc", "sample_paths"),
    ("ctc", "load_grids"),
    ("scorer", "NGramScorer.generate_top_s"),
    ("scorer", "NGramScorer.log_score"),
    ("scorer", "train_scorer"),
    ("scorer", "save_scorer"),
    ("scorer", "load_scorer"),
    ("marginal", "tkm_log_marginal"),
    ("marginal", "skm_log_marginal"),
    ("marginal", "sskm_log_marginal"),
    ("marginal", "batch_objective"),
    ("decode", "decode"),
    ("decode", "pool_and_rescore"),
    ("decode", "save_decode_results"),
    ("decode", "load_hypotheses"),
    ("data", "oversample_manifest"),
    ("data", "generate_danp"),
    ("data", "load_manifest"),
    ("data", "save_manifest"),
    ("data", "load_training_lines"),
    ("data", "save_training_lines"),
    ("metrics", "evaluate"),
    ("seeding", "derive_rng"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    utt: str | None
    child_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans and the derived counters for one traced iteration."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str, utt: str | None) -> int:
        parent = self._stack[-1] if self._stack else None
        if utt is None and parent is not None:
            utt = self.spans[parent].utt
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, utt))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            # calls run on one thread, so sibling spans never overlap and the
            # covered part of the parent is the sum of its children
            self.spans[span.parent].child_s += span.end - span.start

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None


def _utterance_id(name: str, args: tuple) -> str | None:
    if name == "seeding.derive_rng" and len(args) > 1 and isinstance(args[1], str):
        return args[1]
    for arg in args[:2]:
        utt = getattr(arg, "utterance_id", None)
        if isinstance(utt, str):
            return utt
    return None


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _record_counts(tracer: Tracer, name: str, args: tuple, kwargs: dict,
                   result, parent: str | None) -> None:
    """Counters measured at the boundary where the work happens."""
    if name == "ctc.prefix_beam_search":
        tracer.count("ctc.prefix_beam_search.frames", args[0].frames)
    elif name == "ctc.forward_logprob" and parent == "marginal.skm_log_marginal":
        tracer.count("skm.forward_calls", 1)
    elif name == "marginal.skm_log_marginal":
        tracer.count("skm.draws", _arg(args, kwargs, 3, "k"))
    elif name == "scorer.generate_top_s":
        tracer.count("generate_top_s.requested", _arg(args, kwargs, 2, "s"))
        tracer.count("generate_top_s.returned", len(result))
    elif name == "decode.decode":
        tracer.count("decode.pool_size", len(result.pool))
        tracer.count("decode.k_used", result.k_used)
    elif name == "data.generate_danp":
        tracer.count("data.generate_danp.pairs", len(result))


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = tracer.parent_name()
        index = tracer.open(name, _utterance_id(name, args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        _record_counts(tracer, name, args, kwargs, result, parent)
        return result
    return traced


class Patched:
    """Context manager that routes every traced function through ``tracer``
    and puts each original binding back on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Patched":
        modules = [m for n, m in list(sys.modules.items())
                   if n == "p2g" or n.startswith("p2g.")]
        try:
            for module_name, attr in TRACED:
                self._patch(modules, module_name, attr)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, modules: list, module_name: str, attr: str) -> None:
        home = sys.modules[f"p2g.{module_name}"]
        name = span_name(module_name, attr)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            self._set(cls, meth, _wrap(self._tracer, name, vars(cls)[meth]))
            return
        orig = getattr(home, attr)
        wrapper = _wrap(self._tracer, name, orig)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def _restore(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def summarize(tracers: list[Tracer]) -> dict[str, dict[str, float]]:
    """Per traced function, and for ``cli`` over the stage root spans: calls
    per iteration, median total and self seconds per iteration, and
    percentiles pooled over every traced iteration."""
    names = ["cli"] + [span_name(m, a) for m, a in TRACED]
    per_iter: dict[str, list[list[float]]] = {n: [] for n in names}
    durations: dict[str, list[float]] = {n: [] for n in names}
    for tracer in tracers:
        acc = {n: [0, 0.0, 0.0] for n in names}
        for span in tracer.spans:
            key = "cli" if span.name.startswith("cli.") else span.name
            dur = span.end - span.start
            acc[key][0] += 1
            acc[key][1] += dur
            acc[key][2] += dur - span.child_s
            durations[key].append(dur)
        for n in names:
            per_iter[n].append(acc[n])
    return {n: {"calls": per_iter[n][0][0],
                "total_s": statistics.median(r[1] for r in per_iter[n]),
                "self_s": statistics.median(r[2] for r in per_iter[n]),
                "p50_ms": 1000.0 * percentile(durations[n], 50),
                "p95_ms": 1000.0 * percentile(durations[n], 95),
                "samples": len(durations[n])}
            for n in names}


def stage_shares(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per stage root span: the share (%) of its wall time inside each
    traced function, nested calls included."""
    roots: list[int] = []
    inside: dict[int, dict[str, float]] = {}
    for i, span in enumerate(tracer.spans):
        if span.parent is None:
            roots.append(i)
            inside[i] = {}
            continue
        root = span.parent
        while tracer.spans[root].parent is not None:
            root = tracer.spans[root].parent
        acc = inside[root]
        acc[span.name] = acc.get(span.name, 0.0) + span.end - span.start
    out: dict[str, dict[str, float]] = {}
    for i in roots:
        wall = tracer.spans[i].end - tracer.spans[i].start
        out[tracer.spans[i].name] = {name: 100.0 * t / wall
                                     for name, t in sorted(inside[i].items())}
    return out
