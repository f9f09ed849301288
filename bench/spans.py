"""Span recorder and outside-in instrumentation of bevalign's modules.

Nothing under src/ is edited: `instrument` replaces each traced function in
every bevalign module that holds a reference to it, so calls made through
``from .grid import bilinear_sample`` and calls within the defining module
both go through the wrapper.  Spans stay in memory until the run ends.

Self time of a span is its duration minus the part of its interval covered
by its child spans.  A span opened in a pool worker thread whose own stack
is empty takes as parent the innermost span open in the thread that
activated the recorder, so with one worker the self times of all spans add
up to the wall time of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

MODULES = (
    "grid",
    "instance",
    "pairing",
    "contrastive",
    "alignfuse",
    "scenesim",
    "experiment",
    "oracles",
    "cli",
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int | None
    parent: int | None
    op: int | None


class Recorder:
    """Collects spans and counters while `active`; inactive wrappers call
    straight through."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.active = False
        self._local = threading.local()
        self._root_stack: list[int] | None = None
        self._lock = threading.Lock()
        self._next_op = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def activated(self):
        """Record in this block; this thread's open spans parent the spans of
        threads it starts."""
        self._root_stack = self._stack()
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextmanager
    def span(self, name: str, new_op: bool = False):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        with self._lock:
            op = self.spans[parent].op if parent is not None else None
            if op is None and new_op:
                self._next_op += 1
                op = self._next_op
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter_ns(), None, parent, op))
        stack.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx].end_ns = time.perf_counter_ns()
            stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time in seconds: duration minus the union of the
    intervals of its direct children (children of one parent may overlap
    when they ran in different threads)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = []
    for idx, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, s.start_ns), min(hi, s.end_ns)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end_ns - s.start_ns - covered) / 1e9)
    return out


# ---- counters read at the layer boundaries -------------------------------


def _count_read(counts, args, kwargs, result) -> None:
    counts["grid.bevf.bytes_read"] += 16 + result.nbytes


def _count_write(counts, args, kwargs, result) -> None:
    array = args[1] if len(args) > 1 else kwargs["array"]
    counts["grid.bevf.bytes_written"] += 16 + 4 * array.size  # written as float32


def _count_proposals(counts, args, kwargs, result) -> None:
    counts["instance.proposals"] += len(result)


def _count_pairs(counts, args, kwargs, result) -> None:
    counts["pairing.lidar_boxes"] += len(args[0])
    counts["pairing.positives"] += len(result.positives)
    counts["pairing.negatives"] += sum(len(n) for n in result.negatives)


def _count_training(counts, args, kwargs, result) -> None:
    scenes = args[0]
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    gathered = unique = 0
    for sp in scenes:
        negs = [n for n in sp.pairs.negatives if n]
        gathered += sum(len(n) for n in negs)
        unique += len({j for n in negs for j in n})
    counts["contrastive.pairs"] += result.n_pairs
    counts["contrastive.neg_rows_gathered"] += gathered
    counts["contrastive.neg_rows_unique"] += unique
    counts["contrastive.steps"] += cfg.steps


def _count_duplicate_picks(counts, args, kwargs, result) -> None:
    picks = Counter(result.chosen().values())
    counts["alignfuse.duplicate_picks"] += sum(1 for n in picks.values() if n > 1)


# (span name, module, function, counter hook, starts an operation).  A span
# name of None counts calls without opening a span, so the caller's self time
# keeps that work.  An operation is one scene pipeline or one `bevalign
# align`; spans inside an operation carry its id.
TRACED = (
    ("grid.bilinear_sample", "grid", "bilinear_sample", None, False),
    ("grid.bevf.read", "grid", "read_bevf", _count_read, False),
    ("grid.bevf.write", "grid", "write_bevf", _count_write, False),
    ("instance.peaks", "instance", "sparse_max_pool_peaks", _count_proposals, False),
    ("instance.roi_sample", "instance", "roi_sample", None, False),
    ("pairing.build_pairs", "pairing", "build_pairs", _count_pairs, False),
    ("contrastive.train_heads", "contrastive", "train_heads", _count_training, False),
    ("alignfuse.align_instances", "alignfuse", "align_instances", _count_duplicate_picks, False),
    ("alignfuse.fuse", "alignfuse", "fuse", None, False),
    ("scenesim.gen_scene", "scenesim", "gen_scene", None, False),
    ("scenesim.noise", "scenesim", "apply_spatial_noise", None, False),
    ("scenesim.noise", "scenesim", "apply_temporal_noise", None, False),
    ("scenesim.eval_alignment", "scenesim", "eval_alignment", None, False),
    (None, "scenesim", "assign_proposals", None, False),
    ("scenesim.save_scene", "scenesim", "save_scene", None, False),
    ("scenesim.load_scene", "scenesim", "load_scene", None, False),
    ("experiment.run_experiment", "experiment", "run_experiment", None, False),
    ("experiment.run_scene_pipeline", "experiment", "run_scene_pipeline", None, True),
    ("experiment.evaluate_scene", "experiment", "evaluate_scene", None, False),
    ("experiment.mean_pair_loss", "experiment", "mean_pair_loss", None, False),
    ("cli.main", "cli", "main", None, True),
)


def _wrap(rec: Recorder, name: str | None, label: str, fn, hook, new_op: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        if name is None:
            rec.counts[label + ".calls"] += 1
            return fn(*args, **kwargs)
        with rec.span(name, new_op):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(rec.counts, args, kwargs, result)
        return result

    return traced


@contextmanager
def instrument(rec: Recorder, only: tuple[str, ...] | None = None):
    """Route calls of the TRACED functions (or of the span names in `only`)
    through `rec`; restores every patched name on exit."""
    mods = [importlib.import_module("bevalign")] + [
        importlib.import_module(f"bevalign.{m}") for m in MODULES
    ]
    patched = []
    try:
        for name, module, func, hook, new_op in TRACED:
            if only is not None and name not in only:
                continue
            original = getattr(importlib.import_module(f"bevalign.{module}"), func)
            wrapper = _wrap(rec, name, f"{module}.{func}", original, hook, new_op)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        yield rec
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


# ---- per-layer metrics ----------------------------------------------------

# name -> (unit, better, what it should move).  The last field is the
# prediction made before any optimisation: the end-to-end metric and the
# workload on which a change to this layer should show.
LAYER_METRICS = {
    "grid.bilinear_sample.self_s": ("s", "lower", "run_s on robust; op_p50_ms on bundle_align"),
    "grid.bilinear_sample.calls": ("count", "lower", "run_s on robust; op_p50_ms on bundle_align"),
    "grid.bevf.read_s": ("s", "lower", "op_p50_ms on bundle_align only"),
    "grid.bevf.write_s": ("s", "lower", "op_p50_ms and setup_s on bundle_align only"),
    "grid.bevf.bytes_read": ("bytes", "lower", "op_p50_ms on bundle_align only"),
    "grid.bevf.bytes_written": ("bytes", "lower", "op_p50_ms and setup_s on bundle_align only"),
    "instance.peaks.self_s": ("s", "lower", "run_s on robust"),
    "instance.roi_sample.self_s": ("s", "lower", "run_s on robust"),
    "instance.proposals": ("count", "higher", "run_s on robust (work count)"),
    "pairing.build_pairs.self_s": ("s", "lower", "run_s on robust"),
    "pairing.positives": ("count", "higher", "run_s on robust (work count)"),
    "pairing.negatives": ("count", "higher", "run_s on robust (work count)"),
    "pairing.positive_yield": ("fraction", "higher", "run_s on robust; positives per LiDAR proposal"),
    "contrastive.train_heads.self_s": ("s", "lower", "run_s on robust; op_p50_ms on bundle_align"),
    "contrastive.train_step_ms": ("ms", "lower", "run_s on robust; op_p50_ms on bundle_align"),
    "contrastive.pairs": ("count", "higher", "run_s on robust (work count)"),
    "contrastive.neg_rows_gathered": ("count", "lower", "run_s on robust; op_p50_ms on bundle_align"),
    "contrastive.neg_rows_unique": ("count", "lower", "run_s on robust; op_p50_ms on bundle_align"),
    "experiment.mean_pair_loss.self_s": ("s", "lower", "run_s on robust"),
    "alignfuse.align_instances.self_s": ("s", "lower", "run_s on robust"),
    "alignfuse.align_instances.calls": ("count", "lower", "run_s on robust"),
    "alignfuse.duplicate_picks": ("count", "lower", "quality count; no change expected"),
    "alignfuse.fuse.self_s": ("s", "lower", "op_p50_ms on bundle_align"),
    "scenesim.gen_scene.self_s": ("s", "lower", "run_s on robust; setup_s on bundle_align"),
    "scenesim.noise.self_s": ("s", "lower", "run_s on robust; setup_s on bundle_align"),
    "scenesim.eval_alignment.self_s": ("s", "lower", "run_s on robust"),
    "scenesim.eval_alignment.calls": ("count", "lower", "run_s on robust"),
    "scenesim.assign_proposals.calls": ("count", "lower", "run_s on robust"),
    "scenesim.save_scene.self_s": ("s", "lower", "setup_s on bundle_align"),
    "scenesim.load_scene.self_s": ("s", "lower", "op_p50_ms on bundle_align"),
    "experiment.self_s": ("s", "lower", "run_s on robust (orchestration)"),
    "experiment.scene_pipelines": ("count", "lower", "run_s on robust (work count)"),
    "experiment.pool_speedup": ("ratio", "higher", "run_s on robust; untraced run_s at 1 thread over run_s at the default count"),
    "cli.main.self_s": ("s", "lower", "op_p50_ms on bundle_align (JSON output and glue)"),
    "trace.traced_s": ("s", "lower", "sum of all self times; the base of every share"),
    "trace.overhead_frac": ("fraction", "lower", "none; traced over untraced run_s at 1 thread, minus 1"),
}

# metric name -> span names whose self times it sums
_SELF_TIME_METRICS = {
    "grid.bilinear_sample.self_s": ("grid.bilinear_sample",),
    "grid.bevf.read_s": ("grid.bevf.read",),
    "grid.bevf.write_s": ("grid.bevf.write",),
    "instance.peaks.self_s": ("instance.peaks",),
    "instance.roi_sample.self_s": ("instance.roi_sample",),
    "pairing.build_pairs.self_s": ("pairing.build_pairs",),
    "contrastive.train_heads.self_s": ("contrastive.train_heads",),
    "experiment.mean_pair_loss.self_s": ("experiment.mean_pair_loss",),
    "alignfuse.align_instances.self_s": ("alignfuse.align_instances",),
    "alignfuse.fuse.self_s": ("alignfuse.fuse",),
    "scenesim.gen_scene.self_s": ("scenesim.gen_scene",),
    "scenesim.noise.self_s": ("scenesim.noise",),
    "scenesim.eval_alignment.self_s": ("scenesim.eval_alignment",),
    "scenesim.save_scene.self_s": ("scenesim.save_scene",),
    "scenesim.load_scene.self_s": ("scenesim.load_scene",),
    "experiment.self_s": (
        "experiment.run_experiment",
        "experiment.run_scene_pipeline",
        "experiment.evaluate_scene",
    ),
    "cli.main.self_s": ("cli.main",),
}

_CALL_METRICS = {
    "grid.bilinear_sample.calls": "grid.bilinear_sample",
    "alignfuse.align_instances.calls": "alignfuse.align_instances",
    "scenesim.eval_alignment.calls": "scenesim.eval_alignment",
    "experiment.scene_pipelines": "experiment.run_scene_pipeline",
}


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every LAYER_METRICS value derivable from one recorded run (all but
    the two that compare separate runs: pool_speedup and overhead_frac)."""
    selfs = self_times(rec.spans)
    self_by_name: Counter = Counter()
    duration_by_name: Counter = Counter()
    calls: Counter = Counter()
    for s, st in zip(rec.spans, selfs):
        self_by_name[s.name] += st
        duration_by_name[s.name] += (s.end_ns - s.start_ns) / 1e9
        calls[s.name] += 1
    c = rec.counts
    out: dict[str, float] = {}
    for metric, names in _SELF_TIME_METRICS.items():
        out[metric] = sum(self_by_name[n] for n in names)
    for metric, name in _CALL_METRICS.items():
        out[metric] = calls[name]
    out["scenesim.assign_proposals.calls"] = c["scenesim.assign_proposals.calls"]
    for key in (
        "grid.bevf.bytes_read",
        "grid.bevf.bytes_written",
        "instance.proposals",
        "pairing.positives",
        "pairing.negatives",
        "contrastive.pairs",
        "contrastive.neg_rows_gathered",
        "contrastive.neg_rows_unique",
        "alignfuse.duplicate_picks",
    ):
        out[key] = c[key]
    out["pairing.positive_yield"] = (
        c["pairing.positives"] / c["pairing.lidar_boxes"] if c["pairing.lidar_boxes"] else 0.0
    )
    out["contrastive.train_step_ms"] = (
        1e3 * duration_by_name["contrastive.train_heads"] / c["contrastive.steps"]
        if c["contrastive.steps"]
        else 0.0
    )
    out["trace.traced_s"] = sum(selfs)
    return out


def latencies_ms(rec: Recorder, name: str) -> list[float]:
    return [(s.end_ns - s.start_ns) / 1e6 for s in rec.spans if s.name == name]
