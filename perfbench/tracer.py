"""Spans around the calls into each clwb module, recorded from outside.

``Tracer.installed`` replaces the listed public functions with timing
wrappers, in their own module and wherever another clwb module imported
them by name (``experiment.load_checkpoint`` is the same object as
``checkpoint.load_checkpoint``), and puts every original back on exit. A
span records its name, start, end, parent span, the run id and optional
counts taken at the boundary. Spans stay in memory until ``aggregate`` turns
them into per-layer figures. Tiny leaf helpers (``theory.neg_log``,
``theory.cross_entropy``, ``numkit.softmax`` ...) are not wrapped, so their
time lands in their caller's self time.

The wrappers keep one span stack, so they assume the traced code calls
clwb from a single thread; the benchmark pins ``CLWB_THREADS=1``.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("numkit", "backbones", "oodlab", "theory", "verify", "composer",
          "metrics", "checkpoint", "data", "experiment")


def _rows(x) -> int:
    return 1 if np.ndim(x) < 2 else int(np.shape(x)[0])


def _weights(net) -> int:
    return int(sum(w.size for w in net.weights))


def _forward_counts(args, kwargs, result):
    rows = _rows(args[1])
    return {"rows": rows, "macs": rows * _weights(args[0])}


def _backward_counts(args, kwargs, result):
    cache = args[2]
    rows = cache.x.shape[0] if cache.batched else 1
    # weight gradient plus input gradient, each one multiply-add per weight
    return {"macs": 2 * rows * _weights(args[0])}


def _eval_label(args, kwargs, result):
    cfg = args[0]
    return {"scorer": kwargs.get("scorer") or cfg.ood.scorer,
            "route": kwargs.get("route") or cfg.predict.route}


def _odin_label(args, kwargs, result):
    params = args[3]
    return {"candidate": (args[2], params.tau, params.eps)}


# (module, attribute path, boundary counts). The list is the layer map: one
# entry per public function whose calls are timed.
TARGETS: tuple[tuple[str, str, object], ...] = (
    ("numkit", "forward", _forward_counts),
    ("numkit", "backward", _backward_counts),
    ("numkit", "sgd_step", None),
    ("numkit", "DenseNet.validate", None),
    ("backbones", "build_masked_net", None),
    ("backbones", "train_task", None),
    ("backbones", "task_features", None),
    ("backbones", "task_raw_logits", None),
    ("backbones", "hat_forward", None),
    ("backbones", "sup_masked_forward", None),
    ("backbones", "hat_attention", None),
    ("backbones", "hat_regularizer", None),
    ("backbones", "hat_masked_gradients", None),
    ("backbones", "hat_accumulate", None),
    ("backbones", "mask_from_scores", None),
    ("backbones", "sup_score_update", None),
    ("oodlab", "msp_score", None),
    ("oodlab", "odin_perturb", None),
    ("oodlab", "odin_score", _odin_label),
    ("oodlab", "rotate90", None),
    ("oodlab", "build_rotation_batch",
     lambda a, k, r: {"images": len(a[0])}),
    ("oodlab", "sup_con_loss", None),
    ("oodlab", "finetune_rotation_head", None),
    ("oodlab", "ensemble_logits", None),
    ("oodlab", "class_logits", None),
    ("theory", "compose_cil", None),
    ("theory", "ood_entropies", None),
    ("theory", "entropy_report", None),
    ("theory", "check_theorem1", None),
    ("theory", "check_corollary1", None),
    ("theory", "ood_from_tp", None),
    ("theory", "tp_from_ood", None),
    ("theory", "theorem2_bound", None),
    ("theory", "check_theorem3", None),
    ("theory", "theorem4_construct", None),
    ("theory", "theorem5_ood_from_tp", None),
    ("theory", "theorem5_tp_from_ood", None),
    ("theory", "theorem5_bound", None),
    ("verify", "run_suite", lambda a, k, r: {"suite": a[0]}),
    ("composer", "predict_concat_argmax", None),
    ("composer", "tp_sigmoid_maxlogit", None),
    ("composer", "wp_temperature", None),
    ("composer", "tp_maxsoftmax_temperature", None),
    ("composer", "compose_full", None),
    ("composer", "calibrated_logits", None),
    ("composer", "calibration_loss", None),
    ("composer", "fit_calibration", None),
    ("metrics", "auc", None),
    ("metrics", "auc_pairwise", None),
    ("metrics", "auc_ranksum", None),
    ("metrics", "avg_auc", None),
    ("metrics", "cil_accuracy", None),
    ("metrics", "forgetting_rate", None),
    ("checkpoint", "write_atomic", None),
    ("checkpoint", "save_checkpoint",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    ("checkpoint", "load_checkpoint", None),
    ("data", "parse_idx", None),
    ("data", "load_idx", None),
    ("data", "split_tasks", None),
    ("data", "synth_gaussian_tasks", None),
    ("data", "validation_split", None),
    ("experiment", "build_tasks", None),
    ("experiment", "train_run", None),
    ("experiment", "eval_run", _eval_label),
    ("experiment", "calibrate_run", None),
)


_untraced_depth = 0


@contextmanager
def untraced():
    """Wrapped functions called inside the block record no spans; the
    benchmark's own output checks run here."""
    global _untraced_depth
    _untraced_depth += 1
    try:
        yield
    finally:
        _untraced_depth -= 1


@dataclass(eq=False, slots=True)
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: "Span | None" = None
    run_id: str = ""
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[Span] = []

    def wrap(self, name: str, fn, counts=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if _untraced_depth:
                return fn(*args, **kwargs)
            span = Span(name, clock(), parent=stack[-1] if stack else None,
                        run_id=self.run_id)
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counts is not None:
                span.info = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [importlib.import_module(f"clwb.{m}")
                   for m in LAYERS + ("cli",)]
        patches = []
        try:
            for module_name, path, counts in TARGETS:
                owner = importlib.import_module(f"clwb.{module_name}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self.wrap(f"{module_name}.{path}", original, counts)
                for holder in (owner, *modules):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            patches.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover,
    keyed by id(span)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = s.duration - covered
    return out


def tail_percentile(n: int) -> float:
    """Highest of p50, p90, p99, p99.9 ... with at least ten samples beyond
    it; 0 when there are fewer than twenty samples."""
    q, best = 50.0, 0.0
    while n * (1.0 - q / 100.0) >= 10.0 - 1e-9:
        best = q
        q = 100.0 - (100.0 - q) / (10.0 if q >= 90.0 else 5.0)
    return best


def _ancestor(span: Span, name: str) -> Span | None:
    p = span.parent
    while p is not None and p.name != name:
        p = p.parent
    return p


def _layer(span: Span) -> str:
    return span.name.split(".", 1)[0]


def _outermost_in_layer(span: Span) -> bool:
    """No enclosing span belongs to the same layer."""
    p = span.parent
    while p is not None and _layer(p) != _layer(span):
        p = p.parent
    return p is None


def aggregate(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass layer figures: for every layer and every wrapped function,
    calls and self seconds, plus the named counts and inclusive times. An
    inclusive time (``.s``) counts only spans outermost in their layer, so
    the two evals that ``calibrate_run`` makes are in
    ``experiment.calibrate_run.s`` and not also in ``experiment.eval_run.s``.
    Call and count figures are totals divided by ``passes``; distributions
    pool the self times of all spans."""
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    per_layer: dict[str, list[float]] = defaultdict(list)
    odin_chosen: dict[int, set] = defaultdict(set)
    odin_scored: dict[int, set] = defaultdict(set)
    for s in spans:
        self_s = selfs[id(s)]
        per_layer[_layer(s)].append(self_s)
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += self_s
        if _outermost_in_layer(s):
            out[f"{s.name}.s"] += s.duration
        for key, value in s.info.items():
            if isinstance(value, (int, float)):
                out[f"{s.name}.{key}"] += value
        if s.name == "numkit.forward" or s.name == "numkit.backward":
            out["numkit.macs"] += s.info["macs"]
        elif s.name == "verify.run_suite":
            out[f"verify.{s.info['suite']}.s"] += s.duration
        elif s.name == "experiment.eval_run" and s.parent is None:
            out[f"experiment.eval_run.{s.info['scorer']}."
                f"{s.info['route']}.s"] += s.duration
        elif s.name == "oodlab.odin_score":
            owner = _ancestor(s, "experiment.eval_run")
            if owner is not None:
                odin_chosen[id(owner)].add(s.info["candidate"][0])
                odin_scored[id(owner)].add(s.info["candidate"])
    for layer in LAYERS:
        samples = np.array(per_layer.get(layer, ()))
        out[f"{layer}.calls"] = float(samples.size)
        out[f"{layer}.self_s"] = float(samples.sum())
        q = tail_percentile(samples.size)
        out[f"{layer}.self_tail_pct"] = q
        out[f"{layer}.self_p50_us"] = \
            float(np.median(samples)) * 1e6 if samples.size else 0.0
        out[f"{layer}.self_tail_us"] = \
            float(np.percentile(samples, q)) * 1e6 if q else 0.0
    scored = sum(len(v) for v in odin_scored.values())
    out["oodlab.odin_grid.useful_ratio"] = (
        sum(len(v) for v in odin_chosen.values()) / scored if scored else 0.0)
    not_per_pass = {"oodlab.odin_grid.useful_ratio"} | {
        f"{layer}.{stat}" for layer in LAYERS
        for stat in ("self_tail_pct", "self_p50_us", "self_tail_us")}
    return {k: v if k in not_per_pass else v / passes
            for k, v in out.items()}
