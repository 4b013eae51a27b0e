"""Experiment orchestration: training in task order, evaluation, calibration.

A run is fully determined by (config, seed): data construction, training,
scoring, and report serialization all flow from seeded generators, so two
runs of the same config produce byte-identical reports. Wall-clock timing is
printed, never written into the canonical report bytes.
"""

from __future__ import annotations

import ctypes
import json
import os
import zlib
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import backbones as bb
from . import composer as cp
from . import data as dt
from . import metrics as mt
from . import numkit as nk
from . import oodlab as ol
from . import theory as th
from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .config import ROUTES, SCORERS, ConfigError, ExperimentConfig

__all__ = [
    "ExperimentReport",
    "build_tasks",
    "train_run",
    "eval_run",
    "eval_grid",
    "calibrate_run",
    "write_report",
]


def build_tasks(cfg: ExperimentConfig) -> dt.TaskSequence:
    """Materialize the task sequence the config describes; a synthetic
    test_per_class of 0 means max(1, per_class // 4)."""
    t, d = cfg.tasks, cfg.data
    if d.source == "synthetic":
        return dt.synth_gaussian_tasks(
            t.count, t.classes_per_task, d.dim, d.separation, d.per_class,
            seed=cfg.seed,
            n_test_per_class=d.test_per_class or max(1, d.per_class // 4))
    n_classes = t.count * t.classes_per_task + len(t.drop_classes)
    idx = {key: _read_idx(key, getattr(d, key)) for key in
           ("train_images", "train_labels", "test_images", "test_labels")}
    for a, b, axes in (("train_images", "train_labels", slice(1)),
                       ("test_images", "test_labels", slice(1)),
                       ("test_images", "train_images", slice(1, 3))):
        if idx[a].shape[axes] != idx[b].shape[axes]:
            raise ConfigError(f"data.{a} of shape {idx[a].shape} does not "
                              f"pair with data.{b} of shape {idx[b].shape}")
    h, w = idx["train_images"].shape[1:]
    if h != w and cfg.loss.kind != "ce":  # the rotation losses turn images
        raise ConfigError(f"data.train_images holds {(h, w)} images: "
                          f"loss.kind = {cfg.loss.kind} needs square images")
    for key in ("train_labels", "test_labels"):
        low, high = idx[key].min(initial=0), idx[key].max(initial=0)
        if low < 0 or high >= n_classes:
            raise ConfigError(
                f"data.{key} has label {low if low < 0 else high} outside "
                f"the {n_classes} classes of tasks.count x "
                f"tasks.classes_per_task + len(tasks.drop_classes)")
    train, test = (dt.LabeledImageSet(idx[f"{p}_images"], idx[f"{p}_labels"],
                                      n_classes) for p in ("train", "test"))
    labels = [c for c in range(n_classes) if c not in t.drop_classes]
    if t.drop_classes:
        train, test = (dt._remap(s, labels) for s in (train, test))
    seq = dt.split_tasks(train, test, t.classes_per_task,
                         shuffle_seed=cfg.seed if t.shuffle_classes else None)
    for k, pair in enumerate(seq.tasks):
        for key, subset in zip(("train_labels", "test_labels"), pair):
            if not len(subset):
                raise ConfigError(f"data.{key} has no rows of task {k}")
        rows = np.bincount(pair[0].labels, minlength=seq.topology.sizes[k])
        if not rows.all():  # a class no training row teaches
            c = labels[seq.class_map[k][int(np.argmin(rows))]]
            raise ConfigError(f"data.train_labels has no rows of class {c} "
                              f"of task {k}")
    return seq


def _read_idx(key: str, path: str) -> np.ndarray:
    """data.key's IDX array: images (n, h, w) or labels (n,) as key names;
    a file that cannot be read, decoded or is of the other rank is a
    ConfigError naming the key and the path."""
    try:
        array = dt.load_idx(path)
    except (OSError, EOFError, ValueError, zlib.error) as e:
        raise ConfigError(f"data.{key} file {path}: "
                          f"{type(e).__name__}: {e}") from e
    rank, want = (3, "(n, h, w)") if key.endswith("images") else (1, "(n,)")
    if array.ndim != rank:
        raise ConfigError(f"data.{key} file {path} holds an array of shape "
                          f"{array.shape}, not {want}")
    return array


def _build_net(cfg: ExperimentConfig, input_dim: int) -> bb.MaskedNet:
    b = cfg.backbone
    return bb.build_masked_net(input_dim, b.hidden, isolation=b.kind,
                               seed=cfg.seed, s_max=b.s_max,
                               lambdas=b.lambdas, sparsity=b.sparsity)


def _til(net: bb.MaskedNet, seq: dt.TaskSequence, k: int) -> float:
    """Task k's TIL accuracy (percent) on its test set."""
    test = seq.tasks[k][1]
    return mt.cil_accuracy(
        np.argmax(ol.class_logits(net, test.images, k), axis=1), test.labels)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_run(cfg: ExperimentConfig, out_dir) -> dict:
    """Train all tasks in task order; one checkpoint per finished task plus a
    final checkpoint carrying the accuracy history. Returns artifact paths.

    Tasks of a state with independent tasks train side by side, one
    process per task while they are at most ``_PROCESSES_PER_CORE`` per
    usable core, else one block of tasks per core (``_forked_tasks``);
    every file holds the bytes of a one-process run."""
    seq = build_tasks(cfg)  # first: a refused config leaves no out_dir
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net = _build_net(cfg, seq.tasks[0][0].images[0].size)
    independent = net.isolation.independent_tasks

    til: list[list[float]] = []  # til[a][j]: task j's TIL after task a
    trace: dict = {"tasks": [], "config": cfg.text, "seed": cfg.seed}
    b, lc = cfg.backbone, cfg.loss
    # a loss phase's epochs or lr of 0 means the backbone's
    args = dict(loss=lc.kind, epochs=b.epochs, lr=b.lr, batch_size=b.batch,
                seed=cfg.seed,
                contrastive_epochs=lc.contrastive_epochs or b.epochs,
                head_epochs=lc.head_epochs or b.epochs,
                head_lr=lc.head_lr or b.lr, contrastive_tau=lc.temperature,
                flip_prob=lc.flip_prob, noise_sigma=lc.noise_sigma)

    def train(k):  # in the process that trains task k: its record
        stats = bb.train_task(net, k, seq.tasks[k][0], **args)
        masks = net.isolation.masks[k] if independent else None
        return masks, net.heads[k], stats, _til(net, seq, k)

    paths = []
    with _forked_tasks(seq.n_tasks, _PROCESSES_PER_CORE if independent else 0,
                       train, "training") as trained:
        for k, (masks, head, stats, own) in trained:
            if k not in net.finished:  # trained in a forked child
                net.isolation.masks[k], net.heads[k] = masks, head
                net.finished.append(k)
            # an independent task's TIL reads only what its training left,
            # so it is read once; HAT's later tasks move earlier tasks' units
            til.append([til[j][j] if independent else _til(net, seq, j)
                        for j in range(k)] + [own])
            trace["tasks"].append({"task": k,
                                   "epochs": [asdict(e) for e in stats],
                                   "til_so_far": til[k]})
            path = out / f"task{k + 1}.clwb"
            save_checkpoint(path, net, extra=_extra(cfg, til))
            paths.append(str(path))

    final = out / "final.clwb"
    save_checkpoint(final, net, extra=_extra(cfg, til))
    write_atomic(out / "trace.json",
                 json.dumps(trace, sort_keys=True, indent=1).encode())
    return {"checkpoints": paths, "final": str(final),
            "trace": str(out / "trace.json")}


# Independent tasks train one per process while they number at most this
# many per usable core, else in one block per core. A process per task saves
# under one task's time against one block per core (the block that carries
# a remainder task), so past a few tasks per core it is lost in run-to-run
# spread while every process holds its own pages: 17 supermask tasks on 2
# vCPUs trained in 1.05 s as 2 blocks, 1.03 s as 8 and 1.08 s as 17.
_PROCESSES_PER_CORE = 4


@contextmanager
def _forked_tasks(n: int, per_core: int, work: Callable, doing: str):
    """Yield an iterator of ``(k, work(k))`` over tasks 0..n-1 in task order.

    Where ``fork`` exists and more than one core is usable, each task runs
    in its own block when n is at most per_core x usable cores, else the
    tasks split into one contiguous block per usable core; per_core 0 asks
    for one block. This process runs the first block as the iterator
    reaches it. A forked child runs each later block on its copy of this
    process, so nothing is pickled into it, and sends one ``(results,
    error)`` message: work's result per task it ran, and the exception that
    stopped the block or None. A task that raises, here or in a child,
    raises here with its type and message once the results before it are
    yielded; a child that dies without sending raises
    ``ChildProcessError`` naming what it was doing. Every child is
    terminated and joined on any exit.

    A split needs numpy's OpenBLAS, whose threads it holds to one per
    process until it exits; with another BLAS the tasks run in one block."""
    usable = getattr(os, "sched_getaffinity", None)
    cores = len(usable(0)) if usable and hasattr(os, "fork") else 1
    count = 1 if cores < 2 or not per_core else \
        n if n <= per_core * cores else cores
    # every process would start a BLAS thread per core, so a split runs only
    # where it can hold each of them to one
    blas = _blas_threads() if count > 1 else None
    if blas is None:
        count = 1
    blocks = [range(n * i // count, n * (i + 1) // count)
              for i in range(count)]
    children = []  # (block, process, receiving end)

    def stream():
        for k in blocks[0]:
            yield k, work(k)
        for block, proc, recv in children:
            try:
                results, error = recv.recv()
            except EOFError:
                proc.join()
                raise ChildProcessError(
                    f"the process {doing} tasks {list(block)} exited with "
                    f"code {proc.exitcode} before it sent task "
                    f"{block[0]}") from None
            yield from zip(block, results)
            if error is not None:
                raise error

    if count > 1:
        threads = blas[0]()
        blas[1](1)  # here and, inherited, in every child
    try:
        if count > 1:
            import multiprocessing  # a one-block run never loads it
            ctx = multiprocessing.get_context("fork")
            for block in blocks[1:]:
                recv, send = ctx.Pipe(duplex=False)
                proc = ctx.Process(target=_run_block,
                                   args=(send, work, block))
                try:
                    proc.start()
                    children.append((block, proc, recv))
                finally:
                    send.close()  # so a child's exit reads as EOF here
        yield stream()
    finally:
        for _, proc, recv in children:
            proc.terminate()
            proc.join()
            proc.close()
            recv.close()
        if count > 1:
            blas[1](threads)


def _blas_threads():
    """The thread-count getter and setter of the OpenBLAS this process
    loaded (numpy's), or None when it loaded none that has them."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)  # the loaded copy, not a second one
        for name in ("scipy_openblas_{}_num_threads64_",
                     "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(op), None)
                        for op in ("get", "set"))
            if get and put:
                return get, put
    return None


def _run_block(send, work: Callable, block: range) -> None:
    """A forked child's work: work(k) for each of block's tasks in order,
    then one ``(results, error)`` message, the error being the exception
    that stopped the block or None. It sends only once the block is done:
    a large result overfills the pipe, and a blocking send would hold back
    the next task."""
    results, error = [], None
    try:
        for k in block:
            results.append(work(k))
    except Exception as e:
        error = e
    send.send((results, error))


def _extra(cfg: ExperimentConfig, til: list[list[float]]) -> dict:
    """The checkpoint's audit fields; accuracy_matrix[j][a] is task j's TIL
    after task a, None for a < j."""
    return {"config": cfg.text, "seed": cfg.seed,
            "accuracy_matrix": [[row[j] if j < len(row) else None
                                 for row in til] for j in range(len(til))]}


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def _scorer_params(cfg: ExperimentConfig, net: bb.MaskedNet,
                   seq: dt.TaskSequence) -> Callable[[int], ol.OdinParams]:
    """Task k -> its ODIN settings: fixed from config, or grid-searched by
    validation AUC, each candidate scored once over the pooled held-out
    slices of all tasks' training data and judged by ``_task_auc``; the
    first candidate of highest AUC wins (on one task, every candidate
    scores 0.5). The slices are checked, and a fraction that empties a
    class refused, before the first task's grid row runs."""
    if not cfg.ood.odin_grid:
        p = ol.OdinParams(cfg.ood.odin_tau, cfg.ood.odin_eps)
        return lambda k: p
    cands = [ol.OdinParams(tau, eps)
             for tau in ol.ODIN_TAU_GRID for eps in ol.ODIN_EPS_GRID]
    held_out = []
    for k, (train, _) in enumerate(seq.tasks):
        try:
            held_out.append(dt.validation_split(
                train, cfg.ood.validation_fraction, seed=cfg.seed)[1])
        except ValueError as e:  # the fraction of a class rounds to no row
            raise ConfigError(
                f"ood.validation_fraction: task {k}: {e}") from e
    pooled, owner, _ = _pooled(held_out)

    def grid_row(k):  # frees task k's OdinRows before the next is built
        rows = ol.OdinRows(net, pooled, k, ol.ODIN_TAU_GRID)
        aucs = [_task_auc(ol.odin_score(net, rows, k, c), owner, k)
                for c in cands]
        return cands[int(np.argmax(aucs))]
    return grid_row


def _pooled(sets: list[dt.LabeledImageSet]
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every task's rows stacked in task order, with each row's owning task
    and its within-task label."""
    return (np.concatenate([s.images for s in sets]),
            np.repeat(np.arange(len(sets)), [len(s) for s in sets]),
            np.concatenate([s.labels for s in sets]))


def _task_auc(scores: np.ndarray, owner: np.ndarray, k: int) -> float:
    """Task k's detector judged on pooled rows: the AUC of task k's own rows
    against every other task's rows under task k's scores; 0.5 when there
    are no other rows, as the separation is then undefined."""
    own = owner == k
    if own.all():
        return 0.5
    return mt.auc(mt.ScoredPopulation(scores[own], scores[~own]))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    """Everything one evaluation produces; serialized to JSON and CSV."""

    seed: int
    backbone: str
    loss: str
    scorer: str
    route: str
    n_test: int
    til_per_task: list[float]
    til_avg: float
    cil: float
    auc_per_task: list[float]
    auc_avg: float
    forgetting: list[float]
    h_wp_mean: float
    h_tp_mean: float
    h_cil_mean: float
    odin_params: dict
    config_text: str
    clwb_version: str = __version__
    format_version: int = 1  # the report schema's, not the checkpoint's
    notes: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    CSV_COLUMNS = ("backbone", "loss", "scorer", "route", "auc_avg", "cil",
                   "til_avg", "forgetting_final", "seed")

    def csv_row(self) -> list[str]:
        forget = self.forgetting[-1] if self.forgetting else 0.0
        return [self.backbone, self.loss, self.scorer, self.route,
                f"{self.auc_avg:.4f}", f"{self.cil:.1f}", f"{self.til_avg:.1f}",
                f"{forget:.1f}", str(self.seed)]


def eval_run(cfg: ExperimentConfig, checkpoint_path, *, scorer: str | None = None,
             route: str | None = None,
             calibration: cp.CalibrationParams | None = None
             ) -> ExperimentReport:
    """The one-cell ``eval_grid``."""
    return eval_grid(cfg, checkpoint_path, scorers=[scorer], routes=[route],
                     calibration=calibration)[0]


def eval_grid(cfg: ExperimentConfig, checkpoint_path, *,
              scorers: list[str | None], routes: list[str | None],
              calibration: cp.CalibrationParams | None = None
              ) -> list[ExperimentReport]:
    """Score a trained checkpoint, which is never written: one report per
    (scorer, route) cell, scorer-major, from one load and one test-set
    forward per task. None names the config's value, calibration applies to
    the calibrated cells, and all is checked before any forward."""
    net, meta, seq = _open(cfg, checkpoint_path)
    routes, calibration = _route_args(cfg, seq, routes, calibration)
    scorers = [_scorer_arg(cfg, net, scorer) for scorer in scorers]
    return [_route_report(cfg, scored, route, calibration)
            for scored in _score_loaded(cfg, net, meta, seq, scorers)
            for route in routes]


def _open(cfg: ExperimentConfig, checkpoint_path):
    """A checkpoint's (net, meta) and the config's tasks, checked to fit."""
    net, meta = load_checkpoint(checkpoint_path)
    seq = build_tasks(cfg)
    _check_fit(net, seq)
    return net, meta, seq


def _check_fit(net: bb.MaskedNet, seq: dt.TaskSequence) -> None:
    """A loaded checkpoint fits the config when its trunk takes the config's
    data width and its finished tasks are the config's tasks, each head with
    the task's class count."""
    width = net.trunk.weights[0].shape[1]
    want = seq.tasks[0][0].images[0].size  # one sample's features or pixels
    if width != want:
        raise ConfigError(f"checkpoint trunk has input width {width} for "
                          f"{want} in the config")
    if len(net.finished) != seq.n_tasks:
        raise ConfigError(f"checkpoint has {len(net.finished)} finished "
                          f"tasks for {seq.n_tasks} tasks in the config")
    for k in sorted(net.finished):  # the loader refuses a repeated task
        if not 0 <= k < seq.n_tasks:
            raise ConfigError(f"checkpoint finished task {k} is not one of "
                              f"the config's tasks 0-{seq.n_tasks - 1}")
    for k, size in enumerate(seq.topology.sizes):
        classes = net.heads[k].classes
        if classes != size:
            raise ConfigError(f"checkpoint task {k} head has {classes} "
                              f"classes for {size} in the config")


def _route_args(cfg: ExperimentConfig, seq: dt.TaskSequence,
                routes: list[str | None],
                calibration: cp.CalibrationParams | None
                ) -> tuple[list[str], cp.CalibrationParams | None]:
    """The effective routes and the calibration of their calibrated cells,
    checked before any scoring; route calibrated needs parameters."""
    routes = [route or cfg.predict.route for route in routes]
    if not set(routes) <= set(ROUTES):
        raise ValueError(f"unknown route in {routes}")
    if "calibrated" not in routes:
        if calibration is not None:
            raise ConfigError(f"calibration parameters apply only to route "
                              f"'calibrated', not "
                              f"{', '.join(map(repr, routes))}")
    elif calibration is None:
        raise ConfigError("route 'calibrated' needs calibration parameters: "
                          "pass --calibration")
    elif calibration.alpha.size != seq.n_tasks:
        raise ConfigError(f"calibration has {calibration.alpha.size} task "
                          f"entries for {seq.n_tasks} tasks")
    return routes, calibration


def _scorer_arg(cfg: ExperimentConfig, net: bb.MaskedNet,
                scorer: str | None) -> str:
    """The effective scorer, checked against the loaded heads before any
    scoring: rotation-ensemble needs a rotation head on every task."""
    scorer = scorer or cfg.ood.scorer
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}")
    if scorer == "rotation-ensemble":
        for k, head in sorted(net.heads.items()):
            if head.kind != "rotation":
                raise ConfigError(f"scorer 'rotation-ensemble': task {k} "
                                  f"head has no rotation slots")
    return scorer


@dataclass
class _Scored:
    """The route-independent part of an evaluation: each task's class logits
    and scores over the whole test set, and the report fields that follow
    from them alone."""

    report_fields: dict
    topo: th.TaskTopology
    test_task_of: np.ndarray
    truth_local: np.ndarray
    per_task_logits: list[np.ndarray]
    per_task_scores: list[np.ndarray]


# A fixed-eps ODIN cell scores its tasks side by side only when one trunk
# forward of its pooled test rows takes at least this many multiply-adds.
# On 2 vCPUs, a HAT cell with an 8-64-64 trunk read 18.9 ms in one process
# and 18.2 ms split at 1,000 rows (4.6M), 36.5 and 28.5 ms at 2,000 (9.2M);
# example.ini's (128 weights) lost at every size up to 1,200 rows, as a
# fork and join costs about 4 ms.
_FORK_MACS = 5_000_000


def _score_loaded(cfg: ExperimentConfig, net: bb.MaskedNet, meta: dict,
                  seq: dt.TaskSequence, scorers: list[str]) -> list[_Scored]:
    """Each scorer's _Scored over the pooled test sets (scorers as
    ``_scorer_arg`` returns them). Per task, every scorer post-processes one
    forward at the test rows (a plain head's class logits, a rotation head's
    degree-0 slots); only other quarter turns and ODIN's perturbed rows run
    their own. When ODIN takes an input gradient (the grid, or eps > 0
    over at least ``_FORK_MACS`` per forward), each task's scoring, grid
    row first, runs side by side with other tasks', one block per usable
    core (``_forked_tasks``)."""
    images, test_task_of, truth_local = _pooled([t for _, t in seq.tasks])
    odin = _scorer_params(cfg, net, seq) if "odin" in scorers else None

    def task_scores(k):  # frees task k's forward before the next task's
        if odin:
            p = odin(k)
            rows = ol.OdinRows(net, images, k, [p.tau] if p.eps else [])
        raw = rows.z if odin else bb.task_raw_logits(net, images, k)
        logits = ol.ensemble_logits(net, images, k, raw) \
            if net.heads[k].kind == "rotation" else raw
        score = {"msp": lambda: ol.msp_score(raw),
                 "maxlogit": lambda: ol.maxlogit_score(raw),
                 "odin": lambda: ol.odin_score(net, rows, k, p),
                 "rotation-ensemble": lambda: ol.msp_score(logits)}
        return (p if odin else None, logits,
                *(score[scorer]() for scorer in scorers))

    tasks = range(seq.n_tasks)
    # a fork costs more than a task's scoring saves unless that takes an
    # input gradient: the grid's, or a fixed ODIN eps > 0 over enough rows
    macs = len(images) * sum(w.size for w in net.trunk.weights)
    gradient = "odin" in scorers and (
        cfg.ood.odin_grid or (cfg.ood.odin_eps > 0 and macs >= _FORK_MACS))
    with _forked_tasks(seq.n_tasks, 1 if gradient else 0, task_scores,
                       "scoring") as scored_tasks:
        per_task = [result for _, result in scored_tasks]
    params, per_task_logits, *per_scorer = map(list, zip(*per_task))

    til_per_task, til_avg = mt.til_accuracy(
        [per_task_logits[k][test_task_of == k].argmax(axis=1) for k in tasks],
        [truth_local[test_task_of == k] for k in tasks])

    forgetting = []
    if "accuracy_matrix" in meta.get("extra", {}):
        forgetting = [mt.forgetting_rate(meta["extra"]["accuracy_matrix"], t)
                      for t in range(2, len(meta["finished"]) + 1)]

    scored = []
    for scorer, scores in zip(scorers, per_scorer):
        auc_per_task = [_task_auc(scores[k], test_task_of, k) for k in tasks]
        report_fields = dict(
            seed=cfg.seed, backbone=net.kind, loss=cfg.loss.kind,
            scorer=scorer, n_test=len(test_task_of),
            til_per_task=til_per_task, til_avg=til_avg,
            auc_per_task=auc_per_task, auc_avg=mt.avg_auc(auc_per_task),
            forgetting=forgetting, config_text=cfg.text,
            odin_params={str(k): {"tau": p.tau, "eps": p.eps}
                         for k, p in enumerate(params) if scorer == "odin"})
        scored.append(_Scored(report_fields, seq.topology, test_task_of,
                              truth_local, per_task_logits, scores))
    return scored


def _route_report(cfg: ExperimentConfig, s: _Scored, route: str,
                  calibration: cp.CalibrationParams | None
                  ) -> ExperimentReport:
    """The report of one route over a scored test set (route and
    calibration as ``_route_args`` returns them).

    One ``th.entropy_report`` pass gives every test row's prediction and
    the entropies of the route's (implied) WP/TP split. concat-argmax and
    calibrated split the softmax over the concatenated (calibrated) logits
    by the theorem-4 construction; compose multiplies the per-task softmax
    at temperature nu (WP) by the configured TP.
    """
    logits, fallbacks = s.per_task_logits, 0
    if route == "compose":
        nu = cfg.predict.nu
        wp = np.concatenate([cp.wp_temperature(z, nu) for z in logits], axis=1)
        log_wp = np.concatenate([nk.log_softmax(z / nu) for z in logits],
                                axis=1)
        tp, fallbacks = _tp_for(cfg, logits, s.per_task_scores)
        rows = th.entropy_report(wp, log_wp, s.topo, s.test_task_of,
                                 s.truth_local, tp=tp)
    else:
        concat = cp.calibrated_logits(logits, calibration) \
            if route == "calibrated" else np.concatenate(logits, axis=1)
        rows = th.entropy_report(nk.softmax(concat), nk.log_softmax(concat),
                                 s.topo, s.test_task_of, s.truth_local)
    # flat class ids, the index space of the concatenated head outputs
    truth_global = np.asarray(s.topo.offsets)[s.test_task_of] + s.truth_local
    return ExperimentReport(
        **s.report_fields, route=route,
        cil=mt.cil_accuracy(rows.predictions, truth_global),
        h_wp_mean=float(np.mean(rows.h_wp)),
        h_tp_mean=float(np.mean(rows.h_tp)),
        h_cil_mean=float(np.mean(rows.h_cil)),
        notes={"tp_uniform_fallbacks": fallbacks} if fallbacks else {},
    )


def _tp_for(cfg, per_task_logits, per_task_scores) -> tuple[np.ndarray, int]:
    """(n, K) task distribution of the configured construction, plus its
    count of uniform-TP fallback rows (``cp.tp_from_profile``)."""
    kind = cfg.predict.tp
    if kind == "sigmoid-maxlogit":
        return cp.tp_sigmoid_maxlogit(per_task_logits)
    if kind == "maxsoftmax-temp":
        return cp.tp_maxsoftmax_temperature(per_task_logits, cfg.predict.tau)
    if kind == "scorer":
        return cp.tp_from_profile(np.stack(per_task_scores, axis=1))
    raise ValueError(f"unknown tp construction {kind!r}")


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def calibrate_run(cfg: ExperimentConfig, checkpoint_path
                  ) -> tuple[cp.CalibrationParams, ExperimentReport,
                             ExperimentReport, list[float]]:
    """Fit per-task (alpha, beta) on a memory buffer and report the CIL
    before (plain concat) and after (calibrated concat), both routes over
    one scoring of the test set."""
    net, meta, seq = _open(cfg, checkpoint_path)
    # scored first: an ODIN grid's usage error comes before any forward
    scored, = _score_loaded(cfg, net, meta, seq, [_scorer_arg(cfg, net, None)])
    rng = np.random.default_rng([cfg.seed, 99])
    pools = {seq.topology.flat(k, j): train.images[train.labels == j]
             for k, (train, _) in enumerate(seq.tasks)
             for j in range(train.n_classes)}
    buffer = cp.MemoryBuffer.build(cfg.calibrate.buffer, pools, rng)
    params, history = cp.fit_calibration(
        [ol.class_logits(net, buffer.inputs, k) for k in range(seq.n_tasks)],
        buffer.labels, iters=cfg.calibrate.iters, lr=cfg.calibrate.lr,
        batch_size=cfg.calibrate.batch, seed=cfg.seed)
    before = _route_report(cfg, scored, "concat-argmax", None)
    after = _route_report(cfg, scored, "calibrated", params)
    return params, before, after, history


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def write_report(report: ExperimentReport, out_dir, stem: str
                 ) -> tuple[str, str]:
    """Emit canonical JSON and a one-row CSV; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{stem}.json"
    csv_path = out / f"{stem}.csv"
    write_atomic(json_path, report.to_json().encode())
    lines = [",".join(ExperimentReport.CSV_COLUMNS),
             ",".join(report.csv_row())]
    write_atomic(csv_path, ("\n".join(lines) + "\n").encode())
    return str(json_path), str(csv_path)
