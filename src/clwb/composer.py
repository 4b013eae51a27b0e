"""Class-incremental prediction from per-task heads.

Routes, all consuming a list of per-task (n, c_k) class-logit arrays: plain
concatenated argmax; the probabilistic composition of per-task softmax (WP)
with a task distribution derived from task-membership scores (TP); and an
affine per-task calibration of the logits fitted on a small memory buffer.
Ties always break toward the lowest index so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from . import oodlab as ol
from . import theory as th

__all__ = [
    "CalibrationParams",
    "MemoryBuffer",
    "predict_concat_argmax",
    "tp_from_profile",
    "tp_sigmoid_maxlogit",
    "wp_temperature",
    "tp_maxsoftmax_temperature",
    "compose_full",
    "calibrated_logits",
    "calibration_loss",
    "fit_calibration",
]

@dataclass
class CalibrationParams:
    """Per-task affine logit adjustment alpha_k * f_k + beta_k, and the
    samples of each global class in the buffer it was fit on (None for
    parameters read from a file)."""

    alpha: np.ndarray
    beta: np.ndarray
    buffer_class_counts: list[int] | None = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        self.beta = np.asarray(self.beta, dtype=np.float64)
        if self.alpha.shape != self.beta.shape or self.alpha.ndim != 1:
            raise ValueError("alpha/beta must be equal-length vectors")
        if not (np.isfinite(self.alpha).all() and np.isfinite(self.beta).all()):
            raise ValueError("calibration parameters must be finite")


@dataclass
class MemoryBuffer:
    """Class-balanced replay samples: inputs (n, ...) and labels (n,), the
    samples' global classes."""

    inputs: np.ndarray
    labels: np.ndarray

    @classmethod
    def build(cls, capacity: int, per_class_pools: dict[int, np.ndarray],
              rng: np.random.Generator) -> "MemoryBuffer":
        """Fill to capacity, balanced within one sample per class.

        per_class_pools maps global class -> inputs array. Classes take
        their samples in ascending order, each from one permutation of its
        pool; low class ids receive the remainder slots.
        """
        classes = sorted(per_class_pools)
        if not classes:
            raise ValueError("no classes to buffer")
        base, extra = divmod(capacity, len(classes))
        inputs, labels = [], []
        for rank, c in enumerate(classes):
            pool = np.asarray(per_class_pools[c], dtype=np.float64)
            quota = min(base + (1 if rank < extra else 0), len(pool))
            inputs.append(pool[rng.permutation(len(pool))[:quota]])
            labels.append(np.full(quota, c, dtype=np.intp))
        return cls(np.concatenate(inputs), np.concatenate(labels))


def predict_concat_argmax(per_task_logits: list) -> int:
    """Global argmax over the concatenated head outputs."""
    if not per_task_logits:
        raise ValueError("no task logits")
    return int(np.argmax(np.concatenate(
        [np.asarray(v, dtype=np.float64) for v in per_task_logits])))


def tp_from_profile(profile) -> tuple[np.ndarray, int]:
    """The TP rule of every construction: (n, K) task distributions of
    detector profiles clipped to [0, 1], with a uniform TP for each all-zero
    row in place of an undefined normalization, and the count of such rows."""
    q = np.clip(np.asarray(profile, dtype=np.float64), 0.0, 1.0)
    zero = ~q.any(axis=-1)
    q[zero] = 1.0
    return th.tp_from_ood(q), int(zero.sum())


def tp_sigmoid_maxlogit(per_task_logits: list) -> tuple[np.ndarray, int]:
    """``tp_from_profile`` of the detectors sigmoid(max f_k) of the (n, c_k)
    per-task logits."""
    return tp_from_profile(np.stack([ol.maxlogit_score(v)
                                     for v in per_task_logits], axis=1))


def wp_temperature(logits, nu: float) -> np.ndarray:
    """softmax(logits / nu); nu -> 0 sharpens toward the argmax."""
    if nu <= 0:
        raise ValueError(f"nu must be positive, got {nu}")
    return nk.softmax(np.asarray(logits, dtype=np.float64) / nu)


def tp_maxsoftmax_temperature(per_task_logits: list,
                              tau: float) -> tuple[np.ndarray, int]:
    """``tp_from_profile`` of the detectors max_j softmax(f_k / tau)_j of
    the (n, c_k) per-task logits."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    return tp_from_profile(np.stack(
        [nk.softmax(np.asarray(v) / tau).max(axis=-1)
         for v in per_task_logits], axis=-1))


def compose_full(wp: list, tp, topo: th.TaskTopology
                 ) -> tuple[np.ndarray, int]:
    """Composed global distribution wp[k][j] * tp[k] and its argmax class."""
    cil = th.compose_cil(np.concatenate(wp)[None], np.asarray(tp)[None],
                         topo)[0]
    return cil, int(np.argmax(cil))


def calibrated_logits(per_task_logits: list,
                      params: CalibrationParams) -> np.ndarray:
    """Concatenation of alpha_k * f_k + beta_k (along the last axis, so
    (n, c_k) arrays give one calibrated row per instance)."""
    if len(per_task_logits) != params.alpha.size:
        raise ValueError(f"{len(per_task_logits)} tasks vs "
                         f"{params.alpha.size} calibration entries")
    return np.concatenate([params.alpha[k] * np.asarray(v, dtype=np.float64)
                           + params.beta[k]
                           for k, v in enumerate(per_task_logits)], axis=-1)


def _columns(widths: list[int]) -> tuple[np.ndarray, list[slice]]:
    """Each column's task and each task's span of columns."""
    ends = np.cumsum(widths).tolist()
    return (np.concatenate([np.full(w, k) for k, w in enumerate(widths)]),
            [slice(i, j) for i, j in zip([0] + ends, ends)])


def calibration_loss(stacked: np.ndarray, labels: np.ndarray,
                     columns: tuple[np.ndarray, list[slice]],
                     alpha: np.ndarray, beta: np.ndarray
                     ) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy of softmax over the calibrated concatenation plus its
    gradients w.r.t. (alpha, beta).

    stacked (n, total_width) holds each sample's concatenated per-task
    logits, and columns is ``_columns(widths)`` of the per-task column
    spans.
    """
    task_of_col, spans = columns
    z = stacked * alpha[task_of_col] + beta[task_of_col]
    return _loss_gradients(stacked, spans, *nk.softmax_ce(z, labels))


def _loss_gradients(stacked: np.ndarray, spans: list[slice], loss: float,
                    dz: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """calibration_loss's result from the softmax-CE of its logits."""
    d_alpha = np.array([(dz[:, c] * stacked[:, c]).sum() for c in spans])
    d_beta = np.array([dz[:, c].sum() for c in spans])
    return loss, d_alpha, d_beta


def fit_calibration(per_task_logits: list, labels, *, iters: int, lr: float,
                    batch_size: int, seed: int
                    ) -> tuple[CalibrationParams, list[float]]:
    """SGD on the buffer cross-entropy of the calibrated concatenation.

    per_task_logits holds one (n, c_k) class-logit array per task for the n
    buffer samples (whatever the configured prediction path emits) and
    labels their (n,) global classes; calibration never touches model
    weights. Returns the best parameters seen by full-buffer loss, so the
    final loss never exceeds the initial, with the buffer's per-class
    sample counts, plus the per-iteration loss history. Each iteration's
    full-buffer evaluation forms the loss alone.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if labels.size == 0:
        raise ValueError("empty memory buffer")
    per_task = [np.asarray(v, dtype=np.float64) for v in per_task_logits]
    n_tasks = len(per_task)
    widths = [v.shape[1] for v in per_task]
    stacked = np.concatenate(per_task, axis=1)
    task_of_col, spans = columns = _columns(widths)

    rng = np.random.default_rng(seed)
    alpha = np.ones(n_tasks)
    beta = np.zeros(n_tasks)
    # the one checked call: every later batch is rows of these labels
    initial = calibration_loss(stacked, labels, columns, alpha, beta)[0]
    best = (initial, alpha.copy(), beta.copy())
    history = [initial]
    n = len(labels)
    size = min(batch_size, n)
    batch_rows, all_rows = np.arange(size), np.arange(n)
    for _ in range(iters):
        idx = rng.choice(n, size=size, replace=False)
        batch = stacked[idx]
        z = batch * alpha[task_of_col] + beta[task_of_col]
        _, d_alpha, d_beta = _loss_gradients(
            batch, spans, *nk._softmax_ce(z, labels[idx], batch_rows))
        alpha -= lr * d_alpha
        beta -= lr * d_beta
        p = nk.softmax(stacked * alpha[task_of_col] + beta[task_of_col])
        current = nk._nll(p[all_rows, labels])
        history.append(current)
        if current < best[0]:
            best = (current, alpha.copy(), beta.copy())
    counts = np.bincount(labels, minlength=sum(widths)).tolist()
    return CalibrationParams(best[1], best[2], counts), history
