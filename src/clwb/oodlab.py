"""Task-membership scoring and its training-time machinery.

Scorers map (model, input rows, task) to one confidence per row that the
row belongs to the task: max softmax, ODIN (temperature scaling plus a
signed input perturbation toward higher confidence, both applied only at
test time), and a rotation ensemble for heads trained with quarter-turn
classes.
The rotation/contrastive builders here feed the backbones' rotation-CE and
contrastive training modes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import backbones as bb
from . import numkit as nk
from .data import LabeledImageSet

__all__ = [
    "DegenerateBatchError",
    "OdinParams",
    "OdinRows",
    "msp_score",
    "odin_perturb",
    "odin_score",
    "rotate90",
    "build_rotation_batch",
    "sup_con_loss",
    "finetune_rotation_head",
    "ensemble_logits",
    "class_logits",
]

ODIN_TAU_GRID = (1.0, 5.0, 10.0, 100.0, 1000.0)
ODIN_EPS_GRID = (0.0, 0.0007, 0.0014, 0.004)


class DegenerateBatchError(ValueError):
    """A contrastive batch with a sample that has no positive partner."""


@dataclass(frozen=True)
class OdinParams:
    """Per-task ODIN post-processing knobs: the softmax temperature tau and
    the input step eps."""

    tau: float
    eps: float

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        if not 0 <= self.eps < np.inf:
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")


def _logit_rows(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.size == 0:
        raise ValueError(f"expected nonempty (n, c) logits, got shape {z.shape}")
    return z


def msp_score(logits) -> np.ndarray:
    """Max softmax probability of each row of (n, c) logits."""
    return nk.softmax(_logit_rows(logits)).max(axis=1)


def maxlogit_score(logits) -> np.ndarray:
    """sigmoid(max logit) of each row of (n, c) logits; a max logit below
    about -709 reads 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-_logit_rows(logits).max(axis=1)))


class OdinRows:
    """ODIN's eps-free work on a row batch x, shared by a grid's candidates:
    the logits z at x through task's path and, per tau in taus, the
    perturbation direction sign(-g) of the input gradient g of
    log softmax(z/tau)[argmax z]. Neither the forward cache nor g is kept."""

    def __init__(self, net: bb.MaskedNet, x, task: int, taus):
        if task not in net.heads:
            raise ValueError(f"unknown task {task}")
        self.net, self.task, self.x = net, task, np.asarray(x, dtype=float)
        feats, cache, trunk = bb.task_features(net, self.x, task)
        self.z, self.direction = bb._head_logits(net.heads[task], feats), {}
        for tau in taus:
            dlogits = -nk.softmax(self.z / tau) / tau
            dlogits[np.arange(len(self.z)), self.z.argmax(axis=1)] += 1.0 / tau
            g = nk.input_gradient(trunk, cache,
                                  dlogits @ net.heads[task].weight)
            self.direction[tau] = np.sign(-g).reshape(self.x.shape)


def _check_rows(net, rows, task: int) -> None:
    if not isinstance(rows, OdinRows):
        raise TypeError(f"ODIN scores an OdinRows, not a {type(rows).__name__}")
    if rows.net is not net or rows.task != task:
        raise ValueError(f"OdinRows of another net or task than task {task}")


def odin_perturb(net: bb.MaskedNet, rows: OdinRows, task: int,
                 params: OdinParams) -> np.ndarray:
    """Nudge the rows' input against the sign of -grad log s(x; tau)_yhat.

    A confidence-raising step of size eps per input unit; eps = 0 returns a
    copy of the input. With eps > 0 the rows must hold params.tau.
    """
    _check_rows(net, rows, task)
    if params.eps == 0.0:
        return rows.x.copy()
    if params.tau not in rows.direction:
        raise ValueError(f"OdinRows hold no input gradient for tau "
                         f"{params.tau}")
    return rows.x - params.eps * rows.direction[params.tau]


def odin_score(net: bb.MaskedNet, rows: OdinRows, task: int,
               params: OdinParams) -> np.ndarray:
    """Max temperature-scaled softmax of head k at odin_perturb's output."""
    _check_rows(net, rows, task)
    if params.eps == 0.0:
        return msp_score(rows.z / params.tau)
    x_t = odin_perturb(net, rows, task, params)
    return msp_score(bb.task_raw_logits(net, x_t, task) / params.tau)


# ---------------------------------------------------------------------------
# Rotation augmentation
# ---------------------------------------------------------------------------

def rotate90(image, quarter_turns: int):
    """Counterclockwise rotation of each image of an (n, h, h) batch by
    90 degrees * quarter_turns; the grid must be square so four turns
    compose to the identity."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[1] != img.shape[2]:
        raise ValueError(f"rotation needs an (n, h, h) batch of square "
                         f"images, got shape {img.shape}")
    return np.rot90(img, k=quarter_turns % 4, axes=(1, 2))


@functools.cache
def _quarter_turn_index(h: int, w: int) -> np.ndarray:
    """(4, h*w) flat pixel index: row r gathers rotate90(., r) of a
    flattened (h, w) image. Raises as rotate90 does for a non-square grid."""
    grid = np.arange(h * w, dtype=np.float64).reshape(1, h, w)
    index = np.stack([rotate90(grid, r).ravel()
                      for r in range(4)]).astype(np.intp)
    index.setflags(write=False)
    return index


def build_rotation_batch(images, labels, *, rng: np.random.Generator,
                         flip_prob: float, noise_sigma: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Augment N samples into the 8N rotation-labeled contrastive batch.

    Each sample yields two views (random horizontal flip + clipped Gaussian
    pixel noise), each view all four quarter-turns; rotation r of class y is
    labeled y*4 + r, a bijection onto 0..4C-1 when all classes appear. Output
    order: sample-major, then view, then rotation. Per sample and view, rng
    draws the flip (rng.random()) and then the noise (rng.normal, only when
    noise_sigma > 0), so a seed fixes the batch.
    """
    imgs = np.asarray(images, dtype=np.float64)
    ys = np.asarray(labels).astype(np.intp)
    if imgs.ndim != 3:
        raise ValueError("expected a batch of 2-D images")
    if len(imgs) == 0:
        raise ValueError("empty image batch")
    if ys.shape != (len(imgs),):
        raise ValueError(f"labels of shape {ys.shape} for {len(imgs)} images")
    turns = _quarter_turn_index(*imgs.shape[1:])
    flipped = imgs[:, :, ::-1]
    views = np.empty((2 * len(imgs),) + imgs.shape[1:])
    for v in range(len(views)):
        views[v] = flipped[v // 2] if rng.random() < flip_prob else imgs[v // 2]
        if noise_sigma > 0:
            views[v] += rng.normal(0.0, noise_sigma, imgs.shape[1:])
    if noise_sigma > 0:
        np.clip(views, 0.0, 1.0, out=views)
    out = views.reshape(len(views), -1)[:, turns]
    out_y = np.repeat(ys * 4, 8) + np.tile(np.arange(4), 2 * len(imgs))
    return out.reshape((-1,) + imgs.shape[1:]), out_y


def sup_con_loss(z: np.ndarray, labels, tau: float
                 ) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss over embedding rows and its gradient.

    For each anchor, positives are same-label rows other than itself and the
    denominator runs over every other row. Callers pass unit-normalized rows;
    the value depends on the embeddings only through dot products, so it is
    invariant under any global orthogonal map.
    """
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(labels)
    n = z.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"{y.shape[0]} labels for {n} embeddings")
    pos = (y[:, None] == y[None, :]) & ~np.eye(n, dtype=bool)
    counts = pos.sum(axis=1)
    if (counts == 0).any():
        bad = int(np.flatnonzero(counts == 0)[0])
        raise DegenerateBatchError(f"sample {bad} has no positive partner")

    sim = (z @ z.T) / tau
    np.fill_diagonal(sim, -np.inf)  # self excluded from the denominator
    m = sim.max(axis=1, keepdims=True)
    logsum = m[:, 0] + np.log(np.exp(sim - m).sum(axis=1))
    pos_mean = np.where(pos, sim, 0.0).sum(axis=1) / counts
    loss = float(np.mean(logsum - pos_mean))

    q = np.exp(sim - logsum[:, None])  # row softmax over non-self entries
    g = q - pos / counts[:, None]
    dz = (g + g.T) @ z / (tau * n)
    return loss, dz


# ---------------------------------------------------------------------------
# Rotation head and ensemble
# ---------------------------------------------------------------------------

def finetune_rotation_head(net: bb.MaskedNet, task: int,
                           data: LabeledImageSet, *, epochs: int, lr: float,
                           batch_size: int, rng: np.random.Generator,
                           flip_prob: float, noise_sigma: float
                           ) -> list[bb.EpochStats]:
    """Train a fresh linear head over 4|C| rotation classes on a finished
    task's frozen trunk; trunk parameters are never touched. Returns the
    phase's per-epoch stats."""
    if task not in net.finished:
        raise nk.StateError(f"task {task} is not finished")
    head = bb._init_head(net, task, 4 * data.n_classes, "rotation", rng)
    return bb._train_epochs(net, task, data, rng, loss="rotation-ce",
                            epochs=epochs, lr=lr, batch_size=batch_size,
                            head=head, augment={"flip_prob": flip_prob,
                                                "noise_sigma": noise_sigma})


def ensemble_logits(net: bb.MaskedNet, x, task: int,
                    raw: np.ndarray) -> np.ndarray:
    """Per-original-class logits of an (n, h, h) image batch, averaged over
    the rotation orbit.

    Class j's value is the mean over deg of slot (j, deg) evaluated on the
    deg-rotated input. Evaluation uses the raw image (no stochastic views).
    raw is ``task_raw_logits(net, x, task)``, the degree-0 forward, which
    the caller has run.
    """
    head = net.heads.get(task)
    if head is None:
        raise ValueError(f"unknown task {task}")
    if head.kind != "rotation":
        raise ValueError(f"task {task} head has no rotation slots")
    # slots (0, deg), (1, deg), ... of the deg-rotated input
    per_deg = [raw[:, 0::4]] + [
        bb.task_raw_logits(net, rotate90(x, deg), task)[:, deg::4]
        for deg in (1, 2, 3)]
    return np.mean(per_deg, axis=0)


def class_logits(net: bb.MaskedNet, x, task: int) -> np.ndarray:
    """Per-original-class logits for any head kind.

    Plain heads emit them directly; rotation heads go through the ensemble.
    x is any batch ``task_features`` takes; a rotation head needs images.
    """
    raw = bb.task_raw_logits(net, x, task)
    if net.heads[task].kind == "rotation":
        return ensemble_logits(net, x, task, raw)
    return raw
