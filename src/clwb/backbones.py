"""Parameter-isolation task trainers over numkit networks.

Two isolation mechanisms produce per-task heads on a shared trunk:

* hard attention: per-task sigmoid gates a = sigmoid(s * e) on hidden units;
  gradients of weights between units claimed by earlier tasks are scaled
  toward zero, so finished tasks keep their function.
* supermasks: the trunk stays frozen at its random initialization and each
  task selects the top p% of weights per layer by trainable scores
  (straight-through gradients); the winning mask is frozen at task end.

Both states answer the same calls (start_task, trunk_for, scale,
after_backward, finish_task, checkpoint_arrays, from_checkpoint), so no
caller branches on the kind; task_features is the one trunk forward.

Training a task is single-threaded and deterministic given the seed.
Evaluation of a finished net is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .data import LabeledImageSet

SATURATION_EPS = 1e-6  # attention counts as binary within this of {0, 1}

__all__ = [
    "SATURATION_EPS",
    "HatState",
    "SupState",
    "Head",
    "MaskedNet",
    "build_masked_net",
    "hat_attention",
    "hat_forward",
    "hat_masked_gradients",
    "hat_regularizer",
    "hat_accumulate",
    "mask_from_scores",
    "sup_masked_forward",
    "sup_score_update",
    "task_features",
    "task_raw_logits",
    "train_task",
    "EpochStats",
]


@dataclass
class HatState:
    """Hard-attention bookkeeping across tasks.

    accumulated[l] is the elementwise max of all finished tasks' attentions
    at full scale (a^{<k}); it only grows. lambdas[k] weights the sparsity
    regularizer of task k.
    """

    kind = "hat"

    s_max: float
    lambdas: list[float]
    embeddings: dict[int, list[np.ndarray]] = field(default_factory=dict)
    accumulated: list[np.ndarray] = field(default_factory=list)
    # (accumulated arrays, their constants) of the last constants() build
    built: tuple | None = field(default=None, repr=False, compare=False)

    def constants(self) -> tuple[list[np.ndarray], list[np.ndarray], float]:
        """Per layer 1 - min(acc_out, acc_in) (acc_in = 1 at the input) and
        the free mass 1 - acc, then the free mass summed. Built once per
        accumulated state: reused while accumulated holds the same array
        objects, and hat_accumulate replaces them."""
        acc, last = list(self.accumulated), self.built
        if last is None or list(map(id, last[0])) != list(map(id, acc)):
            free = [1.0 - a for a in acc]
            factors = [1.0 - np.minimum(o[:, None], i[None, :])
                       for o, i in zip(acc, [np.ones(1)] + acc[:-1])]
            last = self.built = (acc, (factors, free,
                                       float(sum(f.sum() for f in free))))
        return last[1]

    def lambda_for(self, task: int) -> float:
        return self.lambdas[min(task, len(self.lambdas) - 1)]

    def attentions(self, task: int, s: float | None = None) -> list[np.ndarray]:
        if task not in self.embeddings:
            raise ValueError(f"task {task} has no attention embeddings")
        scale = self.s_max if s is None else s
        return [hat_attention(e, scale) for e in self.embeddings[task]]

    def start_task(self, net: MaskedNet, task: int,
                   rng: np.random.Generator) -> None:
        self.embeddings[task] = [rng.normal(size=acc.shape)
                                 for acc in self.accumulated]

    def trunk_for(self, net: MaskedNet, task: int, s: float | None = None
                  ) -> tuple[nk.DenseNet, list[np.ndarray]]:
        return net.trunk, self.attentions(task, s)

    def scale(self, batch: int, n_batches: int) -> float:
        """Gate scale annealed from 1/s_max to s_max across an epoch."""
        if n_batches <= 1:
            return self.s_max
        lo = 1.0 / self.s_max
        return lo + (self.s_max - lo) * batch / (n_batches - 1)

    def after_backward(self, net: MaskedNet, task: int, tape: nk.GradTape,
                       cache: nk.ForwardCache, s: float, lr: float) -> float:
        """Regularize, mask and apply the trunk step, then move the task's
        embeddings; returns the regularizer value."""
        attn = cache.hooks
        reg_val, e_grads, _ = hat_regularizer(self, task, attn, s)
        hat_masked_gradients(tape, self)
        nk.sgd_step(net.trunk, tape, lr)
        for l, eg in enumerate(e_grads):
            total = eg + tape.d_hooks[l] * attn[l] * (1.0 - attn[l]) * s
            self.embeddings[task][l] -= lr * total
        return reg_val

    def finish_task(self, net: MaskedNet, task: int) -> None:
        hat_accumulate(net, task)

    def checkpoint_arrays(self) -> tuple[list[tuple[str, np.ndarray]], dict]:
        arrays = [("lambdas", np.asarray(self.lambdas, dtype=np.float64))]
        arrays += [(f"hat_acc{l}", acc) for l, acc in enumerate(self.accumulated)]
        arrays += [(f"hat_emb{k}_{l}", e) for k in sorted(self.embeddings)
                   for l, e in enumerate(self.embeddings[k])]
        return arrays, {"s_max": self.s_max, "hat_tasks": sorted(self.embeddings)}

    @classmethod
    def from_checkpoint(cls, meta: dict, arrays: dict[str, np.ndarray],
                        n_layers: int) -> HatState:
        state = cls(s_max=float(meta["s_max"]),
                    lambdas=[float(v) for v in arrays["lambdas"]],
                    accumulated=[arrays[f"hat_acc{l}"].copy()
                                 for l in range(n_layers)])
        for k in meta["hat_tasks"]:
            state.embeddings[k] = [arrays[f"hat_emb{k}_{l}"].copy()
                                   for l in range(n_layers)]
        return state


def _masked_trunk(net: MaskedNet, masks: list[np.ndarray]) -> nk.DenseNet:
    return nk.DenseNet([w * m for w, m in zip(net.trunk.weights, masks)],
                       net.trunk.biases)


@dataclass
class SupState:
    """Supermask bookkeeping: live scores for the task in training plus the
    frozen per-task masks (0/1 arrays mirroring trunk weight shapes)."""

    kind = "sup"

    p: float
    masks: dict[int, list[np.ndarray]] = field(default_factory=dict)
    scores: list[np.ndarray] | None = None
    # task -> (trunk, masks, masked trunk) of a finished task's last build
    built: dict[int, tuple] = field(default_factory=dict, repr=False,
                                    compare=False)

    def start_task(self, net: MaskedNet, task: int,
                   rng: np.random.Generator) -> None:
        self.scores = [rng.normal(scale=0.1, size=w.shape)
                       for w in net.trunk.weights]

    def trunk_for(self, net: MaskedNet, task: int, s: float | None = None
                  ) -> tuple[nk.DenseNet, None]:
        """The trunk with weights W * M_k: the frozen mask of a finished
        task, or the live scores' mask for the task in training. Supermask
        training never changes W, so a finished task's trunk is built once
        and reused while net.trunk and its masks are the same objects; the
        task in training gets a new one per call."""
        if task not in self.masks:
            if self.scores is None:
                raise ValueError(f"unknown task {task}")
            masks = mask_from_scores(self.scores, self.p)
            return _masked_trunk(net, masks), None
        masks = self.masks[task]
        last = self.built.get(task)
        if last is None or last[0] is not net.trunk or last[1] is not masks:
            last = self.built[task] = (net.trunk, masks,
                                       _masked_trunk(net, masks))
        return last[2], None

    def scale(self, batch: int, n_batches: int) -> None:
        return None

    def after_backward(self, net: MaskedNet, task: int, tape: nk.GradTape,
                       cache: nk.ForwardCache, s: None, lr: float) -> float:
        """Score step only; the trunk stays at its initialization."""
        for v, g in zip(self.scores, sup_score_update(tape, net.trunk)):
            v -= lr * g
        return 0.0

    def finish_task(self, net: MaskedNet, task: int) -> None:
        self.masks[task] = mask_from_scores(self.scores, self.p)
        self.scores = None

    def checkpoint_arrays(self) -> tuple[list[tuple[str, np.ndarray]], dict]:
        arrays = [(f"sup_mask{k}_{l}", m) for k in sorted(self.masks)
                  for l, m in enumerate(self.masks[k])]
        return arrays, {"sparsity": self.p, "sup_tasks": sorted(self.masks)}

    @classmethod
    def from_checkpoint(cls, meta: dict, arrays: dict[str, np.ndarray],
                        n_layers: int) -> SupState:
        state = cls(p=float(meta["sparsity"]))
        for k in meta["sup_tasks"]:
            state.masks[k] = [arrays[f"sup_mask{k}_{l}"].copy()
                              for l in range(n_layers)]
        return state


@dataclass
class Head:
    """Per-task linear output layer; kind is "plain" (|C| outputs) or
    "rotation" (4|C| outputs, one slot per quarter turn)."""

    weight: np.ndarray
    bias: np.ndarray
    kind: str = "plain"

    def __post_init__(self):
        if self.kind not in ("plain", "rotation"):
            raise ValueError(f"unknown head kind {self.kind!r}")

    @property
    def width(self) -> int:
        return self.weight.shape[0]

    @property
    def classes(self) -> int:
        """The task's class count: a rotation head has 4 slots per class."""
        return self.width // (4 if self.kind == "rotation" else 1)


@dataclass
class MaskedNet:
    """Shared ReLU trunk, per-task heads, and one isolation state."""

    trunk: nk.DenseNet
    heads: dict[int, Head]
    isolation: HatState | SupState
    finished: list[int] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.isolation.kind

    @property
    def feature_dim(self) -> int:
        return self.trunk.weights[-1].shape[0]


def build_masked_net(input_dim: int, hidden: list[int], *, isolation: str,
                     seed: int, s_max: float, lambdas: list[float],
                     sparsity: float) -> MaskedNet:
    """Create an untrained net. hidden lists the trunk layer widths; s_max
    and lambdas serve hard attention, sparsity supermasks."""
    rng = np.random.default_rng([seed, 0])
    trunk = nk.glorot_net([input_dim] + list(hidden), rng)
    if isolation == "hat":
        state: HatState | SupState = HatState(
            s_max=s_max,
            lambdas=list(lambdas),
            accumulated=[np.zeros(h) for h in hidden],
        )
    elif isolation == "sup":
        if not 0.0 < sparsity <= 100.0:
            raise ValueError(f"sparsity {sparsity} outside (0, 100]")
        state = SupState(p=sparsity)
    else:
        raise ValueError(f"unknown isolation {isolation!r}")
    return MaskedNet(trunk, {}, state)


# ---------------------------------------------------------------------------
# Hard attention
# ---------------------------------------------------------------------------

def hat_attention(e: np.ndarray, s: float) -> np.ndarray:
    """a_i = sigmoid(s * e_i); s > 0 controls how binary the gate is."""
    if s <= 0:
        raise ValueError(f"scale s must be positive, got {s}")
    z = s * np.asarray(e, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def hat_masked_gradients(tape: nk.GradTape, state: HatState) -> None:
    """Scale trunk gradients by 1 - min(acc_out, acc_in) in place.

    The input layer counts as fully claimed (acc = 1): weights into a
    protected unit must freeze regardless of which input pixel they read.
    Bias gradients scale by 1 - acc_out for the same reason. A contraction:
    |g'| <= |g| elementwise.
    """
    factors, free, _ = state.constants()
    for l, (factor, f) in enumerate(zip(factors, free)):
        tape.d_weights[l] *= factor
        tape.d_biases[l] *= f


def hat_regularizer(state: HatState, task: int,
                    attentions: list[np.ndarray], s: float
                    ) -> tuple[float, list[np.ndarray], bool]:
    """Sparsity penalty on attention mass over still-free units.

    L_r = lambda_k * sum a * (1 - acc) / sum (1 - acc), with gradients chained
    back to the embeddings through the sigmoid. All units already claimed
    (denominator 0) reports 0 with the capacity-exhausted flag.
    """
    lam = state.lambda_for(task)
    _, free, denom = state.constants()
    if denom == 0.0:
        return 0.0, [np.zeros_like(a) for a in attentions], True
    value = lam * float(sum((a * f).sum() for a, f in zip(attentions, free))) / denom
    grads = [lam * f / denom * a * (1.0 - a) * s
             for a, f in zip(attentions, free)]
    return value, grads, False


def hat_accumulate(net: MaskedNet, task: int) -> None:
    """Fold task's full-scale attention into the accumulated maxima.

    Values within SATURATION_EPS of {0, 1} snap to exact binary so protected
    units block gradients exactly, not merely to ~1e-9.
    """
    state = net.isolation
    for l, a in enumerate(state.attentions(task)):
        acc = np.maximum(state.accumulated[l], a)
        acc[acc < SATURATION_EPS] = 0.0
        acc[acc > 1.0 - SATURATION_EPS] = 1.0
        state.accumulated[l] = acc


# ---------------------------------------------------------------------------
# Supermasks
# ---------------------------------------------------------------------------

def mask_from_scores(scores: list[np.ndarray], p: float) -> list[np.ndarray]:
    """Per layer, 1.0 on the ceil(p% * size) largest scores, ties to the
    lowest flat index; a deterministic function of (scores, p).

    A NaN or infinite score raises NumericError naming its layer: a
    diverged score vector has no meaningful top-k.
    """
    masks = []
    for l, v in enumerate(scores):
        flat = v.reshape(-1)
        if not np.isfinite(flat).all():
            raise nk.NumericError("non-finite supermask score", l)
        keep = int(np.ceil(p / 100.0 * flat.size))
        # t is the keep-th largest score: take every score above it, then
        # the lowest flat indices among those equal to it
        t = np.partition(flat, flat.size - keep)[flat.size - keep]
        above = flat > t
        m = above.astype(np.float64)
        m[np.flatnonzero(flat == t)[:keep - np.count_nonzero(above)]] = 1.0
        masks.append(m.reshape(v.shape))
    return masks


def sup_score_update(tape: nk.GradTape, trunk: nk.DenseNet) -> list[np.ndarray]:
    """Straight-through score gradients: dL/dV = dL/d(W*M) * W.

    The mask acts as identity in the backward pass, so scores of inactive
    weights still learn.
    """
    return [g * w for g, w in zip(tape.d_weights, trunk.weights)]


# ---------------------------------------------------------------------------
# Shared forward helpers
# ---------------------------------------------------------------------------

def _flatten(x, d: int) -> np.ndarray:
    """(n, d) rows as they are, (n, h, w) image batches with h * w = d as
    their flat rows; any other shape raises ShapeError."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(x.shape[0], -1) if x.ndim == 3 else x
    if x.ndim not in (2, 3) or flat.shape[1] != d:
        raise nk.ShapeError(f"expected (n, {d}) rows or (n, h, w) images of "
                            f"{d} pixels, got shape {x.shape}")
    return flat


def task_features(net: MaskedNet, x, task: int,
                  s: float | None = None) -> tuple[np.ndarray, nk.ForwardCache,
                                                   nk.DenseNet]:
    """Trunk output under task's isolation; returns (features, cache, trunk
    actually run) so callers can backpropagate through the right weights.
    s is the attention scale of a hard-attention net (s_max by default)."""
    x = _flatten(x, net.trunk.weights[0].shape[1])
    trunk, hooks = net.isolation.trunk_for(net, task, s)
    feats, cache = nk.forward(trunk, x, hooks)
    return feats, cache, trunk


def _head_logits(head: Head, features: np.ndarray) -> np.ndarray:
    return features @ head.weight.T + head.bias


def _head_step(head: Head, features: np.ndarray, d_logits: np.ndarray,
               lr: float) -> None:
    head.weight -= lr * (d_logits.T @ features)
    head.bias -= lr * d_logits.sum(axis=0)


def task_raw_logits(net: MaskedNet, x, task: int) -> np.ndarray:
    """Head-k logits (raw head width; rotation heads give 4|C| slots)."""
    if task not in net.heads:
        raise ValueError(f"unknown task {task}")
    # Keep the cache referenced until the head is applied: freeing its large
    # activations first lets malloc hand them back to the OS, and a 2000-row
    # eval then takes 3x the minor page faults.
    feats, cache, _ = task_features(net, x, task)
    return _head_logits(net.heads[task], feats)


def _of_kind(net: MaskedNet, kind: str) -> MaskedNet:
    if net.kind != kind:
        raise ValueError(f"{kind} forward called on a {net.kind} net")
    return net


def hat_forward(net: MaskedNet, x, task: int) -> np.ndarray:
    """task_raw_logits of a hard-attention net (gates at full scale)."""
    return task_raw_logits(_of_kind(net, "hat"), x, task)


def sup_masked_forward(net: MaskedNet, x, task: int) -> np.ndarray:
    """task_raw_logits of a supermask net (trunk weights W * M_k)."""
    return task_raw_logits(_of_kind(net, "sup"), x, task)


# ---------------------------------------------------------------------------
# Task training
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    """One epoch of the training trace: batch means of loss = ce + reg,
    where ce is the phase's data loss (cross-entropy, or the supervised
    contrastive loss when phase = "contrastive") and reg the isolation
    regularizer."""

    epoch: int
    loss: float
    ce: float = 0.0
    reg: float = 0.0
    phase: str = "main"


def _init_head(net: MaskedNet, task: int, width: int, kind: str,
               rng: np.random.Generator) -> Head:
    fan_in = net.feature_dim
    bound = np.sqrt(6.0 / (fan_in + width))
    head = Head(rng.uniform(-bound, bound, size=(width, fan_in)),
                np.zeros(width), kind)
    net.heads[task] = head
    return head


def train_task(net: MaskedNet, task: int, data: LabeledImageSet, *,
               loss: str, epochs: int, lr: float, batch_size: int, seed: int,
               contrastive_epochs: int, head_epochs: int, head_lr: float,
               contrastive_tau: float, flip_prob: float,
               noise_sigma: float) -> list[EpochStats]:
    """Train one task and update the isolation state.

    loss: "ce" (plain head), "rotation-ce" (head over 4|C| rotation classes),
    or "contrastive" (contrastive_epochs of the feature phase at temperature
    contrastive_tau, then head_epochs of a frozen-trunk rotation head at
    head_lr). Finished tasks' behavior is left unchanged; the same task
    cannot be trained twice.
    """
    if task in net.finished:
        raise nk.StateError(f"task {task} already finished")
    if loss not in ("ce", "rotation-ce", "contrastive"):
        raise ValueError(f"unknown loss {loss!r}")
    rng = np.random.default_rng([seed, task, 1])
    net.isolation.start_task(net, task, rng)

    augment = {"flip_prob": flip_prob, "noise_sigma": noise_sigma}
    if loss == "contrastive":
        head = None
        main_epochs = contrastive_epochs
    else:
        head = _init_head(net, task, data.n_classes * (1 if loss == "ce" else 4),
                          "plain" if loss == "ce" else "rotation", rng)
        main_epochs = epochs
    trace = _train_epochs(net, task, data, rng, loss=loss, epochs=main_epochs,
                          lr=lr, batch_size=batch_size, tau=contrastive_tau,
                          head=head, augment=augment)
    net.isolation.finish_task(net, task)
    net.finished.append(task)
    if head is None:
        from . import oodlab  # deferred: oodlab imports this module
        trace += oodlab.finetune_rotation_head(
            net, task, data, epochs=head_epochs, lr=head_lr,
            batch_size=batch_size, rng=rng, **augment)
    return trace


def _train_epochs(net: MaskedNet, task: int, data: LabeledImageSet,
                  rng: np.random.Generator, *, loss: str, epochs: int,
                  lr: float, batch_size: int, tau: float | None = None,
                  head: Head | None, augment: dict) -> list[EpochStats]:
    """Minibatch epochs over the task; head None means the contrastive
    feature phase. A finished task's trunk is frozen: only its head trains,
    at full attention scale."""
    from . import oodlab  # deferred: oodlab imports this module

    state = net.isolation
    frozen = task in net.finished
    phase = "head" if frozen else "contrastive" if head is None else "main"
    n = len(data)
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        batches = [order[i:i + batch_size] for i in range(0, n, batch_size)]
        sums = {"loss": 0.0, "ce": 0.0, "reg": 0.0}
        for b, idx in enumerate(batches):
            s = None if frozen else state.scale(b, len(batches))
            if loss == "ce":
                bx, by = data.images[idx], data.labels[idx]
            else:
                bx, by = oodlab.build_rotation_batch(
                    data.images[idx], data.labels[idx], rng=rng, **augment)

            feats, cache, run_trunk = task_features(net, bx, task, s=s)
            if head is None:
                z, d_feats_fn = _normalize_rows(feats)
                ce_val, dz = oodlab.sup_con_loss(z, by, tau=tau)
                d_feats = d_feats_fn(dz)
            else:
                ce_val, d_logits = nk.softmax_ce(_head_logits(head, feats), by)
                d_feats = None if frozen else d_logits @ head.weight

            reg_val = 0.0
            if not frozen:
                tape = nk.GradTape.for_net(run_trunk)
                nk.backward(run_trunk, tape, cache, d_feats)
                reg_val = state.after_backward(net, task, tape, cache, s, lr)
            if head is not None:
                _head_step(head, feats, d_logits, lr)

            sums["loss"] += ce_val + reg_val
            sums["ce"] += ce_val
            sums["reg"] += reg_val
        k = len(batches)
        trace.append(EpochStats(epoch, sums["loss"] / k, ce=sums["ce"] / k,
                                reg=sums["reg"] / k, phase=phase))
    return trace


def _normalize_rows(h: np.ndarray):
    """Unit-normalize rows; returns (z, fn mapping dL/dz back to dL/dh)."""
    norms = np.maximum(np.linalg.norm(h, axis=1, keepdims=True), 1e-12)
    z = h / norms

    def backward(dz: np.ndarray) -> np.ndarray:
        # d/dh of h/|h|: (dz - z (z . dz)) / |h|
        return (dz - z * (z * dz).sum(axis=1, keepdims=True)) / norms

    return z, backward
