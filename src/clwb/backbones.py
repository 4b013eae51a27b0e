"""Parameter-isolation task trainers over numkit networks.

Two isolation mechanisms produce per-task heads on a shared trunk:

* hard attention: per-task sigmoid gates a = sigmoid(s * e) on hidden units;
  gradients of weights between units claimed by earlier tasks are scaled
  toward zero, so finished tasks keep their function.
* supermasks: the trunk stays frozen at its random initialization and each
  task selects the top p% of weights per layer by trainable scores
  (straight-through gradients); the winning mask is frozen at task end.

Both states answer the same calls (start_task, trunk_for, steps,
finish_task, checkpoint_arrays, from_checkpoint), so no caller branches on
the kind; task_features is the one trunk forward, at full gate scale.
Every isolation record is one flat vector: HAT's per-task embeddings and
its accumulated gates in the embeddings' layout (the trunk's units in
layer order), a finished supermask task's mask in the layout of the
trunk's params, and a checkpoint stores each as that one array
(``checkpoint_arrays``, ``from_checkpoint``). ``steps`` checks once what a
task's training steps trust, fetches once what they read, and returns
their kernels: the gate scale, the forward and the update, which run the
unchecked bodies and own what only training reads. ``kind`` names the
mechanism, and ``independent_tasks`` says whether a task's training reads
what another task trains: false for hard attention, true for supermasks.

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
    """Hard-attention bookkeeping across tasks, every record one flat vector
    in the embeddings' layout: the trunk's units in layer order, layer
    widths ``sizes``. embeddings[k] is task k's embeddings; accumulated is
    the elementwise max of all finished tasks' attentions at full scale
    (a^{<k}), which only grows. lambdas[k] weights the sparsity regularizer
    of task k. An attention, its regularizer and the embedding step run over
    a whole vector at once, and per-layer arrays are views of it.
    """

    kind = "hat"
    # each task's gates claim units that every later task's training reads
    independent_tasks = False

    s_max: float
    lambdas: list[float]
    sizes: list[int]
    accumulated: np.ndarray
    embeddings: dict[int, np.ndarray] = field(default_factory=dict)

    def free_mass(self) -> tuple[np.ndarray, float]:
        """1 - acc and its sum, summed per layer first."""
        free = 1.0 - self.accumulated
        return free, float(sum(f.sum() for f in nk._split(free, self.sizes)))

    def gradient_mask(self, layout: tuple) -> np.ndarray:
        """hat_masked_gradients' factors in the tape layout ``layout``: per
        layer 1 - min(acc_out, acc_in) (acc_in = 1 at the input) on the
        weights, then 1 - acc_out on each layer's biases."""
        acc = nk._split(self.accumulated, self.sizes)
        ins = [np.ones(layout[0][1])] + acc[:-1]
        return nk.flat_like_params(
            [1.0 - np.minimum(o[:, None], i[None, :])
             for o, i in zip(acc, ins)], [1.0 - a for a in acc])

    def lambda_for(self, task: int) -> float:
        return self.lambdas[min(task, len(self.lambdas) - 1)]

    def flat_embedding(self, task: int) -> np.ndarray:
        """Task's flat embeddings, checked: an unknown task raises
        ValueError, a vector of another shape than (sum(sizes),)
        ShapeError."""
        e = self.embeddings.get(task)
        if e is None:
            raise ValueError(f"task {task} has no attention embeddings")
        n = sum(self.sizes)
        if np.shape(e) != (n,):
            raise nk.ShapeError(f"task {task} embeddings of shape "
                                f"{np.shape(e)} for {n} units")
        return e

    def start_task(self, net: MaskedNet, task: int,
                   rng: np.random.Generator) -> None:
        # one draw of every layer's embeddings, in layer order
        self.embeddings[task] = rng.normal(size=sum(self.sizes))

    def trunk_for(self, net: MaskedNet, task: int
                  ) -> tuple[nk.DenseNet, list[np.ndarray]]:
        """The trunk and task's gates at full scale: views of one
        hat_attention over the task's flat embeddings."""
        gates = hat_attention(self.flat_embedding(task), self.s_max)
        return net.trunk, nk._split(gates, self.sizes)

    def steps(self, net: MaskedNet, task: int, lr: float) -> "_HatSteps":
        return _HatSteps(self, net, task, lr)

    def finish_task(self, net: MaskedNet, task: int) -> None:
        hat_accumulate(net, task)

    def checkpoint_arrays(self, tasks: list[int]
                          ) -> tuple[list[tuple[str, np.ndarray]], dict]:
        return [("lambdas", np.asarray(self.lambdas, dtype=np.float64)),
                ("hat_acc", self.accumulated)] + [
            (f"hat_emb{k}", self.embeddings[k]) for k in tasks
        ], {"s_max": self.s_max}

    @classmethod
    def from_checkpoint(cls, meta: dict, arrays: dict[str, np.ndarray],
                        trunk: nk.DenseNet, tasks: list[int]) -> HatState:
        sizes = [w.shape[0] for w in trunk.weights]
        shape = (sum(sizes),)
        return cls(s_max=float(meta["s_max"]),
                   lambdas=[float(v) for v in _take(arrays, "lambdas")],
                   sizes=sizes, accumulated=_take(arrays, "hat_acc", shape),
                   embeddings={k: _take(arrays, f"hat_emb{k}", shape)
                               for k in tasks})


def _take(arrays: dict[str, np.ndarray], name: str,
          shape: tuple | None = None) -> np.ndarray:
    """Checkpoint array name, popped from arrays so each is read once; a
    missing one, or one not of shape (when given), raises ValueError."""
    a = arrays.pop(name, None)
    if a is None:
        raise ValueError(f"missing array {name}")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, not {shape}")
    return a.copy()


@dataclass
class SupState:
    """Supermask bookkeeping: the task in training's scores, one array per
    trunk layer, and each finished task's frozen mask, masks[k]: one 0/1
    vector in the layout of the trunk's params, ones at the bias slots."""

    kind = "sup"
    # a task reads only its own scores and the frozen trunk, so tasks may
    # train in separate processes; a finished task is masks[task] and its head
    independent_tasks = True

    p: float
    masks: dict[int, np.ndarray] = field(default_factory=dict)
    scores: list[np.ndarray] | None = None
    # task -> (trunk, mask, masked trunk) of a finished task's last build
    built: dict[int, tuple] = field(default_factory=dict, repr=False,
                                    compare=False)

    def start_task(self, net: MaskedNet, task: int,
                   rng: np.random.Generator) -> None:
        self.scores = [rng.normal(scale=0.1, size=w.shape)
                       for w in net.trunk.weights]

    def trunk_for(self, net: MaskedNet, task: int
                  ) -> tuple[nk.DenseNet, None]:
        """The trunk with weights W * M_k of a finished task; any other task
        raises ValueError. Supermask training never changes W, so the trunk
        is built once and reused while net.trunk and its mask are the same
        objects."""
        mask = self.masks.get(task)
        if mask is None:
            raise ValueError(f"unknown task {task}")
        last = self.built.get(task)
        if last is None or last[0] is not net.trunk or last[1] is not mask:
            last = self.built[task] = (net.trunk, mask, net.trunk.masked(mask))
        return last[2], None

    def steps(self, net: MaskedNet, task: int, lr: float) -> "_SupSteps":
        return _SupSteps(self, net, task, lr)

    def finish_task(self, net: MaskedNet, task: int) -> None:
        mask = np.ones_like(net.trunk.params)
        mask_from_scores(self.scores, self.p, net.trunk.views(mask)[0])
        self.masks[task] = mask
        self.scores = None

    def checkpoint_arrays(self, tasks: list[int]
                          ) -> tuple[list[tuple[str, np.ndarray]], dict]:
        return [(f"sup_mask{k}", self.masks[k]) for k in tasks], \
            {"sparsity": self.p}

    @classmethod
    def from_checkpoint(cls, meta: dict, arrays: dict[str, np.ndarray],
                        trunk: nk.DenseNet, tasks: list[int]) -> SupState:
        return cls(p=float(meta["sparsity"]), masks={
            k: _take(arrays, f"sup_mask{k}", trunk.params.shape)
            for k in tasks})


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
            s_max=s_max, lambdas=list(lambdas), sizes=list(hidden),
            accumulated=np.zeros(sum(hidden)))
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
    a = np.abs(z)
    np.negative(a, out=a)
    ez = np.exp(a, out=a)
    d = 1.0 + ez
    np.copyto(ez, 1.0, where=z >= 0)  # the numerator: 1 or e^-|z|
    ez /= d
    return ez


def hat_masked_gradients(tape: nk.GradTape, state: HatState) -> None:
    """Scale trunk gradients by 1 - min(acc_out, acc_in) in place, as one
    multiply of the tape's flat buffer.

    The input layer counts as fully claimed (acc = 1): weights into a
    protected unit must freeze regardless of which input pixel they read.
    Bias gradients scale by 1 - acc_out for the same reason. A contraction:
    |g'| <= |g| elementwise.
    """
    tape.grads *= state.gradient_mask(tape.layout)


def hat_regularizer(state: HatState, task: int, attentions: np.ndarray,
                    s: float) -> tuple[float, np.ndarray, bool]:
    """Sparsity penalty on attention mass over still-free units.

    attentions is every layer's gates as one flat vector in the
    embeddings' layout (the per-layer arrays concatenated), and the
    gradient comes back in the same layout.
    L_r = lambda_k * sum a * (1 - acc) / sum (1 - acc), with gradients chained
    back to the embeddings through the sigmoid. All units already claimed
    (denominator 0) reports 0 with the capacity-exhausted flag.
    """
    a = np.asarray(attentions, dtype=np.float64)
    terms = _reg_terms(state, task, a.shape)
    value, grad = _regularizer(a, s, *terms)
    return value, grad, terms[1] == 0.0


def _reg_terms(state: HatState, task: int, shape: tuple) -> tuple:
    """What hat_regularizer reads of the accumulated state, for attentions
    of shape: (1 - acc, its sum, the layer widths, lambda_k, the gradient's
    coefficient lambda_k * (1 - acc) / (its sum); the last two None when
    every unit is claimed). Raises ShapeError when shape is not the
    embeddings' layout."""
    free, denom = state.free_mass()
    if shape != free.shape:
        raise nk.ShapeError(f"attentions of shape {shape} for "
                            f"{free.size} units")
    if denom == 0.0:
        return free, denom, state.sizes, None, None
    lam = state.lambda_for(task)
    return free, denom, state.sizes, lam, lam * free / denom


def _regularizer(a: np.ndarray, s: float, free: np.ndarray, denom: float,
                 sizes: list[int], lam: float, coef: np.ndarray | None
                 ) -> tuple[float, np.ndarray]:
    """hat_regularizer's body over _reg_terms: the value and gradient."""
    if denom == 0.0:
        return 0.0, np.zeros_like(a)
    claimed = a * free  # summed per layer, then across layers
    value = lam * float(sum(np.add.reduce(c)
                            for c in nk._split(claimed, sizes))) / denom
    return value, coef * a * (1.0 - a) * s


def _hat_update(trunk: nk.DenseNet, tape: nk.GradTape, flat: np.ndarray,
                attn: np.ndarray, d_hooks: np.ndarray, terms: tuple,
                mask: np.ndarray, s: float, lr: float) -> float:
    """A HAT step's update over checked operands: the gates attn
    and the hook gradients d_hooks flat in the layout of the task's flat
    embeddings flat, terms from _reg_terms, mask the gradient mask in the
    tape's layout. Regularize, mask and apply the trunk step (SGD's
    finiteness check runs here), then move the embeddings by the
    regularizer's gradient plus the data loss's, chained through the
    gates; returns the regularizer value."""
    reg_val, e_grad = _regularizer(attn, s, *terms)
    tape.grads *= mask
    nk._sgd_step(trunk, tape, lr)
    e_grad += d_hooks * attn * (1.0 - attn) * s
    flat -= lr * e_grad
    return reg_val


def hat_accumulate(net: MaskedNet, task: int) -> None:
    """Fold task's full-scale attention into the accumulated maxima.

    Values within SATURATION_EPS of {0, 1} snap to exact binary so protected
    units block gradients exactly, not merely to ~1e-9.
    """
    state = net.isolation
    acc = np.maximum(state.accumulated,
                     hat_attention(state.flat_embedding(task), state.s_max))
    acc[acc < SATURATION_EPS] = 0.0
    acc[acc > 1.0 - SATURATION_EPS] = 1.0
    state.accumulated = acc


# ---------------------------------------------------------------------------
# Supermasks
# ---------------------------------------------------------------------------

def mask_from_scores(scores: list[np.ndarray], p: float,
                     out: list[np.ndarray]) -> list[np.ndarray]:
    """Per layer, 1.0 on the ceil(p% * size) largest scores, ties to the
    lowest flat index; a deterministic function of (scores, p). The masks
    are written into out, one float64 array per layer shaped like its
    scores (the weight views of a flat mask), and out is returned.

    A NaN or infinite score raises NumericError naming its layer: a
    diverged score vector has no meaningful top-k.
    """
    for l, (v, m) in enumerate(zip(scores, out)):
        flat = v.reshape(-1)
        if not np.isfinite(flat).all():
            raise nk.NumericError("non-finite supermask score", l)
        keep = int(np.ceil(p / 100.0 * flat.size))
        # t is the keep-th largest score: take every score above it, then
        # the lowest flat indices among those equal to it
        t = np.partition(flat, flat.size - keep)[flat.size - keep]
        above = flat > t
        np.copyto(m, above.reshape(v.shape))
        ties = np.flatnonzero(flat == t)[:keep - np.count_nonzero(above)]
        m.flat[ties] = 1.0
    return out


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


def task_features(net: MaskedNet, x, task: int
                  ) -> tuple[np.ndarray, nk.ForwardCache, nk.DenseNet]:
    """Trunk output under task's isolation (a hard-attention net's gates at
    full scale); returns (features, cache, trunk actually run) so callers
    can backpropagate through the right weights."""
    x = _flatten(x, net.trunk.weights[0].shape[1])
    trunk, hooks = net.isolation.trunk_for(net, task)
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


class _Steps:
    """A training phase's step kernels: the gate scale and the unchecked
    bodies of task_features, softmax_ce, backward and the isolation update.
    _train_epochs builds them at the phase's first step, after it checks
    the rows' width; a subclass checks the gates' layout (and lr, where its
    update runs SGD) when it is built, and fetches once what every step
    reads. ce takes one np.arange per batch length; update backpropagates
    into the phase's one tape, writing the hook gradients into d_hooks
    (None for a trunk without gates), then runs after_backward."""

    d_hooks = None

    def __init__(self, trunk: nk.DenseNet, tape: nk.GradTape | None):
        self.trunk, self.tape, self.aranges = trunk, tape, {}

    def scale(self, batch: int, n_batches: int) -> float | None:
        """The step's gate scale: None where no gates train."""
        return None

    def ce(self, z: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
        rows = self.aranges.get(len(t))
        if rows is None:
            rows = self.aranges[len(t)] = np.arange(len(t))
        return nk._softmax_ce(z, t, rows)

    def update(self, cache: nk.ForwardCache, g: np.ndarray,
               s: float | None) -> float:
        """Backward from the trunk output's gradient g, then
        after_backward; returns the regularizer value."""
        self.tape.zero()
        nk._backward(self.trunk, self.tape, cache, g, self.d_hooks)
        return self.after_backward(cache, s)


def _rows(x: np.ndarray) -> np.ndarray:
    """A batch of checked width as (n, d) rows."""
    return x.reshape(len(x), -1)


class _FrozenSteps(_Steps):
    """A finished task's head phase: one trunk and its gates serve every
    step, since no step moves them."""

    def __init__(self, net: MaskedNet, task: int):
        trunk, hooks = net.isolation.trunk_for(net, task)
        super().__init__(trunk, None)
        self.hooks = nk._check_hooks(trunk, hooks)

    def features(self, x: np.ndarray, s: None
                 ) -> tuple[np.ndarray, nk.ForwardCache]:
        return nk._forward(self.trunk, _rows(x), self.hooks)


class _HatSteps(_Steps):
    """A HAT task's steps. The task's flat embeddings and what
    ``accumulated`` fixes for the task (the free mass, the regularizer
    coefficient and the gradient mask) are formed once, at the build.
    Each step forms one hat_attention, whose flat output the update reads
    as it is, and backward writes the hook gradients into one flat vector
    of the embeddings' layout."""

    def __init__(self, state: HatState, net: MaskedNet, task: int,
                 lr: float):
        super().__init__(net.trunk, nk.GradTape(net.trunk))
        self.lr, self.s_max = lr, state.s_max
        self.flat = state.flat_embedding(task)
        self.sizes = state.sizes
        nk._check_hooks(self.trunk, nk._split(self.flat, self.sizes))
        self.terms = _reg_terms(state, task, self.flat.shape)
        nk._check_step(self.trunk, self.tape, lr)
        self.mask = state.gradient_mask(self.tape.layout)
        self.flat_d_hooks = np.empty_like(self.flat)
        self.d_hooks = nk._split(self.flat_d_hooks, self.sizes)

    def scale(self, batch: int, n_batches: int) -> float:
        """Gate scale annealed from 1/s_max to s_max across an epoch."""
        if n_batches <= 1:
            return self.s_max
        lo = 1.0 / self.s_max
        return lo + (self.s_max - lo) * batch / (n_batches - 1)

    def features(self, x: np.ndarray, s: float
                 ) -> tuple[np.ndarray, nk.ForwardCache]:
        self.attn = hat_attention(self.flat, s)
        return nk._forward(self.trunk, _rows(x),
                           nk._split(self.attn, self.sizes))

    def after_backward(self, cache: nk.ForwardCache, s: float) -> float:
        """Regularize, mask and apply the trunk step, then move the task's
        embeddings; returns the regularizer value."""
        return _hat_update(self.trunk, self.tape, self.flat, self.attn,
                           self.flat_d_hooks, self.terms, self.mask, s,
                           self.lr)


class _SupSteps(_Steps):
    """A supermask task's steps. They own the task's flat mask in the
    trunk's layout, ones at the bias slots, and one masked trunk, validated
    at the build: each step writes the live scores' mask into the flat
    mask's weight views and rewrites the masked trunk's params as the
    trunk's params times it. The mask holds only 0s and 1s, so the product
    stays finite."""

    def __init__(self, state: SupState, net: MaskedNet, task: int,
                 lr: float):
        self.mask = np.ones_like(net.trunk.params)
        self.views = net.trunk.views(self.mask)[0]
        super().__init__(net.trunk.masked(self.mask),
                         nk.GradTape(net.trunk))
        self.state, self.net, self.lr = state, net, lr

    def features(self, x: np.ndarray, s: None
                 ) -> tuple[np.ndarray, nk.ForwardCache]:
        mask_from_scores(self.state.scores, self.state.p, self.views)
        np.multiply(self.net.trunk.params, self.mask, out=self.trunk.params)
        return nk._forward(self.trunk, _rows(x), None)

    def after_backward(self, cache: nk.ForwardCache, s: None) -> float:
        """The straight-through score step; the trunk stays as it is."""
        for v, g in zip(self.state.scores,
                        sup_score_update(self.tape, self.net.trunk)):
            v -= self.lr * g
        return 0.0


def _train_epochs(net: MaskedNet, task: int, data: LabeledImageSet,
                  rng: np.random.Generator, *, loss: str, epochs: int,
                  lr: float, batch_size: int, tau: float | None = None,
                  head: Head | None, augment: dict) -> list[EpochStats]:
    """Minibatch epochs over the task; head None means the contrastive
    feature phase. A finished task's trunk is frozen: only its head trains,
    at full attention scale.

    Checks run once per phase, not once per step, and every step runs the
    kernels' unchecked bodies. Every label is checked against the head's
    classes before the first step, with softmax_ce's IndexError. The first
    step checks the rows' width, then builds the phase's kernels, which
    check the gates' layout and lr (task_features', backward's and
    sgd_step's errors); nothing has moved when one of them fails."""
    from . import oodlab  # deferred: oodlab imports this module

    frozen = task in net.finished
    phase = "head" if frozen else "contrastive" if head is None else "main"
    n = len(data)
    if head is not None and epochs:
        nk._check_targets(data.labels, head.classes)
    steps = None  # built at the first step
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        batches = [order[i:i + batch_size] for i in range(0, n, batch_size)]
        sums = {"loss": 0.0, "ce": 0.0, "reg": 0.0}
        for b, idx in enumerate(batches):
            if loss == "ce":
                bx, by = data.images[idx], data.labels[idx]
            else:
                bx, by = oodlab.build_rotation_batch(
                    data.images[idx], data.labels[idx], rng=rng, **augment)
            if steps is None:
                _flatten(bx, net.trunk.weights[0].shape[1])
                steps = _FrozenSteps(net, task) if frozen else \
                    net.isolation.steps(net, task, lr)

            s = steps.scale(b, len(batches))
            feats, cache = steps.features(bx, s)
            if head is None:
                z, d_feats_fn = _normalize_rows(feats)
                ce_val, dz = oodlab.sup_con_loss(z, by, tau=tau)
                d_feats = d_feats_fn(dz)
            else:
                ce_val, d_logits = steps.ce(_head_logits(head, feats), by)
                d_feats = None if frozen else d_logits @ head.weight

            reg_val = 0.0 if frozen else steps.update(cache, d_feats, s)
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
