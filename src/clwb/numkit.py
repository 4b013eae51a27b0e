"""Dense-network numeric substrate.

Float64 everywhere: the entropy bounds downstream are sensitive to log
underflow, and training cost at desk scale is negligible. Weight matrices are
row-major ``(fan_out, fan_in)`` arrays; every layer computes
``relu(W @ h + b)``, and a net run with hooks multiplies each layer's output
by its element-wise mask ("hook"). Hooks are how task-attention masks plug
in: a forward takes one per layer or none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_CLAMP = 1e-12

__all__ = [
    "LOG_CLAMP",
    "ShapeError",
    "StateError",
    "NumericError",
    "DenseNet",
    "GradTape",
    "ForwardCache",
    "glorot_net",
    "forward",
    "backward",
    "input_gradient",
    "sgd_step",
    "softmax",
    "logsumexp",
    "log_softmax",
    "softmax_ce",
    "mean_nll",
]


class ShapeError(ValueError):
    """Operand dimensions do not agree."""


class StateError(RuntimeError):
    """Operation called out of order (e.g. backward without a forward cache)."""


class NumericError(FloatingPointError):
    """Non-finite value encountered; carries the offending layer index.
    Its args are (msg, layer), so it pickles like any exception."""

    def __init__(self, msg: str, layer: int):
        super().__init__(msg, layer)
        self.layer = layer

    def __str__(self) -> str:
        return f"{self.args[0]} (layer {self.layer})"


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


@dataclass
class DenseNet:
    """A stack of ReLU dense layers: weights[l] is (out, in), biases[l] is
    (out,). Consecutive layer dimensions must agree; ``validate`` enforces
    that plus finiteness.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        self.validate()

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def validate(self) -> None:
        if len(self.weights) != len(self.biases):
            raise ShapeError("weights/biases length mismatch")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {l}: weight {w.shape} vs bias {b.shape}")
            if l > 0 and w.shape[1] != self.weights[l - 1].shape[0]:
                raise ShapeError(
                    f"layer {l}: fan_in {w.shape[1]} != previous fan_out "
                    f"{self.weights[l - 1].shape[0]}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise NumericError("non-finite parameter", l)


@dataclass
class GradTape:
    """Per-parameter gradient accumulators mirroring a DenseNet's shapes.

    ``d_hooks[l]`` holds the gradient w.r.t. the layer-l hook vector of a
    forward run with hooks; it is None after a forward without. Training
    takes a fresh tape per step.
    """

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]
    d_hooks: list[np.ndarray] | None = None

    @classmethod
    def for_net(cls, net: DenseNet) -> "GradTape":
        return cls(
            [np.zeros_like(w) for w in net.weights],
            [np.zeros_like(b) for b in net.biases],
        )


@dataclass
class ForwardCache:
    """Activations recorded by forward, consumed by backward. A layer's
    ReLU gradient mask is post_raw > 0, the same mask as z_l > 0."""

    x: np.ndarray                # (n, d) input rows
    post_raw: list[np.ndarray]   # h_l = relu(z_l = W h_{l-1} + b), before hook
    post: list[np.ndarray]       # h'_l = hook * h_l (== h_l without hooks)
    hooks: list[np.ndarray] | None
    # every forward is a row batch; a constant that perfbench/tracer.py's
    # _backward_counts reads until ROADMAP item 2a lands
    batched = True


def glorot_net(sizes: list[int], rng: np.random.Generator) -> DenseNet:
    """Uniform +-sqrt(6/(fan_in+fan_out)) init."""
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return DenseNet(weights, biases)


def _check_hooks(net: DenseNet, hooks) -> list[np.ndarray] | None:
    """None, or one mask per layer of the layer's width; a None in the list
    reads as a 0-d hook and fails the shape check."""
    if hooks is None:
        return None
    if len(hooks) != net.n_layers:
        raise ShapeError(f"expected {net.n_layers} hooks, got {len(hooks)}")
    out = []
    for l, h in enumerate(hooks):
        h = _as_f64(h)
        if h.shape != (net.weights[l].shape[0],):
            raise ShapeError(f"hook {l}: shape {h.shape} vs layer width "
                             f"{net.weights[l].shape[0]}")
        out.append(h)
    return out


def forward(net: DenseNet, x, hooks=None) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a row batch (n, d).

    hooks: None, or one mask vector in [0, 1] per layer, multiplied into
    the layer's ReLU output. Pure function of (net, x, hooks).
    """
    x = _as_f64(x)
    d = net.weights[0].shape[1]
    if x.ndim != 2 or x.shape[1] != d:
        raise ShapeError(f"expected (n, {d}) rows, got shape {x.shape}")
    hooks = _check_hooks(net, hooks)

    h = x
    post_raw, post = [], []
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = h @ w.T
        a += b
        np.maximum(a, 0.0, out=a)
        post_raw.append(a)
        h = a if hooks is None else a * hooks[l]
        post.append(h)
    return h, ForwardCache(x, post_raw, post, hooks)


def _upstream(name: str, cache: ForwardCache, upstream) -> np.ndarray:
    if cache is None or not cache.post:
        raise StateError(f"{name} called without a forward cache")
    g = _as_f64(upstream)
    expect = cache.post[-1].shape
    if g.shape != expect:
        raise ShapeError(f"upstream shape {g.shape} != output shape {expect}")
    return g


def backward(net: DenseNet, tape: GradTape, cache: ForwardCache,
             upstream) -> None:
    """Fill tape with d(loss)/d(params); the input gradient is not formed.

    upstream is d(loss)/d(output), matching the forward output shape. The
    gradients accumulate (sum) over the rows. A forward run with hooks
    gets its hook gradients in tape.d_hooks, one per layer.
    """
    g = _upstream("backward", cache, upstream)
    hooks, d_hooks = cache.hooks, []
    for l in range(net.n_layers - 1, -1, -1):
        a = cache.post_raw[l]
        if hooks is not None:
            d_hooks.append((g * a).sum(axis=0))
            g = g * hooks[l]
        g = g * (a > 0.0)
        below = cache.post[l - 1] if l > 0 else cache.x
        tape.d_weights[l] += g.T @ below
        tape.d_biases[l] += g.sum(axis=0)
        if l > 0:
            g = g @ net.weights[l]
    tape.d_hooks = None if hooks is None else d_hooks[::-1]


def input_gradient(net: DenseNet, cache: ForwardCache,
                   upstream) -> np.ndarray:
    """d(loss)/d(input) of each row of the forward, (n, d).

    upstream is d(loss)/d(output), (n, out). Runs the chain rule of
    ``backward`` through the hooks and ReLUs only: no tape, and no weight,
    bias or hook gradient.
    """
    g = _upstream("input_gradient", cache, upstream)
    for l in range(net.n_layers - 1, -1, -1):
        if cache.hooks is not None:
            g = g * cache.hooks[l]
        g = g * (cache.post_raw[l] > 0.0)
        g = g @ net.weights[l]
    return g


def sgd_step(net: DenseNet, tape: GradTape, lr: float) -> None:
    """In-place p <- p - lr * g over all parameters."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    for l, (gw, gb) in enumerate(zip(tape.d_weights, tape.d_biases)):
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise NumericError("non-finite gradient", l)
        net.weights[l] -= lr * gw
        net.biases[l] -= lr * gb


# ---------------------------------------------------------------------------
# Losses and checking
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    z = _as_f64(logits)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis; -inf for an all -inf row."""
    z = _as_f64(a)
    m = z.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        return (m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True)))[..., 0]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = _as_f64(logits)
    z = z - z.max(axis=-1, keepdims=True)
    return z - logsumexp(z)[..., None]


def softmax_ce(logits, targets) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch; returns (loss, d loss / d logits).

    logits (n, c) rows; targets int array (n,).
    """
    z = _as_f64(logits)
    t = np.asarray(targets, dtype=np.intp)
    if z.ndim != 2 or t.shape != z.shape[:1]:
        raise ShapeError(f"expected (n, c) logits and (n,) targets, got "
                         f"{z.shape} and {t.shape}")
    if (t < 0).any() or (t >= z.shape[1]).any():
        raise IndexError("target class out of range")
    p = softmax(z)
    n = z.shape[0]
    loss = mean_nll(p, t)
    d = p.copy()
    d[np.arange(n), t] -= 1.0
    d /= n
    return loss, d


def mean_nll(p: np.ndarray, t: np.ndarray) -> float:
    """softmax_ce's loss of softmax rows p (n, c): mean -log p[i, t_i]."""
    n = p.shape[0]
    return float(-np.log(np.maximum(p[np.arange(n), t], LOG_CLAMP)).mean())
