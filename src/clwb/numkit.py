"""Dense-network numeric substrate.

Float64 everywhere: the entropy bounds downstream are sensitive to log
underflow, and training cost at desk scale is negligible. Weight matrices are
row-major ``(fan_out, fan_in)`` arrays; every layer computes
``relu(W @ h + b)``, and a net run with hooks multiplies each layer's output
by its element-wise mask ("hook"). Hooks are how task-attention masks plug
in: a forward takes one per layer or none.

A net's parameters, and a GradTape's gradients, live in one flat float64
buffer each: every weight matrix row-major, then every bias, in layer
order. The per-layer arrays are views into it, so forward and backward work
layer by layer while ``sgd_step`` checks and updates all parameters with
one call each, and a caller can scale every gradient with one multiply by
a factor of the same layout.

Each kernel a training step calls (``forward``, ``backward``,
``softmax_ce``, ``sgd_step``) is a checked public entry around an
unchecked body (``_forward``, ``_backward``, ``_softmax_ce``,
``_sgd_step``). The entry checks its operands' shapes, layouts and ranges,
then runs the body; the bodies trust their operands. A training loop that
has checked what cannot change within a task calls the bodies. Checks
whose outcome can change at any step stay in the bodies: ``_sgd_step``
refuses a non-finite gradient.
"""

from __future__ import annotations

import math
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
    "flat_like_params",
    "glorot_net",
    "forward",
    "backward",
    "input_gradient",
    "sgd_step",
    "softmax",
    "logsumexp",
    "log_softmax",
    "softmax_ce",
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


def _pack(weights, biases) -> tuple[np.ndarray, tuple]:
    """One new float64 buffer holding every weight matrix (row-major), then
    every bias vector, in layer order; returns it and the layout, the
    shape of each part in that order."""
    parts = [_as_f64(p) for p in (*weights, *biases)]
    return (np.concatenate([p.reshape(-1) for p in parts]),
            tuple(p.shape for p in parts))


def flat_like_params(weights, biases) -> np.ndarray:
    """A new flat buffer in the layout of a DenseNet's params from per-layer
    arrays shaped like its weights and biases, such as a factor for every
    gradient of a tape."""
    return _pack(weights, biases)[0]


def _views(flat: np.ndarray, layout: tuple, n_layers: int
           ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The per-layer weight and bias views of a buffer of layout."""
    parts, at = [], 0
    for shape in layout:
        size = math.prod(shape)
        parts.append(flat[at:at + size].reshape(shape))
        at += size
    return parts[:n_layers], parts[n_layers:]


class DenseNet:
    """A stack of ReLU dense layers: weights[l] is (out, in), biases[l] is
    (out,). Consecutive layer dimensions must agree; ``validate`` enforces
    that plus finiteness.

    Every parameter lives in one flat float64 buffer, ``params``: all the
    weight matrices, row-major, then all the biases, in layer order (the
    ``layout``). weights[l] and biases[l] are views into it, so an in-place
    edit of either is an edit of params; both lists are read-only.
    """

    def __init__(self, weights, biases):
        self._set(*_pack(weights, biases), len(weights))
        self.validate()

    def _set(self, params: np.ndarray, layout: tuple, n_layers: int) -> None:
        self.params, self.layout = params, layout
        self._weights, self._biases = _views(params, layout, n_layers)

    @property
    def weights(self) -> list[np.ndarray]:
        return self._weights

    @property
    def biases(self) -> list[np.ndarray]:
        return self._biases

    @property
    def n_layers(self) -> int:
        return len(self._weights)

    def views(self, flat: np.ndarray
              ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer views of flat, a buffer in the layout of params: one
        shaped like each weight matrix, then one like each bias."""
        if flat.shape != self.params.shape:
            raise ShapeError(f"buffer of shape {flat.shape} for params of "
                             f"{self.params.shape}")
        return _views(flat, self.layout, self.n_layers)

    def masked(self, mask: np.ndarray) -> "DenseNet":
        """A validated net whose params are params * mask: one multiply by
        a flat mask in the layout of params (ones at the bias slots keep
        the biases)."""
        if mask.shape != self.params.shape:
            raise ShapeError(f"mask of shape {mask.shape} for params of "
                             f"{self.params.shape}")
        net = DenseNet.__new__(DenseNet)
        net._set(self.params * mask, self.layout, self.n_layers)
        net.validate()
        return net

    def validate(self) -> None:
        if len(self._weights) != len(self._biases):
            raise ShapeError("weights/biases length mismatch")
        for l, (w, b) in enumerate(zip(self._weights, self._biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {l}: weight {w.shape} vs bias {b.shape}")
            if l > 0 and w.shape[1] != self._weights[l - 1].shape[0]:
                raise ShapeError(
                    f"layer {l}: fan_in {w.shape[1]} != previous fan_out "
                    f"{self._weights[l - 1].shape[0]}"
                )
        if not np.isfinite(self.params).all():
            raise NumericError("non-finite parameter",
                               _first_nonfinite(self._weights, self._biases))


def _first_nonfinite(weights, biases) -> int:
    """The first layer whose weights or bias hold a NaN or infinity; called
    once a whole-buffer check has failed."""
    return next(l for l, (w, b) in enumerate(zip(weights, biases))
                if not (np.isfinite(w).all() and np.isfinite(b).all()))


class GradTape:
    """Per-parameter gradient accumulators mirroring a DenseNet's shapes.

    Like the net's parameters, the gradients live in one flat buffer,
    ``grads``, of the net's layout; d_weights[l] and d_biases[l] are views
    into it. A tape built from per-layer lists copies them in.
    ``d_hooks[l]`` holds the gradient w.r.t. the layer-l hook vector of a
    forward run with hooks; it is None after a forward without. Training
    takes one tape per task and zeroes it before each step.
    """

    def __init__(self, d_weights, d_biases, d_hooks=None):
        self._set(*_pack(d_weights, d_biases), len(d_weights))
        self.d_hooks = d_hooks

    def _set(self, grads: np.ndarray, layout: tuple, n_layers: int) -> None:
        self.grads, self.layout = grads, layout
        self.d_weights, self.d_biases = _views(grads, layout, n_layers)

    @classmethod
    def for_net(cls, net: DenseNet) -> "GradTape":
        tape = cls.__new__(cls)
        tape._set(np.zeros_like(net.params), net.layout, net.n_layers)
        tape.d_hooks = None
        return tape

    def zero(self) -> None:
        """Every gradient back to +0.0 and no hook gradients, as for_net
        leaves a new tape."""
        self.grads.fill(0.0)
        self.d_hooks = None


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
    return _forward(net, x, _check_hooks(net, hooks))


def _forward(net: DenseNet, x: np.ndarray, hooks
             ) -> tuple[np.ndarray, ForwardCache]:
    """forward's body: x float64 (n, d) rows of the net's input width and
    hooks None or one float64 mask per layer of its width."""
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
    gets its hook gradients in tape.d_hooks, one per layer: views of one
    flat vector, every layer's in layer order.
    """
    g = _upstream("backward", cache, upstream)
    d_hooks = None
    if cache.hooks is not None:
        d_hooks = _split(np.empty(sum(w.shape[0] for w in net.weights)),
                         [w.shape[0] for w in net.weights])
    _backward(net, tape, cache, g, d_hooks)
    tape.d_hooks = d_hooks


def _split(flat: np.ndarray, sizes) -> list[np.ndarray]:
    """Consecutive views of a flat vector, one per size."""
    views, at = [], 0
    for n in sizes:
        views.append(flat[at:at + n])
        at += n
    return views


def _backward(net: DenseNet, tape: GradTape, cache: ForwardCache,
              g: np.ndarray, d_hooks: list[np.ndarray] | None) -> None:
    """backward's body: g float64 of the output's shape, tape of the net's
    layout. A forward run with hooks writes each layer's hook gradient into
    d_hooks[l], one array per layer of its width; tape.d_hooks is left as
    it is."""
    hooks, own = cache.hooks, None  # g is the caller's until a product
    for l in range(net.n_layers - 1, -1, -1):
        a = cache.post_raw[l]
        if hooks is not None:
            np.add.reduce(g * a, axis=0, out=d_hooks[l])
            g = own = np.multiply(g, hooks[l], out=own)
        g = own = np.multiply(g, a > 0.0, out=own)
        below = cache.post[l - 1] if l > 0 else cache.x
        tape.d_weights[l] += g.T @ below
        tape.d_biases[l] += np.add.reduce(g, axis=0)
        if l > 0:
            g = own = g @ net.weights[l]


def input_gradient(net: DenseNet, cache: ForwardCache,
                   upstream) -> np.ndarray:
    """d(loss)/d(input) of each row of the forward, (n, d).

    upstream is d(loss)/d(output), (n, out). Runs the chain rule of
    ``backward`` through the hooks and ReLUs only: no tape, and no weight,
    bias or hook gradient.
    """
    g = _upstream("input_gradient", cache, upstream)
    own = None  # g is the caller's until the first product is formed
    for l in range(net.n_layers - 1, -1, -1):
        if cache.hooks is not None:
            g = own = np.multiply(g, cache.hooks[l], out=own)
        g = np.multiply(g, cache.post_raw[l] > 0.0, out=own)
        g = own = g @ net.weights[l]
    return g


def sgd_step(net: DenseNet, tape: GradTape, lr: float) -> None:
    """In-place p <- p - lr * g over all parameters, as one update of the
    flat buffer. A non-finite gradient raises NumericError naming its first
    layer before any parameter moves."""
    _check_step(net, tape, lr)
    _sgd_step(net, tape, lr)


def _check_step(net: DenseNet, tape: GradTape, lr: float) -> None:
    """sgd_step's checks: lr > 0 and a tape of the net's layout."""
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if tape.layout != net.layout:
        raise ShapeError(f"tape layout {tape.layout} != net layout "
                         f"{net.layout}")


def _sgd_step(net: DenseNet, tape: GradTape, lr: float) -> None:
    """sgd_step's body: lr > 0 and a tape of the net's layout. The
    finiteness check stays here, since any step's gradient can fail it."""
    if not np.isfinite(tape.grads).all():
        raise NumericError("non-finite gradient",
                           _first_nonfinite(tape.d_weights, tape.d_biases))
    net.params -= lr * tape.grads


# ---------------------------------------------------------------------------
# Losses and checking
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    z = _as_f64(logits)
    # .max and .sum as their ufunc reductions, without the Python wrappers
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


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
    _check_targets(t, z.shape[1])
    return _softmax_ce(z, t, np.arange(z.shape[0]))


def _check_targets(t: np.ndarray, c: int) -> None:
    """softmax_ce's range check of int targets against c classes."""
    if (t < 0).any() or (t >= c).any():
        raise IndexError("target class out of range")


def _softmax_ce(z: np.ndarray, t: np.ndarray, rows: np.ndarray
                ) -> tuple[float, np.ndarray]:
    """softmax_ce's body: z float64 (n, c) logits, t intp (n,) targets in
    [0, c), rows np.arange(n)."""
    p = softmax(z)
    picked = p[rows, t]
    loss = _nll(picked)
    picked -= 1.0
    p[rows, t] = picked  # p is now n times the gradient
    p /= z.shape[0]
    return loss, p


def _nll(picked: np.ndarray) -> float:
    """Mean -log of the target probabilities picked; .mean() keeps the
    -0.0 of a batch whose every row is certain."""
    return float(-np.log(np.maximum(picked, LOG_CLAMP)).mean())
