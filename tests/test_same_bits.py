"""Bit-identity oracles for the work that is done once instead of per call.

Each test keeps a copy of the code as it was when every call recomputed its
constants: the forward that stored each pre-activation z and masked relu
gradients by z > 0, HAT's per-batch gradient factors, free mass and
boolean-mask sigmoid, and the calibration fit that formed both gradients at
every full-buffer evaluation. The live code must give the same bytes. The
same holds for verify's instance sampler, against its normalizer as it was
before it skipped numpy's `where=` divide, `np.where` masks and row
reductions, and for theory's task-slice sums, against one `.sum` per slice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clwb import backbones as bb
from clwb import composer as cp
from clwb import numkit as nk
from clwb import theory as th
from clwb import verify
from conftest import net_args

# -0.0 and NaN inputs reach the relu mask as -0.0 and NaN pre-activations
SPECIAL = (0.0, -0.0, np.nan, 1e300, -1e300)


# ---------------------------------------------------------------------------
# The per-call code, the oracle
# ---------------------------------------------------------------------------

def _old_forward(net, x, hooks):
    x = np.asarray(x, dtype=np.float64)
    h, pre, post_raw, post = x, [], [], []
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w.T + b
        a = np.maximum(z, 0.0)
        pre.append(z)
        post_raw.append(a)
        h = a * hooks[l] if hooks is not None else a
        post.append(h)
    return h, (x, pre, post_raw, post, hooks)


def _old_backward(net, tape, cache, upstream):
    x, pre, post_raw, post, hooks = cache
    g = np.asarray(upstream, dtype=np.float64)
    tape.d_hooks = None if hooks is None else [None] * net.n_layers
    for l in range(net.n_layers - 1, -1, -1):
        a = post_raw[l]
        if hooks is not None:
            tape.d_hooks[l] = (g * a).sum(axis=0)
            g = g * hooks[l]
        g = g * (pre[l] > 0.0)
        below = post[l - 1] if l > 0 else x
        tape.d_weights[l] += g.T @ below
        tape.d_biases[l] += g.sum(axis=0)
        if l > 0:
            g = g @ net.weights[l]


def _old_input_gradient(net, cache, upstream):
    x, pre, post_raw, post, hooks = cache
    g = np.asarray(upstream, dtype=np.float64)
    for l in range(net.n_layers - 1, -1, -1):
        if hooks is not None:
            g = g * hooks[l]
        g = g * (pre[l] > 0.0)
        g = g @ net.weights[l]
    return g


def _old_hat_attention(e, s):
    z = s * np.asarray(e, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _old_hat_masked_gradients(tape, accumulated):
    for l, acc_out in enumerate(accumulated):
        acc_in = accumulated[l - 1] if l > 0 else \
            np.ones(tape.d_weights[l].shape[1])
        factor = 1.0 - np.minimum(acc_out[:, None], acc_in[None, :])
        tape.d_weights[l] *= factor
        tape.d_biases[l] *= 1.0 - acc_out


def _old_hat_regularizer(lam, accumulated, attentions, s):
    free = [1.0 - acc for acc in accumulated]
    denom = float(sum(f.sum() for f in free))
    if denom == 0.0:
        return 0.0, [np.zeros_like(a) for a in attentions], True
    value = lam * float(sum((a * f).sum()
                            for a, f in zip(attentions, free))) / denom
    grads = [lam * f / denom * a * (1.0 - a) * s
             for a, f in zip(attentions, free)]
    return value, grads, False


def _old_calibration_loss(stacked, labels, widths, alpha, beta):
    offsets = np.concatenate([[0], np.cumsum(widths)])
    task_of_col = np.concatenate([np.full(w, k) for k, w in enumerate(widths)])
    z = stacked * alpha[task_of_col] + beta[task_of_col]
    loss, dz = nk.softmax_ce(z, labels)
    d_alpha = np.array([(dz[:, offsets[k]:offsets[k + 1]]
                         * stacked[:, offsets[k]:offsets[k + 1]]).sum()
                        for k in range(len(widths))])
    d_beta = np.array([dz[:, offsets[k]:offsets[k + 1]].sum()
                       for k in range(len(widths))])
    return loss, d_alpha, d_beta


def _old_fit_calibration(per_task_logits, labels, *, iters, lr, batch_size,
                         seed):
    labels = np.asarray(labels, dtype=np.intp)
    per_task = [np.asarray(v, dtype=np.float64) for v in per_task_logits]
    widths = [v.shape[1] for v in per_task]
    stacked = np.concatenate(per_task, axis=1)
    rng = np.random.default_rng(seed)
    alpha, beta = np.ones(len(per_task)), np.zeros(len(per_task))
    initial = _old_calibration_loss(stacked, labels, widths, alpha, beta)[0]
    best, history, n = (initial, alpha.copy(), beta.copy()), [initial], \
        len(labels)
    for _ in range(iters):
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        _, d_alpha, d_beta = _old_calibration_loss(stacked[idx], labels[idx],
                                                   widths, alpha, beta)
        alpha -= lr * d_alpha
        beta -= lr * d_beta
        current = _old_calibration_loss(stacked, labels, widths, alpha,
                                        beta)[0]
        history.append(current)
        if current < best[0]:
            best = (current, alpha.copy(), beta.copy())
    return best[1], best[2], history


def _old_normalize_rows(g, valid):
    g = np.where(valid, g, 0.0)
    total = g.sum(axis=-1, keepdims=True)
    uniform = np.broadcast_to(1.0 / valid.sum(axis=-1, keepdims=True), g.shape)
    p = np.divide(g, total, out=uniform.copy(), where=total > 0)
    p = np.where(valid, np.maximum(p, verify.FLOOR), 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def _old_slice_masses(p, topo):
    return np.stack([p[..., topo.task_slice(k)].sum(axis=-1)
                     for k in range(topo.n_tasks)], axis=-1)


def _old_distribution_rows(p, name, topo=None):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise ValueError(f"{name} must be a nonempty vector or row batch")
    if (p < 0).any() or not np.isfinite(p).all():
        raise ValueError(f"{name} has negative or non-finite entries")
    slices = [slice(None)] if topo is None else \
        [topo.task_slice(k) for k in range(topo.n_tasks)]
    for s in slices:
        total = p[..., s].sum(axis=-1)
        bad = np.flatnonzero(np.abs(total - 1.0) > 1e-9)
        if bad.size:  # the sum printed as a plain float, as now
            raise ValueError(f"{name} row {bad[0]} sums to "
                             f"{float(total.flat[bad[0]])!r}, not 1")
    return p


# ---------------------------------------------------------------------------
# numkit: forward, backward, input_gradient
# ---------------------------------------------------------------------------

def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       hooked=st.sampled_from(["none", "every"]),
       n_special=st.integers(0, 4))
def test_forward_and_gradients_have_the_per_call_bits(seed, hooked, n_special):
    rng = np.random.default_rng(seed)
    sizes = [int(k) for k in rng.integers(1, 7, size=rng.integers(2, 5))]
    net = nk.glorot_net(sizes, rng)
    for b in net.biases:  # +0.0 and -0.0 biases make exact-zero z
        b[:] = rng.choice([0.0, -0.0, 0.5, -0.5], size=b.shape)
    gates = [np.clip(rng.uniform(-0.2, 1.2, size=w.shape[0]), 0.0, 1.0)
             for w in net.weights]
    hooks = {"none": None, "every": gates}[hooked]
    x = rng.normal(size=(int(rng.integers(1, 6)), sizes[0]))
    x[0] = rng.choice([0.0, -0.0], size=sizes[0])
    flat = x.reshape(-1)
    flat[rng.integers(flat.size, size=n_special)] = \
        rng.choice(SPECIAL, size=n_special)

    with np.errstate(all="ignore"):
        want_out, old = _old_forward(net, x, hooks)
        got_out, cache = nk.forward(net, x, hooks)
        assert _same(got_out, want_out)
        for l in range(net.n_layers):
            assert _same(cache.post_raw[l], old[2][l])
            assert _same(cache.post[l], old[3][l])
        assert _same(cache.x, old[0])

        upstream = rng.normal(size=got_out.shape)
        want_tape = nk.GradTape.for_net(net)
        _old_backward(net, want_tape, old, upstream)
        tape = nk.GradTape.for_net(net)
        nk.backward(net, tape, cache, upstream)
        assert (tape.d_hooks is None) == (want_tape.d_hooks is None)
        for l in range(net.n_layers):
            assert _same(tape.d_weights[l], want_tape.d_weights[l])
            assert _same(tape.d_biases[l], want_tape.d_biases[l])
            if tape.d_hooks is not None:
                assert _same(tape.d_hooks[l], want_tape.d_hooks[l])
        assert _same(nk.input_gradient(net, cache, upstream),
                     _old_input_gradient(net, old, upstream))


# ---------------------------------------------------------------------------
# HAT: attention and the per-state constants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(e=st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from(
           [0.0, -0.0, 1e-300, -1e-300, 2.0, -2.0, 1e300, -1e300])),
           min_size=1, max_size=12),
       s=st.sampled_from([400.0, 1.0 / 400.0, 1.0, 7.5]))
def test_hat_attention_has_the_boolean_mask_bits(e, s):
    e = np.array(e)
    with np.errstate(over="ignore"):
        assert _same(bb.hat_attention(e, s), _old_hat_attention(e, s))


def test_hat_attention_at_signed_zero_and_large_embeddings():
    e = np.array([0.0, -0.0, 1e-3, -1e-3, 5.0, -5.0, 1e4, -1e4])
    got = bb.hat_attention(e, 400.0)
    assert _same(got, _old_hat_attention(e, 400.0))
    assert got[0] == got[1] == 0.5
    assert got[-2] == 1.0 and got[-1] == 0.0


def _hat_step_matches(state, rng, fan_in):
    """hat_masked_gradients and hat_regularizer on state against the
    per-call oracle over state.accumulated as it is now."""
    widths = [a.size for a in state.accumulated]
    ins = [fan_in] + widths[:-1]
    weights = [rng.normal(size=(o, i)) for o, i in zip(widths, ins)]
    biases = [rng.normal(size=o) for o in widths]
    tape = nk.GradTape([w.copy() for w in weights], [b.copy() for b in biases])
    want = nk.GradTape([w.copy() for w in weights], [b.copy() for b in biases])
    bb.hat_masked_gradients(tape, state)
    _old_hat_masked_gradients(want, state.accumulated)
    for got_w, want_w, got_b, want_b in zip(tape.d_weights, want.d_weights,
                                            tape.d_biases, want.d_biases):
        assert _same(got_w, want_w) and _same(got_b, want_b)
    attn = [rng.uniform(size=w) for w in widths]
    value, grads, exhausted = bb.hat_regularizer(state, 0, attn, 3.0)
    want_value, want_grads, want_exhausted = _old_hat_regularizer(
        state.lambda_for(0), state.accumulated, attn, 3.0)
    assert value == want_value and exhausted == want_exhausted
    assert all(_same(g, w) for g, w in zip(grads, want_grads))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hat_constants_follow_every_new_accumulated_state(seed):
    rng = np.random.default_rng(seed)
    dim, hidden = int(rng.integers(1, 6)), [int(h) for h in
                                            rng.integers(1, 7, size=2)]
    lam = float(rng.uniform(0.1, 2.0))
    net = bb.build_masked_net(dim, hidden, isolation="hat", seed=seed % 97,
                              **net_args(lambdas=[lam]))
    state = net.isolation
    _hat_step_matches(state, rng, dim)  # all free
    # a new list of arrays, with saturated and exactly-claimed units
    state.accumulated = [rng.choice([0.0, 0.3, 1.0], size=h) for h in hidden]
    _hat_step_matches(state, rng, dim)
    _hat_step_matches(state, rng, dim)  # reused: still the same arrays
    # one layer's array replaced in the same list
    state.accumulated[1] = np.ones(hidden[1])
    _hat_step_matches(state, rng, dim)
    # hat_accumulate replaces every layer's array
    state.embeddings[0] = [rng.normal(size=h) * 0.01 for h in hidden]
    bb.hat_accumulate(net, 0)
    _hat_step_matches(state, rng, dim)
    # every unit claimed: the exhausted branch
    state.accumulated = [np.ones(h) for h in hidden]
    _hat_step_matches(state, rng, dim)


# ---------------------------------------------------------------------------
# Calibration fit
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), iters=st.integers(0, 25),
       batch=st.integers(1, 20), lr=st.sampled_from([0.01, 0.1, 0.5]))
def test_fit_calibration_has_the_two_gradient_bits(seed, iters, batch, lr):
    rng = np.random.default_rng(seed)
    widths = [int(w) for w in rng.integers(1, 5, size=rng.integers(1, 5))]
    n = int(rng.integers(1, 30))
    logits = [rng.normal(size=(n, w)) * rng.uniform(0.1, 20.0)
              for w in widths]
    labels = rng.integers(sum(widths), size=n)
    params, history = cp.fit_calibration(logits, labels, iters=iters, lr=lr,
                                         batch_size=batch, seed=seed % 1000)
    alpha, beta, want_history = _old_fit_calibration(
        logits, labels, iters=iters, lr=lr, batch_size=batch,
        seed=seed % 1000)
    assert _same(params.alpha, alpha) and _same(params.beta, beta)
    assert history == want_history


# ---------------------------------------------------------------------------
# verify: the instance sampler's normalizer
# ---------------------------------------------------------------------------

# gamma draws are finite and >= 0; these reach the sum's rounding, the
# overflow to an infinite total and the zero-total fallback
EXTREME = (0.0, 5e-324, 1e-310, 1e300, 1.7e308)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 30),
       tasks=st.sampled_from([None, 1, 6]), n=st.integers(1, 40),
       n_zero=st.integers(0, 3), n_extreme=st.integers(0, 6),
       strided=st.booleans())
def test_normalize_rows_has_the_where_and_reduction_bits(
        seed, width, tasks, n, n_zero, n_extreme, strided):
    """Rows of 1-30 entries, shaped (n, m) or (n, k, m): numpy sums fewer
    than 8 entries from left to right and 8 or more pairwise."""
    rng = np.random.default_rng(seed)
    lead = (n,) if tasks is None else (n, tasks)
    alpha = rng.choice(verify._ALPHAS, size=lead + (1,))
    g = rng.standard_gamma(alpha, size=lead + (width + 3 * strided,))
    rows = g.reshape(-1, g.shape[-1])
    valid = rng.random(lead + (width,)) < rng.uniform(0.1, 1.0)
    masks = valid.reshape(-1, width)
    # the sampler gives every row a valid entry
    masks[np.arange(len(masks)), rng.integers(width, size=len(masks))] = True
    zero = rng.integers(len(rows), size=n_zero)
    rows[zero, :width] *= ~masks[zero]  # valid entries all 0
    rows[rng.integers(len(rows), size=n_extreme),
         rng.integers(width, size=n_extreme)] = rng.choice(EXTREME,
                                                           size=n_extreme)
    g = g[..., :width]  # a strided slice, like the WP and TP blocks
    with np.errstate(over="ignore"):
        want = _old_normalize_rows(g, valid)
        got = verify._normalize_rows(g, valid)
    assert _same(got, want)


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_every_suite_draws_and_dumps_the_same_instances(
        name, monkeypatch, negate_suite):
    """Every trial made a counterexample and kept: the dumps print each
    instance and its verdict's inputs at full precision."""
    negate_suite(name)
    monkeypatch.setattr(verify, "MAX_FAILURES_KEPT", 3000)
    got = verify.run_suite(name, 5, 3000)
    monkeypatch.setattr(verify, "_normalize_rows", _old_normalize_rows)
    want = verify.run_suite(name, 5, 3000)
    assert got.n_failed == want.n_failed
    assert got.failures == want.failures


# ---------------------------------------------------------------------------
# theory: the task-slice sums
# ---------------------------------------------------------------------------

SLICE_SPECIAL = (0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300)


def _topology(rng, width, tasks, ragged):
    """tasks slices of width entries, or of 1..width with one of width."""
    if not ragged:
        return th.TaskTopology.uniform(tasks, width)
    sizes = rng.integers(1, width + 1, size=tasks)
    sizes[rng.integers(tasks)] = width
    return th.TaskTopology(tuple(int(s) for s in sizes))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 12),
       tasks=st.integers(1, 5), ragged=st.booleans(),
       lead=st.sampled_from([(), (1,), (9,), (3, 4)]),
       n_special=st.integers(0, 6), strided=st.booleans())
def test_slice_masses_have_the_per_slice_sum_bits(
        seed, width, tasks, ragged, lead, n_special, strided):
    """Equal slices of 1-7 entries sum by column adds; 8 or more entries,
    and ragged slices, by one reduction per slice. Where two NaNs meet, the
    sum's NaN may carry either one's sign and payload, since numpy's loops
    do not fix which operand comes first; every other bit must match."""
    rng = np.random.default_rng(seed)
    topo = _topology(rng, width, tasks, ragged)
    m = topo.n_classes
    p = rng.standard_gamma(0.3, size=lead + (m + 3 * strided,)) \
        * 10.0 ** rng.integers(-30, 30, size=lead + (m + 3 * strided,))
    flat = p.reshape(-1)
    flat[rng.integers(flat.size, size=n_special)] = \
        rng.choice(SLICE_SPECIAL, size=n_special)
    p = p[..., :m]  # a strided slice, like a row block
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = th._slice_masses(p, topo), _old_slice_masses(p, topo)
    assert _same(np.isnan(got), np.isnan(want))
    assert _same(np.where(np.isnan(got), np.nan, got),
                 np.where(np.isnan(want), np.nan, want))


def _outcome(check, p, topo):
    try:
        return "ok", check(p, "wp", topo).tobytes()
    except ValueError as e:
        return "error", str(e)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 12),
       tasks=st.integers(1, 4), ragged=st.booleans(),
       lead=st.sampled_from([(1,), (6,)]),
       n_bad=st.integers(0, 3), whole_rows=st.booleans())
def test_distribution_rows_refuse_the_same_rows_with_the_same_message(
        seed, width, tasks, ragged, lead, n_bad, whole_rows):
    rng = np.random.default_rng(seed)
    topo = _topology(rng, width, tasks, ragged)
    slices = [rng.dirichlet(np.ones(s), size=lead) for s in topo.sizes]
    p = np.concatenate(slices, axis=-1)
    flat = p.reshape(-1, p.shape[-1])
    for _ in range(n_bad):
        row, col = rng.integers(len(flat)), rng.integers(p.shape[-1])
        flat[row, col] = rng.choice(SLICE_SPECIAL + (-1e-3, 1e-8, 0.5))
    with np.errstate(all="ignore"):
        # with topo=None a whole row is one distribution
        whole = p / p.sum(axis=-1, keepdims=True) if whole_rows else p
        for rows, t in ((p, topo), (whole, None)):
            assert _outcome(th._distribution_rows, rows, t) == \
                _outcome(_old_distribution_rows, rows, t)
