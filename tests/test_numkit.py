import numpy as np
import pytest

import oracles
from clwb import numkit as nk


def small_net(rng, sizes=(3, 4, 2)):
    return nk.glorot_net(list(sizes), rng)


def straight_line_forward(net, x, hooks=None):
    # independent re-evaluation: explicit per-layer loops, no shared code path
    h = np.array(x, dtype=float)
    for l in range(net.n_layers):
        z = np.array([float(net.weights[l][i] @ h) + net.biases[l][i]
                      for i in range(net.weights[l].shape[0])])
        h = np.where(z > 0, z, 0.0)
        if hooks is not None:
            h = h * hooks[l]
    return h


def test_forward_identity_weights():
    # nonnegative inputs: the relu passes them as they are
    net = nk.DenseNet([np.eye(2)], [np.zeros(2)])
    out, _ = nk.forward(net, [[1.0, 2.0]])
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_forward_zero_hook_annihilates_layer():
    rng = np.random.default_rng(0)
    net = small_net(rng, (3, 5, 5, 2))
    x = rng.normal(size=(1, 3))
    hooks = [np.zeros(5), np.ones(5), np.ones(2)]
    out, _ = nk.forward(net, x, hooks)
    # zeroing layer 0 equals forwarding a zero hidden state through the rest
    tail = nk.DenseNet(net.weights[1:], net.biases[1:])
    expect, _ = nk.forward(tail, np.zeros((1, 5)))
    np.testing.assert_array_equal(out, expect)


def test_forward_matches_straight_line_recomputation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        net = small_net(rng, (4, 6, 3))
        x = rng.normal(size=4)
        hooks = [rng.uniform(size=6), rng.uniform(size=3)]
        (out,), _ = nk.forward(net, x[None], hooks)
        np.testing.assert_allclose(out, straight_line_forward(net, x, hooks),
                                   rtol=1e-12, atol=0)


def test_forward_pure_and_hook_of_ones_is_identity():
    rng = np.random.default_rng(2)
    net = small_net(rng)
    x = rng.normal(size=(1, 3))
    a, _ = nk.forward(net, x)
    b, _ = nk.forward(net, x, [np.ones(4), np.ones(2)])
    c, _ = nk.forward(net, x)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_forward_shape_errors():
    rng = np.random.default_rng(3)
    net = small_net(rng)
    with pytest.raises(nk.ShapeError, match=r"expected \(n, 3\) rows"):
        nk.forward(net, np.zeros((1, 5)))
    # one instance is a one-row batch: a (d,) vector is refused
    with pytest.raises(nk.ShapeError, match=r"expected \(n, 3\) rows"):
        nk.forward(net, np.zeros(3))
    with pytest.raises(nk.ShapeError):
        nk.forward(net, np.zeros((1, 3)), [np.ones(3), np.ones(2)])
    # hooks are one per layer or none: a None in the list names its layer
    with pytest.raises(nk.ShapeError, match="^hook 1: "):
        nk.forward(net, np.zeros((1, 3)), [np.ones(4), None])


def test_input_gradient_linear_is_weight_row():
    # both pre-activations are positive, so the relu passes the gradient
    W = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, 1.0]])
    net = nk.DenseNet([W], [np.zeros(2)])
    _, cache = nk.forward(net, [[0.3, -0.1, 2.0]])
    xg = nk.input_gradient(net, cache, [[1.0, 0.0]])  # loss = f(x)[0]
    np.testing.assert_array_equal(xg[0], W[0])


def test_backward_zero_upstream_zero_grads():
    rng = np.random.default_rng(4)
    net = small_net(rng)
    tape = nk.GradTape(net)
    _, cache = nk.forward(net, rng.normal(size=(1, 3)))
    assert nk.backward(net, tape, cache, np.zeros((1, 2))) is None
    xg = nk.input_gradient(net, cache, np.zeros((1, 2)))
    assert not xg.any()
    assert not any(g.any() for g in tape.d_weights)
    assert not any(g.any() for g in tape.d_biases)


def _backward_with_input_gradient(net, tape, cache, upstream):
    """backward as it was before the input gradient became its own function:
    fills the tape and returns d(loss)/d(input) rows. The oracle of both.
    Its relu mask is z > 0 of the pre-activation z, recomputed from the
    layer's input, as the forward cache once held it."""
    g = np.asarray(upstream, dtype=np.float64)
    hooks = cache.hooks
    tape.d_hooks = None if hooks is None else [None] * net.n_layers
    for l in range(net.n_layers - 1, -1, -1):
        a = cache.post_raw[l]
        if hooks is not None:
            tape.d_hooks[l] = (g * a).sum(axis=0)
            g = g * hooks[l]
        below = cache.post[l - 1] if l > 0 else cache.x
        g = g * (below @ net.weights[l].T + net.biases[l] > 0.0)
        tape.d_weights[l] += g.T @ below
        tape.d_biases[l] += g.sum(axis=0)
        g = g @ net.weights[l]
    return g


def _random_tape(net, rng):
    tape = nk.GradTape(net)
    for g in tape.d_weights + tape.d_biases:
        g[...] = rng.normal(size=g.shape)
    return tape


def _copy_tape(net, tape):
    copy = nk.GradTape(net)
    copy.grads[:] = tape.grads
    return copy


@pytest.mark.parametrize("hooked", ["none", "every"])
def test_split_gradients_have_the_bits_of_the_old_backward(hooked):
    rng = np.random.default_rng([11, len(hooked)])
    for trial in range(10):
        sizes = [int(k) for k in rng.integers(1, 9, size=rng.integers(2, 5))]
        net = nk.glorot_net(sizes, rng)
        n_layers = net.n_layers
        # HAT gates: sigmoid outputs in (0, 1), some saturated to 0 or 1
        gates = [np.clip(rng.uniform(-0.2, 1.2, size=w.shape[0]), 0.0, 1.0)
                 for w in net.weights]
        hooks = {"none": None, "every": gates}[hooked]
        x = rng.normal(size=(int(rng.integers(1, 7)), sizes[0]))
        x[0] = 0.0  # zero biases: pre-activations exactly 0, a closed relu
        out, cache = nk.forward(net, x, hooks)
        upstream = rng.normal(size=out.shape)

        start = _random_tape(net, rng)
        want_tape = _copy_tape(net, start)
        want_x = _backward_with_input_gradient(net, want_tape, cache, upstream)
        tape = _copy_tape(net, start)
        nk.backward(net, tape, cache, upstream)
        got_x = nk.input_gradient(net, cache, upstream)

        assert got_x.shape == x.shape
        assert got_x.tobytes() == want_x.tobytes()
        assert (tape.d_hooks is None) == (want_tape.d_hooks is None)
        for l in range(n_layers):
            assert tape.d_weights[l].tobytes() == want_tape.d_weights[l].tobytes()
            assert tape.d_biases[l].tobytes() == want_tape.d_biases[l].tobytes()
            if want_tape.d_hooks is not None:
                assert tape.d_hooks[l].tobytes() == \
                    want_tape.d_hooks[l].tobytes()


def test_input_gradient_against_central_differences():
    rng = np.random.default_rng(12)
    for _ in range(5):
        net = small_net(rng, (4, 6, 5, 3))
        hooks = [rng.uniform(0.2, 0.8, size=6), rng.uniform(0.2, 0.8, size=5),
                 rng.uniform(size=3)]
        upstream = rng.normal(size=(3, 3))

        def loss(params):
            (x,) = params
            out, cache = nk.forward(net, x, hooks)
            return float((upstream * out).sum()), \
                [nk.input_gradient(net, cache, upstream)]

        report = oracles.grad_check(loss, [rng.normal(size=(3, 4))])
        assert report.ok, str(report)


def test_input_gradient_errors():
    rng = np.random.default_rng(13)
    net = small_net(rng)
    with pytest.raises(nk.StateError):
        nk.input_gradient(net, None, np.zeros((1, 2)))
    _, cache = nk.forward(net, rng.normal(size=(2, 3)))
    with pytest.raises(nk.ShapeError):
        nk.input_gradient(net, cache, np.zeros((2, 3)))


def test_backward_batch_equals_sum_of_singles():
    rng = np.random.default_rng(5)
    net = small_net(rng)
    xs = rng.normal(size=(7, 3))
    ups = rng.normal(size=(7, 2))
    tape_b = nk.GradTape(net)
    _, cache = nk.forward(net, xs)
    nk.backward(net, tape_b, cache, ups)
    tape_s = nk.GradTape(net)
    for x, u in zip(xs, ups):
        _, c = nk.forward(net, x[None])
        nk.backward(net, tape_s, c, u[None])
    for gb, gs in zip(tape_b.d_weights, tape_s.d_weights):
        np.testing.assert_allclose(gb, gs, rtol=1e-12)


def test_backward_requires_cache():
    rng = np.random.default_rng(6)
    net = small_net(rng)
    with pytest.raises(nk.StateError):
        nk.backward(net, nk.GradTape(net), None, np.zeros(2))


def test_sgd_step_formula_and_zero_grad():
    net = nk.DenseNet([np.array([[1.0]])], [np.zeros(1)])
    tape = nk.GradTape(net)
    tape.d_weights[0][0, 0] = 0.5
    nk.sgd_step(net, tape, 0.1)
    assert net.weights[0][0, 0] == pytest.approx(0.95, abs=0)
    nk.sgd_step(net, nk.GradTape(net), 0.1)
    assert net.weights[0][0, 0] == 0.95


def test_sgd_two_steps_equal_summed_delta():
    rng = np.random.default_rng(7)
    net = small_net(rng)
    twin = nk.DenseNet([w.copy() for w in net.weights],
                       [b.copy() for b in net.biases])
    tape = nk.GradTape(net)
    for g in tape.d_weights:
        g += rng.normal(size=g.shape)
    nk.sgd_step(net, tape, 0.01)
    nk.sgd_step(net, tape, 0.01)
    nk.sgd_step(twin, tape, 0.02)
    for a, b in zip(net.weights, twin.weights):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_sgd_nonfinite_gradient_reports_layer():
    rng = np.random.default_rng(8)
    net = small_net(rng)
    tape = nk.GradTape(net)
    tape.d_weights[1][0, 0] = np.nan
    with pytest.raises(nk.NumericError) as e:
        nk.sgd_step(net, tape, 0.1)
    assert e.value.layer == 1


def test_sgd_nonfinite_gradient_moves_no_parameter():
    # a NaN in layer 1's gradient: layer 0 must not step before the raise
    rng = np.random.default_rng(8)
    for bad in ("d_weights", "d_biases"):
        net = small_net(rng)
        before = [p.copy() for p in net.weights + net.biases]
        tape = _random_tape(net, rng)
        getattr(tape, bad)[1][0] = np.nan
        with pytest.raises(nk.NumericError) as e:
            nk.sgd_step(net, tape, 0.1)
        assert e.value.layer == 1
        assert [p.tobytes() for p in net.weights + net.biases] == \
            [p.tobytes() for p in before]


def test_sgd_nonfinite_gradient_names_the_first_bad_layer():
    rng = np.random.default_rng(14)
    net = small_net(rng, (3, 5, 4, 2))
    tape = _random_tape(net, rng)
    tape.d_biases[2][0] = -np.inf
    tape.d_weights[1][0, 0] = np.nan
    with pytest.raises(nk.NumericError) as e:
        nk.sgd_step(net, tape, 0.1)
    assert e.value.layer == 1
    net.weights[2][0, 0] = np.inf
    with pytest.raises(nk.NumericError) as e:
        net.validate()
    assert e.value.layer == 2


def test_parameters_and_gradients_are_views_of_one_buffer():
    rng = np.random.default_rng(15)
    net = small_net(rng, (3, 5, 4, 2))
    assert net.params.size == sum(p.size for p in net.weights + net.biases)
    assert all(np.shares_memory(p, net.params)
               for p in net.weights + net.biases)
    # all weights row-major, then all biases, in layer order
    assert net.params.tobytes() == b"".join(
        p.tobytes() for p in net.weights + net.biases)
    net.weights[1][2, 3] = 7.5
    assert 7.5 in net.params
    tape = nk.GradTape(net)
    assert tape.layout == net.layout
    assert all(np.shares_memory(g, tape.grads)
               for g in tape.d_weights + tape.d_biases)
    tape.grads[:] = 1.0
    tape.d_hooks = [np.ones(2)]
    tape.zero()
    assert tape.d_hooks is None
    assert tape.grads.tobytes() == np.zeros(tape.grads.size).tobytes()
    # the views cannot be replaced, so they never leave params
    with pytest.raises(AttributeError):
        net.weights = [w + 1.0 for w in net.weights]
    with pytest.raises(AttributeError):
        net.biases = [b + 1.0 for b in net.biases]


def test_masked_multiplies_the_weights_and_keeps_the_biases():
    rng = np.random.default_rng(16)
    net = small_net(rng)
    net.biases[1][:] = [0.5, -0.0]
    flat = np.ones_like(net.params)
    masks, ones = net.views(flat)
    assert all(np.shares_memory(v, flat) for v in masks + ones)
    for m in masks:
        m[...] = rng.choice([0.0, 1.0], size=m.shape)
    masked = net.masked(flat)
    assert masked.layout == net.layout
    assert not np.shares_memory(masked.params, net.params)
    for a, b in zip(masked.weights + masked.biases,
                    [w * m for w, m in zip(net.weights, masks)] + net.biases):
        assert a.tobytes() == b.tobytes()
    masks[1][0, 0] = np.nan
    with pytest.raises(nk.NumericError) as e:
        net.masked(flat)
    assert e.value.layer == 1
    with pytest.raises(nk.ShapeError):
        net.masked(flat[1:])
    with pytest.raises(nk.ShapeError):
        net.views(flat[1:])


def test_sgd_step_refuses_a_tape_of_another_layout():
    rng = np.random.default_rng(17)
    net = small_net(rng, (3, 4, 2))
    tape = nk.GradTape(small_net(rng, (5, 3, 2)))  # same size
    assert tape.grads.size == net.params.size
    with pytest.raises(nk.ShapeError):
        nk.sgd_step(net, tape, 0.1)


def test_grad_check_quadratic_exact():
    def loss(params):
        (p,) = params
        return 0.5 * float(p @ p), [p]

    report = oracles.grad_check(loss, [np.array([0.3, -1.2, 4.0])])
    assert report.ok and report.worst < 1e-9


def test_grad_check_softmax_ce():
    rng = np.random.default_rng(9)
    for _ in range(5):
        logits = rng.normal(size=(1, 6))
        target = rng.integers(6, size=1)

        def loss(params):
            (z,) = params
            return nk.softmax_ce(z, target)[0], [nk.softmax_ce(z, target)[1]]

        report = oracles.grad_check(loss, [logits.copy()], tol=1e-6)
        assert report.ok, str(report)


def test_grad_check_through_full_net():
    rng = np.random.default_rng(10)
    net = small_net(rng, (3, 5, 4))
    x = rng.normal(size=(1, 3))
    target = [2]
    hooks = [rng.uniform(0.2, 0.8, size=5), rng.uniform(0.2, 0.8, size=4)]

    def loss(params):
        trial = nk.DenseNet(params[:2], params[2:])
        out, cache = nk.forward(trial, x, hooks)
        val, dlogits = nk.softmax_ce(out, target)
        tape = nk.GradTape(trial)
        nk.backward(trial, tape, cache, dlogits)
        return val, tape.d_weights + tape.d_biases

    params = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
    report = oracles.grad_check(loss, params)
    assert report.ok, str(report)


def test_softmax_ce_rejects_bad_target():
    with pytest.raises(IndexError):
        nk.softmax_ce(np.zeros((1, 3)), [3])


def test_logsumexp_rows_and_all_neg_inf_row():
    a = np.array([[0.0, np.log(3.0)], [1e4, 1e4], [-np.inf, -np.inf]])
    out = nk.logsumexp(a)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(np.log(4.0))
    assert out[1] == pytest.approx(1e4 + np.log(2.0))
    assert out[2] == -np.inf


def test_log_softmax_keeps_the_shift_then_log_sum_bits():
    z = np.random.default_rng(0).normal(size=(20, 7)) * 30.0
    s = z - z.max(axis=-1, keepdims=True)
    old = s - np.log(np.exp(s).sum(axis=-1, keepdims=True))
    assert nk.log_softmax(z).tobytes() == old.tobytes()
    assert nk.log_softmax(z[0]).tobytes() == old[0].tobytes()
