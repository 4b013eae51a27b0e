import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clwb import backbones as bb
from clwb import checkpoint as ck
from clwb import data as dt
from clwb import numkit as nk
from conftest import net_args, train_args


def gaussian_task(n_tasks=1, classes=2, dim=4, n=30, seed=0, sep=10.0):
    return dt.synth_gaussian_tasks(n_tasks, classes, dim, sep, n, seed=seed,
                                   n_test_per_class=max(1, n // 4))


def make_hat(dim=4, hidden=(8,), seed=0, **isolation):
    return bb.build_masked_net(dim, list(hidden), isolation="hat", seed=seed,
                               **net_args(**isolation))


def make_sup(dim=4, hidden=(8,), seed=0, **isolation):
    return bb.build_masked_net(dim, list(hidden), isolation="sup", seed=seed,
                               **net_args(**isolation))


class TestHatAttention:
    def test_zero_embedding(self):
        np.testing.assert_array_equal(bb.hat_attention(np.zeros(3), 5.0),
                                      np.full(3, 0.5))

    def test_saturation(self):
        a = bb.hat_attention(np.array([0.1]), 400.0)
        assert abs(a[0] - 1.0) < 1e-15

    def test_values(self):
        np.testing.assert_allclose(bb.hat_attention(np.array([-1.0, 1.0]), 1.0),
                                   [0.2689414213699951, 0.7310585786300049],
                                   rtol=1e-12)

    def test_positive_scale_required(self):
        with pytest.raises(ValueError):
            bb.hat_attention(np.zeros(2), 0.0)


class TestHatForward:
    def setup_net(self, seed=0):
        net = make_hat(seed=seed)
        rng = np.random.default_rng(seed + 100)
        net.isolation.embeddings[0] = rng.normal(size=8)
        net.heads[0] = bb.Head(rng.normal(size=(2, 8)), np.zeros(2))
        return net, rng

    def test_saturated_equals_unmasked(self):
        net, rng = self.setup_net()
        net.isolation.embeddings[0] = np.full(8, 5.0)  # sigmoid(2000) == 1
        x = rng.normal(size=(1, 4))
        feats, _ = nk.forward(net.trunk, x)
        expect = feats @ net.heads[0].weight.T + net.heads[0].bias
        np.testing.assert_array_equal(bb.hat_forward(net, x, 0), expect)

    def test_closed_attention_kills_features(self):
        net, rng = self.setup_net()
        net.isolation.embeddings[0] = np.full(8, -5.0)
        x = rng.normal(size=(1, 4))
        np.testing.assert_allclose(bb.hat_forward(net, x, 0),
                                   [net.heads[0].bias], atol=1e-12)

    def test_matches_recomputation(self):
        net, rng = self.setup_net(seed=3)
        x = rng.normal(size=4)
        a = bb.hat_attention(net.isolation.embeddings[0],
                             net.isolation.s_max)
        h = np.maximum(net.trunk.weights[0] @ x + net.trunk.biases[0], 0) * a
        expect = net.heads[0].weight @ h + net.heads[0].bias
        np.testing.assert_allclose(bb.hat_forward(net, x[None], 0), [expect],
                                   rtol=1e-12)

    def test_unknown_task(self):
        net, _ = self.setup_net()
        with pytest.raises(ValueError):
            bb.hat_forward(net, np.zeros((1, 4)), 7)


class TestInputShapes:
    @pytest.fixture(params=["hat", "sup"])
    def net(self, request):
        seq = gaussian_task(n=10)
        net = (make_hat if request.param == "hat" else make_sup)(dim=4)
        bb.train_task(net, 0, seq.tasks[0][0], **train_args(epochs=1, seed=0))
        return net

    def test_flat_width_mismatch_raises(self, net):
        # a (2, 2) array holds four values but is no batch of width 4
        for shape in [(2, 2), (3, 5), (5,)]:
            with pytest.raises(nk.ShapeError):
                bb.task_raw_logits(net, np.zeros(shape), 0)

    def test_image_batch_equals_its_flat_rows(self, net):
        images = np.random.default_rng(1).normal(size=(5, 2, 2))
        np.testing.assert_array_equal(
            bb.task_raw_logits(net, images, 0),
            bb.task_raw_logits(net, images.reshape(5, 4), 0))
        with pytest.raises(nk.ShapeError):
            bb.task_raw_logits(net, np.zeros((5, 3, 3)), 0)

    def test_rows_match_their_one_row_batches(self, net):
        x = np.random.default_rng(2).normal(size=(3, 4))
        rows = bb.task_raw_logits(net, x, 0)
        for i in range(3):
            np.testing.assert_allclose(bb.task_raw_logits(net, x[i:i + 1], 0),
                                       rows[i:i + 1], rtol=1e-12, atol=1e-12)

    def test_kind_forward_rejects_other_kind(self, net):
        x = np.zeros((1, 4))
        forwards = {"hat": bb.hat_forward, "sup": bb.sup_masked_forward}
        own = forwards.pop(net.kind)
        (other,) = forwards.values()
        np.testing.assert_array_equal(own(net, x, 0),
                                      bb.task_raw_logits(net, x, 0))
        with pytest.raises(ValueError, match=net.kind):
            other(net, x, 0)


class TestHatMaskedGradients:
    def run_case(self, acc_out, acc_in, g):
        state = bb.HatState(s_max=400.0, lambdas=[1.0],
                            sizes=[len(acc_in), len(acc_out)],
                            accumulated=np.array(acc_in + acc_out))
        tape = nk.GradTape(
            [np.full((len(acc_in), 3), g), np.full((len(acc_out), len(acc_in)), g)],
            [np.full(len(acc_in), g), np.full(len(acc_out), g)])
        bb.hat_masked_gradients(tape, state)
        return tape

    def test_fully_protected(self):
        tape = self.run_case([1.0], [1.0, 1.0], 2.0)
        assert not any(t.any() for t in tape.d_weights)
        assert not any(t.any() for t in tape.d_biases)

    def test_unprotected_unchanged(self):
        tape = self.run_case([0.0], [0.0, 0.0], 2.0)
        assert (tape.d_weights[1] == 2.0).all()
        assert (tape.d_weights[0] == 2.0).all()

    def test_formula_value(self):
        tape = self.run_case([0.4], [0.9, 0.9], 2.0)
        # layer 1: 1 - min(0.4, 0.9) = 0.6 -> 2 * 0.6 = 1.2
        np.testing.assert_allclose(tape.d_weights[1], 1.2)

    def test_contraction(self):
        rng = np.random.default_rng(5)
        state = bb.HatState(400.0, [1.0], [4, 3], np.concatenate(
            [rng.uniform(size=4), rng.uniform(size=3)]))
        tape = nk.GradTape([rng.normal(size=(4, 6)), rng.normal(size=(3, 4))],
                           [rng.normal(size=4), rng.normal(size=3)])
        before = [g.copy() for g in tape.d_weights]
        bb.hat_masked_gradients(tape, state)
        for a, b in zip(tape.d_weights, before):
            assert (np.abs(a) <= np.abs(b) + 1e-15).all()


class TestHatRegularizer:
    def test_uniform_attention_value(self):
        state = bb.HatState(400.0, [0.8], [5], np.zeros(5))
        value, grads, exhausted = bb.hat_regularizer(
            state, 0, np.full(5, 0.3), s=2.0)
        assert value == pytest.approx(0.8 * 0.3, rel=1e-12)
        assert not exhausted
        assert grads.shape == (5,)

    def test_zero_lambda_and_zero_attention(self):
        state = bb.HatState(400.0, [0.0], [5], np.zeros(5))
        value, _, _ = bb.hat_regularizer(state, 0, np.full(5, 0.3), s=2.0)
        assert value == 0.0
        state = bb.HatState(400.0, [1.0], [5], np.zeros(5))
        value, _, _ = bb.hat_regularizer(state, 0, np.zeros(5), s=2.0)
        assert value == 0.0

    def test_capacity_exhausted(self):
        state = bb.HatState(400.0, [1.0], [5], np.ones(5))
        value, grads, exhausted = bb.hat_regularizer(
            state, 0, np.full(5, 0.9), s=2.0)
        assert value == 0.0 and exhausted
        assert not grads.any()

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            lam = float(rng.uniform(0, 2))
            state = bb.HatState(400.0, [lam], [6], rng.uniform(size=6))
            value, _, _ = bb.hat_regularizer(
                state, 0, rng.uniform(size=6), s=2.0)
            assert 0.0 <= value <= lam + 1e-12


class TestHatAccumulate:
    def embed_for(self, attention, s_max=400.0):
        # invert the sigmoid at full scale
        a = np.clip(np.asarray(attention), 1e-9, 1 - 1e-9)
        return np.log(a / (1 - a)) / s_max

    def test_first_task_base_case(self):
        net = make_hat(hidden=(4,))
        target = [0.2, 0.7, 0.4, 0.9]
        net.isolation.embeddings[0] = self.embed_for(target)
        bb.hat_accumulate(net, 0)
        np.testing.assert_allclose(net.isolation.accumulated, target,
                                   rtol=1e-9)

    def test_all_zero_attention_no_change(self):
        net = make_hat(hidden=(4,))
        net.isolation.accumulated = np.array([0.3, 0.6, 0.0, 1.0])
        net.isolation.embeddings[0] = np.full(4, -1.0)  # a ~ 0
        bb.hat_accumulate(net, 0)
        np.testing.assert_array_equal(net.isolation.accumulated,
                                      [0.3, 0.6, 0.0, 1.0])

    def test_elementwise_max(self):
        net = make_hat(hidden=(2,))
        net.isolation.accumulated = np.array([0.2, 0.9])
        net.isolation.embeddings[0] = self.embed_for([0.5, 0.1])
        bb.hat_accumulate(net, 0)
        np.testing.assert_allclose(net.isolation.accumulated, [0.5, 0.9],
                                   rtol=1e-9)

    def test_snap_to_binary(self):
        net = make_hat(hidden=(2,))
        net.isolation.embeddings[0] = np.array([1.0, -1.0])  # sat at s=400
        bb.hat_accumulate(net, 0)
        np.testing.assert_array_equal(net.isolation.accumulated, [1.0, 0.0])


def _argsort_masks(scores, p):
    """mask_from_scores as it was before the partition, the oracle."""
    masks = []
    for v in scores:
        flat = v.reshape(-1)
        keep = int(np.ceil(p / 100.0 * flat.size))
        order = np.argsort(-flat, kind="stable")
        m = np.zeros(flat.size)
        m[order[:keep]] = 1.0
        masks.append(m.reshape(v.shape))
    return masks


def _masks(scores, p):
    """mask_from_scores written into new buffers of stale values."""
    return bb.mask_from_scores(scores, p,
                               [np.full(np.shape(v), 0.5) for v in scores])


class TestSupermasks:
    def test_full_density_equals_dense(self):
        net = make_sup(sparsity=100.0)
        rng = np.random.default_rng(7)
        mask = np.ones_like(net.trunk.params)
        bb.mask_from_scores(
            [rng.normal(size=w.shape) for w in net.trunk.weights], 100.0,
            net.trunk.views(mask)[0])
        net.isolation.masks[0] = mask
        net.heads[0] = bb.Head(rng.normal(size=(2, 8)), np.zeros(2))
        x = rng.normal(size=(1, 4))
        feats, _ = nk.forward(net.trunk, x)
        expect = feats @ net.heads[0].weight.T
        np.testing.assert_array_equal(bb.sup_masked_forward(net, x, 0), expect)

    def test_count_per_layer(self):
        rng = np.random.default_rng(8)
        scores = [rng.normal(size=(5, 7)), rng.normal(size=(3, 5))]
        for p in (10.0, 33.0, 50.0, 99.0):
            for m, v in zip(_masks(scores, p), scores):
                assert m.sum() == int(np.ceil(p / 100.0 * v.size))

    def test_keeps_largest_scores(self):
        w = np.array([[0.1, -3.0], [2.0, 0.5]])
        (mask,) = _masks([np.abs(w)], 50.0)
        np.testing.assert_array_equal(mask, [[0.0, 1.0], [1.0, 0.0]])

    def test_tie_break_lowest_flat_index(self):
        (mask,) = _masks([np.array([[1.0, 1.0], [1.0, 1.0]])], 50.0)
        np.testing.assert_array_equal(mask, [[1.0, 1.0], [0.0, 0.0]])

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12),
           p=st.one_of(st.just(100.0), st.just(1e-9),
                       st.floats(1e-6, 100.0)),
           palette=st.one_of(
               st.none(),
               st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]),
                        min_size=1, max_size=3)),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_argsort_version(self, rows, cols, p, palette, seed):
        rng = np.random.default_rng(seed)
        if palette is None:
            v = rng.normal(size=(rows, cols))
        else:  # few distinct values: heavy ties, -0.0 next to 0.0
            v = rng.choice(np.array(palette), size=(rows, cols))
        scores = [v, rng.normal(size=(cols, rows))]
        wants = _argsort_masks(scores, p)
        for got, want in zip(_masks(scores, p), wants):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # written into the views of a flat buffer of stale values, past
        # which two slots stay as they were
        flat = rng.uniform(size=2 * v.size + 2)
        out = [flat[:v.size].reshape(v.shape),
               flat[v.size:-2].reshape(cols, rows)]
        tail = flat[-2:].tobytes()
        got = bb.mask_from_scores(scores, p, out=out)
        assert all(g is o for g, o in zip(got, out))
        assert [o.tobytes() for o in out] == [w.tobytes() for w in wants]
        assert flat[-2:].tobytes() == tail

    def test_single_keep_takes_the_first_maximum(self):
        v = np.array([[0.0, 3.0, -0.0], [3.0, 1.0, 3.0]])
        (mask,) = _masks([v], 1e-9)
        np.testing.assert_array_equal(mask, [[0, 1, 0], [0, 0, 0]])
        # -0.0 == 0.0, so signed zeros tie and the lowest index wins
        (mask,) = _masks([np.array([-0.0, 0.0, -0.0, 0.0])], 50.0)
        np.testing.assert_array_equal(mask, [1, 1, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_names_its_layer(self, bad):
        scores = [np.ones((2, 3)), np.ones((3, 2))]
        scores[1][2, 0] = bad
        with pytest.raises(nk.NumericError, match="layer 1") as err:
            _masks(scores, 50.0)
        assert err.value.layer == 1

    def test_finished_trunk_is_built_once(self, monkeypatch):
        net = make_sup(dim=4, hidden=(16, 8))
        bb.train_task(net, 0, gaussian_task(n=20).tasks[0][0],
                      **train_args(epochs=2, lr=0.1, seed=4))
        state = net.isolation
        validated = []
        check = nk.DenseNet.validate
        monkeypatch.setattr(nk.DenseNet, "validate",
                            lambda self: validated.append(self) or check(self))
        first, _ = state.trunk_for(net, 0)
        assert all(state.trunk_for(net, 0)[0] is first for _ in range(3))
        assert len(validated) == 1  # built and validated on first use
        fresh = nk.DenseNet([w * m for w, m in zip(
            net.trunk.weights, net.trunk.views(state.masks[0])[0])],
            net.trunk.biases)
        for a, b in zip(first.weights + first.biases,
                        fresh.weights + fresh.biases):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # a new mask or a new trunk object is not served the old build
        state.masks[0] = state.masks[0].copy()
        assert state.trunk_for(net, 0)[0] is not first
        second = state.trunk_for(net, 0)[0]
        net.trunk = nk.DenseNet([w.copy() for w in net.trunk.weights],
                                [b.copy() for b in net.trunk.biases])
        assert state.trunk_for(net, 0)[0] is not second
        # the task in training has no record to serve: its steps own the
        # live mask
        state.start_task(net, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="unknown task 1"):
            state.trunk_for(net, 1)

    def test_score_update_linear_case(self):
        net = make_sup(dim=3, hidden=(2,))
        x = np.array([1.0, -2.0, 0.5])
        upstream = np.array([0.3, -0.7])
        # biases above |W x| keep both units open: the relu passes through
        eff = nk.DenseNet([net.trunk.weights[0].copy()], [np.full(2, 10.0)])
        tape = nk.GradTape.for_net(eff)
        _, cache = nk.forward(eff, x[None])
        nk.backward(eff, tape, cache, upstream[None])
        grads = bb.sup_score_update(tape, net.trunk)
        np.testing.assert_allclose(grads[0],
                                   net.trunk.weights[0] * np.outer(upstream, x),
                                   rtol=1e-12)

    def test_zero_upstream_zero_score_grad(self):
        net = make_sup()
        tape = nk.GradTape.for_net(net.trunk)
        grads = bb.sup_score_update(tape, net.trunk)
        assert not any(g.any() for g in grads)


def _assert_hat_layout(net):
    """HAT's records of net: the trunk's widths and flat accumulated gates."""
    state = net.isolation
    assert state.sizes == [w.shape[0] for w in net.trunk.weights]
    assert state.accumulated.shape == (sum(state.sizes),)


@pytest.mark.parametrize("kind", ["hat", "sup"])
def test_isolation_records_are_flat_in_the_trunk_layout(kind, tmp_path):
    seq = gaussian_task(n_tasks=3, n=20, seed=41)
    net = (make_hat if kind == "hat" else make_sup)(dim=4, hidden=(6, 5))
    if kind == "hat":
        _assert_hat_layout(net)
    for k in range(2):
        bb.train_task(net, k, seq.tasks[k][0],
                      **train_args(epochs=2, lr=0.1, seed=42))
    state = net.isolation
    for k in net.finished:
        if kind == "hat":
            assert state.sizes == [6, 5]
            assert state.embeddings[k].shape == (11,)
        else:
            assert state.masks[k].shape == net.trunk.params.shape
            masks, ones = net.trunk.views(state.masks[k])
            assert all(b.tobytes() == np.ones(b.size).tobytes() for b in ones)
            assert all(set(np.unique(m)) <= {0.0, 1.0} for m in masks)
    if kind == "hat":
        _assert_hat_layout(net)
        ck.save_checkpoint(tmp_path / "net.clwb", net)
        loaded, _ = ck.load_checkpoint(tmp_path / "net.clwb")
        _assert_hat_layout(loaded)
        assert loaded.isolation.accumulated.tobytes() == \
            state.accumulated.tobytes()
    else:
        # a started task has no frozen mask for trunk_for to serve
        state.start_task(net, 2, np.random.default_rng(43))
        with pytest.raises(ValueError, match="unknown task 2"):
            state.trunk_for(net, 2)
    # a record of another length raises at the first forward
    records = state.embeddings if kind == "hat" else state.masks
    records[1] = records[1][:-1]
    with pytest.raises(nk.ShapeError):
        bb.task_raw_logits(net, np.zeros((1, 4)), 1)


class TestTrainTask:
    @pytest.mark.parametrize("kind", ["hat", "sup"])
    def test_separable_task_reaches_high_accuracy(self, kind):
        seq = gaussian_task(n=40, seed=1)
        train = seq.tasks[0][0]
        net = (make_hat if kind == "hat" else make_sup)(dim=4, hidden=(16,))
        bb.train_task(net, 0, train,
                      **train_args(epochs=50, lr=0.1, batch_size=8, seed=2))
        logits = bb.task_raw_logits(net, train.images.reshape(len(train), -1), 0)
        acc = (logits.argmax(axis=1) == train.labels).mean()
        assert acc >= 0.99

    def test_double_training_rejected(self):
        seq = gaussian_task(n=10)
        net = make_sup(dim=4)
        bb.train_task(net, 0, seq.tasks[0][0], **train_args(epochs=1, seed=0))
        with pytest.raises(nk.StateError):
            bb.train_task(net, 0, seq.tasks[0][0],
                          **train_args(epochs=1, seed=0))

    def test_sup_frozen_mask_and_trunk_immutable(self):
        seq = gaussian_task(n_tasks=2, n=20, seed=3)
        net = make_sup(dim=4, hidden=(16,))
        bb.train_task(net, 0, seq.tasks[0][0],
                      **train_args(epochs=10, lr=0.1, seed=4))
        probe = np.random.default_rng(5).normal(size=(7, 4))
        before = bb.task_raw_logits(net, probe, 0).copy()
        mask_before = net.isolation.masks[0].copy()
        trunk_before = [w.copy() for w in net.trunk.weights]
        bb.train_task(net, 1, seq.tasks[1][0],
                      **train_args(epochs=10, lr=0.1, seed=6))
        after = bb.task_raw_logits(net, probe, 0)
        np.testing.assert_array_equal(before, after)  # bit-identical
        np.testing.assert_array_equal(net.isolation.masks[0], mask_before)
        for a, b in zip(net.trunk.weights, trunk_before):
            np.testing.assert_array_equal(a, b)

    def test_hat_stability_under_saturated_masks(self):
        seq = gaussian_task(n_tasks=2, n=40, seed=7)
        net = make_hat(dim=4, hidden=(16,))
        bb.train_task(net, 0, seq.tasks[0][0],
                      **train_args(epochs=40, lr=0.1, seed=8))
        acc = net.isolation.accumulated
        assert set(np.unique(acc)) <= {0.0, 1.0}  # snapped binary
        probe = np.random.default_rng(9).normal(size=(7, 4))
        before = bb.task_raw_logits(net, probe, 0).copy()
        bb.train_task(net, 1, seq.tasks[1][0],
                      **train_args(epochs=40, lr=0.1, seed=10))
        drift = np.abs(bb.task_raw_logits(net, probe, 0) - before).max()
        assert drift < 1e-6

    def test_trace_regularizer_bounded_by_lambda(self):
        seq = gaussian_task(n=20)
        net = make_hat(dim=4, hidden=(8,))
        trace = bb.train_task(net, 0, seq.tasks[0][0],
                              **train_args(epochs=5, lr=0.05, seed=11))
        lam = net.isolation.lambda_for(0)
        assert all(0.0 <= e.reg <= lam + 1e-9 for e in trace)

    def test_seed_determinism(self):
        seq = gaussian_task(n=15)
        nets = []
        for _ in range(2):
            net = make_hat(dim=4, hidden=(8,), seed=12)
            bb.train_task(net, 0, seq.tasks[0][0],
                          **train_args(epochs=3, seed=13))
            nets.append(net)
        for a, b in zip(nets[0].trunk.weights, nets[1].trunk.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(nets[0].heads[0].weight,
                                      nets[1].heads[0].weight)


def _assert_only_drawn(net, kind: str, loss: str, seed: int) -> None:
    """net holds what train_task(net, 0, ..., seed=seed) draws before its
    first step, and nothing more: no step has moved anything."""
    make = make_hat if kind == "hat" else make_sup
    twin = make(dim=16, seed=32)
    draw = np.random.default_rng([seed, 0, 1])
    twin.isolation.start_task(twin, 0, draw)
    head = bb._init_head(twin, 0, 2 * (1 if loss == "ce" else 4),
                         "plain" if loss == "ce" else "rotation", draw)
    assert net.trunk.params.tobytes() == twin.trunk.params.tobytes()
    live = (lambda n: [n.isolation.embeddings[0]]) if kind == "hat" else \
        (lambda n: n.isolation.scores)
    assert [a.tobytes() for a in live(net)] == \
        [a.tobytes() for a in live(twin)]
    assert net.heads[0].weight.tobytes() == head.weight.tobytes()
    assert net.heads[0].bias.tobytes() == head.bias.tobytes()
    assert net.finished == []


class TestLabelsCheckedOnce:
    """A training label outside the head's classes raises softmax_ce's
    IndexError before the first step: no step moves the trunk, the new
    task's embeddings or scores, or the head."""

    @pytest.mark.parametrize("kind", ["hat", "sup"])
    @pytest.mark.parametrize("loss", ["ce", "rotation-ce"])
    def test_a_label_past_the_head_stops_training_before_a_step(
            self, kind, loss):
        rng = np.random.default_rng(31)
        data = dt.LabeledImageSet(rng.random((20, 4, 4)), np.arange(20) % 2,
                                  2)
        data.labels[-1] = 2  # one row, in whichever batch it falls
        net = (make_hat if kind == "hat" else make_sup)(dim=16, seed=32)
        args = train_args(loss=loss, epochs=3, batch_size=4, seed=33)
        with pytest.raises(IndexError, match="^target class out of range$"):
            bb.train_task(net, 0, data, **args)
        _assert_only_drawn(net, kind, loss, 33)


class TestFirstStepChecks:
    """The first step's checks raise the public entries' errors, with their
    messages, before anything moves: the rows' width (task_features) and,
    where the update runs SGD, lr (sgd_step)."""

    @pytest.mark.parametrize("kind", ["hat", "sup"])
    @pytest.mark.parametrize("loss", ["ce", "rotation-ce"])
    def test_rows_of_another_width(self, kind, loss):
        rng = np.random.default_rng(34)
        data = dt.LabeledImageSet(rng.random((20, 5, 5)), np.arange(20) % 2,
                                  2)
        net = (make_hat if kind == "hat" else make_sup)(dim=16, seed=32)
        rows = 4 if loss == "ce" else 32  # a rotation batch is 8 per row
        with pytest.raises(nk.ShapeError, match=re.escape(
                f"expected (n, 16) rows or (n, h, w) images of 16 pixels, "
                f"got shape ({rows}, 5, 5)")):
            bb.train_task(net, 0, data, **train_args(
                loss=loss, epochs=2, batch_size=4, seed=35))
        _assert_only_drawn(net, kind, loss, 35)

    @pytest.mark.parametrize("loss", ["ce", "rotation-ce"])
    @pytest.mark.parametrize("lr", [0.0, -0.5])
    def test_a_hat_lr_that_is_not_positive(self, loss, lr):
        rng = np.random.default_rng(36)
        data = dt.LabeledImageSet(rng.random((20, 4, 4)), np.arange(20) % 2,
                                  2)
        net = make_hat(dim=16, seed=32)
        with pytest.raises(ValueError,
                           match=re.escape(f"lr must be positive, got {lr}")):
            bb.train_task(net, 0, data, **train_args(
                loss=loss, epochs=2, lr=lr, batch_size=4, seed=37))
        _assert_only_drawn(net, "hat", loss, 37)


class TestExhaustedCapacity:
    """Every unit already claimed by earlier tasks: the regularizer has no
    free mass and reports 0, the trunk gets an all-zero gradient, and only
    the new task's head and gate embeddings train."""

    def test_trunk_keeps_its_bits_and_reg_is_zero(self):
        seq = gaussian_task(n_tasks=2, n=20, seed=21)
        net = make_hat(dim=4, hidden=(6, 5), seed=22)
        bb.train_task(net, 0, seq.tasks[0][0],
                      **train_args(epochs=3, lr=0.1, seed=23))
        state = net.isolation
        state.accumulated = np.ones(11)
        trunk = [p.tobytes() for p in net.trunk.weights + net.trunk.biases]
        probe = np.random.default_rng(24).normal(size=(5, 4))
        task0 = bb.task_raw_logits(net, probe, 0)

        trace = bb.train_task(net, 1, seq.tasks[1][0],
                              **train_args(epochs=4, lr=0.1, seed=25))
        assert [e.reg for e in trace] == [0.0] * 4
        assert all(e.loss == e.ce for e in trace)
        assert [p.tobytes() for p in net.trunk.weights + net.trunk.biases] \
            == trunk
        assert bb.task_raw_logits(net, probe, 0).tobytes() == task0.tobytes()
        # the head and the embeddings moved off their initial draws
        rng = np.random.default_rng([25, 1, 1])
        start = [rng.normal(size=h) for h in (6, 5)]
        assert all(not np.array_equal(e, s)
                   for e, s in zip(nk._split(state.embeddings[1],
                                             state.sizes), start))
        head0 = rng.uniform(-np.sqrt(6.0 / 7), np.sqrt(6.0 / 7), size=(2, 5))
        assert not np.array_equal(net.heads[1].weight, head0)
        assert state.accumulated.tobytes() == np.ones(11).tobytes()


class TestHatLossGradCheck:
    """Analytic gradient of the full attention loss (CE + sparsity
    regularizer) at small fixed scale, against central differences."""

    def test_grad_check(self):
        rng = np.random.default_rng(20)
        failures = 0
        for trial in range(10):
            dim, hid, classes = 3, 4, 2
            net = make_hat(dim=dim, hidden=(hid,), seed=trial)
            state = net.isolation
            state.accumulated = rng.uniform(size=hid)
            head_w = rng.normal(size=(classes, hid))
            x = rng.normal(size=(5, dim))
            y = rng.integers(classes, size=5)
            s = 2.0

            def loss(params):
                w, b, e = params
                trunk = nk.DenseNet([w], [b])
                a = bb.hat_attention(e, s)
                feats, cache = nk.forward(trunk, x, [a])
                logits = feats @ head_w.T
                ce, dlogits = nk.softmax_ce(logits, y)
                reg, e_reg, _ = bb.hat_regularizer(state, 0, a, s)
                tape = nk.GradTape.for_net(trunk)
                nk.backward(trunk, tape, cache, dlogits @ head_w)
                de = e_reg + tape.d_hooks[0] * a * (1 - a) * s
                return ce + reg, [tape.d_weights[0], tape.d_biases[0], de]

            params = [net.trunk.weights[0].copy(), net.trunk.biases[0].copy(),
                      rng.normal(size=hid)]
            report = oracles.grad_check(loss, params)
            failures += 0 if report.ok else 1
        assert failures == 0
