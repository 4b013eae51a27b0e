import warnings

import numpy as np
import pytest

import oracles
from clwb import backbones as bb
from clwb import data as dt
from clwb import numkit as nk
from clwb import oodlab as ol
from clwb.config import LossCfg
from conftest import net_args, train_args

# the contrastive views' augmentation of the default LossCfg
AUGMENT = {"flip_prob": LossCfg().flip_prob,
           "noise_sigma": LossCfg().noise_sigma}


def trained_toy_net(seed=0, kind="hat", dim=4, hidden=(8,), epochs=15):
    seq = dt.synth_gaussian_tasks(1, 2, dim, 10.0, 20, seed=seed,
                                  n_test_per_class=5)
    net = bb.build_masked_net(dim, list(hidden), isolation=kind, seed=seed,
                              **net_args())
    bb.train_task(net, 0, seq.tasks[0][0],
                  **train_args(epochs=epochs, lr=0.1, seed=seed))
    return net


def linear_hat_net(W, head_scale=400.0):
    """Identity-ish net: a ReLU trunk that passes nonnegative inputs as they
    are, wide-open attention, head weight W."""
    d = W.shape[1]
    trunk = nk.DenseNet([np.eye(d)], [np.zeros(d)])
    state = bb.HatState(s_max=head_scale, lambdas=[1.0], sizes=[d],
                        accumulated=np.zeros(d))
    state.embeddings[0] = np.full(d, 1.0)  # sigmoid(400) == 1
    net = bb.MaskedNet(trunk, {0: bb.Head(W, np.zeros(W.shape[0]))}, state, [0])
    return net


def odin_alone(fn, net, x, params):
    """fn (odin_score or odin_perturb) of one candidate on the OdinRows of
    the row batch x that hold its tau."""
    return fn(net, ol.OdinRows(net, x, 0, [params.tau]), 0, params)


class TestMsp:
    def test_uniform(self):
        assert ol.msp_score(np.zeros((1, 4)))[0] == pytest.approx(0.25,
                                                                  abs=1e-15)

    def test_confident(self):
        assert ol.msp_score(np.array([[10.0, 0.0]]))[0] == pytest.approx(
            0.9999546021312976, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(1, 6))
        assert ol.msp_score(z)[0] == pytest.approx(ol.msp_score(z + 13.7)[0],
                                                   abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            ol.msp_score(np.zeros((1, 0)))


class TestMaxLogit:
    def test_worked_values(self):
        np.testing.assert_allclose(
            ol.maxlogit_score([[4.0, 0.0], [-9.0, -4.0], [0.0, 0.0]]),
            [0.9820137900379084, 0.0179862099620916, 0.5], rtol=1e-12)

    def test_has_the_bits_of_the_sigmoid_of_the_row_max(self):
        z = np.random.default_rng(0).normal(scale=30.0, size=(50, 3))
        assert ol.maxlogit_score(z).tobytes() == \
            (1.0 / (1.0 + np.exp(-z.max(axis=1)))).tobytes()

    def test_far_negative_max_reads_zero_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ol.maxlogit_score([[-1e4, -2e4], [-800.0, -900.0]])
        assert got.tolist() == [0.0, 0.0]

    def test_one_instance_is_a_one_row_batch(self):
        with pytest.raises(ValueError, match=r"\(n, c\)"):
            ol.maxlogit_score([1.0, 2.0])


class TestOdin:
    def test_zero_eps_identity(self):
        net = trained_toy_net()
        x = np.random.default_rng(1).normal(size=(1, 4))
        np.testing.assert_array_equal(
            odin_alone(ol.odin_perturb, net, x,
                       ol.OdinParams(tau=5.0, eps=0.0)), x)

    def test_linear_case_closed_form(self):
        rng = np.random.default_rng(2)
        W = rng.normal(size=(2, 3))
        net = linear_hat_net(W)
        x = np.abs(rng.normal(size=3))
        logits = W @ x
        yhat = int(logits.argmax())
        p = nk.softmax(logits)
        grad = W[yhat] - p @ W  # d log softmax_yhat / dx, tau = 1
        eps = 0.01
        expect = x - eps * np.sign(-grad)
        got = odin_alone(ol.odin_perturb, net, x[None],
                         ol.OdinParams(tau=1.0, eps=eps))
        np.testing.assert_allclose(got, [expect], rtol=1e-12)

    def test_perturbation_raises_confidence(self):
        # oracle: the fd directional derivative of log s_yhat along the step
        # direction equals sum |grad| >= 0, so small eps cannot lower the score
        for seed in range(5):
            net = trained_toy_net(seed=seed)
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(1, 4))
            feats, cache, trunk = bb.task_features(net, x, 0)
            head = net.heads[0]
            z = feats @ head.weight.T + head.bias
            dlogits = -nk.softmax(z)
            dlogits[0, z.argmax()] += 1.0
            g = nk.input_gradient(trunk, cache, dlogits @ head.weight)
            d = np.sign(g)
            np.testing.assert_array_equal(
                ol.OdinRows(net, x, 0, [1.0]).direction[1.0], -d)
            t = 1e-6

            def log_msp(v):
                (z,) = bb.task_raw_logits(net, v, 0)
                return float(nk.log_softmax(z)[int(z.argmax())])

            fd = (log_msp(x + t * d) - log_msp(x - t * d)) / (2 * t)
            assert fd == pytest.approx(np.abs(g).sum(), rel=1e-4, abs=1e-8)
            assert fd >= 0.0
            params = ol.OdinParams(tau=1.0, eps=1e-3)
            (before,) = ol.msp_score(bb.task_raw_logits(net, x, 0))
            (after,) = odin_alone(ol.odin_score, net, x, params)
            assert after >= before - 1e-6

    def test_tau_one_eps_zero_equals_msp(self):
        # identity on 100 random (untrained) nets and inputs
        for seed in range(100):
            rng = np.random.default_rng(seed)
            net = bb.build_masked_net(4, [8], isolation="hat", seed=seed,
                                      **net_args())
            net.isolation.embeddings[0] = rng.normal(size=8)
            net.heads[0] = bb.Head(rng.normal(size=(3, 8)), rng.normal(size=3))
            x = rng.normal(size=(1, 4))
            raw = ol.msp_score(bb.task_raw_logits(net, x, 0))
            assert odin_alone(ol.odin_score, net, x,
                              ol.OdinParams(1.0, 0.0)).tolist() == raw.tolist()

    def test_batch_scoring_matches_per_sample(self):
        net = trained_toy_net(seed=21)
        rng = np.random.default_rng(22)
        xs = rng.normal(size=(9, 4))
        params = ol.OdinParams(tau=5.0, eps=0.002)
        batch = odin_alone(ol.odin_score, net, xs, params)
        singles = [odin_alone(ol.odin_score, net, xs[i:i + 1], params)[0]
                   for i in range(len(xs))]
        # a batched matmul may differ from a one-row batch by an ulp
        np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)

    def test_large_tau_uniform_limit(self):
        net = trained_toy_net(seed=3)
        x = np.random.default_rng(4).normal(size=(1, 4))
        (score,) = odin_alone(ol.odin_score, net, x,
                              ol.OdinParams(tau=1e6, eps=0.0))
        assert score == pytest.approx(0.5, abs=1e-6)

    def test_monotone_in_tau(self):
        net = trained_toy_net(seed=5)
        x = np.random.default_rng(6).normal(size=(1, 4))
        scores = [odin_alone(ol.odin_score, net, x,
                             ol.OdinParams(tau=t, eps=0.0))[0]
                  for t in (1.0, 2.0, 5.0, 10.0, 100.0, 1000.0)]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ol.OdinParams(tau=0.0, eps=0.0)
        with pytest.raises(ValueError):
            ol.OdinParams(tau=1.0, eps=-0.1)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["tau", "eps"])
    def test_non_finite_params_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            ol.OdinParams(**{"tau": 1.0, "eps": 0.0, name: value})


def _counting(monkeypatch, module, name):
    """Count the calls of module.name for the rest of the test."""
    count = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


class TestOdinRows:
    def test_holds_the_logits_and_one_gradient_per_tau(self, monkeypatch):
        net = trained_toy_net(seed=7)
        x = np.random.default_rng(8).normal(size=(6, 4))
        forwards = _counting(monkeypatch, bb, "task_features")
        grads = _counting(monkeypatch, nk, "input_gradient")
        rows = ol.OdinRows(net, x, 0, ol.ODIN_TAU_GRID)
        assert (forwards[0], grads[0]) == (1, len(ol.ODIN_TAU_GRID))
        np.testing.assert_array_equal(rows.z, bb.task_raw_logits(net, x, 0))
        assert list(rows.direction) == list(ol.ODIN_TAU_GRID)
        assert all(d.shape == x.shape and np.isin(d, (-1.0, 0.0, 1.0)).all()
                   for d in rows.direction.values())

    def test_scoring_from_rows_runs_only_the_perturbed_forwards(
            self, monkeypatch):
        net = trained_toy_net(seed=9)
        x = np.random.default_rng(10).normal(size=(5, 4))
        rows = ol.OdinRows(net, x, 0, ol.ODIN_TAU_GRID)
        forwards = _counting(monkeypatch, bb, "task_features")
        grads = _counting(monkeypatch, nk, "input_gradient")
        for tau in ol.ODIN_TAU_GRID:
            for eps in ol.ODIN_EPS_GRID:
                ol.odin_score(net, rows, 0, ol.OdinParams(tau, eps))
        n_perturbed = len(ol.ODIN_TAU_GRID) * sum(
            eps > 0 for eps in ol.ODIN_EPS_GRID)
        assert (forwards[0], grads[0]) == (n_perturbed, 0)

    def test_zero_eps_perturbs_without_a_forward(self, monkeypatch):
        # rows without gradients serve every eps = 0 candidate
        net = trained_toy_net(seed=11)
        x = np.random.default_rng(12).normal(size=(3, 4))
        forwards = _counting(monkeypatch, bb, "task_features")
        rows = ol.OdinRows(net, x, 0, [])
        assert forwards[0] == 1
        params = ol.OdinParams(tau=5.0, eps=0.0)
        got = ol.odin_perturb(net, rows, 0, params)
        np.testing.assert_array_equal(got, x)
        assert got is not rows.x
        ol.odin_score(net, rows, 0, params)
        assert forwards[0] == 1

    def test_plain_batches_are_refused(self):
        net = trained_toy_net(seed=11)
        x = np.random.default_rng(12).normal(size=(3, 4))
        for eps in (0.0, 0.01):
            for fn in (ol.odin_score, ol.odin_perturb):
                with pytest.raises(TypeError, match="OdinRows"):
                    fn(net, x, 0, ol.OdinParams(tau=1.0, eps=eps))

    def test_a_tau_without_its_gradient_names_it(self):
        net = trained_toy_net(seed=11)
        x = np.random.default_rng(12).normal(size=(3, 4))
        rows = ol.OdinRows(net, x, 0, [1.0, 5.0])
        for fn in (ol.odin_score, ol.odin_perturb):
            with pytest.raises(ValueError, match="tau 10.0$"):
                fn(net, rows, 0, ol.OdinParams(tau=10.0, eps=0.01))
            # eps = 0 reads no gradient
            fn(net, rows, 0, ol.OdinParams(tau=10.0, eps=0.0))

    def test_rows_of_another_task_or_net_rejected(self):
        net, other = trained_toy_net(seed=13), trained_toy_net(seed=13)
        net.heads[1] = net.heads[0]
        x = np.random.default_rng(14).normal(size=(2, 4))
        rows = ol.OdinRows(net, x, 0, [1.0])
        params = ol.OdinParams(tau=1.0, eps=0.01)
        for fn in (ol.odin_score, ol.odin_perturb):
            for args in ((other, 0), (net, 1)):
                with pytest.raises(ValueError, match="another net or task"):
                    fn(args[0], rows, args[1], params)
        with pytest.raises(ValueError, match="unknown task 2"):
            ol.OdinRows(net, x, 2, [1.0])


class TestRotate90:
    def test_quarter_turn_permutation(self):
        np.testing.assert_array_equal(
            ol.rotate90(np.array([[[1.0, 2.0], [3.0, 4.0]]]), 1),
            [[[2.0, 4.0], [1.0, 3.0]]])

    def test_identity_and_order_four(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(size=(3, 5, 5))
        np.testing.assert_array_equal(ol.rotate90(img, 0), img)
        np.testing.assert_array_equal(ol.rotate90(img, 4), img)
        out = img
        for _ in range(4):
            out = ol.rotate90(out, 1)
        np.testing.assert_array_equal(out, img)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ol.rotate90(np.zeros((1, 2, 3)), 1)


def _loop_rotation_batch(images, labels, *, rng, flip_prob=0.5,
                         noise_sigma=0.05):
    """build_rotation_batch as it was before batching, the oracle."""
    imgs = np.asarray(images, dtype=np.float64)
    out_x, out_y = [], []
    for x, y in zip(imgs, np.asarray(labels)):
        for _ in range(2):
            view = x[:, ::-1] if rng.random() < flip_prob else x
            if noise_sigma > 0:
                view = np.clip(view + rng.normal(0.0, noise_sigma, x.shape),
                               0.0, 1.0)
            for r in range(4):
                out_x.append(np.rot90(view, r))
                out_y.append(int(y) * 4 + r)
    return np.stack(out_x), np.array(out_y, dtype=np.intp)


class TestRotationBatch:
    def test_counts_and_labels(self):
        rng = np.random.default_rng(8)
        imgs = rng.uniform(size=(1, 4, 4))
        out, labels = ol.build_rotation_batch(imgs, np.array([2]), rng=rng,
                                              **AUGMENT)
        assert out.shape == (8, 4, 4)
        assert sorted(labels.tolist()) == [8, 8, 9, 9, 10, 10, 11, 11]

    def test_label_bijection(self):
        rng = np.random.default_rng(9)
        imgs = rng.uniform(size=(3, 4, 4))
        _, labels = ol.build_rotation_batch(imgs, np.arange(3), rng=rng,
                                            **AUGMENT)
        assert set(labels.tolist()) == set(range(12))

    def test_symmetric_image_distinct_labels(self):
        # rotations of a constant image are pixel-identical yet get different
        # labels: known label noise, kept deliberately
        imgs = np.full((1, 4, 4), 0.5)
        out, labels = ol.build_rotation_batch(imgs, np.array([0]),
                                              rng=np.random.default_rng(10),
                                              flip_prob=0.0, noise_sigma=0.0)
        np.testing.assert_array_equal(out[0], out[1])
        assert labels[0] != labels[1]

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("flip_prob,noise_sigma",
                             [(0.5, 0.05), (0.0, 0.3), (1.0, 0.05),
                              (0.5, 0.0)])
    def test_matches_the_per_view_loop(self, n, flip_prob, noise_sigma):
        # side 16 is the benchmark's glyph size; side 1 has one pixel
        for side in (1, 5, 16):
            data = np.random.default_rng(n)
            # pixels outside [0, 1] show whether clipping follows the noise
            imgs = data.uniform(-0.2, 1.2, size=(n, side, side))
            labels = data.integers(0, 3, size=n)
            rng, ref = np.random.default_rng(12), np.random.default_rng(12)
            out, ys = ol.build_rotation_batch(imgs, labels, rng=rng,
                                              flip_prob=flip_prob,
                                              noise_sigma=noise_sigma)
            want, want_ys = _loop_rotation_batch(imgs, labels, rng=ref,
                                                 flip_prob=flip_prob,
                                                 noise_sigma=noise_sigma)
            assert out.dtype == want.dtype and out.shape == want.shape
            assert out.tobytes() == want.tobytes()
            assert ys.dtype == want_ys.dtype
            np.testing.assert_array_equal(ys, want_ys)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.random() == ref.random()

    @pytest.mark.parametrize("side", [1, 2, 3, 16])
    def test_turn_index_reproduces_rotate90(self, side):
        views = np.random.default_rng(side).normal(size=(3, side, side))
        index = ol._quarter_turn_index(side, side)
        assert index.shape == (4, side * side) and not index.flags.writeable
        for r in range(4):
            got = views.reshape(3, -1)[:, index[r]].reshape(views.shape)
            assert got.tobytes() == ol.rotate90(views, r).tobytes()

    def test_non_square_batch_raises(self):
        with pytest.raises(ValueError, match="square"):
            ol.build_rotation_batch(np.zeros((2, 3, 4)), np.zeros(2),
                                    rng=np.random.default_rng(0), **AUGMENT)

    def test_label_count_must_match(self):
        imgs = np.zeros((3, 4, 4))
        for labels in (np.arange(2), np.arange(4)):
            with pytest.raises(ValueError, match="for 3 images"):
                ol.build_rotation_batch(imgs, labels,
                                        rng=np.random.default_rng(0),
                                        **AUGMENT)

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            ol.build_rotation_batch(np.zeros((0, 4, 4)), np.zeros(0),
                                    rng=np.random.default_rng(0), **AUGMENT)

    def test_batch_divisible_by_eight(self):
        rng = np.random.default_rng(11)
        out, _ = ol.build_rotation_batch(rng.uniform(size=(5, 3, 3)),
                                         np.zeros(5, dtype=int), rng=rng,
                                         **AUGMENT)
        assert out.shape[0] % 8 == 0


class TestSupConLoss:
    def test_two_sample_zero(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        loss, _ = ol.sup_con_loss(z, [0, 0], tau=1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_four_sample_closed_form(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])
        loss, _ = ol.sup_con_loss(z, [0, 0, 1, 1], tau=1.0)
        assert loss == pytest.approx(0.23954476622188450, rel=1e-12)

    def test_gradient_against_central_differences(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            z = rng.normal(size=(8, 3))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            y = rng.integers(2, size=8)
            if min((y == c).sum() for c in (0, 1)) < 2:
                y[:2] = 0, 0  # guarantee positives

            def loss(params):
                (v,) = params
                val, dv = ol.sup_con_loss(v, y, tau=0.5)
                return val, [dv]

            report = oracles.grad_check(loss, [z.copy()])
            assert report.ok, str(report)

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(8, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        y = np.repeat([0, 1], 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        a, _ = ol.sup_con_loss(z, y, tau=0.5)
        b, _ = ol.sup_con_loss(z @ q, y, tau=0.5)
        assert abs(a - b) < 1e-9

    def test_no_positive_rejected(self):
        z = np.eye(3)
        with pytest.raises(ol.DegenerateBatchError):
            ol.sup_con_loss(z, [0, 1, 2], tau=1.0)


def corner_marker_set(n_classes=2, copies=6):
    """Tiny images whose class is a hot pixel; rotations stay separable."""
    images, labels = [], []
    for c in range(n_classes):
        img = np.zeros((4, 4))
        img[0, c] = 1.0
        for _ in range(copies):
            images.append(img)
            labels.append(c)
    return dt.LabeledImageSet(np.stack(images), np.array(labels), n_classes)


class TestRotationHead:
    def test_trunk_untouched_and_separable_accuracy(self):
        data = corner_marker_set()
        net = bb.build_masked_net(16, [32], isolation="hat", seed=14,
                                  **net_args())
        net.isolation.embeddings[0] = np.full(32, 5.0)
        bb.hat_accumulate(net, 0)
        net.finished.append(0)
        before = [w.copy() for w in net.trunk.weights]
        rng = np.random.default_rng(15)
        # augmentation off: flips would collide rotated corner markers
        ol.finetune_rotation_head(net, 0, data, epochs=120, lr=0.5,
                                  batch_size=6, rng=rng, flip_prob=0.0,
                                  noise_sigma=0.0)
        for a, b in zip(net.trunk.weights, before):
            np.testing.assert_array_equal(a, b)
        head = net.heads[0]
        assert head.kind == "rotation" and head.width == 8
        # noiseless rotation expansion must be classified correctly
        imgs, ys = ol.build_rotation_batch(
            data.images, data.labels, rng=np.random.default_rng(16),
            flip_prob=0.0, noise_sigma=0.0)
        feats, _, _ = bb.task_features(net, imgs.reshape(len(imgs), -1), 0)
        pred = (feats @ head.weight.T + head.bias).argmax(axis=1)
        assert (pred == ys).mean() >= 0.99


def ensemble(net, x):
    """Task 0's ensemble_logits of x, given x's degree-0 forward."""
    return ol.ensemble_logits(net, x, 0, bb.task_raw_logits(net, x, 0))


class TestEnsemble:
    def manual_net(self):
        data = corner_marker_set()
        net = bb.build_masked_net(16, [32], isolation="hat", seed=17,
                                  **net_args())
        net.isolation.embeddings[0] = np.full(32, 5.0)
        bb.hat_accumulate(net, 0)
        net.finished.append(0)
        ol.finetune_rotation_head(net, 0, data, epochs=60, lr=0.5,
                                  batch_size=6, rng=np.random.default_rng(18),
                                  **AUGMENT)
        return net, data

    def test_constant_slots_give_constant(self):
        net, _ = self.manual_net()
        head = net.heads[0]
        head.weight[...] = 0.0
        head.bias[...] = np.array([3.0, 3.0, 3.0, 3.0, -1.0, -1.0, -1.0, -1.0])
        out = ensemble(net, np.zeros((1, 4, 4)))
        np.testing.assert_allclose(out, [[3.0, -1.0]], atol=1e-12)

    def test_mean_of_slots(self):
        net, _ = self.manual_net()
        head = net.heads[0]
        head.weight[...] = 0.0
        head.bias[...] = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0])
        out = ensemble(net, np.zeros((1, 4, 4)))
        assert out[0, 0] == pytest.approx(2.5, abs=1e-12)

    def test_width_is_original_class_count(self):
        net, data = self.manual_net()
        out = ensemble(net, data.images[:3])
        assert out.shape == (3, 2)

    def test_orbit_permutation_equivariance(self):
        net, data = self.manual_net()
        x = data.images[0]

        def orbit(img):
            rows = []
            for deg in range(4):
                flat = ol.rotate90(img[None], deg).reshape(1, -1)
                rows.append(bb.task_raw_logits(net, flat, 0)[0])
            return np.stack(rows)  # (deg, 4C)

        o_x = orbit(x)
        o_rot = orbit(ol.rotate90(x[None], 1)[0])
        # pre-rotating shifts which orbit row is which, totals unchanged
        np.testing.assert_array_equal(o_rot[:3], o_x[1:])
        np.testing.assert_array_equal(o_rot[3], o_x[0])
        assert o_rot.sum() == pytest.approx(o_x.sum(), rel=1e-12)

    def test_plain_head_rejected(self):
        net = trained_toy_net(seed=19)
        with pytest.raises(ValueError):
            ensemble(net, np.zeros((1, 2, 2)))

    def test_class_logits_dispatch(self):
        net, data = self.manual_net()
        rot = ol.class_logits(net, data.images[:3], 0)
        np.testing.assert_array_equal(rot,
                                      ensemble(net, data.images[:3]))
        plain = trained_toy_net(seed=20)
        x = np.random.default_rng(21).normal(size=(3, 4))
        np.testing.assert_array_equal(ol.class_logits(plain, x, 0),
                                      bb.task_raw_logits(plain, x, 0))


def test_supcon_four_sample_grad_check():
    rng = np.random.default_rng(30)
    z = rng.normal(size=(4, 3))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    y = np.array([0, 0, 1, 1])

    def loss(params):
        (v,) = params
        val, dv = ol.sup_con_loss(v, y, tau=1.0)
        return val, [dv]

    report = oracles.grad_check(loss, [z])
    assert report.ok and report.worst < 1e-4, str(report)
