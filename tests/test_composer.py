import numpy as np
import pytest

from clwb import composer as cp
from clwb import theory as th

TOPO22 = th.TaskTopology((2, 2))


class TestConcatArgmax:
    def test_worked_example(self):
        assert cp.predict_concat_argmax([[0.2, 0.9], [0.5, 0.1]]) == 1

    def test_single_task(self):
        z = [3.0, -1.0, 7.0]
        assert cp.predict_concat_argmax([z]) == int(np.argmax(z))

    def test_tie_breaks_lowest(self):
        assert cp.predict_concat_argmax([[1.0, 1.0], [1.0, 1.0]]) == 0

    def test_common_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = [rng.normal(size=3), rng.normal(size=2)]
            shifted = [v + 4.2 for v in logits]
            assert cp.predict_concat_argmax(logits) == \
                cp.predict_concat_argmax(shifted)

    def test_empty(self):
        with pytest.raises(ValueError):
            cp.predict_concat_argmax([])


class TestSigmoidMaxLogitTp:
    def test_equal_max_gives_uniform(self):
        tp = cp.tp_sigmoid_maxlogit([[2.0, 0.0], [1.0, 2.0], [2.0, -5.0]])
        np.testing.assert_allclose(tp, np.full(3, 1 / 3), rtol=1e-12)

    def test_worked_values(self):
        tp = cp.tp_sigmoid_maxlogit([[4.0, 0.0], [-4.0, -9.0]])
        # sigmoid(4) + sigmoid(-4) = 1, so normalization is the identity
        np.testing.assert_allclose(tp, [0.9820137900379084,
                                        0.0179862099620916], rtol=1e-10)

    def test_shift_changes_values_not_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = [rng.normal(size=3), rng.normal(size=3)]
            a = cp.tp_sigmoid_maxlogit(logits)
            b = cp.tp_sigmoid_maxlogit([v + 2.5 for v in logits])
            assert int(a.argmax()) == int(b.argmax())


class TestWpTemperature:
    def test_nu_one_plain_softmax(self):
        z = np.array([1.0, -0.5, 2.0])
        e = np.exp(z - z.max())
        np.testing.assert_allclose(cp.wp_temperature(z, 1.0), e / e.sum(),
                                   rtol=1e-12)

    def test_sharpening_limit(self):
        p = cp.wp_temperature(np.array([0.5, 0.4, 0.1]), 1e-3)
        assert p[0] > 1 - 1e-6

    def test_paper_defaults(self):
        assert cp.DEFAULT_NU == 0.1 and cp.DEFAULT_TAU == 5.0

    def test_positive_nu(self):
        with pytest.raises(ValueError):
            cp.wp_temperature(np.zeros(2), 0.0)


class TestMaxSoftmaxTp:
    def test_symmetric_uniform(self):
        z = [1.0, 0.2, -0.7]
        tp = cp.tp_maxsoftmax_temperature([z, z, z], 5.0)
        np.testing.assert_allclose(tp, np.full(3, 1 / 3), rtol=1e-12)

    def test_wide_tau_favors_small_tasks(self):
        tp = cp.tp_maxsoftmax_temperature([np.zeros(2), np.zeros(4)], 1e6)
        np.testing.assert_allclose(tp, [2 / 3, 1 / 3], rtol=1e-9)


class TestComposeFull:
    def test_matches_theory_example(self):
        wp = [np.array([0.6, 0.4]), np.array([0.9, 0.1])]
        cil, pred = cp.compose_full(wp, [0.7, 0.3], TOPO22)
        np.testing.assert_allclose(cil, [0.42, 0.28, 0.27, 0.03], rtol=1e-12)
        assert pred == 0
        assert cil.sum() == pytest.approx(1.0, abs=1e-9)

    def test_one_hot_tp(self):
        wp = [np.array([0.6, 0.4]), np.array([0.2, 0.8])]
        _, pred = cp.compose_full(wp, [0.0, 1.0], TOPO22)
        assert pred == TOPO22.flat(1, 1)

    def test_sharpened_composition_equals_concat(self):
        rng = np.random.default_rng(2)
        agree = 0
        for _ in range(1000):
            logits = [rng.normal(size=2), rng.normal(size=2)]
            maxes = [v.max() for v in logits]
            if abs(maxes[0] - maxes[1]) < 1e-9:
                continue  # unique-max instances only
            concat = cp.predict_concat_argmax(logits)
            wp = [cp.wp_temperature(v, 1e-4) for v in logits]
            sharp_profile = np.zeros(2)
            sharp_profile[int(np.argmax(maxes))] = 1.0
            _, composed = cp.compose_full(wp, sharp_profile, TOPO22)
            agree += composed == concat
        assert agree == 1000


class TestCalibratedLogits:
    def test_identity(self):
        logits = [np.array([1.0, 2.0]), np.array([-1.0, 0.5])]
        np.testing.assert_array_equal(
            cp.calibrated_logits(logits, cp.CalibrationParams.identity(2)),
            [1.0, 2.0, -1.0, 0.5])

    def test_beta_dominance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits = [rng.uniform(-5, 5, size=3) for _ in range(2)]
            params = cp.CalibrationParams([1.0, 1.0], [0.0, 10.0])
            z = cp.calibrated_logits(logits, params)
            assert int(np.argmax(z)) >= 3  # lands in task 2

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            logits = [rng.uniform(0.1, 5, size=3) for _ in range(2)]
            base = cp.calibrated_logits(logits, cp.CalibrationParams.identity(2))
            doubled = cp.calibrated_logits(
                logits, cp.CalibrationParams([1.0, 2.0], [0.0, 0.0]))
            # positive logits: doubling alpha_2 strictly raises task 2's max
            # relative to task 1's in the concat comparison
            assert (doubled[3:].max() - doubled[:3].max()) > \
                (base[3:].max() - base[:3].max())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cp.calibrated_logits([np.zeros(2)],
                                 cp.CalibrationParams.identity(2))


def skewed_buffer(scale=10.0, n_per_class=20, seed=5):
    """Two 2-class tasks with well-separated 2-D inputs; task-2 logits are
    inflated by `scale`. logit_fn mimics frozen per-task heads."""
    rng = np.random.default_rng(seed)
    centers = {0: (0, 0), 1: (12, 0), 2: (0, 12), 3: (12, 12)}
    buf = cp.MemoryBuffer(capacity=4 * n_per_class)
    for c, mu in centers.items():
        for _ in range(n_per_class):
            buf.inputs.append(rng.normal(size=2) + np.array(mu, dtype=float))
            buf.labels.append(c)

    mus = np.array(list(centers.values()), dtype=float)

    def logit_fn(x):
        z = -np.linalg.norm(x[:, None, :] - mus, axis=2)
        return [z[:, :2], scale * z[:, 2:]]

    return buf, logit_fn


class TestFitCalibration:
    def test_balanced_buffer_already_near_optimal(self):
        buf, logit_fn = skewed_buffer(scale=1.0)
        _, history = cp.fit_calibration(logit_fn, buf, seed=0)
        # identity loss within 1e-3 of the fitted optimum
        assert history[0] - min(history) <= 1e-3

    def test_skew_shrinks_inflated_task(self):
        buf, logit_fn = skewed_buffer(scale=10.0)
        params, _ = cp.fit_calibration(logit_fn, buf, seed=0)
        assert params.alpha[1] < params.alpha[0]

    def test_final_loss_never_exceeds_initial(self):
        for seed in range(5):
            buf, logit_fn = skewed_buffer(scale=10.0, seed=seed)
            params, history = cp.fit_calibration(logit_fn, buf, seed=seed)
            stacked_loss = min(history)
            assert stacked_loss <= history[0] + 1e-12

    def test_logit_fn_runs_once_on_the_stacked_buffer(self):
        buf, logit_fn = skewed_buffer()
        seen = []

        def counted(x):
            seen.append(x.shape)
            return logit_fn(x)
        cp.fit_calibration(counted, buf, seed=0)
        assert seen == [(len(buf), 2)]

    @pytest.mark.parametrize("keep", [[0], list(range(20))],
                             ids=["one-sample", "one-class"])
    def test_degenerate_buffers_give_finite_params(self, keep):
        full, logit_fn = skewed_buffer(scale=10.0)
        buf = cp.MemoryBuffer(capacity=len(keep))
        for i in keep:  # the first 20 samples are all class 0
            buf.inputs.append(full.inputs[i])
            buf.labels.append(full.labels[i])
        params, history = cp.fit_calibration(logit_fn, buf, seed=0)
        assert np.isfinite(params.alpha).all() and np.isfinite(params.beta).all()
        assert np.isfinite(history).all() and min(history) <= history[0]

    def test_empty_buffer(self):
        with pytest.raises(ValueError):
            cp.fit_calibration(lambda x: [np.zeros(2)],
                               cp.MemoryBuffer(capacity=10))

    def test_paper_optimizer_defaults(self):
        assert cp.CALIBRATION_ITERS == 160
        assert cp.CALIBRATION_LR == 0.01
        assert cp.CALIBRATION_BATCH == 15


class TestMemoryBuffer:
    def test_class_balance_within_one(self):
        rng = np.random.default_rng(6)
        pools = {c: rng.normal(size=(50, 2)) for c in range(4)}
        buf = cp.MemoryBuffer.build(10, pools, rng)
        counts = [buf.labels.count(c) for c in range(4)]
        assert max(counts) - min(counts) <= 1
        assert len(buf) == 10

    def test_capacity_respected(self):
        rng = np.random.default_rng(7)
        pools = {c: rng.normal(size=(3, 2)) for c in range(2)}
        buf = cp.MemoryBuffer.build(200, pools, rng)
        assert len(buf) == 6  # pools exhausted before capacity


class TestSingleTaskAgreement:
    def test_all_routes_agree_when_one_task(self):
        rng = np.random.default_rng(8)
        topo = th.TaskTopology((4,))
        for _ in range(50):
            logits = [rng.normal(size=4)]
            a = cp.predict_concat_argmax(logits)
            wp = [cp.wp_temperature(logits[0], 0.1)]
            _, b = cp.compose_full(wp, [1.0], topo)
            c = int(np.argmax(cp.calibrated_logits(
                logits, cp.CalibrationParams.identity(1))))
            assert a == b == c


class TestRowBatches:
    """(n, c_k) inputs give, row by row, the bits of the vector call."""

    @staticmethod
    def per_task(seed=4, n=40, widths=(2, 3, 1)):
        rng = np.random.default_rng(seed)
        return [rng.normal(scale=4.0, size=(n, w)) for w in widths]

    def rows(self, logits, i):
        return [z[i] for z in logits]

    def test_tp_constructions(self):
        logits = self.per_task()
        for build in (cp.tp_sigmoid_maxlogit,
                      lambda v: cp.tp_maxsoftmax_temperature(v, [2.0, 5.0, 0.5])):
            batched = build(logits)
            assert batched.shape == (40, 3)
            for i in range(40):
                assert batched[i].tobytes() == build(self.rows(logits, i)).tobytes()

    def test_wp_temperature_and_calibrated_logits(self):
        logits = self.per_task()
        params = cp.CalibrationParams([1.5, 0.5, 2.0], [0.1, -0.3, 0.0])
        concat = cp.calibrated_logits(logits, params)
        wp = cp.wp_temperature(logits[1], 0.1)
        for i in range(40):
            assert concat[i].tobytes() == cp.calibrated_logits(
                self.rows(logits, i), params).tobytes()
            assert wp[i].tobytes() == cp.wp_temperature(logits[1][i], 0.1).tobytes()
