import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clwb import composer as cp
from clwb import theory as th
from clwb.config import CalibrateCfg, PredictCfg

TOPO22 = th.TaskTopology((2, 2))
# the calibration optimizer as the config sets it by default
FIT = {"iters": CalibrateCfg.iters, "lr": CalibrateCfg.lr,
       "batch_size": CalibrateCfg.batch}


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
        tp, fallbacks = cp.tp_sigmoid_maxlogit([[[2.0, 0.0]], [[1.0, 2.0]],
                                                [[2.0, -5.0]]])
        assert fallbacks == 0
        np.testing.assert_allclose(tp, np.full((1, 3), 1 / 3), rtol=1e-12)

    def test_worked_values(self):
        tp, _ = cp.tp_sigmoid_maxlogit([[[4.0, 0.0]], [[-4.0, -9.0]]])
        # sigmoid(4) + sigmoid(-4) = 1, so normalization is the identity
        np.testing.assert_allclose(tp, [[0.9820137900379084,
                                         0.0179862099620916]], rtol=1e-10)

    def test_shift_changes_values_not_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = [rng.normal(size=(1, 3)), rng.normal(size=(1, 3))]
            a, _ = cp.tp_sigmoid_maxlogit(logits)
            b, _ = cp.tp_sigmoid_maxlogit([v + 2.5 for v in logits])
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
        assert PredictCfg().nu == 0.1 and PredictCfg().tau == 5.0

    def test_positive_nu(self):
        with pytest.raises(ValueError):
            cp.wp_temperature(np.zeros(2), 0.0)


class TestMaxSoftmaxTp:
    def test_symmetric_uniform(self):
        z = [[1.0, 0.2, -0.7]]
        tp, fallbacks = cp.tp_maxsoftmax_temperature([z, z, z], 5.0)
        assert fallbacks == 0
        np.testing.assert_allclose(tp, np.full((1, 3), 1 / 3), rtol=1e-12)

    def test_wide_tau_favors_small_tasks(self):
        tp, _ = cp.tp_maxsoftmax_temperature(
            [np.zeros((1, 2)), np.zeros((1, 4))], 1e6)
        np.testing.assert_allclose(tp, [[2 / 3, 1 / 3]], rtol=1e-9)


class TestTpFromProfile:
    def test_clipped_rows_normalize(self):
        tp, fallbacks = cp.tp_from_profile([[0.2, 0.6], [1.5, -0.5]])
        np.testing.assert_allclose(tp, [[0.25, 0.75], [1.0, 0.0]], rtol=1e-15)
        assert fallbacks == 0

    def test_all_zero_rows_get_a_uniform_tp_and_are_counted(self):
        profile = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, 0.6], [-1.0, 0.0, 0.0]])
        tp, fallbacks = cp.tp_from_profile(profile)
        assert fallbacks == 2
        np.testing.assert_array_equal(tp[[0, 2]], np.full((2, 3), 1 / 3))
        # a row that does not fall back keeps the bits of tp_from_ood
        assert tp[1].tobytes() == th.tp_from_ood(profile[1:2])[0].tobytes()

    @pytest.mark.parametrize("build", [
        cp.tp_sigmoid_maxlogit,
        lambda v: cp.tp_maxsoftmax_temperature(v, 5.0)])
    def test_every_construction_takes_the_rule(self, build):
        # max logits near -1e4 underflow every sigmoid detector to 0
        logits = [np.array([[-1e4, -2e4], [3.0, 1.0]]),
                  np.array([[-3e4, -1e4], [-2.0, 0.5]])]
        tp, fallbacks = build(logits)
        assert np.isfinite(tp).all()
        np.testing.assert_allclose(tp.sum(axis=1), 1.0, rtol=1e-15)
        assert fallbacks == (build is cp.tp_sigmoid_maxlogit)


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
        identity = cp.CalibrationParams(np.ones(2), np.zeros(2))
        np.testing.assert_array_equal(cp.calibrated_logits(logits, identity),
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
            base = cp.calibrated_logits(
                logits, cp.CalibrationParams(np.ones(2), np.zeros(2)))
            doubled = cp.calibrated_logits(
                logits, cp.CalibrationParams([1.0, 2.0], [0.0, 0.0]))
            # positive logits: doubling alpha_2 strictly raises task 2's max
            # relative to task 1's in the concat comparison
            assert (doubled[3:].max() - doubled[:3].max()) > \
                (base[3:].max() - base[:3].max())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cp.calibrated_logits([np.zeros(2)],
                                 cp.CalibrationParams(np.ones(2), np.zeros(2)))


def skewed_buffer(scale=10.0, n_per_class=20, seed=5):
    """Two 2-class tasks with well-separated 2-D inputs; task-2 logits are
    inflated by `scale`. Returns the buffer's per-task logits, as frozen
    per-task heads would emit them, and its labels."""
    rng = np.random.default_rng(seed)
    centers = np.array([(0, 0), (12, 0), (0, 12), (12, 12)], dtype=float)
    x = np.concatenate([rng.normal(size=(n_per_class, 2)) + mu
                        for mu in centers])
    z = -np.linalg.norm(x[:, None, :] - centers, axis=2)
    return [z[:, :2], scale * z[:, 2:]], np.repeat(np.arange(4), n_per_class)


class TestFitCalibration:
    def test_balanced_buffer_already_near_optimal(self):
        logits, labels = skewed_buffer(scale=1.0)
        _, history = cp.fit_calibration(logits, labels, **FIT, seed=0)
        # identity loss within 1e-3 of the fitted optimum
        assert history[0] - min(history) <= 1e-3

    def test_skew_shrinks_inflated_task(self):
        logits, labels = skewed_buffer(scale=10.0)
        params, _ = cp.fit_calibration(logits, labels, **FIT, seed=0)
        assert params.alpha[1] < params.alpha[0]

    def test_final_loss_never_exceeds_initial(self):
        for seed in range(5):
            logits, labels = skewed_buffer(scale=10.0, seed=seed)
            params, history = cp.fit_calibration(logits, labels, **FIT, seed=seed)
            stacked_loss = min(history)
            assert stacked_loss <= history[0] + 1e-12

    @pytest.mark.parametrize("keep", [[0], list(range(20))],
                             ids=["one-sample", "one-class"])
    def test_degenerate_buffers_give_finite_params(self, keep):
        logits, labels = skewed_buffer(scale=10.0)
        # the first 20 samples are all class 0
        params, history = cp.fit_calibration([z[keep] for z in logits],
                                             labels[keep], **FIT, seed=0)
        assert np.isfinite(params.alpha).all() and np.isfinite(params.beta).all()
        assert np.isfinite(history).all() and min(history) <= history[0]

    def test_empty_buffer(self):
        with pytest.raises(ValueError):
            cp.fit_calibration([np.zeros((0, 2))], np.zeros(0, dtype=int),
                               **FIT, seed=0)

    def test_paper_optimizer_defaults(self):
        assert CalibrateCfg().iters == 160
        assert CalibrateCfg().lr == 0.01
        assert CalibrateCfg().batch == 15


class TestMemoryBuffer:
    def test_class_balance_within_one(self):
        rng = np.random.default_rng(6)
        pools = {c: rng.normal(size=(50, 2)) for c in range(4)}
        buf = cp.MemoryBuffer.build(10, pools, rng)
        counts = np.bincount(buf.labels, minlength=4)
        assert max(counts) - min(counts) <= 1
        assert len(buf.labels) == 10 and buf.inputs.shape == (10, 2)

    def test_one_permutation_per_class_in_class_order(self):
        pools = {c: np.random.default_rng(c).normal(size=(5 + c, 3))
                 for c in (2, 0, 1)}
        buf = cp.MemoryBuffer.build(7, pools, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        # 7 slots over 3 classes: the lowest class takes the remainder
        want = [(pools[c][i], c) for c, quota in ((0, 3), (1, 2), (2, 2))
                for i in rng.permutation(len(pools[c]))[:quota]]
        np.testing.assert_array_equal(buf.inputs, [x for x, _ in want])
        assert buf.labels.tolist() == [c for _, c in want]

    def test_capacity_respected(self):
        rng = np.random.default_rng(7)
        pools = {c: rng.normal(size=(3, 2)) for c in range(2)}
        buf = cp.MemoryBuffer.build(200, pools, rng)
        assert len(buf.labels) == 6  # pools exhausted before capacity

    @settings(max_examples=60, deadline=None)
    @given(tasks=st.integers(1, 6), width=st.integers(1, 5),
           spare=st.integers(0, 40), data=st.data())
    def test_a_buffer_of_at_least_the_classes_samples_every_task(
            self, tasks, width, spare, data):
        # parse_config refuses a buffer below the class count and
        # build_tasks a class with no training row, so calibrate_run's pools
        # are these: its fit sees every class, hence every task
        topo, n = th.TaskTopology.uniform(tasks, width), tasks * width
        sizes = data.draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
        # each row holds its task's id
        pools = {topo.flat(k, j): np.full((sizes[topo.flat(k, j)], 2), k)
                 for k in range(tasks) for j in range(width)}
        buf = cp.MemoryBuffer.build(n + spare, pools,
                                    np.random.default_rng(spare))
        assert np.bincount(buf.labels, minlength=n).all()
        assert set(buf.inputs[:, 0]) == set(range(tasks))


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
                logits, cp.CalibrationParams(np.ones(1), np.zeros(1)))))
            assert a == b == c


class TestRowBatches:
    """(n, c_k) inputs give, row by row, the bits of their one-row batches."""

    @staticmethod
    def per_task(seed=4, n=40, widths=(2, 3, 1)):
        rng = np.random.default_rng(seed)
        return [rng.normal(scale=4.0, size=(n, w)) for w in widths]

    def rows(self, logits, i):
        return [z[i:i + 1] for z in logits]

    def test_tp_constructions(self):
        logits = self.per_task()
        for build in (cp.tp_sigmoid_maxlogit,
                      lambda v: cp.tp_maxsoftmax_temperature(v, 2.0)):
            batched, fallbacks = build(logits)
            assert batched.shape == (40, 3) and fallbacks == 0
            for i in range(40):
                assert batched[i:i + 1].tobytes() == \
                    build(self.rows(logits, i))[0].tobytes()

    def test_wp_temperature_and_calibrated_logits(self):
        logits = self.per_task()
        params = cp.CalibrationParams([1.5, 0.5, 2.0], [0.1, -0.3, 0.0])
        concat = cp.calibrated_logits(logits, params)
        wp = cp.wp_temperature(logits[1], 0.1)
        for i in range(40):
            assert concat[i:i + 1].tobytes() == cp.calibrated_logits(
                self.rows(logits, i), params).tobytes()
            assert wp[i:i + 1].tobytes() == \
                cp.wp_temperature(logits[1][i:i + 1], 0.1).tobytes()
