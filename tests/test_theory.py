import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clwb import theory as th

TOPO22 = th.TaskTopology((2, 2))
TRUTH00 = th.GroundTruth(0, 0)

# worked two-task instance reused throughout
WP = [np.array([0.6, 0.4]), np.array([0.9, 0.1])]
TP = np.array([0.7, 0.3])


def rand_distribution(rng, n, alpha=1.0):
    # floored so truth-index products stay above the log clamp: the identity
    # h_cil = h_wp + h_tp is exact only while no clamp binds
    p = np.maximum(rng.dirichlet(np.full(n, alpha)), 1e-5)
    return p / p.sum()


def rand_instance(rng, max_tasks=6, max_classes=5):
    sizes = tuple(int(rng.integers(1, max_classes + 1))
                  for _ in range(int(rng.integers(1, max_tasks + 1))))
    topo = th.TaskTopology(sizes)
    alpha = float(rng.choice([0.2, 1.0, 5.0]))
    wp = [rand_distribution(rng, s, alpha) for s in sizes]
    tp = rand_distribution(rng, len(sizes), alpha)
    k0 = int(rng.integers(len(sizes)))
    truth = th.GroundTruth(k0, int(rng.integers(sizes[k0])))
    return topo, wp, tp, truth


class TestTopology:
    def test_flat_and_split_roundtrip(self):
        topo = th.TaskTopology((2, 3, 1))
        seen = set()
        for k, size in enumerate(topo.sizes):
            for j in range(size):
                g = topo.flat(k, j)
                assert topo.split(g) == (k, j)
                seen.add(g)
        assert seen == set(range(topo.n_classes))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            th.TaskTopology(())
        with pytest.raises(ValueError):
            th.TaskTopology((2, 0))

    def test_truth_validation(self):
        with pytest.raises(ValueError):
            th.GroundTruth(2, 0).check(TOPO22)
        with pytest.raises(ValueError):
            th.GroundTruth(0, 2).check(TOPO22)


class TestCrossEntropy:
    def test_certain_prediction(self):
        assert th.cross_entropy(0, [1.0, 0.0]) == 0.0

    def test_symmetric(self):
        assert th.cross_entropy(0, [0.5, 0.5]) == pytest.approx(0.6931472, abs=1e-7)

    def test_quarter(self):
        # -ln 0.75 by arbitrary-precision evaluation
        assert th.cross_entropy(1, [0.25, 0.75]) == pytest.approx(
            0.2876820724517809, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            th.cross_entropy(2, [0.5, 0.5])

    def test_clamp(self):
        assert th.cross_entropy(0, [0.0, 1.0]) == pytest.approx(th.H_MAX)


class TestComposeCil:
    def test_worked_example(self):
        out = th.compose_cil(WP, TP, TOPO22)
        np.testing.assert_allclose(out, [0.42, 0.28, 0.27, 0.03], rtol=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_task_identity(self):
        topo = th.TaskTopology((3,))
        wp = [np.array([0.2, 0.5, 0.3])]
        np.testing.assert_array_equal(th.compose_cil(wp, [1.0], topo), wp[0])

    def test_one_hot_tp_annihilates_other_tasks(self):
        out = th.compose_cil(WP, [0.0, 1.0], TOPO22)
        assert not out[TOPO22.task_slice(0)].any()
        np.testing.assert_array_equal(out[TOPO22.task_slice(1)], WP[1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            th.compose_cil(WP, [1.0], TOPO22)
        with pytest.raises(ValueError):
            th.compose_cil([WP[0]], TP, TOPO22)


class TestEntropyReport:
    def test_worked_example_and_identity(self):
        r = th.entropy_report(TRUTH00, TOPO22, wp=WP, tp=TP)
        assert r.h_wp == pytest.approx(0.5108256237659907, rel=1e-12)
        assert r.h_tp == pytest.approx(0.3566749439387324, rel=1e-12)
        assert r.h_cil == pytest.approx(0.8675005677047231, rel=1e-12)
        assert abs(r.h_cil - (r.h_wp + r.h_tp)) < 1e-9

    def test_one_hot_all_zero(self):
        r = th.entropy_report(TRUTH00, TOPO22,
                              wp=[np.array([1.0, 0.0]), np.array([1.0, 0.0])],
                              tp=np.array([1.0, 0.0]))
        assert r.h_wp == r.h_tp == r.h_cil == 0.0

    def test_uniform_tp(self):
        topo = th.TaskTopology((1,) * 4)
        r = th.entropy_report(th.GroundTruth(2, 0), topo,
                              wp=[np.ones(1)] * 4, tp=np.full(4, 0.25))
        assert r.h_tp == pytest.approx(np.log(4.0), rel=1e-12)

    def test_truth_outside_topology(self):
        with pytest.raises(ValueError):
            th.entropy_report(th.GroundTruth(5, 0), TOPO22, wp=WP, tp=TP)


class TestTheorem1:
    def test_worked_example(self):
        r = th.entropy_report(TRUTH00, TOPO22, wp=WP, tp=TP)
        assert th.check_theorem1(r, eps=0.52, delta=0.36)

    def test_zero_budgets(self):
        r = th.entropy_report(TRUTH00, TOPO22,
                              wp=[np.array([1.0, 0.0]), np.array([0.5, 0.5])],
                              tp=np.array([1.0, 0.0]))
        assert th.check_theorem1(r, eps=0.0, delta=0.0)

    def test_hypothesis_violation_is_not_a_verdict(self):
        r = th.entropy_report(TRUTH00, TOPO22, wp=WP, tp=TP)
        with pytest.raises(th.HypothesisError):
            th.check_theorem1(r, eps=0.1, delta=0.36)


class TestCorollary1:
    def test_two_reports(self):
        rs = [th.EntropyReport(0.5, 0.3, 0.8, np.zeros(2)),
              th.EntropyReport(0.1, 0.2, 0.3, np.zeros(2))]
        assert th.check_corollary1(rs, eps=0.3, delta=0.25)

    def test_single_report_reduces_to_theorem1(self):
        r = th.entropy_report(TRUTH00, TOPO22, wp=WP, tp=TP)
        assert th.check_corollary1([r], eps=r.h_wp, delta=r.h_tp) == \
            th.check_theorem1(r, r.h_wp, r.h_tp)

    def test_all_zero(self):
        rs = [th.EntropyReport(0.0, 0.0, 0.0, np.zeros(2))] * 3
        assert th.check_corollary1(rs, eps=0.0, delta=0.0)

    def test_empty(self):
        with pytest.raises(ValueError):
            th.check_corollary1([], delta=1.0)


class TestTheorem2:
    def test_profile_from_tp_worked_example(self):
        profile = th.ood_from_tp(TP)
        h = th.ood_entropies(profile, 0)
        ln07 = -np.log(0.7)
        np.testing.assert_allclose(h, [ln07, ln07], rtol=1e-12)
        assert (h <= -np.log(0.7) + 1e-12).all()

    def test_one_hot_tp(self):
        h = th.ood_entropies(th.ood_from_tp([0.0, 1.0]), 1)
        np.testing.assert_array_equal(h, [0.0, 0.0])

    def test_tp_from_profile(self):
        np.testing.assert_allclose(th.tp_from_ood([0.5, 0.5]), [0.5, 0.5])
        np.testing.assert_allclose(th.tp_from_ood([1.0, 0.0]), [1.0, 0.0])
        np.testing.assert_allclose(th.tp_from_ood([0.8, 0.2, 0.2]),
                                   [2 / 3, 1 / 6, 1 / 6], rtol=1e-12)

    def test_all_zero_profile(self):
        with pytest.raises(th.DegenerateInputError):
            th.tp_from_ood([0.0, 0.0])

    def test_bound_values(self):
        assert th.theorem2_bound([0.0, 0.0], 0) == 0.0
        ln2 = float(np.log(2.0))
        assert th.theorem2_bound([ln2, ln2], 0) == pytest.approx(2.0, rel=1e-12)
        # worst-case profile meeting those budgets
        tp = th.tp_from_ood([0.5, 0.5])
        assert th.cross_entropy(0, tp) <= 2.0

    def test_bound_rejects_negative(self):
        with pytest.raises(ValueError):
            th.theorem2_bound([-0.1], 0)

    def test_roundtrip_idempotent_on_normalized_profiles(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tp = rand_distribution(rng, int(rng.integers(1, 6)))
            np.testing.assert_allclose(
                th.tp_from_ood(th.ood_from_tp(tp)), tp, rtol=0, atol=1e-15)


class TestTheorem3:
    def test_one_hot(self):
        r = th.entropy_report(TRUTH00, TOPO22,
                              wp=[np.array([1.0, 0.0]), np.array([0.5, 0.5])],
                              tp=np.array([1.0, 0.0]))
        assert th.check_theorem3(r, 0.0, [0.0, 0.0], TRUTH00)

    def test_worked_chain(self):
        r = th.entropy_report(TRUTH00, TOPO22, wp=WP, tp=TP)
        assert th.check_theorem3(r, r.h_wp, r.h_ood, TRUTH00)

    def test_hypothesis_error(self):
        r = th.entropy_report(TRUTH00, TOPO22, wp=WP, tp=TP)
        with pytest.raises(th.HypothesisError):
            th.check_theorem3(r, r.h_wp, np.zeros(2), TRUTH00)


class TestTheorem4:
    def test_worked_example(self):
        c = th.theorem4_construct([0.42, 0.28, 0.27, 0.03], TOPO22, TRUTH00)
        assert c.h_wp == pytest.approx(0.8675005677047231, rel=1e-12)
        assert c.h_tp == pytest.approx(-np.log(0.7), rel=1e-12)
        assert c.h_ood[0] == pytest.approx(-np.log(0.7), rel=1e-12)
        assert c.all_ok
        # sub-normalized slices are the raw cil slices
        np.testing.assert_array_equal(c.wp_subnormalized[0], [0.42, 0.28])
        np.testing.assert_allclose(c.wp_normalized[0], [0.6, 0.4], rtol=1e-12)
        np.testing.assert_allclose(c.tp, [0.7, 0.3], rtol=1e-12)

    def test_one_hot(self):
        c = th.theorem4_construct([1.0, 0.0, 0.0, 0.0], TOPO22, TRUTH00)
        assert c.h_wp == c.h_tp == 0.0
        assert c.all_ok

    def test_zero_mass_task_normalizes_uniform(self):
        c = th.theorem4_construct([0.6, 0.4, 0.0, 0.0], TOPO22, TRUTH00)
        np.testing.assert_array_equal(c.wp_normalized[1], [0.5, 0.5])


class TestTheorem5:
    def test_tau_one_reduces_to_theorem2_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            tp = rand_distribution(rng, n)
            truth = th.GroundTruth(int(rng.integers(n)), 0)
            profile5, _ = th.theorem5_ood_from_tp(tp, np.ones(n), truth)
            np.testing.assert_array_equal(profile5, th.ood_from_tp(tp))
            q = rng.uniform(size=n)
            np.testing.assert_array_equal(
                th.theorem5_tp_from_ood(q, np.ones(n)), th.tp_from_ood(q))

    def test_worked_example(self):
        truth = th.GroundTruth(0, 0)
        profile, bounds = th.theorem5_ood_from_tp([0.7, 0.3], [2.0, 2.0], truth)
        assert profile[0] == pytest.approx(0.8366600265340755, rel=1e-12)
        h0 = th.ood_entropies(profile, 0)[0]
        assert h0 == pytest.approx(0.1783374719693662, rel=1e-12)
        # independent closed-form evaluation: max(delta/2, -ln(1-(1-0.7)^0.5))
        assert bounds[0] == pytest.approx(0.7934594766254427, rel=1e-12)
        assert h0 <= bounds[0]

    def test_sharpening_limit_one_hot(self):
        tp = th.theorem5_tp_from_ood([0.9, 0.4], [1e-3, 1e-3])
        assert tp[0] > 1 - 1e-6
        assert tp[1] < 1e-6

    def test_bound_example(self):
        # tau=1 bound: delta_k0/1 + sum terms / (1 - term_k0)
        ln2 = float(np.log(2.0))
        b5 = th.theorem5_bound([ln2, ln2], [1.0, 1.0], 0)
        assert b5 == pytest.approx(ln2 + 1.0 / 0.5, rel=1e-12)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            th.theorem5_tp_from_ood([0.5, 0.5], [0.0, 1.0])

    def test_degenerate_bound_signal(self):
        with pytest.raises(th.DegenerateBoundError):
            th.theorem5_bound([np.inf, 0.1], [1.0, 1.0], 0)


class TestFuzzedInvariants:
    """Stamp-sized versions of the verify suites; full counts run via the CLI."""

    def test_identity_and_theorems_hold(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            topo, wp, tp, truth = rand_instance(rng)
            r = th.entropy_report(truth, topo, wp=wp, tp=tp)
            assert abs(r.h_cil - (r.h_wp + r.h_tp)) < 1e-9
            assert th.check_theorem1(r, r.h_wp, r.h_tp)
            assert (r.h_ood <= r.h_tp + 1e-9).all()
            assert th.check_theorem3(r, r.h_wp, r.h_ood, truth)

    def test_theorem2_profile_direction(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            q = rng.uniform(size=n)
            q[int(rng.integers(n))] = max(q.max(), 1e-3)
            k0 = int(rng.integers(n))
            deltas = th.ood_entropies(q, k0)
            h_tp = th.cross_entropy(k0, th.tp_from_ood(q))
            assert h_tp <= th.theorem2_bound(deltas, k0) + 1e-9

    def test_theorem4_fuzz(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            topo, _, _, truth = rand_instance(rng)
            cil = rand_distribution(rng, topo.n_classes)
            assert th.theorem4_construct(cil, topo, truth).all_ok

    def test_theorem5_fuzz(self):
        rng = np.random.default_rng(16)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            taus = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
            k0 = int(rng.integers(n))
            tp = rand_distribution(rng, n)
            truth = th.GroundTruth(k0, 0)
            profile, bounds = th.theorem5_ood_from_tp(tp, taus, truth)
            h = th.ood_entropies(profile, k0)
            assert (h <= bounds + 1e-9).all()
            q = rng.uniform(size=n)
            q[k0] = max(q[k0], 1e-6)
            deltas = th.ood_entropies(q, k0)
            tp5 = th.theorem5_tp_from_ood(q, taus)
            h_tp = th.cross_entropy(k0, tp5)
            assert h_tp <= th.theorem5_bound(deltas, taus, k0) + 1e-9


# ---------------------------------------------------------------------------
# Batched decomposition against the scalar oracles
# ---------------------------------------------------------------------------

def _softmax_rows(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax_rows(z):
    s = z - z.max(axis=1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=1, keepdims=True))


@st.composite
def decomposition_cases(draw):
    """Random non-uniform topology, truth and logits; some slices pushed
    ~1e4 below the rest so their probabilities underflow to exact zero."""
    sizes = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=5)))
    topo = th.TaskTopology(sizes)
    n = draw(st.integers(1, 8))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0, 800.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(n, topo.n_classes)) * scale
    for k in draw(st.sets(st.integers(0, len(sizes) - 1), max_size=2)):
        if len(sizes) > 1:
            z[:, topo.task_slice(k)] -= 1e4
    k0 = rng.integers(len(sizes), size=n)
    j0 = np.array([rng.integers(sizes[k]) for k in k0])
    return topo, z, k0, j0, rng


def _log_wp_rows(z, topo):
    return np.concatenate([_log_softmax_rows(z[:, topo.task_slice(k)])
                           for k in range(topo.n_tasks)], axis=1)


def _theorem4_oracle(cil, topo, truth):
    """Scalar report of one CIL row, and whether its WP, TP and CIL truth
    probabilities all reach the log clamp."""
    c = th.theorem4_construct(cil, topo, truth)
    wp, tp = c.wp_normalized, c.tp / c.tp.sum()
    rep = th.entropy_report(truth, topo, wp=wp, tp=tp, cil=cil, validate=False)
    probs = (wp[truth.k0][truth.j0], tp[truth.k0],
             cil[topo.flat(truth.k0, truth.j0)])
    return rep, min(probs) >= th.LOG_CLAMP


class TestDecomposeRows:
    @given(decomposition_cases())
    @settings(max_examples=150, deadline=None)
    def test_theorem4_rows_match_scalar_oracle(self, case):
        topo, z, k0, j0, _ = case
        cil = _softmax_rows(z)
        out = th.decompose_rows(cil, _log_softmax_rows(z), topo, k0, j0)
        for i in range(len(k0)):
            truth = th.GroundTruth(int(k0[i]), int(j0[i]))
            rep, above = _theorem4_oracle(cil[i], topo, truth)
            if above:  # rows under the clamp: test_log_space_rows_...
                assert (out.h_wp[i], out.h_tp[i], out.h_cil[i]) \
                    == (rep.h_wp, rep.h_tp, rep.h_cil)
            assert out.predictions[i] == np.argmax(cil[i])

    @given(decomposition_cases())
    @settings(max_examples=150, deadline=None)
    def test_compose_rows_match_scalar_oracle(self, case):
        topo, z, k0, j0, rng = case
        wp = np.concatenate([_softmax_rows(z[:, topo.task_slice(k)])
                             for k in range(topo.n_tasks)], axis=1)
        log_wp = _log_wp_rows(z, topo)
        profile = rng.uniform(size=(len(k0), topo.n_tasks))
        profile[rng.uniform(size=profile.shape) < 0.3] = 0.0
        profile[:, 0] += 1e-3  # no all-zero row
        tp = th.tp_from_ood(np.minimum(profile, 1.0))
        out = th.decompose_rows(wp, log_wp, topo, k0, j0, tp=tp)
        flat = np.asarray(topo.offsets)[k0] + j0
        for i in range(len(k0)):
            truth = th.GroundTruth(int(k0[i]), int(j0[i]))
            parts = [wp[i, topo.task_slice(k)] for k in range(topo.n_tasks)]
            p_wp, p_tp = wp[i, flat[i]], tp[i, k0[i]]
            if min(p_wp, p_tp, p_wp * p_tp) >= th.LOG_CLAMP:
                rep = th.entropy_report(truth, topo, wp=parts, tp=tp[i],
                                        validate=False)
                assert (out.h_wp[i], out.h_tp[i], out.h_cil[i]) \
                    == (rep.h_wp, rep.h_tp, rep.h_cil)
            else:
                assert out.h_wp[i] == -log_wp[i, flat[i]]
                assert out.h_tp[i] == (-np.log(p_tp) if p_tp > 0 else th.H_MAX)
                assert out.h_cil[i] == out.h_wp[i] + out.h_tp[i]
            assert out.predictions[i] == np.argmax(
                th.compose_cil(parts, tp[i], topo, validate=False))

    @given(decomposition_cases())
    @settings(max_examples=150, deadline=None)
    def test_log_space_rows_keep_the_identity(self, case):
        topo, z, k0, j0, _ = case
        cil = _softmax_rows(z)
        out = th.decompose_rows(cil, _log_softmax_rows(z), topo, k0, j0)
        flat = np.asarray(topo.offsets)[k0] + j0
        for i in range(len(k0)):
            if cil[i, flat[i]] < th.LOG_CLAMP:
                assert out.h_cil[i] == out.h_wp[i] + out.h_tp[i]
                # the exact -log of the truth entry, not the clamp
                exact = -_log_softmax_rows(z)[i, flat[i]]
                assert out.h_cil[i] == pytest.approx(exact, rel=1e-9)
        np.testing.assert_array_equal(out.predictions, cil.argmax(axis=1))

    def test_concat_case_missing_the_identity_by_log3(self):
        # task 0 logits [0, -50], task 1 logits [0, 0], truth (0, 1): the
        # clamped scalar report gives h_wp = h_cil = H_MAX and h_tp = log 3
        topo = th.TaskTopology((2, 2))
        z = np.array([[0.0, -50.0, 0.0, 0.0]])
        cil = _softmax_rows(z)
        rep, above = _theorem4_oracle(cil[0], topo, th.GroundTruth(0, 1))
        assert not above
        assert rep.h_cil - rep.h_wp - rep.h_tp == pytest.approx(-np.log(3.0))
        out = th.decompose_rows(cil, _log_softmax_rows(z), topo, [0], [1])
        assert out.h_wp[0] == pytest.approx(50.0 + np.log1p(np.exp(-50.0)))
        assert out.h_tp[0] == pytest.approx(np.log(3.0))
        assert out.h_cil[0] == out.h_wp[0] + out.h_tp[0]
        assert out.h_cil[0] == pytest.approx(50.0 + np.log(3.0))

    def test_exact_zero_tp_keeps_h_max(self):
        topo = th.TaskTopology((2, 1))
        wp = np.array([[1e-20, 1.0 - 1e-20, 1.0]])
        tp = np.array([[0.0, 1.0]])
        out = th.decompose_rows(wp, np.log(wp), topo, [0], [0], tp=tp)
        assert out.h_tp[0] == th.H_MAX
        assert out.h_wp[0] == pytest.approx(-np.log(1e-20))
        assert out.h_cil[0] == out.h_wp[0] + th.H_MAX

    def test_zero_mass_truth_slice_is_uniform(self):
        # an exactly-zero truth slice gives a uniform WP, as in the scalar
        # construction; its zero TP keeps H_MAX
        topo = th.TaskTopology((2, 2))
        cil = np.array([[0.0, 0.0, 0.5, 0.5]])
        with np.errstate(divide="ignore"):
            logs = np.log(cil)
        rep, _ = _theorem4_oracle(cil[0], topo, th.GroundTruth(0, 1))
        out = th.decompose_rows(cil, logs, topo, [0], [1])
        assert out.h_wp[0] == rep.h_wp == pytest.approx(np.log(2.0))
        assert out.h_tp[0] == rep.h_tp == th.H_MAX
        assert out.h_cil[0] == out.h_wp[0] + th.H_MAX

    @pytest.mark.parametrize("cil, tp, match", [
        ([[0.5, 0.6, 0.0, 0.0]], None, "sums to"),
        ([[-0.1, 0.6, 0.5, 0.0]], None, "negative"),
        ([[np.nan, 0.5, 0.5, 0.0]], None, "non-finite"),
        ([[0.5, 0.5, 0.5, 0.5]], [[0.6, 0.6]], "tp row 0 sums"),
        ([[0.5, 0.6, 0.5, 0.5]], [[0.5, 0.5]], "wp row 0 sums"),
    ])
    def test_input_checks(self, cil, tp, match):
        with pytest.raises(ValueError, match=match):
            th.decompose_rows(cil, np.zeros((1, 4)), TOPO22, [0], [0], tp=tp)

    @pytest.mark.parametrize("logs", [
        np.zeros((1, 3)), [[np.nan, 0.0, 0.0, 0.0]], [[np.inf, 0.0, 0.0, 0.0]],
        np.full((1, 4), -np.inf),
    ])
    def test_log_probs_checks(self, logs):
        with pytest.raises(ValueError, match="log_probs"):
            th.decompose_rows([[0.25] * 4], logs, TOPO22, [0], [0])

    @pytest.mark.parametrize("k0, j0", [([2], [0]), ([0], [2]), ([-1], [0]),
                                        ([0, 1], [0, 0])])
    def test_truth_outside_topology(self, k0, j0):
        with pytest.raises(ValueError):
            th.decompose_rows([[0.25] * 4], np.log([[0.25] * 4]), TOPO22,
                              k0, j0)

    def test_batched_tp_from_ood_matches_rows(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(size=(50, 4))
        batched = th.tp_from_ood(q)
        for i in range(len(q)):
            assert batched[i].tobytes() == th.tp_from_ood(q[i]).tobytes()
        with pytest.raises(th.DegenerateInputError):
            th.tp_from_ood(np.vstack([q, np.zeros(4)]))
        with pytest.raises(ValueError, match="lie in"):
            th.tp_from_ood(np.vstack([q, np.full(4, 1.5)]))


# ---------------------------------------------------------------------------
# Row batches of the bound predicates against their 1-D calls
# ---------------------------------------------------------------------------

@st.composite
def row_batches(draw):
    """Detector profiles (n, K) with exact 0 and 1 entries among uniform
    ones, positive temperatures, true tasks, and task distributions."""
    n, k = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = rng.uniform(size=(n, k))
    q[rng.uniform(size=(n, k)) < 0.15] = 0.0
    q[rng.uniform(size=(n, k)) < 0.15] = 1.0
    q[q.sum(axis=1) == 0.0, 0] = 0.5
    taus = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=(n, k)))
    k0 = rng.integers(k, size=n)
    tp = rng.dirichlet(np.full(k, draw(st.sampled_from([0.1, 1.0, 5.0]))),
                       size=n)
    return q, taus, k0, tp


def _same_bits(rows, one_d_calls):
    for i, want in enumerate(one_d_calls):
        assert np.asarray(rows[i]).tobytes() == np.asarray(want).tobytes()


class TestRowBatches:
    @given(row_batches())
    @settings(max_examples=200, deadline=None)
    def test_rows_have_the_bits_of_the_1d_call(self, case):
        q, taus, k0, tp = case
        rows = range(len(q))
        deltas = th.ood_entropies(q, k0)
        _same_bits(deltas, [th.ood_entropies(q[i], k0[i]) for i in rows])
        _same_bits(th.cross_entropy(k0, tp),
                   [th.cross_entropy(k0[i], tp[i]) for i in rows])
        _same_bits(th.theorem2_bound(deltas, k0),
                   [th.theorem2_bound(deltas[i], k0[i]) for i in rows])
        profile, bounds = th.theorem5_ood_from_tp(tp, taus, k0)
        for i in rows:
            p_i, b_i = th.theorem5_ood_from_tp(tp[i], taus[i],
                                               th.GroundTruth(int(k0[i]), 0))
            _same_bits([profile[i], bounds[i]], [p_i, b_i])
        _same_bits(th.theorem5_tp_from_ood(q, taus),
                   [th.theorem5_tp_from_ood(q[i], taus[i]) for i in rows])
        _same_bits(th.theorem5_bound(deltas, taus, k0),
                   [th.theorem5_bound(deltas[i], taus[i], k0[i]) for i in rows])
        bound = th.theorem2_bound(deltas, k0)
        _same_bits(th._leq(deltas[:, 0], bound),
                   [th._leq(deltas[i, 0], bound[i]) for i in rows])

    def test_zero_denominator_row_raises(self):
        deltas = np.array([[0.1, 0.2], [np.inf, 0.1]])
        assert th.theorem5_bound(deltas[:1], np.ones((1, 2)), [0]) > 0.0
        with pytest.raises(th.DegenerateBoundError):
            th.theorem5_bound(deltas, np.ones((2, 2)), [0, 0])

    @pytest.mark.parametrize("k0", [[0], [0, 2], [[0, 1]], [0.0, 1.0]])
    def test_truth_must_index_every_row(self, k0):
        with pytest.raises(ValueError, match="k0"):
            th.ood_entropies(np.full((2, 2), 0.5), k0)
        with pytest.raises(ValueError, match="k0"):
            th.theorem2_bound(np.ones((2, 2)), k0)

    def test_temperatures_must_match_rows(self):
        with pytest.raises(ValueError, match="temperatures"):
            th.theorem5_tp_from_ood(np.full((2, 2), 0.5), np.ones(2))
        with pytest.raises(ValueError, match="sums to"):
            th.theorem5_ood_from_tp([[0.5, 0.6]], np.ones((1, 2)), [0])
