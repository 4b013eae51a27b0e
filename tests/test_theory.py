import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clwb import theory as th

TOPO22 = th.TaskTopology((2, 2))

# worked two-task instance reused throughout: WP of each task in its slice
WP = np.array([0.6, 0.4, 0.9, 0.1])
TP = np.array([0.7, 0.3])


def rand_distribution(rng, n, alpha=1.0):
    # floored so truth-index products stay above the log clamp: the identity
    # h_cil = h_wp + h_tp is exact only while no clamp binds
    p = np.maximum(rng.dirichlet(np.full(n, alpha)), 1e-5)
    return p / p.sum()


def rand_instance(rng, max_tasks=6, max_classes=5):
    """(topo, wp, tp, k0, j0): wp the flat concatenation of the tasks' WP."""
    sizes = tuple(int(rng.integers(1, max_classes + 1))
                  for _ in range(int(rng.integers(1, max_tasks + 1))))
    topo = th.TaskTopology(sizes)
    alpha = float(rng.choice([0.2, 1.0, 5.0]))
    wp = np.concatenate([rand_distribution(rng, s, alpha) for s in sizes])
    tp = rand_distribution(rng, len(sizes), alpha)
    k0 = int(rng.integers(len(sizes)))
    return topo, wp, tp, k0, int(rng.integers(sizes[k0]))


def report1(wp, tp, topo=TOPO22, k0=0, j0=0):
    """th.entropy_report of one composed instance, as a one-row batch."""
    wp = np.atleast_2d(wp)
    with np.errstate(divide="ignore"):
        return th.entropy_report(wp, np.log(wp), topo, [k0], [j0],
                                 tp=np.atleast_2d(tp))


def rows(**h):
    """A report of the given h_wp, h_tp and h_cil rows."""
    return th.EntropyReport(None, *(np.asarray(h[f], dtype=float)
                                    for f in ("h_wp", "h_tp", "h_cil")))


class TestTopology:
    def test_flat_and_split_roundtrip(self):
        topo = th.TaskTopology((2, 3, 1))
        assert topo.offsets == (0, 2, 5)
        seen = []
        for k, size in enumerate(topo.sizes):
            ids = range(topo.n_classes)[topo.task_slice(k)]
            assert [topo.flat(k, j) for j in range(size)] == list(ids)
            seen += ids
        assert seen == list(range(topo.n_classes))
        for k, j in ((3, 0), (1, 3), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="outside topology"):
                topo.flat(k, j)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            th.TaskTopology(())
        with pytest.raises(ValueError):
            th.TaskTopology((2, 0))

    def test_truth_validation(self):
        for k0, j0 in ((2, 0), (0, 2), (-1, 0)):
            with pytest.raises(ValueError, match="outside topology"):
                th.theorem4_construct([[0.25] * 4], TOPO22, [k0], [j0])
            with pytest.raises(ValueError, match="outside topology"):
                report1(WP, TP, k0=k0, j0=j0)


class TestCrossEntropy:
    def test_certain_prediction(self):
        assert th.cross_entropy([0], [[1.0, 0.0]]).tolist() == [0.0]

    def test_symmetric(self):
        assert th.cross_entropy([0], [[0.5, 0.5]])[0] == pytest.approx(
            0.6931472, abs=1e-7)

    def test_quarter(self):
        # -ln 0.75 by arbitrary-precision evaluation
        assert th.cross_entropy([1], [[0.25, 0.75]])[0] == pytest.approx(
            0.2876820724517809, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            th.cross_entropy([2], [[0.5, 0.5]])

    def test_clamp(self):
        assert th.cross_entropy([0], [[0.0, 1.0]])[0] == pytest.approx(th.H_MAX)


class TestComposeCil:
    def test_worked_example(self):
        out = th.compose_cil([WP], [TP], TOPO22)
        np.testing.assert_allclose(out, [[0.42, 0.28, 0.27, 0.03]], rtol=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_single_task_identity(self):
        topo = th.TaskTopology((3,))
        wp = np.array([[0.2, 0.5, 0.3]])
        np.testing.assert_array_equal(th.compose_cil(wp, [[1.0]], topo), wp)

    def test_one_hot_tp_annihilates_other_tasks(self):
        (out,) = th.compose_cil([WP], [[0.0, 1.0]], TOPO22)
        assert not out[TOPO22.task_slice(0)].any()
        np.testing.assert_array_equal(out[TOPO22.task_slice(1)], WP[2:])

    def test_shape_mismatch(self):
        for wp, tp in (([WP], [[1.0]]), ([WP[:2]], [TP]), ([WP, WP], [TP]),
                       ([WP], [TP, TP]), ([WP], 1.0), (WP, TP)):
            with pytest.raises(ValueError, match="do not fit"):
                th.compose_cil(wp, tp, TOPO22)

    def test_rows_must_be_distributions(self):
        with pytest.raises(ValueError, match="tp row 1 sums"):
            th.compose_cil([WP, WP], [TP, [0.5, 0.6]], TOPO22)
        with pytest.raises(ValueError, match="wp row 1 sums"):
            th.compose_cil([WP, [0.6, 0.4, 0.9, 0.2]], [TP, TP], TOPO22)
        with pytest.raises(ValueError, match="negative"):
            th.compose_cil([[1.2, -0.2, 0.9, 0.1]], [TP], TOPO22)

    def test_a_bad_sum_prints_as_a_plain_float(self):
        with pytest.raises(ValueError, match=r"^wp row 0 sums to 1\.1, not 1$"):
            th.compose_cil([[0.5, 0.6, 0.5, 0.5]], [[0.5, 0.5]], TOPO22)

    @pytest.mark.parametrize("p, shape", [([0.5, 0.5], r"\(2,\)"),
                                          (np.ones((2, 0)), r"\(2, 0\)"),
                                          (0.5, r"\(\)")])
    def test_distributions_come_as_row_batches(self, p, shape):
        with pytest.raises(ValueError, match=rf"^tp must be an \(n, m\) row "
                                             rf"batch with m >= 1, got shape "
                                             rf"{shape}$"):
            th._distribution_rows(p, "tp")


class TestEntropyReport:
    def test_worked_example_and_identity(self):
        r = report1(WP, TP)
        assert r.h_wp[0] == pytest.approx(0.5108256237659907, rel=1e-12)
        assert r.h_tp[0] == pytest.approx(0.3566749439387324, rel=1e-12)
        assert r.h_cil[0] == pytest.approx(0.8675005677047231, rel=1e-12)
        assert abs(r.h_cil - (r.h_wp + r.h_tp))[0] < 1e-9

    def test_one_hot_all_zero(self):
        r = report1([1.0, 0.0, 1.0, 0.0], [1.0, 0.0])
        assert r.h_wp[0] == r.h_tp[0] == r.h_cil[0] == 0.0

    def test_uniform_tp(self):
        topo = th.TaskTopology((1,) * 4)
        r = report1(np.ones(4), np.full(4, 0.25), topo, k0=2)
        assert r.h_tp[0] == pytest.approx(np.log(4.0), rel=1e-12)

    def test_truth_outside_topology(self):
        with pytest.raises(ValueError):
            report1(WP, TP, k0=5)


class TestTheorem1:
    def test_worked_example(self):
        assert th.check_theorem1(report1(WP, TP), eps=0.52, delta=0.36)[0]

    def test_zero_budgets(self):
        r = report1([1.0, 0.0, 0.5, 0.5], [1.0, 0.0])
        assert th.check_theorem1(r, eps=0.0, delta=0.0)[0]

    def test_hypothesis_violation_is_not_a_verdict(self):
        with pytest.raises(th.HypothesisError, match="row 0"):
            th.check_theorem1(report1(WP, TP), eps=0.1, delta=0.36)

    def test_names_the_first_violating_row(self):
        r = rows(h_wp=[0.1, 0.5, 0.2], h_tp=[0.2, 0.2, 0.9],
                 h_cil=[0.3, 0.7, 1.1])
        assert th.check_theorem1(r, 0.5, 0.9).tolist() == [True] * 3
        # an unmet verdict is a False row, not an error
        assert th.check_theorem1(rows(h_wp=[0.1], h_tp=[0.1], h_cil=[0.3]),
                                 0.1, 0.1).tolist() == [False]
        with pytest.raises(th.HypothesisError, match="row 2"):
            th.check_theorem1(r, 0.5, [0.9, 0.9, 0.5])

    def test_shape_errors(self):
        r = rows(h_wp=[0.1, 0.5], h_tp=[0.2, 0.2], h_cil=[0.3, 0.7])
        with pytest.raises(ValueError, match="eps of shape"):
            th.check_theorem1(r, [1.0, 1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="report h_wp"):
            th.check_theorem1(rows(h_wp=[0.1], h_tp=[0.2, 0.2],
                                   h_cil=[0.3, 0.7]), 1.0, 1.0)


class TestCorollary1:
    def test_two_reports(self):
        r = rows(h_wp=[0.5, 0.1], h_tp=[0.3, 0.2], h_cil=[0.8, 0.3])
        assert th.check_corollary1(r, eps=0.3, delta=0.25).tolist() == [True]

    def test_single_report_reduces_to_theorem1(self):
        r = report1(WP, TP)
        assert th.check_corollary1(r, eps=r.h_wp, delta=r.h_tp) == \
            th.check_theorem1(r, r.h_wp, r.h_tp)

    def test_all_zero(self):
        r = rows(h_wp=np.zeros(3), h_tp=np.zeros(3), h_cil=np.zeros(3))
        assert th.check_corollary1(r, eps=0.0, delta=0.0).all()

    def test_empty(self):
        empty = rows(h_wp=[], h_tp=[], h_cil=[])
        with pytest.raises(ValueError):
            th.check_corollary1(empty, delta=1.0)

    def test_groups_and_their_hypotheses(self):
        r = rows(h_wp=[0.5, 0.1, 0.4, 0.0], h_tp=[0.3, 0.2, 0.1, 0.5],
                 h_cil=[0.8, 0.3, 0.5, 0.5])
        # groups [0, 1], [2], [3]: means (0.3, 0.25), (0.4, 0.1), (0.0, 0.5)
        assert th.check_corollary1(r, [0, 2, 3], eps=[0.3, 0.4, 0.0],
                                   delta=0.5).tolist() == [True] * 3
        # an unmet verdict: mean h_cil 0.3 against mean h_wp 0.1 + delta 0.1
        off = rows(h_wp=[0.1, 0.1], h_tp=[0.1, 0.1], h_cil=[0.3, 0.1])
        assert th.check_corollary1(off, [0, 1], delta=0.1).tolist() == \
            [False, True]
        with pytest.raises(th.HypothesisError, match="mean h_tp .* row 2"):
            th.check_corollary1(r, [0, 2, 3], delta=0.3)
        with pytest.raises(th.HypothesisError, match="mean h_wp .* row 1"):
            th.check_corollary1(r, [0, 2, 3], eps=[0.3, 0.3, 0.3])

    def test_shape_errors(self):
        r = rows(h_wp=[0.5, 0.1], h_tp=[0.3, 0.2], h_cil=[0.8, 0.3])
        with pytest.raises(ValueError, match="provide"):
            th.check_corollary1(r)
        for starts in ([1], [0, 0], [0, 2], [], [[0]]):
            with pytest.raises(ValueError, match="starts"):
                th.check_corollary1(r, starts, delta=1.0)
        with pytest.raises(ValueError, match="delta of shape"):
            th.check_corollary1(r, [0, 1], delta=[1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="nonempty batch"):
            th.check_corollary1(rows(h_wp=0.1, h_tp=0.1, h_cil=0.2), delta=1.0)


class TestTheorem2:
    def test_profile_from_tp_worked_example(self):
        profile = th.ood_from_tp([TP])
        h = th.ood_entropies(profile, [0])
        ln07 = -np.log(0.7)
        np.testing.assert_allclose(h, [[ln07, ln07]], rtol=1e-12)
        assert (h <= -np.log(0.7) + 1e-12).all()

    def test_one_hot_tp(self):
        h = th.ood_entropies(th.ood_from_tp([[0.0, 1.0]]), [1])
        np.testing.assert_array_equal(h, [[0.0, 0.0]])

    def test_profile_rows_from_tp_rows(self):
        np.testing.assert_array_equal(th.ood_from_tp([TP, [0.0, 1.0]]),
                                      [TP, [0.0, 1.0]])
        with pytest.raises(ValueError, match="tp row 1 sums"):
            th.ood_from_tp([TP, [0.5, 0.6]])
        with pytest.raises(ValueError, match="nonempty"):
            th.ood_from_tp(np.zeros((2, 0)))

    def test_tp_from_profile(self):
        np.testing.assert_allclose(th.tp_from_ood([[0.5, 0.5], [1.0, 0.0]]),
                                   [[0.5, 0.5], [1.0, 0.0]])
        np.testing.assert_allclose(th.tp_from_ood([[0.8, 0.2, 0.2]]),
                                   [[2 / 3, 1 / 6, 1 / 6]], rtol=1e-12)

    def test_all_zero_profile(self):
        with pytest.raises(th.DegenerateInputError):
            th.tp_from_ood([[0.0, 0.0]])

    def test_bound_values(self):
        ln2 = float(np.log(2.0))
        bound = th.theorem2_bound([[0.0, 0.0], [ln2, ln2]], [0, 0])
        assert bound[0] == 0.0
        assert bound[1] == pytest.approx(2.0, rel=1e-12)
        # worst-case profile meeting those budgets
        tp = th.tp_from_ood([[0.5, 0.5]])
        assert th.cross_entropy([0], tp)[0] <= 2.0

    def test_bound_rejects_negative(self):
        with pytest.raises(ValueError):
            th.theorem2_bound([[-0.1]], [0])

    def test_roundtrip_idempotent_on_normalized_profiles(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tp = rand_distribution(rng, int(rng.integers(1, 6)))[None]
            np.testing.assert_allclose(
                th.tp_from_ood(th.ood_from_tp(tp)), tp, rtol=0, atol=1e-15)


class TestTheorem3:
    def test_one_hot(self):
        r = report1([1.0, 0.0, 0.5, 0.5], [1.0, 0.0])
        assert th.check_theorem3(r, [[0.0, 0.0]], 0.0, [[0.0, 0.0]], [0])[0]

    def test_worked_chain(self):
        r = report1(WP, TP)
        h_ood = th.ood_entropies([TP], [0])
        assert th.check_theorem3(r, h_ood, r.h_wp, h_ood, [0])[0]

    def test_hypothesis_error(self):
        r = report1(WP, TP)
        h_ood = th.ood_entropies([TP], [0])
        with pytest.raises(th.HypothesisError, match="row 0"):
            th.check_theorem3(r, h_ood, r.h_wp, np.zeros((1, 2)), [0])

    def test_verdict_is_h_cil_within_eps_plus_the_bound(self):
        # deltas ln 2 on two tasks: theorem2_bound is 2, so the bar is 2.1
        r = rows(h_wp=[0.1, 0.1], h_tp=[0.5, 0.5], h_cil=[2.05, 2.15])
        h_ood = np.full((2, 2), np.log(2.0))
        assert th.check_theorem3(r, h_ood, 0.1, h_ood, [0, 1]).tolist() == \
            [True, False]

    def test_names_the_first_violating_row(self):
        r = rows(h_wp=[0.1, 0.1, 0.1], h_tp=[0.4] * 3, h_cil=[0.5] * 3)
        h_ood = np.full((3, 2), 0.4)
        deltas = h_ood.copy()
        deltas[1, 1] = 0.3
        with pytest.raises(th.HypothesisError, match="row 1"):
            th.check_theorem3(r, h_ood, 0.1, deltas, [0, 0, 0])
        with pytest.raises(th.HypothesisError, match="row 2"):
            th.check_theorem3(r, h_ood, [0.1, 0.1, 0.0], h_ood, [0, 0, 0])

    def test_shape_errors(self):
        r = rows(h_wp=[0.1, 0.1], h_tp=[0.4] * 2, h_cil=[0.5] * 2)
        h_ood = np.full((2, 2), 0.4)
        for h, d in ((h_ood, h_ood[:, :1]), (h_ood[0], h_ood[0]),
                     (h_ood[:1], h_ood[:1]), (h_ood[None], h_ood[None])):
            with pytest.raises(ValueError, match="h_ood shape"):
                th.check_theorem3(r, h, 0.1, d, [0, 0])
        with pytest.raises(ValueError, match="eps of shape"):
            th.check_theorem3(r, h_ood, [0.1] * 3, h_ood, [0, 0])


class TestTheorem4:
    def test_worked_example(self):
        tp, h_wp, h_tp, h_ood, ok = th.theorem4_construct(
            [[0.42, 0.28, 0.27, 0.03]], TOPO22, [0], [0])
        assert h_wp[0] == pytest.approx(0.8675005677047231, rel=1e-12)
        assert h_tp[0] == pytest.approx(-np.log(0.7), rel=1e-12)
        assert h_ood[0, 0] == pytest.approx(-np.log(0.7), rel=1e-12)
        assert ok.tolist() == [True]
        np.testing.assert_allclose(tp, [[0.7, 0.3]], rtol=1e-12)

    def test_one_hot(self):
        _, h_wp, h_tp, _, ok = th.theorem4_construct([[1.0, 0.0, 0.0, 0.0]],
                                                     TOPO22, [0], [0])
        assert h_wp[0] == h_tp[0] == 0.0
        assert ok.tolist() == [True]

    def test_zero_mass_task_normalizes_uniform(self):
        cil = np.array([[0.6, 0.4, 0.0, 0.0]])
        tp, _, _, h_ood, ok = th.theorem4_construct(cil, TOPO22, [0], [0])
        np.testing.assert_array_equal(tp, [[1.0, 0.0]])
        assert ok[0] and not h_ood.any()
        # the decomposition of that row normalizes the empty slice uniform
        with np.errstate(divide="ignore"):
            r = th.entropy_report(cil, np.log(cil), TOPO22, [1], [0])
        assert r.h_wp[0] == pytest.approx(np.log(2.0))

    def test_rows_and_shape_errors(self):
        cil = np.array([[0.42, 0.28, 0.27, 0.03], [0.1, 0.2, 0.3, 0.4]])
        tp, h_wp, _, h_ood, ok = th.theorem4_construct(cil, TOPO22, [0, 1],
                                                       [0, 1])
        assert tp.shape == h_ood.shape == (2, 2) and ok.tolist() == [True] * 2
        assert h_wp[1] == th.cross_entropy([3], cil[1:])[0]
        with pytest.raises(ValueError, match=r"is not \(n, 4\)"):
            th.theorem4_construct(cil[:, :3] / cil[:, :3].sum(axis=1,
                                                            keepdims=True),
                                  TOPO22, [0, 1], [0, 1])
        with pytest.raises(ValueError, match="truth shapes"):
            th.theorem4_construct(cil, TOPO22, [0], [0])
        with pytest.raises(ValueError, match="cil row 1 sums"):
            th.theorem4_construct([cil[0], cil[1] * 2], TOPO22, [0, 1],
                                  [0, 1])

    @pytest.mark.parametrize("cil", [[0.42, 0.28, 0.27, 0.03],
                                     [0.42, 0.28, 0.57, 0.03]])
    def test_a_vector_is_refused_by_its_shape_whatever_it_sums_to(self, cil):
        with pytest.raises(ValueError,
                           match=r"^cil of shape \(4,\) is not \(n, 4\)$"):
            th.theorem4_construct(cil, TOPO22, [0], [0])


class TestTheorem5:
    def test_tau_one_reduces_to_theorem2_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            tp = rand_distribution(rng, n)[None]
            profile5, _ = th.theorem5_ood_from_tp(tp, np.ones((1, n)),
                                                  rng.integers(n, size=1))
            np.testing.assert_array_equal(profile5, th.ood_from_tp(tp))
            q = rng.uniform(size=(1, n))
            np.testing.assert_array_equal(
                th.theorem5_tp_from_ood(q, np.ones((1, n))), th.tp_from_ood(q))

    def test_worked_example(self):
        profile, bounds = th.theorem5_ood_from_tp([[0.7, 0.3]], [[2.0, 2.0]],
                                                  [0])
        assert profile[0, 0] == pytest.approx(0.8366600265340755, rel=1e-12)
        h0 = th.ood_entropies(profile, [0])[0, 0]
        assert h0 == pytest.approx(0.1783374719693662, rel=1e-12)
        # independent closed-form evaluation: max(delta/2, -ln(1-(1-0.7)^0.5))
        assert bounds[0, 0] == pytest.approx(0.7934594766254427, rel=1e-12)
        assert h0 <= bounds[0, 0]

    def test_sharpening_limit_one_hot(self):
        (tp,) = th.theorem5_tp_from_ood([[0.9, 0.4]], [[1e-3, 1e-3]])
        assert tp[0] > 1 - 1e-6
        assert tp[1] < 1e-6

    def test_bound_example(self):
        # tau=1 bound: delta_k0/1 + sum terms / (1 - term_k0)
        ln2 = float(np.log(2.0))
        (b5,) = th.theorem5_bound([[ln2, ln2]], [[1.0, 1.0]], [0])
        assert b5 == pytest.approx(ln2 + 1.0 / 0.5, rel=1e-12)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            th.theorem5_tp_from_ood([[0.5, 0.5]], [[0.0, 1.0]])

    def test_degenerate_bound_signal(self):
        with pytest.raises(th.DegenerateBoundError):
            th.theorem5_bound([[np.inf, 0.1]], [[1.0, 1.0]], [0])


class TestFuzzedInvariants:
    """Stamp-sized versions of the verify suites; full counts run via the CLI."""

    def test_identity_and_theorems_hold(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            topo, wp, tp, k0, j0 = rand_instance(rng)
            r = report1(wp, tp, topo, k0, j0)
            h_ood = th.ood_entropies([tp], [k0])
            assert abs(r.h_cil - (r.h_wp + r.h_tp))[0] < 1e-9
            assert th.check_theorem1(r, r.h_wp, r.h_tp)[0]
            assert (h_ood <= r.h_tp + 1e-9).all()
            assert th.check_theorem3(r, h_ood, r.h_wp, h_ood, [k0])[0]

    def test_theorem2_profile_direction(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            q = rng.uniform(size=(1, n))
            q[0, int(rng.integers(n))] = max(q.max(), 1e-3)
            k0 = rng.integers(n, size=1)
            deltas = th.ood_entropies(q, k0)
            h_tp = th.cross_entropy(k0, th.tp_from_ood(q))
            assert h_tp <= th.theorem2_bound(deltas, k0) + 1e-9

    def test_theorem4_fuzz(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            topo, _, _, k0, j0 = rand_instance(rng)
            cil = rand_distribution(rng, topo.n_classes)[None]
            assert th.theorem4_construct(cil, topo, [k0], [j0])[-1].all()

    def test_theorem5_fuzz(self):
        rng = np.random.default_rng(16)
        for _ in range(500):
            n = int(rng.integers(1, 7))
            taus = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=(1, n)))
            k0 = rng.integers(n, size=1)
            tp = rand_distribution(rng, n)[None]
            profile, bounds = th.theorem5_ood_from_tp(tp, taus, k0)
            h = th.ood_entropies(profile, k0)
            assert (h <= bounds + 1e-9).all()
            q = rng.uniform(size=(1, n))
            q[0, k0] = np.maximum(q[0, k0], 1e-6)
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
    c = oracles.theorem4_construct(cil, topo, truth)
    wp, tp = c.wp_normalized, c.tp / c.tp.sum()
    rep = oracles.entropy_report(truth, topo, wp=wp, tp=tp, cil=cil,
                                 validate=False)
    probs = (wp[truth.k0][truth.j0], tp[truth.k0],
             cil[topo.flat(truth.k0, truth.j0)])
    return rep, min(probs) >= th.LOG_CLAMP


class TestDecomposeRows:
    @given(decomposition_cases())
    @settings(max_examples=150, deadline=None)
    def test_theorem4_rows_match_scalar_oracle(self, case):
        topo, z, k0, j0, _ = case
        cil = _softmax_rows(z)
        out = th.entropy_report(cil, _log_softmax_rows(z), topo, k0, j0)
        for i in range(len(k0)):
            truth = oracles.GroundTruth(int(k0[i]), int(j0[i]))
            rep, above = _theorem4_oracle(cil[i], topo, truth)
            if above:
                assert (out.h_wp[i], out.h_tp[i], out.h_cil[i]) \
                    == (rep.h_wp, rep.h_tp, rep.h_cil)
            else:  # under the clamp: the parts in log space
                # Log-sum-exps relative to their max. On a pushed-down slice
                # (|lz| ~ 1e4) own.max() - lz[flat] subtracts floats within a
                # factor of two of each other, which is exact; the slice's
                # log-sum-exp minus lz[flat] would first round that sum, off
                # by up to an ulp of 1e4, 1.8e-12.
                lz = _log_softmax_rows(z)[i]
                own = lz[topo.task_slice(truth.k0)]
                flat = topo.flat(truth.k0, truth.j0)
                log_own = np.log(np.exp(own - own.max()).sum())
                log_all = np.log(np.exp(lz - lz.max()).sum())
                assert out.h_wp[i] == pytest.approx(
                    (own.max() - lz[flat]) + log_own, rel=1e-9, abs=1e-12)
                assert out.h_tp[i] == pytest.approx(
                    (lz.max() - own.max()) + log_all - log_own, rel=1e-9,
                    abs=1e-12)
                assert out.h_cil[i] == out.h_wp[i] + out.h_tp[i]
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
        out = th.entropy_report(wp, log_wp, topo, k0, j0, tp=tp)
        flat = np.asarray(topo.offsets)[k0] + j0
        for i in range(len(k0)):
            truth = oracles.GroundTruth(int(k0[i]), int(j0[i]))
            parts = [wp[i, topo.task_slice(k)] for k in range(topo.n_tasks)]
            p_wp, p_tp = wp[i, flat[i]], tp[i, k0[i]]
            if min(p_wp, p_tp, p_wp * p_tp) >= th.LOG_CLAMP:
                rep = oracles.entropy_report(truth, topo, wp=parts, tp=tp[i],
                                             validate=False)
                assert (out.h_wp[i], out.h_tp[i], out.h_cil[i]) \
                    == (rep.h_wp, rep.h_tp, rep.h_cil)
            else:
                # log_wp is already max-relative per slice, (z - max) -
                # log(sum(exp(z - max))): the program passes it through
                assert out.h_wp[i] == -log_wp[i, flat[i]]
                assert out.h_tp[i] == (-np.log(p_tp) if p_tp > 0 else th.H_MAX)
                assert out.h_cil[i] == out.h_wp[i] + out.h_tp[i]
            assert out.predictions[i] == np.argmax(
                oracles.compose_cil(parts, tp[i], topo, validate=False))

    @given(decomposition_cases())
    @settings(max_examples=150, deadline=None)
    def test_log_space_rows_keep_the_identity(self, case):
        topo, z, k0, j0, _ = case
        cil = _softmax_rows(z)
        out = th.entropy_report(cil, _log_softmax_rows(z), topo, k0, j0)
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
        rep, above = _theorem4_oracle(cil[0], topo, oracles.GroundTruth(0, 1))
        assert not above
        assert rep.h_cil - rep.h_wp - rep.h_tp == pytest.approx(-np.log(3.0))
        out = th.entropy_report(cil, _log_softmax_rows(z), topo, [0], [1])
        assert out.h_wp[0] == pytest.approx(50.0 + np.log1p(np.exp(-50.0)))
        assert out.h_tp[0] == pytest.approx(np.log(3.0))
        assert out.h_cil[0] == out.h_wp[0] + out.h_tp[0]
        assert out.h_cil[0] == pytest.approx(50.0 + np.log(3.0))

    def test_exact_zero_tp_keeps_h_max(self):
        topo = th.TaskTopology((2, 1))
        wp = np.array([[1e-20, 1.0 - 1e-20, 1.0]])
        tp = np.array([[0.0, 1.0]])
        out = th.entropy_report(wp, np.log(wp), topo, [0], [0], tp=tp)
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
        rep, _ = _theorem4_oracle(cil[0], topo, oracles.GroundTruth(0, 1))
        out = th.entropy_report(cil, logs, topo, [0], [1])
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
            th.entropy_report(cil, np.zeros((1, 4)), TOPO22, [0], [0], tp=tp)

    @pytest.mark.parametrize("logs", [
        np.zeros((1, 3)), [[np.nan, 0.0, 0.0, 0.0]], [[np.inf, 0.0, 0.0, 0.0]],
        np.full((1, 4), -np.inf),
    ])
    def test_log_probs_checks(self, logs):
        with pytest.raises(ValueError, match="log_probs"):
            th.entropy_report([[0.25] * 4], logs, TOPO22, [0], [0])

    @pytest.mark.parametrize("k0, j0", [([2], [0]), ([0], [2]), ([-1], [0]),
                                        ([0, 1], [0, 0])])
    def test_truth_outside_topology(self, k0, j0):
        with pytest.raises(ValueError):
            th.entropy_report([[0.25] * 4], np.log([[0.25] * 4]), TOPO22,
                              k0, j0)

    def test_batched_tp_from_ood_matches_rows(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(size=(50, 4))
        batched = th.tp_from_ood(q)
        for i in range(len(q)):
            assert batched[i].tobytes() == th.tp_from_ood(q[i:i + 1]).tobytes()
        with pytest.raises(th.DegenerateInputError):
            th.tp_from_ood(np.vstack([q, np.zeros(4)]))
        with pytest.raises(ValueError, match="lie in"):
            th.tp_from_ood(np.vstack([q, np.full(4, 1.5)]))


# ---------------------------------------------------------------------------
# Row batches of the bound predicates against their one-row batches
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


def _batch_invariant(fn, *args):
    """Row i of fn over the whole batch has the bits of fn over the one-row
    batch of row i; every argument holds one entry or row per instance, and
    fn returns an array or a tuple of arrays."""
    def parts(out):
        return out if isinstance(out, tuple) else (out,)

    whole = parts(fn(*args))
    for i in range(len(args[0])):
        one = parts(fn(*(a[i:i + 1] for a in args)))
        for w, o in zip(whole, one):
            assert o.shape[0] == 1
            assert w[i].tobytes() == o[0].tobytes()


class TestRowBatches:
    @given(row_batches())
    @settings(max_examples=200, deadline=None)
    def test_rows_have_the_bits_of_their_one_row_batch(self, case):
        q, taus, k0, tp = case
        deltas = th.ood_entropies(q, k0)
        _batch_invariant(th.ood_entropies, q, k0)
        _batch_invariant(lambda a, b: th.cross_entropy(b, a), tp, k0)
        _batch_invariant(th.theorem2_bound, deltas, k0)
        _batch_invariant(th.theorem5_ood_from_tp, tp, taus, k0)
        _batch_invariant(th.theorem5_tp_from_ood, q, taus)
        _batch_invariant(th.theorem5_bound, deltas, taus, k0)
        _batch_invariant(th.tp_from_ood, q)
        _batch_invariant(lambda d, k: th._leq(d[:, 0], th.theorem2_bound(d, k)),
                         deltas, k0)

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


# ---------------------------------------------------------------------------
# The theorem predicates on row batches against the scalar oracles
# ---------------------------------------------------------------------------

@st.composite
def composed_batches(draw):
    """Random topology, n composed instances (flat WP rows, TP rows, truth)
    and a per-row budget scale: 1 keeps each hypothesis, 0.5 may break it."""
    sizes = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=6)))
    topo = th.TaskTopology(sizes)
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.2, 1.0, 5.0]))
    wp = np.array([np.concatenate([rand_distribution(rng, s, alpha)
                                   for s in sizes]) for _ in range(n)])
    tp = np.array([rand_distribution(rng, len(sizes), alpha)
                   for _ in range(n)])
    k0 = rng.integers(len(sizes), size=n)
    j0 = np.array([rng.integers(sizes[k]) for k in k0])
    scale = np.where(rng.uniform(size=n) < draw(st.sampled_from([0.0, 0.2])),
                     0.5, 1.0)
    return topo, wp, tp, k0, j0, scale, rng


def _oracle_rows(check, n):
    """Each row's oracle verdict, or None where it raises HypothesisError."""
    out = []
    for i in range(n):
        try:
            out.append(check(i))
        except th.HypothesisError:
            out.append(None)
    return out


def _agrees(verdicts, batch_call):
    """The batch call gives every oracle verdict, or names the first row
    whose hypotheses fail."""
    bad = [i for i, v in enumerate(verdicts) if v is None]
    if bad:
        with pytest.raises(th.HypothesisError, match=rf"row {bad[0]}$"):
            batch_call()
    else:
        assert batch_call().tolist() == verdicts


class TestPredicatesMatchOracles:
    @given(composed_batches())
    @settings(max_examples=150, deadline=None)
    def test_row_predicates_match_scalar_chain(self, case):
        topo, wp, tp, k0, j0, scale, rng = case
        n = len(k0)
        parts = [[wp[i, topo.task_slice(k)] for k in range(topo.n_tasks)]
                 for i in range(n)]
        truth = [oracles.GroundTruth(int(k0[i]), int(j0[i])) for i in range(n)]
        reps = [oracles.entropy_report(truth[i], topo, wp=parts[i], tp=tp[i])
                for i in range(n)]

        cil = th.compose_cil(wp, tp, topo)
        for i in range(n):
            assert cil[i].tobytes() == oracles.compose_cil(
                parts[i], tp[i], topo).tobytes()
        report = th.entropy_report(wp, np.log(wp), topo, k0, j0, tp=tp)
        for name in ("h_wp", "h_tp", "h_cil"):
            assert getattr(report, name).tolist() == \
                [getattr(r, name) for r in reps]
        profile = th.ood_from_tp(tp)
        h_ood = th.ood_entropies(profile, k0)
        for i in range(n):
            assert profile[i].tobytes() == oracles.ood_from_tp(tp[i]).tobytes()
            assert h_ood[i].tobytes() == reps[i].h_ood.tobytes()

        eps, delta = report.h_wp * scale, report.h_tp * scale[::-1]
        _agrees(_oracle_rows(lambda i: bool(oracles.check_theorem1(
            reps[i], eps[i], delta[i])), n),
            lambda: th.check_theorem1(report, eps, delta))
        deltas = h_ood * scale[:, None]
        _agrees(_oracle_rows(lambda i: bool(oracles.check_theorem3(
            reps[i], report.h_wp[i], deltas[i], truth[i])), n),
            lambda: th.check_theorem3(report, h_ood, report.h_wp, deltas, k0))

        # consecutive groups, budgets at (scaled) oracle group means
        starts = np.flatnonzero(np.r_[True, rng.uniform(size=n - 1) < 0.4])
        groups = np.split(np.arange(n), starts[1:])
        means = {f: np.array([np.mean([getattr(reps[i], f) for i in g])
                              for g in groups]) for f in ("h_wp", "h_tp")}
        g_scale = scale[:len(groups)]
        g_eps, g_delta = means["h_wp"] * g_scale, means["h_tp"]
        _agrees(_oracle_rows(lambda g: bool(oracles.check_corollary1(
            [reps[i] for i in groups[g]], eps=g_eps[g], delta=g_delta[g])),
            len(groups)),
            lambda: th.check_corollary1(report, starts, eps=g_eps,
                                        delta=g_delta))

    @given(composed_batches())
    @settings(max_examples=150, deadline=None)
    def test_theorem4_rows_match_scalar_construction(self, case):
        topo, wp, tp, k0, j0, _, _ = case
        cil = th.compose_cil(wp, tp, topo)
        masses, h_wp, h_tp, h_ood, ok = th.theorem4_construct(cil, topo, k0,
                                                              j0)
        for i in range(len(k0)):
            c = oracles.theorem4_construct(
                cil[i], topo, oracles.GroundTruth(int(k0[i]), int(j0[i])))
            assert masses[i].tobytes() == c.tp.tobytes()
            assert (h_wp[i], h_tp[i], ok[i]) == (c.h_wp, c.h_tp, c.all_ok)
            assert h_ood[i].tobytes() == c.h_ood.tobytes()
