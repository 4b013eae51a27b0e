import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clwb import metrics as mt


def brute_force_auc(ind, ood):
    wins = sum(1.0 if a > b else 0.5 if a == b else 0.0
               for a in ind for b in ood)
    return wins / (len(ind) * len(ood))


class TestAuc:
    def test_perfect_separation(self):
        assert mt.auc(mt.ScoredPopulation([0.9, 0.8], [0.3, 0.1])) == 1.0

    def test_three_of_four_pairs(self):
        assert mt.auc(mt.ScoredPopulation([0.9, 0.4], [0.5, 0.1])) == 0.75

    def test_tie_convention(self):
        assert mt.auc(mt.ScoredPopulation([0.5], [0.5])) == 0.5

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            mt.ScoredPopulation([], [0.5])

    def test_paths_agree_with_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, m = rng.integers(1, 40, size=2)
            ind = np.round(rng.normal(size=n), 1)  # rounding forces ties
            ood = np.round(rng.normal(size=m), 1)
            pop = mt.ScoredPopulation(ind, ood)
            expect = brute_force_auc(list(ind), list(ood))
            assert mt.auc_pairwise(pop) == pytest.approx(expect, abs=1e-12)
            assert mt.auc_ranksum(pop) == pytest.approx(expect, abs=1e-12)

    def test_complement_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=30), rng.normal(size=20)
        assert mt.auc(mt.ScoredPopulation(a, b)) + \
            mt.auc(mt.ScoredPopulation(b, a)) == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=30),
           st.lists(st.integers(-50, 50), min_size=1, max_size=30),
           st.floats(0.01, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, ind, ood, scale):
        pop = mt.ScoredPopulation(ind, ood)
        stretched = mt.ScoredPopulation(
            np.exp(scale * np.asarray(ind, dtype=float) / 50.0),
            np.exp(scale * np.asarray(ood, dtype=float) / 50.0))
        assert mt.auc(pop) == pytest.approx(mt.auc(stretched), abs=1e-12)

    def test_large_tied_populations_use_the_pairwise_count(self, monkeypatch):
        # > 10,000 rows per side with ties: pair counting is exact at any
        # size and gives the rank-sum reference's bits
        rng = np.random.default_rng(2)
        pop = mt.ScoredPopulation(np.round(rng.normal(0.3, 1, 12_000), 2),
                                  np.round(rng.normal(size=10_500), 2))
        reference = mt.auc_ranksum(pop)
        monkeypatch.setattr(mt, "auc_ranksum", None)
        assert mt.auc(pop) == reference


class TestAverages:
    def test_avg_auc(self):
        assert mt.avg_auc([1.0, 0.5]) == 0.75
        assert mt.avg_auc([0.6]) == 0.6
        assert mt.avg_auc([0.2, 0.9, 0.4]) == mt.avg_auc([0.9, 0.4, 0.2])

    def test_cil_accuracy(self):
        assert mt.cil_accuracy([1, 2, 3], [1, 2, 3]) == 100.0
        assert mt.cil_accuracy([0, 0], [1, 2]) == 0.0
        assert mt.cil_accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 75.0
        with pytest.raises(ValueError):
            mt.cil_accuracy([1], [1, 2])

    def test_til_accuracy(self):
        per_task, mean = mt.til_accuracy([[0, 1], [1, 1]], [[0, 1], [1, 0]])
        assert per_task == [100.0, 50.0]
        assert mean == 75.0


class TestForgetting:
    def make_matrix(self, a_init, a_final):
        # m[k][a]: task k after task a, None for a < k; diagonal =
        # at-finish accuracies; last column = after the final task
        last = len(a_init) - 1
        m = [[None] * k + [v] * (last - k + 1) for k, v in enumerate(a_init)]
        for k, v in enumerate(a_final[:-1]):
            m[k][last] = v
        return m

    def test_worked_example(self):
        m = self.make_matrix([90.0, 80.0, 70.0], [85.0, 78.0, 70.0])
        assert mt.forgetting_rate(m, 3) == pytest.approx(3.5)

    def test_no_change_is_zero(self):
        m = self.make_matrix([90.0, 80.0], [90.0, 80.0])
        assert mt.forgetting_rate(m, 2) == 0.0

    def test_backward_transfer_negative(self):
        m = self.make_matrix([90.0, 80.0], [95.0, 80.0])
        assert mt.forgetting_rate(m, 2) == -5.0

    def test_needs_two_tasks(self):
        with pytest.raises(ValueError):
            mt.forgetting_rate([[90.0]], 1)
