"""Evaluation metrics: ROC AUC, CIL/TIL accuracy, forgetting rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScoredPopulation",
    "auc",
    "auc_pairwise",
    "auc_ranksum",
    "avg_auc",
    "cil_accuracy",
    "til_accuracy",
    "forgetting_rate",
]

@dataclass(frozen=True)
class ScoredPopulation:
    """Scores of a task's own test data (ind) vs other tasks' data (ood)."""

    ind: np.ndarray
    ood: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ind", np.asarray(self.ind, dtype=np.float64))
        object.__setattr__(self, "ood", np.asarray(self.ood, dtype=np.float64))
        if self.ind.size == 0 or self.ood.size == 0:
            raise ValueError("both populations must be nonempty")


def auc_pairwise(pop: ScoredPopulation) -> float:
    """Exact pair counting: P(ind > ood) + 0.5 P(ind = ood)."""
    ood = np.sort(pop.ood)
    above = np.searchsorted(ood, pop.ind, side="left").sum()
    ties = (np.searchsorted(ood, pop.ind, side="right")
            - np.searchsorted(ood, pop.ind, side="left")).sum()
    return float((above + 0.5 * ties) / (pop.ind.size * pop.ood.size))


def auc_ranksum(pop: ScoredPopulation) -> float:
    """Mann-Whitney rank-sum with midranks for ties."""
    n, m = pop.ind.size, pop.ood.size
    merged = np.concatenate([pop.ind, pop.ood])
    order = np.argsort(merged, kind="mergesort")
    ranks = np.empty(n + m)
    sorted_vals = merged[order]
    # midranks: average rank within each tie group
    i = 0
    while i < n + m:
        j = i
        while j + 1 < n + m and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    r_ind = ranks[:n].sum()
    u = r_ind - n * (n + 1) / 2.0
    return float(u / (n * m))


def auc(pop: ScoredPopulation) -> float:
    """AUC of ind-vs-ood separation; ties count one half."""
    return auc_pairwise(pop)


def avg_auc(per_task: list[float]) -> float:
    if not per_task:
        raise ValueError("no per-task AUC values")
    return float(np.mean(per_task))


def cil_accuracy(predictions, labels) -> float:
    """Percentage of predictions matching the global class labels."""
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ValueError(f"{p.shape} predictions vs {y.shape} labels")
    return float(100.0 * (p == y).mean())


def til_accuracy(per_task_predictions: list, per_task_labels: list
                 ) -> tuple[list[float], float]:
    """Within-task accuracies (task id given) and their macro average."""
    if len(per_task_predictions) != len(per_task_labels):
        raise ValueError("per-task prediction/label list length mismatch")
    accs = [cil_accuracy(p, y)
            for p, y in zip(per_task_predictions, per_task_labels)]
    return accs, float(np.mean(accs))


def forgetting_rate(matrix: list[list[float | None]], t: int) -> float:
    """Mean drop from at-finish accuracy over tasks learned before task t.

    matrix[k][a] is task k's accuracy (percent) after learning task a, None
    for a < k, so matrix[k][k] is task k's at-finish accuracy. One-indexed
    task count as reported (t tasks learned means index t-1 here): callers
    pass t as the number of tasks seen so far; negative values mean backward
    transfer.
    """
    if t < 2:
        raise ValueError("forgetting needs at least one earlier task (t >= 2)")
    drops = [matrix[k][k] - matrix[k][t - 1] for k in range(t - 1)]
    return float(np.mean(drops))
