"""Evaluation metrics: ROC AUC, CIL/TIL accuracy, forgetting rate."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ScoredPopulation",
    "AccuracyMatrix",
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


@dataclass
class AccuracyMatrix:
    """A[k][t]: accuracy (percent) of task k's test data after learning task t.

    Entries exist only for t >= k; the diagonal A[k][k] is each task's
    at-finish accuracy.
    """

    cells: dict = field(default_factory=dict)

    def record(self, task: int, after: int, accuracy: float) -> None:
        if after < task:
            raise ValueError(f"A[{task}][{after}] undefined before task is learned")
        if not 0.0 <= accuracy <= 100.0:
            raise ValueError(f"accuracy {accuracy} outside [0, 100]")
        self.cells[(task, after)] = float(accuracy)

    def at(self, task: int, after: int) -> float:
        return self.cells[(task, after)]

    def initial(self, task: int) -> float:
        return self.cells[(task, task)]

    def to_lists(self) -> list[list[float | None]]:
        t_max = max((a for _, a in self.cells), default=-1)
        return [[self.cells.get((k, t)) for t in range(t_max + 1)]
                for k in range(t_max + 1)]

    @classmethod
    def from_lists(cls, rows) -> "AccuracyMatrix":
        m = cls()
        for k, row in enumerate(rows):
            for t, v in enumerate(row):
                if v is not None:
                    m.cells[(k, t)] = float(v)
        return m


def forgetting_rate(matrix: AccuracyMatrix, t: int) -> float:
    """Mean drop from at-finish accuracy over tasks learned before task t.

    One-indexed task count as reported (t tasks learned means index t-1 here):
    callers pass t as the number of tasks seen so far; negative values mean
    backward transfer.
    """
    if t < 2:
        raise ValueError("forgetting needs at least one earlier task (t >= 2)")
    drops = [matrix.initial(k) - matrix.at(k, t - 1) for k in range(t - 1)]
    return float(np.mean(drops))
