"""Cross-entropy decomposition of class-incremental prediction.

A class-incremental (CIL) distribution over all classes factors into a
within-task part (WP: class given task) and a task-id part (TP: distribution
over tasks); the instance cross-entropies then satisfy the exact identity
h_cil = h_wp + h_tp, plus a family of two-sided bounds linking the task-id
entropy to per-task out-of-distribution (OOD) Bernoulli detectors, with and
without per-task temperatures. Every theorem is one executable predicate
over a batch of instances, one per row ((n, K) profiles, distributions and
budgets; (n,) truths), so eval decomposes with the code in which the
randomized suites of ``clwb.verify`` hunt for counterexamples. A 1-D input
raises a ValueError naming the (n, ...) shape expected, and a predicate
whose hypotheses fail on some row raises ``HypothesisError`` naming the
first such row.

All logs are clamped at 1e-12 (max entropy ~27.63); verdicts compare both
sides in this clamped space so clamping cannot create false passes. A small
slack absorbs float rounding in the comparisons themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkit import LOG_CLAMP, logsumexp

H_MAX = -float(np.log(LOG_CLAMP))
VERDICT_SLACK = 1e-9  # absolute fp guard on inequality verdicts

__all__ = [
    "H_MAX",
    "HypothesisError",
    "DegenerateInputError",
    "DegenerateBoundError",
    "TaskTopology",
    "EntropyReport",
    "cross_entropy",
    "compose_cil",
    "entropy_report",
    "ood_entropies",
    "check_theorem1",
    "check_corollary1",
    "ood_from_tp",
    "tp_from_ood",
    "theorem2_bound",
    "check_theorem3",
    "theorem4_construct",
    "theorem5_ood_from_tp",
    "theorem5_tp_from_ood",
    "theorem5_bound",
]


class HypothesisError(Exception):
    """A predicate's stated hypotheses do not hold for the given inputs.

    Distinct from a false verdict so fuzzers can tell "bad test case" apart
    from "bound falsified".
    """


class DegenerateInputError(ValueError):
    """Input admits no normalization (e.g. an all-zero detector profile)."""


class DegenerateBoundError(ArithmeticError):
    """Bound expression hits a zero denominator for these inputs."""


def _leq(a, b):
    """a <= b up to the verdict slack; elementwise on arrays."""
    return a <= b + VERDICT_SLACK + 1e-12 * abs(b)


def _require(held, hypothesis: str) -> None:
    """HypothesisError naming the first row where ``held`` is false."""
    bad = np.flatnonzero(~np.asarray(held))
    if bad.size:
        raise HypothesisError(f"{hypothesis} fails on row {bad[0]}")


def _rows(x, name: str) -> np.ndarray:
    """x as a nonempty float64 (n, m) row batch."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"{name} must be a nonempty (n, m) row batch, got "
                         f"shape {x.shape}")
    return x


def _task_index(k0, q: np.ndarray, name: str = "k0") -> np.ndarray:
    """k0 as an (n,) integer index array, one entry per row of the (n, m)
    batch q, each inside q's last axis."""
    k = np.asarray(k0)
    if k.shape != q.shape[:1] or k.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer of shape {q.shape[:1]}")
    if ((k < 0) | (k >= q.shape[-1])).any():
        raise ValueError(f"{name}={k0} out of range for {q.shape[-1]} entries")
    return k


def _at(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x[..., k] taken row by row: entry k[i] of row i."""
    return np.take_along_axis(x, k[..., None], axis=-1)[..., 0]


def _distribution_rows(p, name: str, topo: TaskTopology | None = None
                       ) -> np.ndarray:
    """p, an (n, m) row batch, as float64 rows that are each a distribution
    (with topo, each task slice of a row); errors name the first bad row."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] == 0:
        raise ValueError(f"{name} must be an (n, m) row batch with m >= 1, "
                         f"got shape {p.shape}")
    if (p < 0).any() or not np.isfinite(p).all():
        raise ValueError(f"{name} has negative or non-finite entries")
    total = _slice_masses(p, topo or TaskTopology((p.shape[1],)))
    bad = np.abs(total - 1.0) > 1e-9
    if bad.any():  # the first bad row of the first slice that has one
        k = np.flatnonzero(bad.any(axis=0))[0]
        row = np.flatnonzero(bad[:, k])[0]
        raise ValueError(f"{name} row {row} sums to "
                         f"{float(total[row, k])!r}, not 1")
    return p


def _check_profile(profile) -> np.ndarray:
    """(n, K) detector profiles, one per row."""
    q = _rows(profile, "profile")
    if (q < 0).any() or (q > 1).any() or not np.isfinite(q).all():
        raise ValueError("profile entries must lie in [0, 1]")
    return q


@dataclass(frozen=True)
class TaskTopology:
    """Task count, per-task class counts, and the (task, class) <-> flat map.

    Disjointness is structural: each flat class id belongs to exactly one
    (k, j) pair.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) < 1 or any(s < 1 for s in self.sizes):
            raise ValueError(f"invalid task sizes {self.sizes}")

    @classmethod
    def uniform(cls, tasks: int, classes_per_task: int) -> "TaskTopology":
        return cls(tuple([classes_per_task] * tasks))

    @property
    def n_tasks(self) -> int:
        return len(self.sizes)

    @property
    def n_classes(self) -> int:
        return sum(self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for s in self.sizes:
            out.append(acc)
            acc += s
        return tuple(out)

    def flat(self, k: int, j: int) -> int:
        if not (0 <= k < self.n_tasks and 0 <= j < self.sizes[k]):
            raise ValueError(f"(k={k}, j={j}) outside topology {self.sizes}")
        return self.offsets[k] + j

    def task_slice(self, k: int) -> slice:
        return slice(self.offsets[k], self.offsets[k] + self.sizes[k])


def _truth(topo: TaskTopology, k0, j0, shape: tuple[int, ...]):
    """k0 and the flat class ids of (k0, j0), index arrays of the given row
    shape; each truth must lie inside the topology."""
    k0 = np.asarray(k0, dtype=np.intp)
    j0 = np.asarray(j0, dtype=np.intp)
    if k0.shape != shape or j0.shape != shape:
        raise ValueError(f"truth shapes {k0.shape}, {j0.shape} for rows of "
                         f"shape {shape}")
    sizes = np.asarray(topo.sizes)
    if ((k0 < 0) | (k0 >= topo.n_tasks)).any() \
            or ((j0 < 0) | (j0 >= sizes[k0])).any():
        raise ValueError(f"truth outside topology {topo.sizes}")
    return k0, np.asarray(topo.offsets)[k0] + j0


def _slice_masses(p: np.ndarray, topo: TaskTopology) -> np.ndarray:
    """(..., K) probability mass of each task slice of p's rows, with the
    bits of ``p[..., topo.task_slice(k)].sum(axis=-1)``: numpy adds fewer
    than 8 entries to +0.0 from left to right, as the column adds over
    equal slices do without a reduction per slice, and 8 or more pairwise."""
    width = topo.sizes[0]
    if width >= 8 or len(set(topo.sizes)) > 1:
        return np.stack([p[..., topo.task_slice(k)].sum(axis=-1)
                         for k in range(topo.n_tasks)], axis=-1)
    q = p.reshape(p.shape[:-1] + (topo.n_tasks, width))
    total = q[..., 0] + 0.0  # -0.0 becomes +0.0, as in numpy's sum
    for j in range(1, width):
        total += q[..., j]
    return total


def _report_rows(report) -> list[np.ndarray]:
    """h_wp, h_tp and h_cil of a report as float arrays of one (n,) shape."""
    h = [np.asarray(getattr(report, f), dtype=np.float64)
         for f in ("h_wp", "h_tp", "h_cil")]
    if h[0].ndim != 1 or h[0].size == 0 \
            or not h[0].shape == h[1].shape == h[2].shape:
        raise ValueError(f"report h_wp, h_tp, h_cil have shapes "
                         f"{[x.shape for x in h]}; expected one value per "
                         f"row of a nonempty batch (n, ...)")
    return h


def _budget(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """An entropy budget: one for all rows, or one per row."""
    b = np.asarray(value, dtype=np.float64)
    if b.shape not in ((), shape):
        raise ValueError(f"{name} of shape {b.shape} for rows of shape {shape}")
    return b


def cross_entropy(target_index, pred) -> np.ndarray:
    """-log pred[i, target_index[i]] with the clamp per row; the
    one-hot-target H(p, q) of each (n, C) prediction row."""
    p = _rows(pred, "pred")
    return -np.log(np.maximum(_at(p, _task_index(target_index, p, "target")),
                              LOG_CLAMP))


def compose_cil(wp, tp, topo: TaskTopology) -> np.ndarray:
    """CIL rows out[i, (k, j)] = wp[i, (k, j)] * tp[i, k].

    Each task slice of a wp row (n, C) is that task's WP distribution and
    each tp row (n, K) a task distribution, so each output row sums to 1.
    """
    w = np.asarray(wp, dtype=np.float64)
    t = np.asarray(tp, dtype=np.float64)
    if t.ndim != 2 or t.shape[1] != topo.n_tasks \
            or w.shape != (t.shape[0], topo.n_classes):
        raise ValueError(f"wp shape {w.shape} and tp shape {t.shape} do not "
                         f"fit topology {topo.sizes}: expected "
                         f"(n, {topo.n_classes}) and (n, {topo.n_tasks})")
    _distribution_rows(t, "tp")
    _distribution_rows(w, "wp", topo)
    return w * t[:, np.repeat(np.arange(topo.n_tasks), topo.sizes)]


def ood_entropies(profile, k0) -> np.ndarray:
    """Per-task detector cross-entropies for an instance of task k0.

    Task k0's detector is scored on "in" (-log P'_k0); every other detector
    on "out" (-log(1 - P'_k)). profile (n, K) holds one instance per row and
    k0 its (n,) true tasks.
    """
    q = _check_profile(profile)
    k = _task_index(k0, q)
    hit = np.arange(q.shape[1]) == k[:, None]
    return -np.log(np.maximum(np.where(hit, q, 1.0 - q), LOG_CLAMP))


@dataclass(frozen=True)
class EntropyReport:
    """Per-instance CIL predictions and decomposed cross-entropies."""

    predictions: np.ndarray
    h_wp: np.ndarray
    h_tp: np.ndarray
    h_cil: np.ndarray


def entropy_report(probs, log_probs, topo: TaskTopology, k0, j0, *,
                   tp=None) -> EntropyReport:
    """Decompose n instances at once, one row of ``probs`` (n, C) each.

    Without tp each row is a flat CIL distribution, decomposed by the
    theorem-4 construction: TP is the slice masses renormalized, WP the
    truth slice renormalized (uniform for a zero-mass slice). With tp (n, K)
    each task slice of a row is that task's WP distribution and CIL is
    their composition, ``compose_cil``. log_probs are the logs of probs
    (log-softmax output). predictions is each CIL row's argmax, lowest index
    on ties; k0 and j0 are the (n,) truth arrays.

    A row whose truth probabilities of WP, TP and CIL all reach LOG_CLAMP
    has the bits of the clamped cross-entropies of those parts. A row where
    one falls under the clamp is computed in log space instead: WP from
    log_probs, TP from the slice log-sum-exps or log tp, and
    h_cil = h_wp + h_tp, so the identity holds there too. A part whose
    probability is exactly zero keeps H_MAX.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != topo.n_classes:
        raise ValueError(f"probs shape {p.shape} does not hold "
                         f"{topo.n_classes} classes per row")
    n = p.shape[0]
    k0, flat = _truth(topo, k0, j0, (n,))
    sizes = np.asarray(topo.sizes)
    rows = np.arange(n)

    if tp is None:
        _distribution_rows(p, "cil")
        mass = _slice_masses(p, topo)
        m0 = mass[rows, k0]
        p_cil = p[rows, flat]
        p_wp = np.divide(p_cil, m0, out=1.0 / sizes[k0], where=m0 > 0)
        p_tp = m0 / mass.sum(axis=1)
        predictions = p.argmax(axis=1)
    else:
        t = np.asarray(tp, dtype=np.float64)
        cil = compose_cil(p, t, topo)
        p_wp = p[rows, flat]
        p_tp = t[rows, k0]
        p_cil = cil[rows, flat]
        predictions = cil.argmax(axis=1)
    lp = np.asarray(log_probs, dtype=np.float64)
    # a row max is finite unless the row holds a NaN or +inf or is all -inf
    if lp.shape != p.shape or not np.isfinite(lp.max(axis=1)).all():
        raise ValueError("log_probs must match probs, with no NaN, no +inf "
                         "and no all -inf row")
    h_wp, h_tp, h_cil = (-np.log(np.maximum(x, LOG_CLAMP))
                         for x in (p_wp, p_tp, p_cil))

    low = np.flatnonzero((p_wp < LOG_CLAMP) | (p_tp < LOG_CLAMP)
                         | (p_cil < LOG_CLAMP))
    if low.size:
        lp, k, r = lp[low], k0[low], np.arange(low.size)
        log_wp = lp[r, flat[low]]
        if tp is None:
            lse = np.stack([logsumexp(lp[:, topo.task_slice(j)])
                            for j in range(topo.n_tasks)], axis=1)
            l0 = lse[r, k]
            log_tp = l0 - logsumexp(lse)
            # a zero-mass truth slice gives a uniform WP, as in theorem 4
            log_wp = np.subtract(log_wp, l0, out=-np.log(sizes[k]),
                                 where=l0 > -np.inf)
        else:
            with np.errstate(divide="ignore"):
                log_tp = np.log(t[low, k])
        h_wp[low] = np.where(log_wp == -np.inf, H_MAX, -log_wp)
        h_tp[low] = np.where(log_tp == -np.inf, H_MAX, -log_tp)
        h_cil[low] = h_wp[low] + h_tp[low]
    return EntropyReport(predictions, h_wp, h_tp, h_cil)


def check_theorem1(report, eps, delta):
    """h_wp <= eps and h_tp <= delta imply h_cil <= eps + delta.

    report holds (n,) rows of h_wp, h_tp and h_cil; eps and delta are one
    budget for all rows or one per row. Returns the verdicts.
    """
    h_wp, h_tp, h_cil = _report_rows(report)
    eps = _budget(eps, h_wp.shape, "eps")
    delta = _budget(delta, h_wp.shape, "delta")
    _require(_leq(h_wp, eps) & _leq(h_tp, delta), "h_wp <= eps, h_tp <= delta")
    return _leq(h_cil, eps + delta)


def check_corollary1(report, starts=(0,), *, eps=None, delta=None
                     ) -> np.ndarray:
    """Expectation form of theorem 1 over groups of consecutive rows.

    report holds (n,) rows of h_wp, h_tp and h_cil, and group g is the rows
    from starts[g] up to the next start. With delta: mean h_tp <= delta
    must hold, verdict is mean h_cil <= mean h_wp + delta. With eps: the
    symmetric statement. Provide at least one of the two, one for all
    groups or one per group. Returns one verdict per group.
    """
    h = np.stack(_report_rows(report))
    s = np.asarray(starts, dtype=np.intp)
    if s.ndim != 1 or s.size == 0 or s[0] != 0 or (np.diff(s) <= 0).any() \
            or s[-1] >= h.shape[1]:
        raise ValueError(f"starts {s} do not split {h.shape[1]} rows")
    if eps is None and delta is None:
        raise ValueError("provide eps, delta, or both")
    m_wp, m_tp, m_cil = np.add.reduceat(h, s, axis=1) \
        / np.diff(s, append=h.shape[1])
    ok = np.ones(s.size, dtype=bool)
    if delta is not None:
        delta = _budget(delta, s.shape, "delta")
        _require(_leq(m_tp, delta), "mean h_tp <= delta")
        ok &= _leq(m_cil, m_wp + delta)
    if eps is not None:
        eps = _budget(eps, s.shape, "eps")
        _require(_leq(m_wp, eps), "mean h_wp <= eps")
        ok &= _leq(m_cil, eps + m_tp)
    return ok


def ood_from_tp(tp) -> np.ndarray:
    """Detector profiles P'_ik := tp[i, k] of (n, K) task distributions;
    then every h_ood entry <= h_tp."""
    return _distribution_rows(_rows(tp, "tp"), "tp").copy()


def tp_from_ood(profile) -> np.ndarray:
    """Task distributions tp[i, k] = P'_ik / sum_j P'_ij of (n, K) profiles."""
    q = _check_profile(profile)
    total = q.sum(axis=1, keepdims=True)
    if (total <= 0.0).any():
        raise DegenerateInputError("all-zero detector profile")
    return q / total


def _check_deltas(deltas) -> np.ndarray:
    d = _rows(deltas, "deltas")
    if (d < 0).any():
        raise ValueError("deltas must be nonnegative")
    return d


def theorem2_bound(deltas, k0):
    """exp(deltas[k0]) * sum_k (1 - exp(-deltas[k])).

    Upper bound on h_tp of tp_from_ood for any profile whose per-task OOD
    entropies are within deltas. deltas (n, K) hold one instance per row and
    k0 its (n,) true tasks; returns one bound per row.
    """
    d = _check_deltas(deltas)
    k = _task_index(k0, d)
    return np.exp(_at(d, k)) * (1.0 - np.exp(-d)).sum(axis=1)


def check_theorem3(report, h_ood, eps, deltas, k0):
    """h_wp <= eps and h_ood <= deltas imply
    h_cil <= eps + theorem2_bound(deltas, k0).

    h_ood (n, K) holds the per-task detector entropies of the report's n
    rows, deltas their budgets of the same shape and k0 the (n,) true tasks;
    eps is one budget for all rows or one per row. Returns the verdicts.
    """
    h_wp, _, h_cil = _report_rows(report)
    h = np.asarray(h_ood, dtype=np.float64)
    d = np.asarray(deltas, dtype=np.float64)
    if h.ndim != 2 or h.shape[:1] != h_wp.shape or d.shape != h.shape:
        raise ValueError(f"h_ood shape {h.shape} and deltas shape {d.shape} "
                         f"for rows of shape {h_wp.shape}; expected (n, K)")
    eps = _budget(eps, h_wp.shape, "eps")
    _require(_leq(h_wp, eps) & _leq(h, d).all(axis=-1),
             "h_wp <= eps, h_ood <= deltas")
    return _leq(h_cil, eps + theorem2_bound(d, k0))


def theorem4_construct(cil, topo: TaskTopology, k0, j0):
    """From CIL rows with h_cil = eta, build WP/TP/OOD witnesses within eta.

    The WP witness of task k is the row's slice k as it stands (it need not
    sum to 1; that is how the construction is defined), so its entropy
    h_wp is h_cil itself. TP is the slice masses, and the detectors copy TP
    (capped at 1 against rounding). cil (n, C) holds one distribution per
    row and k0, j0 the (n,) truth of each row. Returns (tp, h_wp, h_tp,
    h_ood, ok), ok whether h_tp and every h_ood entry are within h_wp.
    """
    c = np.asarray(cil, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != topo.n_classes:
        raise ValueError(f"cil of shape {c.shape} is not (n, {topo.n_classes})")
    _distribution_rows(c, "cil")
    k0, flat = _truth(topo, k0, j0, c.shape[:1])
    eta = cross_entropy(flat, c)
    tp = _slice_masses(c, topo)
    h_tp = cross_entropy(k0, tp)
    h_ood = ood_entropies(np.minimum(tp, 1.0), k0)
    ok = _leq(h_tp, eta) & _leq(h_ood, eta[:, None]).all(axis=1)
    return tp, eta, h_tp, h_ood, ok


# ---------------------------------------------------------------------------
# Temperature-scaled detector coupling
# ---------------------------------------------------------------------------

def _check_taus(taus, shape: tuple[int, ...]) -> np.ndarray:
    t = np.asarray(taus, dtype=np.float64)
    if t.shape != shape:
        raise ValueError(f"temperatures must be (n, K) = {shape} rows, one "
                         f"per entry, got shape {t.shape}")
    if (t <= 0).any() or not np.isfinite(t).all():
        raise ValueError("temperatures must be positive and finite")
    return t


def theorem5_ood_from_tp(tp, taus, k0) -> tuple[np.ndarray, np.ndarray]:
    """Detectors P'_k = tp[k]^(1/tau_k) and their per-task entropy bounds.

    With delta = h_tp, bound_k = max(delta / tau_k,
    -log(1 - (1 - exp(-delta))^(1/tau_k))); each h_ood entry of the returned
    profile is within its bound. All tau = 1 reduces to ood_from_tp with
    bound delta. tp (n, K) holds one task distribution per row, taus one
    temperature per entry and k0 the (n,) true tasks.
    """
    tp = _distribution_rows(_rows(tp, "tp"), "tp")
    t = _check_taus(taus, tp.shape)
    delta = cross_entropy(k0, tp)[:, None]
    profile = tp ** (1.0 / t)
    grow = -np.log(np.maximum(1.0 - (1.0 - np.exp(-delta)) ** (1.0 / t),
                              LOG_CLAMP))
    return profile, np.maximum(delta / t, grow)


def theorem5_tp_from_ood(profile, taus) -> np.ndarray:
    """Task distributions tp[i, k] proportional to P'_ik^(1/tau_ik); profile
    and taus (n, K) hold one instance per row."""
    q = _check_profile(profile)
    powered = q ** (1.0 / _check_taus(taus, q.shape))
    total = powered.sum(axis=1, keepdims=True)
    if (total <= 0.0).any():
        raise DegenerateInputError("all-zero detector profile")
    return powered / total


def theorem5_bound(deltas, taus, k0):
    """Bound on h_tp of theorem5_tp_from_ood under per-task entropy budgets.

    delta_k0/tau_k0 + sum_k (1-exp(-delta_k))^(1/tau_k)
                      / (1 - (1-exp(-delta_k0))^(1/tau_k0)).
    deltas and taus (n, K) hold one instance per row and k0 its (n,) true
    tasks; returns one bound per row. A zero denominator (the k0 term
    hitting 1) on any row raises DegenerateBoundError for the whole batch.
    """
    d = _check_deltas(deltas)
    t = _check_taus(taus, d.shape)
    k = _task_index(k0, d)
    terms = (1.0 - np.exp(-d)) ** (1.0 / t)
    denom = 1.0 - _at(terms, k)
    if (denom <= 0.0).any():
        raise DegenerateBoundError("k0 term reaches 1; bound is unbounded here")
    return _at(d, k) / _at(t, k) + terms.sum(axis=1) / denom
