"""Cross-entropy decomposition of class-incremental prediction.

A class-incremental (CIL) distribution over all classes factors into a
within-task part (WP: class given task) and a task-id part (TP: distribution
over tasks); the instance cross-entropies then satisfy the exact identity
h_cil = h_wp + h_tp, plus a family of two-sided bounds linking the task-id
entropy to per-task out-of-distribution (OOD) Bernoulli detectors, with and
without per-task temperatures. Every bound is implemented as an executable
predicate so the randomized suites in ``clwb.verify`` can hunt for
counterexamples.

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
    "GroundTruth",
    "EntropyReport",
    "Theorem4Construction",
    "RowDecomposition",
    "neg_log",
    "check_distribution",
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
    "decompose_rows",
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


def neg_log(p: float) -> float:
    """Entropy contribution -log p, clamped at LOG_CLAMP."""
    return -float(np.log(max(float(p), LOG_CLAMP)))


def _leq(a, b):
    """a <= b up to the verdict slack; elementwise on arrays."""
    return a <= b + VERDICT_SLACK + 1e-12 * abs(b)


def _task_index(k0, q: np.ndarray, name: str = "k0") -> np.ndarray:
    """k0 as an integer index array with one entry per row of q (0-d for a
    1-D q), each inside q's last axis."""
    k = np.asarray(k0)
    if q.ndim == 0 or k.shape != q.shape[:-1] or k.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer of shape {q.shape[:-1]}")
    if ((k < 0) | (k >= q.shape[-1])).any():
        raise ValueError(f"{name}={k0} out of range for {q.shape[-1]} entries")
    return k


def _at(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x[..., k] taken row by row: entry k[i] of row i."""
    return np.take_along_axis(x, k[..., None], axis=-1)[..., 0]


def check_distribution(p, *, name: str = "distribution") -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a nonempty vector")
    if (p < 0).any() or not np.isfinite(p).all():
        raise ValueError(f"{name} has negative or non-finite entries")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} sums to {p.sum()!r}, not 1")
    return p


def _check_profile(profile) -> np.ndarray:
    """A detector profile, or a batch of them one per row."""
    q = np.asarray(profile, dtype=np.float64)
    if q.ndim not in (1, 2) or q.size == 0:
        raise ValueError("profile must be a nonempty vector or row batch")
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

    def split(self, g: int) -> tuple[int, int]:
        if not 0 <= g < self.n_classes:
            raise ValueError(f"class {g} outside topology {self.sizes}")
        k = int(np.searchsorted(np.asarray(self.offsets), g, side="right")) - 1
        return k, g - self.offsets[k]

    def task_slice(self, k: int) -> slice:
        return slice(self.offsets[k], self.offsets[k] + self.sizes[k])


@dataclass(frozen=True)
class GroundTruth:
    """True task id and within-task class id of one instance."""

    k0: int
    j0: int

    def check(self, topo: TaskTopology) -> None:
        if not (0 <= self.k0 < topo.n_tasks and 0 <= self.j0 < topo.sizes[self.k0]):
            raise ValueError(f"truth {self} outside topology {topo.sizes}")


@dataclass(frozen=True)
class EntropyReport:
    """Instance cross-entropies of the three predictions plus per-task OOD."""

    h_wp: float
    h_tp: float
    h_cil: float
    h_ood: np.ndarray


def cross_entropy(target_index, pred):
    """-log pred[target_index] with the clamp; the one-hot-target H(p, q).

    A 2-D pred holds one prediction per row and target_index one target per
    row; each entry of the (n,) result has the bits of the 1-D call.
    """
    p = np.asarray(pred, dtype=np.float64)
    t = _task_index(target_index, p, "target")
    if p.ndim == 1:
        return neg_log(p[t])
    return -np.log(np.maximum(_at(p, t), LOG_CLAMP))


def compose_cil(wp: list, tp, topo: TaskTopology, *,
                validate: bool = True) -> np.ndarray:
    """Flat distribution out[(k, j)] = wp[k][j] * tp[k]; sums to 1.

    validate=False skips the normalization checks for callers that generate
    inputs by construction (the fuzz suites run millions of compositions).
    """
    if validate:
        tp = check_distribution(tp, name="tp")
    if len(tp) != topo.n_tasks:
        raise ValueError(f"tp has {len(tp)} entries for {topo.n_tasks} tasks")
    if len(wp) != topo.n_tasks:
        raise ValueError(f"wp has {len(wp)} tasks, topology has {topo.n_tasks}")
    out = np.empty(topo.n_classes)
    for k, w in enumerate(wp):
        if validate:
            w = check_distribution(w, name=f"wp[{k}]")
        if len(w) != topo.sizes[k]:
            raise ValueError(f"wp[{k}] width {len(w)} != {topo.sizes[k]}")
        out[topo.task_slice(k)] = np.asarray(w) * tp[k]
    return out


def ood_entropies(profile, k0, *, validate: bool = True) -> np.ndarray:
    """Per-task detector cross-entropies for an instance of task k0.

    Task k0's detector is scored on "in" (-log P'_k0); every other detector
    on "out" (-log(1 - P'_k)). A 2-D profile holds one instance per row and
    k0 its (n,) true tasks; each row has the bits of the 1-D call.
    """
    q = _check_profile(profile) if validate \
        else np.asarray(profile, dtype=np.float64)
    k = _task_index(k0, q)
    hit = np.arange(q.shape[-1]) == k[..., None]
    return -np.log(np.maximum(np.where(hit, q, 1.0 - q), LOG_CLAMP))


def entropy_report(truth: GroundTruth, topo: TaskTopology, *, wp=None, tp=None,
                   cil=None, validate: bool = True) -> EntropyReport:
    """Build the instance report from decomposed (wp, tp) parts.

    With parts given, cil defaults to their composition and the exact identity
    h_cil = h_wp + h_tp holds (up to the clamp). A caller may pass an
    explicit cil alongside the parts to report a non-composed prediction.
    """
    truth.check(topo)
    if wp is None or tp is None:
        raise ValueError("entropy_report requires wp and tp parts")
    if cil is None:
        cil = compose_cil(wp, tp, topo, validate=validate)
    elif validate:
        tp = check_distribution(tp, name="tp")
        cil = check_distribution(cil, name="cil")
    h_wp = cross_entropy(truth.j0, wp[truth.k0])
    h_tp = cross_entropy(truth.k0, tp)
    h_cil = cross_entropy(topo.flat(truth.k0, truth.j0), cil)
    h_ood = ood_entropies(np.asarray(tp, dtype=np.float64), truth.k0,
                          validate=False)
    return EntropyReport(h_wp, h_tp, h_cil, h_ood)


def check_theorem1(report: EntropyReport, eps: float, delta: float) -> bool:
    """h_wp <= eps and h_tp <= delta imply h_cil <= eps + delta."""
    if not (_leq(report.h_wp, eps) and _leq(report.h_tp, delta)):
        raise HypothesisError(
            f"h_wp={report.h_wp} !<= eps={eps} or h_tp={report.h_tp} !<= delta={delta}")
    return _leq(report.h_cil, eps + delta)


def check_corollary1(reports: list[EntropyReport], *, eps: float | None = None,
                     delta: float | None = None) -> bool:
    """Expectation form over a sample of reports.

    With delta: mean h_tp <= delta must hold, verdict is
    mean h_cil <= mean h_wp + delta. With eps: the symmetric statement.
    Provide at least one of the two.
    """
    if not reports:
        raise ValueError("empty report list")
    if eps is None and delta is None:
        raise ValueError("provide eps, delta, or both")
    m_wp = float(np.mean([r.h_wp for r in reports]))
    m_tp = float(np.mean([r.h_tp for r in reports]))
    m_cil = float(np.mean([r.h_cil for r in reports]))
    ok = True
    if delta is not None:
        if not _leq(m_tp, delta):
            raise HypothesisError(f"mean h_tp={m_tp} !<= delta={delta}")
        ok = ok and _leq(m_cil, m_wp + delta)
    if eps is not None:
        if not _leq(m_wp, eps):
            raise HypothesisError(f"mean h_wp={m_wp} !<= eps={eps}")
        ok = ok and _leq(m_cil, eps + m_tp)
    return ok


def ood_from_tp(tp) -> np.ndarray:
    """Detector profile P'_k := tp[k]; then every h_ood entry <= h_tp."""
    return check_distribution(tp, name="tp").copy()


def tp_from_ood(profile) -> np.ndarray:
    """Task distribution tp[k] = P'_k / sum_j P'_j.

    A 2-D profile holds one instance per row and gives one distribution per
    row, each with the bits of the 1-D call on that row.
    """
    q = _check_profile(profile)
    total = q.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise DegenerateInputError("all-zero detector profile")
    return q / total


def _check_deltas(deltas) -> np.ndarray:
    d = np.asarray(deltas, dtype=np.float64)
    if d.ndim not in (1, 2) or d.size == 0:
        raise ValueError("deltas must be a nonempty vector or row batch")
    if (d < 0).any():
        raise ValueError("deltas must be nonnegative")
    return d


def theorem2_bound(deltas, k0):
    """exp(deltas[k0]) * sum_k (1 - exp(-deltas[k])).

    Upper bound on h_tp of tp_from_ood for any profile whose per-task OOD
    entropies are within deltas. 2-D deltas hold one instance per row and
    k0 its (n,) true tasks; each entry of the (n,) result has the bits of
    the 1-D call.
    """
    d = _check_deltas(deltas)
    k = _task_index(k0, d)
    bound = np.exp(_at(d, k)) * (1.0 - np.exp(-d)).sum(axis=-1)
    return float(bound) if d.ndim == 1 else bound


def check_theorem3(report: EntropyReport, eps: float, deltas,
                   truth: GroundTruth) -> bool:
    """h_wp <= eps and h_ood <= deltas imply h_cil <= eps + theorem2_bound."""
    d = np.asarray(deltas, dtype=np.float64)
    if not _leq(report.h_wp, eps):
        raise HypothesisError(f"h_wp={report.h_wp} !<= eps={eps}")
    if d.size != report.h_ood.size or any(
            not _leq(h, dk) for h, dk in zip(report.h_ood, d)):
        raise HypothesisError(f"h_ood={report.h_ood} !<= deltas={d}")
    return _leq(report.h_cil, eps + theorem2_bound(d, truth.k0))


@dataclass(frozen=True)
class Theorem4Construction:
    """Constructive witnesses extracted from a flat CIL distribution.

    wp_subnormalized keeps each task slice exactly as found (it need not sum
    to 1; that is how the construction is defined, and the entropy inequality
    is stated for that object). wp_normalized is the proper per-task
    distribution for callers that need one; zero-mass tasks fall back to
    uniform.
    """

    wp_subnormalized: list[np.ndarray]
    wp_normalized: list[np.ndarray]
    tp: np.ndarray
    ood_profile: np.ndarray
    h_wp: float
    h_tp: float
    h_ood: np.ndarray
    wp_ok: bool
    tp_ok: bool
    ood_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.wp_ok and self.tp_ok and self.ood_ok


def theorem4_construct(cil, topo: TaskTopology,
                       truth: GroundTruth) -> Theorem4Construction:
    """From a CIL distribution with h_cil <= eta, build WP/TP/OOD within eta.

    wp slice := the cil slice itself, tp[k] := slice mass, detector := tp.
    Each resulting entropy is <= h_cil; the three verdict flags report this.
    """
    cil = check_distribution(cil, name="cil")
    if cil.size != topo.n_classes:
        raise ValueError(f"cil width {cil.size} != {topo.n_classes} classes")
    truth.check(topo)
    eta = cross_entropy(topo.flat(truth.k0, truth.j0), cil)
    wp_sub = [cil[topo.task_slice(k)].copy() for k in range(topo.n_tasks)]
    wp_norm = []
    for w in wp_sub:
        mass = w.sum()
        wp_norm.append(w / mass if mass > 0 else np.full(w.size, 1.0 / w.size))
    tp = np.array([w.sum() for w in wp_sub])
    profile = np.minimum(tp, 1.0)  # fp guard: task mass may exceed 1 by rounding
    h_wp = neg_log(wp_sub[truth.k0][truth.j0])
    h_tp = neg_log(tp[truth.k0])
    h_ood = ood_entropies(profile, truth.k0)
    return Theorem4Construction(
        wp_sub, wp_norm, tp, profile, h_wp, h_tp, h_ood,
        wp_ok=_leq(h_wp, eta),
        tp_ok=_leq(h_tp, eta),
        ood_ok=all(_leq(h, eta) for h in h_ood),
    )


# ---------------------------------------------------------------------------
# Batched decomposition of many instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowDecomposition:
    """Per-instance CIL predictions and decomposed cross-entropies."""

    predictions: np.ndarray
    h_wp: np.ndarray
    h_tp: np.ndarray
    h_cil: np.ndarray


def _check_rows(p: np.ndarray, name: str, sums: list[np.ndarray]) -> None:
    if (p < 0).any() or not np.isfinite(p).all():
        raise ValueError(f"{name} has negative or non-finite entries")
    for s in sums:
        bad = np.flatnonzero(np.abs(s - 1.0) > 1e-9)
        if bad.size:
            raise ValueError(f"{name} row {bad[0]} sums to {s[bad[0]]!r}, not 1")


def decompose_rows(probs, log_probs, topo: TaskTopology, k0, j0, *,
                   tp=None) -> RowDecomposition:
    """Decompose n instances at once, one row of ``probs`` (n, C) each.

    Without tp each row is a flat CIL distribution, decomposed by the
    theorem-4 construction: TP is the slice masses renormalized, WP the
    truth slice renormalized (uniform for a zero-mass slice). With tp (n, K)
    each task slice of a row is that task's WP distribution and CIL is the
    composition WP * TP. log_probs are the logs of probs (log-softmax
    output). predictions is each CIL row's argmax, lowest index on ties;
    k0 and j0 are the (n,) truth arrays.

    A row whose truth probabilities of WP, TP and CIL all reach LOG_CLAMP
    has the bits entropy_report gives on its theorem4_construct or
    compose_cil parts. A row where one falls under the clamp is computed in
    log space instead: WP from log_probs, TP from the slice log-sum-exps or
    log tp, and h_cil = h_wp + h_tp, so the identity holds there too. A part
    whose probability is exactly zero keeps H_MAX.
    """
    p = np.asarray(probs, dtype=np.float64)
    k0 = np.asarray(k0, dtype=np.intp)
    j0 = np.asarray(j0, dtype=np.intp)
    if p.ndim != 2 or p.shape[1] != topo.n_classes:
        raise ValueError(f"probs shape {p.shape} does not hold "
                         f"{topo.n_classes} classes per row")
    n = p.shape[0]
    if k0.shape != (n,) or j0.shape != (n,):
        raise ValueError(f"truth shapes {k0.shape}, {j0.shape} for {n} rows")
    sizes = np.asarray(topo.sizes)
    if ((k0 < 0) | (k0 >= topo.n_tasks)).any() \
            or ((j0 < 0) | (j0 >= sizes[k0])).any():
        raise ValueError(f"truth outside topology {topo.sizes}")
    slices = [topo.task_slice(k) for k in range(topo.n_tasks)]
    rows = np.arange(n)
    flat = np.asarray(topo.offsets)[k0] + j0

    if tp is None:
        _check_rows(p, "cil", [p.sum(axis=1)])
        mass = np.stack([p[:, s].sum(axis=1) for s in slices], axis=1)
        m0 = mass[rows, k0]
        p_cil = p[rows, flat]
        p_wp = np.divide(p_cil, m0, out=1.0 / sizes[k0], where=m0 > 0)
        p_tp = m0 / mass.sum(axis=1)
        predictions = p.argmax(axis=1)
    else:
        t = np.asarray(tp, dtype=np.float64)
        if t.shape != (n, topo.n_tasks):
            raise ValueError(f"tp shape {t.shape} for {n} rows of "
                             f"{topo.n_tasks} tasks")
        _check_rows(t, "tp", [t.sum(axis=1)])
        _check_rows(p, "wp", [p[:, s].sum(axis=1) for s in slices])
        p_wp = p[rows, flat]
        p_tp = t[rows, k0]
        p_cil = p_wp * p_tp
        task_of_col = np.repeat(np.arange(topo.n_tasks), sizes)
        predictions = (p * t[:, task_of_col]).argmax(axis=1)
    lp = np.asarray(log_probs, dtype=np.float64)
    if lp.shape != p.shape or not (lp < np.inf).all() \
            or (lp.max(axis=1) == -np.inf).any():
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
            lse = np.stack([logsumexp(lp[:, s]) for s in slices], axis=1)
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
    return RowDecomposition(predictions, h_wp, h_tp, h_cil)


# ---------------------------------------------------------------------------
# Temperature-scaled detector coupling
# ---------------------------------------------------------------------------

def _check_taus(taus, shape: tuple[int, ...]) -> np.ndarray:
    t = np.asarray(taus, dtype=np.float64)
    if t.ndim == 0:
        t = np.full(shape, float(t))
    if t.shape != shape:
        raise ValueError(f"temperatures of shape {t.shape} for tasks of "
                         f"shape {shape}")
    if (t <= 0).any() or not np.isfinite(t).all():
        raise ValueError("temperatures must be positive and finite")
    return t


def theorem5_ood_from_tp(tp, taus, truth) -> tuple[np.ndarray, np.ndarray]:
    """Detectors P'_k = tp[k]^(1/tau_k) and their per-task entropy bounds.

    With delta = h_tp, bound_k = max(delta / tau_k,
    -log(1 - (1 - exp(-delta))^(1/tau_k))); each h_ood entry of the returned
    profile is within its bound. All tau = 1 reduces to ood_from_tp with
    bound delta. A 2-D tp holds one task distribution per row, taus one
    temperature per entry and truth the (n,) true tasks in place of a
    GroundTruth; each row has the bits of the 1-D call.
    """
    tp = np.asarray(tp, dtype=np.float64)
    if tp.ndim == 2 and tp.size:
        _check_rows(tp, "tp", [tp.sum(axis=1)])
    else:
        tp = check_distribution(tp, name="tp")
    t = _check_taus(taus, tp.shape)
    k0 = truth.k0 if isinstance(truth, GroundTruth) else truth
    delta = np.asarray(cross_entropy(k0, tp))[..., None]
    profile = tp ** (1.0 / t)
    grow = -np.log(np.maximum(1.0 - (1.0 - np.exp(-delta)) ** (1.0 / t),
                              LOG_CLAMP))
    return profile, np.maximum(delta / t, grow)


def theorem5_tp_from_ood(profile, taus) -> np.ndarray:
    """Task distribution tp[k] proportional to P'_k^(1/tau_k).

    A 2-D profile and taus hold one instance per row; each row has the bits
    of the 1-D call.
    """
    q = _check_profile(profile)
    powered = q ** (1.0 / _check_taus(taus, q.shape))
    total = powered.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise DegenerateInputError("all-zero detector profile")
    return powered / total


def theorem5_bound(deltas, taus, k0):
    """Bound on h_tp of theorem5_tp_from_ood under per-task entropy budgets.

    delta_k0/tau_k0 + sum_k (1-exp(-delta_k))^(1/tau_k)
                      / (1 - (1-exp(-delta_k0))^(1/tau_k0)).
    A zero denominator (the k0 term hitting 1) raises DegenerateBoundError.
    2-D deltas and taus hold one instance per row and k0 its (n,) true
    tasks; each entry of the (n,) result has the bits of the 1-D call, and
    one zero denominator raises for the whole batch.
    """
    d = _check_deltas(deltas)
    t = _check_taus(taus, d.shape)
    k = _task_index(k0, d)
    terms = (1.0 - np.exp(-d)) ** (1.0 / t)
    denom = 1.0 - _at(terms, k)
    if (denom <= 0.0).any():
        raise DegenerateBoundError("k0 term reaches 1; bound is unbounded here")
    bound = _at(d, k) / _at(t, k) + terms.sum(axis=-1) / denom
    return float(bound) if d.ndim == 1 else bound
