"""Test oracles: the scalar reference chain of the entropy decomposition, one
instance at a time, and a finite-difference gradient checker.

The chain holds the per-instance predicates ``clwb.theory`` once shipped
beside its row-batch ones. The library now keeps only the row-batch
predicates; this chain stays here as their independent oracle: the parity
tests replay single instances through it and require the bits the batch code
gives. It calls no function of ``clwb``: its cross-entropies, detector
entropies and theorem-2 bound are scalar code of its own.

``grad_check`` compares any analytic gradient with central differences; the
numkit, backbone and contrastive-loss tests check their backward passes
with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from clwb.numkit import LOG_CLAMP
from clwb.theory import HypothesisError, TaskTopology, VERDICT_SLACK


def neg_log(p: float) -> float:
    """Entropy contribution -log p, clamped at LOG_CLAMP."""
    return -float(np.log(max(float(p), LOG_CLAMP)))


def cross_entropy(target_index: int, pred) -> float:
    """-log pred[target_index] with the clamp, for one prediction vector."""
    p = np.asarray(pred, dtype=np.float64)
    if p.ndim != 1 or not 0 <= target_index < p.size:
        raise ValueError(f"target {target_index} for prediction {p}")
    return neg_log(p[target_index])


def ood_entropies(profile, k0: int) -> np.ndarray:
    """Per-task detector cross-entropies of one instance of task k0: "in"
    for detector k0, "out" for every other."""
    q = np.asarray(profile, dtype=np.float64)
    return np.array([neg_log(p if k == k0 else 1.0 - p)
                     for k, p in enumerate(q)])


def theorem2_bound(deltas, k0: int) -> float:
    """exp(deltas[k0]) * sum_k (1 - exp(-deltas[k])) for one instance."""
    d = np.asarray(deltas, dtype=np.float64)
    return float(np.exp(d[k0]) * (1.0 - np.exp(-d)).sum())


def _leq(a, b):
    """a <= b up to the verdict slack; elementwise on arrays."""
    return a <= b + VERDICT_SLACK + 1e-12 * abs(b)


def check_distribution(p, *, name: str = "distribution") -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a nonempty vector")
    if (p < 0).any() or not np.isfinite(p).all():
        raise ValueError(f"{name} has negative or non-finite entries")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} sums to {p.sum()!r}, not 1")
    return p


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


def compose_cil(wp: list, tp, topo: TaskTopology, *,
                validate: bool = True) -> np.ndarray:
    """Flat distribution out[(k, j)] = wp[k][j] * tp[k]; sums to 1.

    validate=False skips the normalization checks for callers that generate
    inputs by construction.
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
    h_ood = ood_entropies(np.asarray(tp, dtype=np.float64), truth.k0)
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
# Finite-difference gradient checker
# ---------------------------------------------------------------------------

@dataclass
class GradCheckReport:
    """Per-parameter comparison of analytic vs central-difference gradients."""

    max_rel_err: list[float]
    tol: float

    @property
    def worst(self) -> float:
        return max(self.max_rel_err) if self.max_rel_err else 0.0

    @property
    def ok(self) -> bool:
        return self.worst < self.tol

    def __str__(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        per = ", ".join(f"p{i}={e:.3e}" for i, e in enumerate(self.max_rel_err))
        return f"grad_check {status} worst={self.worst:.3e} tol={self.tol:g} [{per}]"


def grad_check(lossfn, params: list[np.ndarray], h: float = 1e-6,
               tol: float = 1e-4) -> GradCheckReport:
    """Compare lossfn's analytic gradients against central differences.

    lossfn(params) -> (loss, grads) with grads shaped like params. h must lie
    in [1e-8, 1e-4]: wider steps break the O(h^2) truncation assumption,
    narrower ones drown in rounding noise.
    """
    if not 1e-8 <= h <= 1e-4:
        raise ValueError(f"h={h} outside [1e-8, 1e-4]")
    _, analytic = lossfn(params)
    errs = []
    for i, p in enumerate(params):
        a = np.asarray(analytic[i], dtype=np.float64)
        worst = 0.0
        flat = p.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up, _ = lossfn(params)
            flat[j] = orig - h
            dn, _ = lossfn(params)
            flat[j] = orig
            num = (up - dn) / (2.0 * h)
            ana = a.reshape(-1)[j]
            denom = max(abs(num), abs(ana), 1e-6)
            worst = max(worst, abs(num - ana) / denom)
        errs.append(worst)
    return GradCheckReport(errs, tol)
