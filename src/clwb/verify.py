"""Randomized counterexample hunts for the entropy-decomposition bounds.

Each suite draws seeded instances in batches of at most ``BATCH`` (one RNG
call per quantity), evaluates one executable predicate from ``clwb.theory``
on the whole batch, and records any violation verbatim so a failure can be
replayed by hand: every field of a dump is a plain literal at full
precision, which ``ast.literal_eval`` reads back. Instances are embedded in
the 6-task x 5-class topology ``_PAD`` with zero-probability padding; a dump
holds the unpadded instance. Distributions are drawn from mixed Dirichlet
sharpness with a 1e-5 floor: the additive identity is exact only while no
probability falls under the log clamp, and the floor keeps the suites inside
that regime while still spanning five orders of magnitude.

Setting the environment variable CLWB_FAULT_NEGATE to a suite name inverts
that suite's verdicts; it exists only so the harness can prove it catches
counterexamples.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import theory as th

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite", "run_suites"]

IDENTITY_TOL = 1e-9
FLOOR = 1e-5
MAX_FAILURES_KEPT = 5
BATCH = 1024  # instances drawn and checked at once, in every suite


@dataclass
class SuiteResult:
    name: str
    trials: int
    seed: int
    elapsed_s: float
    failures: list[str] = field(default_factory=list)
    n_failed: int = 0

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({self.n_failed} counterexamples)"
        return (f"suite {self.name}: {status}  trials={self.trials} "
                f"seed={self.seed} time={self.elapsed_s:.2f}s")


_ALPHAS = (0.3, 1.0, 5.0)  # Dirichlet sharpness mix
_PAD = th.TaskTopology.uniform(6, 5)  # widest topology a suite draws
_TASKS, _WIDTH = len(_PAD.sizes), _PAD.sizes[0]


def _topologies(rng: np.random.Generator, n: int):
    """n_tasks (n,) in 1..6 and sizes (n, 6) in 1..5; instance i is the
    topology sizes[i, :n_tasks[i]]."""
    n_tasks = rng.integers(1, _TASKS + 1, size=n)
    sizes = rng.integers(1, _WIDTH + 1, size=(n, _TASKS))
    return n_tasks, sizes


def _instance_batch(rng: np.random.Generator, n: int):
    """n (topology, wp, tp, truth) instances, each embedded in ``_PAD``.

    Returns (n_tasks (n,), sizes (n, 6), wp (n, 6, 5), tp (n, 6), k0, j0).
    Instance i is topology sizes[i, :n_tasks[i]] with wp[i, k, :sizes[i, k]]
    and tp[i, :n_tasks[i]]; one gamma row at one sharpness covers all of its
    distributions (gamma ratios are Dirichlet). The padding holds zero
    probability: classes past a task's width in wp, tasks past n_tasks in
    tp. Padded tasks keep a distribution in wp so every row is a valid
    ``decompose_rows`` input, and the truth entries, hence every
    cross-entropy, are the unpadded ones.
    """
    n_tasks, sizes = _topologies(rng, n)
    alpha = np.asarray(_ALPHAS)[rng.integers(3, size=n)]
    g = rng.standard_gamma(alpha[:, None], size=(n, _TASKS * (_WIDTH + 1)))
    wp = _normalize_rows(g[:, :_TASKS * _WIDTH].reshape(n, _TASKS, _WIDTH),
                         np.arange(_WIDTH) < sizes[:, :, None])
    tp = _normalize_rows(g[:, _TASKS * _WIDTH:],
                         np.arange(_TASKS) < n_tasks[:, None])
    k0 = rng.integers(n_tasks)
    j0 = rng.integers(sizes[np.arange(n), k0])
    return n_tasks, sizes, wp, tp, k0, j0


def _cil_batch(rng: np.random.Generator, n: int):
    """n (topology, flat CIL distribution, truth) instances: cil (n, 6, 5)
    is zero outside each instance's classes, so its task-slice masses are
    the unpadded ones. Returns (n_tasks, sizes, cil, k0, j0)."""
    n_tasks, sizes = _topologies(rng, n)
    valid = ((np.arange(_WIDTH) < sizes[:, :, None])
             & (np.arange(_TASKS)[:, None] < n_tasks[:, None, None]))
    cil = _floored_rows(rng, valid.reshape(n, -1)).reshape(valid.shape)
    k0 = rng.integers(n_tasks)
    j0 = rng.integers(sizes[np.arange(n), k0])
    return n_tasks, sizes, cil, k0, j0


def _task_batch(rng: np.random.Generator, n: int):
    """n instances of 1-6 tasks, padded to six: (n_tasks, k0, tp, q) with tp
    a floored task distribution and q uniform detectors, q[k0] >= FLOOR;
    both are zero past n_tasks."""
    n_tasks = rng.integers(1, _TASKS + 1, size=n)
    valid = np.arange(_TASKS) < n_tasks[:, None]
    k0 = rng.integers(n_tasks)
    tp = _floored_rows(rng, valid)
    q = np.where(valid, rng.uniform(size=valid.shape), 0.0)
    rows = np.arange(n)
    q[rows, k0] = np.maximum(q[rows, k0], FLOOR)
    return n_tasks, k0, tp, q


def _floored_rows(rng: np.random.Generator, valid: np.ndarray) -> np.ndarray:
    """One floored Dirichlet draw per row of ``valid`` (n, m) over its valid
    entries, each row at one sharpness from ``_ALPHAS``."""
    alpha = np.asarray(_ALPHAS)[rng.integers(3, size=len(valid))]
    g = rng.standard_gamma(alpha[:, None], size=valid.shape)
    return _normalize_rows(g, valid)


def _normalize_rows(g: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Normalize along the last axis over the ``valid`` entries (uniform for
    a zero row), floor at FLOOR and renormalize; the others come out zero."""
    g = np.where(valid, g, 0.0)
    total = g.sum(axis=-1, keepdims=True)
    uniform = np.broadcast_to(1.0 / valid.sum(axis=-1, keepdims=True), g.shape)
    p = np.divide(g, total, out=uniform.copy(), where=total > 0)
    p = np.where(valid, np.maximum(p, FLOOR), 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def _plain(v):
    """v as Python literals (floats at full precision) for ``repr``."""
    if isinstance(v, (np.ndarray, np.generic)):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return type(v)(_plain(x) for x in v)
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


def _dump(**parts) -> str:
    return "; ".join(f"{k}={_plain(v)!r}" for k, v in parts.items())


def _topology(sizes: np.ndarray) -> th.TaskTopology:
    return th.TaskTopology(tuple(sizes.tolist()))


def _chunks(trials: int):
    for start in range(0, trials, BATCH):
        yield min(BATCH, trials - start)


@dataclass
class _Decomposed:
    """A batch from ``_instance_batch`` and its decomposition by
    ``th.decompose_rows``, the kernel eval decomposes with."""

    n_tasks: np.ndarray
    sizes: np.ndarray
    wp: np.ndarray
    tp: np.ndarray
    k0: np.ndarray
    j0: np.ndarray
    d: th.RowDecomposition

    @classmethod
    def draw(cls, rng: np.random.Generator, n: int) -> _Decomposed:
        n_tasks, sizes, wp, tp, k0, j0 = _instance_batch(rng, n)
        flat = wp.reshape(n, -1)
        with np.errstate(divide="ignore"):
            d = th.decompose_rows(flat, np.log(flat), _PAD, k0, j0, tp=tp)
        return cls(n_tasks, sizes, wp, tp, k0, j0, d)

    def instance(self, i: int) -> dict:
        """Instance i unpadded, as dump fields."""
        m = self.n_tasks[i]
        return dict(sizes=self.sizes[i, :m],
                    wp=[self.wp[i, k, :self.sizes[i, k]] for k in range(m)],
                    tp=self.tp[i, :m], truth=(self.k0[i], self.j0[i]))

    def report(self, i: int) -> dict:
        d = self.d
        return dict(h_wp=d.h_wp[i], h_tp=d.h_tp[i], h_cil=d.h_cil[i],
                    h_ood=th.ood_entropies(self.tp[i, :self.n_tasks[i]],
                                           self.k0[i]))

    def scalar_report(self, i: int):
        """``th.entropy_report`` on instance i, its truth, and whether the
        report has the bits of row i."""
        f = self.instance(i)
        truth = th.GroundTruth(int(self.k0[i]), int(self.j0[i]))
        r = th.entropy_report(truth, _topology(f["sizes"]), wp=f["wp"],
                              tp=f["tp"], validate=False)
        d = self.d
        same = (r.h_wp, r.h_tp, r.h_cil) == (d.h_wp[i], d.h_tp[i], d.h_cil[i])
        return r, truth, same


# Each suite yields (verdicts (n,), dump) per batch of n consecutive trials;
# dump(i) formats trial i of that batch until the suite moves on. A suite
# that stands in for a scalar predicate of ``clwb.theory`` also runs that
# predicate on the first trial of each batch, and the trial fails unless the
# two agree on the verdict and, bit for bit, on the h values.

def _suite_identity(rng, trials):
    for n in _chunks(trials):
        b = _Decomposed.draw(rng, n)
        gap = np.abs(b.d.h_cil - (b.d.h_wp + b.d.h_tp))
        yield gap < IDENTITY_TOL, lambda i: _dump(**b.instance(i), gap=gap[i])


def _suite_theorem1(rng, trials):
    """eps and delta are the instance's own h_wp and h_tp, so the hypotheses
    hold and the verdict is h_cil <= h_wp + h_tp."""
    for n in _chunks(trials):
        b = _Decomposed.draw(rng, n)
        ok = th._leq(b.d.h_cil, b.d.h_wp + b.d.h_tp)
        r, _, same = b.scalar_report(0)
        ok[0] &= same and th.check_theorem1(r, r.h_wp, r.h_tp)
        yield ok, lambda i: _dump(**b.instance(i), report=b.report(i))


def _suite_corollary1(rng, trials):
    """Each trial is a group of 1-8 instances whose mean h_wp and h_tp are
    eps and delta; ``BATCH`` bounds the instances, not the groups."""
    counts = rng.integers(1, 9, size=trials)
    ends = np.cumsum(counts)
    start = 0
    while start < trials:
        base = ends[start] - counts[start]
        stop = max(start + 1, int(np.searchsorted(ends, base + BATCH,
                                                  side="right")))
        m = counts[start:stop]
        firsts = ends[start:stop] - m - base
        b = _Decomposed.draw(rng, int(m.sum()))
        m_wp, m_tp, m_cil = np.add.reduceat(
            np.stack([b.d.h_wp, b.d.h_tp, b.d.h_cil]), firsts, axis=1) / m
        ok = th._leq(m_cil, m_wp + m_tp)
        first = [b.scalar_report(j) for j in range(m[0])]
        reports = [r for r, _, _ in first]
        ok[0] &= all(same for _, _, same in first) and th.check_corollary1(
            reports, eps=float(np.mean([r.h_wp for r in reports])),
            delta=float(np.mean([r.h_tp for r in reports])))

        def dump(i):
            group = range(firsts[i], firsts[i] + m[i])
            return _dump(instances=[b.instance(j) for j in group],
                         reports=[b.report(j) for j in group],
                         eps=m_wp[i], delta=m_tp[i])

        yield ok, dump
        start = stop


def _suite_theorem2(rng, trials):
    for n in _chunks(trials):
        n_tasks, k0, tp, q = _task_batch(rng, n)
        # (i) detectors copied from the task distribution
        h_ood = th.ood_entropies(tp, k0)
        h_tp = th.cross_entropy(k0, tp)
        ok_i = (h_ood <= h_tp[:, None] + IDENTITY_TOL).all(axis=1)
        # (ii) task distribution normalized from arbitrary detectors
        bound = th.theorem2_bound(th.ood_entropies(q, k0), k0)
        h_tp2 = th.cross_entropy(k0, th.tp_from_ood(q))
        ok_ii = h_tp2 <= bound + IDENTITY_TOL
        yield ok_i & ok_ii, lambda i: _dump(
            tp=tp[i, :n_tasks[i]], k0=k0[i], h_ood=h_ood[i, :n_tasks[i]],
            profile=q[i, :n_tasks[i]], bound=bound[i], h_tp2=h_tp2[i])


def _suite_theorem3(rng, trials):
    """eps and deltas are the instance's own h_wp and h_ood, so the
    hypotheses hold and the verdict is h_cil <= h_wp + theorem2_bound."""
    for n in _chunks(trials):
        b = _Decomposed.draw(rng, n)
        bound = th.theorem2_bound(th.ood_entropies(b.tp, b.k0), b.k0)
        ok = th._leq(b.d.h_cil, b.d.h_wp + bound)
        r, truth, same = b.scalar_report(0)
        ok[0] &= same and th.check_theorem3(r, r.h_wp, r.h_ood, truth)
        yield ok, lambda i: _dump(**b.instance(i), report=b.report(i))


def _suite_theorem4(rng, trials):
    """The theorem-4 witnesses: each WP slice is the CIL slice, so h_wp is
    h_cil itself; TP is the slice masses and the detectors copy TP."""
    for n in _chunks(trials):
        n_tasks, sizes, cil, k0, j0 = _cil_batch(rng, n)
        eta = th.cross_entropy(k0 * _WIDTH + j0, cil.reshape(n, -1))
        mass = cil.sum(axis=2)
        h_tp = th.cross_entropy(k0, mass)
        h_ood = th.ood_entropies(np.minimum(mass, 1.0), k0)
        ok = th._leq(h_tp, eta) & th._leq(h_ood, eta[:, None]).all(axis=1)

        def instance(i):
            s = sizes[i, :n_tasks[i]]
            classes = cil[i, :s.size][np.arange(_WIDTH) < s[:, None]]
            return dict(sizes=s, cil=classes, truth=(k0[i], j0[i]))

        f = instance(0)
        c = th.theorem4_construct(f["cil"], _topology(f["sizes"]),
                                  th.GroundTruth(int(k0[0]), int(j0[0])))
        ok[0] &= (c.all_ok and (c.h_wp, c.h_tp) == (eta[0], h_tp[0])
                  and np.array_equal(c.h_ood, h_ood[0, :n_tasks[0]]))
        yield ok, lambda i: _dump(**instance(i), h=(
            eta[i], h_tp[i], h_ood[i, :n_tasks[i]]))


def _suite_theorem5(rng, trials):
    for n in _chunks(trials):
        n_tasks, k0, tp, q = _task_batch(rng, n)
        taus = np.where(np.arange(_TASKS) < n_tasks[:, None], np.exp(
            rng.uniform(np.log(0.1), np.log(10.0), size=tp.shape)), 1.0)
        # (i) tempered detectors from a task distribution
        profile, bounds = th.theorem5_ood_from_tp(tp, taus, k0)
        h_ood = th.ood_entropies(profile, k0)
        ok_i = (h_ood <= bounds + IDENTITY_TOL).all(axis=1)
        # (ii) tempered task distribution from arbitrary detectors
        bound = th.theorem5_bound(th.ood_entropies(q, k0), taus, k0)
        h_tp = th.cross_entropy(k0, th.theorem5_tp_from_ood(q, taus))
        ok_ii = h_tp <= bound + IDENTITY_TOL
        yield ok_i & ok_ii, lambda i: _dump(
            tp=tp[i, :n_tasks[i]], taus=taus[i, :n_tasks[i]], k0=k0[i],
            h_ood=h_ood[i, :n_tasks[i]], bounds=bounds[i, :n_tasks[i]],
            profile=q[i, :n_tasks[i]], bound_ii=bound[i], h_tp=h_tp[i])


_SUITES = {
    "identity": _suite_identity,
    "theorem1": _suite_theorem1,
    "corollary1": _suite_corollary1,
    "theorem2": _suite_theorem2,
    "theorem3": _suite_theorem3,
    "theorem4": _suite_theorem4,
    "theorem5": _suite_theorem5,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int, trials: int) -> SuiteResult:
    """Run one suite; failures keep a replayable dump of the instance."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    negate = os.environ.get("CLWB_FAULT_NEGATE") == name
    rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
    start = time.perf_counter()
    result = SuiteResult(name, trials, seed, 0.0)
    for ok, dump in _SUITES[name](rng, trials):
        failed = np.flatnonzero(ok if negate else ~ok)
        result.n_failed += failed.size
        keep = failed[:MAX_FAILURES_KEPT - len(result.failures)]
        result.failures.extend(dump(i) for i in keep)
    result.elapsed_s = time.perf_counter() - start
    return result


def run_suites(names, seed: int, trials: int) -> list[SuiteResult]:
    return [run_suite(n, seed, trials) for n in names]
