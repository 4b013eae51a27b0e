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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import theory as th

__all__ = ["SuiteResult", "SUITE_NAMES", "run_suite"]

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
    and tp[i, :n_tasks[i]]; one sharpness covers all of its distributions
    (gamma ratios are Dirichlet), with a gamma for each of those entries
    only. The padding holds zero probability: classes past a task's width
    in wp, tasks past n_tasks in tp. A padded task's WP row is uniform over
    its sizes[i, k] classes, so every row is a valid ``th.entropy_report``
    input, and the truth entries, hence every cross-entropy, are the
    unpadded ones.
    """
    n_tasks, sizes = _topologies(rng, n)
    alpha = np.asarray(_ALPHAS)[rng.integers(3, size=n)]
    classes = np.arange(_WIDTH) < sizes[:, :, None]
    tasks = np.arange(_TASKS) < n_tasks[:, None]
    g = _gammas(rng, alpha, np.concatenate(
        [(classes & tasks[:, :, None]).reshape(n, -1), tasks], axis=1))
    wp = g[:, :_TASKS * _WIDTH].reshape(n, _TASKS, _WIDTH)
    wp += classes & ~tasks[:, :, None]  # ones: a padded task is uniform
    wp = _normalize_rows(wp, classes)
    tp = _normalize_rows(g[:, _TASKS * _WIDTH:], tasks)
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
    return _normalize_rows(_gammas(rng, alpha, valid), valid)


def _gammas(rng: np.random.Generator, alpha: np.ndarray,
            used: np.ndarray) -> np.ndarray:
    """Zeros of ``used``'s (n, m) shape with a gamma draw at each used
    entry, in row-major order, row i at shape alpha[i]."""
    g = np.zeros(used.shape)
    g[used] = rng.standard_gamma(np.repeat(alpha, used.sum(axis=1)))
    return g


def _normalize_rows(g: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Normalize gamma draws ``g`` along the last axis over the ``valid``
    entries (uniform for a zero row), floor at FLOOR and renormalize; the
    others come out zero. Finite p >= 0 masks as p * True == p and
    p * False == +0.0."""
    p = g * valid
    one = th.TaskTopology((p.shape[-1],))  # the whole row is one slice
    total = th._slice_masses(p, one)
    p /= np.where(total == 0, 1.0, total)
    zero = total[..., 0] == 0  # every valid entry is 0: the uniform fallback
    if zero.any():
        p[zero] = 1.0 / valid[zero].sum(axis=-1, keepdims=True)
    np.maximum(p, FLOOR, out=p)
    p *= valid
    p /= th._slice_masses(p, one)
    return p


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


def _chunks(trials: int):
    for start in range(0, trials, BATCH):
        yield min(BATCH, trials - start)


@dataclass
class _Decomposed:
    """A batch from ``_instance_batch`` and its ``th.entropy_report``, the
    kernel eval decomposes with."""

    n_tasks: np.ndarray
    sizes: np.ndarray
    wp: np.ndarray
    tp: np.ndarray
    k0: np.ndarray
    j0: np.ndarray
    d: th.EntropyReport

    @classmethod
    def draw(cls, rng: np.random.Generator, n: int) -> _Decomposed:
        n_tasks, sizes, wp, tp, k0, j0 = _instance_batch(rng, n)
        flat = wp.reshape(n, -1)
        with np.errstate(divide="ignore"):
            d = th.entropy_report(flat, np.log(flat), _PAD, k0, j0, tp=tp)
        return cls(n_tasks, sizes, wp, tp, k0, j0, d)

    def instance(self, i: int) -> dict:
        """Instance i unpadded, as dump fields."""
        m = self.n_tasks[i]
        return dict(sizes=self.sizes[i, :m],
                    wp=[self.wp[i, k, :self.sizes[i, k]] for k in range(m)],
                    tp=self.tp[i, :m], truth=(self.k0[i], self.j0[i]))

    def report(self, i: int) -> dict:
        d = self.d
        tp = self.tp[i:i + 1, :self.n_tasks[i]]
        return dict(h_wp=d.h_wp[i], h_tp=d.h_tp[i], h_cil=d.h_cil[i],
                    h_ood=th.ood_entropies(tp, self.k0[i:i + 1])[0])


# Each suite yields (verdicts (n,), dump) per batch of n consecutive trials;
# dump(i) formats trial i of that batch until the suite moves on.

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
        ok = th.check_theorem1(b.d, b.d.h_wp, b.d.h_tp)
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
        m_wp, m_tp = np.add.reduceat(np.stack([b.d.h_wp, b.d.h_tp]), firsts,
                                     axis=1) / m
        ok = th.check_corollary1(b.d, firsts, eps=m_wp, delta=m_tp)

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
        h_ood = th.ood_entropies(th.ood_from_tp(tp), k0)
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
        h_ood = th.ood_entropies(b.tp, b.k0)
        ok = th.check_theorem3(b.d, h_ood, b.d.h_wp, h_ood, b.k0)
        yield ok, lambda i: _dump(**b.instance(i), report=b.report(i))


def _suite_theorem4(rng, trials):
    for n in _chunks(trials):
        n_tasks, sizes, cil, k0, j0 = _cil_batch(rng, n)
        _, eta, h_tp, h_ood, ok = th.theorem4_construct(cil.reshape(n, -1),
                                                         _PAD, k0, j0)

        def instance(i):
            s = sizes[i, :n_tasks[i]]
            classes = cil[i, :s.size][np.arange(_WIDTH) < s[:, None]]
            return dict(sizes=s, cil=classes, truth=(k0[i], j0[i]))

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
    rng = np.random.default_rng([seed, SUITE_NAMES.index(name)])
    start = time.perf_counter()
    result = SuiteResult(name, trials, seed, 0.0)
    for ok, dump in _SUITES[name](rng, trials):
        failed = np.flatnonzero(~ok)
        result.n_failed += failed.size
        keep = failed[:MAX_FAILURES_KEPT - len(result.failures)]
        result.failures.extend(dump(i) for i in keep)
    result.elapsed_s = time.perf_counter() - start
    return result
