"""Randomized counterexample hunts for the entropy-decomposition bounds.

Each suite draws seeded instances, evaluates one executable predicate from
``clwb.theory``, and records any violation verbatim (full-precision reprs)
so a failure can be replayed by hand. Distributions are drawn from mixed
Dirichlet sharpness with a 1e-5 floor: the additive identity is exact only
while no probability falls under the log clamp, and the floor keeps the
suites inside that regime while still spanning five orders of magnitude.

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
BATCH = 4096  # identity instances drawn and decomposed per batch


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


def _floored(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_gamma(_ALPHAS[int(rng.integers(3))], size=n)
    return _normalize(g)


def _normalize(g: np.ndarray) -> np.ndarray:
    total = g.sum()
    p = g / total if total > 0 else np.full(g.size, 1.0 / g.size)
    p = np.maximum(p, FLOOR)
    return p / p.sum()


def _sizes(rng: np.random.Generator) -> tuple[int, ...]:
    return tuple(int(s) for s in
                 rng.integers(1, 6, size=int(rng.integers(1, 7))))


def _instance(rng: np.random.Generator):
    """One (topology, wp, tp, truth) draw; a single gamma call covers every
    distribution in the trial (gamma ratios are Dirichlet)."""
    sizes = rng.integers(1, 6, size=int(rng.integers(1, 7)))
    topo = th.TaskTopology(tuple(int(s) for s in sizes))
    alpha = _ALPHAS[int(rng.integers(3))]
    need = int(sizes.sum()) + topo.n_tasks
    g = rng.standard_gamma(alpha, size=need)
    wp, at = [], 0
    for s in sizes:
        wp.append(_normalize(g[at:at + s]))
        at += s
    tp = _normalize(g[at:])
    k0 = int(rng.integers(topo.n_tasks))
    truth = th.GroundTruth(k0, int(rng.integers(topo.sizes[k0])))
    return topo, wp, tp, truth


_PAD = th.TaskTopology.uniform(6, 5)  # widest topology _instance can draw


def _instance_batch(rng: np.random.Generator, n: int):
    """n instances drawn like ``_instance`` but in whole-batch calls, each
    embedded in the 6-task x 5-class topology ``_PAD``.

    Returns (n_tasks (n,), sizes (n, 6), wp (n, 6, 5), tp (n, 6), k0, j0).
    Instance i is topology sizes[i, :n_tasks[i]] with wp[i, k, :sizes[i, k]]
    and tp[i, :n_tasks[i]]. The padding holds zero probability: classes past
    a task's width in wp, tasks past n_tasks in tp. Padded tasks keep a
    distribution in wp so every row is a valid ``decompose_rows`` input, and
    the truth entries, hence every cross-entropy, are the unpadded ones.
    """
    tasks, width = len(_PAD.sizes), _PAD.sizes[0]
    n_tasks = rng.integers(1, tasks + 1, size=n)
    sizes = rng.integers(1, width + 1, size=(n, tasks))
    alpha = np.asarray(_ALPHAS)[rng.integers(3, size=n)]
    g = rng.standard_gamma(alpha[:, None], size=(n, tasks * (width + 1)))
    wp = _normalize_rows(g[:, :tasks * width].reshape(n, tasks, width),
                         np.arange(width) < sizes[:, :, None])
    tp = _normalize_rows(g[:, tasks * width:],
                         np.arange(tasks) < n_tasks[:, None])
    k0 = rng.integers(n_tasks)
    j0 = rng.integers(sizes[np.arange(n), k0])
    return n_tasks, sizes, wp, tp, k0, j0


def _normalize_rows(g: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """``_normalize`` along the last axis over the ``valid`` entries; the
    others come out zero."""
    g = np.where(valid, g, 0.0)
    total = g.sum(axis=-1, keepdims=True)
    uniform = np.broadcast_to(1.0 / valid.sum(axis=-1, keepdims=True), g.shape)
    p = np.divide(g, total, out=uniform.copy(), where=total > 0)
    p = np.where(valid, np.maximum(p, FLOOR), 0.0)
    return p / p.sum(axis=-1, keepdims=True)


def _dump(**parts) -> str:
    def fmt(v):
        if isinstance(v, np.ndarray):
            return repr(v.tolist())
        if isinstance(v, list):
            return repr([x.tolist() if isinstance(x, np.ndarray) else x
                         for x in v])
        return repr(v)

    return "; ".join(f"{k}={fmt(v)}" for k, v in parts.items())


def _suite_identity(rng, trials):
    """Batches of padded instances through ``th.decompose_rows``, the kernel
    eval decomposes with; a failure dumps the unpadded instance."""
    for start in range(0, trials, BATCH):
        n_tasks, sizes, wp, tp, k0, j0 = _instance_batch(
            rng, min(BATCH, trials - start))
        flat = wp.reshape(len(wp), -1)
        with np.errstate(divide="ignore"):
            d = th.decompose_rows(flat, np.log(flat), _PAD, k0, j0, tp=tp)
        gap = np.abs(d.h_cil - (d.h_wp + d.h_tp))
        for i, ok in enumerate(gap < IDENTITY_TOL):
            yield bool(ok), lambda i=i: _dump(
                sizes=tuple(int(s) for s in sizes[i, :n_tasks[i]]),
                wp=[wp[i, k, :sizes[i, k]] for k in range(n_tasks[i])],
                tp=tp[i, :n_tasks[i]], truth=(int(k0[i]), int(j0[i])),
                gap=float(gap[i]))


def _suite_theorem1(rng, trials):
    for _ in range(trials):
        topo, wp, tp, truth = _instance(rng)
        r = th.entropy_report(truth, topo, wp=wp, tp=tp, validate=False)
        ok = th.check_theorem1(r, r.h_wp, r.h_tp)
        yield ok, lambda: _dump(sizes=topo.sizes, wp=wp, tp=tp,
                                truth=(truth.k0, truth.j0), report=vars(r))


def _suite_corollary1(rng, trials):
    for _ in range(trials):
        batch = [th.entropy_report(t, topo, wp=wp, tp=tp, validate=False)
                 for topo, wp, tp, t in
                 (_instance(rng) for _ in range(int(rng.integers(1, 9))))]
        eps = float(np.mean([r.h_wp for r in batch]))
        delta = float(np.mean([r.h_tp for r in batch]))
        ok = th.check_corollary1(batch, eps=eps, delta=delta)
        yield ok, lambda: _dump(reports=[vars(r) for r in batch],
                                eps=eps, delta=delta)


def _suite_theorem2(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        k0 = int(rng.integers(n))
        # (i) detectors copied from the task distribution
        tp = _floored(rng, n)
        h_tp = th.cross_entropy(k0, tp)
        h_ood = th.ood_entropies(th.ood_from_tp(tp), k0)
        ok_i = bool((h_ood <= h_tp + IDENTITY_TOL).all())
        # (ii) task distribution normalized from arbitrary detectors
        q = rng.uniform(size=n)
        q[k0] = max(q[k0], FLOOR)
        deltas = th.ood_entropies(q, k0)
        bound = th.theorem2_bound(deltas, k0)
        h_tp2 = th.cross_entropy(k0, th.tp_from_ood(q))
        ok_ii = h_tp2 <= bound + IDENTITY_TOL
        yield ok_i and ok_ii, lambda: _dump(
            tp=tp, k0=k0, h_ood=h_ood, profile=q, bound=bound, h_tp2=h_tp2)


def _suite_theorem3(rng, trials):
    for _ in range(trials):
        topo, wp, tp, truth = _instance(rng)
        r = th.entropy_report(truth, topo, wp=wp, tp=tp, validate=False)
        ok = th.check_theorem3(r, r.h_wp, r.h_ood, truth)
        yield ok, lambda: _dump(sizes=topo.sizes, wp=wp, tp=tp,
                                truth=(truth.k0, truth.j0), report=vars(r))


def _suite_theorem4(rng, trials):
    for _ in range(trials):
        topo = th.TaskTopology(_sizes(rng))
        cil = _floored(rng, topo.n_classes)
        k0 = int(rng.integers(topo.n_tasks))
        truth = th.GroundTruth(k0, int(rng.integers(topo.sizes[k0])))
        c = th.theorem4_construct(cil, topo, truth)
        yield c.all_ok, lambda: _dump(sizes=topo.sizes, cil=cil,
                                      truth=(truth.k0, truth.j0),
                                      h=(c.h_wp, c.h_tp, c.h_ood))


def _suite_theorem5(rng, trials):
    for _ in range(trials):
        n = int(rng.integers(1, 7))
        taus = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=n))
        k0 = int(rng.integers(n))
        truth = th.GroundTruth(k0, 0)
        # (i) tempered detectors from a task distribution
        tp = _floored(rng, n)
        profile, bounds = th.theorem5_ood_from_tp(tp, taus, truth)
        h_ood = th.ood_entropies(profile, k0)
        ok_i = bool((h_ood <= bounds + IDENTITY_TOL).all())
        # (ii) tempered task distribution from arbitrary detectors
        q = rng.uniform(size=n)
        q[k0] = max(q[k0], FLOOR)
        deltas = th.ood_entropies(q, k0)
        tp5 = th.theorem5_tp_from_ood(q, taus)
        bound = th.theorem5_bound(deltas, taus, k0)
        h_tp = th.cross_entropy(k0, tp5)
        ok_ii = h_tp <= bound + IDENTITY_TOL
        yield ok_i and ok_ii, lambda: _dump(
            tp=tp, taus=taus, k0=k0, h_ood=h_ood, bounds=bounds,
            profile=q, bound_ii=bound, h_tp=h_tp)


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
        if negate:
            ok = not ok
        if not ok:
            result.n_failed += 1
            if len(result.failures) < MAX_FAILURES_KEPT:
                result.failures.append(dump())
    result.elapsed_s = time.perf_counter() - start
    return result


def run_suites(names, seed: int, trials: int) -> list[SuiteResult]:
    return [run_suite(n, seed, trials) for n in names]
