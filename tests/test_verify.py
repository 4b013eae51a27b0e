import ast

import numpy as np
import pytest

import oracles
from clwb import theory as th
from clwb import verify


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_every_suite_passes(name):
    result = verify.run_suite(name, seed=123, trials=300)
    assert result.ok, result.failures[:1]
    assert result.trials == 300


def test_seed_determinism():
    a = verify.run_suite("theorem5", seed=9, trials=200)
    b = verify.run_suite("theorem5", seed=9, trials=200)
    assert a.n_failed == b.n_failed == 0
    c = verify.run_suite("theorem5", seed=10, trials=200)
    assert c.ok  # different seed still passes


def test_fault_injection_hook(negate_suite):
    negate_suite("theorem2")
    bad = verify.run_suite("theorem2", seed=1, trials=50)
    assert not bad.ok
    assert bad.n_failed == 50
    assert bad.failures  # replayable dumps captured
    assert len(bad.failures) <= verify.MAX_FAILURES_KEPT
    ok = verify.run_suite("theorem1", seed=1, trials=50)
    assert ok.ok  # other suites unaffected


def test_failure_dump_is_replayable(negate_suite):
    negate_suite("identity")
    result = verify.run_suite("identity", seed=4, trials=5)
    fields = _fields(result.failures[0])
    assert set(fields) == {"sizes", "wp", "tp", "truth", "gap"}
    # the literals replay through th.entropy_report, as a one-row batch, to
    # the dumped gap
    wp = np.concatenate(fields["wp"])[None]
    k0, j0 = fields["truth"]
    r = th.entropy_report(wp, np.log(wp), th.TaskTopology(tuple(
        fields["sizes"])), [k0], [j0], tp=[fields["tp"]])
    assert abs(r.h_cil - (r.h_wp + r.h_tp))[0] == fields["gap"]


def test_bad_arguments():
    with pytest.raises(ValueError):
        verify.run_suite("theorem9", seed=0, trials=10)
    with pytest.raises(ValueError):
        verify.run_suite("theorem1", seed=0, trials=0)


def _draws_above_floor(distributions):
    """The floor keeps the clamp from binding, while the draws still reach
    sharp distributions."""
    smallest = min(p.min() for p in distributions)
    assert all(abs(p.sum() - 1.0) < 1e-9 for p in distributions)
    assert smallest >= verify.FLOOR / 2
    assert smallest < 1e-4


def test_batched_instances_decompose_as_entropy_report():
    # the padded rows give the bits the scalar report gives on the unpadded
    # instance, so an identity failure dump replays exactly
    rng = np.random.default_rng(5)
    n_tasks, sizes, wp, tp, k0, j0 = verify._instance_batch(rng, 400)
    flat = wp.reshape(len(wp), -1)
    with np.errstate(divide="ignore"):
        d = th.entropy_report(flat, np.log(flat), verify._PAD, k0, j0, tp=tp)
    drawn = []
    for i in range(len(wp)):
        topo = th.TaskTopology(tuple(int(s) for s in sizes[i, :n_tasks[i]]))
        parts = [wp[i, k, :topo.sizes[k]] for k in range(topo.n_tasks)]
        parts.append(tp[i, :topo.n_tasks])
        drawn += parts
        assert not tp[i, topo.n_tasks:].any()
        assert not any(wp[i, k, s:].any() for k, s in enumerate(sizes[i]))
        for k in range(topo.n_tasks, 6):  # a padded task: uniform
            row = wp[i, k, :sizes[i, k]]
            assert (row == row[0]).all() and abs(row.sum() - 1.0) < 1e-15
        r = oracles.entropy_report(
            oracles.GroundTruth(int(k0[i]), int(j0[i])), topo, wp=parts[:-1],
            tp=parts[-1])
        assert (r.h_wp, r.h_tp, r.h_cil) == (d.h_wp[i], d.h_tp[i], d.h_cil[i])
    _draws_above_floor(drawn)
    assert set(n_tasks) == set(range(1, 7))
    assert set(sizes.ravel()) == set(range(1, 6))


def test_instances_span_sharpness_and_stay_above_floor():
    # every batch draw: the identity/theorem-1/3 instances, the theorem-2/5
    # task distributions and the theorem-4 CIL rows
    rng = np.random.default_rng(0)
    n_tasks, sizes, wp, tp, _, _ = verify._instance_batch(rng, 500)
    drawn = []
    for i in range(len(wp)):
        drawn += [wp[i, k, :sizes[i, k]] for k in range(n_tasks[i])]
        drawn.append(tp[i, :n_tasks[i]])
    _draws_above_floor(drawn)
    n_tasks, _, tp, q = verify._task_batch(rng, 500)
    _draws_above_floor([tp[i, :m] for i, m in enumerate(n_tasks)])
    assert not (tp * (np.arange(6) >= n_tasks[:, None])).any()
    assert not (q * (np.arange(6) >= n_tasks[:, None])).any()
    n_tasks, sizes, cil, _, _ = verify._cil_batch(rng, 500)
    valid = ((np.arange(5) < sizes[:, :, None])
             & (np.arange(6)[:, None] < n_tasks[:, None, None]))
    assert not cil[~valid].any()
    _draws_above_floor([c[v] for c, v in zip(cil, valid)])


def _fields(dump):
    """A dump as {field: value}; every value must be a Python literal."""
    out = {}
    for part in dump.split("; "):
        key, _, value = part.partition("=")
        out[key] = ast.literal_eval(value)
    return out


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_batches_cover_every_trial(monkeypatch, negate_suite, name):
    monkeypatch.setattr(verify, "BATCH", 7)
    negate_suite(name)
    result = verify.run_suite(name, seed=3, trials=20)
    assert result.n_failed == 20
    assert len(result.failures) == verify.MAX_FAILURES_KEPT
    for dump in result.failures:
        fields = _fields(dump)
        assert fields and all(key.isidentifier() for key in fields)


def _report(fields):
    """The scalar entropy_report of a dumped (sizes, wp, tp, truth)."""
    topo = th.TaskTopology(tuple(fields["sizes"]))
    truth = oracles.GroundTruth(*fields["truth"])
    r = oracles.entropy_report(truth, topo,
                               wp=[np.array(w) for w in fields["wp"]],
                               tp=np.array(fields["tp"]))
    return r, truth


def _vars(r):
    return dict(h_wp=r.h_wp, h_tp=r.h_tp, h_cil=r.h_cil, h_ood=r.h_ood.tolist())


def _oracle_identity(f):
    r, _ = _report(f)
    gap = abs(r.h_cil - (r.h_wp + r.h_tp))
    return gap < verify.IDENTITY_TOL, {"gap": gap}


def _oracle_theorem1(f):
    r, _ = _report(f)
    return oracles.check_theorem1(r, r.h_wp, r.h_tp), {"report": _vars(r)}


def _oracle_corollary1(f):
    reports = [_report(inst)[0] for inst in f["instances"]]
    eps = float(np.mean([r.h_wp for r in reports]))
    delta = float(np.mean([r.h_tp for r in reports]))
    return oracles.check_corollary1(reports, eps=eps, delta=delta), {
        "reports": [_vars(r) for r in reports], "eps": eps, "delta": delta}


def _oracle_theorem2(f):
    tp, q, k0 = np.array(f["tp"]), np.array(f["profile"]), f["k0"]
    h_ood = oracles.ood_entropies(oracles.ood_from_tp(tp), k0)
    bound = oracles.theorem2_bound(oracles.ood_entropies(q, k0), k0)
    h_tp2 = oracles.cross_entropy(k0, th.tp_from_ood(q[None])[0])
    ok = (h_ood <= oracles.cross_entropy(k0, tp) + verify.IDENTITY_TOL).all() \
        and h_tp2 <= bound + verify.IDENTITY_TOL
    return ok, {"h_ood": h_ood.tolist(), "bound": bound, "h_tp2": h_tp2}


def _oracle_theorem3(f):
    r, truth = _report(f)
    return oracles.check_theorem3(r, r.h_wp, r.h_ood, truth), {
        "report": _vars(r)}


def _oracle_theorem4(f):
    topo = th.TaskTopology(tuple(f["sizes"]))
    c = oracles.theorem4_construct(f["cil"], topo,
                                   oracles.GroundTruth(*f["truth"]))
    return c.all_ok, {"h": (c.h_wp, c.h_tp, c.h_ood.tolist())}


def _oracle_theorem5(f):
    tp, taus, q, k0 = (np.array(f["tp"]), np.array(f["taus"]),
                       np.array(f["profile"]), f["k0"])
    # the theorem-5 kernels on one-row batches; the entropies by the oracle
    profile, bounds = (v[0] for v in th.theorem5_ood_from_tp(
        tp[None], taus[None], [k0]))
    h_ood = oracles.ood_entropies(profile, k0)
    bound = th.theorem5_bound(oracles.ood_entropies(q, k0)[None], taus[None],
                              [k0])[0]
    h_tp = oracles.cross_entropy(k0, th.theorem5_tp_from_ood(q[None],
                                                             taus[None])[0])
    ok = (h_ood <= bounds + verify.IDENTITY_TOL).all() \
        and h_tp <= bound + verify.IDENTITY_TOL
    return ok, {"h_ood": h_ood.tolist(), "bounds": bounds.tolist(),
                "bound_ii": bound, "h_tp": h_tp}


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_batch_matches_scalar_oracles(name):
    # every trial's dump replays through the scalar predicate chain to the
    # batch's verdict and to the values the batch computed, bit for bit
    # except corollary1's group means
    oracle = globals()[f"_oracle_{name}"]
    rng = np.random.default_rng(11)
    trials = 0
    for ok, dump in verify._SUITES[name](rng, 600):
        assert ok.dtype == bool
        for i in range(len(ok)):
            fields = _fields(dump(i))
            verdict, values = oracle(fields)
            assert verdict == ok[i]
            for key, value in values.items():
                if name == "corollary1" and key in ("eps", "delta"):
                    # group means sum in another order than np.mean
                    assert abs(fields[key] - value) <= 1e-12
                else:
                    assert fields[key] == value, (key, trials + i)
        trials += len(ok)
    assert trials == 600


def test_corollary1_batches_bound_instances(monkeypatch):
    monkeypatch.setattr(verify, "BATCH", 20)
    drawn = []
    draw = verify._instance_batch
    monkeypatch.setattr(verify, "_instance_batch",
                        lambda rng, n: drawn.append(n) or draw(rng, n))
    groups = verify._SUITES["corollary1"](np.random.default_rng(0), 50)
    assert sum(len(ok) for ok, _ in groups) == 50
    assert max(drawn) <= 20 and sum(drawn) > 50


# ---------------------------------------------------------------------------
# The samplers as they drew a gamma for every padded entry too
# ---------------------------------------------------------------------------

def _old_floored_rows(rng, valid):
    alpha = np.asarray(verify._ALPHAS)[rng.integers(3, size=len(valid))]
    g = rng.standard_gamma(alpha[:, None], size=valid.shape)
    return verify._normalize_rows(g, valid)


def _old_instance_batch(rng, n):
    n_tasks, sizes = verify._topologies(rng, n)
    alpha = np.asarray(verify._ALPHAS)[rng.integers(3, size=n)]
    g = rng.standard_gamma(alpha[:, None], size=(n, 36))
    wp = verify._normalize_rows(g[:, :30].reshape(n, 6, 5),
                                np.arange(5) < sizes[:, :, None])
    tp = verify._normalize_rows(g[:, 30:], np.arange(6) < n_tasks[:, None])
    k0 = rng.integers(n_tasks)
    j0 = rng.integers(sizes[np.arange(n), k0])
    return n_tasks, sizes, wp, tp, k0, j0


def _old_cil_batch(rng, n):
    n_tasks, sizes = verify._topologies(rng, n)
    valid = ((np.arange(5) < sizes[:, :, None])
             & (np.arange(6)[:, None] < n_tasks[:, None, None]))
    cil = _old_floored_rows(rng, valid.reshape(n, -1)).reshape(valid.shape)
    k0 = rng.integers(n_tasks)
    j0 = rng.integers(sizes[np.arange(n), k0])
    return n_tasks, sizes, cil, k0, j0


def _old_task_batch(rng, n):
    n_tasks = rng.integers(1, 7, size=n)
    valid = np.arange(6) < n_tasks[:, None]
    k0 = rng.integers(n_tasks)
    tp = _old_floored_rows(rng, valid)
    q = np.where(valid, rng.uniform(size=valid.shape), 0.0)
    rows = np.arange(n)
    q[rows, k0] = np.maximum(q[rows, k0], verify.FLOOR)
    return n_tasks, k0, tp, q


def _instance_stats(batch, n):
    """Cells (n_tasks, sizes[k0]) and the truth WP entry, h_wp, h_tp and
    h_cil of n instances of a ``_instance_batch``-like sampler."""
    n_tasks, sizes, wp, tp, k0, j0 = batch
    flat = wp.reshape(n, -1)
    with np.errstate(divide="ignore"):
        d = th.entropy_report(flat, np.log(flat), verify._PAD, k0, j0, tp=tp)
    rows = np.arange(n)
    cells = n_tasks * 10 + sizes[rows, k0]
    return cells, [wp[rows, k0, j0], d.h_wp, d.h_tp, d.h_cil]


def _cil_stats(batch, n):
    n_tasks, sizes, cil, k0, j0 = batch
    flat = cil.reshape(n, -1)
    with np.errstate(divide="ignore"):
        d = th.entropy_report(flat, np.log(flat), verify._PAD, k0, j0)
    rows = np.arange(n)
    cells = n_tasks * 10 + sizes[rows, k0]
    truth_wp = cil[rows, k0, j0] / cil[rows, k0].sum(axis=1)
    return cells, [truth_wp, d.h_wp, d.h_tp, d.h_cil]


def _task_stats(batch, n):
    n_tasks, k0, tp, q = batch
    rows = np.arange(n)
    return n_tasks, [tp[rows, k0], th.cross_entropy(k0, tp), q[rows, k0]]


@pytest.mark.parametrize("old, new, stats", [
    (_old_instance_batch, "_instance_batch", _instance_stats),
    (_old_cil_batch, "_cil_batch", _cil_stats),
    (_old_task_batch, "_task_batch", _task_stats),
], ids=["instance", "cil", "task"])
def test_samplers_keep_the_distribution_of_what_a_verdict_reads(old, new,
                                                                stats):
    """One gamma per used entry changes which instances a seed gives, not
    their distribution: per cell, every mean agrees within 5 standard
    errors of the difference."""
    n = 24_000
    cells_a, a = stats(old(np.random.default_rng(101), n), n)
    cells_b, b = stats(getattr(verify, new)(np.random.default_rng(202), n), n)
    assert set(cells_a) == set(cells_b)
    for cell in set(cells_a):
        in_a, in_b = cells_a == cell, cells_b == cell
        for x, y in zip(a, b):
            x, y = x[in_a], y[in_b]
            se = np.sqrt(x.var(ddof=1) / x.size + y.var(ddof=1) / y.size)
            assert abs(x.mean() - y.mean()) <= 5 * se, (new, cell)


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_padded_tasks_reach_no_verdict_or_dump(name, monkeypatch,
                                               negate_suite):
    """Every trial dumped: a padded task's WP row, uniform as drawn or all
    mass on its last class, changes no verdict and no dump."""
    negate_suite(name)
    monkeypatch.setattr(verify, "MAX_FAILURES_KEPT", 3000)
    want = verify.run_suite(name, 5, 2000)
    draw = verify._instance_batch

    def last_class(rng, n):
        n_tasks, sizes, wp, tp, k0, j0 = draw(rng, n)
        padded = np.arange(6) >= n_tasks[:, None]
        wp[padded] = np.eye(5)[sizes[padded] - 1]
        return n_tasks, sizes, wp, tp, k0, j0

    monkeypatch.setattr(verify, "_instance_batch", last_class)
    got = verify.run_suite(name, 5, 2000)
    assert got.n_failed == want.n_failed == 2000
    assert got.failures == want.failures
