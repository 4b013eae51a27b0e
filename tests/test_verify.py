import ast
import dataclasses

import numpy as np
import pytest

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


def test_fault_injection_hook(monkeypatch):
    monkeypatch.setenv("CLWB_FAULT_NEGATE", "theorem2")
    bad = verify.run_suite("theorem2", seed=1, trials=50)
    assert not bad.ok
    assert bad.n_failed == 50
    assert bad.failures  # replayable dumps captured
    assert len(bad.failures) <= verify.MAX_FAILURES_KEPT
    ok = verify.run_suite("theorem1", seed=1, trials=50)
    assert ok.ok  # other suites unaffected


def test_failure_dump_is_replayable(monkeypatch):
    monkeypatch.setenv("CLWB_FAULT_NEGATE", "identity")
    result = verify.run_suite("identity", seed=4, trials=5)
    fields = _fields(result.failures[0])
    assert set(fields) == {"sizes", "wp", "tp", "truth", "gap"}
    # the literals replay through entropy_report to the dumped gap
    r, _ = _report(fields)
    assert abs(r.h_cil - (r.h_wp + r.h_tp)) == fields["gap"]


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
    # the padded rows give the bits entropy_report gives on the unpadded
    # instance, so an identity failure dump replays exactly
    rng = np.random.default_rng(5)
    n_tasks, sizes, wp, tp, k0, j0 = verify._instance_batch(rng, 400)
    flat = wp.reshape(len(wp), -1)
    with np.errstate(divide="ignore"):
        d = th.decompose_rows(flat, np.log(flat), verify._PAD, k0, j0, tp=tp)
    drawn = []
    for i in range(len(wp)):
        topo = th.TaskTopology(tuple(int(s) for s in sizes[i, :n_tasks[i]]))
        parts = [wp[i, k, :topo.sizes[k]] for k in range(topo.n_tasks)]
        parts.append(tp[i, :topo.n_tasks])
        drawn += parts
        assert not tp[i, topo.n_tasks:].any()
        assert not any(wp[i, k, s:].any() for k, s in enumerate(sizes[i]))
        r = th.entropy_report(th.GroundTruth(int(k0[i]), int(j0[i])), topo,
                              wp=parts[:-1], tp=parts[-1])
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
def test_batches_cover_every_trial(monkeypatch, name):
    monkeypatch.setattr(verify, "BATCH", 7)
    monkeypatch.setenv("CLWB_FAULT_NEGATE", name)
    result = verify.run_suite(name, seed=3, trials=20)
    assert result.n_failed == 20
    assert len(result.failures) == verify.MAX_FAILURES_KEPT
    for dump in result.failures:
        fields = _fields(dump)
        assert fields and all(key.isidentifier() for key in fields)


def _report(fields):
    """The scalar entropy_report of a dumped (sizes, wp, tp, truth)."""
    topo = th.TaskTopology(tuple(fields["sizes"]))
    truth = th.GroundTruth(*fields["truth"])
    r = th.entropy_report(truth, topo, wp=[np.array(w) for w in fields["wp"]],
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
    return th.check_theorem1(r, r.h_wp, r.h_tp), {"report": _vars(r)}


def _oracle_corollary1(f):
    reports = [_report(inst)[0] for inst in f["instances"]]
    eps = float(np.mean([r.h_wp for r in reports]))
    delta = float(np.mean([r.h_tp for r in reports]))
    return th.check_corollary1(reports, eps=eps, delta=delta), {
        "reports": [_vars(r) for r in reports], "eps": eps, "delta": delta}


def _oracle_theorem2(f):
    tp, q, k0 = np.array(f["tp"]), np.array(f["profile"]), f["k0"]
    h_ood = th.ood_entropies(th.ood_from_tp(tp), k0)
    bound = th.theorem2_bound(th.ood_entropies(q, k0), k0)
    h_tp2 = th.cross_entropy(k0, th.tp_from_ood(q))
    ok = (h_ood <= th.cross_entropy(k0, tp) + verify.IDENTITY_TOL).all() \
        and h_tp2 <= bound + verify.IDENTITY_TOL
    return ok, {"h_ood": h_ood.tolist(), "bound": bound, "h_tp2": h_tp2}


def _oracle_theorem3(f):
    r, truth = _report(f)
    return th.check_theorem3(r, r.h_wp, r.h_ood, truth), {"report": _vars(r)}


def _oracle_theorem4(f):
    topo = th.TaskTopology(tuple(f["sizes"]))
    c = th.theorem4_construct(f["cil"], topo, th.GroundTruth(*f["truth"]))
    return c.all_ok, {"h": (c.h_wp, c.h_tp, c.h_ood.tolist())}


def _oracle_theorem5(f):
    tp, taus, q, k0 = (np.array(f["tp"]), np.array(f["taus"]),
                       np.array(f["profile"]), f["k0"])
    profile, bounds = th.theorem5_ood_from_tp(tp, taus, th.GroundTruth(k0, 0))
    h_ood = th.ood_entropies(profile, k0)
    bound = th.theorem5_bound(th.ood_entropies(q, k0), taus, k0)
    h_tp = th.cross_entropy(k0, th.theorem5_tp_from_ood(q, taus))
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


@pytest.mark.parametrize("name", ["theorem1", "corollary1", "theorem3",
                                  "theorem4"])
def test_first_trial_of_each_batch_meets_the_scalar_predicate(monkeypatch,
                                                              name):
    # the scalar predicate giving h values one ulp off the batch's, as from a
    # drifting batched kernel, fails the first trial of every batch
    def off_by_one_ulp(build, key):
        def wrapped(*args, **kwargs):
            out = build(*args, **kwargs)
            return dataclasses.replace(
                out, **{key: np.nextafter(getattr(out, key), np.inf)})
        return wrapped

    if name == "theorem4":
        monkeypatch.setattr(th, "theorem4_construct", off_by_one_ulp(
            th.theorem4_construct, "h_tp"))
    else:
        monkeypatch.setattr(th, "entropy_report", off_by_one_ulp(
            th.entropy_report, "h_cil"))
    monkeypatch.setattr(verify, "BATCH", 50)
    batches = []
    for draw in ("_instance_batch", "_cil_batch"):
        real = getattr(verify, draw)
        monkeypatch.setattr(verify, draw, lambda rng, n, real=real:
                            batches.append(n) or real(rng, n))
    result = verify.run_suite(name, seed=1, trials=120)
    assert len(batches) >= 3 and result.n_failed == len(batches)
