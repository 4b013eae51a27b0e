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
    dump = result.failures[0]
    # dumps are plain reprs: eval'able back into python structures
    assert "wp=" in dump and "tp=" in dump and "gap=" in dump


def test_bad_arguments():
    with pytest.raises(ValueError):
        verify.run_suite("theorem9", seed=0, trials=10)
    with pytest.raises(ValueError):
        verify.run_suite("theorem1", seed=0, trials=0)


def test_instances_span_sharpness_and_stay_above_floor():
    rng = np.random.default_rng(0)
    smallest = 1.0
    for _ in range(500):
        _, wp, tp, _ = verify._instance(rng)
        for p in wp + [tp]:
            assert abs(p.sum() - 1.0) < 1e-9
            smallest = min(smallest, p.min())
    assert smallest >= verify.FLOOR / 2  # floor keeps the clamp from binding
    assert smallest < 1e-4  # while still exercising sharp distributions


def test_batched_instances_decompose_as_entropy_report():
    # the padded rows give the bits entropy_report gives on the unpadded
    # instance, so an identity failure dump replays exactly
    rng = np.random.default_rng(5)
    n_tasks, sizes, wp, tp, k0, j0 = verify._instance_batch(rng, 400)
    flat = wp.reshape(len(wp), -1)
    with np.errstate(divide="ignore"):
        d = th.decompose_rows(flat, np.log(flat), verify._PAD, k0, j0, tp=tp)
    smallest = 1.0
    for i in range(len(wp)):
        topo = th.TaskTopology(tuple(int(s) for s in sizes[i, :n_tasks[i]]))
        parts = [wp[i, k, :topo.sizes[k]] for k in range(topo.n_tasks)]
        parts.append(tp[i, :topo.n_tasks])
        for p in parts:
            assert abs(p.sum() - 1.0) < 1e-9
            smallest = min(smallest, p.min())
        assert not tp[i, topo.n_tasks:].any()
        assert not any(wp[i, k, s:].any() for k, s in enumerate(sizes[i]))
        r = th.entropy_report(th.GroundTruth(int(k0[i]), int(j0[i])), topo,
                              wp=parts[:-1], tp=parts[-1])
        assert (r.h_wp, r.h_tp, r.h_cil) == (d.h_wp[i], d.h_tp[i], d.h_cil[i])
    assert smallest >= verify.FLOOR / 2
    assert smallest < 1e-4
    assert set(n_tasks) == set(range(1, 7))
    assert set(sizes.ravel()) == set(range(1, 6))


def test_identity_batches_cover_every_trial(monkeypatch):
    monkeypatch.setattr(verify, "BATCH", 7)
    monkeypatch.setenv("CLWB_FAULT_NEGATE", "identity")
    result = verify.run_suite("identity", seed=3, trials=20)
    assert result.n_failed == 20
    assert len(result.failures) == verify.MAX_FAILURES_KEPT
