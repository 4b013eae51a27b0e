"""Evaluation's batched CIL decomposition, checked end to end through
``experiment.eval_run``."""

import dataclasses
import importlib
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clwb
import oracles
from clwb import backbones as bb
from clwb import checkpoint as ck
from clwb import composer as cp
from clwb import data as dt
from clwb import experiment as ex
from clwb import metrics as mt
from clwb import numkit as nk
from clwb import oodlab as ol
from clwb import theory as th
from clwb import verify
from clwb.checkpoint import load_checkpoint
from clwb.config import TPS, ConfigError, parse_config


def _with_predict(text, tp):
    return text + f"\n[predict]\ntp = {tp}\n"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small synthetic HAT run shared by the tests below."""
    out = tmp_path_factory.mktemp("run")
    text = f"""
[experiment]
seed = 11
out = {out}

[data]
source = synthetic
dim = 4
separation = 8.0
per_class = 40

[tasks]
count = 3
classes_per_task = 2

[backbone]
kind = hat
hidden = 16
epochs = 15
lr = 0.1
batch = 8
"""
    art = ex.train_run(parse_config(text), out)
    return text, art["final"]


def _spy_route_report(monkeypatch):
    """Each ``_route_report`` call: its inputs as ``_old_predict_all`` takes
    them, the per-row entropy report it built, and the report."""
    calls, built = [], []
    real_route, real_entropy = ex._route_report, th.entropy_report

    def entropy_spy(*args, **kwargs):
        built.append(real_entropy(*args, **kwargs))
        return built[-1]

    def spy(cfg, s, route, calibration):
        report = real_route(cfg, s, route, calibration)
        (rows,) = built
        built.clear()
        calls.append(((cfg, route, s.per_task_logits, s.per_task_scores,
                       s.topo, s.test_task_of, s.truth_local, calibration),
                      rows, report))
        return report

    monkeypatch.setattr(th, "entropy_report", entropy_spy)
    monkeypatch.setattr(ex, "_route_report", spy)
    return calls


# The per-row loop that evaluation ran before the batched decomposition,
# kept here as the oracle; the TP constructions, which take row batches
# only, get each row as a one-row batch.
def _old_tp_for(cfg, row_logits, row_scores):
    kind = cfg.predict.tp
    one_row = [v[None] for v in row_logits]
    if kind == "sigmoid-maxlogit":
        return cp.tp_sigmoid_maxlogit(one_row)[0][0]
    if kind == "maxsoftmax-temp":
        return cp.tp_maxsoftmax_temperature(one_row, cfg.predict.tau)[0][0]
    return th.tp_from_ood(np.clip(row_scores, 0.0, 1.0)[None])[0]


def _old_predict_all(cfg, route, per_task_logits, per_task_scores, topo,
                     test_task_of, truth_local, calibration):
    n = per_task_logits[0].shape[0]
    predictions = np.empty(n, dtype=np.intp)
    reports = []
    for i in range(n):
        row_logits = [per_task_logits[k][i] for k in range(topo.n_tasks)]
        truth = oracles.GroundTruth(int(test_task_of[i]), int(truth_local[i]))
        if route == "compose":
            wp = [cp.wp_temperature(v, cfg.predict.nu) for v in row_logits]
            tp = _old_tp_for(cfg, row_logits,
                             np.array([s[i] for s in per_task_scores]))
            cil = oracles.compose_cil(wp, tp, topo, validate=False)
            predictions[i] = int(np.argmax(cil))
            reports.append(oracles.entropy_report(truth, topo, wp=wp, tp=tp,
                                                  validate=False))
        else:
            if route == "calibrated":
                concat = cp.calibrated_logits(row_logits, calibration)
            else:
                concat = np.concatenate(row_logits)
            predictions[i] = int(np.argmax(concat))
            cil = np.exp(concat - concat.max())
            cil /= cil.sum()
            construction = oracles.theorem4_construct(cil, topo, truth)
            reports.append(oracles.entropy_report(
                truth, topo, wp=construction.wp_normalized,
                tp=construction.tp / construction.tp.sum(), cil=cil,
                validate=False))
    return predictions, reports


@pytest.mark.parametrize("tp", TPS)
@pytest.mark.parametrize("route", ex.ROUTES)
def test_batched_eval_matches_the_per_row_loop(trained, monkeypatch, route, tp):
    text, final = trained
    cfg = parse_config(_with_predict(text, tp))
    calls = _spy_route_report(monkeypatch)
    calibration = cp.CalibrationParams([1.3, 0.8, 1.1], [0.2, -0.1, 0.0]) \
        if route == "calibrated" else None
    report = ex.eval_run(cfg, final, route=route, calibration=calibration)
    (args, rows, spied), = calls
    assert spied is report
    old_predictions, old_reports = _old_predict_all(*args)

    np.testing.assert_array_equal(rows.predictions, old_predictions)
    assert report.notes.get("tp_uniform_fallbacks", 0) == 0
    old = {name: np.array([getattr(r, name) for r in old_reports])
           for name in ("h_wp", "h_tp", "h_cil")}
    # a row whose old h_cil hit the clamp is where the log-space rule applies
    kept = old["h_cil"] < th.H_MAX
    for name in old:
        new = getattr(rows, name)
        np.testing.assert_array_equal(new[kept], old[name][kept])
        assert getattr(report, f"{name}_mean") == float(np.mean(new))
    np.testing.assert_allclose(rows.h_cil, rows.h_wp + rows.h_tp,
                               rtol=1e-12, atol=1e-12)
    if kept.all():
        assert report.h_cil_mean == float(np.mean(old["h_cil"]))
    assert report.notes == {}


TABULAR = """
[experiment]
seed = {seed}
out = {out}

[data]
source = synthetic
dim = 8
separation = 6.0
per_class = 100
test_per_class = 200

[tasks]
count = 5
classes_per_task = 2

[backbone]
kind = hat
hidden = 64, 64
epochs = 5
lr = 0.05
batch = 16
"""


@pytest.mark.parametrize("seed", [1, 6])
def test_compose_identity_holds_under_the_log_clamp(tmp_path, seed):
    # with nu = 0.1 these runs put some rows' WP x TP under LOG_CLAMP; the
    # clamped report missed the identity by 0.0185 (seed 1), 0.0513 (seed 6)
    cfg = parse_config(TABULAR.format(seed=seed, out=tmp_path))
    art = ex.train_run(cfg, tmp_path)
    rep = ex.eval_run(cfg, art["final"], scorer="msp", route="compose")
    gap = rep.h_cil_mean - rep.h_wp_mean - rep.h_tp_mean
    assert abs(gap) <= verify.IDENTITY_TOL
    assert rep.h_cil_mean > 0.0


def test_concat_identity_holds_under_the_log_clamp(trained, monkeypatch):
    # task 0 logits [0, -50], task 1 logits [0, 0], truth (0, 1): the
    # clamped report missed the identity by log 3
    cfg = parse_config(trained[0])
    topo = th.TaskTopology((2, 2))
    fields = dict(seed=0, backbone="hat", loss="ce", scorer="msp", n_test=1,
                  til_per_task=[], til_avg=0.0, auc_per_task=[], auc_avg=0.5,
                  forgetting=[], odin_params={}, config_text="")
    scored = ex._Scored(fields, topo, np.array([0]), np.array([1]),
                        [np.array([[0.0, -50.0]]), np.array([[0.0, 0.0]])],
                        None)
    calls = _spy_route_report(monkeypatch)
    ex._route_report(cfg, scored, "concat-argmax", None)
    (_, rows, _), = calls
    assert rows.h_cil[0] == rows.h_wp[0] + rows.h_tp[0]
    assert rows.h_cil[0] == pytest.approx(50.0 + np.log(3.0))


def test_all_zero_detector_rows_fall_back_to_uniform_tp(trained, monkeypatch):
    text, final = trained
    cfg = parse_config(_with_predict(text, "scorer"))
    real = ex._score_loaded

    def zero_first_rows(*args):
        scored = real(*args)
        for s in scored:
            s.per_task_scores = [scores.copy() for scores in s.per_task_scores]
            for scores in s.per_task_scores:
                scores[:4] = 0.0
        return scored

    monkeypatch.setattr(ex, "_score_loaded", zero_first_rows)
    calls = _spy_route_report(monkeypatch)
    report = ex.eval_run(cfg, final, route="compose")
    assert report.notes == {"tp_uniform_fallbacks": 4}
    assert '"tp_uniform_fallbacks": 4' in report.to_json()
    (args, rows, _), = calls
    np.testing.assert_array_equal(rows.h_tp[:4], np.log(3.0))
    # the theorem-4 routes never read detector scores
    assert ex.eval_run(cfg, final, route="concat-argmax").notes == {}


def test_cil_is_scored_in_flat_class_ids(trained, monkeypatch):
    # class_map holds dataset class ids; predictions index the concatenated
    # heads, so truth must come from the topology, whatever the class ids
    text, final = trained
    cfg = parse_config(text)
    plain = ex.eval_run(cfg, final)
    plain_params = ex.calibrate_run(cfg, final)[0]
    real = ex.build_tasks

    def relabelled(c):
        seq = real(c)
        return dataclasses.replace(
            seq, class_map=[list(reversed(m)) for m in reversed(seq.class_map)])

    monkeypatch.setattr(ex, "build_tasks", relabelled)
    assert ex.eval_run(cfg, final).cil == plain.cil
    # calibration's buffer labels index the same concatenation
    params = ex.calibrate_run(cfg, final)[0]
    np.testing.assert_array_equal(params.alpha, plain_params.alpha)
    np.testing.assert_array_equal(params.beta, plain_params.beta)


def test_task_auc_is_own_test_rows_against_the_other_tasks(trained):
    # the rule computed independently: task k's msp on its own test rows
    # against every other task's test rows, by the rank-sum AUC
    text, final = trained
    cfg = parse_config(text)
    report = ex.eval_run(cfg, final, scorer="msp")
    net, _ = load_checkpoint(final)
    tests = [test.images for _, test in ex.build_tasks(cfg).tasks]
    assert len(report.auc_per_task) == len(tests)
    for k, got in enumerate(report.auc_per_task):
        own = ol.msp_score(ol.class_logits(net, tests[k], k))
        rest = np.concatenate([t for j, t in enumerate(tests) if j != k])
        other = ol.msp_score(ol.class_logits(net, rest, k))
        want = mt.auc_ranksum(mt.ScoredPopulation(own, other))
        assert got == pytest.approx(want, abs=1e-12)


def test_calibrate_loads_once_and_reports_as_eval_run(trained, monkeypatch):
    text, final = trained
    cfg = parse_config(text)
    before = ex.eval_run(cfg, final, route="concat-argmax")
    calls = {"load_checkpoint": 0, "build_tasks": 0}
    for name in calls:
        def counted(*args, real=getattr(ex, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(ex, name, counted)
    params, got_before, got_after, _ = ex.calibrate_run(cfg, final)
    assert calls == {"load_checkpoint": 1, "build_tasks": 1}
    monkeypatch.undo()
    assert got_before.to_json() == before.to_json()
    after = ex.eval_run(cfg, final, route="calibrated", calibration=params)
    assert got_after.to_json() == after.to_json()


@pytest.mark.parametrize("scorer", ["msp", "odin"])
def test_calibrate_scores_the_test_set_once(trained, monkeypatch, scorer):
    text, final = trained
    _usable_cores(monkeypatch, 1)  # the spies count this process's calls
    cfg = parse_config(text + f"\n[ood]\nscorer = {scorer}\nodin_grid = true\n")
    n_tasks = 3
    calls = {"task_features": 0, "odin_score": 0}
    for module, name in ((bb, "task_features"), (ol, "odin_score")):
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    params, before, after, _ = ex.calibrate_run(cfg, final)
    grid = len(ol.ODIN_TAU_GRID) * len(ol.ODIN_EPS_GRID)
    # one forward per task over the buffer, one per task over the test set;
    # odin adds its grid's 16 per task and one at the perturbed test rows
    # of each task whose chosen eps > 0
    odin_forwards = (n_tasks * 16 + sum(p["eps"] > 0 for p in
                                        before.odin_params.values())
                     if scorer == "odin" else 0)
    assert calls["task_features"] == n_tasks + n_tasks + odin_forwards
    # odin: the grid once per task, then the chosen candidate once per task
    assert calls["odin_score"] == (n_tasks * grid + n_tasks
                                   if scorer == "odin" else 0)
    monkeypatch.undo()
    assert before.to_json() == ex.eval_run(cfg, final,
                                           route="concat-argmax").to_json()
    assert after.to_json() == ex.eval_run(cfg, final, route="calibrated",
                                          calibration=params).to_json()


PLAIN_SCORERS = [s for s in ex.SCORERS if s != "rotation-ensemble"]


def _counted_forwards(monkeypatch):
    count = [0]
    real = bb.task_features

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(bb, "task_features", counted)
    return count


@pytest.mark.parametrize("scorer, forwards",
                         [("msp", 3), ("maxlogit", 3), ("odin", 6)])
def test_plain_head_scorers_reuse_the_class_logits(trained, monkeypatch,
                                                   scorer, forwards):
    # one per task, shared with the scorer; ODIN at its default eps > 0
    # adds one at the perturbed rows
    text, final = trained
    cfg = parse_config(text)
    assert cfg.ood.odin_eps > 0
    want = ex.eval_run(cfg, final, scorer=scorer).to_json()
    count = _counted_forwards(monkeypatch)
    assert ex.eval_run(cfg, final, scorer=scorer).to_json() == want
    assert count[0] == forwards


def _separate_forwards_score_task(net, images, task, scorer, odin):
    """Task scoring as it was before the scorers shared the class-logit
    forward, the oracle: class_logits, then each scorer's own forward."""
    logits = ol.class_logits(net, images, task)
    if scorer in ("msp", "maxlogit"):
        z = bb.task_raw_logits(net, images, task) \
            if net.heads[task].kind == "rotation" else logits
        scores = ol.msp_score(z) if scorer == "msp" else \
            1.0 / (1.0 + np.exp(-z.max(axis=1)))
    elif scorer == "odin":
        scores = _old_odin_score(net, images, task, odin[task])
    else:
        scores = ol.msp_score(logits)
    return logits, scores


@pytest.mark.parametrize("run, scorer", [
    ("trained", "msp"), ("trained", "maxlogit"), ("trained", "odin"),
    ("rotation_run", "msp"), ("rotation_run", "maxlogit"),
    ("rotation_run", "odin"), ("rotation_run", "rotation-ensemble")])
def test_one_forward_scoring_has_the_separate_forwards_bits(run, scorer,
                                                            request):
    text, final = request.getfixturevalue(run)
    cfg = parse_config(text)
    net, meta = load_checkpoint(final)
    seq = ex.build_tasks(cfg)
    images, _, _ = ex._pooled([test for _, test in seq.tasks])
    odin = {k: ol.OdinParams(cfg.ood.odin_tau, cfg.ood.odin_eps)
            for k in range(seq.n_tasks)}
    # scored alone, and in the grid of every scorer the heads take
    grid = list(ex.SCORERS) if run == "rotation_run" else PLAIN_SCORERS
    in_grid = {s.report_fields["scorer"]: s
               for s in ex._score_loaded(cfg, net, meta, seq, grid)}
    (alone,) = ex._score_loaded(cfg, net, meta, seq, [scorer])
    for scored in (alone, in_grid[scorer]):
        for k in range(seq.n_tasks):
            got = scored.per_task_logits[k], scored.per_task_scores[k]
            want = _separate_forwards_score_task(net, images, k, scorer, odin)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("scorer, forwards",
                         [("msp", 12), ("maxlogit", 12), ("odin", 15),
                          ("rotation-ensemble", 12)])
def test_rotation_head_scorers_reuse_the_degree_0_forward(
        rotation_run, monkeypatch, scorer, forwards):
    # per task: the four quarter turns of the ensemble, the scorers reading
    # the degree-0 one; ODIN at its default eps > 0 adds one at the
    # perturbed rows
    text, final = rotation_run
    cfg = parse_config(text)
    count = _counted_forwards(monkeypatch)
    ex.eval_run(cfg, final, scorer=scorer)
    assert count[0] == forwards


def test_rotation_ensemble_needs_rotation_heads(trained, monkeypatch):
    # a usage error raised when the checkpoint loads, before any forward
    text, final = trained
    forwards = []
    monkeypatch.setattr(bb, "task_features",
                        lambda *args, **kwargs: forwards.append(args))
    with pytest.raises(ConfigError, match="task 0 head has no rotation slots"):
        ex.eval_run(parse_config(text), final, scorer="rotation-ensemble")
    # parse_config rejects this scorer on synthetic data, so set it after
    cfg = parse_config(text)
    cfg.ood.scorer = "rotation-ensemble"
    with pytest.raises(ConfigError, match="task 0 head has no rotation slots"):
        ex.calibrate_run(cfg, final)
    assert forwards == []


@pytest.mark.parametrize("run", ["eval_run", "calibrate_run"])
@pytest.mark.parametrize("edit, checkpoint, message", [
    (None, "task1.clwb", "checkpoint has 1 finished tasks for 3 tasks"),
    (("count = 3", "count = 2"), "final.clwb",
     "checkpoint has 3 finished tasks for 2 tasks"),
    (("classes_per_task = 2", "classes_per_task = 3"), "final.clwb",
     "checkpoint task 0 head has 2 classes for 3"),
    (("dim = 4", "dim = 5"), "final.clwb",
     "checkpoint trunk has input width 4 for 5"),
], ids=["per-task-checkpoint", "fewer-tasks", "more-classes", "wider-data"])
def test_a_checkpoint_that_does_not_fit_the_config_is_refused(
        trained, monkeypatch, run, edit, checkpoint, message):
    # a usage error raised when the checkpoint loads, before any forward
    text, final = trained
    cfg = parse_config(text.replace(*edit) if edit else text)
    forwards = []
    monkeypatch.setattr(bb, "task_features",
                        lambda *args, **kwargs: forwards.append(args))
    with pytest.raises(ConfigError, match=f"^{message} in the config$"):
        getattr(ex, run)(cfg, Path(final).with_name(checkpoint))
    assert forwards == []


@pytest.mark.parametrize("run", ["trained", "hat_odin_run", "rotation_run"])
def test_every_grid_cell_is_its_one_cell_eval_run(run, request):
    # hat_odin_run with the ODIN grid on, so ODIN's choice differs per task
    text, final = request.getfixturevalue(run)
    grid = "\n[ood]\nodin_grid = true\n" if run == "hat_odin_run" else ""
    cfg = parse_config(text + grid)
    scorers = list(ex.SCORERS) if run == "rotation_run" else PLAIN_SCORERS
    params = ex.calibrate_run(cfg, final)[0]
    reports = ex.eval_grid(cfg, final, scorers=scorers,
                           routes=list(ex.ROUTES), calibration=params)
    cells = [(s, r) for s in scorers for r in ex.ROUTES]
    assert [(rep.scorer, rep.route) for rep in reports] == cells
    for rep, (scorer, route) in zip(reports, cells):
        want = ex.eval_run(cfg, final, scorer=scorer, route=route,
                           calibration=params if route == "calibrated"
                           else None)
        assert rep.to_json() == want.to_json()


# calibration parameters that leave every task's logits as they are
IDENTITY = cp.CalibrationParams(np.ones(3), np.zeros(3))


def test_a_plain_head_grid_runs_one_test_forward_per_task(trained,
                                                          monkeypatch):
    # msp, maxlogit and odin read one forward per task at the test rows;
    # ODIN at its default eps > 0 adds one at the perturbed rows
    text, final = trained
    cfg = parse_config(text)
    assert cfg.ood.odin_eps > 0
    images, _, _ = ex._pooled([t for _, t in ex.build_tasks(cfg).tasks])
    rows, real = [], bb.task_features

    def spy(net, x, task, *args):
        rows.append((task, np.array_equal(x, images)))
        return real(net, x, task, *args)

    monkeypatch.setattr(bb, "task_features", spy)
    ex.eval_grid(cfg, final, scorers=PLAIN_SCORERS, routes=list(ex.ROUTES),
                 calibration=IDENTITY)
    assert sorted(rows) == [(k, at_test) for k in range(3)
                            for at_test in (False, True)]


def test_one_odin_choice_per_grid(hat_odin_run, monkeypatch):
    text, final = hat_odin_run
    cfg = parse_config(text + "\n[ood]\nodin_grid = true\n")
    calls, real = [], ex._scorer_params

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ex, "_scorer_params", spy)
    reports = ex.eval_grid(cfg, final, scorers=["odin", "msp"],
                           routes=list(ex.ROUTES), calibration=IDENTITY)
    assert len(calls) == 1
    odin = reports[0].odin_params
    assert len({tuple(p.values()) for p in odin.values()}) > 1
    assert [rep.odin_params for rep in reports] == [odin] * 3 + [{}] * 3
    ex.eval_grid(cfg, final, scorers=["msp", "maxlogit"],
                 routes=list(ex.ROUTES), calibration=IDENTITY)
    assert len(calls) == 1


@pytest.mark.parametrize("scorers, routes, calibration, message", [
    (["msp", "rotation-ensemble"], ["concat-argmax"], None,
     "task 0 head has no rotation slots"),
    (["msp"], ["concat-argmax", "compose"], [1.0] * 3,
     "apply only to route 'calibrated', not 'concat-argmax', 'compose'$"),
    (["msp", "odin"], ["compose", "calibrated"], [1.0] * 2,
     "^calibration has 2 task entries for 3 tasks$"),
    (["msp"], ["concat-argmax", "calibrated"], None,
     "^route 'calibrated' needs calibration parameters: pass --calibration$"),
], ids=["rotation-ensemble-on-plain-heads", "no-calibrated-route",
        "calibration-of-2-tasks", "calibrated-without-parameters"])
def test_a_bad_grid_is_refused_before_any_forward(
        trained, monkeypatch, scorers, routes, calibration, message):
    text, final = trained
    forwards = []
    monkeypatch.setattr(bb, "task_features",
                        lambda *args, **kwargs: forwards.append(args))
    if calibration is not None:
        calibration = cp.CalibrationParams(calibration, [0.0] * len(calibration))
    with pytest.raises(ConfigError, match=message):
        ex.eval_grid(parse_config(text), final, scorers=scorers,
                     routes=routes, calibration=calibration)
    assert forwards == []


@pytest.fixture(scope="module")
def rotation_run(tmp_path_factory):
    """Three 2-class tasks of 4x4 hot-pixel images on a supermask net trained
    with the contrastive loss, so every task has a rotation head."""
    root = tmp_path_factory.mktemp("rotation")
    rng = np.random.default_rng(3)
    files = {}
    for name, per_class in (("train", 20), ("test", 8)):
        labels = np.repeat(np.arange(6), per_class)
        images = rng.uniform(0.0, 0.2, size=(labels.size, 16))
        images[np.arange(labels.size), 2 * labels] = 1.0
        for part, blob in (("images", images.reshape(-1, 4, 4)),
                           ("labels", labels)):
            path = root / f"{name}-{part}.idx"
            path.write_bytes(dt.serialize_idx(blob))
            files[f"{name}_{part}"] = path
    text = f"""
[experiment]
seed = 5
out = {root / 'run'}

[data]
source = idx
train_images = {files['train_images']}
train_labels = {files['train_labels']}
test_images = {files['test_images']}
test_labels = {files['test_labels']}

[tasks]
count = 3
classes_per_task = 2

[backbone]
kind = sup
hidden = 16
epochs = 2
lr = 0.1
batch = 8

[loss]
kind = contrastive

[calibrate]
buffer = 12
"""
    art = ex.train_run(parse_config(text), root / "run")
    return text, art["final"]


@pytest.fixture(scope="module")
def hat_odin_run(tmp_path_factory):
    """Three 3-class tasks of overlapping Gaussians on a HAT net: plain heads
    whose ODIN candidates score apart, so the grid picks different ones."""
    out = tmp_path_factory.mktemp("hat-odin")
    text = f"""
[experiment]
seed = 11
out = {out}

[data]
source = synthetic
dim = 4
separation = 2.0
per_class = 40

[tasks]
count = 3
classes_per_task = 3

[backbone]
kind = hat
hidden = 16
epochs = 5
lr = 0.1
batch = 8
"""
    return text, ex.train_run(parse_config(text), out)["final"]


@pytest.fixture(params=["hat_odin_run", "rotation_run"])
def odin_net(request):
    """(config with the ODIN grid on, net, task sequence) for a plain-head
    HAT run and a rotation-head supermask run."""
    text, final = request.getfixturevalue(request.param)
    cfg = parse_config(text + "\n[ood]\nodin_grid = true\n"
                       "validation_fraction = 0.2\n")
    net, _ = load_checkpoint(final)
    return cfg, net, ex.build_tasks(cfg)


def _per_split_grid(cfg, net, seq):
    """The ODIN grid as it was before pooling, the oracle: every candidate
    scored once per validation split."""
    splits = [dt.validation_split(seq.tasks[k][0], cfg.ood.validation_fraction,
                                  seed=cfg.seed)[1] for k in range(seq.n_tasks)]
    params = {}
    for k in range(seq.n_tasks):
        best = None
        for tau in ol.ODIN_TAU_GRID:
            for eps in ol.ODIN_EPS_GRID:
                cand = ol.OdinParams(tau, eps)
                ind = _old_odin_score(net, splits[k].images, k, cand)
                ood = np.concatenate(
                    [_old_odin_score(net, splits[j].images, k, cand)
                     for j in range(seq.n_tasks) if j != k])
                val_auc = mt.auc(mt.ScoredPopulation(ind, ood))
                if best is None or val_auc > best[0]:
                    best = (val_auc, cand)
        params[k] = best[1]
    return params


def _recording(monkeypatch, module, name, log):
    real = getattr(module, name)

    def spy(*args):
        result = real(*args)
        log.append(result)
        return result
    monkeypatch.setattr(module, name, spy)


def _grid_choice(cfg, net, seq):
    """Every task's ODIN choice, each grid row run in this process."""
    choice = ex._scorer_params(cfg, net, seq)
    return {k: choice(k) for k in range(seq.n_tasks)}


def test_pooled_odin_grid_matches_the_per_split_loop(odin_net, monkeypatch):
    cfg, net, seq = odin_net
    _usable_cores(monkeypatch, 1)
    old_aucs, new_aucs, scores = [], [], []
    _recording(monkeypatch, mt, "auc", old_aucs)
    want = _per_split_grid(cfg, net, seq)
    monkeypatch.undo()
    _recording(monkeypatch, mt, "auc", new_aucs)
    _recording(monkeypatch, ol, "odin_score", scores)
    got = _grid_choice(cfg, net, seq)
    assert got == want
    n_grid = len(ol.ODIN_TAU_GRID) * len(ol.ODIN_EPS_GRID)
    assert len(scores) == seq.n_tasks * n_grid
    assert len(new_aucs) == len(old_aucs) == seq.n_tasks * n_grid
    np.testing.assert_allclose(new_aucs, old_aucs, rtol=0, atol=1e-12)


# ODIN scoring as it was before the grid shared its work, kept here as the
# oracle: each candidate runs its own forward at x and, for eps > 0, its own
# input gradient of log max-softmax and its forward at the perturbed rows.
def _old_odin_score(net, x, task, params):
    x = np.asarray(x, dtype=np.float64)
    if params.eps > 0.0:
        head, tau = net.heads[task], params.tau
        feats, cache, trunk = bb.task_features(net, x, task)
        z = feats @ head.weight.T + head.bias
        dlogits = -nk.softmax(z / tau) / tau
        dlogits[np.arange(z.shape[0]), z.argmax(axis=1)] += 1.0 / tau
        g = nk.input_gradient(trunk, cache, dlogits @ head.weight)
        x = x - params.eps * np.sign(-g).reshape(x.shape)
    logits = bb.task_raw_logits(net, x, task)
    return ol.msp_score(np.asarray(logits) / params.tau)


def _grid_rows(cfg, seq):
    """The pooled validation rows and their owners, as the grid pools them."""
    pooled, owner, _ = ex._pooled(
        [dt.validation_split(seq.tasks[k][0], cfg.ood.validation_fraction,
                             seed=cfg.seed)[1] for k in range(seq.n_tasks)])
    return pooled, owner


def test_one_odin_rows_scores_every_candidate_as_alone(odin_net):
    cfg, net, seq = odin_net
    pooled, _ = _grid_rows(cfg, seq)
    for k in range(seq.n_tasks):
        rows = ol.OdinRows(net, pooled, k, ol.ODIN_TAU_GRID)
        for tau in ol.ODIN_TAU_GRID:
            for eps in ol.ODIN_EPS_GRID:
                cand = ol.OdinParams(tau, eps)
                assert np.array_equal(ol.odin_score(net, rows, k, cand),
                                      _old_odin_score(net, pooled, k, cand))


def test_odin_grid_task_runs_16_forwards_and_5_gradients(odin_net,
                                                         monkeypatch):
    # per task: one forward at x plus one per eps > 0 candidate, and one
    # input gradient per tau; scoring each candidate alone took 35 and 15
    cfg, net, seq = odin_net
    _usable_cores(monkeypatch, 1)
    n_tau = len(ol.ODIN_TAU_GRID)
    n_perturbed = n_tau * sum(eps > 0 for eps in ol.ODIN_EPS_GRID)
    assert (1 + n_perturbed, n_tau) == (16, 5)
    calls = {"task_features": 0, "input_gradient": 0}
    for module, name in ((bb, "task_features"), (nk, "input_gradient")):
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    _grid_choice(cfg, net, seq)
    assert calls == {"task_features": seq.n_tasks * 16,
                     "input_gradient": seq.n_tasks * 5}
    calls.update(task_features=0, input_gradient=0)
    pooled, _ = _grid_rows(cfg, seq)
    for tau in ol.ODIN_TAU_GRID:
        for eps in ol.ODIN_EPS_GRID:
            _old_odin_score(net, pooled, 0, ol.OdinParams(tau, eps))
    assert calls == {"task_features": 35, "input_gradient": 15}


def test_single_task_odin_grid_keeps_the_first_candidate(
        synth_config_text, tmp_path, monkeypatch):
    _usable_cores(monkeypatch, 1)
    text = synth_config_text(tasks=1, extra="[ood]\nodin_grid = true\n")
    cfg = parse_config(text)
    final = ex.train_run(cfg, tmp_path / "run")["final"]
    aucs = []
    _recording(monkeypatch, ex, "_task_auc", aucs)
    net, _ = load_checkpoint(final)
    # the grid's one path: every candidate ties at 0.5, the first wins
    assert _grid_choice(cfg, net, ex.build_tasks(cfg)) == {
        0: ol.OdinParams(1.0, 0.0)}
    assert aucs == [0.5] * len(ol.ODIN_TAU_GRID) * len(ol.ODIN_EPS_GRID)
    report = ex.eval_run(cfg, final, scorer="odin")
    assert report.odin_params == {"0": {"tau": 1.0, "eps": 0.0}}
    # no other task's rows: the task-AUC rule's undefined separation
    assert report.auc_per_task == [0.5]


@pytest.mark.parametrize("run", ["trained", "rotation_run"])
def test_calibration_buffer_logits_match_single_rows(run, request,
                                                     monkeypatch):
    text, final = request.getfixturevalue(run)
    buffers, calls = [], []
    build, fit = cp.MemoryBuffer.build, cp.fit_calibration

    def spy_build(*args):
        buffers.append(build(*args))
        return buffers[-1]

    def spy_fit(per_task_logits, labels, **kwargs):
        calls.append((per_task_logits, labels))
        return fit(per_task_logits, labels, **kwargs)
    monkeypatch.setattr(cp.MemoryBuffer, "build", staticmethod(spy_build))
    monkeypatch.setattr(cp, "fit_calibration", spy_fit)
    ex.calibrate_run(parse_config(text), final)
    (buffer,), ((batched, labels),) = buffers, calls
    np.testing.assert_array_equal(labels, buffer.labels)
    net, _ = load_checkpoint(final)
    assert len(batched) == len(net.heads)
    for k, rows in enumerate(batched):
        rotation = net.heads[k].kind == "rotation"
        assert rotation == (run == "rotation_run")
        single = np.concatenate([ol.class_logits(net, buffer.inputs[i:i + 1], k)
                                 for i in range(len(buffer.labels))])
        assert rows.shape == single.shape == (len(buffer.labels),
                                              net.heads[k].width
                                              // (4 if rotation else 1))
        np.testing.assert_allclose(rows, single, rtol=0, atol=1e-12)


def test_drop_classes_removes_and_renumbers(tmp_path):
    # eight classes of three 2x2 images; pixel (0, 0) encodes the class
    labels = np.repeat(np.arange(8), 3)
    images = np.zeros((labels.size, 2, 2))
    images[:, 0, 0] = labels * 20 / 255
    paths = {}
    for part, blob in (("images", images), ("labels", labels)):
        paths[part] = tmp_path / f"{part}.idx"
        paths[part].write_bytes(dt.serialize_idx(blob))
    cfg = parse_config(f"""
[experiment]
seed = 1
out = {tmp_path / 'run'}

[data]
source = idx
train_images = {paths['images']}
train_labels = {paths['labels']}
test_images = {paths['images']}
test_labels = {paths['labels']}

[tasks]
count = 3
classes_per_task = 2
drop_classes = 1, 4
""")
    seq = ex.build_tasks(cfg)
    assert seq.n_tasks == 3
    assert [c for g in seq.class_map for c in g] == list(range(6))
    survivors = np.array([0, 2, 3, 5, 6, 7])
    for k, (train, test) in enumerate(seq.tasks):
        for part in (train, test):
            original = np.round(part.images[:, 0, 0] * 255 / 20).astype(int)
            assert part.n_classes == 2 and part.labels.size == 6
            assert not np.isin(original, [1, 4]).any()
            np.testing.assert_array_equal(survivors[2 * k + part.labels],
                                          original)


def test_shuffle_classes_equals_a_relabelled_unshuffled_run(tmp_path):
    """Shuffling is a relabelling: class perm[i] of the shuffled run plays
    class i of an unshuffled run, so both train and score the same tasks."""
    seed, n_classes = 1, 6
    perm = np.random.default_rng(seed).permutation(n_classes)
    assert (perm != np.arange(n_classes)).any()
    rng = np.random.default_rng(4)
    labels = np.repeat(np.arange(n_classes), 6)
    protos = rng.random((n_classes, 4, 4))
    images = np.clip(protos[labels] + rng.normal(0, 0.1, (labels.size, 4, 4)),
                     0.0, 1.0)
    relabel = np.argsort(perm)  # class perm[i] becomes i

    def run(name, shuffle, ys):
        paths = {}
        for part, blob in (("images", images), ("labels", ys)):
            paths[part] = tmp_path / f"{name}-{part}.idx"
            paths[part].write_bytes(dt.serialize_idx(blob))
        cfg = parse_config(f"""
[experiment]
seed = {seed}
out = {tmp_path / name}

[data]
source = idx
train_images = {paths['images']}
train_labels = {paths['labels']}
test_images = {paths['images']}
test_labels = {paths['labels']}

[tasks]
count = 3
classes_per_task = 2
shuffle_classes = {shuffle}

[backbone]
hidden = 8
epochs = 3
batch = 4

[calibrate]
buffer = 12
iters = 8
batch = 4
""")
        final = ex.train_run(cfg, cfg.out)["final"]
        reports = [ex.eval_run(cfg, final),
                   ex.eval_run(cfg, final, scorer="odin", route="compose")]
        params, before, after, history = ex.calibrate_run(cfg, final)
        reports += [before, after]
        with open(final, "rb") as f:
            meta, arrays = ck._unpack(f.read())
        return (meta, arrays, [dataclasses.asdict(r) for r in reports],
                (params.alpha, params.beta, history))

    meta, arrays, reports, calib = run("shuffled", "true", labels)
    want_meta, want_arrays, want_reports, want_calib = run(
        "relabelled", "false", relabel[labels])
    assert meta["extra"].pop("config") != want_meta["extra"].pop("config")
    assert meta == want_meta
    assert list(arrays) == list(want_arrays)
    for name, a in arrays.items():
        np.testing.assert_array_equal(a, want_arrays[name], err_msg=name)
    for report, want in zip(reports, want_reports):
        assert report.pop("config_text") != want.pop("config_text")
        assert report == want
    for a, b in zip(calib, want_calib):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("per_class, test_per_class, rows", [
    (3, 0, 1), (10, 0, 2), (10, 7, 7)])
def test_synthetic_test_rows_per_class(per_class, test_per_class, rows):
    # test_per_class = 0 means max(1, per_class // 4)
    cfg = parse_config(f"""
[experiment]
seed = 2

[data]
per_class = {per_class}
test_per_class = {test_per_class}
""")
    for train, test in ex.build_tasks(cfg).tasks:
        assert np.bincount(train.labels).tolist() == [per_class] * 2
        assert np.bincount(test.labels).tolist() == [rows] * 2


def test_loss_phase_values_of_0_train_as_the_backbone_values(rotation_run,
                                                             tmp_path):
    """contrastive_epochs, head_epochs and head_lr of 0 are the backbone's
    epochs and lr: written out, they train the same checkpoint bytes, and
    another head_epochs trains other bytes."""
    text, final = rotation_run
    names = ["task1.clwb", "task2.clwb", "task3.clwb", "final.clwb"]

    def unpacked(path):
        meta, arrays = ck._unpack(Path(path).read_bytes())
        meta["extra"].pop("config")  # the config text, kept for audit
        return meta, {k: (a.dtype, a.tobytes()) for k, a in arrays.items()}

    want = [unpacked(Path(final).with_name(name)) for name in names]
    for head_epochs, same in ((2, True), (1, False)):
        written = text.replace(
            "kind = contrastive\n",
            f"kind = contrastive\ncontrastive_epochs = 2\n"
            f"head_epochs = {head_epochs}\nhead_lr = 0.1\n")
        cfg = parse_config(written)
        assert (cfg.loss.contrastive_epochs, cfg.loss.head_epochs,
                cfg.loss.head_lr) == (2, head_epochs, 0.1)
        out = tmp_path / f"head-epochs-{head_epochs}"
        ex.train_run(cfg, out)
        got = [unpacked(out / name) for name in names]
        assert (got == want) == same


def test_checkpoints_hold_the_trace_accuracy_matrix(trained):
    # accuracy_matrix[j][a] is task j's TIL after task a, None for a < j:
    # each checkpoint's is (k + 1) x (k + 1), the transpose of the trace's
    # til_so_far lists, and the report's forgetting is read from it
    text, final = trained
    out = Path(final).parent
    trace = json.loads((out / "trace.json").read_text())
    til = [task["til_so_far"] for task in trace["tasks"]]
    paths = [out / f"task{k + 1}.clwb" for k in range(len(til))]
    for k, path in [*enumerate(paths), (len(til) - 1, final)]:
        matrix = load_checkpoint(path)[1]["extra"]["accuracy_matrix"]
        assert matrix == [[til[a][j] if a >= j else None
                           for a in range(k + 1)] for j in range(k + 1)]
    drops = [float(np.mean([matrix[j][j] - matrix[j][t - 1]
                            for j in range(t - 1)]))
             for t in range(2, len(til) + 1)]
    assert ex.eval_run(parse_config(text), final).forgetting == drops


# ---------------------------------------------------------------------------
# Supermask tasks train side by side, one forked process per task
# ---------------------------------------------------------------------------

def _usable_cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _counted_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _run_files(out):
    return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}


@pytest.fixture
def sup_ce_text(synth_config_text):
    return synth_config_text(tasks=4, epochs=5, backbone="sup")


@pytest.mark.parametrize("run", ["rotation_run", "sup_ce_text"])
def test_a_supermask_run_has_the_same_bytes_on_any_core_count(
        run, request, monkeypatch, tmp_path):
    text = request.getfixturevalue(run)
    text = text[0] if isinstance(text, tuple) else text
    cfg = parse_config(text)
    forks = _counted_forks(monkeypatch)
    files, reports = [], []
    for cores in (1, 4):
        _usable_cores(monkeypatch, cores)
        out = tmp_path / f"cores{cores}"
        art = ex.train_run(cfg, out)
        files.append(_run_files(out))
        reports.append(ex.eval_run(cfg, art["final"]).to_json())
        if cores == 1:
            assert forks == []
    # 3 or 4 tasks on 4 cores: one block per task, all but the first forked
    assert len(forks) == cfg.tasks.count - 1
    names = [f"task{k + 1}.clwb" for k in range(cfg.tasks.count)]
    assert sorted(files[0]) == sorted(names + ["final.clwb", "trace.json"])
    assert files[0] == files[1]
    assert reports[0] == reports[1]


def _files_on_cores(monkeypatch, cfg, out, core_counts):
    """Each core count's run files and fork count."""
    forks, runs = _counted_forks(monkeypatch), []
    for cores in core_counts:
        _usable_cores(monkeypatch, cores)
        before = len(forks)
        ex.train_run(cfg, out / f"cores{cores}")
        runs.append((_run_files(out / f"cores{cores}"), len(forks) - before))
    return runs


def test_every_supermask_task_trains_in_its_own_process(
        synth_config_text, monkeypatch, tmp_path):
    # 5 tasks: 2 and 3 usable cores do not divide them, 4 has one spare
    cfg = parse_config(synth_config_text(tasks=5, epochs=2, backbone="sup"))
    runs = _files_on_cores(monkeypatch, cfg, tmp_path, (1, 2, 3, 4))
    assert [forks for _, forks in runs] == [0, 4, 4, 4]
    assert len(runs[0][0]) == 5 + 2
    assert all(files == runs[0][0] for files, _ in runs)


def test_tasks_past_the_per_core_cap_train_in_blocks(
        synth_config_text, monkeypatch, tmp_path):
    # 9 tasks on 2 cores: one block per core, tasks 0-3 here, 4-8 forked
    cfg = parse_config(synth_config_text(tasks=9, epochs=1, backbone="sup"))
    assert 9 > ex._PROCESSES_PER_CORE * 2
    runs = _files_on_cores(monkeypatch, cfg, tmp_path, (1, 2))
    assert [forks for _, forks in runs] == [0, 1]
    assert len(runs[0][0]) == 9 + 2
    assert runs[0][0] == runs[1][0]


def _blas_threads_by_task(monkeypatch, cores, per_core):
    """Each task's BLAS thread count under _forked_tasks on cores usable
    cores, and this process's count after it."""
    _usable_cores(monkeypatch, cores)
    get = ex._blas_threads()[0]
    with ex._forked_tasks(3, per_core, lambda k: get(), "probing") as done:
        threads = [t for _, t in done]
    return threads, get()


def test_a_split_holds_every_process_to_one_blas_thread(monkeypatch):
    if ex._blas_threads() is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS this can hold")
    get, put = ex._blas_threads()
    before = get()
    put(2)
    try:
        assert _blas_threads_by_task(monkeypatch, 1, 1) == ([2, 2, 2], 2)
        assert _blas_threads_by_task(monkeypatch, 4, 0) == ([2, 2, 2], 2)
        assert _blas_threads_by_task(monkeypatch, 4, 1) == ([1, 1, 1], 2)
    finally:
        put(before)


def test_without_a_blas_it_can_hold_a_run_forks_nothing(
        sup_ce_text, monkeypatch, tmp_path):
    forks = _counted_forks(monkeypatch)
    monkeypatch.setattr(ex, "_blas_threads", lambda: None)
    runs = _files_on_cores(monkeypatch, parse_config(sup_ce_text), tmp_path,
                           (1, 4))
    assert forks == [] and runs[0] == runs[1]


def _fail_on(monkeypatch, task, failure):
    original = bb.train_task

    def train_task(net, k, data, **kw):
        if k == task:
            failure()
        return original(net, k, data, **kw)

    monkeypatch.setattr("clwb.experiment.bb.train_task", train_task)


def _blow_up():
    raise nk.NumericError("injected blow-up", 1)


# on 2 cores each of the 4 tasks trains in its own process: task 0 here,
# tasks 1, 2 and 3 in one child each
@pytest.mark.parametrize("task", [1, 2, 3])
def test_the_first_failing_task_keeps_the_earlier_checkpoints(
        task, sup_ce_text, monkeypatch, tmp_path):
    import multiprocessing
    _usable_cores(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    _fail_on(monkeypatch, task, _blow_up)
    out = tmp_path / "partial"
    with pytest.raises(nk.NumericError) as caught:
        ex.train_run(parse_config(sup_ce_text), out)
    assert type(caught.value) is nk.NumericError
    assert str(caught.value) == "injected blow-up (layer 1)"
    assert caught.value.layer == 1
    assert len(forks) == 3
    assert sorted(p.name for p in out.iterdir()) == \
        [f"task{k + 1}.clwb" for k in range(task)]
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_without_sending_is_named_by_its_tasks(
        sup_ce_text, monkeypatch, tmp_path):
    import multiprocessing
    _usable_cores(monkeypatch, 2)
    _fail_on(monkeypatch, 3, lambda: os._exit(3))
    out = tmp_path / "partial"
    with pytest.raises(ChildProcessError,
                       match=r"^the process training tasks \[3\] exited "
                             r"with code 3 before it sent task 3$"):
        ex.train_run(parse_config(sup_ce_text), out)
    # task 3 trains alone in its child, so only task 3 is lost with it
    assert sorted(p.name for p in out.iterdir()) == ["task1.clwb",
                                                     "task2.clwb",
                                                     "task3.clwb"]
    assert multiprocessing.active_children() == []


def test_a_hat_run_forks_nothing(synth_config_text, monkeypatch, tmp_path):
    _usable_cores(monkeypatch, 4)
    forks = _counted_forks(monkeypatch)
    ex.train_run(parse_config(synth_config_text(tasks=3, epochs=2)),
                 tmp_path / "hat")
    assert forks == []


def _counted_til_reads(monkeypatch):
    """(tasks finished, task read) of each TIL read in this process."""
    reads, real = [], ex._til

    def spy(net, seq, k):
        reads.append((len(net.finished), k))
        return real(net, seq, k)

    monkeypatch.setattr(ex, "_til", spy)
    return reads


def test_a_supermask_task_s_til_is_read_once_where_it_trained(
        sup_ce_text, monkeypatch, tmp_path):
    cfg = parse_config(sup_ce_text)
    _usable_cores(monkeypatch, 1)
    reads = _counted_til_reads(monkeypatch)
    ex.train_run(cfg, tmp_path / "one")
    assert reads == [(k + 1, k) for k in range(cfg.tasks.count)]
    monkeypatch.undo()
    _usable_cores(monkeypatch, 4)
    final = ex.train_run(cfg, tmp_path / "four")["final"]
    net, meta = load_checkpoint(final)
    seq = ex.build_tasks(cfg)
    fresh = [ex._til(net, seq, j) for j in range(seq.n_tasks)]
    assert meta["extra"]["accuracy_matrix"] == [
        [fresh[j] if a >= j else None for a in range(seq.n_tasks)]
        for j in range(seq.n_tasks)]


def test_a_hat_run_reads_every_finished_task_s_til_after_each_task(
        synth_config_text, monkeypatch, tmp_path):
    # training a HAT task moves units that earlier tasks read
    reads = _counted_til_reads(monkeypatch)
    ex.train_run(parse_config(synth_config_text(tasks=3, epochs=2)),
                 tmp_path / "hat")
    assert sorted(reads) == [(k + 1, j) for k in range(3)
                             for j in range(k + 1)]


# ---------------------------------------------------------------------------
# The ODIN grid runs per task on forked workers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("run", ["hat_odin_run", "rotation_run"])
def test_an_odin_grid_eval_has_the_same_bytes_on_any_core_count(
        run, request, monkeypatch):
    text, final = request.getfixturevalue(run)
    cfg = parse_config(text + "\n[ood]\nodin_grid = true\n"
                       "validation_fraction = 0.2\n")
    scorers = ["odin", "msp"] + (["rotation-ensemble"]
                                 if run == "rotation_run" else [])
    forks = _counted_forks(monkeypatch)
    reports = []
    for cores in (1, 4):
        _usable_cores(monkeypatch, cores)
        reports.append([r.to_json() for r in ex.eval_grid(
            cfg, final, scorers=scorers, routes=["concat-argmax", "compose"])])
        if cores == 1:
            assert forks == []
    # 3 tasks on 4 cores: one block per task, all but the first forked
    assert len(forks) == cfg.tasks.count - 1
    assert reports[0] == reports[1]
    # a cell without the grid forks nothing
    ex.eval_grid(cfg, final, scorers=scorers[1:], routes=["compose"])
    assert len(forks) == cfg.tasks.count - 1


def test_a_fixed_eps_odin_eval_forks_and_has_the_same_bytes(trained,
                                                            monkeypatch):
    # its input gradient per task is worth a fork over enough multiply-adds;
    # without one, or over fewer, it is not
    text, final = trained
    cfg = parse_config(text)
    assert cfg.ood.odin_eps > 0 and not cfg.ood.odin_grid
    forks = _counted_forks(monkeypatch)
    _usable_cores(monkeypatch, 4)
    want = ex.eval_run(cfg, final, scorer="odin").to_json()
    assert forks == []  # a few rows through a 4-16 trunk
    monkeypatch.setattr(ex, "_FORK_MACS", 1)
    # 3 tasks on 4 cores: one block per task, all but the first forked
    assert ex.eval_run(cfg, final, scorer="odin").to_json() == want
    assert len(forks) == cfg.tasks.count - 1
    ex.eval_run(cfg, final, scorer="msp")
    ex.eval_run(parse_config(text + "\n[ood]\nodin_eps = 0\n"), final,
                scorer="odin")
    assert len(forks) == cfg.tasks.count - 1


# on 2 cores the 3 tasks split into blocks [0] (here) and [1, 2] (a child)
def _fail_in_grid_row(monkeypatch, task, failure):
    real = ol.odin_score

    def odin_score(net, rows, k, params):
        if k == task:
            failure()
        return real(net, rows, k, params)

    monkeypatch.setattr(ol, "odin_score", odin_score)


def test_an_error_in_a_grid_child_raises_its_type_and_message(
        hat_odin_run, monkeypatch):
    import multiprocessing
    text, final = hat_odin_run
    _usable_cores(monkeypatch, 2)
    forks = _counted_forks(monkeypatch)
    _fail_in_grid_row(monkeypatch, 2, _blow_up)
    with pytest.raises(nk.NumericError) as caught:
        ex.eval_run(parse_config(text + "\n[ood]\nodin_grid = true\n"), final,
                    scorer="odin")
    assert type(caught.value) is nk.NumericError
    assert str(caught.value) == "injected blow-up (layer 1)"
    assert len(forks) == 1
    assert multiprocessing.active_children() == []


def test_a_grid_child_that_dies_without_sending_is_named_by_its_tasks(
        hat_odin_run, monkeypatch):
    import multiprocessing
    text, final = hat_odin_run
    _usable_cores(monkeypatch, 2)
    _fail_in_grid_row(monkeypatch, 2, lambda: os._exit(3))
    with pytest.raises(ChildProcessError,
                       match=r"^the process scoring tasks \[1, 2\] exited "
                             r"with code 3 before it sent task 1$"):
        ex.eval_run(parse_config(text + "\n[ood]\nodin_grid = true\n"), final,
                    scorer="odin")
    assert multiprocessing.active_children() == []


# what a fresh interpreter runs, one step a line, before it prints whether
# multiprocessing is loaded; {hat} and {sup} are config texts
_IMPORT_STEPS = {
    "hat": "ex.train_run(parse_config({hat!r}), {out!r} + '/hat')",
    "sup": "ex.train_run(parse_config({sup!r}), {out!r} + '/sup')",
    "verify": "[verify.run_suite(s, 7, 20) for s in verify.SUITE_NAMES]",
}


@pytest.mark.parametrize("steps, cores, loaded", [
    (["hat", "sup", "verify"], 1, [False, False, False]),
    (["hat"], 4, [False]),
    (["sup"], 2, [True]),
], ids=["one-core", "hat-on-four-cores", "sup-on-two-cores"])
def test_multiprocessing_is_loaded_only_by_a_split_run(
        synth_config_text, tmp_path, steps, cores, loaded):
    # its import adds to peak RSS, which a one-block run should not pay
    texts = {"hat": synth_config_text(tasks=2, epochs=1),
             "sup": synth_config_text(tasks=2, epochs=1, backbone="sup"),
             "out": str(tmp_path)}
    script = "\n".join([
        "import os, sys",
        "from clwb import experiment as ex, verify",
        "from clwb.config import parse_config",
        f"os.sched_getaffinity = lambda pid: set(range({cores}))",
        *(f"{_IMPORT_STEPS[step].format(**texts)}\n"
          f"print('multiprocessing' in sys.modules)" for step in steps)])
    src = str(Path(clwb.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", script], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split() == [str(v) for v in loaded]


def _clwb_exception_classes():
    modules = [importlib.import_module(f"clwb.{m.name}")
               for m in pkgutil.iter_modules(clwb.__path__)]
    return sorted({obj for mod in modules for obj in vars(mod).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__.startswith("clwb.")},
                  key=lambda c: f"{c.__module__}.{c.__qualname__}")


@pytest.mark.parametrize("cls", _clwb_exception_classes(),
                         ids=lambda c: c.__name__)
def test_every_clwb_exception_survives_pickling(cls):
    # a child's failure reaches the parent pickled
    e = cls(*{nk.NumericError: ("non-finite supermask score", 0)}.get(
        cls, ("a message",)))
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is cls
    assert str(back) == str(e)
    assert vars(back) == vars(e)
