"""Tests of the benchmark itself: span arithmetic, wrapper removal, the
glyph generator and the metric names it prints.

    python3 -m pytest perfbench/tests
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clwb
import glyphs
import reference
import tracer
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_intervals():
    top = tracer.Span("a.top", 0.0, 10.0)
    left = tracer.Span("b.left", 1.0, 3.0, parent=top)
    right = tracer.Span("b.right", 2.0, 5.0, parent=top)   # overlaps left
    inner = tracer.Span("c.inner", 1.5, 2.0, parent=left)
    selfs = tracer.self_times([top, left, right, inner])
    assert selfs[id(top)] == pytest.approx(10.0 - 4.0)
    assert selfs[id(left)] == pytest.approx(2.0 - 0.5)
    assert selfs[id(right)] == pytest.approx(3.0)
    assert selfs[id(inner)] == pytest.approx(0.5)


def test_wrapped_calls_link_to_their_caller_and_keep_return_values():
    tr = tracer.Tracer()
    tr.run_id = "run-7"
    leaf = tr.wrap("m.leaf", lambda x: x * 2)
    outer = tr.wrap("m.outer", lambda x: leaf(x) + leaf(x + 1))
    assert outer(3) == 14
    top, first, second = tr.spans
    assert top.name == "m.outer" and top.parent is None
    assert first.parent is top and second.parent is top
    assert {s.run_id for s in tr.spans} == {"run-7"}
    assert top.start <= first.start <= first.end <= second.start <= top.end
    figures = tracer.aggregate(tr.spans, passes=1)
    assert figures["m.leaf.calls"] == 2
    assert figures["m.outer.self_s"] == pytest.approx(
        top.duration - first.duration - second.duration)


def test_inclusive_time_counts_only_the_outermost_span_of_a_layer():
    calibrate = tracer.Span("experiment.calibrate_run", 0.0, 10.0)
    fit = tracer.Span("composer.fit_calibration", 1.0, 3.0, parent=calibrate)
    inner = tracer.Span("experiment.eval_run", 4.0, 7.0, parent=calibrate)
    top = tracer.Span("experiment.eval_run", 11.0, 13.0)
    for span in (inner, top):
        span.info = {"scorer": "msp", "route": "concat-argmax"}
    figures = tracer.aggregate([calibrate, fit, inner, top], passes=1)
    assert figures["experiment.eval_run.calls"] == 2
    assert figures["experiment.eval_run.s"] == pytest.approx(2.0)
    assert figures["experiment.eval_run.msp.concat-argmax.s"] == \
        pytest.approx(2.0)
    assert figures["experiment.calibrate_run.s"] == pytest.approx(10.0)
    assert figures["composer.fit_calibration.s"] == pytest.approx(2.0)


@pytest.mark.parametrize("n, q", [(0, 0.0), (19, 0.0), (20, 50.0),
                                  (100, 90.0), (999, 90.0), (1000, 99.0),
                                  (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, q):
    assert tracer.tail_percentile(n) == q


# ---------------------------------------------------------------------------
# Small versions of the three workloads
# ---------------------------------------------------------------------------

class TinyVerify(workloads.VerifySuites):
    TRIALS = 20


class TinyTabular(workloads.TabularHatEval):
    def config_text(self):
        return (super().config_text()
                .replace("per_class = 100", "per_class = 20")
                .replace("test_per_class = 200", "test_per_class = 10"))


class TinyGlyph(workloads.GlyphSupContrastive):
    TRAIN_PER_CLASS = 10
    TEST_PER_CLASS = 4

    def config_text(self):
        return super().config_text().replace("epochs = 5", "epochs = 1")


def _wrapped_targets():
    found = []
    for module_name, path, _ in tracer.TARGETS:
        obj = __import__(f"clwb.{module_name}", fromlist=["_"])
        for part in path.split("."):
            obj = getattr(obj, part)
        if hasattr(obj, "__wrapped__"):
            found.append(f"{module_name}.{path}")
    return found


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Each tiny workload run untraced, then traced; digests and figures."""
    runs = {}
    for cls in (TinyVerify, TinyTabular, TinyGlyph):
        wl = cls(3, tmp_path_factory.mktemp(cls.name))
        wl.setup()
        plain = wl.run_pass()
        tr = tracer.Tracer()
        with tr.installed():
            inside = (clwb.experiment.load_checkpoint,
                      clwb.checkpoint.load_checkpoint, _wrapped_targets())
            traced = wl.run_pass()
        runs[cls.name] = {"plain": plain, "traced": traced, "inside": inside,
                          "figures": tracer.aggregate(tr.spans, 1),
                          "roots": {s.name for s in tr.spans
                                    if s.parent is None}}
    return runs


def test_all_ops_pass_their_checks(traced_runs):
    for run in traced_runs.values():
        for op in run["plain"] + run["traced"]:
            assert op.ok, (op.label, op.problems)


def test_traced_digests_equal_untraced(traced_runs):
    for run in traced_runs.values():
        assert [op.digest for op in run["plain"]] == \
            [op.digest for op in run["traced"]]
        assert all(op.digest for op in run["plain"])


def test_wrappers_reach_by_name_imports_and_are_removed(traced_runs):
    exp_load, ckpt_load, wrapped = traced_runs["tabular-hat-eval"]["inside"]
    assert exp_load is ckpt_load and hasattr(exp_load, "__wrapped__")
    assert len(wrapped) == len(tracer.TARGETS)
    assert _wrapped_targets() == []
    assert clwb.experiment.load_checkpoint is clwb.checkpoint.load_checkpoint


def test_output_checks_leave_no_spans(traced_runs):
    # only the ops themselves are top-level spans: the benchmark's own
    # reload of the final checkpoint is not traced
    assert traced_runs["verify-suites"]["roots"] == {"verify.run_suite"}
    for name in ("tabular-hat-eval", "glyph-sup-contrastive"):
        assert traced_runs[name]["roots"] == {
            "experiment.train_run", "experiment.eval_run",
            "experiment.calibrate_run"}


def test_untraced_block_records_nothing():
    tr = tracer.Tracer()
    leaf = tr.wrap("m.leaf", lambda x: x + 1)
    with tracer.untraced():
        assert leaf(1) == 2
    assert tr.spans == []
    assert leaf(1) == 2 and len(tr.spans) == 1


def test_layers_appear_only_where_the_workload_uses_them(traced_runs):
    verify_figs = traced_runs["verify-suites"]["figures"]
    for layer in ("numkit", "backbones", "oodlab"):
        assert verify_figs[f"{layer}.calls"] == 0
    assert verify_figs["theory.calls"] > 0
    glyph_figs = traced_runs["glyph-sup-contrastive"]["figures"]
    assert glyph_figs["oodlab.rotate90.calls"] > 0
    assert 0 < glyph_figs["oodlab.odin_grid.useful_ratio"] < 1
    tab_figs = traced_runs["tabular-hat-eval"]["figures"]
    assert "backbones.mask_from_scores.calls" not in tab_figs
    assert tab_figs["oodlab.odin_grid.useful_ratio"] == 1.0


def test_every_per_layer_name_is_produced_by_some_workload(traced_runs):
    produced = set()
    for run in traced_runs.values():
        produced |= set(run["figures"])
    # added by run.py from the run itself rather than from spans
    produced |= {"trace.spans", "trace.overhead_frac", "experiment.cil_pct",
                 "experiment.til_pct", "experiment.auc_avg"}
    names = [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert set(names) - produced == set()


# ---------------------------------------------------------------------------
# Glyphs
# ---------------------------------------------------------------------------

def _idx_bytes(tmp_path, seed):
    paths = glyphs.write_glyph_idx(tmp_path / str(seed), seed, side=16,
                                   train_per_class=3, test_per_class=2)
    return {k: gzip.decompress(Path(p).read_bytes()) for k, p in paths.items()}


def test_glyphs_are_deterministic_per_seed(tmp_path):
    first = _idx_bytes(tmp_path / "a", 5)
    assert first == _idx_bytes(tmp_path / "b", 5)
    assert first["train_images"] != _idx_bytes(tmp_path / "c", 6)["train_images"]
    assert first["train_labels"] == _idx_bytes(tmp_path / "c", 6)["train_labels"]


def test_glyph_prototypes_pass_the_rotation_check():
    for side in (12, 16, 28):
        glyphs.check_prototypes(glyphs.prototypes(side))


def test_rotation_check_rejects_symmetric_or_coinciding_classes():
    protos = glyphs.prototypes(16)
    plus = np.zeros((16, 16))
    plus[7:9, :] = plus[:, 7:9] = 1.0
    with pytest.raises(glyphs.GlyphCheckError, match="own turn"):
        glyphs.check_prototypes(np.concatenate([protos[:2], plus[None]]))
    turned = np.rot90(protos[0], 1)
    with pytest.raises(glyphs.GlyphCheckError, match="class 0 matches class"):
        glyphs.check_prototypes(np.stack([protos[0], protos[1], turned]))


# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------

def test_every_workload_names_a_deterministic_reference_kernel():
    for cls in workloads.WORKLOADS.values():
        kernel = reference.KERNELS[cls.REFERENCE]()
        assert kernel.work() == reference.KERNELS[cls.REFERENCE]().work()
        assert reference.seconds(kernel) > 0


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_printed_metric_names_are_those_in_benchmark_json():
    proc = _run(ROOT, "--workload", "verify-suites", "--seed", "2",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "verify-suites", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
