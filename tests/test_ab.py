"""The verdicts of scripts/ab.py on synthetic timings."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

# ten parent runs of median 1.75 and interquartile range 0.035
PARENT = [1.70, 1.72, 1.73, 1.74, 1.75, 1.75, 1.76, 1.77, 1.78, 1.80]


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("change, control, want", [
    # about -20% in every pair, the size of a real sampler speed-up
    (scaled(PARENT, 0.8), (), "faster"),
    # the same gain in 8 of 10 pairs is short of nine tenths
    (scaled(PARENT[:8], 0.8) + PARENT[8:], (), "no change"),
    # a median gain inside the parent's interquartile range
    (scaled(PARENT, 0.99), (), "no change"),
    # a gain the control's twin runs also show is placement, not code
    (scaled(PARENT, 0.9), scaled(PARENT[:2], 0.88), "no change"),
    # worse by more than the 20% bound
    (scaled(PARENT, 1.25), (), "slower"),
    # worse, but inside the bound
    (scaled(PARENT, 1.1), (), "no change"),
])
def test_verdict_lower_is_better(change, control, want):
    assert ab.verdict(PARENT, change, "lower", 0.2, control)["verdict"] == want


def test_verdict_counts_wins_and_medians():
    change = scaled(PARENT, 0.8)
    change[3] = 2.0  # one pair the parent wins
    got = ab.verdict(PARENT, change, "lower", 0.2)
    assert got["wins"] == 9 and got["pairs"] == 10
    assert got["verdict"] == "faster"
    assert got["parent"]["median"] == pytest.approx(1.75)
    assert got["parent"]["q3"] - got["parent"]["q1"] == pytest.approx(0.035)
    assert got["change_rel"] < 0


def test_fewer_than_ten_pairs_never_read_faster():
    got = ab.verdict(PARENT[:9], scaled(PARENT[:9], 0.5), "lower", 0.2)
    assert got["verdict"] == "no change"


def test_more_failed_ops_never_read_faster():
    got = ab.verdict(PARENT, scaled(PARENT, 0.8), "lower", 0.2,
                     more_failures=True)
    assert got["verdict"] == "no change"


def test_spread_wider_than_the_bound_is_unresolved():
    wide = [1.0, 1.0, 1.0, 1.5, 1.6, 1.7, 2.2, 2.3, 2.4, 2.5]
    assert ab.verdict(wide, wide[::-1], "lower", 0.2)["verdict"] == \
        "unresolved"
    # unless every change run is better than every parent run
    assert ab.verdict(wide[:5], scaled(wide[:5], 0.5), "lower",
                      0.2)["verdict"] == "no change"


def test_control_gap_wider_than_the_bound_is_unresolved():
    got = ab.verdict(PARENT, PARENT, "lower", 0.2, scaled(PARENT[:2], 1.3))
    assert got["control_rel"] > 0.2 and got["verdict"] == "unresolved"


def test_higher_is_better_metrics_turn_the_sign():
    assert ab.verdict(PARENT, scaled(PARENT, 1.25), "higher",
                      0.2)["verdict"] == "faster"
    assert ab.verdict(PARENT, scaled(PARENT, 0.75), "higher",
                      0.2)["verdict"] == "slower"


def test_bytes_verdict_names_the_first_differing_op():
    parent = ["train aa ok", "eval:msp bb ok", "calibrate cc ok"]
    assert ab.bytes_verdict(parent, list(parent)) == "bytes equal"
    assert ab.bytes_verdict(parent, ["train aa ok", "eval:msp bd ok",
                                     "calibrate cd ok"]) == \
        "first differing op: eval:msp"
    assert ab.bytes_verdict(parent, parent[:2]) == \
        "first differing op: calibrate"


def test_order_alternates_and_keeps_controls_next_to_the_parent():
    assert [ab.order(i, 2) for i in range(4)] == [
        ["parent", "control", "change"], ["change", "control", "parent"],
        ["parent", "change"], ["change", "parent"]]


def _bench(checkout, pass_s, reference_s, workload="verify-suites", seed=3):
    out = checkout / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"BENCH_{workload}-s{seed}-t0.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "trace": 0, "pass_s": pass_s,
         "reference_s": reference_s, "metrics": {}}))


def test_raw_medians_read_the_runs_bench_file(tmp_path):
    # pass_ref is about the same on both sides; the gauge, not the pass,
    # is what moved
    _bench(tmp_path / "p", [0.066, 0.061, 0.069, 0.064], [0.040, 0.038, 0.05])
    _bench(tmp_path / "c", [0.065, 0.061, 0.068], [0.055, 0.063, 0.058, 0.06])
    _bench(tmp_path / "c", [1.0], [1.0], seed=4)  # another seed's file
    assert ab.raw_medians(tmp_path / "p", "verify-suites", 3) == {
        "pass_s": pytest.approx(0.065), "reference_s": 0.040}
    assert ab.raw_medians(tmp_path / "c", "verify-suites", 3) == {
        "pass_s": 0.065, "reference_s": pytest.approx(0.059)}


def test_report_prints_each_sides_raw_medians_by_pass_ref():
    metrics = {name: {"bound": 0.2, **ab.verdict(PARENT, PARENT, "lower",
                                                 0.2)}
               for name in ("pass_ref", "setup_s")}
    raw = {"parent": {"pass_s": ab.summary([0.0645, 0.0611]),
                      "reference_s": ab.summary([0.044])},
           "change": {"pass_s": ab.summary([0.0611]),
                      "reference_s": ab.summary([0.0593])}}
    result = {"workload": "verify-suites", "seed": 1,
              "parent": {"commit": "a" * 40},
              "change": {"rev": "working tree", "commit": "b" * 40},
              "pairs": 10, "control_pairs": 0, "bytes": "bytes equal",
              "metrics": metrics, "raw": raw}
    lines = ab.report(result).splitlines()
    assert lines[1].startswith("  pass_ref")
    assert lines[2] == ("    median parent pass_s 0.0628 s, reference_s "
                        "0.044 s; change pass_s 0.0611 s, reference_s "
                        "0.0593 s")
    assert lines[3].startswith("  setup_s")


def test_one_contended_control_pair_does_not_set_the_noise_floor():
    # Pairs 2 and 3 ran while the machine was busy: pair 2's parent run is
    # 12.4% off its control twin, and pair 3's twins are both slow. The
    # change is 9.5% better in every pair. The gap of the three controls'
    # median to the parent's is 14%; the median twin gap is 1.2%.
    parent = [1.70, 1.99, 2.20, 1.74, 1.75, 1.75, 1.76, 1.77, 1.78, 1.80]
    control = [1.70 * 1.01, 1.99 * 0.876, 2.20 * 0.99]
    got = ab.verdict(parent, scaled(parent, 0.905), "lower", 0.2, control)
    assert got["control_rel"] == pytest.approx(0.022 / 1.765)
    assert got["wins"] == 10 and got["verdict"] == "faster"


def test_control_defaults_to_three_pairs_at_most_all_pairs():
    def control(*argv):
        return ab.parse_args(["--workload", "verify-suites", "--parent",
                              "HEAD", *argv]).control
    assert control("--pairs", "10") == 3
    assert control("--pairs", "2") == 2
    assert control("--pairs", "10", "--control", "0") == 0
