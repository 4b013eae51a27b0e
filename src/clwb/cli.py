"""Command line: clwb verify | train | eval | calibrate | report.

verify runs the randomized bound suites; train/eval/calibrate drive
experiments from a config file; report merges eval JSONs into one
comparison CSV (rows are method/scorer/route combinations).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import composer as cp
from . import experiment as ex
from . import verify
from .checkpoint import CheckpointError, write_atomic
from .config import ROUTES, SCORERS, ConfigError, load_config


def _int_from(low: int):
    """An argparse type: an int >= low."""
    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"must be an int >= {low}, got {text!r}")
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_int_from(0), default=None,
                   help="override the config seed")
    p.add_argument("--out", default=None, help="output directory")


def _names(choices):
    """An argparse type: a comma list of distinct names out of choices."""
    def parse(text: str) -> list[str]:
        names = text.split(",")
        if not set(names) <= set(choices) or len(set(names)) < len(names):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a list of distinct names out of "
                f"{', '.join(choices)}")
        return names
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clwb",
        description="continual-learning workbench: bound verification, "
                    "task-incremental training, and class-incremental "
                    "evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run randomized theorem suites")
    v.add_argument("--suite", default="all",
                   choices=("all",) + verify.SUITE_NAMES)
    v.add_argument("--trials", type=_int_from(1), default=10_000)
    v.add_argument("--seed", type=_int_from(0), default=7)

    t = sub.add_parser("train", help="train a task sequence")
    t.add_argument("--config", required=True)
    _add_common(t)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    # a list names a (scorer x route) grid; the default is the config's
    e.add_argument("--scorer", default=[None], type=_names(SCORERS))
    e.add_argument("--route", default=[None], type=_names(ROUTES))
    e.add_argument("--calibration", default=None,
                   help="calibration params JSON (for --route calibrated)")
    _add_common(e)

    c = sub.add_parser("calibrate", help="fit per-task output calibration")
    c.add_argument("--config", required=True)
    c.add_argument("--checkpoint", required=True)
    _add_common(c)

    r = sub.add_parser("report", help="merge eval reports into one CSV")
    r.add_argument("reports", nargs="+", help="report JSON files")
    r.add_argument("--out", default=None, help="CSV path (default stdout)")
    return parser


def _load_cfg(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out = args.out
    return cfg


def cmd_verify(args) -> int:
    names = verify.SUITE_NAMES if args.suite == "all" else (args.suite,)
    ok = True
    for name in names:
        r = verify.run_suite(name, args.seed, args.trials)
        print(r.summary())
        for dump in r.failures:
            print(f"  counterexample: {dump}")
        if not r.ok:
            print(f"  replay: clwb verify --suite {r.name} "
                  f"--seed {r.seed} --trials {r.trials}")
        ok = ok and r.ok
    return 0 if ok else 1


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    start = time.perf_counter()
    artifacts = ex.train_run(cfg, cfg.out)
    print(f"trained {len(artifacts['checkpoints'])} tasks "
          f"in {time.perf_counter() - start:.1f}s")
    print(f"final checkpoint: {artifacts['final']}")
    print(f"trace: {artifacts['trace']}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    calibration = None
    if args.calibration:
        try:
            with open(args.calibration) as f:
                blob = json.load(f)
            calibration = cp.CalibrationParams(np.asarray(blob["alpha"]),
                                               np.asarray(blob["beta"]))
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise ConfigError(f"calibration file {args.calibration}: "
                              f"{type(e).__name__}: {e}") from e
    start = time.perf_counter()
    reports = ex.eval_grid(cfg, args.checkpoint, scorers=args.scorer,
                           routes=args.route, calibration=calibration)
    for report in reports:  # written only once every cell is scored
        stem = f"report_{report.scorer}_{report.route}"
        json_path, csv_path = ex.write_report(report, cfg.out, stem)
        print(f"eval in {time.perf_counter() - start:.1f}s  "
              f"AUC={report.auc_avg:.4f} CIL={report.cil:.1f} "
              f"TIL={report.til_avg:.1f}")
        print(f"report: {json_path}")
        print(f"csv: {csv_path}")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _load_cfg(args)
    params, before, after, history = ex.calibrate_run(cfg, args.checkpoint)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    blob = {"alpha": params.alpha.tolist(), "beta": params.beta.tolist(),
            "initial_loss": history[0], "final_loss": min(history),
            "init": {"alpha": 1.0, "beta": 0.0},
            "buffer_class_counts": params.buffer_class_counts}
    write_atomic(out / "calibration.json",
                 json.dumps(blob, sort_keys=True, indent=1).encode())
    ex.write_report(before, out, "report_before_calibration")
    ex.write_report(after, out, "report_after_calibration")
    delta = after.cil - before.cil
    print(f"calibration: alpha={params.alpha.tolist()} "
          f"beta={params.beta.tolist()}")
    print(f"buffer loss {history[0]:.4f} -> {min(history):.4f}")
    print(f"CIL {before.cil:.1f} -> {after.cil:.1f} (delta {delta:+.1f})")
    print(f"params: {out / 'calibration.json'}")
    return 0


def cmd_report(args) -> int:
    rows = [",".join(ex.ExperimentReport.CSV_COLUMNS)]
    fields = ex.ExperimentReport.__dataclass_fields__
    for path in args.reports:
        try:
            with open(path) as f:
                blob = json.load(f)
            report = ex.ExperimentReport(**{k: blob[k] for k in blob
                                            if k in fields})
            rows.append(",".join(report.csv_row()))
        except (OSError, ValueError, TypeError) as e:
            raise ConfigError(f"report file {path}: "
                              f"{type(e).__name__}: {e}") from e
    text = "\n".join(rows) + "\n"
    if args.out:
        write_atomic(Path(args.out), text.encode())
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"verify": cmd_verify, "train": cmd_train, "eval": cmd_eval,
                "calibrate": cmd_calibrate, "report": cmd_report}
    try:
        return handlers[args.command](args)
    except (ConfigError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
