"""A/B of two commits on one benchmark workload, with a bytes verdict.

    python3 scripts/ab.py --workload W --parent REV [--change REV] --pairs N
                          [--control K] [--seed S] [--workdir DIR]

Checks out PARENT and CHANGE with ``git worktree add`` into sibling
directories of one temporary directory, at paths of equal length, so that no
side is timed from a longer or shorter path than the other. Without
``--change`` the change side is the working tree's files as ``git add -A``
would stage them. Both sides must hold the same ``perfbench/`` and
``BENCHMARK.json``: an A/B compares programs under one benchmark.

First the change's ``scripts/op_digests.py`` runs one pass on each side's
checkout; the verdict on bytes is "bytes equal" or the first op whose
digest differs. Then N pairs of fresh ``perfbench/run.py --trace 0``
processes run at ``BENCHMARK.json``'s ``run_seconds``, the side that goes
first alternating from pair to pair.
``--control K`` (default 3, at most N) adds K parent-vs-parent pairs: the
first K pairs also run the parent's commit from a third path of the same
length, next to that pair's parent run. The median over those pairs of the
gap between the twins is the noise floor, so one pair run while the machine
was busy does not decide it.

Per end-to-end metric the result holds each side's runs, median and
quartiles, the change's win count and one verdict (``verdict`` below):
"faster", "slower", "no change" or "unresolved". Next to ``pass_ref`` it
holds, for each side and run, the raw median pass time ``pass_s`` and the
median reference kernel time ``reference_s`` from that run's BENCH file.
``pass_ref`` is each pass over the kernel gauged next to it, so these two
tell whether the pass or the gauge moved. It all goes to standard output
and to ``.perfbench_out/AB_<workload>-s<seed>-<parent>-<tree>.json``, named
by the parent's commit and the change's tree. The worktrees are removed on
exit, also on an error or a SIGTERM.

Exits 0 when every run completes, 1 when a run or a digest pass fails, 2 on
bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_PAIRS = 10       # fewer pairs than this never read "faster"
WIN_SHARE = 0.9      # a gain needs the change to win this share of pairs
SIDES = {"parent": "p", "change": "c", "control": "k"}  # side: directory


def git(*args: str, cwd: Path = ROOT, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def summary(values: list[float]) -> dict:
    """The runs with their median and quartiles (inclusive method)."""
    if len(values) < 2:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": med, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, control: list[float] = (),
            more_failures: bool = False) -> dict:
    """Judge one metric over paired runs; parent[i] and change[i] are pair
    i, and control[j] is the parent's code from a third path in pair j.
    The control's gap is the median over pairs j of |control[j] -
    parent[j]|.

    * "faster": at least MIN_PAIRS pairs, the change better in at least
      WIN_SHARE of them (ties count for neither), its median better by
      more than the parent's interquartile range and by more than the
      control's gap, and no more failed ops than the parent.
    * "slower": the change's median worse than the parent's by more than
      ``bound``, a fraction of the parent's median.
    * "unresolved": otherwise, when the parent's interquartile range or
      the control's gap, as fractions of the parent's median, exceed
      ``bound``, unless every change run is better than every parent run.
    * "no change": otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0
    p, c = summary(list(parent)), summary(list(change))
    scale = abs(p["median"])
    iqr = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])  # > 0: the change is better
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    noise = 0.0
    if control:
        noise = statistics.median(
            abs(k - p) for k, p in zip(control, parent)) / scale
    if (len(change) >= MIN_PAIRS and wins >= WIN_SHARE * len(change)
            and gain > iqr and gain / scale > noise and not more_failures):
        word = "faster"
    elif -gain / scale > bound:
        word = "slower"
    elif max(iqr / scale, noise) > bound and not all(
            sign * (a - b) > 0 for a in parent for b in change):
        word = "unresolved"
    else:
        word = "no change"
    return {"parent": p, "change": c,
            "control": summary(list(control)) if control else None,
            "change_rel": -sign * gain / scale, "control_rel": noise,
            "wins": wins, "pairs": len(change), "verdict": word}


def bytes_verdict(parent_lines: list[str], change_lines: list[str]) -> str:
    """"bytes equal", or the label of the first op whose digest line
    differs (an op only one side ran counts as differing)."""
    parent_ops = dict(line.split(" ", 1) for line in parent_lines)
    for line in change_lines:
        label, rest = line.split(" ", 1)
        if parent_ops.pop(label, None) != rest:
            return f"first differing op: {label}"
    if parent_ops:
        return f"first differing op: {next(iter(parent_ops))}"
    return "bytes equal"


def raw_medians(checkout: Path, workload: str, seed: int) -> dict:
    """The median raw pass time and reference kernel time of the last
    ``--trace 0`` run of workload at seed in checkout, from its BENCH
    file."""
    bench = json.loads((checkout / ".perfbench_out" /
                        f"BENCH_{workload}-s{seed}-t0.json").read_text())
    return {key: statistics.median(bench[key])
            for key in ("pass_s", "reference_s")}


def order(pair: int, control: int) -> list[str]:
    """Sides in pair order: the first side alternates, and a control run
    sits next to its pair's parent run."""
    sides = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
    if pair < control:
        sides.insert(sides.index("parent") + (pair % 2 == 0), "control")
    return sides


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--parent", required=True, help="the parent's git revision")
    p.add_argument("--change", default=None,
                   help="the change's git revision (default: the working "
                        "tree's files)")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--control", type=int, default=None,
                   help="parent-vs-parent pairs (default: 3, at most "
                        "--pairs)")
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument("--workdir", default=None,
                   help="where the worktrees go (default: the system temp "
                        "directory)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    if args.control is None:
        args.control = min(3, args.pairs)
    if not 0 <= args.control <= args.pairs:
        p.error("--control must be in [0, --pairs]")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def checkout(path: Path, commit: str, tree: str | None) -> None:
    """A worktree of commit at path; with tree, its files become tree's."""
    git("worktree", "add", "--detach", "--quiet", str(path), commit)
    if tree is not None:
        git("read-tree", "-u", "--reset", tree, cwd=path)


def working_tree() -> str:
    """The tree of the working tree's files, built in a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def python(*args: str, cwd: Path | None = None) -> list[str]:
    """Standard output lines of a fresh interpreter that inherits no
    PYTHONPATH, so each checkout runs its own sources."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {cwd or ROOT} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()


def ab(args, base: Path) -> dict:
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    if args.change is None:
        head = git("rev-parse", "--verify", "HEAD")
        change = {"rev": "working tree", "commit": head, "tree": working_tree()}
    else:
        commit = git("rev-parse", "--verify", f"{args.change}^{{commit}}")
        change = {"rev": args.change, "commit": commit,
                  "tree": git("rev-parse", f"{commit}^{{tree}}")}
    for name in ("perfbench", "BENCHMARK.json"):
        if git("rev-parse", f"{parent}:{name}") != \
                git("rev-parse", f"{change['tree']}:{name}"):
            raise ValueError(f"the two sides' {name} differ; an A/B needs "
                             f"one benchmark")
    paths = {side: base / name for side, name in SIDES.items()}
    checkout(paths["parent"], parent, None)
    checkout(paths["change"], change["commit"],
             change["tree"] if args.change is None else None)
    if args.control:
        checkout(paths["control"], parent, None)
    spec = json.loads((paths["change"] / "BENCHMARK.json").read_text())

    script = paths["change"] / "scripts" / "op_digests.py"
    lines = {side: python(str(script), str(paths[side]), args.workload,
                          str(args.seed))
             for side in ("parent", "change")}

    runs = {side: [] for side in SIDES}
    raw = {side: [] for side in SIDES}
    orders = [order(i, args.control) for i in range(args.pairs)]
    for i, sides in enumerate(orders):
        for side in sides:
            result = json.loads(python(
                "perfbench/run.py", "--workload", args.workload, "--seed",
                str(args.seed), "--seconds", str(spec["run_seconds"]),
                "--trace", "0", cwd=paths[side])[-1])
            runs[side].append(result)
            raw[side].append(raw_medians(paths[side], args.workload,
                                         args.seed))
            values = " ".join(
                [f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()]
                + [f"{k}={v:.6g}" for k, v in raw[side][-1].items()])
            print(f"pair {i + 1}/{args.pairs} {side}: {values}",
                  file=sys.stderr, flush=True)

    failed = {side: [sum(r["failed"] for r in rs),
                     sum(r["attempted"] for r in rs)]
              for side, rs in runs.items() if rs}
    share = {side: f / n for side, (f, n) in failed.items()}
    metrics = {}
    for m in spec["end_to_end"]:
        values = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                  for side, rs in runs.items()}
        metrics[m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **verdict(values["parent"], values["change"], m["better"],
                      m["bound"], values["control"],
                      share["change"] > share["parent"])}
    return {"workload": args.workload, "seed": args.seed,
            "run_seconds": spec["run_seconds"], "pairs": args.pairs,
            "control_pairs": args.control,
            "parent": {"rev": args.parent, "commit": parent},
            "change": change, "order": orders,
            "bytes": bytes_verdict(lines["parent"], lines["change"]),
            "digests": lines, "failed_ops": failed, "metrics": metrics,
            "raw": {side: {key: summary([r[key] for r in rs])
                           for key in ("pass_s", "reference_s")}
                    for side, rs in raw.items() if rs}}


def report(result: dict) -> str:
    rows = [f"{result['workload']} seed {result['seed']}: "
            f"{result['parent']['commit'][:10]} -> "
            f"{result['change']['rev']} {result['change']['commit'][:10]}, "
            f"{result['pairs']} pairs, {result['control_pairs']} control; "
            f"{result['bytes']}"]
    for name, m in result["metrics"].items():
        p, c = m["parent"], m["change"]
        rows.append(
            f"  {name:12s} {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
            f" -> {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
            f"({m['change_rel']:+.1%}, wins {m['wins']}/{m['pairs']}, "
            f"control gap {m['control_rel']:.1%}, bound {m['bound']:.0%}): "
            f"{m['verdict']}")
        if name == "pass_ref":
            rows.append("    median " + "; ".join(
                f"{side} pass_s {r['pass_s']['median']:.4g} s, reference_s "
                f"{r['reference_s']['median']:.4g} s"
                for side, r in result["raw"].items()))
    return "\n".join(rows)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds like an error, so the worktrees are still removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    base = Path(tempfile.mkdtemp(prefix="clwb-ab-", dir=args.workdir))
    try:
        result = ab(args, base)
    except (ValueError, subprocess.CalledProcessError) as e:
        detail = getattr(e, "stderr", None) or ""
        print(f"error: {e} {detail}".strip(), file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        for name in SIDES.values():
            if (base / name).exists():
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(base / name)], cwd=ROOT,
                               capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(base, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    path = OUT / (f"AB_{args.workload}-s{args.seed}-"
                  f"{result['parent']['commit'][:10]}-"
                  f"{result['change']['tree'][:10]}.json")
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(report(result))
    print(f"written: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
