"""clwb benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is ``src/clwb``
there. Workloads (see workloads.py and BENCHMARK.json):

* verify-suites          the seven ``verify.run_suite`` suites
* tabular-hat-eval       synthetic tasks, HAT, eval grid over a large test set
* glyph-sup-contrastive  generated glyph images, supermasks, contrastive loss

One pass is the workload's sequence of public calls, and its time is the
sum of its calls' wall times. The run sets up the workload in five fresh
processes, then in this process runs one warm-up pass and timed passes for
``--seconds`` seconds. Both end-to-end times are normalized against machine
drift by a fixed reference kernel (reference.py):

* ``setup_s``   median set-up time, each rescaled by the kernel gauged in
                the same process right after it, to the speed where that
                kernel takes 0.03 s;
* ``pass_ref``  median over passes of the pass time in multiples of the
                kernel time gauged in the gaps on either side of the pass.

The raw median pass time is printed as ``pass_s``. With ``--trace 1`` half
the time goes to untraced passes and half to passes with every layer
function wrapped (tracer.py); the per-layer figures are per traced pass and
``trace.overhead_frac`` compares the two raw medians.

Every call's output is checked (workloads.py) and its digest must repeat on
every pass. The last line of standard output is the JSON result; a copy
with the environment record goes to ``.perfbench_out/BENCH_*.json``.
"""

import os
import sys

# Pinned before numpy loads: one BLAS thread inside each of one clwb scoring
# thread, so the two together never ask for more cores than nproc.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "CLWB_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Set-up time is reported at the machine speed where the rows kernel takes
# this long, which is about its uncontended time on a 2.1 GHz Xeon core.
SETUP_KERNEL_NOMINAL_S = 0.03
REFERENCE_REPEATS = 5  # kernel runs in each gap between timed passes
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def measure_setup(name: str, seed: int, workdir: Path):
    """For each fresh setup process, the wall time from its start to its
    ready line and the reference kernel time it gauged right after."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
               str(workdir / f"setup{i}")]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup of {name} failed "
                               f"(exit {proc.returncode})")
        times.append((elapsed, float(rest)))
    return times


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "threads": {k: os.environ[k] for k in THREADS},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class Run:
    """Ops of every pass of one invocation, with the digest check."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.ops = []
        self.first_digest: dict[str, str] = {}
        self.kernel = reference.KERNELS[workload.REFERENCE]()
        self.kernel.work()  # first-call costs stay out of the gauge

    def one_pass(self):
        ops = self.workload.run_pass()
        for op in ops:
            first = self.first_digest.setdefault(op.label, op.digest)
            if op.digest != first:
                op.problems.append(f"digest {op.digest} differs from "
                                   f"the first pass's {first}")
            for problem in op.problems:
                print(f"FAILED {op.label}: {problem}", file=sys.stderr)
        self.ops.extend(ops)
        return ops

    def timed_passes(self, budget_s: float, on_pass=None):
        """Passes until budget_s of wall time has gone, at least one.

        Returns the passes and, for each, the median time of the reference
        kernel runs in the gaps just before and just after it.
        """
        gaps, passes, start = [self.gauge()], [], time.perf_counter()
        while not passes or time.perf_counter() - start < budget_s:
            if on_pass is not None:
                on_pass(len(passes))
            passes.append(self.one_pass())
            gaps.append(self.gauge())
        return passes, [statistics.median(before + after)
                        for before, after in zip(gaps, gaps[1:])]

    def gauge(self) -> list[float]:
        return [reference.seconds(self.kernel)
                for _ in range(REFERENCE_REPEATS)]

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)


def pass_seconds(passes) -> list[float]:
    return [sum(op.seconds for op in ops) for ops in passes]


def relative_median(passes, reference_s) -> float:
    """Median over passes of pass time / adjacent reference kernel time."""
    return statistics.median(
        p / r for p, r in zip(pass_seconds(passes), reference_s))


def phase_medians(passes) -> dict[str, float]:
    """Median over passes of each op kind's summed wall time."""
    kinds = sorted({op.kind for ops in passes for op in ops})
    return {f"{kind}_s": statistics.median(
        sum(op.seconds for op in ops if op.kind == kind) for ops in passes)
        for kind in kinds}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clwb" / "__init__.py").is_file():
        print(f"no clwb sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        setup_s = measure_setup(args.workload, args.seed, workdir)
        workload = workloads.WORKLOADS[args.workload](args.seed,
                                                      workdir / "main")
        workload.setup()
        run = Run(workload)
        warmup = run.one_pass()
        budget = args.seconds / 2 if args.trace else args.seconds
        passes, reference_s = run.timed_passes(budget)
        if args.trace:
            trace = tracer.Tracer()

            def label(i):
                trace.run_id = f"{tag}-traced{i}"

            with trace.installed():
                traced, _ = run.timed_passes(budget, on_pass=label)
            values = tracer.aggregate(trace.spans, len(traced))
            values["trace.spans"] = len(trace.spans) / len(traced)
            # raw times: the live spans slow the kernel's allocations too
            values["trace.overhead_frac"] = (
                statistics.median(pass_seconds(traced))
                / statistics.median(pass_seconds(passes)) - 1.0)
            values.update({f"experiment.{k}": v for k, v in
                           workloads.grid_accuracy(warmup).items()})
            # a layer the workload never calls reads 0
            section = spec["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(
                    s * SETUP_KERNEL_NOMINAL_S / k for s, k in setup_s),
                "pass_ref": relative_median(passes, reference_s),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            section = spec["end_to_end"]
            missing = {m["name"] for m in section} - set(values)
            if missing:
                raise RuntimeError(f"no value for {sorted(missing)}")
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in section}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "pass_s": pass_seconds(passes),
        "reference_s": reference_s,
        "setup_runs_s": [s for s, _ in setup_s],
        "setup_kernel_s": [k for _, k in setup_s],
        "phases": phase_medians(passes),
        "accuracy": workloads.grid_accuracy(warmup),
        "failed_ops_frac": run.failed / len(run.ops),
        "digests": run.first_digest, "environment": environment(),
    }
    result = {"correct": run.failed == 0, "attempted": len(run.ops),
              "failed": run.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{tag}.json").write_text(
        json.dumps({**info, **result}, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  timed passes "
          f"{len(passes)} after one warm-up")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'pass_s':42s} {statistics.median(info['pass_s']):.6g} s  "
          f"(median over timed passes; reference kernel "
          f"{statistics.median(reference_s):.6g} s)")
    for name, value in info["phases"].items():
        print(f"  {name:42s} {value:.6g} s  (median over timed passes)")
    for name, value in info["accuracy"].items():
        print(f"  {name:42s} {value:.6g}  (mean over the eval grid)")
    print(f"  failed_ops_frac {info['failed_ops_frac']:.6g} "
          f"({run.failed} of {len(run.ops)} ops)")
    print(f"  environment {json.dumps(info['environment'], sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
