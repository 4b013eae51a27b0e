"""Digests of one benchmark pass, comparable across checkouts.

    python3 scripts/op_digests.py ROOT WORKLOAD SEED

Imports ``perfbench/workloads.py`` and ``src/clwb`` from the checkout at
ROOT, runs one untraced pass of WORKLOAD with SEED from the fixed directory
``/tmp/clwb-digests/<workload>-<seed>`` and prints ``label digest ok`` for
every op. The configs the workloads write hold their working directory, so
the digests the benchmark records in ``.perfbench_out`` differ between any
two runs; from one fixed directory they depend only on the program. A pass
holds an exclusive lock on ``/tmp/clwb-digests/.lock``, so concurrent runs
take turns instead of clearing each other's directory. To check that a
change keeps every checkpoint and report byte, diff the output for two
checkouts:

    diff <(python3 scripts/op_digests.py ../parent glyph-sup-contrastive 1) \\
         <(python3 scripts/op_digests.py . glyph-sup-contrastive 1)

Exits 1 when an op fails its output check, 2 on bad arguments.
"""

import fcntl
import os
import shutil
import sys
from pathlib import Path

WORKDIR = Path("/tmp/clwb-digests")


def main(argv: list[str]) -> int:
    if len(argv) != 3 or not argv[2].isdecimal():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root, name, seed = Path(argv[0]).resolve(), argv[1], int(argv[2])
    # the benchmark's thread settings, pinned before numpy loads
    os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"})
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import workloads

    if name not in workloads.WORKLOADS:
        print(f"unknown workload {name!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = WORKDIR / f"{name}-{seed}"
    WORKDIR.mkdir(parents=True, exist_ok=True)
    with open(WORKDIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        workload = workloads.WORKLOADS[name](seed, workdir)
        workload.setup()
        ops = workload.run_pass()
    for op in ops:
        print(op.label, op.digest, "ok" if op.ok else "FAILED")
        for problem in op.problems:
            print(problem, file=sys.stderr)
    return 0 if all(op.ok for op in ops) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
