"""Set up one workload in a fresh process, print ``ready``, gauge the machine.

run.py starts this several times and times each from process start to the
``ready`` line: interpreter start, imports, input generation, config parse
and the first ``build_tasks``. Then the process times the ``rows`` reference
kernel three times and prints the median, which gauges the machine's speed
at that moment (see reference.py). It inherits run.py's environment, which
pins the thread settings and puts ``src`` on ``PYTHONPATH``.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

import reference
import workloads


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    workloads.WORKLOADS[name](seed, workdir).setup()
    print("ready", flush=True)
    kernel = reference.RowsKernel()
    times = sorted(reference.seconds(kernel) for _ in range(3))
    print(times[1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
