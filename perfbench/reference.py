"""Fixed reference work that gauges how fast the machine runs right now.

Wall times on a shared machine drift by 10-30% over minutes as neighbours
load the caches and cores, which is wider than any useful regression bound.
run.py times a kernel in the gaps between passes and reports each pass in
multiples of the kernel time gauged on either side of it, so drift that
slows both cancels while a change to clwb moves only the pass. A kernel
never touches clwb and its inputs are fixed, so it costs the same work on
every commit.

Interference slows interpreter-bound loops over small arrays far more than
sorts and dense products, so each workload names the kernel that slows as
its passes do: ``rows`` for the verify suites' per-trial loops that leave
many small objects alive, ``dense`` for the experiment workloads, whose
passes mix array work with their per-row loops. Over 24 s windows on a
shared 2-vCPU Xeon, the tabular eval pass in multiples of ``rows`` spread
0.10 IQR/median, against 0.06 in multiples of ``dense``.
"""

from __future__ import annotations

import math
import time

import numpy as np


class RowsKernel:
    """Softmax and log over many short rows, keeping every result alive,
    then one dense product over a few hundred kilobytes."""

    ROWS = 6000

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.rows = [rng.normal(size=10) for _ in range(self.ROWS)]
        self.dense = rng.normal(size=(2000, 64))

    def work(self) -> float:
        total, kept = 0.0, []
        for r in self.rows:
            p = np.exp(r - r.max())
            p /= p.sum()
            kept.append((float(p[0]), p))
            total -= math.log(max(p[1], 1e-12))
        return total + float(np.maximum(self.dense @ self.dense[:64].T,
                                        0.0).sum())


class DenseKernel:
    """Stable argsorts of weight-sized score arrays, quarter-turned image
    batches through a dense layer, and their similarity matrices."""

    BATCHES = 24

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.scores = [rng.normal(size=(128, 256)) for _ in range(4)]
        self.images = rng.uniform(size=(16, 16, 16))
        self.weight = rng.normal(size=(128, 256))

    def work(self) -> float:
        total = sum(float(np.argsort(-s.reshape(-1), kind="stable")[0])
                    for s in self.scores)
        for _ in range(self.BATCHES):
            batch = np.stack([np.rot90(im, r) for im in self.images
                              for r in range(4)]).reshape(64, -1)
            h = np.maximum(batch @ self.weight.T, 0.0)
            z = h / np.linalg.norm(h, axis=1, keepdims=True)
            total += float((z @ z.T).sum())
        return total


KERNELS = {"rows": RowsKernel, "dense": DenseKernel}


def seconds(kernel) -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    kernel.work()
    return time.perf_counter() - start
