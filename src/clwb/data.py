"""Dataset ingestion and task-sequence construction.

IDX is the MNIST distribution format: big-endian 32-bit header words, then
raw unsigned bytes. Pixels are scaled into [0, 1] on ingest (no mean
centering: perturbation magnitudes elsewhere are specified in these units).
Task sequences split a labeled set into consecutive-class tasks with
per-task labels remapped to 0..m-1.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from .theory import TaskTopology

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

__all__ = [
    "FormatError",
    "LabeledImageSet",
    "TaskSequence",
    "parse_idx",
    "serialize_idx",
    "load_idx",
    "split_tasks",
    "synth_gaussian_tasks",
    "validation_split",
]


class FormatError(ValueError):
    """Malformed IDX stream."""


@dataclass
class LabeledImageSet:
    """Images (n, h, w) float64 plus integer labels and the class count."""

    images: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if self.images.ndim != 3 or self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(f"images {self.images.shape} vs labels "
                             f"{self.labels.shape}")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise ValueError("label outside [0, n_classes)")

    def __len__(self) -> int:
        return self.images.shape[0]

    def subset(self, index) -> "LabeledImageSet":
        return LabeledImageSet(self.images[index], self.labels[index],
                               self.n_classes)


@dataclass
class TaskSequence:
    """Ordered (train, test) pairs per task plus the class topology.

    Per-task labels are remapped to 0..sizes[k]-1; class_map[k][j] is the
    class id before the split (renumbered densely once drop_classes are
    removed), so disjointness across tasks is structural.
    Predictions index classes by topology.flat(k, j), not by class_map.
    """

    tasks: list[tuple[LabeledImageSet, LabeledImageSet]]
    topology: TaskTopology
    class_map: list[list[int]]

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


# ---------------------------------------------------------------------------
# IDX format
# ---------------------------------------------------------------------------

def parse_idx(stream: bytes) -> np.ndarray:
    """Decode an IDX byte stream into images (n, h, w) in [0, 1] or labels (n,)."""
    if len(stream) < 4:
        raise FormatError("stream shorter than the magic word")
    (magic,) = struct.unpack(">I", stream[:4])
    if magic == IMAGE_MAGIC:
        ndim = 3
    elif magic == LABEL_MAGIC:
        ndim = 1
    else:
        raise FormatError(f"bad magic 0x{magic:08x}")
    header = 4 + 4 * ndim
    if len(stream) < header:
        raise FormatError("truncated dimension header")
    dims = struct.unpack(f">{ndim}I", stream[4:header])
    count = math.prod(dims)  # exact: no int64 wraparound
    if len(stream) != header + count:
        raise FormatError(f"expected {count} data bytes, found "
                          f"{len(stream) - header}")
    raw = np.frombuffer(stream, dtype=np.uint8, offset=header).reshape(dims)
    if magic == LABEL_MAGIC:
        return raw.astype(np.intp)
    return raw.astype(np.float64) / 255.0


def serialize_idx(data: np.ndarray) -> bytes:
    """Inverse of parse_idx; byte-identical round trip."""
    data = np.asarray(data)
    if data.ndim == 3:
        header = struct.pack(">I3I", IMAGE_MAGIC, *data.shape)
        body = np.round(data * 255.0).astype(np.uint8)
    elif data.ndim == 1:
        header = struct.pack(">II", LABEL_MAGIC, data.shape[0])
        body = data.astype(np.uint8)
    else:
        raise ValueError(f"cannot serialize ndim={data.ndim}")
    return header + body.tobytes()


def load_idx(path) -> np.ndarray:
    """Read an IDX file, transparently decompressing gzip (0x1f 0x8b prefix)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:2] == b"\x1f\x8b":
        blob = gzip.decompress(blob)
    return parse_idx(blob)


# ---------------------------------------------------------------------------
# Task construction
# ---------------------------------------------------------------------------

def _remap(subset: LabeledImageSet, classes: list[int]) -> LabeledImageSet:
    """The rows of the listed classes, class classes[j] relabelled j."""
    lookup = np.zeros(max(classes, default=-1) + 1, dtype=np.intp)
    lookup[np.asarray(classes, dtype=np.intp)] = np.arange(len(classes))
    mask = np.isin(subset.labels, classes)
    return LabeledImageSet(subset.images[mask], lookup[subset.labels[mask]],
                           len(classes))


def split_tasks(train: LabeledImageSet, test: LabeledImageSet,
                classes_per_task: int, *, shuffle_seed: int | None = None
                ) -> TaskSequence:
    """Partition consecutive classes into tasks of equal width.

    With shuffle_seed, the class-to-task assignment is a seeded permutation
    instead of consecutive blocks.
    """
    n = train.n_classes
    if test.n_classes != n:
        raise ValueError("train/test class counts differ")
    if n % classes_per_task != 0:
        raise ValueError(f"{n} classes not divisible by {classes_per_task}")
    order = list(range(n))
    if shuffle_seed is not None:
        order = list(np.random.default_rng(shuffle_seed).permutation(n))
    groups = [order[i:i + classes_per_task]
              for i in range(0, n, classes_per_task)]
    tasks = [(_remap(train, g), _remap(test, g)) for g in groups]
    topo = TaskTopology(tuple(classes_per_task for _ in groups))
    return TaskSequence(tasks, topo, [[int(c) for c in g] for g in groups])


def synth_gaussian_tasks(n_tasks: int, classes_per_task: int, dim: int,
                         separation: float, n_per_class: int, seed: int,
                         n_test_per_class: int) -> TaskSequence:
    """Deterministic Gaussian-blob tasks for fast tests: n_per_class
    training and n_test_per_class test samples per class.

    Each class is an isotropic unit-variance Gaussian centered on a distinct
    lattice point; adjacent centers sit exactly `separation` apart, so any
    pairwise distance is >= separation. Samples are stored as 1 x dim
    "images" (feature rows, not pixels; the [0,1] pixel range applies to IDX
    ingest only).
    """
    if separation <= 0:
        raise ValueError("separation must be positive")
    rng = np.random.default_rng(seed)
    total = n_tasks * classes_per_task
    side = int(np.ceil(np.sqrt(total)))
    centers = np.zeros((total, dim))
    for c in range(total):
        centers[c, 0] = (c % side) * separation
        centers[c, 1 if dim > 1 else 0] += (c // side) * separation

    tasks, class_map = [], []
    for k in range(n_tasks):
        classes = list(range(k * classes_per_task, (k + 1) * classes_per_task))
        splits = []
        for count in (n_per_class, n_test_per_class):
            xs, ys = [], []
            for j, c in enumerate(classes):
                xs.append(rng.normal(size=(count, dim)) + centers[c])
                ys.append(np.full(count, j, dtype=np.intp))
            images = np.concatenate(xs)[:, None, :]  # (n, 1, dim)
            splits.append(LabeledImageSet(images, np.concatenate(ys),
                                          classes_per_task))
        tasks.append((splits[0], splits[1]))
        class_map.append(classes)
    topo = TaskTopology(tuple(classes_per_task for _ in range(n_tasks)))
    return TaskSequence(tasks, topo, class_map)


def validation_split(dataset: LabeledImageSet, fraction: float, seed: int
                     ) -> tuple[LabeledImageSet, LabeledImageSet]:
    """Class-stratified deterministic split; fraction goes to validation."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction {fraction} outside (0, 1)")
    rng = np.random.default_rng(seed)
    val_idx = []
    for c in range(dataset.n_classes):
        members = np.flatnonzero(dataset.labels == c)
        take = int(round(members.size * fraction))
        if members.size and take == 0:
            raise ValueError(f"fraction {fraction} empties class {c} stratum")
        val_idx.extend(rng.permutation(members)[:take])
    val_mask = np.zeros(len(dataset), dtype=bool)
    val_mask[np.array(val_idx, dtype=np.intp)] = True
    return dataset.subset(~val_mask), dataset.subset(val_mask)
