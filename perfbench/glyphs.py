"""Seeded square glyph images for the image workloads, written as gzip IDX.

Ten classes, each a fixed set of strokes on a unit square. A sample
rasterizes its class's strokes with a per-sample shift and endpoint jitter,
then adds clipped pixel noise, so the seed decides every sample while the
class shapes stay fixed. Rotation training labels quarter turn r of class y
as 4y + r; that labelling is learnable only when no class equals one of its
own quarter turns and no two classes coincide under rotation, which
``check_prototypes`` enforces before any file is written.
"""

from __future__ import annotations

import gzip
from pathlib import Path

import numpy as np

from clwb.data import serialize_idx

# Strokes as ((x0, y0), (x1, y1)) in unit-square coordinates, y downward.
# Every shape is chiral and has no rotational symmetry.
STROKES: tuple[tuple[tuple[tuple[float, float], tuple[float, float]], ...], ...] = (
    (((0.2, 0.1), (0.2, 0.9)), ((0.2, 0.1), (0.8, 0.1)),
     ((0.2, 0.5), (0.6, 0.5))),                                   # F
    (((0.2, 0.1), (0.2, 0.9)), ((0.2, 0.9), (0.8, 0.9))),         # L
    (((0.7, 0.1), (0.7, 0.8)), ((0.7, 0.8), (0.5, 0.9)),
     ((0.5, 0.9), (0.2, 0.7))),                                   # J
    (((0.2, 0.1), (0.2, 0.9)), ((0.2, 0.1), (0.7, 0.1)),
     ((0.7, 0.1), (0.7, 0.5)), ((0.7, 0.5), (0.2, 0.5))),         # P
    (((0.2, 0.1), (0.8, 0.1)), ((0.8, 0.1), (0.4, 0.9))),         # 7
    (((0.6, 0.1), (0.2, 0.6)), ((0.2, 0.6), (0.8, 0.6)),
     ((0.6, 0.1), (0.6, 0.9))),                                   # 4
    (((0.8, 0.1), (0.2, 0.1)), ((0.2, 0.1), (0.2, 0.9)),
     ((0.2, 0.9), (0.8, 0.9)), ((0.8, 0.9), (0.8, 0.5)),
     ((0.8, 0.5), (0.5, 0.5))),                                   # G
    (((0.2, 0.1), (0.2, 0.9)), ((0.2, 0.5), (0.7, 0.5)),
     ((0.7, 0.5), (0.7, 0.9))),                                   # h
    (((0.5, 0.1), (0.5, 0.9)), ((0.5, 0.1), (0.8, 0.3)),
     ((0.2, 0.9), (0.5, 0.9))),                                   # flag
    (((0.1, 0.2), (0.9, 0.2)), ((0.3, 0.2), (0.3, 0.8)),
     ((0.3, 0.8), (0.6, 0.8))),                                   # hook
)
N_CLASSES = len(STROKES)
MIN_ROTATION_GAP = 0.2  # least mean |difference| per lit pixel, see below
MAX_SHIFT = 1      # per-sample shift of the whole glyph, pixels
JITTER = 0.5       # per-endpoint uniform jitter, pixels
NOISE_SIGMA = 0.1  # Gaussian pixel noise before clipping to [0, 1]


class GlyphCheckError(RuntimeError):
    """The prototypes would make rotation labels ambiguous."""


def _draw(strokes, side: int, shift=(0.0, 0.0), jitter=None) -> np.ndarray:
    """Rasterize strokes into a (side, side) image with values in [0, 1]."""
    img = np.zeros((side, side))
    span = side - 1
    for s, (p0, p1) in enumerate(strokes):
        a = np.array(p0) * span + shift
        b = np.array(p1) * span + shift
        if jitter is not None:
            a = a + jitter[s, 0]
            b = b + jitter[s, 1]
        steps = int(np.ceil(np.abs(b - a).max() * 2)) + 1
        t = np.linspace(0.0, 1.0, steps)[:, None]
        pts = np.rint(a + (b - a) * t).astype(int)
        inside = ((pts >= 0) & (pts < side)).all(axis=1)
        img[pts[inside, 1], pts[inside, 0]] = 1.0
    return img


def prototypes(side: int) -> np.ndarray:
    """The unshifted, noise-free glyph of every class, (classes, side, side)."""
    return np.stack([_draw(s, side) for s in STROKES])


def _gap(a: np.ndarray, b: np.ndarray) -> float:
    """Mean absolute difference over pixels lit in either image."""
    lit = (a > 0) | (b > 0)
    return float(np.abs(a - b)[lit].mean()) if lit.any() else 0.0


def check_prototypes(protos: np.ndarray) -> None:
    """Raise GlyphCheckError unless every class differs from its own quarter
    turns and from every quarter turn of every other class."""
    for y, p in enumerate(protos):
        for r in (1, 2, 3):
            if _gap(p, np.rot90(p, r)) < MIN_ROTATION_GAP:
                raise GlyphCheckError(f"class {y} matches its own turn {r}")
        for z in range(y + 1, len(protos)):
            for r in range(4):
                if _gap(p, np.rot90(protos[z], r)) < MIN_ROTATION_GAP:
                    raise GlyphCheckError(
                        f"class {y} matches class {z} turned {r} times")


def make_glyphs(n_per_class: int, side: int, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_per_class samples of every class in class-interleaved order."""
    images = np.empty((n_per_class * N_CLASSES, side, side))
    labels = np.tile(np.arange(N_CLASSES), n_per_class)
    for i, y in enumerate(labels):
        shift = rng.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=2).astype(float)
        jit = rng.uniform(-JITTER, JITTER, size=(len(STROKES[y]), 2, 2))
        img = _draw(STROKES[y], side, shift, jit)
        images[i] = np.clip(img + rng.normal(0.0, NOISE_SIGMA, img.shape),
                            0.0, 1.0)
    return images, labels


def write_glyph_idx(out_dir, seed: int, *, side: int, train_per_class: int,
                    test_per_class: int) -> dict[str, str]:
    """Check the prototypes, then write the four gzip IDX files of one seed.

    Returns the config keys ``train_images`` ... ``test_labels`` mapped to
    the written paths. The gzip header carries no timestamp, so the bytes
    depend on the arguments only.
    """
    check_prototypes(prototypes(side))
    rng = np.random.default_rng([seed, 0x61F])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split, n in (("train", train_per_class), ("test", test_per_class)):
        images, labels = make_glyphs(n, side, rng)
        for kind, arr in (("images", images), ("labels", labels)):
            path = out / f"{split}_{kind}.idx.gz"
            path.write_bytes(gzip.compress(serialize_idx(arr), mtime=0))
            paths[f"{split}_{kind}"] = str(path)
    return paths
