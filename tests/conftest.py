import gzip
import json
import struct
import zlib

import numpy as np
import pytest

from clwb import data as dt
from clwb import verify
from clwb.config import BackboneCfg, LossCfg


def net_args(**overrides) -> dict:
    """build_masked_net's isolation values from the default BackboneCfg,
    each replaceable per test."""
    b = BackboneCfg()
    return {"s_max": b.s_max, "lambdas": b.lambdas, "sparsity": b.sparsity,
            **overrides}


def train_args(*, seed: int, **overrides) -> dict:
    """train_task's keyword arguments from the default BackboneCfg and
    LossCfg, each replaceable per test. A loss phase's epochs or lr left at
    0 takes the backbone value, as experiment.train_run resolves it."""
    b, lc = BackboneCfg(), LossCfg()
    args = {"loss": lc.kind, "epochs": b.epochs, "lr": b.lr,
            "batch_size": b.batch, "seed": seed,
            "contrastive_epochs": lc.contrastive_epochs,
            "head_epochs": lc.head_epochs, "head_lr": lc.head_lr,
            "contrastive_tau": lc.temperature, "flip_prob": lc.flip_prob,
            "noise_sigma": lc.noise_sigma, **overrides}
    for key, base in (("contrastive_epochs", "epochs"),
                      ("head_epochs", "epochs"), ("head_lr", "lr")):
        args[key] = args[key] or args[base]
    return args


def with_meta(blob: bytes, make) -> bytes:
    """The checkpoint blob with its meta JSON replaced by make(meta),
    whatever JSON value that is, and the CRC re-signed, so the meta checks
    are what fires."""
    (meta_len,) = struct.unpack("<I", blob[6:10])
    meta_blob = json.dumps(make(json.loads(blob[10:10 + meta_len])),
                           sort_keys=True).encode()
    body = (blob[:6] + struct.pack("<I", len(meta_blob)) + meta_blob
            + blob[10 + meta_len:-4])
    return body + struct.pack("<I", zlib.crc32(body))


@pytest.fixture
def negate_suite(monkeypatch):
    """``negate_suite(name)`` inverts that verify suite's verdicts for the
    test, so every trial becomes a counterexample the harness must report."""
    def install(name):
        suite = verify._SUITES[name]

        def negated(rng, trials):
            for ok, dump in suite(rng, trials):
                yield ~ok, dump

        monkeypatch.setitem(verify._SUITES, name, negated)
    return install


@pytest.fixture(scope="session")
def digits_idx(tmp_path_factory):
    """The bundled 8x8 handwritten-digits corpus written as gzip IDX files.

    Stand-in for MNIST at desk scale: same format, same 10-digit task
    structure, stratified 80/20 train/test split, deterministic.
    """
    sklearn = pytest.importorskip("sklearn.datasets")
    d = sklearn.load_digits()
    images = np.round(d.images / 16.0 * 255).astype(np.uint8)
    labels = d.target.astype(np.intp)
    rng = np.random.default_rng(0)
    test_mask = np.zeros(len(labels), dtype=bool)
    for c in range(10):
        members = np.flatnonzero(labels == c)
        test_mask[rng.permutation(members)[: len(members) // 5]] = True

    root = tmp_path_factory.mktemp("digits")
    paths = {}
    for name, mask in (("train", ~test_mask), ("test", test_mask)):
        img = root / f"{name}-images.idx.gz"
        lbl = root / f"{name}-labels.idx.gz"
        img.write_bytes(gzip.compress(dt.serialize_idx(images[mask] / 255.0)))
        lbl.write_bytes(gzip.compress(dt.serialize_idx(labels[mask])))
        paths[f"{name}_images"] = str(img)
        paths[f"{name}_labels"] = str(lbl)
    return paths


def digits_config_text(paths, *, seed=7, out="runs", tasks=5,
                       classes_per_task=2, backbone="hat", hidden="100, 100",
                       epochs=40, lr=0.1, batch=32, lambdas="0.1, 0.05",
                       extra=""):
    return f"""
[experiment]
seed = {seed}
out = {out}

[data]
source = idx
train_images = {paths['train_images']}
train_labels = {paths['train_labels']}
test_images = {paths['test_images']}
test_labels = {paths['test_labels']}

[tasks]
count = {tasks}
classes_per_task = {classes_per_task}

[backbone]
kind = {backbone}
hidden = {hidden}
epochs = {epochs}
lr = {lr}
batch = {batch}
lambdas = {lambdas}
{extra}
"""


@pytest.fixture()
def synth_config_text(tmp_path):
    def make(seed=11, tasks=3, dim=4, epochs=15, backbone="hat", extra=""):
        return f"""
[experiment]
seed = {seed}
out = {tmp_path / 'run'}

[data]
source = synthetic
dim = {dim}
separation = 8.0
per_class = 40

[tasks]
count = {tasks}
classes_per_task = 2

[backbone]
kind = {backbone}
hidden = 16
epochs = {epochs}
lr = 0.1
batch = 8
{extra}
"""
    return make
