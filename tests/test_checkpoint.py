import struct
import zlib

import numpy as np
import pytest

from clwb import backbones as bb
from clwb import checkpoint as ck
from clwb import data as dt
from conftest import net_args, train_args, with_meta


def trained_net(kind="hat", seed=0, tasks=2):
    seq = dt.synth_gaussian_tasks(tasks, 2, 4, 10.0, 15, seed=seed,
                                  n_test_per_class=3)
    net = bb.build_masked_net(4, [8], isolation=kind, seed=seed, **net_args())
    for k in range(tasks):
        bb.train_task(net, k, seq.tasks[k][0],
                      **train_args(epochs=4, lr=0.1, seed=seed + k))
    return net


@pytest.mark.parametrize("kind", ["hat", "sup"])
def test_roundtrip_forward_bit_identical(tmp_path, kind):
    net = trained_net(kind=kind)
    path = tmp_path / "model.clwb"
    ck.save_checkpoint(path, net, extra={"note": "test"})
    loaded, meta = ck.load_checkpoint(path)
    assert meta["extra"]["note"] == "test"
    assert meta["topology"] == {"0": 2, "1": 2}
    assert loaded.finished == net.finished
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.normal(size=(1, 4))
        for k in net.finished:
            np.testing.assert_array_equal(bb.task_raw_logits(net, x, k),
                                          bb.task_raw_logits(loaded, x, k))


def test_every_single_byte_flip_detected(tmp_path):
    net = trained_net(kind="sup", tasks=1)
    path = tmp_path / "model.clwb"
    ck.save_checkpoint(path, net)
    blob = bytearray(path.read_bytes())
    rng = np.random.default_rng(2)
    detected = 0
    trials = 100
    for _ in range(trials):
        pos = int(rng.integers(len(blob)))
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0xFF
        bad = tmp_path / "bad.clwb"
        bad.write_bytes(bytes(corrupted))
        try:
            ck.load_checkpoint(bad)
        except ck.CheckpointError:
            detected += 1
    assert detected == trials


def test_bad_magic_and_version(tmp_path):
    net = trained_net(kind="hat", tasks=1)
    path = tmp_path / "model.clwb"
    ck.save_checkpoint(path, net)
    blob = bytearray(path.read_bytes())

    wrong_magic = bytearray(blob)
    wrong_magic[:4] = b"XXXX"
    (tmp_path / "m.clwb").write_bytes(bytes(wrong_magic))
    with pytest.raises(ck.CheckpointFormatError):
        ck.load_checkpoint(tmp_path / "m.clwb")

    bumped = bytearray(blob)
    bumped[4:6] = struct.pack("<H", 99)
    # keep the checksum honest so the version check is what fires
    bumped[-4:] = struct.pack("<I", zlib.crc32(bytes(bumped[:-4])))
    (tmp_path / "v.clwb").write_bytes(bytes(bumped))
    with pytest.raises(ck.CheckpointFormatError, match="version"):
        ck.load_checkpoint(tmp_path / "v.clwb")


def test_save_is_deterministic(tmp_path):
    net = trained_net(kind="hat", tasks=1)
    a, b = tmp_path / "a.clwb", tmp_path / "b.clwb"
    ck.save_checkpoint(a, net, extra={"seed": 7})
    ck.save_checkpoint(b, net, extra={"seed": 7})
    assert a.read_bytes() == b.read_bytes()


def test_truncated_file(tmp_path):
    net = trained_net(kind="sup", tasks=1)
    path = tmp_path / "model.clwb"
    ck.save_checkpoint(path, net)
    (tmp_path / "t.clwb").write_bytes(path.read_bytes()[:20])
    with pytest.raises(ck.CheckpointError):
        ck.load_checkpoint(tmp_path / "t.clwb")


def _with_meta(blob: bytes, mutate) -> bytes:
    """The checkpoint with its meta JSON edited in place by mutate."""
    def make(meta):
        mutate(meta)
        return meta
    return with_meta(blob, make)


@pytest.mark.parametrize("mutate", [
    lambda m: m.update(kind="xyz"),
    lambda m: m.update(kind="sup"),
    lambda m: m.pop("s_max"),
    lambda m: m.update(hat_tasks=[0, 3]),
    lambda m: m["head_kinds"].update({"0": "weird"}),
    lambda m: m.update(trunk_activations=["linear"]),
], ids=["unknown-kind", "wrong-kind", "missing-s_max", "task-without-arrays",
        "unknown-head-kind", "linear-trunk-layer"])
def test_malformed_meta_is_a_format_error(tmp_path, mutate):
    net = trained_net(kind="hat", tasks=1)
    path = tmp_path / "model.clwb"
    ck.save_checkpoint(path, net)
    blob = path.read_bytes()
    assert _with_meta(blob, lambda m: None) == blob
    bad = tmp_path / "bad.clwb"
    bad.write_bytes(_with_meta(blob, mutate))
    with pytest.raises(ck.CheckpointFormatError):
        ck.load_checkpoint(bad)


def _first_entry(entry: dict):
    """make(meta): meta with its first array entry replaced by entry."""
    return lambda m: {**m, "arrays": [entry] + m["arrays"][1:]}


@pytest.mark.parametrize("make", [
    lambda m: [m],
    _first_entry({"name": "trunk_w0"}),
    _first_entry({"name": "trunk_w0", "shape": [-1]}),
    _first_entry({"name": "trunk_w0", "shape": "ab"}),
    lambda m: {**m, "head_kinds": list(m["head_kinds"].values())},
], ids=["meta-list", "entry-without-shape", "negative-shape", "string-shape",
        "head-kinds-list"])
def test_malformed_manifest_with_a_valid_crc_is_a_format_error(tmp_path,
                                                               make):
    net = trained_net(kind="hat", tasks=1)
    path = tmp_path / "model.clwb"
    ck.save_checkpoint(path, net)
    blob = path.read_bytes()
    assert with_meta(blob, lambda m: m) == blob
    bad = tmp_path / "bad.clwb"
    bad.write_bytes(with_meta(blob, make))
    with pytest.raises(ck.CheckpointFormatError):
        ck.load_checkpoint(bad)


def _repacked(edit):
    """blob -> the checkpoint with its meta and arrays edited in place by
    edit(meta, arrays), packed again with a manifest of the edited arrays
    and an honest CRC."""
    def make(blob):
        meta, arrays = ck._unpack(blob)
        for key in ("arrays", "format_version", "clwb_version"):
            del meta[key]
        arrays = dict(arrays)
        edit(meta, arrays)
        return bytes(ck._pack(meta, list(arrays.items())))
    return make


def _short(name):
    return _repacked(lambda m, a: a.update({name: a[name][:-1]}))


def _without_head(meta, arrays):
    del meta["head_kinds"]["2"], arrays["head_w2"], arrays["head_b2"]


@pytest.mark.parametrize("kind, make, message", [
    ("hat", _short("hat_emb1_0"), r"hat_emb1_0 has shape \(7,\)"),
    ("hat", _short("hat_acc0"), r"hat_acc0 has shape \(7,\)"),
    ("sup", _short("sup_mask1_0"), r"sup_mask1_0 has shape \(7, 4\)"),
    ("sup", _repacked(lambda m, a: a.update(sup_mask1_0=a["sup_mask1_0"].T)),
     r"sup_mask1_0 has shape \(4, 8\)"),
    ("hat", _repacked(lambda m, a: m.update(hat_tasks=[0, 1])),
     "finished task 2 has no isolation arrays"),
    ("hat", _repacked(_without_head), "finished task 2 has no head"),
    ("hat", _repacked(lambda m, a: m.update(finished=[0, 0, 1])),
     "finished lists task 0 twice"),
    ("hat", lambda blob: with_meta(blob, _first_entry(
        {"name": "trunk_w0", "shape": [2**32, 2**32]})),
     "array trunk_w0 truncated"),
], ids=["short-hat-emb", "short-hat-acc", "short-sup-mask",
        "transposed-sup-mask", "finished-task-without-isolation-arrays",
        "finished-task-without-a-head", "repeated-finished-task",
        "shape-past-int64"])
def test_fields_that_disagree_are_a_format_error(tmp_path, kind, make,
                                                 message):
    # each file's CRC holds and each array is whole, so only the checks
    # of every field against the others can refuse it
    net = trained_net(kind=kind, tasks=3)
    path = tmp_path / "model.clwb"
    ck.save_checkpoint(path, net)
    blob = path.read_bytes()
    assert _repacked(lambda m, a: None)(blob) == blob
    bad = tmp_path / "bad.clwb"
    bad.write_bytes(make(blob))
    with pytest.raises(ck.CheckpointFormatError, match=message):
        ck.load_checkpoint(bad)

