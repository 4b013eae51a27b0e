"""Every training phase runs through ``backbones._train_epochs``.

The functions below are the earlier two-loop trainer, kept as the oracle:
``_train_epochs`` for the CE, rotation-CE and contrastive phases and a
separate minibatch loop for the rotation head on the frozen trunk. Both must
give bitwise-equal checkpoints and epoch traces.
"""

import numpy as np
import pytest

from clwb import backbones as bb
from clwb import checkpoint as ck
from clwb import numkit as nk
from clwb import oodlab as ol
from clwb.config import LossCfg
from clwb.data import LabeledImageSet
from conftest import net_args, train_args


def oracle_train_task(net, task, data, *, loss="ce", epochs=20, lr=0.1,
                      batch_size=16, seed=0, contrastive_epochs=None,
                      head_epochs=None, head_lr=None, contrastive_tau=0.5,
                      flip_prob=0.5, noise_sigma=0.05):
    if task in net.finished:
        raise nk.StateError(f"task {task} already finished")
    rng = np.random.default_rng([seed, task, 1])
    net.isolation.start_task(net, task, rng)

    augment = {"flip_prob": flip_prob, "noise_sigma": noise_sigma}
    if loss == "contrastive":
        head = None
        main_epochs = contrastive_epochs if contrastive_epochs is not None \
            else epochs
    else:
        head = bb._init_head(net, task,
                             data.n_classes * (1 if loss == "ce" else 4),
                             "plain" if loss == "ce" else "rotation", rng)
        main_epochs = epochs
    trace = oracle_train_epochs(net, task, data, rng, loss=loss,
                                epochs=main_epochs, lr=lr,
                                batch_size=batch_size, tau=contrastive_tau,
                                head=head, augment=augment)
    net.isolation.finish_task(net, task)
    if head is None:
        head_losses = oracle_finetune_rotation_head(
            net, task, data,
            epochs=head_epochs if head_epochs is not None else epochs,
            lr=head_lr if head_lr is not None else lr,
            batch_size=batch_size, rng=rng, **augment)
        trace += [bb.EpochStats(i, h, ce=h, phase="head")
                  for i, h in enumerate(head_losses)]

    net.finished.append(task)
    return trace


def oracle_train_epochs(net, task, data, rng, *, loss, epochs, lr,
                        batch_size, tau, head, augment):
    state = net.isolation
    n = len(data)
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        batches = [order[i:i + batch_size] for i in range(0, n, batch_size)]
        sums = {"loss": 0.0, "ce": 0.0, "reg": 0.0}
        for b, idx in enumerate(batches):
            s = state.scale(b, len(batches))
            if loss == "ce":
                bx, by = data.images[idx], data.labels[idx]
            else:
                bx, by = ol.build_rotation_batch(
                    data.images[idx], data.labels[idx], rng=rng, **augment)

            feats, cache, run_trunk = bb.task_features(net, bx, task, s=s)
            if head is None:
                z, d_feats_fn = bb._normalize_rows(feats)
                ce_val, dz = ol.sup_con_loss(z, by, tau=tau)
                d_feats = d_feats_fn(dz)
            else:
                ce_val, d_logits = nk.softmax_ce(bb._head_logits(head, feats),
                                                 by)
                d_feats = d_logits @ head.weight

            tape = nk.GradTape.for_net(run_trunk)
            nk.backward(run_trunk, tape, cache, d_feats)
            reg_val = state.after_backward(net, task, tape, cache, s, lr)
            if head is not None:
                bb._head_step(head, feats, d_logits, lr)

            sums["loss"] += ce_val + reg_val
            sums["ce"] += ce_val
            sums["reg"] += reg_val
        k = len(batches)
        trace.append(bb.EpochStats(epoch, sums["loss"] / k, ce=sums["ce"] / k,
                                   reg=sums["reg"] / k,
                                   phase="contrastive" if head is None
                                   else "main"))
    return trace


def oracle_finetune_rotation_head(net, task, data, *, epochs, lr, batch_size,
                                  rng, flip_prob=0.5, noise_sigma=0.05):
    head = bb._init_head(net, task, 4 * data.n_classes, "rotation", rng)
    losses = []
    n = len(data)
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        batches = [order[i:i + batch_size] for i in range(0, n, batch_size)]
        for idx in batches:
            imgs, ys = ol.build_rotation_batch(data.images[idx],
                                               data.labels[idx], rng=rng,
                                               flip_prob=flip_prob,
                                               noise_sigma=noise_sigma)
            feats, _, _ = bb.task_features(net, imgs, task)
            value, dlogits = nk.softmax_ce(bb._head_logits(head, feats), ys)
            bb._head_step(head, feats, dlogits, lr)
            total += value
        losses.append(total / len(batches))
    return losses


def tiny_tasks(n_tasks=2, n=10, classes=2, seed=3):
    rng = np.random.default_rng(seed)
    return [LabeledImageSet(rng.random((n, 4, 4)), np.arange(n) % classes,
                            classes) for _ in range(n_tasks)]


def run(train, kind, loss, tmp_path, name):
    net = bb.build_masked_net(16, [12, 8], isolation=kind, seed=5,
                              **net_args())
    trace = []
    for task, data in enumerate(tiny_tasks()):
        trace += train(net, task, data,
                       **train_args(loss=loss, epochs=3, lr=0.1, batch_size=4,
                                    seed=7, contrastive_epochs=2,
                                    head_epochs=4, head_lr=0.3,
                                    contrastive_tau=0.7))
    path = tmp_path / name
    ck.save_checkpoint(path, net)
    return trace, ck._unpack(path.read_bytes())


@pytest.mark.parametrize("kind", ["hat", "sup"])
@pytest.mark.parametrize("loss", ["ce", "rotation-ce", "contrastive"])
def test_one_loop_matches_the_two_loop_oracle(kind, loss, tmp_path):
    trace, (meta, arrays) = run(bb.train_task, kind, loss, tmp_path, "new")
    want_trace, (want_meta, want_arrays) = run(oracle_train_task, kind, loss,
                                               tmp_path, "oracle")
    assert trace == want_trace
    assert meta == want_meta
    assert list(arrays) == list(want_arrays)
    for name, a in arrays.items():
        np.testing.assert_array_equal(a, want_arrays[name], err_msg=name)
    phases = [e.phase for e in trace]
    if loss == "contrastive":
        assert phases == (["contrastive"] * 2 + ["head"] * 4) * 2
    else:
        assert phases == ["main"] * 6


def test_rotation_head_needs_a_finished_task():
    net = bb.build_masked_net(16, [8], isolation="sup", seed=1, **net_args())
    net.isolation.start_task(net, 0, np.random.default_rng(2))
    with pytest.raises(nk.StateError):
        ol.finetune_rotation_head(net, 0, tiny_tasks(1)[0], epochs=1, lr=0.1,
                                  batch_size=4, rng=np.random.default_rng(3),
                                  flip_prob=LossCfg().flip_prob,
                                  noise_sigma=LossCfg().noise_sigma)
