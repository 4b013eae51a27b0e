"""Every training phase runs through ``backbones._train_epochs``.

The functions below are the earlier two-loop trainer, kept as the oracle:
``_train_epochs`` for the CE, rotation-CE and contrastive phases and a
separate minibatch loop for the rotation head on the frozen trunk. Its step
does not share the live one: it keeps its own copies of the per-layer code
that came before the flat parameter, gradient and embedding buffers (a
fresh per-layer tape, the embedding draw, the gates, the supermasked trunk,
the gradient mask, the regularizer, SGD and the embedding step). Both must
give byte-equal checkpoints and epoch traces.
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


class OldTape:
    """One zeroed gradient array per layer, taken fresh for each step."""

    def __init__(self, net):
        self.d_weights = [np.zeros_like(w) for w in net.weights]
        self.d_biases = [np.zeros_like(b) for b in net.biases]
        self.d_hooks = None


def old_start_task(net, task, rng):
    state = net.isolation
    if state.kind == "hat":  # one draw per layer
        state.embeddings[task] = [rng.normal(size=acc.shape)
                                  for acc in state.accumulated]
    else:
        state.start_task(net, task, rng)


def old_hat_attention(e, s):
    z = s * np.asarray(e, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def old_task_features(net, x, task, s=None):
    """The trunk forward with per-layer gates, or with a trunk whose every
    weight matrix is multiplied by its mask."""
    state = net.isolation
    x = bb._flatten(x, net.trunk.weights[0].shape[1])
    if state.kind == "hat":
        scale = state.s_max if s is None else s
        trunk = net.trunk
        hooks = [old_hat_attention(e, scale) for e in state.embeddings[task]]
    else:
        masks = state.masks[task] if task in state.masks else \
            bb.mask_from_scores(state.scores, state.p)
        trunk = nk.DenseNet([w * m for w, m in zip(net.trunk.weights, masks)],
                            net.trunk.biases)
        hooks = None
    feats, cache = nk.forward(trunk, x, hooks)
    return feats, cache, trunk


def old_sgd_step(net, tape, lr):
    for l, (gw, gb) in enumerate(zip(tape.d_weights, tape.d_biases)):
        if not (np.isfinite(gw).all() and np.isfinite(gb).all()):
            raise nk.NumericError("non-finite gradient", l)
        net.weights[l] -= lr * gw
        net.biases[l] -= lr * gb


def old_after_backward(net, task, tape, cache, s, lr):
    state = net.isolation
    if state.kind == "sup":
        for v, g, w in zip(state.scores, tape.d_weights, net.trunk.weights):
            v -= lr * (g * w)
        return 0.0
    attn, acc = cache.hooks, state.accumulated
    lam = state.lambda_for(task)
    free = [1.0 - a for a in acc]
    denom = float(sum(f.sum() for f in free))
    if denom == 0.0:
        reg_val, e_grads = 0.0, [np.zeros_like(a) for a in attn]
    else:
        reg_val = lam * float(sum((a * f).sum()
                                  for a, f in zip(attn, free))) / denom
        e_grads = [lam * f / denom * a * (1.0 - a) * s
                   for a, f in zip(attn, free)]
    for l, (o, i) in enumerate(zip(acc, [np.ones(1)] + acc[:-1])):
        tape.d_weights[l] *= 1.0 - np.minimum(o[:, None], i[None, :])
        tape.d_biases[l] *= free[l]
    old_sgd_step(net.trunk, tape, lr)
    for l, eg in enumerate(e_grads):
        total = eg + tape.d_hooks[l] * attn[l] * (1.0 - attn[l]) * s
        state.embeddings[task][l] -= lr * total
    return reg_val


def oracle_train_task(net, task, data, *, loss="ce", epochs=20, lr=0.1,
                      batch_size=16, seed=0, contrastive_epochs=None,
                      head_epochs=None, head_lr=None, contrastive_tau=0.5,
                      flip_prob=0.5, noise_sigma=0.05):
    if task in net.finished:
        raise nk.StateError(f"task {task} already finished")
    rng = np.random.default_rng([seed, task, 1])
    old_start_task(net, task, rng)

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

            feats, cache, run_trunk = old_task_features(net, bx, task, s=s)
            if head is None:
                z, d_feats_fn = bb._normalize_rows(feats)
                ce_val, dz = ol.sup_con_loss(z, by, tau=tau)
                d_feats = d_feats_fn(dz)
            else:
                ce_val, d_logits = nk.softmax_ce(bb._head_logits(head, feats),
                                                 by)
                d_feats = d_logits @ head.weight

            tape = OldTape(run_trunk)
            nk.backward(run_trunk, tape, cache, d_feats)
            reg_val = old_after_backward(net, task, tape, cache, s, lr)
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
            feats, _, _ = old_task_features(net, imgs, task)
            value, dlogits = nk.softmax_ce(bb._head_logits(head, feats), ys)
            bb._head_step(head, feats, dlogits, lr)
            total += value
        losses.append(total / len(batches))
    return losses


def tiny_tasks(n_tasks=2, n=10, classes=2, seed=3):
    rng = np.random.default_rng(seed)
    return [LabeledImageSet(rng.random((n, 4, 4)), np.arange(n) % classes,
                            classes) for _ in range(n_tasks)]


def run(train, kind, loss, tmp_path, name, hidden=(12, 8), before=None,
        **isolation):
    """Train tiny_tasks() on a fresh net; before(net, task), if given, runs
    before each task. Returns the trace and the checkpoint's contents."""
    net = bb.build_masked_net(16, list(hidden), isolation=kind, seed=5,
                              **net_args(**isolation))
    trace = []
    for task, data in enumerate(tiny_tasks()):
        if before is not None:
            before(net, task)
        trace += train(net, task, data,
                       **train_args(loss=loss, epochs=3, lr=0.1, batch_size=4,
                                    seed=7, contrastive_epochs=2,
                                    head_epochs=4, head_lr=0.3,
                                    contrastive_tau=0.7))
    path = tmp_path / name
    ck.save_checkpoint(path, net)
    return trace, ck._unpack(path.read_bytes())


def trace_bytes(trace):
    """Every float of the trace as bytes: -0.0 and 0.0 differ."""
    return [(e.epoch, e.phase, np.array([e.loss, e.ce, e.reg]).tobytes())
            for e in trace]


def assert_same_run(got, want):
    (trace, (meta, arrays)), (want_trace, (want_meta, want_arrays)) = got, want
    assert trace_bytes(trace) == trace_bytes(want_trace)
    assert meta == want_meta
    assert list(arrays) == list(want_arrays)
    for name, a in arrays.items():
        b = want_arrays[name]
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("kind", ["hat", "sup"])
@pytest.mark.parametrize("loss", ["ce", "rotation-ce", "contrastive"])
def test_one_loop_matches_the_two_loop_oracle(kind, loss, tmp_path):
    got = run(bb.train_task, kind, loss, tmp_path, "new")
    assert_same_run(got, run(oracle_train_task, kind, loss, tmp_path,
                             "oracle"))
    phases = [e.phase for e in got[0]]
    if loss == "contrastive":
        assert phases == (["contrastive"] * 2 + ["head"] * 4) * 2
    else:
        assert phases == ["main"] * 6


@pytest.mark.parametrize("lambdas", [[0.0], [1.0, 0.75], [50.0]])
@pytest.mark.parametrize("loss", ["ce", "contrastive"])
def test_a_deep_hat_trunk_of_unequal_widths_matches_the_oracle(
        lambdas, loss, tmp_path):
    # three layers of unequal widths: every view of the flat buffers has
    # its own offset and shape
    args = dict(hidden=(11, 6, 9), lambdas=lambdas)
    got = run(bb.train_task, "hat", loss, tmp_path, "new", **args)
    assert_same_run(got, run(oracle_train_task, "hat", loss, tmp_path,
                             "oracle", **args))
    if lambdas == [0.0]:
        assert all(e.reg == 0.0 for e in got[0])


def test_exhausted_capacity_leaves_the_trunk_byte_equal(tmp_path):
    trunks = []

    def claim_every_unit(net, task):
        # before task 1, every unit counts as claimed by an earlier task
        if task == 1:
            state = net.isolation
            state.accumulated = [np.ones_like(a) for a in state.accumulated]
            trunks.append([p.copy() for p in net.trunk.weights +
                           net.trunk.biases])

    got = run(bb.train_task, "hat", "ce", tmp_path, "new",
              before=claim_every_unit)
    assert_same_run(got, run(oracle_train_task, "hat", "ce", tmp_path,
                             "oracle", before=claim_every_unit))
    trace, (_, arrays) = got
    after = [arrays[f"trunk_{p}{l}"] for p in "wb" for l in range(2)]
    assert [a.tobytes() for a in after] == [b.tobytes() for b in trunks[0]]
    assert [e.reg for e in trace[3:]] == [0.0] * 3  # three epochs of task 1


def test_rotation_head_needs_a_finished_task():
    net = bb.build_masked_net(16, [8], isolation="sup", seed=1, **net_args())
    net.isolation.start_task(net, 0, np.random.default_rng(2))
    with pytest.raises(nk.StateError):
        ol.finetune_rotation_head(net, 0, tiny_tasks(1)[0], epochs=1, lr=0.1,
                                  batch_size=4, rng=np.random.default_rng(3),
                                  flip_prob=LossCfg().flip_prob,
                                  noise_sigma=LossCfg().noise_sigma)
