"""Row batches are the only input shape of the workbench API: every function
that takes instances rejects a 1-D input with an error naming the (n, ...)
shape it expects."""

import numpy as np
import pytest

from clwb import backbones as bb
from clwb import composer as cp
from clwb import data as dt
from clwb import numkit as nk
from clwb import oodlab as ol
from clwb import theory as th
from conftest import net_args, train_args


def _trained(kind):
    seq = dt.synth_gaussian_tasks(1, 2, 4, 10.0, 10, seed=0,
                                  n_test_per_class=2)
    net = bb.build_masked_net(4, [8], isolation=kind, seed=0, **net_args())
    bb.train_task(net, 0, seq.tasks[0][0], **train_args(epochs=1, seed=0))
    return net


@pytest.fixture(scope="module")
def nets():
    rotation = bb.build_masked_net(16, [8], isolation="hat", seed=0,
                                   **net_args())
    rotation.isolation.embeddings[0] = np.zeros(8)
    rotation.heads[0] = bb.Head(np.zeros((8, 8)), np.zeros(8), "rotation")
    return {"hat": _trained("hat"), "sup": _trained("sup"),
            "rotation": rotation}


VECTOR = np.full(4, 0.25)
ODIN = ol.OdinParams(tau=2.0, eps=0.01)
TOPO22 = th.TaskTopology((2, 2))
ONE = th.EntropyReport(None, np.float64(0.1), np.float64(0.1),
                       np.float64(0.2))


# (function, call on one instance given as a 1-D input or a single image)
CALLS = {
    "numkit.forward": lambda n: nk.forward(
        nk.glorot_net([4, 3, 2], np.random.default_rng(0)), VECTOR),
    "numkit.softmax_ce": lambda n: nk.softmax_ce(VECTOR, 0),
    "backbones.task_features": lambda n: bb.task_features(n["hat"], VECTOR, 0),
    "backbones.task_raw_logits": lambda n: bb.task_raw_logits(n["sup"],
                                                              VECTOR, 0),
    "backbones.hat_forward": lambda n: bb.hat_forward(n["hat"], VECTOR, 0),
    "backbones.sup_masked_forward": lambda n: bb.sup_masked_forward(
        n["sup"], VECTOR, 0),
    "oodlab.msp_score": lambda n: ol.msp_score(VECTOR),
    "oodlab.OdinRows": lambda n: ol.OdinRows(n["hat"], VECTOR, 0, [1.0]),
    # ODIN takes its rows as an OdinRows only
    "oodlab.odin_perturb": lambda n: ol.odin_perturb(
        n["hat"], ol.OdinRows(n["hat"], VECTOR, 0, [ODIN.tau]), 0, ODIN),
    "oodlab.odin_score": lambda n: ol.odin_score(
        n["sup"], ol.OdinRows(n["sup"], VECTOR, 0, [ODIN.tau]), 0, ODIN),
    "oodlab.rotate90": lambda n: ol.rotate90(np.zeros((4, 4)), 1),
    "oodlab.ensemble_logits": lambda n: ol.ensemble_logits(
        n["rotation"], np.zeros((4, 4)), 0, np.zeros((1, 8))),
    "oodlab.class_logits[plain]": lambda n: ol.class_logits(n["hat"],
                                                            VECTOR, 0),
    "oodlab.class_logits[rotation]": lambda n: ol.class_logits(
        n["rotation"], np.zeros((4, 4)), 0),
    "composer.calibration_loss": lambda n: cp.calibration_loss(
        VECTOR, np.array(0), cp._columns([2, 2]), np.ones(2), np.zeros(2)),
    "composer.tp_sigmoid_maxlogit": lambda n: cp.tp_sigmoid_maxlogit(
        [VECTOR[:2], VECTOR[2:]]),
    "composer.tp_maxsoftmax_temperature":
        lambda n: cp.tp_maxsoftmax_temperature([VECTOR[:2], VECTOR[2:]], 5.0),
    "theory.compose_cil": lambda n: th.compose_cil(2 * VECTOR, [0.5, 0.5],
                                                   TOPO22),
    "theory.check_theorem1": lambda n: th.check_theorem1(ONE, 0.1, 0.1),
    "theory.ood_from_tp": lambda n: th.ood_from_tp([0.5, 0.5]),
    "theory.cross_entropy": lambda n: th.cross_entropy(0, VECTOR),
    "theory.ood_entropies": lambda n: th.ood_entropies(VECTOR, 0),
    "theory.tp_from_ood": lambda n: th.tp_from_ood(VECTOR),
    "theory.theorem2_bound": lambda n: th.theorem2_bound(VECTOR, 0),
    "theory.check_theorem3": lambda n: th.check_theorem3(
        ONE, VECTOR[:2], 0.1, VECTOR[:2], 0),
    "theory.theorem4_construct": lambda n: th.theorem4_construct(
        VECTOR, TOPO22, 0, 0),
    "theory.theorem5_ood_from_tp": lambda n: th.theorem5_ood_from_tp(
        VECTOR, np.ones(4), 0),
    "theory.theorem5_tp_from_ood": lambda n: th.theorem5_tp_from_ood(
        VECTOR, np.ones(4)),
    "theory.theorem5_bound": lambda n: th.theorem5_bound(VECTOR, np.ones(4),
                                                         0),
    # temperatures are (n, K) rows, one per entry, like the batch they go with
    "theory.theorem5_ood_from_tp[scalar tau]": lambda n:
        th.theorem5_ood_from_tp(VECTOR[None], 2.0, [0]),
    "theory.theorem5_tp_from_ood[scalar tau]": lambda n:
        th.theorem5_tp_from_ood(VECTOR[None], 2.0),
    "theory.theorem5_bound[scalar tau]": lambda n: th.theorem5_bound(
        VECTOR[None], 2.0, [0]),
}


@pytest.mark.parametrize("name", CALLS)
def test_one_instance_input_names_the_row_batch_shape(nets, name):
    with pytest.raises(ValueError, match=r"\(n, "):
        CALLS[name](nets)
