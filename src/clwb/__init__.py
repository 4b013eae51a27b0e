"""Continual-learning workbench.

Library layers, bottom up: ``numkit`` (dense nets + gradients), ``theory``
(entropy decomposition and bound predicates), ``data`` / ``metrics``,
``backbones`` (HAT and supermask task trainers), ``oodlab`` (task-membership
scoring), ``composer`` (class-incremental prediction routes), and the
``clwb`` command line on top (``verify`` / ``train`` / ``eval`` /
``calibrate`` / ``report``).
"""

__version__ = "0.1.0"
CHECKPOINT_FORMAT_VERSION = 2
