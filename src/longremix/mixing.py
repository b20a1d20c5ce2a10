"""MixUp sampling over the clean/noisy split: epoch plans, targets and mixed batches.

An epoch plan lists which anchor/partner pairs get mixed. In longmix mode
both the labelled and the unlabelled plans hold one instruction per
training sample (anchors resampled with replacement), decoupling the
number of mix operations from the size of the predicted-clean set; the
baseline-compat mode sizes both plans to the clean set instead. A split
carries no labels: X's targets are the one-hot observed labels, U's the
epoch's guessed soft labels. The mixed batches train on ``nn.TotalLoss``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .seeding import derive_rng
from .selector import SplitSets


@dataclass(frozen=True)
class EpochPlan:
    x_anchor: np.ndarray   # labelled-anchor sample indices, with replacement
    x_partner: np.ndarray  # partner indices, uniform over X and U
    u_anchor: np.ndarray   # unlabelled-anchor sample indices
    u_partner: np.ndarray
    seed: tuple

    @property
    def x_ops(self) -> int:
        return len(self.x_anchor)

    @property
    def u_ops(self) -> int:
        return len(self.u_anchor)


def build_epoch_plan(labeled_idx, unlabeled_idx, dataset_size, seed,
                     longmix=True) -> EpochPlan:
    """Draw the epoch's mix instructions.

    Longmix mode draws ``dataset_size`` anchors from each of X and U;
    baseline-compat mode draws ``len(labeled_idx)`` from each. Partners are
    uniform with replacement over X plus U either way. With an empty U the
    plan carries labelled instructions only. ``seed`` is the plan's
    ``derive_rng`` key tuple.
    """
    rng = derive_rng(*seed)
    target = int(dataset_size) if longmix else len(labeled_idx)
    pool = np.concatenate([labeled_idx, unlabeled_idx])

    x_anchor = labeled_idx[rng.integers(0, len(labeled_idx), size=target)]
    x_partner = pool[rng.integers(0, len(pool), size=target)]
    if len(unlabeled_idx) == 0:
        return EpochPlan(x_anchor=x_anchor, x_partner=x_partner,
                         u_anchor=np.empty(0, dtype=int), u_partner=np.empty(0, dtype=int),
                         seed=seed)
    u_anchor = unlabeled_idx[rng.integers(0, len(unlabeled_idx), size=target)]
    u_partner = pool[rng.integers(0, len(pool), size=target)]
    return EpochPlan(x_anchor=x_anchor, x_partner=x_partner,
                     u_anchor=u_anchor, u_partner=u_partner, seed=seed)


def one_hot(labels, num_classes) -> np.ndarray:
    return np.eye(num_classes)[labels]


def target_table(split: SplitSets, labels, guessed) -> np.ndarray:
    """Per-sample training targets: the one-hot observed ``labels`` for X
    members, the epoch's guessed soft labels (an (n, C) table over all
    samples) for U members."""
    table = one_hot(labels, guessed.shape[1])
    table[split.unlabeled_idx] = guessed[split.unlabeled_idx]
    return table


def mix_plan(plan: EpochPlan, features, targets, alpha, rng):
    """Realize a plan into labelled and unlabelled mixed ``(features, targets)`` pairs."""
    def _mix(anchor, partner):
        col = rng.beta(alpha, alpha, size=len(anchor))[:, None]
        return (col * features[anchor] + (1.0 - col) * features[partner],
                col * targets[anchor] + (1.0 - col) * targets[partner])

    return _mix(plan.x_anchor, plan.x_partner), _mix(plan.u_anchor, plan.u_partner)


def plan_digest(plan: EpochPlan) -> str:
    """Stable digest of a plan for reproducibility audits."""
    h = hashlib.sha256()
    h.update(repr(plan.seed).encode())
    for arr in (plan.x_anchor, plan.x_partner, plan.u_anchor, plan.u_partner):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()
