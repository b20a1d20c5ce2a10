"""Clean/noisy set construction.

Four ways to partition the training indices into a labelled set X and an
unlabelled set U, all driven by the per-sample clean posterior:

* ``baseline_split``    - threshold the current epoch's posterior.
* ``hct_split``         - require the posterior to clear the threshold for
  every epoch of a sliding confidence window.
* ``select_core_set``   - pick the largest windowed clean set captured over
  the second half of a training stage.
* ``guided_split``      - baseline thresholding with the core set pinned
  into X at weight 1 and its captured labels.

A split is the index partition plus the weights and labels of X; the soft
targets of U belong to the training epoch and ``mixing.target_table``
looks them up by index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import StateError


class LossHistory:
    """Ring buffer of the last ``zeta`` epochs' clean posteriors per sample."""

    def __init__(self, n_samples: int, zeta: int):
        self.n_samples = n_samples
        self.zeta = zeta
        self._buf: deque = deque(maxlen=zeta)

    def push(self, posteriors):
        posteriors = np.asarray(posteriors, dtype=float)
        if posteriors.shape != (self.n_samples,):
            raise ValueError("posterior vector misaligned with dataset")
        self._buf.append(posteriors)

    def __len__(self):
        return len(self._buf)

    @property
    def full(self) -> bool:
        return len(self._buf) == self.zeta

    def window(self, zeta=None) -> np.ndarray:
        """Last ``zeta`` epochs of posteriors, shape (zeta, n_samples)."""
        zeta = self.zeta if zeta is None else zeta
        if len(self._buf) < zeta:
            raise StateError(f"window holds {len(self._buf)} epochs, need {zeta}")
        return np.stack(list(self._buf)[-zeta:])

    def verdicts(self, tau, zeta=None) -> np.ndarray:
        return self.window(zeta) >= tau

    def current(self) -> np.ndarray:
        if not self._buf:
            raise StateError("no posteriors recorded yet")
        return self._buf[-1]


@dataclass
class SplitSets:
    """Partition of the training indices into X and U."""

    labeled_idx: np.ndarray      # sample indices in X
    labeled_w: np.ndarray        # per-member weight
    labeled_labels: np.ndarray   # class index each X member trains with
    unlabeled_idx: np.ndarray    # sample indices in U
    kind: str                    # baseline | hct | guided

    @property
    def x_size(self) -> int:
        return len(self.labeled_idx)

    @property
    def u_size(self) -> int:
        return len(self.unlabeled_idx)


@dataclass(frozen=True)
class CoreSet:
    """Immutable snapshot of a windowed clean set: indices plus the observed
    labels they carried when captured."""

    indices: np.ndarray
    labels: np.ndarray
    epoch: int

    def __post_init__(self):
        if len(np.unique(self.indices)) != len(self.indices):
            raise ValueError("core-set indices must be distinct")
        if len(self.labels) != len(self.indices):
            raise ValueError("core-set labels misaligned")

    @property
    def size(self) -> int:
        return len(self.indices)

    @classmethod
    def empty(cls) -> "CoreSet":
        return cls(indices=np.empty(0, dtype=int), labels=np.empty(0, dtype=int), epoch=0)


@dataclass(frozen=True)
class CleanSetMetrics:
    precision: float
    recall: float
    precision_defaulted: bool = False


def _assemble(in_x, weights, labels, kind) -> SplitSets:
    x_idx = np.flatnonzero(in_x)
    return SplitSets(labeled_idx=x_idx, labeled_w=weights[x_idx],
                     labeled_labels=np.asarray(labels, dtype=int)[x_idx],
                     unlabeled_idx=np.flatnonzero(~in_x), kind=kind)


def baseline_split(posteriors, tau, labels) -> SplitSets:
    """Single-epoch split: X gets every sample with posterior >= tau."""
    posteriors = np.asarray(posteriors, dtype=float)
    return _assemble(posteriors >= tau, posteriors, labels, "baseline")


def hct_split(history: LossHistory, tau, labels, zeta=None) -> SplitSets:
    """Windowed split: X keeps only samples classified clean at every epoch
    of the confidence window. Weights carry the current-epoch posterior."""
    verdicts = history.verdicts(tau, zeta)
    current = history.current()
    return _assemble(verdicts.all(axis=0), current, labels, "hct")


def select_core_set(stage1_records, total_epochs) -> CoreSet:
    """Largest windowed clean set among snapshots from the second half of the
    stage (epochs >= ceil(total_epochs / 2)); ties go to the latest record,
    and a stage whose eligible snapshots are all empty captures
    ``CoreSet.empty()``."""
    first = (total_epochs + 1) // 2
    eligible = [(epoch, split) for epoch, split in stage1_records if epoch >= first]
    if not eligible:
        raise StateError(f"no clean-set snapshots recorded for epochs {first}..{total_epochs}")
    best_epoch, best = eligible[0]
    for epoch, split in eligible[1:]:
        if split.x_size >= best.x_size:
            best_epoch, best = epoch, split
    if best.x_size == 0:
        return CoreSet.empty()
    return CoreSet(indices=best.labeled_idx.copy(), labels=best.labeled_labels.copy(),
                   epoch=best_epoch)


def guided_split(posteriors, tau, core: CoreSet, labels) -> SplitSets:
    """Baseline thresholding with every core-set member pinned into X at
    weight 1, carrying its captured label; core members never enter U."""
    weights = np.array(posteriors, dtype=float)
    labels = np.array(labels, dtype=int)
    in_x = weights >= tau
    in_x[core.indices] = True
    weights[core.indices] = 1.0
    labels[core.indices] = core.labels
    return _assemble(in_x, weights, labels, "guided")


def clean_set_metrics(split: SplitSets, mask) -> CleanSetMetrics:
    """Precision/recall of X against the ground-truth noise mask.

    TP: clean samples in X, FP: noisy samples in X, FN: clean samples in U.
    Empty denominators default to 1.0; an empty X is flagged.
    """
    mask = np.asarray(mask, dtype=bool)
    tp = int((~mask[split.labeled_idx]).sum())
    fp = int(mask[split.labeled_idx].sum())
    fn = int((~mask[split.unlabeled_idx]).sum())
    p_def = (tp + fp) == 0
    return CleanSetMetrics(
        precision=1.0 if p_def else tp / (tp + fp),
        recall=1.0 if tp + fn == 0 else tp / (tp + fn),
        precision_defaulted=p_def)
