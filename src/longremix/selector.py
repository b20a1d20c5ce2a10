"""Clean/noisy set construction.

Four ways to partition the training indices into a labelled set X and an
unlabelled set U, all driven by the per-sample clean posterior:

* ``baseline_split``    - threshold the current epoch's posterior.
* ``hct_split``         - require the posterior to clear the threshold for
  every epoch of a confidence window, the ``(zeta, n)`` array of a net's
  last ``zeta`` posterior vectors, oldest first.
* ``select_core_set``   - keep the largest windowed clean set of the second
  half of a training stage, one epoch's splits at a time, as the stage runs.
* ``guided_split``      - baseline thresholding with the core set pinned
  into X at weight 1.

A split is the X/U index partition plus the weights of X; neither it nor
the core set carries labels. ``mixing.target_table`` looks up X's observed
labels and U's guessed soft labels by index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SplitSets:
    """Partition of the training indices into X and U."""

    labeled_idx: np.ndarray      # sample indices in X
    labeled_w: np.ndarray        # per-member weight
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
    """Immutable snapshot of a windowed clean set's indices and the epoch it
    was captured at."""

    indices: np.ndarray
    epoch: int

    def __post_init__(self):
        # sorted, not np.unique: that loads numpy.ma, which a run otherwise never needs
        ordered = np.sort(self.indices)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("core-set indices must be distinct")

    @property
    def size(self) -> int:
        return len(self.indices)

    @classmethod
    def empty(cls) -> "CoreSet":
        return cls(indices=np.empty(0, dtype=int), epoch=0)


@dataclass(frozen=True)
class CleanSetMetrics:
    precision: float
    recall: float
    precision_defaulted: bool = False


def _assemble(in_x, weights, kind) -> SplitSets:
    x_idx = np.flatnonzero(in_x)
    return SplitSets(labeled_idx=x_idx, labeled_w=weights[x_idx],
                     unlabeled_idx=np.flatnonzero(~in_x), kind=kind)


def baseline_split(posteriors, tau) -> SplitSets:
    """Single-epoch split: X gets every sample with posterior >= tau."""
    posteriors = np.asarray(posteriors, dtype=float)
    return _assemble(posteriors >= tau, posteriors, "baseline")


def hct_split(window, tau) -> SplitSets:
    """Windowed split: X keeps only samples classified clean at every epoch
    of the ``(zeta, n)`` confidence ``window``. Weights carry the current
    (last) epoch's posterior."""
    window = np.asarray(window, dtype=float)
    return _assemble((window >= tau).all(axis=0), window[-1], "hct")


def select_core_set(core, epoch, splits, total_epochs) -> CoreSet | None:
    """The core set chosen so far in a stage of ``total_epochs`` epochs, from
    the choice ``core`` before ``epoch`` (None at first) and the epoch's
    ``splits`` in model order. Only windowed splits of epochs >=
    ceil(total_epochs / 2) count; the largest X wins and ties go to the
    latest, so model 2's beats model 1's within an epoch. A choice whose X
    is empty is ``CoreSet.empty()``. ``TrainConfig`` keeps ``zeta`` within
    ``total_epochs``, so the last epoch's splits are windowed and choose."""
    first = (total_epochs + 1) // 2
    for split in splits:
        if epoch >= first and split.kind == "hct" and (core is None or split.x_size >= core.size):
            core = CoreSet(split.labeled_idx.copy(), epoch) if split.x_size else CoreSet.empty()
    return core


def guided_split(posteriors, tau, core: CoreSet) -> SplitSets:
    """Baseline thresholding with every core-set member pinned into X at
    weight 1; core members never enter U."""
    weights = np.array(posteriors, dtype=float)
    in_x = weights >= tau
    in_x[core.indices] = True
    weights[core.indices] = 1.0
    return _assemble(in_x, weights, "guided")


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
