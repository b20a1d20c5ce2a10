"""Training orchestration: warmup, co-trained selection epochs, and the
two-stage schedule (confidence-window selection, then guided retraining
from scratch with the captured core set pinned into the labelled set).

Mode ``ce`` is plain cross-entropy on the observed labels. Every other mode
is the sequence of stages that ``MODE_STAGES`` lists for it: ``run_stage``
runs one stage and ``run_training`` runs a mode's stages in order.

Each epoch, model 1's losses produce the split that trains model 2 and
vice versa; evaluation averages the two softmax outputs. After each
training pass a net's parameters, at the start of each co-training epoch
its outputs, and at each evaluation its test-set outputs must be finite,
or the run stops with a ``StateError`` naming the model (and, for the
first two, the stage and the epoch).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .data import NoisyDataset
from .errors import ConfigError, StateError
from .gmm import clean_posterior, fit_gmm_em, gmm_record, normalize_losses, per_sample_losses
from .mixing import build_epoch_plan, mix_plan, plan_digest, target_table
from .seeding import MIX_LAMBDA, PLAN_DRAW, WARMUP_SHUFFLE, derive_rng
from .selector import (CoreSet, LossHistory, baseline_split, clean_set_metrics,
                       guided_split, hct_split, select_core_set)

# (stage tag, split mode, dataset-sized plans) for each stage of a mode.
# baseline/longmix: one stage of single-epoch splits; retrain-only and
# full-longremix: the confidence-window stage, then the guided stage. Plans
# stay clean-set-sized in the window stage: the oversampled plans belong to
# the guided stage, and dataset-sized plans during selection were observed
# to collapse the loss bimodality the window depends on.
STAGE1_HCT = ("stage1-hct", "hct", False)
MODE_STAGES = {
    "baseline": (("baseline", "baseline", False),),
    "longmix": (("longmix", "baseline", True),),
    "retrain-only": (STAGE1_HCT, ("stage2-guided", "guided", False)),
    "full-longremix": (STAGE1_HCT, ("stage2-guided", "guided", True)),
}
MODES = ("ce", *MODE_STAGES)


@dataclass
class TrainConfig:
    mode: str = "full-longremix"
    tau: float = 0.5
    zeta: int = 5
    # alpha and lambda_u are desk-scale values; strong mixing (alpha ~ 4)
    # collapses 2-D class structure because blob midpoints collide
    alpha: float = 0.2
    lambda_u: float = 10.0
    lambda_reg: float = 1.0
    epochs: int = 60          # selection epochs per stage
    warmup: int = 10
    batch_size: int = 64
    lr: float = 0.02
    lr_drop: float = 0.1      # factor applied at the stage midpoint
    momentum: float = 0.8
    weight_decay: float = 5e-4
    hidden: tuple[int, ...] = (64, 64)
    normalize_losses: bool = True
    data_seed: int = 1
    model1_seed: int = 11
    model2_seed: int = 22
    plan_seed: int = 33

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {self.tau}")
        if self.zeta < 1:
            raise ConfigError(f"zeta must be >= 1, got {self.zeta}")
        if self.epochs < self.zeta:
            raise ConfigError(f"epochs ({self.epochs}) must be >= zeta ({self.zeta})")
        if self.warmup < 1:
            raise ConfigError(f"warmup must be >= 1, got {self.warmup}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.lambda_u < 0 or self.lambda_reg < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"hidden layer widths must be >= 1, got {self.hidden}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not 0.0 < self.lr_drop <= 1.0:
            raise ConfigError(f"lr_drop must be in (0, 1], got {self.lr_drop}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        for name in ("data_seed", "model1_seed", "model2_seed", "plan_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class ModelEpochStats:
    split_kind: str
    x_size: int
    u_size: int
    precision: float
    recall: float
    x_ops: int          # mix operations this model trained on (labelled)
    u_ops: int
    fallback: bool = False  # supervised fallback because the other split was empty


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    phase: str          # "warmup" | "train"
    lr: float
    test_acc: float
    model1: ModelEpochStats | None = None
    model2: ModelEpochStats | None = None


@dataclass
class RunRecord:
    stage: str
    epochs: list
    best_acc: float
    best_epoch: int
    last10_acc: float | None


@dataclass
class StageOutcome:
    record: RunRecord
    nets: tuple
    histories: tuple | None = None   # per-model LossHistory (windowed stages)
    core_set: CoreSet | None = None
    gmm_rows: list = field(default_factory=list)
    plan_rows: list = field(default_factory=list)


def one_hot(labels, num_classes) -> np.ndarray:
    out = np.zeros((len(labels), num_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def evaluate(net1: nn.Network, net2: nn.Network, test: NoisyDataset) -> float:
    """Ensemble accuracy: argmax of the mean softmax (argmax takes the lowest
    class index on ties). Finite but huge parameters overflow the softmax,
    and NaN rows would argmax to class 0: non-finite test outputs of either
    net raise a ``StateError`` instead."""
    probs = []
    for net in (net1, net2):
        p = nn.forward(net, test.features)
        if not np.isfinite(p).all():
            raise StateError(f"non-finite test outputs of {net.tag}")
        probs.append(p)
    mean = (probs[0] + probs[1]) / 2.0
    return float((mean.argmax(axis=1) == test.true_labels).mean())


def _set_epoch_lr(opts, cfg: TrainConfig, epoch: int) -> float:
    lr = cfg.lr if epoch <= cfg.epochs // 2 else cfg.lr * cfg.lr_drop
    for opt in opts:
        opt.lr = lr
    return lr


def _require_finite(net, stage_tag, phase, epoch):
    """Stop at the pass whose update made ``net``'s parameters NaN or inf."""
    if not np.isfinite(net.params).all():
        raise StateError(f"non-finite parameters in {net.tag} after {stage_tag} "
                         f"{phase} epoch {epoch}")


def _supervised_pass(net, opt, ds: NoisyDataset, cfg: TrainConfig, m, stage_no, pass_no):
    """Cross-entropy pass of model ``m`` over all observed labels, shuffled by
    the model's seed and the stage-wide pass number (warmup epochs first,
    then selection epochs); each batch is a row slice of one gather per pass."""
    rng = derive_rng((cfg.model1_seed, cfg.model2_seed)[m], WARMUP_SHUFFLE, stage_no, pass_no)
    order = rng.permutation(ds.n)
    feats, targets = ds.features[order], one_hot(ds.labels[order], ds.num_classes)
    for start in range(0, ds.n, cfg.batch_size):
        batch = (feats[start:start + cfg.batch_size], targets[start:start + cfg.batch_size])
        nn.sgd_step(net, nn.backward(net, batch, "cross_entropy"), opt)


def _optimizers(nets, cfg: TrainConfig) -> list:
    """Fresh momentum-SGD state for each net of the pair, at the base lr."""
    return [nn.init_optimizer(net, cfg.lr, cfg.momentum, cfg.weight_decay) for net in nets]


def _supervised_epoch(nets, opts, ds: NoisyDataset, test: NoisyDataset, cfg: TrainConfig,
                      stage_no, stage_tag, phase, epoch, pass_no) -> EpochMetrics:
    """One supervised pass of each net at its optimiser's lr, each checked
    finite, then the pair's test accuracy as the epoch's metrics row."""
    for m, (net, opt) in enumerate(zip(nets, opts)):
        _supervised_pass(net, opt, ds, cfg, m, stage_no, pass_no)
        _require_finite(net, stage_tag, phase, epoch)
    return EpochMetrics(epoch=epoch, phase=phase, lr=opts[0].lr,
                        test_acc=evaluate(*nets, test))


def warmup(nets, ds: NoisyDataset, test: NoisyDataset, cfg: TrainConfig, stage_no,
           stage_tag) -> list:
    """``cfg.warmup`` epochs of independent cross-entropy training of both
    nets of the pair on all observed labels; returns one metrics row per epoch."""
    opts = _optimizers(nets, cfg)
    return [_supervised_epoch(nets, opts, ds, test, cfg, stage_no, stage_tag, "warmup", e, e)
            for e in range(1, cfg.warmup + 1)]


def _select_half(net, probs, ds, cfg, split_mode, history, core):
    """Select half: ``net``'s split and loss-mixture fit from its training-set
    outputs ``probs``. ``hct`` pushes the posteriors into ``history`` and
    thresholds its window once full, ``guided`` pins ``core`` into X."""
    losses = per_sample_losses(net, ds, probs=probs)
    if cfg.normalize_losses:
        losses = normalize_losses(losses)
    params = fit_gmm_em(losses)
    posteriors = clean_posterior(params, losses)
    if split_mode == "guided":
        return guided_split(posteriors, cfg.tau, core, ds.labels), params
    if split_mode == "hct":
        history.push(posteriors)
        if history.full:
            return hct_split(history, cfg.tau, ds.labels), params
    return baseline_split(posteriors, cfg.tau, ds.labels), params


def _train_half(net, opt, split, guessed, ds, cfg, stage_no, epoch, m, longmix_plans):
    """Train half: one pass of model ``m`` over the epoch plan built from the
    other net's ``split``, U trained towards the epoch's ``guessed`` labels;
    returns the pass's mix-op counts and plan digest. Without labelled
    anchors to mix, the pass is supervised on all data and the digest None."""
    if split.x_size == 0:
        _supervised_pass(net, opt, ds, cfg, m, stage_no, cfg.warmup + epoch)
        return ds.n, 0, None
    plan = build_epoch_plan(split.labeled_idx, split.unlabeled_idx, ds.n,
                            seed=(cfg.plan_seed, PLAN_DRAW, stage_no, epoch, m),
                            longmix=longmix_plans)
    targets = target_table(split, guessed, ds.num_classes)
    lam_rng = derive_rng(cfg.plan_seed, MIX_LAMBDA, stage_no, epoch, m)
    mixed = mix_plan(plan, ds.features, targets, cfg.alpha, lam_rng)
    spec = nn.TotalLoss(lambda_u=cfg.lambda_u, lambda_reg=cfg.lambda_reg)
    for start in range(0, plan.x_ops, cfg.batch_size):
        stop = start + cfg.batch_size
        batch = tuple((f[start:stop], t[start:stop]) for f, t in mixed)
        nn.sgd_step(net, nn.backward(net, batch, spec), opt)
    return plan.x_ops, plan.u_ops, plan_digest(plan)


def _train_outputs(nets, ds: NoisyDataset, stage_tag, epoch):
    """Both nets' class probabilities on the training set at the start of
    ``epoch``, which finite but huge parameters overflow."""
    probs = [nn.forward(net, ds.features) for net in nets]
    for net, p in zip(nets, probs):
        if not np.isfinite(p).all():
            raise StateError(f"non-finite outputs of {net.tag} at the start of {stage_tag} "
                             f"train epoch {epoch}")
    return probs


def cotrain_epoch(nets, opts, ds: NoisyDataset, test: NoisyDataset, cfg: TrainConfig,
                  stage_no, stage_tag, epoch, split_mode, histories, core, longmix_plans,
                  probs):
    """One co-training epoch from the nets' training-set outputs ``probs``:
    each net's select half produces the split that the other net's train
    half trains on. Returns the epoch metrics row, each net's (split,
    mixture fit, plan digest) and the next epoch's outputs (None after the
    last). The labels guessed for U, the pair's mean output, live for this
    epoch only."""
    lr = _set_epoch_lr(opts, cfg, epoch)
    guessed = (probs[0] + probs[1]) / 2.0
    selected = [_select_half(net, p, ds, cfg, split_mode, history, core)
                for net, p, history in zip(nets, probs, histories or (None, None))]
    stats, records = [], []
    for m, (net, opt, (split, params)) in enumerate(zip(nets, opts, selected)):
        x_ops, u_ops, digest = _train_half(net, opt, selected[1 - m][0], guessed, ds, cfg,
                                           stage_no, epoch, m, longmix_plans)
        _require_finite(net, stage_tag, "train", epoch)
        metrics = clean_set_metrics(split, ds.mask)
        stats.append(ModelEpochStats(
            split_kind=split.kind, x_size=split.x_size, u_size=split.u_size,
            precision=metrics.precision, recall=metrics.recall,
            x_ops=x_ops, u_ops=u_ops, fallback=digest is None))
        records.append((split, params, digest))

    # the training-set check runs before the test set is scored, so an
    # overflow is reported by the epoch it breaks
    next_probs = _train_outputs(nets, ds, stage_tag, epoch + 1) if epoch < cfg.epochs else None
    return EpochMetrics(epoch=epoch, phase="train", lr=lr,
                        test_acc=evaluate(*nets, test),
                        model1=stats[0], model2=stats[1]), records, next_probs


def _finalize_record(stage_tag, rows) -> RunRecord:
    accs = [r.test_acc for r in rows]
    best_pos = int(np.argmax(accs))
    return RunRecord(
        stage=stage_tag, epochs=rows,
        best_acc=accs[best_pos],
        best_epoch=rows[best_pos].epoch,
        last10_acc=float(np.mean(accs[-10:])) if len(accs) >= 10 else None)


def _start_stage(cfg: TrainConfig, ds: NoisyDataset, test, stage_no, stage_tag):
    """A fresh pair from the stage's seeds, warmed up, with fresh optimisers;
    returns the nets, the optimisers and the warmup rows."""
    sizes = (ds.dim, *cfg.hidden, ds.num_classes)
    nets = (nn.init_network(sizes, seed=(cfg.model1_seed, stage_no), tag="model1"),
            nn.init_network(sizes, seed=(cfg.model2_seed, stage_no), tag="model2"))
    rows = warmup(nets, ds, test, cfg, stage_no, stage_tag)
    return nets, _optimizers(nets, cfg), rows


# Overflow in a stage ends in NaN or inf parameters or outputs, which the
# finiteness checks report as one StateError; numpy's warnings would only
# print ahead of it.
@np.errstate(over="ignore", invalid="ignore")
def run_stage(cfg: TrainConfig, ds: NoisyDataset, test: NoisyDataset, stage_no, stage_tag,
              split_mode, longmix_plans, core=None) -> StageOutcome:
    """Warmup, then ``cfg.epochs`` co-training epochs on ``split_mode`` splits.

    ``baseline`` thresholds each epoch's posteriors. ``hct`` uses the
    confidence window, falling back to single-epoch splits until the window
    fills, and captures the core set from the second half of the stage.
    ``guided`` pins ``core`` into the labelled set every epoch."""
    nets, opts, rows = _start_stage(cfg, ds, test, stage_no, stage_tag)
    histories = (LossHistory(ds.n, cfg.zeta), LossHistory(ds.n, cfg.zeta)) \
        if split_mode == "hct" else None
    snapshots, gmm_rows, plan_rows = [], [], []
    probs = _train_outputs(nets, ds, stage_tag, 1)
    for epoch in range(1, cfg.epochs + 1):
        row, records, probs = cotrain_epoch(nets, opts, ds, test, cfg, stage_no, stage_tag,
                                            epoch, split_mode, histories, core,
                                            longmix_plans, probs)
        rows.append(row)
        for net, (split, params, digest) in zip(nets, records):
            gmm_rows.append(gmm_record(params, epoch, net.tag))
            if digest is not None:
                plan_rows.append({"stage": stage_tag, "epoch": epoch,
                                  "model": net.tag, "digest": digest})
            if split.kind == "hct":
                snapshots.append((epoch, split))
    captured = select_core_set(snapshots, cfg.epochs) if split_mode == "hct" else None
    return StageOutcome(record=_finalize_record(stage_tag, rows), nets=nets,
                        histories=histories, core_set=captured,
                        gmm_rows=gmm_rows, plan_rows=plan_rows)


def run_stage1_hct(cfg: TrainConfig, ds: NoisyDataset, test: NoisyDataset) -> StageOutcome:
    """The confidence-window stage of the two-stage modes, on its own."""
    return run_stage(cfg, ds, test, 1, *STAGE1_HCT)


@np.errstate(over="ignore", invalid="ignore")
def _run_ce(cfg: TrainConfig, ds, test) -> StageOutcome:
    nets, opts, rows = _start_stage(cfg, ds, test, 1, "ce")
    for epoch in range(1, cfg.epochs + 1):
        _set_epoch_lr(opts, cfg, epoch)
        rows.append(_supervised_epoch(nets, opts, ds, test, cfg, 1, "ce", "train", epoch,
                                      cfg.warmup + epoch))
    return StageOutcome(record=_finalize_record("ce", rows), nets=nets)


def run_training(cfg: TrainConfig, ds: NoisyDataset, test: NoisyDataset) -> list:
    """Execute the configured mode end to end and return its ``StageOutcome``s
    in run order; the core set a stage captures is passed to the stages
    after it."""
    if cfg.mode == "ce":
        return [_run_ce(cfg, ds, test)]
    stages, core = [], None
    for stage_no, stage in enumerate(MODE_STAGES[cfg.mode], start=1):
        outcome = run_stage(cfg, ds, test, stage_no, *stage, core=core)
        stages.append(outcome)
        core = outcome.core_set or core
    return stages
