"""Training orchestration: warmup, co-trained selection epochs, and the
two-stage schedule (confidence-window selection, then guided retraining
from scratch with the captured core set pinned into the labelled set).

Mode ``ce`` is plain cross-entropy on the observed labels. Every mode is
the sequence of stages that ``MODE_STAGES`` lists for it: ``run_stage``
runs one stage and ``run_training`` runs a mode's stages in order.

Each epoch, model 1's losses produce the split that trains model 2 and
vice versa; evaluation averages the two softmax outputs. Each net runs its
half of every epoch as a ``_Member``, in a forked worker of its own where
two CPUs are usable (``_Pair``). After each training pass a net's
parameters, at the start of each co-training epoch its outputs, and at each
evaluation its test-set outputs must be finite, or the run stops with a
``StateError`` naming the model (and, for the first two, the stage and the
epoch).
"""

from __future__ import annotations

import contextlib
import mmap
import os
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
# ce: one stage of supervised epochs, without splits; baseline/longmix: one
# stage of single-epoch splits; retrain-only and full-longremix: the
# confidence-window stage, then the guided stage. Plans stay clean-set-sized
# in the window stage: the oversampled plans belong to the guided stage, and
# dataset-sized plans during selection were observed to collapse the loss
# bimodality the window depends on.
STAGE1_HCT = ("stage1-hct", "hct", False)
MODE_STAGES = {
    "ce": (("ce", None, False),),
    "baseline": (("baseline", "baseline", False),),
    "longmix": (("longmix", "baseline", True),),
    "retrain-only": (STAGE1_HCT, ("stage2-guided", "guided", False)),
    "full-longremix": (STAGE1_HCT, ("stage2-guided", "guided", True)),
}
MODES = tuple(MODE_STAGES)
TAGS = ("model1", "model2")

# Ranks of a step's checks in run order; a worker that never replied ranks first.
_DEAD, _PARAMS, _OUTPUTS, _TEST, _SELECT = range(-1, 4)


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


def evaluate(probs, test: NoisyDataset) -> float:
    """Ensemble accuracy from the pair's test-set outputs ``probs``: argmax of
    the mean softmax (argmax takes the lowest class index on ties). Finite
    but huge parameters overflow the softmax, and NaN rows would argmax to
    class 0: non-finite test outputs of either net raise a ``StateError``
    instead."""
    for tag, p in zip(TAGS, probs):
        if not np.isfinite(p).all():
            raise StateError(f"non-finite test outputs of {tag}")
    mean = (probs[0] + probs[1]) / 2.0
    return float((mean.argmax(axis=1) == test.true_labels).mean())


def _epoch_lr(cfg: TrainConfig, epoch: int) -> float:
    return cfg.lr if epoch <= cfg.epochs // 2 else cfg.lr * cfg.lr_drop


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


def _shared_tables(ds: NoisyDataset, test: NoisyDataset):
    """The pair's training-set outputs ``(2, n, C)``, test-set outputs
    ``(2, test_n, C)`` and guessed labels ``(n, C)``, in anonymous shared
    memory that forked workers inherit. Member m writes only row m of the
    first two, the main process the third while both members wait."""
    shapes = ((2, ds.n, ds.num_classes), (2, test.n, ds.num_classes), (ds.n, ds.num_classes))
    return tuple(np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(shape))), float).reshape(shape)
                 for shape in shapes)


class _Member:
    """Net ``m`` of a stage's pair, its optimiser and, in ``hct`` stages, its
    LossHistory. A step runs this net's half of an epoch, writing row ``m``
    of the shared tables; a failed step returns its exception, with the
    ``rank`` of the check that raised it. The member keeps its latest
    outputs besides their copies in the tables: freed at once, they let
    malloc trim the heap that the next forward pass faults back in (7x the
    page faults and about 10% more run time, measured)."""

    def __init__(self, m, net, cfg: TrainConfig, ds: NoisyDataset, test: NoisyDataset, tables,
                 stage_no, stage_tag, split_mode=None, longmix_plans=False, core=None):
        self.m, self.net, self.cfg, self.ds, self.test = m, net, cfg, ds, test
        self.stage_no, self.stage_tag, self.split_mode = stage_no, stage_tag, split_mode
        self.longmix_plans, self.core = longmix_plans, core
        self.train_out, self.test_out, self.guessed = tables[0][m], tables[1][m], tables[2]
        self.history = LossHistory(ds.n, cfg.zeta) if split_mode == "hct" else None
        self.opt = nn.init_optimizer(net, cfg.lr, cfg.momentum, cfg.weight_decay)
        self.rank = _PARAMS

    def __call__(self, step, *args):
        try:
            return getattr(self, step)(*args)
        except Exception as exc:  # raised by the main process, in run order
            exc.rank = self.rank
            return exc

    def supervised(self, phase, epoch, lr):
        """A cross-entropy pass (a warmup or ``ce`` epoch), then the test-set
        outputs; the epochs after warmup start from fresh momentum."""
        self.rank = _PARAMS
        self.opt.lr = lr
        _supervised_pass(self.net, self.opt, self.ds, self.cfg, self.m, self.stage_no,
                         epoch if phase == "warmup" else self.cfg.warmup + epoch)
        _require_finite(self.net, self.stage_tag, phase, epoch)
        if phase == "warmup" and epoch == self.cfg.warmup:
            self.opt = nn.init_optimizer(self.net, lr, self.cfg.momentum, self.cfg.weight_decay)
        self.test_probs = nn.forward(self.net, self.test.features)
        self.test_out[:] = self.test_probs

    def select(self, epoch):
        """Select half: the outputs at the start of ``epoch`` (checked finite),
        then this net's split and loss-mixture fit. ``hct`` thresholds the
        history's window once full, ``guided`` pins the core set into X."""
        self.rank = _OUTPUTS
        ds, cfg = self.ds, self.cfg
        self.probs = nn.forward(self.net, ds.features)
        self.train_out[:] = self.probs
        if not np.isfinite(self.probs).all():
            raise StateError(f"non-finite outputs of {self.net.tag} at the start of "
                             f"{self.stage_tag} train epoch {epoch}")
        self.rank = _SELECT
        losses = per_sample_losses(self.net, ds, probs=self.probs)
        if cfg.normalize_losses:
            losses = normalize_losses(losses)
        params = fit_gmm_em(losses)
        posteriors = clean_posterior(params, losses)
        if self.split_mode == "guided":
            return guided_split(posteriors, cfg.tau, self.core, ds.labels), params
        if self.split_mode == "hct":
            self.history.push(posteriors)
            if self.history.full:
                return hct_split(self.history, cfg.tau, ds.labels), params
        return baseline_split(posteriors, cfg.tau, ds.labels), params

    def train(self, epoch, lr, split):
        """Train half: a pass over the plan built from the other net's
        ``split`` (supervised, without a digest, if X is empty), the test-set
        outputs, then the next epoch's selection (None after the last)."""
        self.rank = _PARAMS
        self.opt.lr = lr
        net, ds, cfg, m = self.net, self.ds, self.cfg, self.m
        if split.x_size == 0:
            _supervised_pass(net, self.opt, ds, cfg, m, self.stage_no, cfg.warmup + epoch)
            counts = ds.n, 0, None
        else:
            plan = build_epoch_plan(split.labeled_idx, split.unlabeled_idx, ds.n,
                                    seed=(cfg.plan_seed, PLAN_DRAW, self.stage_no, epoch, m),
                                    longmix=self.longmix_plans)
            targets = target_table(split, self.guessed, ds.num_classes)
            lam_rng = derive_rng(cfg.plan_seed, MIX_LAMBDA, self.stage_no, epoch, m)
            mixed = mix_plan(plan, ds.features, targets, cfg.alpha, lam_rng)
            spec = nn.TotalLoss(lambda_u=cfg.lambda_u, lambda_reg=cfg.lambda_reg)
            for start in range(0, plan.x_ops, cfg.batch_size):
                stop = start + cfg.batch_size
                batch = tuple((f[start:stop], t[start:stop]) for f, t in mixed)
                nn.sgd_step(net, nn.backward(net, batch, spec), self.opt)
            counts = plan.x_ops, plan.u_ops, plan_digest(plan)
        _require_finite(net, self.stage_tag, "train", epoch)
        self.test_probs = nn.forward(net, self.test.features)
        self.test_out[:] = self.test_probs
        return (*counts, self.select(epoch + 1) if epoch < cfg.epochs else None)

    def finish(self):
        return self.net.params, self.history


def _serve(conn, member, main_ends):
    """A worker's loop: answer ``member``'s steps until the main process's
    end of the pipe closes; inherited copies of those ends would keep it open."""
    import signal  # here: only a worker needs it, and its import costs a run's set-up 1 ms
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process stops the pair
    for end in main_ends:
        end.close()
    with contextlib.suppress(EOFError, OSError):
        while True:
            conn.send(member(*conn.recv()))


def _use_workers() -> bool:
    """Fork a worker per net where this process may use two CPUs or more."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class _Pair:
    """A stage's two members behind one transport: a forked worker each if
    ``_use_workers`` and they start, else direct calls, model1's first."""

    def __init__(self, members, tables):
        self.members, self.tables, self.conns, self.procs = members, tables, [], []
        if not _use_workers():
            return
        import multiprocessing  # here, not at module import: a run's set-up would pay for it
        ctx = multiprocessing.get_context("fork")
        try:
            for member in members:
                conn, child = ctx.Pipe()
                self.conns.append(conn)
                proc = ctx.Process(target=_serve, args=(child, member, self.conns), daemon=True)
                try:
                    proc.start()
                finally:
                    child.close()
                self.procs.append(proc)
        except OSError:  # a worker did not start: run in this process
            self.close()

    def ask(self, requests, test: NoisyDataset | None = None):
        """Both members' replies to ``requests`` and, after a step that wrote
        test-set outputs, the pair's accuracy on ``test``. The first failure
        in run order is raised: lowest rank first, model1's on a tie."""
        if self.procs:
            for conn, request in zip(self.conns, requests):
                with contextlib.suppress(OSError):  # a dead worker fails its recv below
                    conn.send(request)
            replies = []
            for tag, conn in zip(TAGS, self.conns):
                try:
                    replies.append(conn.recv())
                except (EOFError, OSError):
                    replies.append(StateError(f"the {tag} worker exited without replying"))
                    replies[-1].rank = _DEAD
        else:
            replies = [member(*request) for member, request in zip(self.members, requests)]
        failed = sorted((r.rank, m) for m, r in enumerate(replies) if isinstance(r, Exception))
        if failed and failed[0][0] < _TEST:
            raise replies[failed[0][1]]
        acc = None if test is None else evaluate(self.tables[1], test)
        if failed:
            raise replies[failed[0][1]]
        return replies, acc

    def finish(self):
        """Bring each net's final parameters and history into this process."""
        for member, (params, history) in zip(self.members, self.ask([("finish",)] * 2)[0]):
            member.net.params[:] = params
            member.history = history

    def close(self):
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.terminate()
            proc.join()
            proc.close()
        self.conns, self.procs = [], []


def _supervised_epoch(pair, test: NoisyDataset, phase, epoch, lr) -> EpochMetrics:
    """One supervised pass of each net at ``lr``, each checked finite, then
    the pair's test accuracy as the epoch's metrics row."""
    _, acc = pair.ask([("supervised", phase, epoch, lr)] * 2, test)
    return EpochMetrics(epoch=epoch, phase=phase, lr=lr, test_acc=acc)


def warmup(pair, test: NoisyDataset, cfg: TrainConfig) -> list:
    """``cfg.warmup`` epochs of independent cross-entropy training of both
    nets of the pair on all observed labels; returns one metrics row per epoch."""
    return [_supervised_epoch(pair, test, "warmup", e, cfg.lr) for e in range(1, cfg.warmup + 1)]


def cotrain_epoch(pair, ds: NoisyDataset, test: NoisyDataset, cfg: TrainConfig, epoch, selected):
    """One co-training epoch from each net's ``selected`` (split, mixture fit):
    each net trains on the other's split, U towards the guessed labels, the
    pair's mean output, kept for this epoch only. Returns the metrics row,
    each net's (split, fit, plan digest) and its selection for the next."""
    lr = _epoch_lr(cfg, epoch)
    train_out, _, guessed = pair.tables
    np.add(train_out[0], train_out[1], out=guessed)
    guessed /= 2.0
    replies, acc = pair.ask([("train", epoch, lr, selected[1 - m][0]) for m in (0, 1)], test)
    stats, records = [], []
    for (split, params), (x_ops, u_ops, digest, _) in zip(selected, replies):
        metrics = clean_set_metrics(split, ds.mask)
        stats.append(ModelEpochStats(
            split_kind=split.kind, x_size=split.x_size, u_size=split.u_size,
            precision=metrics.precision, recall=metrics.recall,
            x_ops=x_ops, u_ops=u_ops, fallback=digest is None))
        records.append((split, params, digest))
    return EpochMetrics(epoch=epoch, phase="train", lr=lr, test_acc=acc,
                        model1=stats[0], model2=stats[1]), records, [r[3] for r in replies]


def _finalize_record(stage_tag, rows) -> RunRecord:
    accs = [r.test_acc for r in rows]
    best_pos = int(np.argmax(accs))
    return RunRecord(
        stage=stage_tag, epochs=rows,
        best_acc=accs[best_pos],
        best_epoch=rows[best_pos].epoch,
        last10_acc=float(np.mean(accs[-10:])) if len(accs) >= 10 else None)


# Overflow in a stage ends in NaN or inf parameters or outputs, which the
# finiteness checks report as one StateError; numpy's warnings would only
# print ahead of it. Forked workers inherit this state.
@np.errstate(over="ignore", invalid="ignore")
def run_stage(cfg: TrainConfig, ds: NoisyDataset, test: NoisyDataset, stage_no, stage_tag,
              split_mode, longmix_plans, core=None) -> StageOutcome:
    """A fresh pair from the stage's seeds, warmup, then ``cfg.epochs``
    epochs: supervised ones without a ``split_mode`` (``ce``), else
    co-training ones on ``split_mode`` splits.

    ``baseline`` thresholds each epoch's posteriors. ``hct`` uses the
    confidence window, falling back to single-epoch splits until the window
    fills, and captures the core set from the second half of the stage.
    ``guided`` pins ``core`` into the labelled set every epoch."""
    sizes = (ds.dim, *cfg.hidden, ds.num_classes)
    tables = _shared_tables(ds, test)
    members = [_Member(m, nn.init_network(sizes, seed=(seed, stage_no), tag=tag), cfg, ds, test,
                       tables, stage_no, stage_tag, split_mode, longmix_plans, core)
               for m, (seed, tag) in enumerate(zip((cfg.model1_seed, cfg.model2_seed), TAGS))]
    snapshots, gmm_rows, plan_rows = [], [], []
    with contextlib.closing(_Pair(members, tables)) as pair:
        rows = warmup(pair, test, cfg)
        if split_mode is None:
            rows += [_supervised_epoch(pair, test, "train", epoch, _epoch_lr(cfg, epoch))
                     for epoch in range(1, cfg.epochs + 1)]
        else:
            selected, _ = pair.ask([("select", 1)] * 2)
            for epoch in range(1, cfg.epochs + 1):
                row, records, selected = cotrain_epoch(pair, ds, test, cfg, epoch, selected)
                rows.append(row)
                for tag, (split, params, digest) in zip(TAGS, records):
                    gmm_rows.append(gmm_record(params, epoch, tag))
                    if digest is not None:
                        plan_rows.append({"stage": stage_tag, "epoch": epoch,
                                          "model": tag, "digest": digest})
                    if split.kind == "hct":
                        snapshots.append((epoch, split))
        pair.finish()
    captured = select_core_set(snapshots, cfg.epochs) if split_mode == "hct" else None
    return StageOutcome(record=_finalize_record(stage_tag, rows),
                        nets=tuple(member.net for member in members),
                        histories=tuple(member.history for member in members)
                        if split_mode == "hct" else None,
                        core_set=captured, gmm_rows=gmm_rows, plan_rows=plan_rows)


def run_stage1_hct(cfg: TrainConfig, ds: NoisyDataset, test: NoisyDataset) -> StageOutcome:
    """The confidence-window stage of the two-stage modes, on its own."""
    return run_stage(cfg, ds, test, 1, *STAGE1_HCT)


def run_training(cfg: TrainConfig, ds: NoisyDataset, test: NoisyDataset) -> list:
    """Execute the configured mode end to end and return its ``StageOutcome``s
    in run order; the core set a stage captures is passed to the stages
    after it."""
    stages, core = [], None
    for stage_no, stage in enumerate(MODE_STAGES[cfg.mode], start=1):
        outcome = run_stage(cfg, ds, test, stage_no, *stage, core=core)
        stages.append(outcome)
        core = outcome.core_set or core
    return stages
