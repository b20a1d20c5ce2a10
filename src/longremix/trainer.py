"""Training orchestration: warmup, co-trained selection epochs, and the
two-stage schedule (confidence-window selection, then guided retraining
from scratch with the captured core set pinned into the labelled set).

Every training pass minimises ``nn.TotalLoss`` over an (X, U) batch pair;
a warmup or ``ce`` pass is its cross-entropy case, ``TotalLoss(0, 0)``
over the observed labels with an empty U half. Every mode is
the sequence of stages that ``MODE_STAGES`` lists for it: ``run_stage``
runs one stage and ``run_training`` runs a mode's stages in order.

Each epoch, model 1's losses produce the split that trains model 2 and
vice versa; evaluation averages the two softmax outputs. Each net runs its
numeric half of every epoch (passes, forwards, loss-mixture fit) as a
``_Member``. A stage's ``_Pair`` builds both and owns what they share in
shared memory; where two CPUs are usable, model 2's member runs in a worker
that one ``os.fork`` starts per stage, while model 1's runs in the main
process meanwhile. Two pipes carry pickled requests to the worker and its
replies back, so a run loads no ``multiprocessing``.
The main process owns selection (each net's confidence window and split,
and the core set, chosen as the stage runs) and checks every step in run
order: after each training pass both nets' parameters, model 1's first,
then the outputs each net checked at the start of its next co-training
epoch, then, at evaluation, both test-set outputs. The first that is not
finite stops the run with a ``StateError`` naming the model (and, for the
first two, the stage and the epoch).
"""

from __future__ import annotations

import contextlib
import mmap
import os
import pickle
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import BLAS_UNPINNED, nn
from .data import MAX_COUNT, NoisyDataset
from .errors import ConfigError, StateError
from .gmm import clean_posterior, fit_gmm_em, gmm_record, normalize_losses, per_sample_losses
from .mixing import build_epoch_plan, mix_plan, one_hot, plan_digest, target_table
from .seeding import MIX_LAMBDA, PLAN_DRAW, WARMUP_SHUFFLE, derive_rng
from .selector import (CoreSet, baseline_split, clean_set_metrics, guided_split, hct_split,
                       select_core_set)

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
            raise ConfigError(f"train.mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"train.tau must be in [0, 1], got {self.tau}")
        if self.zeta < 1:
            raise ConfigError(f"train.zeta must be >= 1, got {self.zeta}")
        if self.zeta > MAX_COUNT:
            raise ConfigError(f"train.zeta must be <= {MAX_COUNT}, got {self.zeta}")
        if self.epochs < self.zeta:
            raise ConfigError(f"train.epochs must be >= train.zeta ({self.zeta}), "
                              f"got {self.epochs}")
        if self.warmup < 1:
            raise ConfigError(f"train.warmup must be >= 1, got {self.warmup}")
        if self.alpha <= 0:
            raise ConfigError(f"train.alpha must be positive, got {self.alpha}")
        for name in ("lambda_u", "lambda_reg"):
            if getattr(self, name) < 0:
                raise ConfigError(f"train.{name} must be non-negative, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ConfigError(f"train.batch_size must be >= 1, got {self.batch_size}")
        if any(width < 1 for width in self.hidden):
            raise ConfigError(f"train.hidden widths must be >= 1, got {self.hidden}")
        if any(width > MAX_COUNT for width in self.hidden):
            raise ConfigError(f"train.hidden widths must be <= {MAX_COUNT}, got {self.hidden}")
        if not self.lr > 0:
            raise ConfigError(f"train.lr must be positive, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ConfigError(f"train.weight_decay must be non-negative, got {self.weight_decay}")
        if not 0.0 < self.lr_drop <= 1.0:
            raise ConfigError(f"train.lr_drop must be in (0, 1], got {self.lr_drop}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"train.momentum must be in [0, 1), got {self.momentum}")
        for name in ("data_seed", "model1_seed", "model2_seed", "plan_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"train.{name} must be >= 0, got {getattr(self, name)}")


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
    window: np.ndarray | None = None  # model 1's final (zeta, n) window (windowed stages)
    core_set: CoreSet | None = None
    gmm_rows: list = field(default_factory=list)
    plan_rows: list = field(default_factory=list)


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


class _Member:
    """Net ``m`` of a stage's ``pair`` and its optimiser. A step runs this
    net's half of an epoch, writing row ``m`` of the pair's ``train_out`` and
    ``test_out``; a failed step returns its exception. The member keeps its
    latest outputs besides those copies: freed at once, they let malloc trim
    the heap that the next forward pass faults back in (7x the page faults
    and about 10% more run time, measured)."""

    def __init__(self, m, net, pair, cfg: TrainConfig, ds: NoisyDataset, stage_no, stage_tag,
                 longmix_plans=False):
        self.m, self.net, self.cfg, self.ds, self.test = m, net, cfg, ds, pair.test
        self.stage_no, self.stage_tag, self.longmix_plans = stage_no, stage_tag, longmix_plans
        self.train_out, self.test_out = pair.train_out[m], pair.test_out[m]
        self.guessed = pair.guessed
        self.opt = nn.init_optimizer(net, cfg.lr, cfg.momentum, cfg.weight_decay)

    def __call__(self, step, *args):
        try:
            return getattr(self, step)(*args)
        except Exception as exc:  # raised by the main process, in run order
            return exc

    def _pass(self, lr, loss, halves):
        """One pass at ``lr`` over ``halves``, the ``((X features, X targets),
        (U features, U targets))`` of the epoch, in batches of row slices of
        both, then the test-set outputs."""
        self.opt.lr = lr
        (feats, _), _ = halves
        for start in range(0, len(feats), self.cfg.batch_size):
            stop = start + self.cfg.batch_size
            batch = tuple((f[start:stop], t[start:stop]) for f, t in halves)
            nn.sgd_step(self.net, nn.backward(self.net, batch, loss), self.opt)
        self.test_probs = nn.forward(self.net, self.test.features)
        self.test_out[:] = self.test_probs

    def supervised(self, phase, epoch, lr):
        """A cross-entropy pass (a warmup or ``ce`` epoch) over all observed
        labels, shuffled by the model's seed and the stage-wide pass number
        (warmup epochs first, then selection epochs), with an empty U half;
        the epochs after warmup start from fresh momentum."""
        ds, cfg = self.ds, self.cfg
        pass_no = epoch if phase == "warmup" else cfg.warmup + epoch
        order = derive_rng((cfg.model1_seed, cfg.model2_seed)[self.m], WARMUP_SHUFFLE,
                           self.stage_no, pass_no).permutation(ds.n)
        feats, targets = ds.features[order], one_hot(ds.labels[order], ds.num_classes)
        self._pass(lr, nn.TotalLoss(lambda_u=0.0, lambda_reg=0.0),
                   ((feats, targets), (feats[:0], targets[:0])))
        if phase == "warmup" and epoch == cfg.warmup:
            self.opt = nn.init_optimizer(self.net, lr, cfg.momentum, cfg.weight_decay)

    def fit(self, epoch):
        """Fit half: the outputs at the start of ``epoch`` (checked finite),
        then this net's loss-mixture fit; returns the clean posteriors and
        the fit."""
        ds = self.ds
        self.probs = nn.forward(self.net, ds.features)
        self.train_out[:] = self.probs
        if not np.isfinite(self.probs).all():
            raise StateError(f"non-finite outputs of {self.net.tag} at the start of "
                             f"{self.stage_tag} train epoch {epoch}")
        losses = per_sample_losses(self.net, ds, probs=self.probs)
        if self.cfg.normalize_losses:
            losses = normalize_losses(losses)
        params = fit_gmm_em(losses)
        return clean_posterior(params, losses), params

    def train(self, epoch, lr, split):
        """Train half: a pass over the plan built from the other net's
        ``split`` (supervised, without a digest, if X is empty), the test-set
        outputs, then the next epoch's fit (None after the last)."""
        ds, cfg, m = self.ds, self.cfg, self.m
        if split.x_size == 0:
            self.supervised("train", epoch, lr)
            counts = ds.n, 0, None
        else:
            plan = build_epoch_plan(split.labeled_idx, split.unlabeled_idx, ds.n,
                                    seed=(cfg.plan_seed, PLAN_DRAW, self.stage_no, epoch, m),
                                    longmix=self.longmix_plans)
            targets = target_table(split, ds.labels, self.guessed)
            lam_rng = derive_rng(cfg.plan_seed, MIX_LAMBDA, self.stage_no, epoch, m)
            self._pass(lr, nn.TotalLoss(lambda_u=cfg.lambda_u, lambda_reg=cfg.lambda_reg),
                       mix_plan(plan, ds.features, targets, cfg.alpha, lam_rng))
            counts = plan.x_ops, plan.u_ops, plan_digest(plan)
        return (*counts, self.fit(epoch + 1) if epoch < cfg.epochs else None)


def _serve(requests, replies, member):
    """The worker's loop: answer ``member``'s steps, each a pickle read from
    the ``requests`` pipe, with a pickle written to the ``replies`` pipe,
    until the main process closes its end of either."""
    import signal  # here: only a worker needs it, and its import costs a run's set-up 1 ms
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the main process stops the pair
    with open(requests, "rb") as reader, open(replies, "wb") as writer:
        with contextlib.suppress(EOFError, OSError):
            while True:
                pickle.dump(member(*pickle.load(reader)), writer)
                writer.flush()


def _use_workers() -> bool:
    """Fork a worker for model 2 where this process may use two CPUs or more,
    unless BLAS is unpinned (``BLAS_UNPINNED``). A caller that runs cells in
    parallel gives each cell one CPU, so that cell's pair runs in-process."""
    if BLAS_UNPINNED or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    return len(os.sched_getaffinity(0)) >= 2


class _Pair:
    """A stage's two members, the transport between them and the tables they
    share, in anonymous shared memory that a forked worker inherits. Member
    m writes row m of ``train_out`` ``(2, n, C)`` and ``test_out``
    ``(2, test_n, C)``; the main process writes ``guessed`` ``(n, C)`` while
    both wait. Each of ``nets`` moves its parameters onto a row of a fourth
    table, so the main process reads what its member trains; ``ask``
    scores the pair on its ``test`` set after each training pass. If
    ``_use_workers`` and its worker starts, model 2 runs in a forked worker
    and model 1 here, between sending model 2 its request and receiving the
    reply, each a pickle on a pipe of its own; else both run here, model 1
    first."""

    def __init__(self, nets, cfg: TrainConfig, ds: NoisyDataset, test: NoisyDataset, stage_no,
                 stage_tag, longmix_plans=False):
        shapes = ((2, ds.n, ds.num_classes), (2, test.n, ds.num_classes), (ds.n, ds.num_classes),
                  (2, nets[0].params.size))
        self.train_out, self.test_out, self.guessed, params = (
            np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(shape))), float).reshape(shape)
            for shape in shapes)
        for net, row in zip(nets, params):
            row[:] = net.params
            net.params = row
            net.weights, net.biases = nn._layer_views(row, net.layer_sizes)
        self.test = test
        self.members = [_Member(m, net, self, cfg, ds, stage_no, stage_tag, longmix_plans)
                        for m, net in enumerate(nets)]
        self.pid = None
        if not _use_workers():
            return
        fds = []
        try:
            fds += os.pipe()  # requests: main process -> worker
            fds += os.pipe()  # replies: worker -> main process
            pid = os.fork()
        except OSError:  # the worker did not start: run in this process
            for fd in fds:
                os.close(fd)
            return
        request_r, request_w, reply_r, reply_w = fds
        if pid == 0:  # the worker, which never returns from here
            try:
                # inherited copies of the main process's ends would keep the
                # pipes open after it closes them
                os.close(request_w)
                os.close(reply_r)
                _serve(request_r, reply_w, self.members[1])
            finally:
                os._exit(0)  # not the main process's exit handlers or buffer flushes
        os.close(request_r)
        os.close(reply_w)
        self.pid = pid
        self.requests, self.replies = open(request_w, "wb"), open(reply_r, "rb")

    def ask(self, requests, trained=None):
        """Both members' replies to ``requests`` and, after a training pass
        (its ``trained`` phase and epoch), the pair's accuracy on its test
        set. A worker that died fails once model 1's step is done;
        otherwise, in run order: after a training pass each net's
        parameters, then each member's own failure, then the test-set
        outputs, model1's first."""
        model1, model2 = self.members
        if self.pid is None:
            replies = [model1(*requests[0]), model2(*requests[1])]
        else:
            with contextlib.suppress(OSError):  # a dead worker fails its load below
                pickle.dump(requests[1], self.requests)
                self.requests.flush()
            replies = [model1(*requests[0])]
            try:
                replies.append(pickle.load(self.replies))
            except (EOFError, OSError, pickle.UnpicklingError):  # none, or part of a reply
                raise StateError("the model2 worker exited without replying") from None
        if trained is not None:
            for member in self.members:
                _require_finite(member.net, member.stage_tag, *trained)
        for reply in replies:
            if isinstance(reply, Exception):
                raise reply
        return replies, None if trained is None else evaluate(self.test_out, self.test)

    def close(self):
        """Close both pipes, which ends the worker once its step is done,
        and reap it."""
        if self.pid is not None:
            with contextlib.suppress(OSError):  # a request left unsent to a dead worker
                self.requests.close()
            self.replies.close()
            os.waitpid(self.pid, 0)
            self.pid = None


def _supervised_epoch(pair, phase, epoch, lr) -> EpochMetrics:
    """One supervised pass of each net at ``lr``, each checked finite, then
    the pair's test accuracy as the epoch's metrics row."""
    _, acc = pair.ask([("supervised", phase, epoch, lr)] * 2, (phase, epoch))
    return EpochMetrics(epoch=epoch, phase=phase, lr=lr, test_acc=acc)


def warmup(pair, cfg: TrainConfig) -> list:
    """``cfg.warmup`` epochs of independent cross-entropy training of both
    nets of the pair on all observed labels; returns one metrics row per epoch."""
    return [_supervised_epoch(pair, "warmup", e, cfg.lr) for e in range(1, cfg.warmup + 1)]


def _next_split(split_mode, posteriors, window, core, cfg: TrainConfig):
    """A net's ``split_mode`` split (see ``run_stage``) for its next epoch
    from its clean ``posteriors``, which ``hct`` appends to its ``window``,
    the deque of its last ``cfg.zeta`` posterior vectors."""
    if split_mode == "guided":
        return guided_split(posteriors, cfg.tau, core)
    if split_mode == "hct":
        window.append(posteriors)
        if len(window) == cfg.zeta:
            return hct_split(np.stack(window), cfg.tau)
    return baseline_split(posteriors, cfg.tau)


def cotrain_epoch(pair, ds: NoisyDataset, cfg: TrainConfig, epoch, splits):
    """One co-training epoch from each net's ``splits``: each net trains on
    the other's split, U towards the guessed labels, the pair's mean output,
    kept for this epoch only. Returns the metrics row, each net's plan
    digest and its (posteriors, mixture fit) for the next epoch."""
    lr = _epoch_lr(cfg, epoch)
    np.add(pair.train_out[0], pair.train_out[1], out=pair.guessed)
    pair.guessed /= 2.0
    replies, acc = pair.ask([("train", epoch, lr, splits[1 - m]) for m in (0, 1)],
                            ("train", epoch))
    stats = []
    for split, (x_ops, u_ops, digest, _) in zip(splits, replies):
        metrics = clean_set_metrics(split, ds.mask)
        stats.append(ModelEpochStats(
            split_kind=split.kind, x_size=split.x_size, u_size=split.u_size,
            precision=metrics.precision, recall=metrics.recall,
            x_ops=x_ops, u_ops=u_ops, fallback=digest is None))
    return (EpochMetrics(epoch=epoch, phase="train", lr=lr, test_acc=acc,
                         model1=stats[0], model2=stats[1]),
            [r[2] for r in replies], [r[3] for r in replies])


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

    ``baseline`` thresholds each epoch's posteriors. ``hct`` uses each net's
    confidence window, falling back to single-epoch splits until the window
    fills, and chooses the core set from each epoch's splits as they are
    made. ``guided`` pins ``core`` into the labelled set every epoch."""
    sizes = (ds.dim, *cfg.hidden, ds.num_classes)
    nets = [nn.init_network(sizes, seed=(seed, stage_no), tag=tag)
            for seed, tag in zip((cfg.model1_seed, cfg.model2_seed), TAGS)]
    windows = [deque(maxlen=cfg.zeta) for _ in TAGS]
    captured, gmm_rows, plan_rows = None, [], []
    with contextlib.closing(_Pair(nets, cfg, ds, test, stage_no, stage_tag,
                                  longmix_plans)) as pair:
        rows = warmup(pair, cfg)
        if split_mode is None:
            rows += [_supervised_epoch(pair, "train", epoch, _epoch_lr(cfg, epoch))
                     for epoch in range(1, cfg.epochs + 1)]
        else:
            fits, _ = pair.ask([("fit", 1)] * 2)
            for epoch in range(1, cfg.epochs + 1):
                splits = [_next_split(split_mode, posteriors, window, core, cfg)
                          for (posteriors, _), window in zip(fits, windows)]
                gmm_rows += [gmm_record(fit[1], epoch, tag) for tag, fit in zip(TAGS, fits)]
                if split_mode == "hct":
                    captured = select_core_set(captured, epoch, splits, cfg.epochs)
                row, digests, fits = cotrain_epoch(pair, ds, cfg, epoch, splits)
                rows.append(row)
                plan_rows += [{"stage": stage_tag, "epoch": epoch, "model": tag, "digest": digest}
                              for tag, digest in zip(TAGS, digests) if digest is not None]
    return StageOutcome(record=_finalize_record(stage_tag, rows), nets=tuple(nets),
                        window=np.stack(windows[0]) if split_mode == "hct" else None,
                        core_set=captured, gmm_rows=gmm_rows, plan_rows=plan_rows)


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
