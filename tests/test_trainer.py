import contextlib
import warnings

import numpy as np
import pytest

from longremix import data, nn, trainer
from longremix.errors import ConfigError, StateError
from longremix.mixing import target_table
from longremix.seeding import WARMUP_SHUFFLE, derive_rng
from longremix.trainer import TrainConfig, evaluate, run_training, warmup


def blob_pair(n=300, classes=4, spread=0.15, seed=1, noise=0.0, noise_seed=7):
    ds = data.make_synthetic_dataset("blobs", n=n, classes=classes, spread=spread, seed=seed)
    test = data.make_synthetic_dataset("blobs", n=n, classes=classes, spread=spread,
                                       seed=seed + 1000003)
    if noise:
        ds = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=noise, seed=noise_seed))
    return ds, test


def run_warmup(nets, ds, test, cfg):
    """``warmup`` of the given nets through the trainer's pair; the nets'
    parameters move into the pair's shared memory, so they end trained.
    Returns the metrics rows."""
    with contextlib.closing(trainer._Pair(nets, cfg, ds, test, 1, "warmup")) as pair:
        return warmup(pair, cfg)


def outputs(nets, ds):
    """The pair's class probabilities on ``ds``, as ``evaluate`` takes them."""
    return [nn.forward(net, ds.features) for net in nets]


def small_cfg(**kw):
    base = dict(mode="baseline", epochs=6, warmup=3, zeta=3, batch_size=64,
                lambda_u=25.0, lambda_reg=1.0, lr=0.05)
    base.update(kw)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        TrainConfig()

    def test_zeta_bound_is_max_count(self):
        # a config only holds its fields: through train, this one is a valid endless run
        TrainConfig(zeta=data.MAX_COUNT, epochs=data.MAX_COUNT)
        with pytest.raises(ConfigError, match=f"^train.zeta must be <= {data.MAX_COUNT}, "
                                              f"got {data.MAX_COUNT + 1}$"):
            TrainConfig(zeta=data.MAX_COUNT + 1, epochs=data.MAX_COUNT + 1)


class TestWarmup:
    def test_clean_blobs_reach_high_train_accuracy(self):
        ds, test = blob_pair(n=300, classes=2, spread=0.1)
        cfg = small_cfg(warmup=20)
        net1 = nn.init_network((2, 64, 64, 2), seed=(11, 1), tag="model1")
        net2 = nn.init_network((2, 64, 64, 2), seed=(22, 1), tag="model2")
        rows = run_warmup((net1, net2), ds, test, cfg)
        assert evaluate(outputs((net1, net2), ds), ds) >= 0.99
        assert [r.epoch for r in rows] == list(range(1, 21))
        assert all(r.phase == "warmup" and r.lr == cfg.lr and r.model1 is None for r in rows)
        assert rows[-1].test_acc == evaluate(outputs((net1, net2), test), test)

    def test_different_seeds_different_parameters(self):
        ds, test = blob_pair(n=100, classes=2)
        cfg = small_cfg(warmup=2)
        a = nn.init_network((2, 8, 2), seed=(11, 1))
        b = nn.init_network((2, 8, 2), seed=(22, 1))
        run_warmup((a, b), ds, test, cfg)
        assert any((wa != wb).any() for wa, wb in zip(a.weights, b.weights))


class TestEvaluate:
    def test_perfect_pair(self):
        ds, test = blob_pair(n=100, classes=2, spread=0.05)
        net = nn.Network([np.array([[50.0, -50.0], [0.0, 0.0]])], [np.zeros(2)])
        assert evaluate(outputs((net, nn.Network(net.weights, net.biases)), test), test) == 1.0

    def test_argmax_tie_takes_lowest_class(self):
        # zero-weight nets emit uniform distributions; every prediction ties
        ds, test = blob_pair(n=40, classes=4)
        net = nn.Network([np.zeros((2, 4))], [np.zeros(4)])
        got = evaluate(outputs((net, nn.Network(net.weights, net.biases)), test), test)
        want = float((test.true_labels == 0).mean())
        assert got == want

    def test_matches_mean_softmax_oracle(self):
        ds, test = blob_pair(n=60, classes=3)
        net1 = nn.init_network((2, 6, 3), seed=(1, 1))
        net2 = nn.init_network((2, 6, 3), seed=(2, 1))
        got = evaluate(outputs((net1, net2), test), test)
        mean = (nn.forward(net1, test.features) + nn.forward(net2, test.features)) / 2
        want = float((mean.argmax(axis=1) == test.true_labels).mean())
        assert got == want
        assert 0.0 <= got <= 1.0

    @pytest.mark.parametrize("huge", ["model1", "model2"])
    def test_non_finite_test_outputs_rejected(self, huge):
        # finite weights near 1e200 overflow the logits to inf; the softmax
        # then yields NaN rows, which argmax would count as class 0
        _, test = blob_pair(n=40, classes=3)
        nets = {tag: nn.init_network((2, 6, 3), seed=(1, 1), tag=tag)
                for tag in ("model1", "model2")}
        nets[huge].params *= 1e200
        assert np.isfinite(nets[huge].params).all()
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(nn.forward(nets[huge], test.features)).all()
            with pytest.raises(StateError, match=f"^non-finite test outputs of {huge}$"):
                evaluate(outputs((nets["model1"], nets["model2"]), test), test)


def reference_supervised_pass(net, opt, ds, cfg, m, stage_no, pass_no):
    """The supervised pass with a fancy-index gather of each batch's
    features and targets."""
    targets = trainer.one_hot(ds.labels, ds.num_classes)
    rng = derive_rng((cfg.model1_seed, cfg.model2_seed)[m], WARMUP_SHUFFLE, stage_no, pass_no)
    order = rng.permutation(ds.n)
    for start in range(0, ds.n, cfg.batch_size):
        sel = order[start:start + cfg.batch_size]
        batch = (ds.features[sel], targets[sel]), (ds.features[:0], targets[:0])
        grads = nn.backward(net, batch, nn.TotalLoss(lambda_u=0.0, lambda_reg=0.0))
        nn.sgd_step(net, grads, opt)


class TestSupervisedPassMatchesReference:
    """A member's supervised passes, batches sliced from one shuffled gather
    per pass, must train both nets to the same bytes as batches gathered one
    at a time, and end with the test-set outputs of those parameters."""

    @pytest.mark.parametrize("n,batch_size", [(150, 64), (150, 1), (130, 7), (128, 64)])
    def test_passes_byte_identical(self, n, batch_size, monkeypatch):
        monkeypatch.setattr(trainer, "_use_workers", lambda: False)
        ds, test = blob_pair(n=n, classes=3, noise=0.3)
        cfg = small_cfg(batch_size=batch_size)
        sizes = (ds.dim, *cfg.hidden, ds.num_classes)
        seeds = (cfg.model1_seed, cfg.model2_seed)
        nets = [nn.init_network(sizes, seed=(seed, 1), tag=tag)
                for seed, tag in zip(seeds, trainer.TAGS)]
        refs = [nn.Network(net.weights, net.biases, net.tag) for net in nets]
        with contextlib.closing(trainer._Pair(nets, cfg, ds, test, 1, "ce")) as pair:
            for m, (member, ref, seed) in enumerate(zip(pair.members, refs, seeds)):
                ref_opt = nn.init_optimizer(ref, cfg.lr, cfg.momentum, cfg.weight_decay)
                for epoch in range(1, 4):
                    member.supervised("train", epoch, cfg.lr)
                    reference_supervised_pass(ref, ref_opt, ds, cfg, m, 1, cfg.warmup + epoch)
                    assert member.net.params.tobytes() == ref.params.tobytes()
                    assert member.opt.velocity.tobytes() == ref_opt.velocity.tobytes()
                    assert pair.test_out[m].tobytes() == nn.forward(ref, test.features).tobytes()
                fresh = nn.init_network(sizes, seed=(seed, 1))
                assert ref.params.tobytes() != fresh.params.tobytes()


class TestCotrainPlumbing:
    def test_partition_recorded_per_model(self):
        ds, test = blob_pair(n=200, classes=4, noise=0.5)
        stages = run_training(small_cfg(), ds, test)
        for row in stages[-1].record.epochs:
            if row.phase != "train":
                continue
            for stats in (row.model1, row.model2):
                assert stats.x_size + stats.u_size == ds.n

    def test_baseline_ops_sized_to_clean_set(self):
        ds, test = blob_pair(n=200, classes=4, noise=0.5)
        stages = run_training(small_cfg(mode="baseline"), ds, test)
        rows = [r for r in stages[-1].record.epochs if r.phase == "train"]
        for row in rows:
            # model m trains on the other model's split
            if not row.model1.fallback:
                assert row.model1.x_ops == row.model2.x_size
            if not row.model2.fallback:
                assert row.model2.x_ops == row.model1.x_size

    def test_longmix_ops_sized_to_dataset(self):
        ds, test = blob_pair(n=200, classes=4, noise=0.5)
        stages = run_training(small_cfg(mode="longmix"), ds, test)
        rows = [r for r in stages[-1].record.epochs if r.phase == "train"]
        for row in rows:
            for stats in (row.model1, row.model2):
                if not stats.fallback:
                    assert stats.x_ops == ds.n
                    assert stats.u_ops in (0, ds.n)

    def test_identical_seeds_give_identical_splits(self):
        ds, test = blob_pair(n=150, classes=3, noise=0.3)
        cfg = small_cfg(model1_seed=5, model2_seed=5)
        stages = run_training(cfg, ds, test)
        for row in stages[-1].record.epochs:
            if row.phase == "train":
                assert row.model1.x_size == row.model2.x_size
                assert row.model1.precision == row.model2.precision


class TestSupervisedFallback:
    """At 90% noise and tau 1.0 the loss mixture mostly leaves X empty: the
    other net then trains with a supervised pass, which has no plan."""

    def test_fallback_records(self):
        ds, test = blob_pair(n=120, classes=6, noise=0.9)
        cfg = small_cfg(mode="full-longremix", tau=1.0, epochs=12, warmup=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stages = run_training(cfg, ds, test)
        assert stages[0].core_set.size == 0
        for stage in stages:
            rows = [r for r in stage.record.epochs if r.phase == "train"]
            assert len(rows) == cfg.epochs
            fallbacks, planned = 0, []
            for row in rows:
                for tag, stats in (("model1", row.model1), ("model2", row.model2)):
                    if stats.fallback:
                        assert (stats.x_ops, stats.u_ops) == (ds.n, 0)
                        fallbacks += 1
                    else:
                        planned.append((stage.record.stage, row.epoch, tag))
            # this setting gives both kinds of model-epoch in each stage
            assert fallbacks > 0 and planned
            assert [(g["epoch"], g["model"]) for g in stage.gmm_rows] == [
                (e, tag) for e in range(1, cfg.epochs + 1) for tag in ("model1", "model2")]
            assert len(stage.plan_rows) == 2 * cfg.epochs - fallbacks
            assert [(p["stage"], p["epoch"], p["model"]) for p in stage.plan_rows] == planned


class TestStages:
    def test_stage1_zeta_one_matches_baseline_sizes(self):
        ds, test = blob_pair(n=150, classes=3, noise=0.4)
        cfg_hct = small_cfg(mode="retrain-only", zeta=1)
        cfg_base = small_cfg(mode="baseline", zeta=1)
        stage1 = trainer.run_stage(cfg_hct, ds, test, 1, *trainer.STAGE1_HCT)
        base = run_training(cfg_base, ds, test)[-1]
        # a window of one is single-epoch thresholding, except plan sizing:
        # retrain-only keeps baseline sizing, so records must agree exactly
        for a, b in zip(stage1.record.epochs, base.record.epochs):
            if a.phase == "train":
                assert a.model1.x_size == b.model1.x_size
                assert a.test_acc == b.test_acc

    def test_core_set_from_second_half_only(self):
        ds, test = blob_pair(n=150, classes=3, noise=0.4)
        cfg = small_cfg(mode="full-longremix")
        stages = run_training(cfg, ds, test)
        assert stages[0].core_set is not None
        assert stages[0].core_set.epoch >= (cfg.epochs + 1) // 2

    def test_core_set_is_largest_second_half_split_of_both_nets(self):
        # the largest windowed X of either net over epochs >= ceil(E/2), the
        # latest on a tie, and model 2's within an epoch
        ds, test = blob_pair(n=300, classes=3, noise=0.5)
        cfg = small_cfg(mode="retrain-only", epochs=10, warmup=2)
        stage1 = run_training(cfg, ds, test)[0]
        best, model1_best = (-1, 0), -1
        for row in stage1.record.epochs:
            if row.phase == "train" and row.epoch >= (cfg.epochs + 1) // 2:
                for stats in (row.model1, row.model2):
                    assert stats.split_kind == "hct"
                    best = max(best, (stats.x_size, row.epoch))
                model1_best = max(model1_best, row.model1.x_size)
        assert (stage1.core_set.size, stage1.core_set.epoch) == best
        assert best[0] > model1_best  # in this setting model 2's split wins
        assert stage1.window.shape == (cfg.zeta, ds.n)

    def test_core_members_always_labelled_in_stage2(self):
        ds, test = blob_pair(n=150, classes=3, noise=0.4)
        stages = run_training(small_cfg(mode="full-longremix"), ds, test)
        core = stages[0].core_set
        stage2 = stages[1]
        for row in stage2.record.epochs:
            if row.phase == "train":
                assert row.model1.split_kind == "guided"
                assert row.model1.x_size >= core.size

    def test_x_trains_on_observed_labels_with_the_core_set_in_x(self, monkeypatch):
        # neither a split nor the core set carries labels: every X row of a
        # target table is the one-hot observed label, and each guided split's
        # X holds the whole core set (model 2 runs here, so its calls are seen);
        # at 80% noise X holds flipped labels, and some core members fall
        # below tau in stage 2, so neither check passes by chance
        ds, test = blob_pair(n=300, classes=4, noise=0.8)
        cfg = small_cfg(mode="full-longremix")
        seen = []

        def recording_target_table(split, labels, guessed):
            table = target_table(split, labels, guessed)
            seen.append((split, table))
            return table

        monkeypatch.setattr(trainer, "_use_workers", lambda: False)
        monkeypatch.setattr(trainer, "target_table", recording_target_table)
        core = run_training(cfg, ds, test)[0].core_set
        assert core.size > 0
        assert any(ds.mask[split.labeled_idx].any() for split, _ in seen)
        for split, table in seen:
            want = np.zeros((split.x_size, ds.num_classes))
            want[np.arange(split.x_size), ds.labels[split.labeled_idx]] = 1.0
            assert table[split.labeled_idx].tobytes() == want.tobytes()
        guided = [split for split, _ in seen if split.kind == "guided"]
        assert len(guided) == 2 * cfg.epochs
        for split in guided:
            assert np.isin(core.indices, split.labeled_idx).all()

    def test_stage2_initialized_fresh(self):
        ds, test = blob_pair(n=120, classes=3, noise=0.4)
        cfg = small_cfg(mode="full-longremix")
        stages = run_training(cfg, ds, test)
        stage1_net = stages[0].nets[0]
        fresh2 = nn.init_network((2, *cfg.hidden, 3), seed=(cfg.model1_seed, 2), tag="model1")
        # stage-2 training started from the stage-2 seed, not stage-1 weights:
        # replaying stage 2 from that seed reproduces its record exactly
        replay = trainer.run_stage(cfg, ds, test, 2, "stage2-guided", "guided", True,
                                   core=stages[0].core_set)
        assert replay.record == stages[1].record
        assert any((a != b).any() for a, b in zip(stage1_net.weights, fresh2.weights))

    def test_stage1_windowed_precision_at_high_noise(self):
        # 80% symmetric noise: at the final stage-1 epoch the windowed split is
        # a subset of the baseline split and its measured precision matches or
        # beats it (frozen seeds; margins checked during calibration)
        from longremix import selector
        for seed in (1, 3):
            ds = data.make_synthetic_dataset("blobs", n=2000, classes=16, spread=0.15, seed=seed)
            test = data.make_synthetic_dataset("blobs", n=1000, classes=16, spread=0.15,
                                               seed=seed + 1000003)
            noisy = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=0.8, seed=seed + 101))
            cfg = TrainConfig(mode="full-longremix", tau=0.7, zeta=5, alpha=0.2,
                              lambda_u=10.0, epochs=60, warmup=20, lr=0.02,
                              data_seed=seed, model1_seed=seed + 11,
                              model2_seed=seed + 22, plan_seed=seed + 33)
            stage1 = trainer.run_stage(cfg, noisy, test, 1, *trainer.STAGE1_HCT)
            windowed = selector.hct_split(stage1.window, cfg.tau)
            base = selector.baseline_split(stage1.window[-1], cfg.tau)
            assert set(windowed.labeled_idx) <= set(base.labeled_idx)
            mw = selector.clean_set_metrics(windowed, noisy.mask)
            mb = selector.clean_set_metrics(base, noisy.mask)
            assert mw.precision >= mb.precision
            assert mw.recall <= mb.recall

    def test_stage2_with_empty_core_is_single_epoch_selection(self):
        # structural reduction: guided splits with no core set behave exactly
        # like baseline splits, so the whole stage replays identically
        from longremix.selector import CoreSet
        ds, test = blob_pair(n=150, classes=3, noise=0.4)
        cfg = small_cfg(mode="full-longremix")
        guided = trainer.run_stage(cfg, ds, test, 2, "stage2-guided", "guided", True,
                                   core=CoreSet.empty())
        plain = trainer.run_stage(cfg, ds, test, stage_no=2, stage_tag="stage2-guided",
                                  split_mode="baseline", longmix_plans=True)
        for a, b in zip(guided.record.epochs, plain.record.epochs):
            assert a.test_acc == b.test_acc
            if a.phase == "train":
                assert a.model1.x_size == b.model1.x_size
                assert a.model1.precision == b.model1.precision

    @pytest.mark.parametrize("mode", trainer.MODES)
    def test_one_outcome_per_stage(self, mode):
        ds, test = blob_pair(n=120, classes=3, noise=0.4)
        stages = run_training(small_cfg(mode=mode), ds, test)
        want = ["ce"] if mode == "ce" else [tag for tag, _, _ in trainer.MODE_STAGES[mode]]
        assert [s.record.stage for s in stages] == want

    def test_ce_mode_has_no_splits(self):
        ds, test = blob_pair(n=100, classes=2, noise=0.2)
        stages = run_training(small_cfg(mode="ce"), ds, test)
        assert len(stages) == 1
        assert all(r.model1 is None for r in stages[-1].record.epochs)


class TestRunRecordInvariants:
    def test_best_dominates_and_last10(self):
        ds, test = blob_pair(n=150, classes=3, noise=0.3)
        stages = run_training(small_cfg(epochs=10, warmup=2), ds, test)
        rec = stages[-1].record
        accs = [r.test_acc for r in rec.epochs]
        assert rec.best_acc == max(accs)
        assert rec.best_acc >= rec.last10_acc
        np.testing.assert_allclose(rec.last10_acc, np.mean(accs[-10:]))

    @pytest.mark.parametrize("rows", [9, 10])
    def test_last10_none_when_short(self, rows):
        # None below 10 rows; at exactly 10, the mean of them all
        ds, test = blob_pair(n=100, classes=2, noise=0.2)
        stages = run_training(small_cfg(mode="ce", epochs=rows - 1, warmup=1, zeta=1), ds, test)
        rec = stages[-1].record
        accs = [r.test_acc for r in rec.epochs]
        assert len(accs) == rows
        assert rec.last10_acc == (None if rows < 10 else float(np.mean(accs)))

    def test_lr_drops_at_midpoint(self):
        ds, test = blob_pair(n=100, classes=2, noise=0.2)
        cfg = small_cfg(epochs=6, lr=0.08)
        stages = run_training(cfg, ds, test)
        rows = [r for r in stages[-1].record.epochs if r.phase == "train"]
        assert rows[0].lr == pytest.approx(0.08)
        assert rows[-1].lr == pytest.approx(0.008)
