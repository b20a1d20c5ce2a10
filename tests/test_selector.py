import warnings

import numpy as np
import pytest

from longremix import data, selector, trainer
from longremix.selector import (CleanSetMetrics, CoreSet, baseline_split, clean_set_metrics,
                                guided_split, hct_split, select_core_set)


def make_window(posterior_rows, zeta):
    """The confidence window after ``posterior_rows`` in turn: the last ``zeta``."""
    return np.asarray(posterior_rows, dtype=float)[-zeta:]


def choose_core_set(records, total_epochs):
    """``select_core_set`` run over a stage of ``total_epochs`` epochs, each
    given its ``(epoch, split)`` records in order."""
    core = None
    for epoch in range(1, total_epochs + 1):
        core = select_core_set(core, epoch, [s for e, s in records if e == epoch], total_epochs)
    return core


def same_membership(a, b):
    return (np.array_equal(a.labeled_idx, b.labeled_idx)
            and np.array_equal(a.unlabeled_idx, b.unlabeled_idx)
            and np.allclose(a.labeled_w, b.labeled_w))


class TestBaselineSplit:
    def test_thresholding(self):
        s = baseline_split(np.array([0.9, 0.4, 0.6]), 0.5)
        np.testing.assert_array_equal(s.labeled_idx, [0, 2])
        np.testing.assert_array_equal(s.unlabeled_idx, [1])
        np.testing.assert_allclose(s.labeled_w, [0.9, 0.6])

    def test_tau_zero_takes_everything(self):
        s = baseline_split(np.array([0.0, 0.3]), 0.0)
        assert s.x_size == 2
        assert s.u_size == 0

    def test_boundary_posterior_goes_to_x(self):
        s = baseline_split(np.array([0.5]), 0.5)
        assert s.x_size == 1


class TestHctSplit:
    def test_clean_all_window_epochs(self):
        rows = [[0.9, 0.9], [0.8, 0.9], [0.9, 0.9], [0.7, 0.9], [0.6, 0.9]]
        w = make_window(rows, zeta=5)
        s = hct_split(w, 0.5)
        np.testing.assert_array_equal(s.labeled_idx, [0, 1])

    def test_one_bad_epoch_excludes(self):
        rows = [[0.9], [0.9], [0.4], [0.9], [0.9]]
        w = make_window(rows, zeta=5)
        s = hct_split(w, 0.5)
        assert s.x_size == 0
        assert s.u_size == 1

    def test_weights_are_current_posterior(self):
        rows = [[0.9, 0.2], [0.55, 0.8]]
        w = make_window(rows, zeta=2)
        s = hct_split(w, 0.5)
        np.testing.assert_allclose(s.labeled_w, [0.55])
        np.testing.assert_array_equal(s.unlabeled_idx, [1])

    def test_zeta_one_equals_baseline(self):
        rng = np.random.default_rng(1)
        post = rng.random(30)
        w = make_window([post], zeta=1)
        assert same_membership(hct_split(w, 0.5), baseline_split(post, 0.5))

    def test_ring_buffer_depth(self, monkeypatch):
        # each net's window in a stage holds its last zeta posterior vectors:
        # from one epoch's window to the next, the oldest row drops out
        ds = data.apply_noise(data.make_synthetic_dataset("blobs", 120, 3, 0.15, seed=1),
                              data.NoiseSpec(kind="symmetric", eta=0.4, seed=7))
        test = data.make_synthetic_dataset("blobs", 60, 3, 0.15, seed=2)
        cfg = trainer.TrainConfig(mode="retrain-only", epochs=6, warmup=1, zeta=3)
        seen = []
        monkeypatch.setattr(trainer, "hct_split",
                            lambda window, *a: seen.append(window) or hct_split(window, *a))
        stage = trainer.run_stage(cfg, ds, test, 1, *trainer.STAGE1_HCT)
        model1 = seen[::2]  # one window per net and epoch, model 1's first
        assert len(model1) == cfg.epochs - cfg.zeta + 1
        assert all(w.shape == (cfg.zeta, ds.n) for w in seen)
        for old, new in zip(model1, model1[1:]):
            np.testing.assert_array_equal(new[:-1], old[1:])
        np.testing.assert_array_equal(stage.window, model1[-1])


class TestCoreSet:
    def _snapshot(self, size, n=200, first=0):
        in_x = np.zeros(n, dtype=bool)
        in_x[first:first + size] = True
        return selector.SplitSets(labeled_idx=np.flatnonzero(in_x), labeled_w=np.ones(size),
                                  unlabeled_idx=np.flatnonzero(~in_x), kind="hct")

    def test_argmax_with_latest_tie(self):
        sizes = {5: 100, 6: 150, 7: 140, 8: 150, 9: 130, 10: 120}
        records = [(e, self._snapshot(s)) for e, s in sizes.items()]
        core = choose_core_set(records, total_epochs=10)
        assert core.epoch == 8
        assert core.size == 150

    def test_first_half_ignored(self):
        records = [(1, self._snapshot(199)), (5, self._snapshot(10)), (10, self._snapshot(20))]
        core = choose_core_set(records, total_epochs=10)
        assert core.size == 20

    def test_single_record(self):
        records = [(7, self._snapshot(42))]
        assert choose_core_set(records, 10).size == 42

    def test_all_empty_gives_empty_core_set(self):
        records = [(e, self._snapshot(0)) for e in range(5, 11)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            core = choose_core_set(records, 10)
        assert core.size == 0

    def test_tie_within_epoch_goes_to_model2(self):
        model1, model2 = self._snapshot(5), self._snapshot(5, first=5)
        core = choose_core_set([(6, model1), (6, model2)], 10)
        assert (core.epoch, core.size) == (6, 5)
        np.testing.assert_array_equal(core.indices, model2.labeled_idx)

    def test_only_windowed_splits_count(self):
        # a confidence-window stage splits by single epochs until its window fills
        single = self._snapshot(150)
        single.kind = "baseline"
        core = choose_core_set([(5, single), (5, self._snapshot(20))], 10)
        assert core.size == 20

    def test_indices_copied_at_capture(self):
        snap = self._snapshot(3)
        core = choose_core_set([(9, snap)], 10)
        snap.labeled_idx[:] = [7, 8, 9]
        np.testing.assert_array_equal(core.indices, [0, 1, 2])

    def test_indices_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            CoreSet(indices=np.array([3, 1, 3]), epoch=2)


class TestGuidedSplit:
    def test_core_overrides_low_posterior(self):
        core = CoreSet(indices=np.array([1]), epoch=9)
        s = guided_split(np.array([0.9, 0.1, 0.2]), 0.5, core)
        assert 1 in s.labeled_idx
        pos = list(s.labeled_idx).index(1)
        assert s.labeled_w[pos] == 1.0
        assert 1 not in s.unlabeled_idx

    def test_non_member_threshold_branch(self):
        core = CoreSet.empty()
        s = guided_split(np.array([0.7, 0.3]), 0.5, core)
        np.testing.assert_array_equal(s.labeled_idx, [0])
        np.testing.assert_allclose(s.labeled_w, [0.7])

    def test_empty_core_equals_baseline(self):
        rng = np.random.default_rng(2)
        post = rng.random(40)
        assert same_membership(guided_split(post, 0.5, CoreSet.empty()),
                               baseline_split(post, 0.5))


def override_reference(posteriors, tau, core):
    """Threshold split with the core set pinned in afterwards: a boolean
    gather per field, then weight 1 written at each member's position in X,
    found by ``searchsorted`` over the sorted core."""
    posteriors = np.asarray(posteriors, dtype=float)
    in_x = posteriors >= tau
    if core.size:
        in_x = in_x.copy()
        in_x[core.indices] = True
    idx = np.arange(len(posteriors))
    x_idx = idx[in_x]
    x_w = posteriors[in_x].astype(float).copy()
    if core.size:
        pos = np.searchsorted(x_idx, np.sort(core.indices))
        x_w[pos] = 1.0
    return x_idx, x_w, idx[~in_x]


class TestGuidedSplitMatchesReference:
    """``guided_split`` pins the core set on full-length copies before one
    gather; every field must equal the override path's by dtype and bytes."""

    DRAWS = 1200

    @staticmethod
    def _fields(split):
        return (split.labeled_idx, split.labeled_w, split.unlabeled_idx)

    def _assert_same(self, split, want):
        for got, ref in zip(self._fields(split), want):
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_bit_identical_over_random_cores(self):
        rng = np.random.default_rng(81)
        for draw in range(self.DRAWS):
            n = int(rng.integers(1, 60))
            # every other draw puts posteriors on the thresholds' grid, ties included
            post = rng.random(n) if draw % 2 else rng.integers(0, 5, n) / 4.0
            tau = float(rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(0.05, 0.95)]))
            rng.integers(0, 5, n)  # unused: drawn so that the later draws stay fixed
            # empty, partial and full cores in turn
            k = (0, int(rng.integers(1, n + 1)), n)[draw % 3]
            if k:
                core = CoreSet(indices=rng.choice(n, size=k, replace=False), epoch=1)
                rng.integers(0, 5, k)  # likewise
            else:
                core = CoreSet.empty()
            self._assert_same(guided_split(post, tau, core), override_reference(post, tau, core))
            self._assert_same(baseline_split(post, tau),
                              override_reference(post, tau, CoreSet.empty()))

    def test_inputs_left_unchanged(self):
        post, core = np.array([0.9, 0.1, 0.2]), CoreSet(np.array([1]), epoch=3)
        guided_split(post, 0.5, core)
        np.testing.assert_array_equal(post, [0.9, 0.1, 0.2])
        np.testing.assert_array_equal(core.indices, [1])


class TestCleanSetMetrics:
    def _split(self, x_idx, u_idx, n):
        x_idx = np.asarray(x_idx, dtype=int)
        u_idx = np.asarray(u_idx, dtype=int)
        return selector.SplitSets(labeled_idx=x_idx, labeled_w=np.ones(len(x_idx)),
                                  unlabeled_idx=u_idx, kind="baseline")

    def test_perfect_split(self):
        mask = np.array([False, False, True, True])
        m = clean_set_metrics(self._split([0, 1], [2, 3], 4), mask)
        assert m == CleanSetMetrics(1.0, 1.0)

    def test_counting_example(self):
        # X = 3 clean + 1 noisy, U = 1 clean + 2 noisy -> precision 0.75, recall 0.75
        mask = np.array([False, False, False, True, False, True, True])
        m = clean_set_metrics(self._split([0, 1, 2, 3], [4, 5, 6], 7), mask)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.75)

    def test_empty_x_convention(self):
        mask = np.array([False, True])
        m = clean_set_metrics(self._split([], [0, 1], 2), mask)
        assert m.precision == 1.0
        assert m.precision_defaulted
        assert m.recall == 0.0
        assert m == CleanSetMetrics(precision=1.0, recall=0.0, precision_defaulted=True)
        # no clean sample anywhere: recall's empty denominator defaults to 1.0
        m = clean_set_metrics(self._split([0], [1], 2), np.array([True, True]))
        assert m == CleanSetMetrics(precision=0.0, recall=1.0)
