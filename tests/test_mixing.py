import math
from types import SimpleNamespace

import numpy as np
import pytest

from longremix import nn
from longremix.mixing import build_epoch_plan, mix_plan, plan_digest, target_table
from longremix.selector import CoreSet, SplitSets, baseline_split, guided_split
from conftest import batch_loss, cross_entropy


def split_of(labeled, unlabeled):
    labeled = np.asarray(labeled, dtype=int)
    return SplitSets(labeled_idx=labeled, labeled_w=np.ones(len(labeled)),
                     unlabeled_idx=np.asarray(unlabeled, dtype=int), kind="baseline")


def recording(rng):
    """A stand-in for ``rng`` whose ``beta`` draws from it and keeps each
    draw, so a test can read back the coefficients mix_plan used."""
    draws = []

    def beta(a, b, size):
        draws.append(rng.beta(a, b, size=size))
        return draws[-1]

    return SimpleNamespace(beta=beta), draws


def mixed_lambdas(alpha, per_plan, seed):
    """The Beta(alpha, alpha) draws of mix_plan over a plan of ``per_plan``
    labelled and as many unlabelled instructions."""
    plan = build_epoch_plan(np.array([0, 1]), np.array([2, 3]), per_plan, seed=(0,))
    rng, draws = recording(np.random.default_rng(seed))
    mix_plan(plan, np.zeros((4, 1)), np.zeros((4, 2)), alpha, rng)
    assert [len(d) for d in draws] == [per_plan, per_plan]
    return np.concatenate(draws)


def mixed_at(lam):
    """Plan, features, targets and labelled mix batch, every Beta draw ``lam``."""
    feats, targets = np.random.default_rng(4).normal(size=(6, 2)), np.eye(2)[[0, 1, 0, 1, 1, 0]]
    plan = build_epoch_plan(np.arange(3), np.arange(3, 6), 6, seed=(1,))
    fixed = SimpleNamespace(beta=lambda a, b, size: np.full(size, lam))
    return plan, feats, targets, mix_plan(plan, feats, targets, 1.0, fixed)[0]


def assert_literal_mixes(plan, feats, targets, batch, lams):
    """Each labelled mix row is lam*a + (1-lam)*b of its anchor a and partner
    b, ``lams`` the labelled batch's Beta draws."""
    mixed_feats, mixed_targets = batch
    assert len(lams) == len(mixed_feats) == plan.x_ops
    for row, (a, b, lam) in enumerate(zip(plan.x_anchor, plan.x_partner, lams)):
        assert (mixed_feats[row] == lam * feats[a] + (1 - lam) * feats[b]).all()
        assert (mixed_targets[row] == lam * targets[a] + (1 - lam) * targets[b]).all()


class TestSampleBeta:
    def test_uniform_mean(self):
        draws = mixed_lambdas(1.0, 500_000, seed=0)
        se = math.sqrt(1.0 / 12.0 / len(draws))
        assert abs(draws.mean() - 0.5) < 4 * se

    def test_alpha_four_variance(self):
        # Var Beta(4,4) = 16 / (64 * 9) = 1/36
        draws = mixed_lambdas(4.0, 100_000, seed=2)
        assert abs(draws.var() - 1.0 / 36.0) < 0.05 / 36.0

    def test_support(self):
        draws = mixed_lambdas(0.5, 500, seed=3)
        assert ((draws >= 0) & (draws <= 1)).all()


class TestMixupPair:
    def test_lambda_one_identity(self):
        plan, feats, targets, (xf, xt) = mixed_at(1.0)
        np.testing.assert_array_equal(xf, feats[plan.x_anchor])
        np.testing.assert_array_equal(xt, targets[plan.x_anchor])

    def test_lambda_zero_partner(self):
        plan, feats, targets, (xf, xt) = mixed_at(0.0)
        np.testing.assert_array_equal(xf, feats[plan.x_partner])
        np.testing.assert_array_equal(xt, targets[plan.x_partner])

    def test_midpoint_label(self):
        plan, _, targets, (_, xt) = mixed_at(0.5)
        np.testing.assert_allclose(
            xt, 0.5 * targets[plan.x_anchor] + 0.5 * targets[plan.x_partner])

    def test_convexity_exact(self):
        rng = np.random.default_rng(4)
        feats, targets = rng.normal(size=(50, 2)), np.eye(2)[np.arange(50) % 2]
        plan = build_epoch_plan(np.arange(20), np.arange(20, 50), 50, seed=(4,))
        recorder, draws = recording(rng)
        xb, _ = mix_plan(plan, feats, targets, 1.0, recorder)
        assert_literal_mixes(plan, feats, targets, xb, draws[0])


class TestEpochPlan:
    def test_longmix_sizes(self):
        plan = build_epoch_plan(np.arange(10), np.arange(10, 40), 1000, seed=(0,))
        assert plan.x_ops == 1000
        assert plan.u_ops == 1000
        assert set(plan.x_anchor) <= set(range(10))
        assert set(plan.u_anchor) <= set(range(10, 40))
        assert set(plan.x_partner) <= set(range(40))

    def test_deterministic(self):
        a = build_epoch_plan(np.arange(5), np.arange(5, 20), 100, seed=(9,))
        b = build_epoch_plan(np.arange(5), np.arange(5, 20), 100, seed=(9,))
        np.testing.assert_array_equal(a.x_anchor, b.x_anchor)
        np.testing.assert_array_equal(a.u_partner, b.u_partner)
        assert plan_digest(a) == plan_digest(b)
        c = build_epoch_plan(np.arange(5), np.arange(5, 20), 100, seed=(10,))
        assert plan_digest(a) != plan_digest(c)

    def test_empty_u_gives_labelled_only_plan(self):
        plan = build_epoch_plan(np.arange(8), np.empty(0, dtype=int), 100, seed=(1,))
        assert plan.u_ops == 0
        assert plan.x_ops == 100


class TestTargetTable:
    def test_one_hot_for_x_guessed_for_u(self):
        guessed = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1], [0.6, 0.4]])
        split = split_of([0, 2], [1, 3])
        table = target_table(split, np.array([1, 1, 0, 0]), guessed)
        assert table[[0, 2]].tobytes() == np.array([[0.0, 1.0], [1.0, 0.0]]).tobytes()
        assert table[[1, 3]].tobytes() == guessed[[1, 3]].tobytes()

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0])
    def test_u_rows_are_guessed_rows_by_bytes(self, tau):
        rng = np.random.default_rng(12)
        n, c = 50, 4
        guessed = rng.random((n, c))
        guessed /= guessed.sum(axis=1, keepdims=True)
        labels = rng.integers(0, c, n)
        core = CoreSet(indices=rng.choice(n, size=10, replace=False), epoch=1)
        rng.integers(0, c, 10)  # unused: drawn so that the later draws stay fixed
        post = rng.random(n)
        for split in (baseline_split(post, tau), guided_split(post, tau, core)):
            table = target_table(split, labels, guessed)
            assert table.shape == (n, c) and table.dtype == np.float64
            u = split.unlabeled_idx
            assert table[u].tobytes() == guessed[u].tobytes()
            x_rows = np.zeros((split.x_size, c))
            x_rows[np.arange(split.x_size), labels[split.labeled_idx]] = 1.0
            assert table[split.labeled_idx].tobytes() == x_rows.tobytes()


class TestMixPlan:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(30, 2))
        targets = rng.random((30, 4))
        targets /= targets.sum(axis=1, keepdims=True)
        plan = build_epoch_plan(np.arange(12), np.arange(12, 30), 50, seed=(2,))
        recorder, draws = recording(rng)
        xb, ub = mix_plan(plan, feats, targets, alpha=4.0, rng=recorder)
        for (mixed_feats, mixed_targets), lam in zip((xb, ub), draws):
            np.testing.assert_allclose(mixed_targets.sum(axis=1), 1.0, atol=1e-9)
            assert ((lam >= 0) & (lam <= 1)).all()
            assert len(mixed_feats) == 50

    def test_mix_matches_pairwise_op(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(10, 3))
        targets = np.eye(10)[:, :4].copy()
        targets[:, 0] += 1 - targets.sum(axis=1)
        plan = build_epoch_plan(np.arange(4), np.arange(4, 10), 6, seed=(7,))
        xb, _ = mix_plan(plan, feats, targets, alpha=2.0, rng=np.random.default_rng(8))
        # replay the seeded draws: the labelled batch's come first
        lams = np.random.default_rng(8).beta(2.0, 2.0, size=plan.x_ops)
        assert_literal_mixes(plan, feats, targets, xb, lams)


def total_loss(net, batch, lambda_u, lambda_reg):
    return batch_loss(net, batch, nn.TotalLoss(lambda_u, lambda_reg))


def kl_term(net, batch):
    """The uniform-prior KL term: the loss at lambda_reg = 1 minus at 0."""
    return total_loss(net, batch, 1.0, 1.0) - total_loss(net, batch, 1.0, 0.0)


# ((labelled features, one-hot targets), (unlabelled features, soft targets))
LOSS_BATCH = ((np.array([[2.0, 0.0], [-2.0, 0.0]]), np.eye(2)),
              (np.array([[1.0, 1.0], [0.0, -1.0]]), np.array([[0.6, 0.4], [0.3, 0.7]])))


class TestLosses:
    def test_perfect_predictions_zero(self):
        # huge margins on the true side drive CE to ~0; targets equal outputs drive SE to 0
        net = nn.Network([np.array([[80.0, -80.0], [0.0, 0.0]])], [np.zeros(2)])
        u_feats = np.array([[3.0, 0.0]])
        batch = (LOSS_BATCH[0], (u_feats, nn.forward(net, u_feats)))
        assert total_loss(net, batch, 25.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_lambda_u_zero_drops_term(self):
        net = nn.init_network([2, 6, 2], seed=(3,))
        (xf, xt), _ = LOSS_BATCH
        want = float(np.mean(cross_entropy(nn.forward(net, xf), xt)))
        assert total_loss(net, LOSS_BATCH, 0.0, 0.0) == pytest.approx(want, abs=1e-12)

    def test_hand_recomputation(self):
        net = nn.init_network([2, 5, 2], seed=(4,))
        (xf, xt), (uf, ut) = LOSS_BATCH
        ce = sum(-math.log(max(nn.forward(net, f[None])[0][int(t.argmax())], 1e-12))
                 * t[int(t.argmax())]  # one-hot rows
                 for f, t in zip(xf, xt)) / 2
        se = sum(((nn.forward(net, f[None])[0] - t) ** 2).sum() for f, t in zip(uf, ut)) / 2
        assert total_loss(net, LOSS_BATCH, 3.0, 0.0) == pytest.approx(ce + 3.0 * se, abs=1e-12)

    def test_kl_uniform_is_zero(self):
        net = nn.Network([np.zeros((2, 2))], [np.zeros(2)])
        assert kl_term(net, LOSS_BATCH) == 0.0

    def test_kl_hand_value(self):
        # every output is softmax([ln 3, 0]) = [0.75, 0.25]:
        # 0.5*ln(0.5/0.75) + 0.5*ln(0.5/0.25) = 0.14384103622589045
        net = nn.Network([np.zeros((2, 2))], [np.array([math.log(3.0), 0.0])])
        assert kl_term(net, LOSS_BATCH) == pytest.approx(0.143841, abs=1e-6)

    def test_kl_non_negative(self):
        rng = np.random.default_rng(7)
        for seed in range(100):
            net = nn.init_network([2, 6, 5], seed=(seed,))
            soft = rng.random((3, 5))
            batch = ((rng.normal(size=(3, 2)), np.eye(5)[rng.integers(0, 5, 3)]),
                     (rng.normal(size=(3, 2)), soft / soft.sum(axis=1, keepdims=True)))
            assert kl_term(net, batch) >= 0.0

    def test_total_loss_weighting(self):
        # lambda_reg scales the KL term and nothing else
        net = nn.init_network([2, 5, 2], seed=(6,))
        kl, evr = kl_term(net, LOSS_BATCH), total_loss(net, LOSS_BATCH, 3.0, 0.0)
        assert kl > 0.0
        assert total_loss(net, LOSS_BATCH, 3.0, 1.0) == pytest.approx(evr + kl, abs=1e-12)
        assert total_loss(net, LOSS_BATCH, 3.0, 2.0) == pytest.approx(evr + 2.0 * kl, abs=1e-12)
