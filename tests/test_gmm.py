import math

import numpy as np
import pytest

from longremix import gmm, nn
from longremix.data import make_synthetic_dataset
from conftest import cross_entropy


def two_cluster_losses(rng, n_each=500, mu=(0.1, 0.9), sigma=0.01):
    vals = np.concatenate([rng.normal(mu[0], sigma, n_each),
                           rng.normal(mu[1], sigma, n_each)])
    return vals


class TestPerSampleLosses:
    def test_uniform_net_gives_log_c(self):
        ds = make_synthetic_dataset("blobs", n=40, classes=4, spread=0.2, seed=0)
        net = nn.Network([np.zeros((2, 4))], [np.zeros(4)])
        losses = gmm.per_sample_losses(net, ds)
        np.testing.assert_allclose(losses, math.log(4), atol=1e-12)

    def test_matches_independent_recomputation(self):
        ds = make_synthetic_dataset("blobs", n=25, classes=3, spread=0.3, seed=1)
        net = nn.init_network([2, 8, 3], seed=(4,))
        losses = gmm.per_sample_losses(net, ds)
        for i in [0, 7, 24]:
            p = nn.forward(net, ds.features[i:i + 1])[0]
            y = np.zeros(3)
            y[ds.labels[i]] = 1.0
            assert losses[i] == pytest.approx(cross_entropy(p, y), abs=1e-12)

    def test_given_probs_match_own_forward(self):
        ds = make_synthetic_dataset("blobs", n=300, classes=5, spread=0.3, seed=3)
        net = nn.init_network([2, 16, 5], seed=(6,))
        given = gmm.per_sample_losses(net, ds, probs=nn.forward(net, ds.features))
        assert given.tobytes() == gmm.per_sample_losses(net, ds).tobytes()

    def test_perfect_net_zero_loss(self):
        ds = make_synthetic_dataset("blobs", n=20, classes=2, spread=0.05, seed=2)
        # logits strongly aligned with the true blob side (centers at +-2 on x)
        net = nn.Network([np.array([[50.0, -50.0], [0.0, 0.0]])], [np.zeros(2)])
        losses = gmm.per_sample_losses(net, ds)
        np.testing.assert_allclose(losses, 0.0, atol=1e-6)


class TestNormalize:
    def test_simple_rescale(self):
        got = gmm.normalize_losses(np.array([0.0, 5.0, 10.0]))
        np.testing.assert_allclose(got, [0.0, 0.5, 1.0])

    def test_constant_maps_to_half(self):
        got = gmm.normalize_losses(np.full(6, 3.3))
        np.testing.assert_allclose(got, 0.5)

    def test_range_is_unit(self):
        rng = np.random.default_rng(0)
        got = gmm.normalize_losses(rng.random(50) * 7 + 2)
        assert got.min() == 0.0
        assert got.max() == 1.0


class TestEmFit:
    def test_recovers_well_separated_mixture(self):
        rng = np.random.default_rng(42)
        params = gmm.fit_gmm_em(two_cluster_losses(rng))
        np.testing.assert_allclose(params.means, [0.1, 0.9], atol=0.01)
        np.testing.assert_allclose(params.weights, [0.5, 0.5], atol=0.05)

    def test_recovery_across_twenty_seeds(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            params = gmm.fit_gmm_em(two_cluster_losses(rng))
            np.testing.assert_allclose(params.means, [0.1, 0.9], atol=0.01)
            np.testing.assert_allclose(params.weights, [0.5, 0.5], atol=0.05)

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(3)
        vals = np.concatenate([rng.normal(0.2, 0.1, 300), rng.normal(0.7, 0.15, 300)])
        params = gmm.fit_gmm_em(np.clip(vals, 0, 1))
        path = np.array(params.log_likelihoods)
        assert len(path) >= 2
        assert (np.diff(path) >= 0).all()

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        vals = two_cluster_losses(rng)
        a = gmm.fit_gmm_em(vals)
        b = gmm.fit_gmm_em(vals)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.variances, b.variances)

    def test_fits_share_no_buffers(self):
        # EM iterates in working arrays of its own: a second fit, of another
        # length, leaves the first fit's parameters as they were
        rng = np.random.default_rng(5)
        a = gmm.fit_gmm_em(two_cluster_losses(rng))
        kept = [a.weights.copy(), a.means.copy(), a.variances.copy(), a.log_likelihoods]
        b = gmm.fit_gmm_em(two_cluster_losses(rng, n_each=300, mu=(0.2, 0.7)))
        assert not a.collapsed and not b.collapsed
        for before, after in zip(kept, (a.weights, a.means, a.variances)):
            assert before.tobytes() == after.tobytes()
        assert a.log_likelihoods == kept[3]
        for field in ("weights", "means", "variances"):
            for other in ("weights", "means", "variances"):
                assert not np.shares_memory(getattr(a, field), getattr(b, other))

    def test_constant_input_collapses(self):
        params = gmm.fit_gmm_em(np.full(10, 0.4))
        assert params.collapsed
        np.testing.assert_array_equal(gmm.clean_posterior(params, np.array([0.4])), [0.5])

    def test_variance_floor_applied(self):
        # near-duplicate low cluster drives its variance to the floor, not below
        vals = np.concatenate([np.full(50, 0.1) + np.linspace(0, 1e-9, 50), np.linspace(0.8, 1.0, 50)])
        params = gmm.fit_gmm_em(vals)
        if not params.collapsed:
            assert (params.variances >= gmm.VAR_FLOOR * (1 - 1e-12)).all()


def reference_fit(x):
    """The EM of ``fit_gmm_em`` at its defaults, with the components along
    axis 1 of ``(n, 2)`` arrays: (weights, means, variances, likelihood
    path, n_iter, collapsed), ordered by mean."""
    def log_normal(v, mean, var):
        return -0.5 * (np.log(2.0 * np.pi * var) + (v - mean) ** 2 / var)

    def comp(weights, means, variances):
        return np.log(weights)[None, :] + log_normal(x[:, None], means[None, :],
                                                     variances[None, :])

    def mean_ll(weights, means, variances):
        c = comp(weights, means, variances)
        hi = c.max(axis=1, keepdims=True)
        return float(np.mean(hi[:, 0] + np.log(np.exp(c - hi).sum(axis=1))))

    def collapsed():
        center = float(np.mean(x))
        return (np.array([0.5, 0.5]), np.array([center, center]),
                np.array([gmm.VAR_FLOOR, gmm.VAR_FLOOR]), (), 0, True)

    if float(x.max() - x.min()) <= 1e-12:
        return collapsed()
    means = np.percentile(x, [10.0, 90.0]).astype(float)
    if means[1] - means[0] <= 1e-12:
        means = np.array([float(x.min()), float(x.max())])
    weights = np.array([0.5, 0.5])
    variances = np.full(2, max(float(np.var(x)), gmm.VAR_FLOOR))
    ll = mean_ll(weights, means, variances)
    path, n_iter = [ll], 0
    for _ in range(100):
        c = comp(weights, means, variances)
        c -= c.max(axis=1, keepdims=True)
        resp = np.exp(c)
        resp /= resp.sum(axis=1, keepdims=True)
        mass = resp.sum(axis=0)
        if (mass / len(x) < gmm.WEIGHT_FLOOR).any():
            return collapsed()
        new_means = (resp * x[:, None]).sum(axis=0) / mass
        new_vars = np.maximum((resp * (x[:, None] - new_means[None, :]) ** 2).sum(axis=0) / mass,
                              gmm.VAR_FLOOR)
        new_weights = mass / len(x)
        new_ll = mean_ll(new_weights, new_means, new_vars)
        if new_ll < ll:
            break
        weights, means, variances = new_weights, new_means, new_vars
        improved, ll = new_ll - ll, new_ll
        path.append(ll)
        n_iter += 1
        if improved < 1e-6:
            break
    order = np.argsort(means)
    return weights[order], means[order], variances[order], tuple(path), n_iter, False


def reference_vectors():
    """240 seeded loss vectors, n from MIN_FIT_SAMPLES to 3000 on a log scale:
    uniform, skewed two-cluster (minority share 1-50%), exponential, and
    min-max normalized cross-entropy-like mixtures."""
    rng = np.random.default_rng(2024)
    sizes = np.geomspace(gmm.MIN_FIT_SAMPLES, 3000, 240).astype(int)
    for i, n in enumerate(sizes):
        kind = i % 4
        if kind == 0:
            x = rng.random(n)
        elif kind == 1:
            k = max(1, int(n * rng.uniform(0.01, 0.5)))
            x = np.concatenate([rng.normal(0.15, 0.05, n - k), rng.normal(0.85, 0.1, k)])
        elif kind == 2:
            x = rng.exponential(rng.uniform(0.1, 3.0), n)
        else:
            clean = rng.exponential(0.05, n)
            noisy = rng.normal(2.5, 0.6, n)
            x = gmm.normalize_losses(
                np.where(rng.random(n) < rng.uniform(0.2, 0.8), noisy, clean))
        yield x


def assert_matches_reference(x):
    want = reference_fit(np.asarray(x, dtype=float))
    got = gmm.fit_gmm_em(x)
    assert got.weights.tobytes() == want[0].tobytes()
    assert got.means.tobytes() == want[1].tobytes()
    assert got.variances.tobytes() == want[2].tobytes()
    assert (got.log_likelihoods, got.n_iter, got.collapsed) == want[3:]
    return got


class TestEmMatchesReference:
    """fit_gmm_em must reproduce the (n, 2) formulation bit for bit, so that
    gmm.jsonl and every split downstream of it stay byte-identical."""

    def test_seeded_vectors(self):
        fits = [assert_matches_reference(x) for x in reference_vectors()]
        assert len(fits) == 240
        assert any(p.n_iter == 100 for p in fits)  # some fits run to the iteration cap

    def test_weight_floor_collapse(self, monkeypatch):
        # raise the floor so a 2% minority cluster's component falls below it
        monkeypatch.setattr(gmm, "WEIGHT_FLOOR", 0.05)
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0.2, 0.05, 980), rng.normal(0.9, 0.02, 20)])
        assert assert_matches_reference(x).collapsed

    def test_variance_floor_rejected_step(self):
        x = np.concatenate([np.full(50, 0.1) + np.linspace(0, 1e-9, 50),
                            np.linspace(0.8, 1.0, 10)])
        got = assert_matches_reference(x)
        # stopped below the cap while still improving by more than tol: a step was rejected
        assert got.n_iter < 100 and got.log_likelihoods[-1] - got.log_likelihoods[-2] >= 1e-6
        assert got.variances[0] == gmm.VAR_FLOOR


def start_vectors():
    """2,000 seeded vectors, n from MIN_FIT_SAMPLES to 5,000: normal, rounded
    to one decimal (ties; at small scales the percentiles fall among 0.0
    and -0.0, which compare equal but differ in their bytes), min-max normalised
    exponential (exact 0 and 1) and normalised rounded; every fifth has a
    length at which (n - 1) * 0.1 is a whole number, so numpy's 10th
    percentile is an order statistic."""
    rng = np.random.default_rng(29)
    whole = [n for n in range(gmm.MIN_FIT_SAMPLES, 5001) if ((n - 1) * 0.1).is_integer()]
    for i in range(2000):
        n = int(rng.choice(whole) if i % 5 == 0 else rng.integers(gmm.MIN_FIT_SAMPLES, 5001))
        kind = i % 4
        if kind == 0:
            x = rng.normal(0.0, rng.uniform(0.01, 10.0), n)
        elif kind == 1:
            x = np.round(rng.normal(0.0, 10 ** rng.uniform(-2.5, 0.5), n), 1)
        elif kind == 2:
            x = gmm.normalize_losses(rng.exponential(rng.uniform(0.1, 3.0), n))
        else:
            x = gmm.normalize_losses(np.round(rng.exponential(1.0, n), 1))
        yield x


def test_start_means_are_np_percentile_bit_for_bit():
    count = 0
    for x in start_vectors():
        before = x.copy()
        assert gmm.percentiles_10_90(x).tobytes() == np.percentile(x, [10.0, 90.0]).tobytes()
        assert x.tobytes() == before.tobytes()  # the losses are not reordered
        count += 1
    assert count == 2000


class TestCleanPosterior:
    def _sym_params(self, var=0.04):
        return gmm.GmmParams(weights=np.array([0.5, 0.5]), means=np.array([0.1, 0.9]),
                             variances=np.array([var, var]))

    def test_midpoint_is_half(self):
        post, = gmm.clean_posterior(self._sym_params(), np.array([0.5]))
        assert post == pytest.approx(0.5, abs=1e-12)

    def test_near_clean_mean_is_confident(self):
        p = self._sym_params()
        post, = gmm.clean_posterior(p, np.array([0.1]))
        assert post > 0.999
        # independent density-ratio evaluation
        d0 = math.exp(-0.0 / (2 * 0.04))
        d1 = math.exp(-(0.1 - 0.9) ** 2 / (2 * 0.04))
        assert post == pytest.approx(d0 / (d0 + d1), abs=1e-12)

    def test_monotone_in_loss_for_equal_variances(self):
        p = self._sym_params()
        grid = np.linspace(-0.5, 1.5, 101)
        post = gmm.clean_posterior(p, grid)
        assert (np.diff(post) <= 1e-15).all()
        assert ((post >= 0) & (post <= 1)).all()

    def test_matches_independent_responsibility(self):
        rng = np.random.default_rng(5)
        params = gmm.fit_gmm_em(two_cluster_losses(rng, sigma=0.1))
        xs = rng.random(20)
        got = gmm.clean_posterior(params, xs)
        dens = np.stack([
            params.weights[c] / np.sqrt(2 * np.pi * params.variances[c])
            * np.exp(-(xs - params.means[c]) ** 2 / (2 * params.variances[c]))
            for c in range(2)
        ])
        want = dens[0] / dens.sum(axis=0)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_collapsed_returns_half_everywhere(self):
        params = gmm.fit_gmm_em(np.full(8, 1.0))
        np.testing.assert_array_equal(gmm.clean_posterior(params, np.array([0.3])), [0.5])
        np.testing.assert_array_equal(gmm.clean_posterior(params, np.array([0.1, 0.9])), [0.5, 0.5])


def test_gmm_record_is_json_friendly():
    import json
    rng = np.random.default_rng(1)
    params = gmm.fit_gmm_em(two_cluster_losses(rng))
    row = gmm.gmm_record(params, epoch=3, model_tag="model1")
    assert row["epoch"] == 3
    json.dumps(row)
