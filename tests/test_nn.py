import math

import numpy as np
import pytest

from longremix import nn, trainer
from longremix.errors import StateError
from longremix.errors import ParseError
from conftest import (cross_entropy, fd_gradient, flatten_grads, load_checkpoint, max_rel_err,
                      random_net, random_soft_labels, squared_error)


def one_hot(idx, c):
    y = np.zeros(c)
    y[idx] = 1.0
    return y


CROSS_ENTROPY = nn.TotalLoss(lambda_u=0.0, lambda_reg=0.0)


def labelled(x, y):
    """A batch of ``x`` and its targets ``y`` with an empty U half."""
    return (x, y), (x[:0], y[:0])


class TestForward:
    def test_zero_weight_net_is_uniform(self):
        net = nn.Network([np.zeros((3, 4))], [np.zeros(4)])
        p = nn.forward(net, np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_allclose(p, np.full((1, 4), 0.25), atol=1e-12)

    def test_large_margin_favors_class(self):
        # logits (6, 0) for x = (1, 0): p0 = 1/(1+e^-6), hand-computed
        net = nn.Network([np.array([[6.0, 0.0], [0.0, 0.0]])], [np.zeros(2)])
        p = nn.forward(net, np.array([[1.0, 0.0]]))[0]
        assert p[0] > 0.99
        assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-6.0)), abs=1e-12)

    def test_output_normalized(self, rng):
        for _ in range(20):
            net = random_net(rng)
            x = rng.normal(size=(7, net.input_dim))
            p = nn.forward(net, x)
            assert (p >= 0).all()
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        net = nn.init_network([3, 4, 2], seed=(0,))
        with pytest.raises(ValueError, match="width"):
            nn.forward(net, np.zeros((1, 5)))
        # a batch is (n, width): a single vector, even of the right width, is not one
        for x in (np.zeros(5), np.zeros(3), np.zeros((1, 1, 3))):
            with pytest.raises(ValueError, match=r"\(n, 3\)"):
                nn.forward(net, x)

    def test_deterministic(self):
        net = nn.init_network([2, 8, 3], seed=(5,))
        x = np.array([[0.3, -1.2]])
        np.testing.assert_array_equal(nn.forward(net, x), nn.forward(net, x))

    def test_layer_shape_composition_enforced(self):
        with pytest.raises(ValueError, match="width"):
            nn.Network([np.zeros((2, 3)), np.zeros((4, 2))], [np.zeros(3), np.zeros(2)])


class TestLosses:
    def test_ce_exact_hit_is_zero(self):
        y = one_hot(1, 3)
        assert cross_entropy(y, y) == pytest.approx(0.0, abs=1e-12)

    def test_ce_uniform_ten_classes(self):
        p = np.full(10, 0.1)
        assert cross_entropy(p, one_hot(4, 10)) == pytest.approx(math.log(10), abs=1e-12)

    def test_ce_hand_value(self):
        # -ln 0.7 = 0.35667494393873245
        assert cross_entropy(np.array([0.7, 0.3]), np.array([1.0, 0.0])) == pytest.approx(
            0.356675, abs=1e-6)

    def test_ce_clamps_zero_probability(self):
        val = cross_entropy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        assert np.isfinite(val)
        assert val == pytest.approx(-math.log(1e-12))

    def test_se_identity_zero(self):
        p = np.array([0.2, 0.8])
        assert squared_error(p, p) == 0.0

    def test_se_disjoint_onehots(self):
        assert squared_error(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(2.0)

    def test_se_hand_value(self):
        assert squared_error(np.array([0.6, 0.4]), np.array([0.5, 0.5])) == pytest.approx(0.02)

    def test_rowwise_variants(self):
        p = np.array([[0.7, 0.3], [0.5, 0.5]])
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        ce = cross_entropy(p, y)
        assert ce.shape == (2,)
        assert ce[0] == pytest.approx(-math.log(0.7))


class TestBackward:
    def test_zero_gradient_at_exact_fit(self):
        # every term is minimized when the outputs equal the targets and
        # their mean is uniform
        net = nn.Network([np.zeros((2, 3))], [np.zeros(3)])
        x = np.array([[0.5, -0.5], [1.0, 2.0]])
        y = np.full((2, 3), 1.0 / 3.0)
        spec = nn.TotalLoss(lambda_u=25.0, lambda_reg=1.0)
        grads = nn.backward(net, ((x, y), (x[::-1], y)), spec)
        np.testing.assert_allclose(grads, 0.0, atol=1e-15)

    def test_total_loss_matches_finite_differences(self, rng):
        for lam_u, lam_reg in [(25.0, 1.0), (0.0, 1.0), (25.0, 0.0), (3.5, 0.7)]:
            net = random_net(rng)
            xf = rng.normal(size=(4, net.input_dim))
            xt = random_soft_labels(rng, 4, net.layer_sizes[-1])
            uf = rng.normal(size=(6, net.input_dim))
            ut = random_soft_labels(rng, 6, net.layer_sizes[-1])
            batch = ((xf, xt), (uf, ut))
            spec = nn.TotalLoss(lambda_u=lam_u, lambda_reg=lam_reg)
            got = flatten_grads(nn.backward(net, batch, spec))
            want = fd_gradient(net, batch, spec)
            assert max_rel_err(got, want) < 1e-5

    def test_total_loss_empty_unlabelled(self, rng):
        net = random_net(rng)
        xf = rng.normal(size=(4, net.input_dim))
        xt = random_soft_labels(rng, 4, net.layer_sizes[-1])
        batch = ((xf, xt), (np.empty((0, net.input_dim)), np.empty((0, net.layer_sizes[-1]))))
        spec = nn.TotalLoss(lambda_u=25.0, lambda_reg=1.0)
        got = flatten_grads(nn.backward(net, batch, spec))
        want = fd_gradient(net, batch, spec)
        assert max_rel_err(got, want) < 1e-5

    def test_duplicated_batch_same_gradient(self, rng):
        # the loss is a mean over each half: both halves twice give the same gradient
        net = random_net(rng)
        x = rng.normal(size=(3, net.input_dim))
        y = random_soft_labels(rng, 3, net.layer_sizes[-1])
        for loss, n_u in [(CROSS_ENTROPY, 0), (nn.TotalLoss(lambda_u=10.0, lambda_reg=1.0), 2)]:
            halves = ((x, y), (x[:n_u] + 1.0, y[::-1][:n_u]))
            twice = tuple((np.vstack([f, f]), np.vstack([t, t])) for f, t in halves)
            g1 = flatten_grads(nn.backward(net, halves, loss))
            g2 = flatten_grads(nn.backward(net, twice, loss))
            np.testing.assert_allclose(g1, g2, atol=1e-12)


class TestSgdStep:
    def _scalar_net(self, w0):
        return nn.Network([np.array([[w0]])], [np.zeros(1)])

    def _grad(self, net, g):
        grads = np.zeros_like(net.params)
        grads[0] = g  # weights[0][0, 0]
        return grads

    def test_zero_gradient_no_change(self):
        net = self._scalar_net(1.5)
        state = nn.init_optimizer(net, lr=0.1, momentum=0.9, weight_decay=0.0)
        nn.sgd_step(net, self._grad(net, 0.0), state)
        assert net.weights[0][0, 0] == 1.5

    def test_plain_step(self):
        net = self._scalar_net(1.0)
        state = nn.init_optimizer(net, lr=0.1, momentum=0.0, weight_decay=0.0)
        nn.sgd_step(net, self._grad(net, 1.0), state)
        assert net.weights[0][0, 0] == pytest.approx(0.9)

    def test_two_momentum_steps(self):
        # buffers: 1 then 1.8; steps: -0.1 then -0.18 -> w2 = -0.28
        net = self._scalar_net(0.0)
        state = nn.init_optimizer(net, lr=0.1, momentum=0.8, weight_decay=0.0)
        nn.sgd_step(net, self._grad(net, 1.0), state)
        nn.sgd_step(net, self._grad(net, 1.0), state)
        assert net.weights[0][0, 0] == pytest.approx(-0.28)

    def test_weight_decay_pulls_to_zero(self):
        net = self._scalar_net(1.0)
        state = nn.init_optimizer(net, lr=0.1, momentum=0.0, weight_decay=0.5)
        nn.sgd_step(net, self._grad(net, 0.0), state)
        assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_momentum_buffer_shapes(self):
        net = nn.init_network([3, 5, 2], seed=(1,))
        state = nn.init_optimizer(net, lr=0.1, momentum=0.8, weight_decay=0.0)
        assert state.velocity.shape == net.params.shape == (3 * 5 + 5 + 5 * 2 + 2,)
        assert not state.velocity.any()
        assert not np.shares_memory(state.velocity, net.params)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        net = random_net(rng)
        net.tag = "model2"
        path = tmp_path / "net.ckpt"
        path.write_text(nn.checkpoint_text(net))
        back = load_checkpoint(path)
        assert back.tag == "model2"
        assert back.layer_sizes == net.layer_sizes
        for a, b in zip(net.weights, back.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(net.biases, back.biases):
            np.testing.assert_array_equal(a, b)

    def test_version_field_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("longremix-checkpoint 99\ntag x\nsizes 1 1\n")
        with pytest.raises(ParseError, match="version"):
            load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello world\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)


def test_seeded_init_is_reproducible():
    a = nn.init_network([4, 8, 3], seed=(42,))
    b = nn.init_network([4, 8, 3], seed=(42,))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = nn.init_network([4, 8, 3], seed=(43,))
    assert any((wa != wc).any() for wa, wc in zip(a.weights, c.weights))


class TestParameterBuffer:
    def test_params_writes_show_through_views(self):
        net = nn.init_network([3, 5, 2], seed=(1,))
        net.params[:] = np.arange(net.params.size, dtype=float)
        np.testing.assert_array_equal(net.weights[0], np.arange(15.0).reshape(3, 5))
        np.testing.assert_array_equal(net.biases[0], np.arange(15.0, 20.0))
        np.testing.assert_array_equal(net.weights[1], np.arange(20.0, 30.0).reshape(5, 2))
        np.testing.assert_array_equal(net.biases[1], np.arange(30.0, 32.0))
        net.biases[1][0] = -1.0
        assert net.params[30] == -1.0

    def test_construction_copies_layers_in(self):
        w, b = np.ones((2, 3)), np.zeros(3)
        net = nn.Network([w], [b])
        assert not np.shares_memory(net.params, w)
        assert net.params.dtype == np.float64 and net.params.flags.c_contiguous

    def test_copy_shares_no_memory(self, rng):
        net = random_net(rng, max_hidden=3)
        twin = nn.Network(net.weights, net.biases, net.tag)
        assert twin.params.tobytes() == net.params.tobytes()
        assert not np.shares_memory(twin.params, net.params)
        twin.params[:] = 0.0
        assert all(np.shares_memory(w, twin.params) for w in twin.weights + twin.biases)
        assert net.params.any()

    def test_checkpoint_restores_params(self, tmp_path, rng):
        net = random_net(rng, max_hidden=3)
        (tmp_path / "net.ckpt").write_text(nn.checkpoint_text(net))
        assert load_checkpoint(tmp_path / "net.ckpt").params.tobytes() == net.params.tobytes()

    def test_backward_writes_the_nets_own_buffer(self, rng):
        net = random_net(rng)
        twin = nn.Network(net.weights, net.biases, net.tag)
        other = random_net(rng, n_in=net.input_dim, n_out=net.layer_sizes[-1])
        x = rng.normal(size=(6, net.input_dim))
        y = random_soft_labels(rng, 6, net.layer_sizes[-1])
        spec = nn.TotalLoss(lambda_u=10.0, lambda_reg=1.0)
        assert nn.backward(net, ((x, y), (x[:2], y[:2])), spec) is net.grads
        grads = nn.backward(net, labelled(x, y), CROSS_ENTROPY)
        assert grads is net.grads
        assert all(np.shares_memory(g, grads) for g in net.d_weights + net.d_biases)
        assert not np.shares_memory(grads, net.params)
        kept = grads.tobytes()
        nn.sgd_step(net, grads, nn.init_optimizer(net, lr=0.1, momentum=0.8, weight_decay=5e-4))
        assert grads.tobytes() == kept
        for peer in (twin, other):
            peer_grads = nn.backward(peer, labelled(x[1:], y[1:]), CROSS_ENTROPY)
            assert peer_grads is peer.grads and peer_grads.tobytes() != kept
            assert not np.shares_memory(peer_grads, grads)
        assert grads.tobytes() == kept

    def test_backward_overwrites_every_gradient(self, rng):
        net = random_net(rng)
        twin = nn.Network(net.weights, net.biases, net.tag)
        x = rng.normal(size=(5, net.input_dim))
        y = random_soft_labels(rng, 5, net.layer_sizes[-1])
        net.grads[:] = np.nan
        got = nn.backward(net, labelled(x, y), CROSS_ENTROPY)
        assert got.tobytes() == nn.backward(twin, labelled(x, y), CROSS_ENTROPY).tobytes()

    def test_nan_in_last_bias_is_caught(self):
        net = nn.init_network([3, 5, 2], seed=(1,))
        trainer._require_finite(net, "baseline", "train", 1)
        net.biases[-1][-1] = np.nan
        assert np.isnan(net.params[-1])
        with pytest.raises(StateError, match="non-finite parameters in model1"):
            trainer._require_finite(net, "baseline", "train", 1)


def reference_step(weights, biases, velocity, batch, loss, lr, momentum, weight_decay):
    """One backward + momentum SGD step on per-layer arrays: the forward,
    gradient and update expressions of ``nn``, layer by layer with fresh
    arrays. Updates the lists in place; returns the per-layer gradients."""
    def forward(x):
        acts, pres, a = [x], [], x
        for k, (w, b) in enumerate(zip(weights, biases)):
            z = a @ w + b
            pres.append(z)
            if k == len(weights) - 1:
                z = z - z.max(axis=1, keepdims=True)
                e = np.exp(z)
                a = e / e.sum(axis=1, keepdims=True)
            else:
                a = np.maximum(z, 0.0)
            acts.append(a)
        return acts, pres, acts[-1]

    def softmax_vjp(p, g):
        return p * (g - (g * p).sum(axis=1, keepdims=True))

    (xf, xt), (uf, ut) = batch
    n_x, n_u = len(xf), len(uf)
    acts, pres, p = forward(np.vstack([xf, uf]) if n_u else xf)
    px, pu = p[:n_x], p[n_x:]
    dz = np.empty_like(p)
    dz[:n_x] = (px * xt.sum(axis=1, keepdims=True) - xt) / n_x
    g = np.zeros_like(p)
    if n_u:
        g[n_x:] = (2.0 * loss.lambda_u / n_u) * (pu - ut)
        dz[n_x:] = 0.0
    if loss.lambda_reg != 0.0:
        m = p.mean(axis=0)
        g += np.where(m > nn.LOG_EPS, -loss.lambda_reg / (
            p.shape[1] * p.shape[0] * np.maximum(m, nn.LOG_EPS)), 0.0)
    dz += softmax_vjp(p, g)

    d_w, d_b = [None] * len(weights), [None] * len(weights)
    g = dz
    for k in reversed(range(len(weights))):
        d_w[k] = acts[k].T @ g
        d_b[k] = g.sum(axis=0)
        if k > 0:
            g = (g @ weights[k].T) * (pres[k - 1] > 0)

    for k in range(len(weights)):
        gw = d_w[k] + weight_decay * weights[k]
        gb = d_b[k] + weight_decay * biases[k]
        velocity[2 * k] = momentum * velocity[2 * k] + gw
        velocity[2 * k + 1] = momentum * velocity[2 * k + 1] + gb
        weights[k] -= lr * velocity[2 * k]
        biases[k] -= lr * velocity[2 * k + 1]
    return [a for pair in zip(d_w, d_b) for a in pair]


def row_slice(rng, a):
    """``a`` copied into the middle of a larger C-contiguous array and
    returned as a row slice of it, the layout of the trainer's batches."""
    before, after = int(rng.integers(0, 65)), int(rng.integers(0, 65))
    big = rng.normal(size=(before + len(a) + after, a.shape[1]))
    big[before:before + len(a)] = a
    return big[before:before + len(a)]


def flat_bytes(arrays):
    return np.concatenate([a.ravel() for a in arrays]).tobytes()


# case -> (loss, whether its batches have a U half)
LOSS_CASES = {
    "cross_entropy": (CROSS_ENTROPY, False),
    "total_no_reg": (nn.TotalLoss(lambda_u=25.0, lambda_reg=0.0), True),
    "total_reg": (nn.TotalLoss(lambda_u=10.0, lambda_reg=1.0), True),
    "total_empty_u": (nn.TotalLoss(lambda_u=10.0, lambda_reg=1.0), False),
}


class TestTrainingStepMatchesReference:
    """50 consecutive backward + sgd_step calls on the parameter buffer must
    reproduce the per-layer reference bit for bit: parameters, gradients and
    momentum buffer. The trainer hands ``backward`` row slices of larger
    arrays, so every case also runs on such slices, the reference on fresh
    arrays."""

    @pytest.mark.parametrize("case", list(LOSS_CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_fifty_steps(self, case, seed):
        self._fifty_steps(case, seed, sliced=False)

    @pytest.mark.parametrize("case", list(LOSS_CASES))
    @pytest.mark.parametrize("seed", range(3))
    def test_fifty_steps_on_row_slices(self, case, seed):
        self._fifty_steps(case, seed, sliced=True)

    def _fifty_steps(self, case, seed, sliced):
        loss, has_u = LOSS_CASES[case]
        rng = np.random.default_rng([seed, len(case)])
        n_hidden = seed + 1
        sizes = ([int(rng.integers(2, 6))] + [int(rng.integers(3, 65)) for _ in range(n_hidden)]
                 + [int(rng.integers(2, 17))])
        net = nn.init_network(sizes, seed=(seed,))
        for b in net.biases:
            b[:] = rng.normal(scale=0.3, size=b.shape)
        ref_w = [w.copy() for w in net.weights]
        ref_b = [b.copy() for b in net.biases]
        ref_v = [np.zeros_like(a) for pair in zip(ref_w, ref_b) for a in pair]
        lr, momentum, wd = float(rng.uniform(0.01, 0.1)), 0.8, 5e-4
        state = nn.init_optimizer(net, lr, momentum, wd)
        c = sizes[-1]
        for _ in range(50):
            n = int(rng.integers(1, 129))
            x = rng.normal(size=(n, sizes[0]))
            y = random_soft_labels(rng, n, c)
            n_u = int(rng.integers(1, 129)) if has_u else 0
            batch = ((x, y), (rng.normal(size=(n_u, sizes[0])), random_soft_labels(rng, n_u, c)))
            want = reference_step(ref_w, ref_b, ref_v, batch, loss, lr, momentum, wd)
            if sliced:
                batch = tuple(tuple(row_slice(rng, a) for a in pair) for pair in batch)
            grads = nn.backward(net, batch, loss)
            nn.sgd_step(net, grads, state)
            assert grads.tobytes() == flat_bytes(want)
            assert state.velocity.tobytes() == flat_bytes(ref_v)
            assert net.params.tobytes() == flat_bytes(
                [a for pair in zip(ref_w, ref_b) for a in pair])
