import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from longremix import nn  # noqa: E402


def flatten_params(net):
    return net.params.copy()


def set_params(net, theta):
    # write through the buffer: rebinding net.weights[k] would detach the views
    net.params[:] = theta
    return net


def flatten_grads(grads):
    return grads.copy()


def fd_gradient(net, batch, loss, h=1e-5):
    """Central finite differences of the mean batch loss, parameter by parameter."""
    theta = flatten_params(net)
    out = np.zeros_like(theta)
    work = net.copy()
    for i in range(theta.size):
        tp = theta.copy()
        tp[i] += h
        set_params(work, tp)
        lp = nn.batch_loss(work, batch, loss)
        tm = theta.copy()
        tm[i] -= h
        set_params(work, tm)
        lm = nn.batch_loss(work, batch, loss)
        out[i] = (lp - lm) / (2 * h)
    return out


def max_rel_err(a, b, floor=1e-4):
    """Worst-case relative error with an absolute floor for near-zero entries."""
    a = np.asarray(a)
    b = np.asarray(b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def random_net(rng, n_in=None, n_out=None, max_hidden=2):
    n_in = n_in or int(rng.integers(2, 5))
    n_out = n_out or int(rng.integers(2, 5))
    sizes = [n_in] + [int(rng.integers(3, 8)) for _ in range(int(rng.integers(1, max_hidden + 1)))] + [n_out]
    net = nn.init_network(sizes, seed=int(rng.integers(0, 2**31)))
    # non-zero biases so bias gradients are exercised away from the origin
    for b in net.biases:
        b[:] = rng.normal(scale=0.3, size=b.shape)
    return net


def random_soft_labels(rng, n, c):
    raw = rng.random((n, c))
    return raw / raw.sum(axis=1, keepdims=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
