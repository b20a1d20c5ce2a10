import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# longremix before numpy: its one-thread BLAS default only takes effect if
# set before numpy loads, and the pair's forked workers need it
from longremix import nn  # noqa: E402
from longremix.errors import ParseError  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402


# -- reference losses ----------------------------------------------------------
# The package defines the loss only through its gradient, nn.backward; these
# are the loss values that the gradient tests difference and compare against.

def cross_entropy(p, y):
    """-sum(y * log p), clamped at 1e-12; per row for 2-D inputs."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {y.shape}")
    val = -(y * np.log(np.maximum(p, nn.LOG_EPS))).sum(axis=-1)
    return float(val) if p.ndim == 1 else val


def squared_error(p, y):
    """Squared Euclidean distance; per row for 2-D inputs."""
    p = np.asarray(p, dtype=float)
    y = np.asarray(y, dtype=float)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {y.shape}")
    val = ((p - y) ** 2).sum(axis=-1)
    return float(val) if p.ndim == 1 else val


def uniform_kl(mean_pred):
    """KL(uniform || mean prediction), the mean clamped at 1e-12."""
    c = mean_pred.shape[0]
    pi = 1.0 / c
    return float(pi * (np.log(pi) - np.log(np.maximum(mean_pred, nn.LOG_EPS))).sum())


def batch_loss(net, batch, loss) -> float:
    """Scalar mean loss over a batch: the value nn.backward() differentiates.

    ``loss`` is an ``nn.TotalLoss`` and ``batch`` is
    ``((x_feat, x_tgt), (u_feat, u_tgt))``, where the unlabelled pair may be
    empty.
    """
    (xf, xt), (uf, ut) = batch
    px = nn.forward(net, xf)
    value = float(np.mean(cross_entropy(px, xt)))
    preds = px
    if len(uf):
        pu = nn.forward(net, uf)
        value += loss.lambda_u * float(np.mean(squared_error(pu, ut)))
        preds = np.vstack([px, pu])
    value += loss.lambda_reg * uniform_kl(preds.mean(axis=0))
    return value


# -- checkpoint reader -----------------------------------------------------------

def load_checkpoint(path):
    """The network a file in nn.checkpoint_text's format holds."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ParseError("empty checkpoint file", row=1)
    head = lines[0].split()
    if len(head) != 2 or head[0] != nn.CHECKPOINT_MAGIC:
        raise ParseError("not a checkpoint file", row=1)
    if int(head[1]) != nn.CHECKPOINT_VERSION:
        raise ParseError(f"unsupported checkpoint version {head[1]}", row=1)
    tag = lines[1].split(" ", 1)[1]
    sizes = [int(s) for s in lines[2].split()[1:]]
    weights, biases = [], []
    pos = 3
    for k, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        if lines[pos] != f"layer {k}":
            raise ParseError(f"expected 'layer {k}'", row=pos + 1)
        pos += 1
        rows = []
        for _ in range(fan_in):
            rows.append([float(v) for v in lines[pos].split()])
            pos += 1
        w = np.array(rows)
        if w.shape != (fan_in, fan_out):
            raise ParseError(f"layer {k} shape mismatch", row=pos)
        b = np.array([float(v) for v in lines[pos].split()])
        pos += 1
        if b.shape != (fan_out,):
            raise ParseError(f"layer {k} bias shape mismatch", row=pos)
        weights.append(w)
        biases.append(b)
    return nn.Network(weights, biases, tag)


def serialize_flat(mapping) -> str:
    """A config file's text from a flat ``key -> value`` mapping."""
    return "\n".join(f"{k} = {v}" for k, v in mapping.items()) + "\n"


# -- network helpers --------------------------------------------------------------


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
    work = nn.Network(net.weights, net.biases, net.tag)
    for i in range(theta.size):
        tp = theta.copy()
        tp[i] += h
        set_params(work, tp)
        lp = batch_loss(work, batch, loss)
        tm = theta.copy()
        tm[i] -= h
        set_params(work, tm)
        lm = batch_loss(work, batch, loss)
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
    net = nn.init_network(sizes, seed=(int(rng.integers(0, 2**31)),))
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
