"""Small dense feed-forward classifier with hand-coded gradients.

ReLU hidden layers, softmax output, momentum SGD. No autodiff: every
gradient is an explicit expression, validated against central finite
differences in the test suite. Two instances of :class:`Network` (tagged
``model1`` / ``model2``) form the co-trained pair used by the trainer.

Each net's parameters are one contiguous float64 vector ``params``
(``w0, b0, w1, b1, ...``); ``weights[k]`` and ``biases[k]`` are views into
it. Each net also owns its gradient buffer ``grads``, with views
``d_weights[k]`` and ``d_biases[k]``: :func:`backward` overwrites and
returns it, so its gradients are valid until the next ``backward`` on that
net. Gradients and the momentum buffer share the parameter layout, so an
SGD step and a finiteness check are whole-vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import NET_INIT, derive_rng

LOG_EPS = 1e-12  # clamp inside log() so confident wrong predictions stay finite

CHECKPOINT_MAGIC = "longremix-checkpoint"
CHECKPOINT_VERSION = 1


def _layer_views(flat, layer_sizes):
    """Per-layer ``(fan_in, fan_out)`` weight and ``(fan_out,)`` bias views
    into ``flat``, in the order ``w0, b0, w1, b1, ...``."""
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(flat[pos:pos + fan_out])
        pos += fan_out
    return weights, biases


class Network:
    """Dense layers over one parameter vector; ``weights[k]`` has shape
    (fan_in, fan_out). Building from per-layer arrays copies them in."""

    def __init__(self, weights, biases, tag="model1"):
        if not weights:
            raise ValueError("network needs at least one layer")
        for k in range(len(weights) - 1):
            if weights[k].shape[1] != weights[k + 1].shape[0]:
                raise ValueError(
                    f"layer {k} output width {weights[k].shape[1]} does not "
                    f"match layer {k + 1} input width {weights[k + 1].shape[0]}"
                )
        for k, (w, b) in enumerate(zip(weights, biases)):
            if b.shape != (w.shape[1],):
                raise ValueError(f"bias {k} shape {b.shape} != ({w.shape[1]},)")
        self.layer_sizes = (weights[0].shape[0],) + tuple(w.shape[1] for w in weights)
        self.params = np.concatenate(
            [np.ravel(a) for pair in zip(weights, biases) for a in pair]).astype(float, copy=False)
        self.weights, self.biases = _layer_views(self.params, self.layer_sizes)
        self.grads = np.zeros_like(self.params)
        self.d_weights, self.d_biases = _layer_views(self.grads, self.layer_sizes)
        self.tag = tag

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]


@dataclass(frozen=True)
class TotalLoss:
    """The one training loss: mean CE on the labelled half, weighted mean
    squared error on the unlabelled half, plus a uniform-prior KL penalty on
    the mean prediction of both halves. Plain cross-entropy is
    ``TotalLoss(0, 0)`` over an empty unlabelled half."""

    lambda_u: float
    lambda_reg: float


@dataclass
class OptimizerState:
    velocity: np.ndarray  # laid out like Network.params
    work: np.ndarray      # sgd_step's work vector, same layout
    lr: float
    momentum: float
    weight_decay: float


def init_network(layer_sizes, seed, tag="model1") -> Network:
    """Glorot-uniform weights (range +-sqrt(6/(fan_in+fan_out))), zero biases,
    drawn from the stream of the ``seed`` key tuple."""
    rng = derive_rng(*seed, NET_INIT)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        try:
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        except ValueError as exc:  # numpy's size error: more bytes than an array may hold
            raise MemoryError(exc) from None
        biases.append(np.zeros(fan_out))
    return Network(weights, biases, tag)


def _forward_cached(net: Network, x):
    """Every layer's activation, input first and class probabilities last;
    bias, ReLU and softmax run in place on each layer's matmul output."""
    acts = [x]
    last = len(net.weights) - 1
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = acts[k] @ w
        z += b
        if k == last:
            z -= z.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=1, keepdims=True)
        else:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def forward(net: Network, x) -> np.ndarray:
    """Class probabilities, one row per row of the ``(n, width)`` batch ``x``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ValueError(f"input must be (n, {net.input_dim}), rows of the network's "
                         f"input width; got shape {x.shape}")
    return _forward_cached(net, x)[-1]


def _mean_ce_grad(p, targets):
    """Mean cross-entropy gradient at the softmax input, in place over ``p``."""
    p *= targets.sum(axis=1, keepdims=True)
    p -= targets
    p /= len(p)
    return p


def _softmax_vjp(p, g):
    # d(loss)/dz given d(loss)/dp, for z the softmax input; overwrites g
    g -= (g * p).sum(axis=1, keepdims=True)
    g *= p
    return g


def _backprop(net: Network, acts, dz) -> np.ndarray:
    g = dz  # every gradient element is written below
    for k in reversed(range(len(net.weights))):
        np.matmul(acts[k].T, g, out=net.d_weights[k])
        g.sum(axis=0, out=net.d_biases[k])
        if k > 0:
            g = g @ net.weights[k].T
            g *= acts[k] > 0  # a ReLU output is positive exactly where its input is
    return net.grads


def backward(net: Network, batch, loss: TotalLoss) -> np.ndarray:
    """Gradients of the mean ``loss`` over ``batch``, a ``((X features, X
    targets), (U features, U targets))`` pair of 2-D float arrays whose U
    half may be empty, for every parameter, in ``net.grads``: the net's own
    buffer, returned and valid until the next ``backward`` on that net."""
    (xf, xt), (uf, ut) = batch
    n_x, n_u = len(xf), len(uf)
    if n_x == 0:
        raise ValueError("the loss needs a non-empty labelled batch")
    acts = _forward_cached(net, np.vstack([xf, uf]) if n_u else xf)
    p = acts[-1]
    if not n_u and loss.lambda_reg == 0.0:
        # cross-entropy alone, whose other terms would all be zero; in place,
        # as below: _backprop reads no class probabilities
        return _backprop(net, acts, _mean_ce_grad(p, xt))

    # dL/dp: weighted mean squared error on the unlabelled rows ...
    g = np.zeros_like(p)
    if n_u:
        gu = np.subtract(p[n_x:], ut, out=g[n_x:])
        gu *= 2.0 * loss.lambda_u / n_u

    # ... plus KL(uniform || mean prediction), the same row for every sample
    if loss.lambda_reg != 0.0:
        m = p.mean(axis=0)
        g += np.where(m > LOG_EPS, -loss.lambda_reg / (
            p.shape[1] * p.shape[0] * np.maximum(m, LOG_EPS)), 0.0)
    g = _softmax_vjp(p, g)

    # dz, in place over p: mean cross-entropy in direct output-layer form on the
    # labelled rows, zero on the unlabelled ones, plus the softmax term
    _mean_ce_grad(p[:n_x], xt)
    p[n_x:] = 0.0
    p += g
    return _backprop(net, acts, p)


def init_optimizer(net: Network, lr, momentum, weight_decay) -> OptimizerState:
    return OptimizerState(velocity=np.zeros_like(net.params), work=np.empty_like(net.params),
                          lr=lr, momentum=momentum, weight_decay=weight_decay)


def sgd_step(net: Network, grads: np.ndarray, state: OptimizerState) -> Network:
    """Momentum SGD with decoupled-from-schedule lr; updates ``net`` in place."""
    step = np.multiply(net.params, state.weight_decay, out=state.work)
    step += grads  # grads + weight_decay * params
    state.velocity *= state.momentum
    state.velocity += step
    net.params -= np.multiply(state.velocity, state.lr, out=step)
    return net


def checkpoint_text(net: Network) -> str:
    """Textual parameter file: versioned header, layer shapes, row-major values."""
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}",
             f"tag {net.tag}",
             "sizes " + " ".join(str(s) for s in net.layer_sizes)]
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"layer {k}")
        for row in w:
            lines.append(" ".join(format(v, ".17g") for v in row))
        lines.append(" ".join(format(v, ".17g") for v in b))
    return "\n".join(lines) + "\n"
