"""Per-sample losses and the two-component 1-D Gaussian mixture over them.

The posterior responsibility of the smaller-mean component is the
probability that a training sample is clean. EM is initialized from the
10th/90th loss percentiles so the component identities stay stable from
epoch to epoch (no label switching), which makes the fit deterministic.
``percentiles_10_90`` takes them from one partition, bit for bit what
``np.percentile`` returns: that calls ``np.ma.is_masked``, and loading
``numpy.ma`` on a run's first fit cost about 13 ms and 1.3 MB.

The fit is also byte-stable. Each EM iteration evaluates the component
log-densities once, in working arrays allocated once per fit, and the
M-step sums over samples run in sample order, as a reduce over the samples
axis of an ``(n, 2)`` array does; a plain 1-D ``np.sum`` adds pairwise and
rounds differently. Holding the order fixed
keeps the fitted parameters, ``gmm.jsonl`` and every split downstream the
same bit for bit whichever layout the arrays take.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import LOG_EPS, Network, forward

VAR_FLOOR = 1e-6
EM_TOL = 1e-6       # EM stops once a step raises the mean log-likelihood by less
EM_MAX_ITER = 100   # ... or after this many accepted steps
MIN_FIT_SAMPLES = 4  # fewest training rows of a run that fits the mixture, per data.training_sets
WEIGHT_FLOOR = 1e-8


@dataclass(frozen=True)
class GmmParams:
    weights: np.ndarray    # (2,), sum 1
    means: np.ndarray      # (2,), clean (smaller-mean) component first
    variances: np.ndarray  # (2,), floored
    collapsed: bool = False
    log_likelihoods: tuple = ()  # mean log-likelihood after each accepted step
    n_iter: int = 0

    def __post_init__(self):
        if self.collapsed:
            return
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("mixture weights must sum to 1")
        if not ((self.weights > 0) & (self.weights < 1)).all():
            raise ValueError("mixture weights must lie in (0, 1)")
        if (self.variances < VAR_FLOOR * (1 - 1e-12)).any():
            raise ValueError("variance below floor")
        if not self.means[0] <= self.means[1]:
            raise ValueError("clean component must be the smaller-mean component")


def per_sample_losses(net: Network, ds, probs=None) -> np.ndarray:
    """Unreduced cross-entropy of the observed label under ``net``; ``probs``
    is ``net``'s softmax over ``ds.features`` when the caller already has it."""
    if probs is None:
        probs = forward(net, ds.features)
    picked = probs[np.arange(ds.n), ds.labels]
    return -np.log(np.maximum(picked, LOG_EPS))


def normalize_losses(losses) -> np.ndarray:
    """Min-max rescale of a non-empty vector to [0, 1]; a constant one maps to all 0.5."""
    lo, hi = float(losses.min()), float(losses.max())
    if hi - lo <= 1e-12:
        return np.full_like(losses, 0.5)
    return (losses - lo) / (hi - lo)


def _log_normal(x, mean, var):
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def _collapsed(values) -> GmmParams:
    center = float(np.mean(values))
    return GmmParams(weights=np.array([0.5, 0.5]),
                     means=np.array([center, center]),
                     variances=np.array([VAR_FLOOR, VAR_FLOOR]), collapsed=True)


def percentiles_10_90(x) -> np.ndarray:
    """``np.percentile(x, [10, 90])`` of a finite 1-D float array, bit for
    bit: numpy's linear interpolation between the order statistics at
    floor((n - 1) q) and the next. One ``np.partition`` places them, on the
    ranks numpy partitions on (the ends too), so that of equal values such
    as 0.0 and -0.0 the same one lands at each rank."""
    pos = [(len(x) - 1) * q for q in (0.1, 0.9)]
    below = [int(p) for p in pos]
    ranks = np.partition(x, sorted({0, -1, *below, *(b + 1 for b in below)}))
    out = []
    for p, b in zip(pos, below):
        lo, hi, t = ranks[b], ranks[b + 1], p - b
        diff = hi - lo
        out.append(hi - diff * (1 - t) if t >= 0.5 else lo + diff * t)
    return np.array(out)


def fit_gmm_em(x) -> GmmParams:
    """EM fit of a 2-component 1-D mixture to the float array ``x`` of
    ``MIN_FIT_SAMPLES`` or more losses.

    The fit starts from the 10th and 90th percentiles of the losses
    (``percentiles_10_90``) as the means, or from their minimum and maximum
    where those coincide, equal weights and the losses' variance; this
    percentile-anchored initialization makes the fit deterministic.
    Steps that would lower the mean log-likelihood (possible only via the
    variance floor) are rejected, so the recorded likelihood path is
    non-decreasing.
    """
    if float(x.max() - x.min()) <= 1e-12:
        return _collapsed(x)

    means = percentiles_10_90(x)
    if means[1] - means[0] <= 1e-12:
        means = np.array([float(x.min()), float(x.max())])
    weights = np.array([0.5, 0.5])
    variances = np.full(2, max(float(np.var(x)), VAR_FLOOR))

    # one fit's working arrays: the log-densities, the accepted and the
    # candidate responsibilities, the running row sums and two per-sample rows
    n = len(x)
    dens, resp, new_resp, acc = (np.empty((2, n)) for _ in range(4))
    hi, total = np.empty(n), np.empty(n)

    def e_step(weights, means, variances, out):
        """Responsibilities into ``out`` and the mean log-likelihood, from one
        evaluation of the component log-densities (``_log_normal`` step by
        step); each component is a contiguous row, so the per-sample max and
        sum are plain 1-D ops."""
        np.subtract(x, means[:, None], out=dens)
        np.square(dens, out=dens)
        np.divide(dens, variances[:, None], out=dens)
        np.add(np.log(2.0 * np.pi * variances)[:, None], dens, out=dens)
        np.multiply(dens, -0.5, out=dens)
        np.add(np.log(weights)[:, None], dens, out=dens)
        np.maximum(dens[0], dens[1], out=hi)
        np.exp(np.subtract(dens, hi, out=out), out=out)
        np.add(out[0], out[1], out=total)
        np.divide(out, total, out=out)
        np.add(hi, np.log(total, out=total), out=hi)
        return float(np.add.reduce(hi) / n)  # what np.mean computes

    def row_sums(a):
        # running sums add samples in order, as an axis-0 reduce over (n, 2)
        # does; a 1-D np.sum is pairwise and differs in the last bits
        return np.add.accumulate(a, axis=1, out=acc)[:, -1].copy()

    ll = e_step(weights, means, variances, resp)
    path = [ll]
    n_iter = 0
    for _ in range(EM_MAX_ITER):
        # M-step with variance floor
        mass = row_sums(resp)
        if (mass / n < WEIGHT_FLOOR).any():
            return _collapsed(x)
        new_means = row_sums(np.multiply(resp, x, out=dens)) / mass
        np.square(np.subtract(x, new_means[:, None], out=dens), out=dens)
        new_vars = np.maximum(row_sums(np.multiply(resp, dens, out=dens)) / mass, VAR_FLOOR)
        new_weights = mass / n
        new_ll = e_step(new_weights, new_means, new_vars, new_resp)
        if new_ll < ll:
            break  # floored step would regress; keep previous parameters
        weights, means, variances = new_weights, new_means, new_vars
        resp, new_resp = new_resp, resp
        improved = new_ll - ll
        ll = new_ll
        path.append(ll)
        n_iter += 1
        if improved < EM_TOL:
            break

    order = np.argsort(means)  # smaller mean first: component 0 is the clean one
    return GmmParams(weights=weights[order], means=means[order],
                     variances=variances[order], collapsed=False,
                     log_likelihoods=tuple(path), n_iter=n_iter)


def clean_posterior(params: GmmParams, losses) -> np.ndarray:
    """Posterior responsibility of the clean (smaller-mean) component for
    each loss in the array ``losses``; a collapsed fit yields 0.5 everywhere."""
    if params.collapsed:
        return np.full(losses.shape, 0.5)
    w, mu, var = params.weights, params.means, params.variances
    log_clean = np.log(w[0]) + _log_normal(losses, mu[0], var[0])
    log_noisy = np.log(w[1]) + _log_normal(losses, mu[1], var[1])
    return 1.0 / (1.0 + np.exp(np.clip(log_noisy - log_clean, -700.0, 700.0)))


def gmm_record(params: GmmParams, epoch, model_tag) -> dict:
    """One JSON-lines diagnostics row."""
    return {
        "epoch": int(epoch),
        "model": model_tag,
        "weights": [float(v) for v in params.weights],
        "means": [float(v) for v in params.means],
        "variances": [float(v) for v in params.variances],
        "collapsed": bool(params.collapsed),
    }
