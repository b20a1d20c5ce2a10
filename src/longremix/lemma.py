"""Closed-form and Monte-Carlo precision/recall of windowed clean-sample selection.

Models the selector as independent Bernoulli classification rounds: a clean
sample survives a window of ``zeta`` rounds with probability p_cc^zeta, a
noisy one with (1 - p_nn)^zeta. Real training correlates rounds across
epochs, which is exactly why this simulator lives apart from the pipeline.

The rates are p_cc = P(classified clean | clean), p_nn = P(classified noisy |
noisy) and p_c, the clean proportion of the training set. Every function
takes its inputs as given: the ``lemma`` command checks the rates, the
window lengths and the trial count where they enter, so ``sweep_zeta``
yields one row at a time, from the first window on, however long the range.
"""

from __future__ import annotations

import math

import numpy as np

from .seeding import derive_rng


def closed_form_pr(p_cc, p_nn, p_c, zeta):
    """Exact precision/recall of the windowed selection; recall reduces to p_cc^zeta.
    Precision is tp / (tp + fp) with both masses taken in logs and scaled by
    the larger, so that it stays defined where both underflow (long windows)."""
    log_tp = zeta * math.log(p_cc) + math.log(p_c)
    log_fp = zeta * math.log1p(-p_nn) + math.log(1.0 - p_c)
    top = max(log_tp, log_fp)
    tp, fp = math.exp(log_tp - top), math.exp(log_fp - top)
    return tp / (tp + fp), p_cc ** zeta


def monte_carlo_pr(p_cc, p_nn, p_c, zeta, n_trials, seed):
    """Simulate the selection sample by sample, round by round.

    Each of ``n_trials`` samples (``sweep_zeta`` asks for at least one) is
    clean with probability p_c and passes zeta independent classification
    rounds; it enters the clean set only if every round calls it clean, so
    the rounds stop once none is left.
    ``seed`` is the draw's ``derive_rng`` key tuple.
    Returns ``(precision, recall, se_p, se_r)`` with binomial standard
    errors; all four are NaN when the window selects nothing or the draw
    holds no clean sample.
    """
    rng = derive_rng(*seed)
    clean = rng.random(n_trials) < p_c
    pass_prob = np.where(clean, p_cc, 1.0 - p_nn)
    selected = np.ones(n_trials, dtype=bool)
    for _ in range(zeta):
        selected &= rng.random(n_trials) < pass_prob
        if not selected.any():  # no later round can select a sample again
            break
    n_sel = int(selected.sum())
    n_clean = int(clean.sum())
    if n_sel == 0 or n_clean == 0:
        return (math.nan,) * 4
    tp = int((selected & clean).sum())
    precision, recall = tp / n_sel, tp / n_clean
    return (precision, recall, math.sqrt(precision * (1.0 - precision) / n_sel),
            math.sqrt(recall * (1.0 - recall) / n_clean))


def sweep_zeta(p_cc, p_nn, p_c, zetas, mc_trials=0, seed=0):
    """Closed-form rows per window length, with optional Monte-Carlo columns.

    Yields one dict per window of ``zetas``, a non-empty iterable of
    positive ints, with keys: zeta, precision_cf, recall_cf, and when
    ``mc_trials`` > 0 also precision_mc, recall_mc, se_p, se_r. Each rate
    lies strictly inside (0, 1).
    """
    for k, zeta in enumerate(zetas):
        precision, recall = closed_form_pr(p_cc, p_nn, p_c, zeta)
        row = {"zeta": zeta, "precision_cf": precision, "recall_cf": recall}
        if mc_trials > 0:
            p_mc, r_mc, se_p, se_r = monte_carlo_pr(p_cc, p_nn, p_c, zeta, mc_trials,
                                                    seed=(seed, k))
            row.update(precision_mc=p_mc, recall_mc=r_mc, se_p=se_p, se_r=se_r)
        yield row
