"""Closed-form and Monte-Carlo precision/recall of windowed clean-sample selection.

Models the selector as independent Bernoulli classification rounds: a clean
sample survives a window of ``zeta`` rounds with probability p_cc^zeta, a
noisy one with (1 - p_nn)^zeta. Real training correlates rounds across
epochs, which is exactly why this simulator lives apart from the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class SelectionParams:
    p_cc: float   # P(classified clean | clean)
    p_nn: float   # P(classified noisy | noisy)
    p_c: float    # clean proportion of the training set
    zeta: int = 1

    def __post_init__(self):
        for name in ("p_cc", "p_nn", "p_c"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{name} must lie strictly inside (0, 1), got {v}")
        if self.zeta < 1 or int(self.zeta) != self.zeta:
            raise ConfigError(f"window length must be a positive integer, got {self.zeta}")

    @property
    def p_n(self) -> float:
        return 1.0 - self.p_c


@dataclass(frozen=True)
class PrEstimate:
    precision: float
    recall: float
    se_precision: float
    se_recall: float
    n_selected: int
    n_clean: int
    defined: bool = True


def closed_form_pr(params: SelectionParams):
    """Exact precision/recall of the windowed selection; recall reduces to p_cc^zeta.
    Precision is tp / (tp + fp) with both masses taken in logs and scaled by
    the larger, so that it stays defined where both underflow (long windows)."""
    log_tp = params.zeta * math.log(params.p_cc) + math.log(params.p_c)
    log_fp = params.zeta * math.log1p(-params.p_nn) + math.log(params.p_n)
    top = max(log_tp, log_fp)
    tp, fp = math.exp(log_tp - top), math.exp(log_fp - top)
    return tp / (tp + fp), params.p_cc ** params.zeta


def monte_carlo_pr(params: SelectionParams, n_trials, seed) -> PrEstimate:
    """Simulate the selection sample by sample, round by round.

    Each of ``n_trials`` samples is clean with probability p_c and passes
    zeta independent classification rounds; it enters the clean set only if
    every round calls it clean. Standard errors are binomial.
    """
    if n_trials < 1:
        raise ConfigError("need at least one trial")
    rng = np.random.default_rng(seed)
    clean = rng.random(n_trials) < params.p_c
    pass_prob = np.where(clean, params.p_cc, 1.0 - params.p_nn)
    selected = np.ones(n_trials, dtype=bool)
    for _ in range(params.zeta):
        selected &= rng.random(n_trials) < pass_prob
    n_sel = int(selected.sum())
    n_clean = int(clean.sum())
    if n_sel == 0 or n_clean == 0:
        return PrEstimate(precision=float("nan"), recall=float("nan"),
                          se_precision=float("nan"), se_recall=float("nan"),
                          n_selected=n_sel, n_clean=n_clean, defined=False)
    tp = int((selected & clean).sum())
    precision = tp / n_sel
    recall = tp / n_clean
    return PrEstimate(
        precision=precision, recall=recall,
        se_precision=float(np.sqrt(precision * (1.0 - precision) / n_sel)),
        se_recall=float(np.sqrt(recall * (1.0 - recall) / n_clean)),
        n_selected=n_sel, n_clean=n_clean)


def sweep_zeta(p_cc, p_nn, p_c, zetas, mc_trials=0, seed=0):
    """Closed-form rows per window length, with optional Monte-Carlo columns.

    Returns a list of dicts with keys: zeta, precision_cf, recall_cf, and
    when ``mc_trials`` > 0 also precision_mc, recall_mc, se_p, se_r.
    """
    zetas = list(zetas)
    if not zetas:
        raise ConfigError("zeta range must be non-empty")
    rows = []
    for k, zeta in enumerate(zetas):
        params = SelectionParams(p_cc=p_cc, p_nn=p_nn, p_c=p_c, zeta=int(zeta))
        precision, recall = closed_form_pr(params)
        row = {"zeta": int(zeta), "precision_cf": precision, "recall_cf": recall}
        if mc_trials > 0:
            est = monte_carlo_pr(params, mc_trials, seed=(seed, k))
            row.update(precision_mc=est.precision, recall_mc=est.recall,
                       se_p=est.se_precision, se_r=est.se_recall)
        rows.append(row)
    return rows
