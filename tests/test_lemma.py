import numpy as np
import pytest

from longremix.errors import ConfigError
from longremix.lemma import SelectionParams, closed_form_pr, monte_carlo_pr, sweep_zeta


class TestClosedForm:
    def test_single_epoch_values(self):
        # 0.8*0.5 / (0.8*0.5 + 0.3*0.5) = 0.727272..., recall = 0.8
        p, r = closed_form_pr(SelectionParams(0.8, 0.7, 0.5, zeta=1))
        assert p == pytest.approx(0.727273, abs=1e-6)
        assert r == pytest.approx(0.8, abs=1e-12)

    def test_window_of_three(self):
        # 0.512*0.5 / (0.512*0.5 + 0.027*0.5) = 0.949907, recall = 0.8^3
        p, r = closed_form_pr(SelectionParams(0.8, 0.7, 0.5, zeta=3))
        assert p == pytest.approx(0.949907, abs=1e-6)
        assert r == pytest.approx(0.512, abs=1e-12)

    def test_near_perfect_classifier_limits(self):
        for zeta in (1, 5, 50):
            p, r = closed_form_pr(SelectionParams(1 - 1e-12, 1 - 1e-12, 0.5, zeta=zeta))
            assert p == pytest.approx(1.0, abs=1e-9)
            assert r == pytest.approx(1.0, abs=1e-9)

    def test_long_window_where_both_masses_underflow(self):
        # 0.9^8000 and 0.2^8000 are both below the smallest double
        assert closed_form_pr(SelectionParams(0.9, 0.8, 0.5, zeta=8000)) == (1.0, 0.0)
        # noisy samples outlast clean ones: the windowed set is all noise
        assert closed_form_pr(SelectionParams(0.1, 0.1, 0.5, zeta=8000)) == (0.0, 0.0)

    def test_recall_identity(self):
        # the recall expression algebraically reduces to p_cc^zeta
        rng = np.random.default_rng(0)
        for _ in range(200):
            params = SelectionParams(p_cc=rng.uniform(0.01, 0.99), p_nn=rng.uniform(0.01, 0.99),
                                     p_c=rng.uniform(0.01, 0.99), zeta=int(rng.integers(1, 12)))
            _, recall = closed_form_pr(params)
            assert abs(recall - params.p_cc ** params.zeta) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            SelectionParams(0.0, 0.7, 0.5)
        with pytest.raises(ConfigError):
            SelectionParams(0.8, 1.0, 0.5)
        with pytest.raises(ConfigError):
            SelectionParams(0.8, 0.7, 0.5, zeta=0)


class TestMonteCarlo:
    def test_matches_closed_form_within_four_se(self):
        params = SelectionParams(0.8, 0.7, 0.5, zeta=1)
        cf_p, cf_r = closed_form_pr(params)
        est = monte_carlo_pr(params, n_trials=1_000_000, seed=0)
        assert est.defined
        assert abs(est.precision - cf_p) <= 4 * est.se_precision
        assert abs(est.recall - cf_r) <= 4 * est.se_recall

    def test_boundaryish_classifier_is_exact(self):
        params = SelectionParams(1 - 1e-15, 1 - 1e-15, 0.5, zeta=3)
        est = monte_carlo_pr(params, n_trials=10_000, seed=1)
        assert est.precision == 1.0
        assert est.recall == 1.0

    def test_deterministic(self):
        params = SelectionParams(0.7, 0.6, 0.3, zeta=2)
        a = monte_carlo_pr(params, 50_000, seed=7)
        b = monte_carlo_pr(params, 50_000, seed=7)
        assert (a.precision, a.recall) == (b.precision, b.recall)

    def test_undefined_flagged(self):
        # tiny trial count with a harsh window can select nothing
        params = SelectionParams(0.05, 0.95, 0.5, zeta=10)
        est = monte_carlo_pr(params, n_trials=5, seed=3)
        if est.n_selected == 0:
            assert not est.defined
            assert np.isnan(est.precision)

    def test_trial_validation(self):
        with pytest.raises(ConfigError):
            monte_carlo_pr(SelectionParams(0.8, 0.7, 0.5), 0, seed=0)


class TestSweep:
    def test_monotone_verdicts_in_lemma_regime(self):
        rows = sweep_zeta(0.8, 0.7, 0.5, range(1, 11))
        assert all(b["precision_cf"] > a["precision_cf"] for a, b in zip(rows, rows[1:]))
        assert all(b["recall_cf"] < a["recall_cf"] for a, b in zip(rows, rows[1:]))

    def test_precision_saturates(self):
        rows = sweep_zeta(0.8, 0.7, 0.5, [200])
        assert rows[0]["precision_cf"] > 1 - 1e-6

    def test_first_row_equals_single_epoch_formula(self):
        rows = sweep_zeta(0.8, 0.7, 0.5, [1, 2])
        p, r = closed_form_pr(SelectionParams(0.8, 0.7, 0.5, zeta=1))
        assert rows[0]["precision_cf"] == p
        assert rows[0]["recall_cf"] == r
        assert set(rows[0]) == {"zeta", "precision_cf", "recall_cf"}

    def test_mc_columns_when_requested(self):
        rows = sweep_zeta(0.8, 0.7, 0.5, [1, 3], mc_trials=20_000, seed=5)
        for row in rows:
            assert abs(row["precision_mc"] - row["precision_cf"]) <= 4 * row["se_p"]

    def test_empty_range_rejected(self):
        with pytest.raises(ConfigError):
            sweep_zeta(0.8, 0.7, 0.5, [])
