import numpy as np
import pytest

from longremix.lemma import closed_form_pr, monte_carlo_pr, sweep_zeta


class TestClosedForm:
    def test_single_epoch_values(self):
        # 0.8*0.5 / (0.8*0.5 + 0.3*0.5) = 0.727272..., recall = 0.8
        p, r = closed_form_pr(0.8, 0.7, 0.5, 1)
        assert p == pytest.approx(0.727273, abs=1e-6)
        assert r == pytest.approx(0.8, abs=1e-12)

    def test_window_of_three(self):
        # 0.512*0.5 / (0.512*0.5 + 0.027*0.5) = 0.949907, recall = 0.8^3
        p, r = closed_form_pr(0.8, 0.7, 0.5, 3)
        assert p == pytest.approx(0.949907, abs=1e-6)
        assert r == pytest.approx(0.512, abs=1e-12)

    def test_near_perfect_classifier_limits(self):
        for zeta in (1, 5, 50):
            p, r = closed_form_pr(1 - 1e-12, 1 - 1e-12, 0.5, zeta)
            assert p == pytest.approx(1.0, abs=1e-9)
            assert r == pytest.approx(1.0, abs=1e-9)

    def test_long_window_where_both_masses_underflow(self):
        # 0.9^8000 and 0.2^8000 are both below the smallest double
        assert closed_form_pr(0.9, 0.8, 0.5, 8000) == (1.0, 0.0)
        # noisy samples outlast clean ones: the windowed set is all noise
        assert closed_form_pr(0.1, 0.1, 0.5, 8000) == (0.0, 0.0)

    def test_recall_identity(self):
        # the recall expression algebraically reduces to p_cc^zeta
        rng = np.random.default_rng(0)
        for _ in range(200):
            p_cc, p_nn, p_c = (rng.uniform(0.01, 0.99) for _ in range(3))
            zeta = int(rng.integers(1, 12))
            _, recall = closed_form_pr(p_cc, p_nn, p_c, zeta)
            assert abs(recall - p_cc ** zeta) < 1e-12


class TestMonteCarlo:
    def test_boundaryish_classifier_is_exact(self):
        precision, recall, _, _ = monte_carlo_pr(1 - 1e-15, 1 - 1e-15, 0.5, 3,
                                                 n_trials=10_000, seed=(1,))
        assert precision == 1.0
        assert recall == 1.0

    def test_undefined_flagged(self):
        # five samples through a harsh window of ten rounds: none is selected
        est = monte_carlo_pr(0.05, 0.95, 0.5, 10, n_trials=5, seed=(3,))
        assert len(est) == 4 and np.isnan(est).all()

    def test_rounds_stop_once_nothing_is_selected(self, monkeypatch):
        # twenty fair-coin samples: none is left after round 7, so the draws
        # are the clean flags and seven rounds, not a thousand
        draws = []
        default_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, size):
                draws.append(size)
                return self.rng.random(size)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        est = monte_carlo_pr(0.5, 0.5, 0.5, 1000, n_trials=20, seed=(0,))
        assert np.isnan(est).all()
        assert draws == [20] * 8


class TestSweep:
    def test_precision_saturates(self):
        rows = list(sweep_zeta(0.8, 0.7, 0.5, [200]))
        assert rows[0]["precision_cf"] > 1 - 1e-6

    def test_first_row_equals_single_epoch_formula(self):
        rows = list(sweep_zeta(0.8, 0.7, 0.5, [1, 2]))
        p, r = closed_form_pr(0.8, 0.7, 0.5, 1)
        assert rows[0]["precision_cf"] == p
        assert rows[0]["recall_cf"] == r
        assert set(rows[0]) == {"zeta", "precision_cf", "recall_cf"}

    def test_mc_columns_when_requested(self):
        rows = list(sweep_zeta(0.8, 0.7, 0.5, [1, 3], mc_trials=20_000, seed=5))
        for row in rows:
            assert abs(row["precision_mc"] - row["precision_cf"]) <= 4 * row["se_p"]
