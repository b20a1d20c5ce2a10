import ast
import json
from pathlib import Path

import numpy as np
import pytest

from longremix import data
from longremix.errors import ConfigError, ParseError, StateError


def lstsq_accuracy(ds):
    """Independent separability oracle: least-squares linear classifier on
    one-hot targets, evaluated on the training points themselves."""
    x = np.hstack([ds.features, np.ones((ds.n, 1))])
    t = np.zeros((ds.n, ds.num_classes))
    t[np.arange(ds.n), ds.labels] = 1.0
    coef, *_ = np.linalg.lstsq(x, t, rcond=None)
    pred = (x @ coef).argmax(axis=1)
    return float((pred == ds.labels).mean())


class TestSynthetic:
    def test_blobs_balanced(self):
        ds = data.make_synthetic_dataset("blobs", n=100, classes=4, spread=0.2, seed=0)
        counts = np.bincount(ds.labels, minlength=4)
        assert (counts == 25).all()
        assert not ds.mask.any()

    def test_unbalanced_remainder_differs_by_at_most_one(self):
        ds = data.make_synthetic_dataset("blobs", n=10, classes=4, spread=0.2, seed=0)
        counts = np.bincount(ds.labels, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_deterministic_per_seed(self):
        a = data.make_synthetic_dataset("blobs", n=50, classes=3, spread=0.3, seed=7)
        b = data.make_synthetic_dataset("blobs", n=50, classes=3, spread=0.3, seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = data.make_synthetic_dataset("blobs", n=50, classes=3, spread=0.3, seed=8)
        assert (a.features != c.features).any()

    def test_tight_blobs_linearly_separable(self):
        ds = data.make_synthetic_dataset("blobs", n=400, classes=2, spread=0.1, seed=3)
        assert lstsq_accuracy(ds) >= 0.99

    def test_moons_two_classes_only(self):
        ds = data.make_synthetic_dataset("moons", n=100, classes=2, spread=0.05, seed=0)
        assert ds.num_classes == 2
        assert ds.n == 100


class TestCsv:
    def test_small_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n1,2,cat\n3,4,dog\n5,6,cat\n")
        ds = data.load_csv_dataset(p)
        assert ds.n == 3
        assert ds.dim == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.class_names == ["cat", "dog"]
        assert not ds.mask.any()

    def test_token_map_first_appearance_order(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,label\n0,zebra\n1,ant\n2,zebra\n3,moth\n")
        ds = data.load_csv_dataset(p)
        assert ds.class_names == ["zebra", "ant", "moth"]
        assert ds.num_classes == 3

    def test_missing_value_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = ["a,b,label"] + [f"{i},{i},c0" for i in range(5)] + [",9,c0"]
        p.write_text("\n".join(rows) + "\n")  # blank cell lands on file row 7
        with pytest.raises(ParseError, match="row 7"):
            data.load_csv_dataset(p)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n1,2,c\n1,2\n")
        with pytest.raises(ParseError, match="row 3"):
            data.load_csv_dataset(p)

    def test_non_numeric_feature(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,label\nbanana,c\n")
        with pytest.raises(ParseError, match="non-numeric"):
            data.load_csv_dataset(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"a,b,label\n1,2,c\n3,{cell},d\n")
        with pytest.raises(ParseError) as info:
            data.load_csv_dataset(p)
        assert str(info.value) == f"{p}: row 3: non-finite value {cell!r} in column 'b'"

    def test_round_trip(self, tmp_path):
        ds = data.make_synthetic_dataset("blobs", n=30, classes=3, spread=0.2, seed=1)
        p = tmp_path / "out.csv"
        p.write_text(data.dataset_csv_text(ds), newline="")
        back = data.load_csv_dataset(p)
        np.testing.assert_allclose(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestSymmetricNoise:
    def test_eta_zero_identity(self):
        ds = data.make_synthetic_dataset("blobs", n=60, classes=3, spread=0.2, seed=0)
        out = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=0.0, seed=1))
        np.testing.assert_array_equal(out.labels, ds.labels)
        assert not out.mask.any()

    def test_flip_rate_within_binomial_band(self):
        # eta: sigma = sqrt(0.8 * 0.2 / 50000) ~= 0.0017889, 4 sigma ~= 0.00716
        ds = data.make_synthetic_dataset("blobs", n=50000, classes=10, spread=0.2, seed=0)
        out = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=0.8, seed=5))
        frac = out.mask.mean()
        assert abs(frac - 0.8) <= 4 * np.sqrt(0.8 * 0.2 / 50000)

    def test_two_classes_single_alternative(self):
        ds = data.make_synthetic_dataset("blobs", n=500, classes=2, spread=0.2, seed=0)
        out = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=0.5, seed=2))
        flipped = out.labels[out.mask]
        truth = out.true_labels[out.mask]
        np.testing.assert_array_equal(flipped, 1 - truth)

    def test_never_flips_to_true_class(self):
        ds = data.make_synthetic_dataset("blobs", n=5000, classes=5, spread=0.2, seed=0)
        out = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=0.9, seed=3))
        assert (out.labels[out.mask] != out.true_labels[out.mask]).all()
        # both uniform over the other classes and total rate ~0.9
        assert abs(out.mask.mean() - 0.9) < 4 * np.sqrt(0.9 * 0.1 / 5000)

    def test_mask_recomputable(self):
        ds = data.make_synthetic_dataset("blobs", n=200, classes=4, spread=0.2, seed=0)
        out = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=0.4, seed=9))
        np.testing.assert_array_equal(out.mask, out.labels != out.true_labels)

    def test_reinjection_forbidden(self):
        ds = data.make_synthetic_dataset("blobs", n=100, classes=4, spread=0.2, seed=0)
        out = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=0.5, seed=1))
        with pytest.raises(StateError, match="re-injection"):
            data.apply_noise(out, data.NoiseSpec(kind="symmetric", eta=0.5, seed=2))

    def test_input_unchanged(self):
        ds = data.make_synthetic_dataset("blobs", n=100, classes=4, spread=0.2, seed=0)
        data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=0.9, seed=1))
        assert not ds.mask.any()


class TestAsymmetricNoise:
    def test_eta_zero_identity(self):
        ds = data.make_synthetic_dataset("blobs", n=100, classes=4, spread=0.2, seed=0)
        out = data.apply_noise(ds, data.NoiseSpec(kind="asymmetric", eta=0.0,
                                                  mapping={0: 1}, seed=1))
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_flip_count_within_binomial_band(self):
        ds = data.make_synthetic_dataset("blobs", n=20000, classes=2, spread=0.2, seed=0)
        out = data.apply_noise(ds, data.NoiseSpec(kind="asymmetric", eta=0.4,
                                                  mapping={0: 1}, seed=4))
        n_src = int((ds.true_labels == 0).sum())
        assert n_src == 10000
        flips = int(out.mask.sum())
        assert abs(flips - 0.4 * n_src) <= 4 * np.sqrt(n_src * 0.4 * 0.6)

    def test_unmapped_classes_untouched(self):
        ds = data.make_synthetic_dataset("blobs", n=3000, classes=4, spread=0.2, seed=0)
        out = data.apply_noise(ds, data.NoiseSpec(kind="asymmetric", eta=0.49,
                                                  mapping={0: 1}, seed=5))
        untouched = ds.true_labels != 0
        np.testing.assert_array_equal(out.labels[untouched], ds.labels[untouched])
        assert (out.labels[out.mask] == 1).all()

    def test_rate_limit_cites_theoretical_bound(self):
        ds = data.make_synthetic_dataset("blobs", n=100, classes=4, spread=0.2, seed=0)
        with pytest.raises(ConfigError, match="0.5"):
            data.apply_noise(ds, data.NoiseSpec(kind="asymmetric", eta=0.5, mapping={0: 1}, seed=0))

    def test_identity_mapping_rejected(self):
        ds = data.make_synthetic_dataset("blobs", n=100, classes=4, spread=0.2, seed=0)
        with pytest.raises(ConfigError, match="itself"):
            data.apply_noise(ds, data.NoiseSpec(kind="asymmetric", eta=0.3, mapping={2: 2}, seed=0))

    def test_mapping_range_checked(self):
        ds = data.make_synthetic_dataset("blobs", n=100, classes=4, spread=0.2, seed=0)
        with pytest.raises(ConfigError, match="range"):
            data.apply_noise(ds, data.NoiseSpec(kind="asymmetric", eta=0.3, mapping={0: 9}, seed=0))


def test_noise_sidecar_fields():
    spec = data.NoiseSpec(kind="asymmetric", eta=0.4, mapping={0: 1}, seed=7)
    side = data.noise_sidecar(spec, flipped_count=123)
    assert side == {"kind": "asymmetric", "eta": 0.4, "mapping": {"0": 1},
                    "seed": 7, "flipped_count": 123}
    json.dumps(side, allow_nan=False)  # must serialize as strict JSON


@pytest.mark.parametrize("key", ["n", "test_n"])
def test_count_bound_is_max_count(key):
    # a spec only holds its fields: nothing of this size is built
    data.DatasetSpec(n=data.MAX_COUNT, test_n=data.MAX_COUNT)
    with pytest.raises(ConfigError, match=f"dataset.{key} must be <= {data.MAX_COUNT}, "):
        data.DatasetSpec(**{"n": data.MAX_COUNT, "test_n": data.MAX_COUNT, key: data.MAX_COUNT + 1})


def test_only_seeding_builds_a_generator():
    # every seed stream is a seeding.derive_rng key tuple: no other module of
    # the package names numpy's default_rng
    package = Path(data.__file__).parent
    naming = sorted({path.name for path in package.glob("*.py") if path.name != "seeding.py"
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if "default_rng" in (getattr(node, "attr", None), getattr(node, "id", None))})
    assert naming == []
