import json
import multiprocessing
import multiprocessing.context
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from longremix import cli, config, data, report, trainer
from longremix.errors import ConfigError
from conftest import load_checkpoint, serialize_flat

BASE_CONF = """
dataset.kind = blobs
dataset.n = 300
dataset.test_n = 200
dataset.classes = 4
dataset.spread = 0.15
noise.kind = symmetric
noise.eta = 0.5
noise.seed = 7
train.mode = {mode}
train.epochs = 6
train.warmup = 2
train.zeta = 3
output.dir = {out}
"""


# The full echo of an empty config: every key, in order, with the exact
# formatting metrics.json records.
GOLDEN_DEFAULT_ECHO = (
    "dataset.kind = blobs",
    "dataset.n = 2000",
    "dataset.test_n = 1000",
    "dataset.classes = 16",
    "dataset.spread = 0.15",
    "dataset.path = ",
    "dataset.test_path = ",
    "noise.kind = none",
    "noise.eta = 0.0",
    "noise.mapping = ",
    "noise.seed = 0",
    "train.mode = full-longremix",
    "train.tau = 0.5",
    "train.zeta = 5",
    "train.alpha = 0.2",
    "train.lambda_u = 10.0",
    "train.lambda_reg = 1.0",
    "train.epochs = 60",
    "train.warmup = 10",
    "train.batch_size = 64",
    "train.lr = 0.02",
    "train.lr_drop = 0.1",
    "train.momentum = 0.8",
    "train.weight_decay = 0.0005",
    "train.hidden = 64,64",
    "train.normalize_losses = true",
    "train.data_seed = 1",
    "train.model1_seed = 11",
    "train.model2_seed = 22",
    "train.plan_seed = 33",
    "output.dir = runs/experiment",
    "report.formats = json,csv",
    "report.prcurve = true",
    "report.tau_grid = 0.0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95,1.0",
    "report.gmm_dump = false",
    "report.plan_digests = false",
    "report.checkpoints = false",
)


def write_conf(tmp_path, mode="baseline", name="exp.conf", out=None, extra=""):
    path = tmp_path / name
    out = out or str(tmp_path / "out")
    path.write_text(BASE_CONF.format(mode=mode, out=out) + extra)
    return path, out


class TestConfigParsing:
    def test_round_trip_through_effective_echo(self, tmp_path):
        path, _ = write_conf(tmp_path)
        mapping = config.parse_flat_config(path.read_text())
        exp = config.build_experiment(mapping)
        echo = config.effective_config(exp)
        reparsed = config.parse_flat_config(serialize_flat(echo))
        exp2 = config.build_experiment(reparsed)
        assert config.effective_config(exp2) == echo

    def test_golden_echo_order_and_formatting(self):
        echo = serialize_flat(config.effective_config(config.build_experiment({})))
        assert echo == "\n".join(GOLDEN_DEFAULT_ECHO) + "\n"
        asym = config.build_experiment({
            "noise.kind": "asymmetric", "noise.eta": "0.4", "noise.mapping": "2:3,0:1"})
        expected = dict(line.split(" = ") for line in GOLDEN_DEFAULT_ECHO)
        expected.update({"noise.kind": "asymmetric", "noise.eta": "0.4",
                         "noise.mapping": "0:1,2:3", "train.lambda_u": "0.0",
                         "train.lambda_reg": "0.0"})
        assert serialize_flat(config.effective_config(asym)) == "".join(
            f"{k} = {v}\n" for k, v in expected.items())

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="train.beta"):
            config.build_experiment({"train.beta": "1"})

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            config.build_experiment({"train.epochs": "many"})

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            config.parse_flat_config("a.b = 1\na.b = 2\n")

    def test_asymmetric_defaults_zero_loss_weights(self):
        exp = config.build_experiment({
            "noise.kind": "asymmetric", "noise.eta": "0.4", "noise.mapping": "0:1"})
        assert exp.train.lambda_u == 0.0
        assert exp.train.lambda_reg == 0.0
        exp2 = config.build_experiment({
            "noise.kind": "asymmetric", "noise.eta": "0.4", "noise.mapping": "0:1",
            "train.lambda_u": "3.5"})
        assert exp2.train.lambda_u == 3.5

    def test_seed_override_scheme(self):
        mapping = config.apply_seed_override({}, 9)
        exp = config.build_experiment(mapping)
        assert exp.train.data_seed == 9
        assert exp.train.model1_seed == 20
        assert exp.train.model2_seed == 31
        assert exp.train.plan_seed == 42
        assert exp.noise.seed == 110


class TestTrainCommand:
    def test_end_to_end_bundle(self, tmp_path):
        path, out = write_conf(tmp_path, mode="full-longremix")
        assert cli.main(["train", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["summary"]["mode"] == "full-longremix"
        assert set(doc["summary"]) >= {"best_acc", "last10_acc", "best_epoch"}
        assert len(doc["stages"]) == 2
        assert doc["summary"]["core_set_size"] is not None
        assert doc["stages"][0]["core_set"] is not None
        # the summary names the core set stage 1 captured; stage 2 captures none
        core = doc["stages"][0]["core_set"]
        assert doc["stages"][1]["core_set"] is None
        assert (doc["summary"]["core_set_size"], doc["summary"]["core_set_epoch"]) == (
            core["size"], core["epoch"])
        assert doc["noise"]["kind"] == "symmetric"
        manifest = json.loads((tmp_path / "out" / "bundle.json").read_text())
        for rel in manifest["files"].values():
            f = tmp_path / "out" / rel
            assert f.exists() and f.stat().st_size > 0

    def test_golden_bundle_layout(self, tmp_path):
        path, out = write_conf(tmp_path, mode="full-longremix")
        assert cli.main(["train", "--config", str(path)]) == 0
        header = (tmp_path / "out" / "epochs.csv").read_text().splitlines()[0]
        assert header == (
            "stage,epoch,phase,lr,test_acc,"
            "m1_split_kind,m1_x_size,m1_u_size,m1_precision,m1_recall,m1_x_ops,m1_u_ops,m1_fallback,"
            "m2_split_kind,m2_x_size,m2_u_size,m2_precision,m2_recall,m2_x_ops,m2_u_ops,m2_fallback")
        assert len(header.split(",")) == 21
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert set(doc["summary"]) == {"best_acc", "best_epoch", "core_set_epoch",
                                       "core_set_size", "final_stage", "last10_acc", "mode"}
        for stage in doc["stages"]:
            assert set(stage) == {"best_acc", "best_epoch", "core_set", "epochs",
                                  "last10_acc", "stage"}
            for row in stage["epochs"]:
                assert set(row) == {"epoch", "lr", "model1", "model2", "phase", "test_acc"}
                for key in ("model1", "model2"):
                    if row["phase"] == "warmup":
                        assert row[key] is None
                    else:
                        assert set(row[key]) == {"split_kind", "x_size", "u_size", "precision",
                                                 "recall", "x_ops", "u_ops", "fallback"}

    def test_clean_data_reaches_sanity_floor(self, tmp_path):
        path = tmp_path / "clean.conf"
        path.write_text(
            "dataset.kind = blobs\ndataset.n = 400\ndataset.test_n = 200\n"
            "dataset.classes = 4\ndataset.spread = 0.15\nnoise.kind = none\n"
            "train.mode = baseline\ntrain.epochs = 8\ntrain.warmup = 4\ntrain.zeta = 3\n"
            f"output.dir = {tmp_path / 'out'}\n")
        assert cli.main(["train", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert doc["summary"]["best_acc"] >= 0.95
        assert doc["noise"]["kind"] == "none"
        assert doc["noise"]["flipped_count"] == 0

    def test_epochs_csv_row_count(self, tmp_path):
        path, out = write_conf(tmp_path, mode="baseline")
        assert cli.main(["train", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "epochs.csv").read_text().strip().splitlines()
        # warmup 2 + train 6 epochs, single stage, plus header
        assert len(lines) == 1 + 8

    def test_determinism_byte_identical(self, tmp_path):
        path, _ = write_conf(tmp_path, mode="full-longremix")
        assert cli.main(["train", "--config", str(path)]) == 0
        a = (tmp_path / "out" / "metrics.json").read_bytes()
        assert cli.main(["train", "--config", str(path)]) == 0
        b = (tmp_path / "out" / "metrics.json").read_bytes()
        assert a == b

    def test_seed_override_changes_metrics(self, tmp_path):
        path, _ = write_conf(tmp_path)
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "a"),
                         "--seed", "1"]) == 0
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "b"),
                         "--seed", "2"]) == 0
        a = json.loads((tmp_path / "a" / "metrics.json").read_text())
        b = json.loads((tmp_path / "b" / "metrics.json").read_text())
        assert a != b

    def test_env_var_overrides_outdir(self, tmp_path, monkeypatch):
        path, _ = write_conf(tmp_path)
        envdir = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUTDIR_ENV, str(envdir))
        assert cli.main(["train", "--config", str(path)]) == 0
        assert (envdir / "metrics.json").exists()

    def test_unknown_key_exits_2(self, tmp_path):
        path, _ = write_conf(tmp_path, extra="future.flag = on\n")
        assert cli.main(["train", "--config", str(path)]) == 2

    def test_ce_with_gmm_dump_exits_2_before_training(self, tmp_path, capsys):
        path, out = write_conf(tmp_path, mode="ce", extra="report.gmm_dump = true\n")
        assert cli.main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "report.gmm_dump" in err and "ce" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "nope.conf")]) == 2

    def test_all_metrics_finite(self, tmp_path):
        path, _ = write_conf(tmp_path, mode="longmix")
        assert cli.main(["train", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            elif isinstance(node, float):
                assert np.isfinite(node)
        walk(doc)

    def test_config_echo_matches_effective(self, tmp_path):
        path, out = write_conf(tmp_path)
        assert cli.main(["train", "--config", str(path)]) == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        mapping = config.parse_flat_config(path.read_text())
        exp = config.build_experiment(mapping)
        assert doc["config"] == config.effective_config(exp)


class TestPrCurveCommand:
    def test_boundary_rows(self, tmp_path):
        path, out = write_conf(tmp_path, mode="full-longremix")
        assert cli.main(["prcurve", "--config", str(path), "--out", str(tmp_path / "pc")]) == 0
        lines = (tmp_path / "pc" / "prcurve.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        assert float(rows[0]["tau"]) == 0.0
        assert float(rows[0]["baseline_recall"]) == 1.0  # everything selected
        for row in rows:
            assert float(row["hct_recall"]) <= float(row["baseline_recall"]) + 1e-12
            assert int(row["hct_x_size"]) <= int(row["baseline_x_size"])

    def test_top_end_near_empty(self, tmp_path):
        path, out = write_conf(tmp_path, mode="full-longremix")
        assert cli.main(["prcurve", "--config", str(path), "--out", str(tmp_path / "pc")]) == 0
        lines = (tmp_path / "pc" / "prcurve.csv").read_text().strip().splitlines()
        last = lines[-1].split(",")
        header = lines[0].split(",")
        row = dict(zip(header, last))
        assert float(row["tau"]) == 1.0
        assert int(row["hct_x_size"]) <= int(row["baseline_x_size"])


class TestLemmaCommand:
    def test_csv_columns(self, tmp_path):
        assert cli.main(["lemma", "--pcc", "0.8", "--pnn", "0.7", "--pc", "0.5",
                         "--zetas", "1,3", "--trials", "5000",
                         "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "lemma.csv").read_text().strip().splitlines()
        assert lines[0] == "zeta,precision_cf,recall_cf,precision_mc,recall_mc,se_p,se_r"
        assert len(lines) == 3

    def test_bad_params_exit_2(self, tmp_path):
        assert cli.main(["lemma", "--pcc", "1.5", "--pnn", "0.7", "--pc", "0.5",
                         "--out", str(tmp_path)]) == 2


class TestNoiseCommand:
    def test_defaults_are_the_spec_fields(self):
        args = cli.build_parser().parse_args(["noise", "--kind", "none"])
        noise, dataset = data.NoiseSpec(), config.DatasetSpec()
        assert (args.eta, args.seed) == (noise.eta, noise.seed)
        assert (args.dataset, args.n, args.classes, args.spread) == (
            dataset.kind, dataset.n, dataset.classes, dataset.spread)
        assert args.data_seed == trainer.TrainConfig().data_seed

    def test_sidecar_matches_csv(self, tmp_path):
        assert cli.main(["noise", "--kind", "symmetric", "--eta", "0.5", "--seed", "3",
                         "--n", "100", "--classes", "4", "--out", str(tmp_path)]) == 0
        side = json.loads((tmp_path / "dataset.noise.json").read_text())
        assert side["kind"] == "symmetric"
        assert side["eta"] == 0.5
        assert side["seed"] == 3
        assert 0 < side["flipped_count"] < 100
        lines = (tmp_path / "dataset.csv").read_text().strip().splitlines()
        assert len(lines) == 101

    def test_dataset_csv_bytes_are_the_rendered_text(self, tmp_path):
        assert cli.main(["noise", "--kind", "symmetric", "--eta", "0.3", "--n", "40",
                         "--classes", "4", "--out", str(tmp_path)]) == 0
        ds = data.make_synthetic_dataset("blobs", 40, 4, 0.15, seed=1)
        noisy = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=0.3, seed=0))
        written = (tmp_path / "dataset.csv").read_bytes()
        assert written == data.dataset_csv_text(noisy).encode("utf-8")
        assert written.count(b"\r\n") == 41

    def test_asymmetric_limit_exit_2(self, tmp_path):
        assert cli.main(["noise", "--kind", "asymmetric", "--eta", "0.6",
                         "--mapping", "0:1", "--out", str(tmp_path)]) == 2

    def test_bad_mapping_token_exit_2(self, tmp_path, capsys):
        assert cli.main(["noise", "--kind", "asymmetric", "--eta", "0.3",
                         "--mapping", "a:1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--mapping" in err and "'a'" in err

    @pytest.mark.parametrize("eta", ["0.2", "0"])
    def test_single_class_csv_exit_2(self, tmp_path, capsys, eta):
        csv, out = tmp_path / "one.csv", tmp_path / "out"
        _write_csv(csv, [(float(i), "cat") for i in range(5)])
        args = ["noise", "--csv", str(csv), "--out", str(out), "--kind"]
        assert cli.main(args + ["symmetric", "--eta", eta]) == 2
        assert capsys.readouterr().err == (f"config error: {csv}: every label is 'cat'; "
                                           "symmetric noise needs at least 2 classes\n")
        assert not out.exists()
        assert cli.main(args + ["none"]) == 0


class TestReportCommand:
    def test_reemission_reproduces_csv(self, tmp_path):
        path, out = write_conf(tmp_path, mode="baseline")
        assert cli.main(["train", "--config", str(path)]) == 0
        original = (tmp_path / "out" / "epochs.csv").read_text()
        assert cli.main(["report", "--metrics", str(tmp_path / "out" / "metrics.json"),
                         "--out", str(tmp_path / "re")]) == 0
        assert (tmp_path / "re" / "epochs.csv").read_text() == original

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "m.json"
        bad.write_text("{not json")
        assert cli.main(["report", "--metrics", str(bad)]) == 2


class TestOptionalDumps:
    def test_gmm_jsonl_rows(self, tmp_path):
        path, out = write_conf(tmp_path, extra="report.gmm_dump = true\n")
        assert cli.main(["train", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "gmm.jsonl").read_text().strip().splitlines()
        rows = [json.loads(ln) for ln in lines]
        assert len(rows) == 6 * 2  # one per selection epoch per model
        for row in rows:
            assert set(row) == {"epoch", "model", "weights", "means", "variances", "collapsed"}
            assert len(row["means"]) == 2

    def test_plan_digests_csv(self, tmp_path):
        path, out = write_conf(tmp_path, extra="report.plan_digests = true\n")
        assert cli.main(["train", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "plans.csv").read_text().strip().splitlines()
        assert lines[0] == "stage,epoch,model,digest"
        assert len(lines) == 1 + 6 * 2
        digest = lines[1].split(",")[-1]
        assert len(digest) == 64  # sha256 hex

    def test_checkpoints_reloadable(self, tmp_path):
        path, out = write_conf(tmp_path, extra="report.checkpoints = true\n")
        assert cli.main(["train", "--config", str(path)]) == 0
        net = load_checkpoint(tmp_path / "out" / "model1.ckpt")
        assert net.tag == "model1"
        assert net.input_dim == 2


def _separable_rows():
    """200 rows of two classes a unit either side of zero, alternating cat/dog."""
    rng = np.random.default_rng(0)
    return [(sign + rng.normal(scale=0.1), label)
            for sign, label in ((-1.0, "cat"), (1.0, "dog")) * 100]


def _write_csv(path, rows, width=1):
    """A feature of None is written as an empty cell."""
    header = ",".join(f"x{j}" for j in range(width))
    path.write_text(f"{header},label\n" + "".join(
        ",".join(["" if x is None else repr(x)] * width) + f",{label}\n" for x, label in rows))


# (case, training rows, test rows, test width, mode, exit code, stderr substring);
# rows of None leave that file unwritten
ROWS = _separable_rows()
CSV_CASES = [
    ("dog-first-test-file", ROWS, sorted(ROWS, key=lambda r: r[1] != "dog"), 1,
     "baseline", 0, None),
    ("unseen-test-label", ROWS, ROWS[:5] + [(0.0, "bird")] + ROWS[5:], 1,
     "baseline", 2, "test.csv: row 7: label 'bird' is not a training class"),
    ("test-file-missing-cell", ROWS, ROWS[:1] + [(None, "dog")] + ROWS[1:], 1,
     "baseline", 2, "test.csv: row 3: missing value in column 'x0'"),
    ("single-class-training", [r for r in ROWS if r[1] == "cat"], ROWS, 1, "baseline", 2,
     "train.csv: every training label is 'cat'; training needs at least 2 classes"),
    ("single-class-test-file", ROWS, [r for r in ROWS if r[1] == "dog"], 1, "baseline", 0, None),
    ("test-width-differs", ROWS, ROWS, 2, "baseline", 2, "test.csv has 2 feature columns"),
    ("three-training-rows", ROWS[:3], ROWS, 1, "baseline", 2, "train.csv: 3 training rows"),
    ("training-file-missing", None, ROWS, 1, "baseline", 2,
     "cannot read dataset train.csv: [Errno 2] No such file or directory: 'train.csv'"),
    ("test-file-missing", ROWS, None, 1, "baseline", 2,
     "cannot read dataset test.csv: [Errno 2] No such file or directory: 'test.csv'"),
]


@pytest.mark.parametrize("case,train_rows,test_rows,width,mode,code,message", CSV_CASES,
                         ids=[c[0] for c in CSV_CASES])
def test_csv_contract(tmp_path, capsys, monkeypatch, case, train_rows, test_rows, width,
                      mode, code, message):
    monkeypatch.chdir(tmp_path)
    if train_rows is not None:
        _write_csv(tmp_path / "train.csv", train_rows)
    if test_rows is not None:
        _write_csv(tmp_path / "test.csv", test_rows, width)
    conf = tmp_path / "exp.conf"
    conf.write_text("dataset.kind = csv\ndataset.path = train.csv\ndataset.test_path = test.csv\n"
                    f"train.mode = {mode}\ntrain.epochs = 4\ntrain.warmup = 2\n"
                    "train.zeta = 2\noutput.dir = out\n")
    assert cli.main(["train", "--config", str(conf)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()
        return
    # the same rows in first-appearance order score the same
    got = json.loads((tmp_path / "out" / "metrics.json").read_text())["summary"]["best_acc"]
    _write_csv(tmp_path / "test.csv", sorted(test_rows, key=lambda r: r[1] != "cat"), width)
    assert cli.main(["train", "--config", str(conf)]) == 0
    want = json.loads((tmp_path / "out" / "metrics.json").read_text())["summary"]["best_acc"]
    assert got == want == 1.0


# (mode, config line, exit code, stderr after its prefix): a config error
# before training, or a run stopped where a parameter or an output became NaN or inf
VALUE_CASES = [
    ("baseline", "train.alpha = nan", 2, "train.alpha: expected a finite number, got 'nan'"),
    ("baseline", "train.lambda_u = nan", 2, "train.lambda_u: expected a finite number, got 'nan'"),
    ("baseline", "train.lr = nan", 2, "train.lr: expected a finite number, got 'nan'"),
    ("baseline", "train.lr = inf", 2, "train.lr: expected a finite number, got 'inf'"),
    ("baseline", "dataset.spread = nan", 2, "dataset.spread: expected a finite number, got 'nan'"),
    ("baseline", "report.tau_grid = 0.5,nan", 2, "report.tau_grid: expected a finite number, got 'nan'"),
    ("baseline", "train.hidden = -1", 2, "hidden layer widths must be >= 1, got (-1,)"),
    ("baseline", "train.hidden = 64,0", 2, "hidden layer widths must be >= 1, got (64, 0)"),
    ("baseline", "train.lr = 0", 2, "lr must be positive, got 0.0"),
    ("baseline", "train.weight_decay = -0.1", 2, "weight_decay must be non-negative, got -0.1"),
    ("baseline", "train.lr_drop = -1", 2, "lr_drop must be in (0, 1], got -1.0"),
    ("baseline", "train.lr_drop = 0", 2, "lr_drop must be in (0, 1], got 0.0"),
    ("baseline", "train.lr_drop = 1.5", 2, "lr_drop must be in (0, 1], got 1.5"),
    ("baseline", "train.momentum = -5", 2, "momentum must be in [0, 1), got -5.0"),
    ("baseline", "train.momentum = 1", 2, "momentum must be in [0, 1), got 1.0"),
    ("baseline", "report.tau_grid = 0.5,1.5", 2, "tau_grid values must be in [0, 1], got 1.5"),
    ("baseline", "report.tau_grid = -0.1,0.5", 2, "tau_grid values must be in [0, 1], got -0.1"),
    ("baseline", "train.lr = 1e3", 3, "non-finite parameters in model1 after baseline warmup epoch 2"),
    ("baseline", "train.lr = 30", 3, "non-finite parameters in model2 after baseline train epoch 6"),
    ("longmix", "train.lr = 20", 3,
     "non-finite outputs of model2 at the start of longmix train epoch 2"),
    ("full-longremix", "train.lr = 10", 3,
     "non-finite parameters in model1 after stage2-guided train epoch 1"),
    ("baseline", "train.data_seed = -4", 2, "data_seed must be >= 0, got -4"),
    ("baseline", "noise.seed = -1", 2, "noise.seed must be >= 0, got -1"),
    ("baseline", "noise.mapping = 0:1", 2,
     "a class mapping needs asymmetric noise, got kind 'symmetric'"),
    ("baseline", "output.dir =", 2, "output.dir must not be empty"),
    ("baseline", "dataset.n = 3", 2, "dataset.n must be >= dataset.classes (4), got 3"),
    ("baseline", "dataset.test_n = 0", 2, "dataset.test_n must be >= dataset.classes (4), got 0"),
    ("baseline", "dataset.classes = 1", 2, "dataset.classes must be >= 2, got 1"),
    ("baseline", "dataset.spread = 0", 2, "dataset.spread must be finite and positive, got 0.0"),
    ("baseline", "dataset.kind = moons", 2,
     "dataset.kind = moons needs dataset.classes = 2, got 4"),
]


@pytest.mark.parametrize("mode,line,code,message", VALUE_CASES,
                         ids=[f"{mode}: {line}" for mode, line, _, _ in VALUE_CASES])
def test_value_contract(tmp_path, capsys, mode, line, code, message):
    path, out = write_conf(tmp_path, mode=mode)
    kept = [ln for ln in path.read_text().splitlines() if not ln.startswith(line.split("=")[0])]
    path.write_text("\n".join(kept + [line]) + "\n")
    assert cli.main(["train", "--config", str(path)]) == code
    assert capsys.readouterr().err == {2: "config error: ", 3: "error: "}[code] + message + "\n"
    assert not Path(out, "metrics.json").exists()


def _metrics_doc(lr):
    return {"stages": [{"stage": "baseline", "epochs": [
        {"epoch": 1, "phase": "train", "lr": lr, "test_acc": 0.5, "model1": None, "model2": None}]}]}


# Malformed metrics documents, each written into the test's directory.
BAD_METRICS = {"text-lr.json": _metrics_doc("x"), "list-lr.json": _metrics_doc([0.02]),
               "no-stages.json": {}}
LEMMA = ["lemma", "--pcc", "0.8", "--pnn", "0.7", "--pc", "0.5"]

# (case, arguments, start of the stderr line after "config error: ") for bad
# flags and inputs other than config values; {tmp} is the test's directory,
# which holds the BAD_METRICS files and an empty config
COMMAND_CASES = [
    ("lemma-zetas-not-int", LEMMA + ["--zetas", "1,a"], "--zetas: expected an integer, got 'a'"),
    ("lemma-negative-trials", LEMMA + ["--trials", "-1"], "--trials must be >= 0, got -1"),
    ("noise-spread-nan", ["noise", "--kind", "none", "--spread", "nan"],
     "spread must be finite and positive, got nan"),
    ("noise-spread-inf", ["noise", "--kind", "none", "--spread", "inf"],
     "spread must be finite and positive, got inf"),
    ("report-text-cell", ["report", "--metrics", "{tmp}/text-lr.json"],
     "metrics file {tmp}/text-lr.json has a missing or non-numeric field: "
     "could not convert string to float: 'x'"),
    ("report-list-cell", ["report", "--metrics", "{tmp}/list-lr.json"],
     "metrics file {tmp}/list-lr.json has a missing or non-numeric field: float() argument"),
    ("report-missing-field", ["report", "--metrics", "{tmp}/no-stages.json"],
     "metrics file {tmp}/no-stages.json has a missing or non-numeric field: 'stages'"),
    ("lemma-negative-seed", LEMMA + ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ("noise-negative-seed", ["noise", "--kind", "symmetric", "--eta", "0.2", "--seed", "-3"],
     "--seed must be >= 0, got -3"),
    ("noise-negative-data-seed", ["noise", "--kind", "none", "--data-seed", "-3"],
     "--data-seed must be >= 0, got -3"),
    ("train-negative-seed", ["train", "--config", "{tmp}/empty.conf", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    ("noise-mapping-repeats-class",
     ["noise", "--kind", "asymmetric", "--eta", "0.2", "--mapping", "0:1,0:2"],
     "--mapping: class 0 is mapped twice"),
    ("noise-csv-missing", ["noise", "--kind", "none", "--csv", "{tmp}/missing.csv"],
     "cannot read dataset {tmp}/missing.csv: [Errno 2] No such file or directory"),
]


@pytest.mark.parametrize("case,args,message", COMMAND_CASES, ids=[c[0] for c in COMMAND_CASES])
def test_command_contract(tmp_path, capsys, case, args, message):
    for name, doc in BAD_METRICS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "empty.conf").write_text("")
    args = [a.format(tmp=tmp_path) for a in args]
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message.format(tmp=tmp_path))
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


def test_readme_config_example_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    exp = config.build_experiment(config.parse_flat_config(block))
    assert (exp.noise.kind, exp.noise.eta, exp.output.dir) == ("symmetric", 0.8, "runs/exp")


def test_python_dash_m_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "longremix", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("longremix ")


def test_empty_core_set_is_one_stderr_line(tmp_path):
    # at 90% noise and tau 1.0 no windowed clean set of stage 1 holds a sample
    conf = tmp_path / "empty-core.conf"
    conf.write_text("dataset.n = 120\ndataset.test_n = 60\ndataset.classes = 6\n"
                    "noise.kind = symmetric\nnoise.eta = 0.9\ntrain.mode = full-longremix\n"
                    "train.tau = 1.0\ntrain.epochs = 12\ntrain.warmup = 1\n")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "longremix", "train", "--config", str(conf),
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("warning: stage1-hct captured an empty core set; every clean-set "
                           "snapshot of its second half was empty\n")
    summary = json.loads((out / "metrics.json").read_text())["summary"]
    assert summary["core_set_size"] == 0


def test_help_documents_subcommands():
    parser = cli.build_parser()
    help_text = parser.format_help()
    for name in ("train", "lemma", "noise", "report", "prcurve"):
        assert name in help_text


def test_runtime_error_exits_3(tmp_path, capsys, monkeypatch):
    path, out = write_conf(tmp_path)

    def disk_full(outdir, texts):
        raise OSError(28, "No space left on device")

    # an OS error while writing the bundle surfaces as a runtime failure, not a crash
    monkeypatch.setattr(report, "write_files", disk_full)
    assert cli.main(["train", "--config", str(path)]) == 3
    assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("command", ["train", "prcurve", "lemma", "noise", "report"])
def test_output_path_naming_a_file_rejected_before_work(tmp_path, capsys, monkeypatch, command):
    path, _ = write_conf(tmp_path, mode="full-longremix")
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    args = {"train": ["train", "--config", str(path)],
            "prcurve": ["prcurve", "--config", str(path)],
            "lemma": LEMMA,
            "noise": ["noise", "--kind", "none", "--n", "50", "--classes", "2"],
            "report": ["report", "--metrics", str(tmp_path / "metrics.json")]}[command]
    # any work would fail loudly: the check comes before training or sweeping
    monkeypatch.setattr(cli, "run_training", None)
    monkeypatch.setattr(cli, "run_stage1_hct", None)
    monkeypatch.setattr(cli.lemma, "sweep_zeta", None)
    assert cli.main(args + ["--out", str(blocked)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: output path {blocked} exists and is not a directory\n"
    # a path below a file is checked at its nearest existing ancestor
    assert cli.main(args + ["--out", str(blocked / "sub")]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: output path {blocked / 'sub'} is below {blocked}, "
                   "which is not a directory\n")
    assert blocked.read_text() == "a file, not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "exp.conf"]


def test_outdir_env_names_a_file(tmp_path, capsys, monkeypatch):
    blocked = tmp_path / "blocked"
    blocked.write_text("")
    monkeypatch.setenv(cli.OUTDIR_ENV, str(blocked))
    assert cli.main(LEMMA + ["--trials", "0"]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert blocked.read_text() == ""


def test_build_experiment_ignores_outdir_env(monkeypatch):
    monkeypatch.setenv(cli.OUTDIR_ENV, "elsewhere")
    assert config.build_experiment({}).output.dir == "runs/experiment"
    assert config.build_experiment({"output.dir": "runs/x"}).output.dir == "runs/x"


def test_fmt_sig_six_significant_digits():
    assert report.fmt_sig(0.123456789) == "0.123457"
    assert report.fmt_sig(1234567.0) == "1.23457e+06"
    assert report.fmt_sig(True) == "true"
    assert report.fmt_sig(None) == ""
    assert report.fmt_sig(7) == "7"


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pair's workers are forked")


@needs_fork
class TestPairTransports:
    """The pair runs in two forked workers or in this process
    (``trainer._use_workers`` decides); the outputs, the failure lines and
    the processes left afterwards (none) must not tell them apart."""

    DUMPS = "report.plan_digests = true\nreport.checkpoints = true\n"
    # fails in a train epoch after warmup, in every mode
    HUGE_LR = "train.lr = 40\n"

    def run_both(self, tmp_path, monkeypatch, capsys, args):
        """(exit code, stderr, output files) of ``args`` on each path, into
        the same directory, which is emptied between the runs."""
        results = []
        for workers in (True, False):
            monkeypatch.setattr(trainer, "_use_workers", lambda: workers)
            code = cli.main(args)
            assert not multiprocessing.active_children()
            out = tmp_path / "out"
            files = _tree_bytes(out) if out.exists() else {}
            results.append((code, capsys.readouterr().err, files))
            if out.exists():
                shutil.rmtree(out)
        return results

    @pytest.mark.parametrize("command,mode", [("train", mode) for mode in trainer.MODES]
                             + [("prcurve", "full-longremix")])
    def test_same_bytes_and_failure_lines(self, tmp_path, monkeypatch, capsys, command, mode):
        dumps = self.DUMPS + ("" if mode == "ce" else "report.gmm_dump = true\n")
        path, _ = write_conf(tmp_path, mode=mode, extra=dumps)
        workers, in_process = self.run_both(tmp_path, monkeypatch, capsys,
                                            [command, "--config", str(path)])
        assert workers[0] == 0 and workers[2]
        assert workers == in_process
        path, _ = write_conf(tmp_path, mode=mode, extra=dumps + self.HUGE_LR)
        workers, in_process = self.run_both(tmp_path, monkeypatch, capsys,
                                            [command, "--config", str(path)])
        assert workers[0] == 3 and workers[1].startswith("error: non-finite parameters in ")
        assert workers == in_process

    def test_dead_worker_is_one_state_error(self, tmp_path, capsys, monkeypatch):
        path, out = write_conf(tmp_path)
        train = trainer._Member.train

        def exit_in_model2(member, *args):
            if member.m == 1:
                os._exit(1)
            return train(member, *args)

        monkeypatch.setattr(trainer, "_use_workers", lambda: True)
        monkeypatch.setattr(trainer._Member, "train", exit_in_model2)
        assert cli.main(["train", "--config", str(path)]) == 3
        assert capsys.readouterr().err == "error: the model2 worker exited without replying\n"
        assert not multiprocessing.active_children()
        assert not Path(out).exists()

    def test_failed_start_runs_in_process(self, tmp_path, capsys, monkeypatch):
        # the second worker cannot start: the first is stopped, and the
        # whole stage runs in this process
        path, _ = write_conf(tmp_path, mode="ce")
        start, started = multiprocessing.context.ForkProcess.start, []

        def second_fails(proc):
            started.append(proc)
            if len(started) == 2:
                raise OSError(11, "Resource temporarily unavailable")
            start(proc)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", second_fails)
        workers, in_process = self.run_both(tmp_path, monkeypatch, capsys,
                                            ["train", "--config", str(path)])
        assert len(started) == 2
        assert workers[0] == 0 and workers == in_process


@pytest.mark.parametrize("cpus,workers", [({0}, False), ({0, 1}, hasattr(os, "fork"))])
def test_workers_need_two_usable_cpus(monkeypatch, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert trainer._use_workers() is workers
