import codecs
import collections
import hashlib
import json
import multiprocessing
import os
import re
import resource
import select
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from longremix import cli, config, data, report, trainer
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
    "report.formats = json,csv",
    "report.prcurve = true",
    "report.tau_grid = 0.0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95,1.0",
    "report.gmm_dump = false",
    "report.plan_digests = false",
    "report.checkpoints = false",
)


def write_conf(tmp_path, mode="baseline", name="exp.conf", extra=""):
    """The config file and the output directory that its runs pass as ``--out``."""
    path = tmp_path / name
    path.write_text(BASE_CONF.format(mode=mode) + extra)
    return path, str(tmp_path / "out")


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
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert doc["schema_version"] == 2
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
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
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
            "train.mode = baseline\ntrain.epochs = 8\ntrain.warmup = 4\ntrain.zeta = 3\n")
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert doc["summary"]["best_acc"] >= 0.95
        assert doc["noise"]["kind"] == "none"
        assert doc["noise"]["flipped_count"] == 0

    def test_epochs_csv_row_count(self, tmp_path):
        path, out = write_conf(tmp_path, mode="baseline")
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
        lines = (tmp_path / "out" / "epochs.csv").read_text().strip().splitlines()
        # warmup 2 + train 6 epochs, single stage, plus header
        assert len(lines) == 1 + 8

    def test_bundle_bytes_do_not_depend_on_the_output_path(self, tmp_path):
        path, _ = write_conf(tmp_path, mode="full-longremix",
                             extra="report.gmm_dump = true\nreport.plan_digests = true\n"
                                   "report.checkpoints = true\n")
        short, long = tmp_path / "a", tmp_path / "much" / "longer" / "b"
        for out in (short, long):
            assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
        files = _tree_bytes(short)
        assert sorted(files) == ["bundle.json", "epochs.csv", "gmm.jsonl", "metrics.json",
                                 "model1.ckpt", "model2.ckpt", "plans.csv", "prcurve.csv"]
        assert _tree_bytes(long) == files

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
        monkeypatch.chdir(tmp_path)  # the default directory is relative
        monkeypatch.setenv(cli.OUTDIR_ENV, str(envdir))
        assert cli.main(["train", "--config", str(path)]) == 0
        assert (envdir / "metrics.json").exists()
        assert not (tmp_path / cli.RUN_OUTDIR).exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # as Windows editors save UTF-8 text
        path, out = write_conf(tmp_path, mode="baseline")
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
        want = _tree_bytes(out)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "bom")]) == 0
        assert _tree_bytes(tmp_path / "bom") == want

    def test_all_metrics_finite(self, tmp_path):
        path, out = write_conf(tmp_path, mode="longmix")
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
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
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
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
        # prcurve writes prcurve.csv whatever report.formats says
        path, out = write_conf(tmp_path, mode="full-longremix", extra="report.formats =\n")
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


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


class TestNoiseCommand:
    def test_defaults_are_the_spec_fields(self, tmp_path):
        args = cli.build_parser().parse_args(["noise", "--kind", "none"])
        noise, dataset = data.NoiseSpec(), config.DatasetSpec()
        assert (args.eta, args.seed) == (noise.eta, noise.seed)
        # the synthetic dataset's flags stay unset unless given, so that --csv
        # can reject them; unset, they take the config fields' values
        assert (args.dataset, args.n, args.classes, args.spread, args.data_seed) == (None,) * 5
        assert cli.main(["noise", "--kind", "none", "--out", str(tmp_path)]) == 0
        ds = data.make_synthetic_dataset(dataset.kind, dataset.n, dataset.classes, dataset.spread,
                                         seed=trainer.TrainConfig().data_seed)
        assert (tmp_path / "dataset.csv").read_bytes() == data.dataset_csv_text(ds).encode()

    def test_sidecar_matches_csv(self, tmp_path):
        for kind, eta, flags, mapping in [
                ("symmetric", 0.5, [], None),
                ("asymmetric", 0.4, ["--mapping", "0:1,2:3"], {"0": 1, "2": 3})]:
            out = tmp_path / kind
            assert cli.main(["noise", "--kind", kind, "--eta", str(eta), "--seed", "3", *flags,
                             "--n", "100", "--classes", "4", "--out", str(out)]) == 0
            # strict JSON: a NaN or an Infinity fails the parse
            side = json.loads((out / "dataset.noise.json").read_text(),
                              parse_constant=_reject_constant)
            assert side == {"kind": kind, "eta": eta, "mapping": mapping, "seed": 3,
                            "flipped_count": side["flipped_count"]}
            assert 0 < side["flipped_count"] < 100
            lines = (out / "dataset.csv").read_text().strip().splitlines()
            assert len(lines) == 101

    def test_dataset_csv_bytes_are_the_rendered_text(self, tmp_path):
        assert cli.main(["noise", "--kind", "symmetric", "--eta", "0.3", "--n", "40",
                         "--classes", "4", "--out", str(tmp_path)]) == 0
        ds = data.make_synthetic_dataset("blobs", 40, 4, 0.15, seed=1)
        noisy = data.apply_noise(ds, data.NoiseSpec(kind="symmetric", eta=0.3, seed=0))
        written = (tmp_path / "dataset.csv").read_bytes()
        assert written == data.dataset_csv_text(noisy).encode("utf-8")
        assert written.count(b"\r\n") == 41

    # the dataset.csv digests of these runs at an earlier commit: the noise
    # draws must not change
    @pytest.mark.parametrize("args,digest", [
        (["--kind", "symmetric", "--eta", "0.5", "--classes", "4"],
         "5969175253b644535de9747d1325c6ad860ef188688a7a480e1c2a1301730fbb"),
        (["--kind", "asymmetric", "--eta", "0.4", "--mapping", "0:1,2:3", "--classes", "4"],
         "38ce46864b7e126dba9e50a92863c8ef50913b4b66f244f446eb4c11fca717da"),
        (["--kind", "symmetric", "--eta", "0.5", "--dataset", "moons", "--classes", "2"],
         "615e10c404c2e7f0af33cfc35e0cf94335f12612f64025e44fab03f0e1058766"),
    ], ids=["symmetric", "asymmetric", "moons"])
    def test_noised_csv_bytes_are_pinned(self, tmp_path, args, digest):
        assert cli.main(["noise", *args, "--n", "300", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "dataset.csv").read_bytes()).hexdigest() == digest

    def test_no_test_set_rule(self, tmp_path):
        # noise builds no test set: DatasetSpec's test_n rule does not apply
        assert cli.main(["noise", "--kind", "none", "--n", "1200", "--classes", "1200",
                         "--out", str(tmp_path)]) == 0

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


class TestOptionalDumps:
    def test_gmm_jsonl_rows(self, tmp_path):
        path, out = write_conf(tmp_path, extra="report.gmm_dump = true\n")
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
        lines = (tmp_path / "out" / "gmm.jsonl").read_text().strip().splitlines()
        rows = [json.loads(ln) for ln in lines]
        assert len(rows) == 6 * 2  # one per selection epoch per model
        for row in rows:
            assert set(row) == {"epoch", "model", "weights", "means", "variances", "collapsed"}
            assert len(row["means"]) == 2

    def test_plan_digests_csv(self, tmp_path):
        path, out = write_conf(tmp_path, extra="report.plan_digests = true\n")
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
        lines = (tmp_path / "out" / "plans.csv").read_text().strip().splitlines()
        assert lines[0] == "stage,epoch,model,digest"
        assert len(lines) == 1 + 6 * 2
        digest = lines[1].split(",")[-1]
        assert len(digest) == 64  # sha256 hex

    def test_checkpoints_reloadable(self, tmp_path):
        path, out = write_conf(tmp_path, extra="report.checkpoints = true\n")
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
        net = load_checkpoint(tmp_path / "out" / "model1.ckpt")
        assert net.tag == "model1"
        assert net.input_dim == 2

    def test_dumps_without_formats(self, tmp_path):
        # with a dump on, an empty report.formats still writes results
        path, out = write_conf(tmp_path, extra="report.formats =\nreport.gmm_dump = true\n"
                                                "report.checkpoints = true\n")
        assert cli.main(["train", "--config", str(path), "--out", out]) == 0
        assert sorted(p.name for p in Path(out).iterdir()) == [
            "bundle.json", "gmm.jsonl", "model1.ckpt", "model2.ckpt"]


def _separable_rows():
    """200 rows of two classes a unit either side of zero, alternating cat/dog."""
    rng = np.random.default_rng(0)
    return [(sign + rng.normal(scale=0.1), label)
            for sign, label in ((-1.0, "cat"), (1.0, "dog")) * 100]


def _write_csv(path, rows, width=1):
    """A feature of None is written as an empty cell; a lone surrogate in a
    label is written as the byte it escapes (``surrogateescape``)."""
    header = ",".join(f"x{j}" for j in range(width))
    path.write_bytes((f"{header},label\n" + "".join(
        ",".join(["" if x is None else repr(x)] * width) + f",{label}\n" for x, label in rows)
    ).encode("utf-8", "surrogateescape"))


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
    ("training-file-nan-cell", ROWS[:4] + [(float("nan"), "cat")] + ROWS[4:], ROWS, 1,
     "baseline", 2, "train.csv: row 6: non-finite value 'nan' in column 'x0'"),
    ("single-class-training", [r for r in ROWS if r[1] == "cat"], ROWS, 1, "baseline", 2,
     "train.csv: every training label is 'cat'; training needs at least 2 classes"),
    ("single-class-test-file", ROWS, [r for r in ROWS if r[1] == "dog"], 1, "baseline", 0, None),
    ("test-width-differs", ROWS, ROWS, 2, "baseline", 2, "test.csv has 2 feature columns"),
    ("three-training-rows", ROWS[:3], ROWS, 1, "baseline", 2, "train.csv: 3 training rows"),
    ("training-file-missing", None, ROWS, 1, "baseline", 2,
     "cannot read dataset train.csv: [Errno 2] No such file or directory: 'train.csv'"),
    ("test-file-missing", ROWS, None, 1, "baseline", 2,
     "cannot read dataset test.csv: [Errno 2] No such file or directory: 'test.csv'"),
    ("training-file-not-utf8", ROWS[:3] + [(0.0, "caf\udce9")] + ROWS[3:], ROWS, 1, "baseline", 2,
     "cannot read dataset train.csv: 'utf-8' codec can't decode byte 0xe9 in position "),
    ("test-file-not-utf8", ROWS, ROWS[:3] + [(0.0, "\udcffdog")] + ROWS[3:], 1, "baseline", 2,
     "cannot read dataset test.csv: 'utf-8' codec can't decode byte 0xff in position "),
    ("training-cell-over-field-limit", ROWS[:3] + [(0.0, '"' + "a" * 200_000 + '"')] + ROWS[3:],
     ROWS, 1, "baseline", 2, "train.csv: row 5: field larger than field limit (131072)"),
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
                    "train.zeta = 2\n")
    assert cli.main(["train", "--config", str(conf), "--out", "out"]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()
        return
    # the same rows in first-appearance order score the same
    got = json.loads((tmp_path / "out" / "metrics.json").read_text())["summary"]["best_acc"]
    _write_csv(tmp_path / "test.csv", sorted(test_rows, key=lambda r: r[1] != "cat"), width)
    assert cli.main(["train", "--config", str(conf), "--out", "out"]) == 0
    want = json.loads((tmp_path / "out" / "metrics.json").read_text())["summary"]["best_acc"]
    assert got == want == 1.0


# (mode, config lines, exit code, stderr after its prefix): a config error
# before training, or a run stopped where a parameter or an output became NaN or inf
VALUE_CASES = [
    ("baseline", "train.alpha = nan", 2, "train.alpha: expected a finite number, got 'nan'"),
    ("baseline", "train.lambda_u = nan", 2, "train.lambda_u: expected a finite number, got 'nan'"),
    ("baseline", "train.lr = nan", 2, "train.lr: expected a finite number, got 'nan'"),
    ("baseline", "train.lr = inf", 2, "train.lr: expected a finite number, got 'inf'"),
    ("baseline", "dataset.spread = nan", 2, "dataset.spread: expected a finite number, got 'nan'"),
    ("baseline", "report.tau_grid = 0.5,nan", 2, "report.tau_grid: expected a finite number, got 'nan'"),
    ("baseline", "train.hidden = -1", 2, "train.hidden widths must be >= 1, got (-1,)"),
    ("baseline", "train.hidden = 64,0", 2, "train.hidden widths must be >= 1, got (64, 0)"),
    ("baseline", "train.lr = 0", 2, "train.lr must be positive, got 0.0"),
    ("baseline", "train.weight_decay = -0.1", 2, "train.weight_decay must be non-negative, got -0.1"),
    ("baseline", "train.lr_drop = -1", 2, "train.lr_drop must be in (0, 1], got -1.0"),
    ("baseline", "train.lr_drop = 0", 2, "train.lr_drop must be in (0, 1], got 0.0"),
    ("baseline", "train.lr_drop = 1.5", 2, "train.lr_drop must be in (0, 1], got 1.5"),
    ("baseline", "train.momentum = -5", 2, "train.momentum must be in [0, 1), got -5.0"),
    ("baseline", "train.momentum = 1", 2, "train.momentum must be in [0, 1), got 1.0"),
    ("baseline", "report.tau_grid = 0.5,1.5", 2, "report.tau_grid values must be in [0, 1], got 1.5"),
    ("baseline", "report.tau_grid = -0.1,0.5", 2, "report.tau_grid values must be in [0, 1], got -0.1"),
    ("baseline", "report.tau_grid =", 2, "report.tau_grid must list at least one threshold"),
    ("baseline", "train.hidden = 64,,64", 2, "train.hidden: blank item in '64,,64'"),
    ("baseline", "train.lr = 1e3", 3, "non-finite parameters in model1 after baseline warmup epoch 2"),
    ("baseline", "train.lr = 30", 3, "non-finite parameters in model2 after baseline train epoch 6"),
    ("longmix", "train.lr = 20", 3,
     "non-finite outputs of model2 at the start of longmix train epoch 2"),
    ("full-longremix", "train.lr = 10", 3,
     "non-finite parameters in model1 after stage2-guided train epoch 1"),
    ("baseline", "train.data_seed = -4", 2, "train.data_seed must be >= 0, got -4"),
    ("baseline", "noise.seed = -1", 2, "noise.seed must be >= 0, got -1"),
    ("baseline", "noise.mapping = 0:1", 2,
     "a class mapping needs asymmetric noise, got kind 'symmetric'"),
    ("baseline", "noise.kind = none", 2,
     "a noise rate needs symmetric or asymmetric noise, got kind 'none'"),
    ("baseline", "output.dir = x", 2, "unknown config key: output.dir"),
    ("baseline", "report.formats =", 2,
     "report.formats is empty and no dump is on: the run would write no results"),
    ("baseline", "dataset.n = 3", 2, "dataset.n must be >= dataset.classes (4), got 3"),
    ("baseline", "dataset.test_n = 0", 2, "dataset.test_n must be >= dataset.classes (4), got 0"),
    ("baseline", "dataset.classes = 1", 2, "dataset.classes must be >= 2, got 1"),
    ("baseline", "dataset.spread = 0", 2, "dataset.spread must be finite and positive, got 0.0"),
    # too few rows for the loss mixture, the one guard before its fit
    ("baseline", "dataset.classes = 2\ndataset.n = 3", 2,
     "dataset.n: 3 training rows; the loss mixture needs at least 4"),
    # a count past data.MAX_COUNT is a config error, not numpy's size ValueError
    ("baseline", "dataset.n = 99999999999999999999999", 2,
     "dataset.n must be <= 9007199254740992, got 99999999999999999999999"),
    ("baseline", "dataset.test_n = 99999999999999999999999", 2,
     "dataset.test_n must be <= 9007199254740992, got 99999999999999999999999"),
    ("baseline", "train.hidden = 99999999999999999999999", 2,
     "train.hidden widths must be <= 9007199254740992, got (99999999999999999999999,)"),
    # a window length is a count too: past 2**63 - 1 no deque can hold it
    ("baseline", "train.zeta = 9223372036854775808\ntrain.epochs = 9223372036854775808", 2,
     "train.zeta must be <= 9007199254740992, got 9223372036854775808"),
    # each width is a count, but one weight matrix holds more bytes than an array may
    ("baseline", "train.hidden = 1000,9007199254740992", 3,
     "out of memory: array is too big; `arr.size * arr.dtype.itemsize` is larger than the "
     "maximum possible size."),
    ("baseline", "dataset.kind = moons", 2,
     "dataset.kind = moons needs dataset.classes = 2, got 4"),
    ("baseline", "report.prcurve = maybe", 2, "report.prcurve: expected a boolean, got 'maybe'"),
    ("baseline", "train.tau = abc", 2, "train.tau: expected a number, got 'abc'"),
    ("baseline", "noise.mapping = 0-1", 2, "noise.mapping: expected 'src:dst' pairs, got '0-1'"),
    ("baseline", "report.formats = xml", 2, "unknown report format: 'xml'"),
    ("baseline", "dataset.kind = spiral", 2, "unknown dataset kind: 'spiral'"),
    ("baseline", "dataset.kind = csv", 2, "dataset.path is required for csv datasets"),
    ("baseline", "noise.kind = bogus", 2, "unknown noise kind: 'bogus'"),
    ("baseline", "noise.eta = 1.5", 2, "symmetric noise rate must be in [0, 1), got 1.5"),
    ("baseline", "noise.kind = asymmetric\nnoise.eta = 0.5\nnoise.mapping = 0:1", 2,
     "asymmetric noise rate must be below the theoretical limit of 0.5, got 0.5"),
    ("baseline", "noise.kind = asymmetric\nnoise.eta = 0.3\nnoise.mapping = 2:2", 2,
     "asymmetric mapping 2->2 maps a class to itself"),
    # the class range is the dataset's, checked once it is built, before training
    ("baseline", "noise.kind = asymmetric\nnoise.eta = 0.3\nnoise.mapping = 0:9", 2,
     "mapping 0->9 outside class range [0, 4)"),
    ("baseline", "train.mode = divide", 2, "train.mode must be one of ('ce', 'baseline', "
     "'longmix', 'retrain-only', 'full-longremix'), got 'divide'"),
    ("baseline", "train.tau = 1.5", 2, "train.tau must be in [0, 1], got 1.5"),
    ("baseline", "train.zeta = 0", 2, "train.zeta must be >= 1, got 0"),
    ("baseline", "train.epochs = 2", 2, "train.epochs must be >= train.zeta (3), got 2"),
    ("baseline", "train.epochs = many", 2, "train.epochs: expected an integer, got 'many'"),
    ("baseline", "train.warmup = 0", 2, "train.warmup must be >= 1, got 0"),
    ("baseline", "train.alpha = 0", 2, "train.alpha must be positive, got 0.0"),
    ("baseline", "train.lambda_u = -1", 2, "train.lambda_u must be non-negative, got -1.0"),
    ("baseline", "train.lambda_reg = -1", 2, "train.lambda_reg must be non-negative, got -1.0"),
    ("baseline", "train.batch_size = 0", 2, "train.batch_size must be >= 1, got 0"),
    ("ce", "report.gmm_dump = true", 2,
     "report.gmm_dump = true needs GMM fits, which train.mode = ce does not run"),
]


@pytest.mark.parametrize("mode,line,code,message", VALUE_CASES,
                         ids=[f"{mode}: {line}".replace("\n", "; ")
                              for mode, line, _, _ in VALUE_CASES])
def test_value_contract(tmp_path, capsys, monkeypatch, mode, line, code, message):
    monkeypatch.chdir(tmp_path)  # a relative path, such as output.dir's x, lands here
    path, out = write_conf(tmp_path, mode=mode)
    keys = tuple(ln.split("=")[0] for ln in line.splitlines())
    kept = [ln for ln in path.read_text().splitlines() if not ln.startswith(keys)]
    path.write_text("\n".join(kept + [line]) + "\n")
    assert cli.main(["train", "--config", str(path), "--out", out]) == code
    assert capsys.readouterr().err == {2: "config error: ", 3: "error: "}[code] + message + "\n"
    # a failed run writes nothing: no output directory, and no file in the working directory
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_ce_trains_on_fewer_rows_than_the_mixture_needs(tmp_path, capsys):
    # ce fits no mixture, so the rows rule of the other modes does not apply
    path, out = write_conf(tmp_path, mode="ce")
    path.write_text(path.read_text().replace("dataset.n = 300", "dataset.n = 3")
                    .replace("dataset.classes = 4", "dataset.classes = 2"))
    assert cli.main(["train", "--config", str(path), "--out", out]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((tmp_path / "out" / "metrics.json").read_text())["dataset"]["n"] == 3


# BASE_CONF's dataset, as noise flags
BASE_DATASET = {"dataset.kind": "blobs", "dataset.n": "300", "dataset.classes": "4",
                "dataset.spread": "0.15"}


# VALUE_CASES rows of a spec rule about a key that has a noise flag; a parse
# error such as "dataset.spread: expected a finite number" is the config reader's own
NOISE_RULE_CASES = [(line, message) for _, line, _, message in VALUE_CASES
                    if line.split(" = ")[0] in cli.NOISE_FLAGS
                    and message.startswith(line.split(" = ")[0] + " ")]


@pytest.mark.parametrize("line,message", NOISE_RULE_CASES, ids=[c[0] for c in NOISE_RULE_CASES])
def test_noise_flag_rules_are_the_config_rules(tmp_path, capsys, line, message):
    key, _, value = line.partition(" = ")
    flags = {**BASE_DATASET, key: value}
    args = [arg for k, v in flags.items() for arg in (cli.NOISE_FLAGS[k], v)]
    assert cli.main(["noise", "--kind", "none", *args, "--out", str(tmp_path / "out")]) == 2
    for k, flag in cli.NOISE_FLAGS.items():
        message = message.replace(f"{k} = ", f"{flag} ").replace(k, flag)
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


# Input files, each written into the test's directory: an empty config,
# malformed configs and CSV files, and files that are not UTF-8.
INPUT_FILES = {"empty.conf": b"",
               "latin1.conf": b"dataset.n = 200\nnoise.kind = caf\xe9\n",
               "latin1.csv": b"x0,label\n0.5,caf\xe9\n",
               "no-equals.conf": b"dataset.n = 200\ndataset.classes 4\n",
               "empty-key.conf": b"# a comment\n = 4\n",
               "two-class.csv": b"x0,label\n0.1,a\n0.2,b\n0.3,a\n0.4,b\n",
               "csv-no-test.conf": b"dataset.kind = csv\ndataset.path = two-class.csv\n",
               "missing-csv-no-test.conf": b"dataset.kind = csv\ndataset.path = missing.csv\n",
               "empty.csv": b"",
               "header-only.csv": b"x0,label\n",
               "one-column.csv": b"label\na\n",
               "no-label-column.csv": b"x0,y\n0.5,a\n",
               "empty-label.csv": b"x0,label\n0.5,a\n0.6, \n",
               "three-rows-ce.conf": b"dataset.n = 3\ndataset.classes = 2\ntrain.mode = ce\n",
               "duplicate-key.conf": b"train.lr = 0.1\ntrain.lr = 0.2\n",
               "ragged.csv": b"x0,x1,label\n1,2,c\n1,2\n",
               "non-numeric.csv": b"x0,label\nbanana,c\n",
               "inf.csv": b"x0,x1,label\n1,2,c\n3,inf,d\n",
               "minus-infinity.csv": b"x0,x1,label\n1,2,c\n3,-Infinity,d\n"}
LEMMA = ["lemma", "--pcc", "0.8", "--pnn", "0.7", "--pc", "0.5"]

# (case, arguments, start of the stderr line after "config error: ") for bad
# flags and inputs other than config values; {tmp} is the test's directory,
# which holds the INPUT_FILES
COMMAND_CASES = [
    ("lemma-zetas-not-int", LEMMA + ["--zetas", "1,a"], "--zetas: expected an integer, got 'a'"),
    ("lemma-negative-trials", LEMMA + ["--trials", "-1"], "--trials must be >= 0, got -1"),
    ("lemma-zetas-empty", LEMMA + ["--zetas", ""], "zeta range must be non-empty"),
    ("lemma-zeta-max-zero", LEMMA + ["--zeta-max", "0"], "zeta range must be non-empty"),
    ("lemma-zetas-zero", LEMMA + ["--zetas", "0"], "window length must be a positive integer, got 0"),
    ("lemma-zetas-first-bad-window", LEMMA + ["--zetas", "3,0,-1"],
     "window length must be a positive integer, got 0"),
    # the windows are checked where they enter, before sweep_zeta checks the rates
    ("lemma-window-before-rate", ["lemma", "--pcc", "0.8", "--pnn", "0.7", "--pc", "1.5",
                                  "--zetas", "3,0,-1"],
     "window length must be a positive integer, got 0"),
    ("lemma-zetas-blank-item", LEMMA + ["--zetas", "1,,3"], "--zetas: blank item in '1,,3'"),
    # every zeta is checked before the first row: zeta 0 fails before the row of
    # zeta 8000, where both survival masses underflow, is computed
    ("lemma-long-window-then-zero", LEMMA + ["--zetas", "8000,0", "--trials", "0"],
     "window length must be a positive integer, got 0"),
    ("noise-spread-nan", ["noise", "--kind", "none", "--spread", "nan"],
     "--spread must be finite and positive, got nan"),
    ("noise-spread-inf", ["noise", "--kind", "none", "--spread", "inf"],
     "--spread must be finite and positive, got inf"),
    ("noise-spread-zero", ["noise", "--kind", "none", "--spread", "0"],
     "--spread must be finite and positive, got 0.0"),
    ("noise-rate-without-kind", ["noise", "--kind", "none", "--eta", "nan"],
     "a noise rate needs symmetric or asymmetric noise, got kind 'none'"),
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
    ("train-config-not-utf8", ["train", "--config", "{tmp}/latin1.conf"],
     "cannot read config {tmp}/latin1.conf: 'utf-8' codec can't decode byte 0xe9 in position 32"),
    ("noise-csv-not-utf8", ["noise", "--kind", "none", "--csv", "{tmp}/latin1.csv"],
     "cannot read dataset {tmp}/latin1.csv: 'utf-8' codec can't decode byte 0xe9 in position 16"),
    ("train-config-line-without-equals", ["train", "--config", "{tmp}/no-equals.conf"],
     "line 2: expected 'key = value', got 'dataset.classes 4'"),
    ("train-config-empty-key", ["train", "--config", "{tmp}/empty-key.conf"], "line 2: empty key"),
    ("train-csv-without-test-path", ["train", "--config", "{tmp}/csv-no-test.conf"],
     "dataset.test_path is required for csv training runs"),
    # a config without it fails at load, before its training CSV is read
    ("train-csv-without-test-path-unread", ["train", "--config", "{tmp}/missing-csv-no-test.conf"],
     "dataset.test_path is required for csv training runs"),
    ("noise-asymmetric-without-mapping", ["noise", "--kind", "asymmetric", "--eta", "0.2"],
     "asymmetric noise needs a class mapping"),
    ("noise-one-class", ["noise", "--kind", "none", "--classes", "1"],
     "--classes must be >= 2, got 1"),
    ("noise-moons-three-classes", ["noise", "--kind", "none", "--dataset", "moons",
                                   "--classes", "3"], "--dataset moons needs --classes 2, got 3"),
    ("noise-n-below-classes", ["noise", "--kind", "none", "--n", "3", "--classes", "4"],
     "--n must be >= --classes (4), got 3"),
    # counts past data.MAX_COUNT are config errors, not numpy's size ValueError
    ("noise-n-past-max-count", ["noise", "--kind", "none", "--n", "99999999999999999999999"],
     "--n must be <= 9007199254740992, got 99999999999999999999999"),
    ("lemma-trials-past-max-count", LEMMA + ["--zetas", "1", "--trials", "99999999999999999999999"],
     "Monte-Carlo trials must be <= 9007199254740992, got 99999999999999999999999"),
    # checked before the window range is built
    ("lemma-zeta-max-past-max-count", LEMMA + ["--trials", "0", "--zeta-max", "9007199254740993"],
     "--zeta-max must be <= 9007199254740992, got 9007199254740993"),
    ("noise-csv-empty", ["noise", "--kind", "none", "--csv", "{tmp}/empty.csv"],
     "{tmp}/empty.csv: row 1: empty file"),
    ("noise-csv-header-only", ["noise", "--kind", "none", "--csv", "{tmp}/header-only.csv"],
     "{tmp}/header-only.csv: row 1: no data rows"),
    ("noise-csv-one-column", ["noise", "--kind", "none", "--csv", "{tmp}/one-column.csv"],
     "{tmp}/one-column.csv: row 1: need at least one feature column and a label column"),
    ("noise-csv-last-column-not-label",
     ["noise", "--kind", "none", "--csv", "{tmp}/no-label-column.csv"],
     "{tmp}/no-label-column.csv: row 1: last column must be named 'label', got 'y'"),
    ("noise-csv-empty-label", ["noise", "--kind", "none", "--csv", "{tmp}/empty-label.csv"],
     "{tmp}/empty-label.csv: row 3: missing label"),
    # a CSV file is the whole dataset: the synthetic dataset's flags do not apply to it
    ("noise-csv-with-dataset", ["noise", "--kind", "none", "--csv", "{tmp}/two-class.csv",
                                "--dataset", "moons"], "--dataset does not apply to --csv"),
    ("noise-csv-with-n", ["noise", "--kind", "none", "--csv", "{tmp}/two-class.csv", "--n", "7"],
     "--n does not apply to --csv"),
    ("noise-csv-with-classes", ["noise", "--kind", "none", "--csv", "{tmp}/two-class.csv",
                                "--classes", "1"], "--classes does not apply to --csv"),
    ("noise-csv-with-spread", ["noise", "--kind", "none", "--csv", "{tmp}/two-class.csv",
                               "--spread", "nan"], "--spread does not apply to --csv"),
    # the flags are checked before the file is read
    ("noise-csv-with-data-seed", ["noise", "--kind", "none", "--csv", "{tmp}/missing.csv",
                                  "--data-seed", "1"], "--data-seed does not apply to --csv"),
    ("noise-csv-rate-unread", ["noise", "--csv", "{tmp}/missing.csv", "--kind", "symmetric",
                               "--eta", "1.5"], "symmetric noise rate must be in [0, 1), got 1.5"),
    ("noise-csv-mapping-unread", ["noise", "--csv", "{tmp}/missing.csv", "--kind", "symmetric",
                                  "--eta", "0.2", "--mapping", "0:1"],
     "a class mapping needs asymmetric noise, got kind 'symmetric'"),
    # prcurve fits the mixture whatever the mode
    ("prcurve-three-rows-ce", ["prcurve", "--config", "{tmp}/three-rows-ce.conf"],
     "dataset.n: 3 training rows; the loss mixture needs at least 4"),
    # an explicit empty --out names no directory; it does not fall back to the default
    ("lemma-out-empty", LEMMA + ["--trials", "0", "--zetas", "1", "--out", ""],
     "--out must not be empty"),
    ("train-out-empty", ["train", "--config", "{tmp}/empty.conf", "--out", ""],
     "--out must not be empty"),
    ("prcurve-out-empty", ["prcurve", "--config", "{tmp}/empty.conf", "--out", ""],
     "--out must not be empty"),
    ("noise-out-empty", ["noise", "--kind", "none", "--n", "8", "--classes", "2", "--out", ""],
     "--out must not be empty"),
    ("train-config-missing", ["train", "--config", "{tmp}/missing.conf"],
     "cannot read config {tmp}/missing.conf: [Errno 2] No such file or directory: "
     "'{tmp}/missing.conf'"),
    ("train-config-duplicate-key", ["train", "--config", "{tmp}/duplicate-key.conf"],
     "line 2: duplicate key 'train.lr'"),
    ("noise-csv-ragged-row", ["noise", "--kind", "none", "--csv", "{tmp}/ragged.csv"],
     "{tmp}/ragged.csv: row 3: expected 3 columns, got 2"),
    ("noise-csv-non-numeric", ["noise", "--kind", "none", "--csv", "{tmp}/non-numeric.csv"],
     "{tmp}/non-numeric.csv: row 2: non-numeric value 'banana' in column 'x0'"),
    ("noise-csv-inf", ["noise", "--kind", "none", "--csv", "{tmp}/inf.csv"],
     "{tmp}/inf.csv: row 3: non-finite value 'inf' in column 'x1'"),
    ("noise-csv-minus-infinity", ["noise", "--kind", "none", "--csv", "{tmp}/minus-infinity.csv"],
     "{tmp}/minus-infinity.csv: row 3: non-finite value '-Infinity' in column 'x1'"),
    ("noise-asymmetric-rate-past-limit",
     ["noise", "--kind", "asymmetric", "--eta", "0.6", "--mapping", "0:1"],
     "asymmetric noise rate must be below the theoretical limit of 0.5, got 0.6"),
    ("noise-mapping-not-int", ["noise", "--kind", "asymmetric", "--eta", "0.3", "--mapping", "a:1"],
     "--mapping: expected an integer, got 'a'"),
    # the rates are checked before the first row, in the order p_cc, p_nn, p_c
    ("lemma-pcc-above-one", ["lemma", "--pcc", "1.5", "--pnn", "0.7", "--pc", "0.5"],
     "p_cc must lie strictly inside (0, 1), got 1.5"),
    ("lemma-pnn-one", ["lemma", "--pcc", "0.8", "--pnn", "1", "--pc", "0.5"],
     "p_nn must lie strictly inside (0, 1), got 1.0"),
    ("lemma-pc-above-one", ["lemma", "--pcc", "0.8", "--pnn", "0.7", "--pc", "1.5"],
     "p_c must lie strictly inside (0, 1), got 1.5"),
    ("lemma-pcc-zero-first", ["lemma", "--pcc", "0", "--pnn", "1", "--pc", "1.5"],
     "p_cc must lie strictly inside (0, 1), got 0.0"),
    ("lemma-pnn-before-pc", ["lemma", "--pcc", "0.8", "--pnn", "1", "--pc", "1.5"],
     "p_nn must lie strictly inside (0, 1), got 1.0"),
    # argparse's own errors: one line too, not its usage block
    ("noise-n-not-int", ["noise", "--kind", "none", "--n", "abc"],
     "argument --n: invalid int value: 'abc'"),
    ("noise-kind-unknown", ["noise", "--kind", "bogus"], "argument --kind: invalid choice: 'bogus'"),
    ("lemma-without-pcc", ["lemma", "--pnn", "0.7", "--pc", "0.5"],
     "the following arguments are required: --pcc"),
    ("prcurve-seed-not-int", ["prcurve", "--config", "{tmp}/empty.conf", "--seed", "1.5"],
     "argument --seed: invalid int value: '1.5'"),
]


@pytest.mark.parametrize("case,args,message", COMMAND_CASES, ids=[c[0] for c in COMMAND_CASES])
def test_command_contract(tmp_path, capsys, monkeypatch, case, args, message):
    monkeypatch.chdir(tmp_path)  # a config names its dataset relative to the working directory
    for name, content in INPUT_FILES.items():
        (tmp_path / name).write_bytes(content)
    args = [a.format(tmp=tmp_path) for a in args]
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + message.format(tmp=tmp_path))
    assert err.count("\n") == 1 and err.endswith("\n")
    # no output directory, and no file in the working directory
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(INPUT_FILES)


# lemma.csv's sha256 and every stdout line but the last, which names the file:
# any change to a formula, a seed stream or the formatting shows here
LEMMA_BYTES = [
    ("monte-carlo", LEMMA + ["--zetas", "1,3,5,10", "--trials", "20000", "--seed", "4"],
     "c0007f3de676d39a59139acabc695a44cac22ef835349dd2bcec3eb4615933cb",
     ["zeta=  1 precision=0.727273 recall=0.800000 mc=(0.7271, 0.8012)",
      "zeta=  3 precision=0.949907 recall=0.512000 mc=(0.9507, 0.5029)",
      "zeta=  5 precision=0.992639 recall=0.327680 mc=(0.9916, 0.3311)",
      "zeta= 10 precision=0.999945 recall=0.107374 mc=(1.0000, 0.1045)"]),
    ("underflow", LEMMA + ["--zetas", "8000", "--trials", "0"],
     "c14e9b72c7481dcb1ab1e79afa6a8eebdfa8785e5703a0032df6397426f1da56",
     ["zeta=8000 precision=1.000000 recall=0.000000"]),
    ("default-trials", LEMMA + ["--zetas", "1,2"],
     "ce2056d090db8f9428da1d48f4d24005fa33274640fa1d5880b0b47351d9ef26",
     ["zeta=  1 precision=0.727273 recall=0.800000 mc=(0.7276, 0.8013)",
      "zeta=  2 precision=0.876712 recall=0.640000 mc=(0.8747, 0.6390)"]),
    ("default-zetas", ["lemma", "--pcc", "0.9", "--pnn", "0.8", "--pc", "0.5", "--trials", "0"],
     "2ca4158b0e06dfdf9da8add12af15420fd3b0485200934ad7a6e5edd118752f9",
     ["zeta=  1 precision=0.818182 recall=0.900000", "zeta=  2 precision=0.952941 recall=0.810000",
      "zeta=  3 precision=0.989145 recall=0.729000", "zeta=  4 precision=0.997567 recall=0.656100",
      "zeta=  5 precision=0.999458 recall=0.590490", "zeta=  6 precision=0.999880 recall=0.531441",
      "zeta=  7 precision=0.999973 recall=0.478297", "zeta=  8 precision=0.999994 recall=0.430467",
      "zeta=  9 precision=0.999999 recall=0.387420", "zeta= 10 precision=1.000000 recall=0.348678"]),
    # the long window selects nothing after a few rounds and draws no more; each
    # row draws from its own stream, so the next row's cells are unchanged
    ("long-window-first", LEMMA + ["--zetas", "8000,20", "--trials", "20000"],
     "81dd7588da503b994e51fdf3b5ddfac751e3bf4be5aaa0a506aff773f17b84a5",
     ["zeta=8000 precision=1.000000 recall=0.000000 mc=(nan, nan)",
      "zeta= 20 precision=1.000000 recall=0.011529 mc=(1.0000, 0.0101)"]),
    # five draws through ten harsh rounds select nothing: the Monte-Carlo cells are nan
    ("nothing-selected", ["lemma", "--pcc", "0.05", "--pnn", "0.95", "--pc", "0.5",
                          "--zetas", "10", "--trials", "5", "--seed", "3"],
     "53d8dc0a08c2a6524aca653e800d3cee7990e13511f49a3aa352e9f0d5370d2c",
     ["zeta= 10 precision=0.500000 recall=0.000000 mc=(nan, nan)"]),
]


@pytest.mark.parametrize("case,args,sha256,lines", LEMMA_BYTES, ids=[c[0] for c in LEMMA_BYTES])
def test_lemma_output_bytes(tmp_path, capsys, case, args, sha256, lines):
    out = tmp_path / "out"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert hashlib.sha256((out / "lemma.csv").read_bytes()).hexdigest() == sha256
    assert capsys.readouterr().out.splitlines() == lines + [f"wrote {out / 'lemma.csv'}"]


def test_lemma_checks_every_zeta_before_any_row(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli.lemma, "closed_form_pr", no_work)
    monkeypatch.setattr(cli.lemma, "monte_carlo_pr", no_work)
    assert cli.main(LEMMA + ["--zetas", "10,0", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("config error: window length must be a positive "
                                       "integer, got 0\n")
    assert not (tmp_path / "out").exists()


def test_largest_zeta_max_prints_its_first_row_at_once(tmp_path):
    # --zeta-max 2**53 is valid and endless: its first row comes at once under
    # a 1 GiB address space, because no window is listed before it. The sweep
    # runs only under that limit, and is killed after the first row or 30 s.
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = {**os.environ, "PYTHONUNBUFFERED": "1",
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    args = [sys.executable, "-m", "longremix", *LEMMA, "--trials", "0",
            "--zeta-max", str(data.MAX_COUNT), "--out", str(tmp_path / "out")]
    with subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          preexec_fn=limit_address_space) as proc:
        try:
            out = b""
            while b"\n" not in out and select.select([proc.stdout], [], [], 30)[0]:
                chunk = os.read(proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                out += chunk
        finally:
            proc.kill()
        err = proc.stderr.read()
    assert out.split(b"\n")[0] == b"zeta=  1 precision=0.727273 recall=0.800000", err
    assert not (tmp_path / "out").exists()


def test_readme_config_example_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    exp = config.build_experiment(config.parse_flat_config(block))
    assert (exp.noise.kind, exp.noise.eta) == ("symmetric", 0.8)


def test_python_dash_m_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "longremix", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("longremix ")


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _python_without_blas_threads(code, **preset):
    """Run ``code`` in a fresh interpreter that has the package on its path
    and none of the BLAS thread variables set, apart from ``preset``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env.update(preset, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")])
def test_import_pins_blas_threads_unless_set(preset, want):
    proc = _python_without_blas_threads(
        f"import os, longremix; print(*(os.environ[n] for n in {BLAS_THREADS!r}))",
        **({} if preset is None else dict.fromkeys(BLAS_THREADS, preset)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [want] * 3


def test_numpy_first_with_blas_unpinned_runs_the_pair_in_process():
    # numpy imported first has sized its BLAS pool for the machine; each
    # forked worker would inherit it, so the pair stays in one process
    proc = _python_without_blas_threads("import numpy; from longremix import trainer; "
                                        "print(trainer._use_workers())")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


def test_out_of_memory_without_a_message_gives_a_reason(tmp_path, capsys, monkeypatch):
    # Python's own MemoryError carries no message, as a huge valid
    # --zeta-max raises it; the line still says why the command stopped
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli.lemma, "sweep_zeta", exhausted)
    assert cli.main(LEMMA + ["--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "error: out of memory: an allocation failed\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [LEMMA + ["--zetas", "1", "--trials", str(10**15)],
                                  ["train", "--config", "{tmp}/huge.conf"]],
                         ids=["lemma-trials", "train-dataset-n"])
def test_out_of_memory_exits_3(tmp_path, capsys, args):
    # 7 PiB is more than any process's address space: the allocation fails at once
    (tmp_path / "huge.conf").write_text(f"dataset.n = {10**15}\n")
    args = [a.format(tmp=tmp_path) for a in args] + ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate 7.11 PiB")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


def test_trials_bound_is_max_count(tmp_path, capsys):
    # MAX_COUNT trials are valid, and fail at their first 64 PiB draw; one more is a config error
    args = LEMMA + ["--zetas", "1", "--out", str(tmp_path / "out"), "--trials"]
    assert cli.main(args + [str(data.MAX_COUNT)]) == 3
    assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate 64.0 PiB")
    assert cli.main(args + [str(data.MAX_COUNT + 1)]) == 2
    assert capsys.readouterr().err == ("config error: Monte-Carlo trials must be <= "
                                       f"{data.MAX_COUNT}, got {data.MAX_COUNT + 1}\n")
    assert not (tmp_path / "out").exists()


def test_help_documents_subcommands():
    parser = cli.build_parser()
    help_text = parser.format_help()
    assert "{train,prcurve,lemma,noise}" in help_text


def test_runtime_error_exits_3(tmp_path, capsys, monkeypatch):
    path, out = write_conf(tmp_path)

    def disk_full(outdir, texts):
        raise OSError(28, "No space left on device")

    # an OS error while writing the bundle surfaces as a runtime failure, not a crash
    monkeypatch.setattr(report, "write_files", disk_full)
    assert cli.main(["train", "--config", str(path), "--out", out]) == 3
    assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("command", ["train", "prcurve", "lemma", "noise"])
def test_output_path_naming_a_file_rejected_before_work(tmp_path, capsys, monkeypatch, command):
    path, _ = write_conf(tmp_path, mode="full-longremix")
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    args = {"train": ["train", "--config", str(path)],
            "prcurve": ["prcurve", "--config", str(path)],
            "lemma": LEMMA,
            "noise": ["noise", "--kind", "none", "--n", "50", "--classes", "2"]}[command]
    # any work would fail loudly: the check comes before training or sweeping
    monkeypatch.setattr(cli, "run_training", None)
    monkeypatch.setattr(cli, "run_stage", None)
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


def test_fmt_sig_six_significant_digits():
    assert report.fmt_sig(0.123456789) == "0.123457"
    assert report.fmt_sig(1234567.0) == "1.23457e+06"
    assert report.fmt_sig(True) == "true"
    assert report.fmt_sig(None) == ""
    assert report.fmt_sig(7) == "7"
    assert report.fmt_sig("stage1-hct") == "stage1-hct"


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the pair's workers are forked")


def _assert_no_children():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _open_fds():
    """This process's open file descriptors, where the platform lists them."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@needs_fork
class TestPairTransports:
    """The pair runs with model 2 in a forked worker and model 1 in this
    process, or wholly in this process (``trainer._use_workers`` decides);
    the outputs, the failure lines, the processes left afterwards (none) and
    the file descriptors left open (those open before) must not tell them
    apart."""

    DUMPS = "report.plan_digests = true\nreport.checkpoints = true\n"
    # fails in a train epoch after warmup, in every mode
    HUGE_LR = "train.lr = 40\n"

    def run_both(self, tmp_path, monkeypatch, capsys, args):
        """(exit code, stderr, output files) of ``args`` on each path, into
        the same directory, which is emptied between the runs."""
        results, fds = [], _open_fds()
        for workers in (True, False):
            monkeypatch.setattr(trainer, "_use_workers", lambda: workers)
            code = cli.main(args)
            _assert_no_children()
            assert _open_fds() == fds
            out = tmp_path / "out"
            files = _tree_bytes(out) if out.exists() else {}
            results.append((code, capsys.readouterr().err, files))
            if out.exists():
                shutil.rmtree(out)
        return results

    # (command, mode, config lines, test id)
    CASES = [("train", mode, "", f"train-{mode}") for mode in trainer.MODES] + [
        ("prcurve", "full-longremix", "", "prcurve-full-longremix"),
        ("train", "baseline", "train.normalize_losses = false\n", "train-baseline-raw-losses")]

    @pytest.mark.parametrize("command,mode,setting", [c[:3] for c in CASES],
                             ids=[c[3] for c in CASES])
    def test_same_bytes_and_failure_lines(self, tmp_path, monkeypatch, capsys, command, mode,
                                          setting):
        dumps = self.DUMPS + ("" if mode == "ce" else "report.gmm_dump = true\n") + setting
        path, out = write_conf(tmp_path, mode=mode, extra=dumps)
        workers, in_process = self.run_both(tmp_path, monkeypatch, capsys,
                                            [command, "--config", str(path), "--out", out])
        assert workers[0] == 0 and workers[2]
        assert workers == in_process
        if setting:
            # min-max normalised losses lie in [0, 1], and so do the means fitted to them
            first = json.loads(workers[2]["gmm.jsonl"].splitlines()[0])
            assert max(first["means"]) > 1
        # HUGE_LR, then this mode's exit-3 rows of VALUE_CASES with their lines
        failures = [(self.HUGE_LR, "error: non-finite parameters in ")] + [
            (line + "\n", f"error: {message}\n") for case_mode, line, code, message in VALUE_CASES
            if code == 3 and case_mode == mode and command == "train"]
        for extra, line in failures:
            path, out = write_conf(tmp_path, mode=mode, extra=dumps + extra)
            workers, in_process = self.run_both(tmp_path, monkeypatch, capsys,
                                                [command, "--config", str(path), "--out", out])
            assert workers[0] == 3 and workers[1].startswith(line)
            assert workers == in_process

    def test_bundle_is_made_again_from_its_own_echo(self, tmp_path, monkeypatch, capsys):
        # a bundle depends only on the config that its metrics.json echoes:
        # training on that echo writes every file again, byte for byte
        path, _ = write_conf(tmp_path, mode="full-longremix",
                             extra=self.DUMPS + "report.gmm_dump = true\n")
        first = tmp_path / "first"
        assert cli.main(["train", "--config", str(path), "--out", str(first)]) == 0
        want = _tree_bytes(first)
        assert {"gmm.jsonl", "plans.csv", "model1.ckpt", "model2.ckpt"} <= set(want)
        echo = tmp_path / "echo.conf"
        echo.write_text(serialize_flat(json.loads(want["metrics.json"])["config"]))
        results = self.run_both(tmp_path, monkeypatch, capsys,
                                ["train", "--config", str(echo), "--out", str(tmp_path / "out")])
        assert results == [(0, "", want)] * 2

    def test_parameters_are_checked_before_outputs(self, tmp_path, monkeypatch, capsys):
        # in train epoch 2 model2's pass ends with NaN parameters, while
        # model1's grow finite but so large that its next outputs overflow:
        # model2's parameters come first in run order
        train, fit = trainer._Member.train, trainer._Member.fit

        def nan_in_model2(member, epoch, lr, split):
            if member.m == 1 and epoch == 2:
                member.net.params[-1] = np.nan
            return train(member, epoch, lr, split)

        def overflow_in_model1(member, epoch):
            if member.m == 0 and epoch == 3:
                member.net.params *= 1e300
            return fit(member, epoch)

        monkeypatch.setattr(trainer._Member, "train", nan_in_model2)
        monkeypatch.setattr(trainer._Member, "fit", overflow_in_model1)
        path, out = write_conf(tmp_path)
        workers, in_process = self.run_both(tmp_path, monkeypatch, capsys,
                                            ["train", "--config", str(path), "--out", out])
        assert workers[0] == 3
        assert workers[1] == "error: non-finite parameters in model2 after baseline train epoch 2\n"
        assert workers == in_process

    def test_main_process_builds_every_split(self, tmp_path, monkeypatch):
        # selection belongs to the main process on either transport: with
        # zeta 2, stage 1 thresholds one epoch alone, then its window for
        # five, and stage 2 guides all six
        path, _ = write_conf(tmp_path, mode="full-longremix")
        path.write_text(path.read_text().replace("dataset.n = 300", "dataset.n = 200")
                        .replace("train.zeta = 3", "train.zeta = 2"))
        calls = collections.Counter()

        def counted(name, split):
            def call(*args, **kwargs):
                calls[name] += 1
                return split(*args, **kwargs)
            return call

        for name in ("baseline_split", "hct_split", "guided_split"):
            monkeypatch.setattr(trainer, name, counted(name, getattr(trainer, name)))
        for workers in (True, False):
            monkeypatch.setattr(trainer, "_use_workers", lambda: workers)
            calls.clear()
            assert cli.main(["train", "--config", str(path), "--out",
                             str(tmp_path / f"out-{workers}")]) == 0
            assert calls == {"baseline_split": 2, "hct_split": 10, "guided_split": 12}

    def test_dead_worker_is_one_state_error(self, tmp_path, capsys, monkeypatch):
        path, out = write_conf(tmp_path)
        train = trainer._Member.train

        def exit_in_model2(member, *args):
            if member.m == 1:
                os._exit(1)
            return train(member, *args)

        monkeypatch.setattr(trainer, "_use_workers", lambda: True)
        monkeypatch.setattr(trainer._Member, "train", exit_in_model2)
        assert cli.main(["train", "--config", str(path), "--out", out]) == 3
        assert capsys.readouterr().err == "error: the model2 worker exited without replying\n"
        _assert_no_children()
        assert not Path(out).exists()

    def test_failed_start_runs_in_process(self, tmp_path, capsys, monkeypatch):
        # stage 1's worker cannot start, so that whole stage runs in this
        # process, model 2's steps too; stage 2 forks its worker as usual
        path, out = write_conf(tmp_path, mode="full-longremix")
        fork, call, pid = os.fork, trainer._Member.__call__, os.getpid()
        forks, steps = [], set()

        def fails_once():
            forks.append(None)
            if len(forks) == 1:
                raise OSError(11, "Resource temporarily unavailable")
            return fork()

        def noted_step(member, *args):
            if os.getpid() == pid and trainer._use_workers():  # the run with workers
                steps.add((member.stage_no, member.m))
            return call(member, *args)

        monkeypatch.setattr(os, "fork", fails_once)
        monkeypatch.setattr(trainer._Member, "__call__", noted_step)
        workers, in_process = self.run_both(tmp_path, monkeypatch, capsys,
                                            ["train", "--config", str(path), "--out", out])
        assert len(forks) == 2
        assert steps == {(1, 0), (1, 1), (2, 0)}
        assert workers[0] == 0 and workers == in_process

    def test_one_worker_per_stage(self, tmp_path, monkeypatch):
        # model 2 trains in the stage's one forked worker and model 1 in
        # this process: tiny.conf, CI's install smoke run, forks twice, once
        # per stage, and this process runs model 1's steps, never model 2's
        path = Path(__file__).parent / "tiny.conf"
        fork, call = os.fork, trainer._Member.__call__
        forks, steps, pid = [], collections.Counter(), os.getpid()

        def counted_fork():
            forks.append(None)
            return fork()

        def counted_step(member, *args):
            if os.getpid() == pid:
                steps[member.m] += 1
            return call(member, *args)

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(trainer._Member, "__call__", counted_step)
        monkeypatch.setattr(trainer, "_use_workers", lambda: True)
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        _assert_no_children()
        assert len(forks) == 2
        assert steps[0] > 0 and steps[1] == 0


def _main_counting_forks(args):
    """``cli.main(args)`` in this process: its exit code, the forks it made,
    and whether it left a child. A pool worker runs it, so it asserts
    nothing: pytest's failure is no ``Exception``, and would end the worker
    without a reply."""
    fork, forks = os.fork, []

    def counted():
        forks.append(None)
        return fork()

    os.fork = counted
    try:
        code = cli.main(args)
    finally:
        os.fork = fork
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return code, len(forks), False
    return code, len(forks), True


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the pair forks only where two CPUs are usable")
def test_pair_in_a_pool_worker_forks_its_worker(tmp_path):
    # a daemonic pool worker may not start a multiprocessing child, but the
    # pair's worker is a bare os.fork: one per stage, and the same bytes
    path, _ = write_conf(tmp_path, mode="full-longremix", extra=TestPairTransports.DUMPS)
    path.write_text(path.read_text().replace("dataset.n = 300", "dataset.n = 200"))
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        in_pool = pool.apply(_main_counting_forks,
                             (["train", "--config", str(path), "--out", str(tmp_path / "pool")],))
    finally:
        pool.close()
        pool.join()
    _assert_no_children()
    assert in_pool == (0, 2, False)
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "direct")]) == 0
    assert _tree_bytes(tmp_path / "pool") == _tree_bytes(tmp_path / "direct")


@needs_fork
def test_a_run_loads_neither_multiprocessing_nor_numpy_ma(tmp_path):
    # the worker is one os.fork, and the mixture's start and the core set's
    # check avoid np.percentile and np.unique, which load numpy.ma
    path, out = write_conf(tmp_path, mode="full-longremix")
    proc = _python_without_blas_threads(
        "import sys; from longremix import cli, trainer; trainer._use_workers = lambda: True; "
        f"code = cli.main(['train', '--config', {str(path)!r}, '--out', {out!r}]); "
        "print(code, *(name in sys.modules for name in ('multiprocessing', 'numpy.ma')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"
    summary = json.loads(Path(out, "metrics.json").read_text())["summary"]
    assert summary["core_set_size"] > 0


@pytest.mark.parametrize("cpus,workers", [({0}, False), ({0, 1}, hasattr(os, "fork"))])
def test_workers_need_two_usable_cpus(monkeypatch, cpus, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    assert trainer._use_workers() is workers
