"""Output checks for one `longremix train` bundle, and its behaviour fingerprint.

The fingerprint hashes what the run did, not the bytes it wrote:
per-epoch accuracy and split/mix counts, the summary, the GMM rows'
parameters and the plan digests. It is independent of the output
directory (which `metrics.json` echoes) and of fields a report schema may
add later.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

EPOCH_KEYS = ("x_size", "u_size", "precision", "recall", "x_ops", "u_ops")
STAGES = {"ce": ["ce"], "full-longremix": ["stage1-hct", "stage2-guided"]}


class CheckError(Exception):
    """The bundle does not show the behaviour the config asks for."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _bundle_files(outdir, config):
    manifest = _read_json(os.path.join(outdir, "bundle.json"))
    files = manifest["files"]
    want = {"metrics", "epochs"}
    if config["train.mode"] != "ce" and config["report.prcurve"] == "true":
        want.add("prcurve")
    if config["report.gmm_dump"] == "true":
        want.add("gmm")
    if config["report.plan_digests"] == "true":
        want.add("plans")
    _require(set(files) == want, f"bundle lists {sorted(files)}, expected {sorted(want)}")
    for name, rel in files.items():
        path = os.path.join(outdir, rel)
        _require(os.path.isfile(path) and os.path.getsize(path) > 0,
                 f"bundle file {name} missing or empty")
    return files


def _check_metrics(doc, config):
    echo = doc["config"]
    for key, value in config.items():
        _require(echo.get(key) == value, f"config echo {key}={echo.get(key)!r}, wrote {value!r}")
    n = int(config["dataset.n"])
    warmup, epochs = int(config["train.warmup"]), int(config["train.epochs"])
    stages = doc["stages"]
    _require([s["stage"] for s in stages] == STAGES[config["train.mode"]],
             f"unexpected stages {[s['stage'] for s in stages]}")
    chance = 1.0 / int(config["dataset.classes"])
    for stage in stages:
        rows = stage["epochs"]
        _require([r["phase"] for r in rows] == ["warmup"] * warmup + ["train"] * epochs,
                 f"{stage['stage']}: wrong epoch schedule")
        for row in rows:
            _require(0.0 <= row["test_acc"] <= 1.0, "test_acc out of range")
            for model in ("model1", "model2"):
                stats = row[model]
                if stats is None:
                    continue
                _require(stats["x_size"] + stats["u_size"] == n, "split does not cover the data")
                _require(0.0 <= stats["precision"] <= 1.0 and 0.0 <= stats["recall"] <= 1.0,
                         "precision/recall out of range")
        accs = [r["test_acc"] for r in rows]
        _require(stage["best_acc"] == max(accs), f"{stage['stage']}: best_acc is not the max")
        _require(math.isclose(stage["last10_acc"], sum(accs[-10:]) / 10, abs_tol=1e-12),
                 f"{stage['stage']}: last10_acc is not the mean of the last ten")
    summary = doc["summary"]
    _require(summary["best_acc"] == stages[-1]["best_acc"], "summary best_acc mismatch")
    _require(summary["best_acc"] > chance, f"best_acc {summary['best_acc']} is not above chance")
    if len(stages) == 2:
        _require(summary["core_set_size"] is not None and summary["core_set_size"] > 0,
                 "two-stage run captured no core set")


def _gmm_rows(path, expected):
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    _require(len(rows) == expected, f"gmm.jsonl has {len(rows)} rows, expected {expected}")
    for row in rows:
        if not row["collapsed"]:
            _require(math.isclose(sum(row["weights"]), 1.0, abs_tol=1e-9),
                     "mixture weights do not sum to 1")
            _require(row["means"][0] <= row["means"][1], "clean component is not first")
    return [[row["weights"], row["means"], row["variances"]] for row in rows]


def _plan_digests(path, expected):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == expected, f"plans.csv has {len(rows)} rows, expected {expected}")
    _require(all(len(r["digest"]) == 64 for r in rows), "malformed plan digest")
    return [r["digest"] for r in rows]


def check_bundle(outdir, config):
    """Validate one bundle against its config; return (fingerprint, summary).

    Raises CheckError (or OSError/KeyError/ValueError on a malformed
    bundle) when the output is wrong."""
    files = _bundle_files(outdir, config)
    doc = _read_json(os.path.join(outdir, files["metrics"]))
    _check_metrics(doc, config)
    train_rows = [r for s in doc["stages"] for r in s["epochs"] if r["model1"] is not None]
    fallbacks = sum(r[m]["fallback"] for r in train_rows for m in ("model1", "model2"))
    epochs = [[r["test_acc"]] + [r[m][k] if r[m] else None
                                 for m in ("model1", "model2") for k in EPOCH_KEYS]
              for s in doc["stages"] for r in s["epochs"]]
    summary = doc["summary"]
    behaviour = {
        "epochs": epochs,
        "summary": [summary["best_acc"], summary["core_set_size"], summary["core_set_epoch"]],
        "gmm": None, "plans": None,
    }
    if "gmm" in files:
        behaviour["gmm"] = _gmm_rows(os.path.join(outdir, files["gmm"]), 2 * len(train_rows))
    if "plans" in files:
        behaviour["plans"] = _plan_digests(os.path.join(outdir, files["plans"]),
                                           2 * len(train_rows) - fallbacks)
    blob = json.dumps(behaviour, sort_keys=True, separators=(",", ":"))
    fingerprint = hashlib.sha256(blob.encode()).hexdigest()
    return fingerprint, {"best_acc": summary["best_acc"], "last10_acc": summary["last10_acc"]}
