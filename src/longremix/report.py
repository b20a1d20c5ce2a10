"""Metrics/plot-data emission and the precision-recall curve over thresholds.

JSON carries full-precision values for assertions; CSVs round to 6
significant digits and exist for plotting. Nothing here writes timestamps,
so a rerun of the same config produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import nn
from .config import ExperimentConfig, effective_config
from .errors import StateError
from .selector import baseline_split, clean_set_metrics, hct_split
from .trainer import ExperimentResult

SCHEMA_VERSION = 1

EPOCH_FIELDS = ("split_kind", "x_size", "u_size", "precision", "recall",
                "x_ops", "u_ops", "fallback")


@dataclass
class ReportBundle:
    outdir: str
    files: dict          # name -> relative path
    manifest_path: str

    def path(self, name) -> str:
        return os.path.join(self.outdir, self.files[name])


def fmt_sig(value) -> str:
    """6 significant digits for CSV cells; booleans and ints stay exact."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".6g")


def _check_finite(value, context):
    if isinstance(value, float) and not math.isfinite(value):
        raise StateError(f"non-finite value in report field {context}")


def _model_stats_dict(stats):
    if stats is None:
        return None
    row = {f: getattr(stats, f) for f in EPOCH_FIELDS}
    for k, v in row.items():
        _check_finite(v, k)
    return row


def _epoch_dict(row):
    return {
        "epoch": row.epoch,
        "phase": row.phase,
        "lr": row.lr,
        "test_acc": row.test_acc,
        "model1": _model_stats_dict(row.model1),
        "model2": _model_stats_dict(row.model2),
    }


def _stage_dict(outcome):
    rec = outcome.record
    core = None
    if outcome.core_set is not None:
        core = {"size": outcome.core_set.size, "epoch": outcome.core_set.epoch}
    return {
        "stage": rec.stage,
        "best_acc": rec.best_acc,
        "best_epoch": rec.best_epoch,
        "last10_acc": rec.last10_acc,
        "core_set": core,
        "epochs": [_epoch_dict(r) for r in rec.epochs],
    }


def pr_curve(history, mask, taus, labels):
    """Precision/recall of the single-epoch and windowed splits at each
    threshold, from the final recorded posterior window."""
    rows = []
    for tau in taus:
        base = baseline_split(history.current(), tau, labels)
        windowed = hct_split(history, tau, labels)
        mb = clean_set_metrics(base, mask)
        mh = clean_set_metrics(windowed, mask)
        rows.append({
            "tau": float(tau),
            "baseline_precision": mb.precision,
            "baseline_recall": mb.recall,
            "baseline_x_size": base.x_size,
            "hct_precision": mh.precision,
            "hct_recall": mh.recall,
            "hct_x_size": windowed.x_size,
            "baseline_precision_defaulted": mb.precision_defaulted,
            "hct_precision_defaulted": mh.precision_defaulted,
        })
    return rows


def metrics_document(result: ExperimentResult, exp: ExperimentConfig,
                     noise_info, dataset_info, prcurve_rows=None) -> dict:
    final = result.final.record
    return {
        "schema_version": SCHEMA_VERSION,
        "config": effective_config(exp),
        "dataset": dataset_info,
        "noise": noise_info,
        "stages": [_stage_dict(s) for s in result.stages],
        "summary": {
            "mode": result.config.mode,
            "best_acc": final.best_acc,
            "best_epoch": final.best_epoch,
            "last10_acc": final.last10_acc,
            "final_stage": final.stage,
            "core_set_size": None if result.core_set is None else result.core_set.size,
            "core_set_epoch": None if result.core_set is None else result.core_set.epoch,
        },
        "prcurve": prcurve_rows,
    }


def epochs_csv_text(stages) -> str:
    cols = ["stage", "epoch", "phase", "lr", "test_acc"]
    for m in ("m1", "m2"):
        cols += [f"{m}_{f}" for f in EPOCH_FIELDS]
    lines = [",".join(cols)]
    for stage in stages:
        for row in stage["epochs"]:
            cells = [stage["stage"], str(row["epoch"]), row["phase"],
                     fmt_sig(row["lr"]), fmt_sig(row["test_acc"])]
            for key in ("model1", "model2"):
                stats = row[key]
                if stats is None:
                    cells += [""] * len(EPOCH_FIELDS)
                else:
                    cells += [stats["split_kind"] if f == "split_kind" else fmt_sig(stats[f])
                              for f in EPOCH_FIELDS]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def prcurve_csv_text(rows) -> str:
    cols = ["tau", "baseline_precision", "baseline_recall", "baseline_x_size",
            "hct_precision", "hct_recall", "hct_x_size"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(fmt_sig(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def lemma_csv_text(rows) -> str:
    cols = ["zeta", "precision_cf", "recall_cf", "precision_mc", "recall_mc", "se_p", "se_r"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(fmt_sig(row.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def write_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_bundle(outdir, doc, formats, written=None) -> ReportBundle:
    """Write ``metrics.json`` and the plot CSVs that ``formats`` ask for, then
    the manifest over them plus the ``written`` files already in ``outdir``;
    every listed file must exist and be non-empty."""
    files = dict(written or {})
    if "json" in formats:
        write_json(doc, os.path.join(outdir, "metrics.json"))
        files["metrics"] = "metrics.json"
    if "csv" in formats:
        with open(os.path.join(outdir, "epochs.csv"), "w", encoding="utf-8") as fh:
            fh.write(epochs_csv_text(doc["stages"]))
        files["epochs"] = "epochs.csv"
        if doc.get("prcurve"):
            with open(os.path.join(outdir, "prcurve.csv"), "w", encoding="utf-8") as fh:
                fh.write(prcurve_csv_text(doc["prcurve"]))
            files["prcurve"] = "prcurve.csv"
    manifest = {"files": files, "schema_version": doc.get("schema_version", SCHEMA_VERSION)}
    manifest_path = os.path.join(outdir, "bundle.json")
    write_json(manifest, manifest_path)
    for name, rel in files.items():
        path = os.path.join(outdir, rel)
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            raise StateError(f"bundle file {name} ({rel}) missing or empty")
    return ReportBundle(outdir=outdir, files=files, manifest_path=manifest_path)


def emit_report(result: ExperimentResult, exp: ExperimentConfig, noise_info,
                dataset_info, prcurve_rows=None) -> ReportBundle:
    """Write the configured bundle and its manifest; every declared file must
    exist and be non-empty."""
    os.makedirs(exp.outdir, exist_ok=True)
    doc = metrics_document(result, exp, noise_info, dataset_info, prcurve_rows)
    files = {}
    if exp.report.gmm_dump:
        with open(os.path.join(exp.outdir, "gmm.jsonl"), "w", encoding="utf-8") as fh:
            for stage in result.stages:
                for row in stage.gmm_rows:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
        files["gmm"] = "gmm.jsonl"
    if exp.report.plan_digests:
        with open(os.path.join(exp.outdir, "plans.csv"), "w", encoding="utf-8") as fh:
            fh.write("stage,epoch,model,digest\n")
            for stage in result.stages:
                for row in stage.plan_rows:
                    fh.write(f"{row['stage']},{row['epoch']},{row['model']},{row['digest']}\n")
        files["plans"] = "plans.csv"
    if exp.report.checkpoints:
        for net in result.final.nets:
            name = f"{net.tag}.ckpt"
            nn.save_checkpoint(net, os.path.join(exp.outdir, name))
            files[net.tag] = name
    return _write_bundle(exp.outdir, doc, exp.report.formats, files)


def reemit_from_metrics(doc, outdir) -> ReportBundle:
    """Regenerate the CSV side of a bundle from an existing metrics document."""
    os.makedirs(outdir, exist_ok=True)
    return _write_bundle(outdir, doc, ("json", "csv"))
