"""Metrics/plot-data emission and the precision-recall curve over thresholds.

JSON carries full-precision values for assertions; CSVs round to 6
significant digits and exist for plotting. Nothing here writes timestamps,
so a rerun of the same config produces byte-identical files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

from . import nn
from .config import ExperimentConfig, effective_config
from .selector import baseline_split, clean_set_metrics, hct_split
from .trainer import ModelEpochStats

SCHEMA_VERSION = 2

# the per-model columns of epochs.csv, in ModelEpochStats's field order
EPOCH_FIELDS = tuple(f.name for f in fields(ModelEpochStats))


@dataclass
class ReportBundle:
    outdir: str
    files: dict          # name -> relative path
    manifest_path: str

    def path(self, name) -> str:
        return os.path.join(self.outdir, self.files[name])


def fmt_sig(value) -> str:
    """6 significant digits for CSV cells; text, booleans and ints stay exact."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".6g")


def _epoch_dict(row):
    return {**vars(row),
            "model1": None if row.model1 is None else dict(vars(row.model1)),
            "model2": None if row.model2 is None else dict(vars(row.model2))}


def _stage_dict(outcome):
    core = None
    if outcome.core_set is not None:
        core = {"size": outcome.core_set.size, "epoch": outcome.core_set.epoch}
    return {**vars(outcome.record), "core_set": core,
            "epochs": [_epoch_dict(r) for r in outcome.record.epochs]}


def pr_curve(window, mask, taus):
    """Precision/recall of the single-epoch and windowed splits at each
    threshold, from a net's final ``(zeta, n)`` posterior window."""
    rows = []
    for tau in taus:
        base = baseline_split(window[-1], tau)
        windowed = hct_split(window, tau)
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


def metrics_document(stages, exp: ExperimentConfig, noise_info, dataset_info,
                     prcurve_rows=None) -> dict:
    """The metrics document of a run's ``StageOutcome``s; the summary's core set is stage 1's."""
    final, core = stages[-1].record, stages[0].core_set
    return {
        "schema_version": SCHEMA_VERSION,
        "config": effective_config(exp),
        "dataset": dataset_info,
        "noise": noise_info,
        "stages": [_stage_dict(s) for s in stages],
        "summary": {
            "mode": exp.train.mode,
            "best_acc": final.best_acc,
            "best_epoch": final.best_epoch,
            "last10_acc": final.last10_acc,
            "final_stage": final.stage,
            "core_set_size": None if core is None else core.size,
            "core_set_epoch": None if core is None else core.epoch,
        },
        "prcurve": prcurve_rows,
    }


def _csv_text(cols, rows) -> str:
    """A header line, then one line of comma-joined cells per row."""
    return "".join(",".join(cells) + "\n" for cells in [cols, *rows])


def epochs_csv_text(stages) -> str:
    cols = ["stage", "epoch", "phase", "lr", "test_acc"]
    for m in ("m1", "m2"):
        cols += [f"{m}_{f}" for f in EPOCH_FIELDS]
    rows = []
    for stage in stages:
        for row in stage["epochs"]:
            cells = [fmt_sig(v) for v in (stage["stage"], row["epoch"], row["phase"],
                                          row["lr"], row["test_acc"])]
            for key in ("model1", "model2"):
                stats = row[key]
                if stats is None:
                    cells += [""] * len(EPOCH_FIELDS)
                else:
                    cells += [fmt_sig(stats[f]) for f in EPOCH_FIELDS]
            rows.append(cells)
    return _csv_text(cols, rows)


def prcurve_csv_text(rows) -> str:
    cols = ["tau", "baseline_precision", "baseline_recall", "baseline_x_size",
            "hct_precision", "hct_recall", "hct_x_size"]
    return _csv_text(cols, ([fmt_sig(row[c]) for c in cols] for row in rows))


def lemma_csv_text(rows) -> str:
    cols = ["zeta", "precision_cf", "recall_cf", "precision_mc", "recall_mc", "se_p", "se_r"]
    return _csv_text(cols, ([fmt_sig(row.get(c)) for c in cols] for row in rows))


def json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_files(outdir, texts) -> list:
    """Create ``outdir`` and write each ``relative path -> text`` into it, line
    terminators as rendered; the package's only file writer."""
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, rel) for rel in texts]
    for path, text in zip(paths, texts.values()):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return paths


def emit_report(outdir, stages, exp: ExperimentConfig, noise_info, dataset_info,
                prcurve_rows=None) -> ReportBundle:
    """Render the configured bundle of ``stages`` in full, then write it and its manifest."""
    doc = metrics_document(stages, exp, noise_info, dataset_info, prcurve_rows)
    files = {}
    if exp.report.gmm_dump:
        rows = (row for stage in stages for row in stage.gmm_rows)
        files["gmm"] = ("gmm.jsonl", "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    if exp.report.plan_digests:
        files["plans"] = ("plans.csv", "stage,epoch,model,digest\n" + "".join(
            f"{row['stage']},{row['epoch']},{row['model']},{row['digest']}\n"
            for stage in stages for row in stage.plan_rows))
    if exp.report.checkpoints:
        for net in stages[-1].nets:
            files[net.tag] = (f"{net.tag}.ckpt", nn.checkpoint_text(net))
    if "json" in exp.report.formats:
        files["metrics"] = ("metrics.json", json_text(doc))
    if "csv" in exp.report.formats:
        files["epochs"] = ("epochs.csv", epochs_csv_text(doc["stages"]))
        if prcurve_rows:
            files["prcurve"] = ("prcurve.csv", prcurve_csv_text(prcurve_rows))
    listing = {name: rel for name, (rel, _) in files.items()}
    manifest = {"files": listing, "schema_version": SCHEMA_VERSION}
    texts = {**dict(files.values()), "bundle.json": json_text(manifest)}
    return ReportBundle(outdir=outdir, files=listing,
                        manifest_path=write_files(outdir, texts)[-1])
