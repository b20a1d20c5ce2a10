"""Span tracing from outside the package, and the per-layer metrics built on it.

``install`` wraps the functions each layer exposes, under the name its
caller looks them up by: ``trainer`` imports the gmm, selector and mixing
functions by name, ``gmm`` imports ``forward`` from ``nn``, and ``cli``
imports ``run_training`` and the config functions by name, so patching the
defining module alone would miss those calls. Spans are kept in memory as
``[id, parent, name, start, end, value]`` and written out when the run
ends; ``value`` is a count taken from the call's inputs or return value.

The aggregation half (``layer_metrics``) is plain Python, so the benchmark
benchmark process (run.py) can use it without importing numpy.
"""

from __future__ import annotations

import json
import os
import time


def _rows(x):
    import numpy as np
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def _targets():
    """(module, attribute, span name, value(args, result)) for every wrapped call."""
    from longremix import cli, data, gmm, nn, report, trainer

    def backward_rows(args, _):
        batch, loss = args[1], args[2]
        if isinstance(loss, nn.TotalLoss):
            (xf, _), (uf, _) = batch
            return _rows(xf) + len(uf)
        return _rows(batch[0])

    def split_sizes(_, split):
        return [split.x_size, split.u_size]

    def bundle_bytes(_, bundle):
        paths = [bundle.path(name) for name in bundle.files] + [bundle.manifest_path]
        return sum(os.path.getsize(p) for p in paths)

    def fallbacks(_, result):
        row = result[0]
        return int(row.model1.fallback) + int(row.model2.fallback)

    return [
        (cli, "parse_flat_config", "config.load", None),
        (cli, "apply_seed_override", "config.load", None),
        (cli, "build_experiment", "config.load", None),
        (data, "make_synthetic_dataset", "data.build", None),
        (data, "apply_noise", "data.build", None),
        (cli, "run_training", "trainer.run", None),
        (trainer, "warmup", "trainer.warmup", None),
        (trainer, "cotrain_epoch", "trainer.cotrain_epoch", fallbacks),
        (trainer, "evaluate", "trainer.evaluate", None),
        (trainer, "per_sample_losses", "gmm.loss_forward", None),
        (trainer, "normalize_losses", "gmm.posterior", None),
        (trainer, "clean_posterior", "gmm.posterior", None),
        (trainer, "fit_gmm_em", "gmm.fit", lambda _, p: [p.n_iter, int(p.collapsed)]),
        (trainer, "baseline_split", "selector.split", split_sizes),
        (trainer, "hct_split", "selector.split", split_sizes),
        (trainer, "guided_split", "selector.split", split_sizes),
        (trainer, "clean_set_metrics", "selector.metrics", None),
        (trainer, "select_core_set", "selector.core_set", None),
        (trainer, "build_epoch_plan", "mixing.plan", lambda _, p: p.x_ops + p.u_ops),
        (trainer, "target_table", "mixing.mix", None),
        (trainer, "mix_plan", "mixing.mix", None),
        (trainer, "plan_digest", "mixing.digest", None),
        (nn, "forward", "nn.forward", lambda a, _: _rows(a[1])),
        (gmm, "forward", "nn.forward", lambda a, _: _rows(a[1])),
        (nn, "backward", "nn.backward", backward_rows),
        (nn, "sgd_step", "nn.sgd", None),
        (report, "pr_curve", "report.prcurve", None),
        (report, "emit_report", "report.emit", bundle_bytes),
    ]


class Recorder:
    """In-memory span log for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self._stack = [None]

    def wrap(self, fn, name, value):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1], name, clock(), None, None]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if value is not None:
                span[5] = value(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install() -> Recorder:
    recorder = Recorder()
    for module, attr, name, value in _targets():
        setattr(module, attr, recorder.wrap(getattr(module, attr), name, value))
    return recorder


# -- aggregation --------------------------------------------------------------

def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def span_table(spans):
    """name -> [calls, total seconds, self seconds]."""
    child_time = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    table = {}
    for sid, _, name, start, end, _ in spans:
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - child_time.get(sid, 0.0)
    return table


def epoch_intervals_ms(spans):
    """Intervals between successive `trainer.evaluate` returns within a
    stage; a stage starts where its warmup starts."""
    events = sorted([(end, "eval") for _, _, name, _, end, _ in spans if name == "trainer.evaluate"]
                    + [(start, "stage") for _, _, name, start, _, _ in spans
                       if name == "trainer.warmup"])
    out, last = [], None
    for t, kind in events:
        if kind == "stage":
            last = None
            continue
        if last is not None:
            out.append((t - last) * 1e3)
        last = t
    return out


def layer_metrics(span_logs):
    """Per-layer metrics of one pass over the cells, from its processes' span logs."""
    table, intervals = {}, []
    values = {}
    for spans in span_logs:
        for name, (calls, total, self_s) in span_table(spans).items():
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += calls
            row[1] += total
            row[2] += self_s
        intervals += epoch_intervals_ms(spans)
        for _, _, name, _, _, value in spans:
            if value is not None:
                values.setdefault(name, []).append(value)

    def total(name):
        return table.get(name, [0, 0.0, 0.0])[1]

    def calls(name):
        return table.get(name, [0, 0.0, 0.0])[0]

    fits = values.get("gmm.fit", [])
    splits = values.get("selector.split", [])
    em_iters = sum(v[0] for v in fits)
    metrics = {
        "config.load_s": total("config.load"),
        "data.build_s": total("data.build"),
        "gmm.fit_s": total("gmm.fit"),
        "gmm.fit_calls": len(fits),
        "gmm.em_iters": em_iters,
        "gmm.iters_per_fit": em_iters / len(fits) if fits else 0.0,
        "gmm.collapsed": sum(v[1] for v in fits),
        "gmm.loss_forward_s": total("gmm.loss_forward"),
        "gmm.posterior_s": total("gmm.posterior"),
        "nn.forward_s": total("nn.forward"),
        "nn.forward_rows": sum(values.get("nn.forward", [])),
        "nn.backward_s": total("nn.backward"),
        "nn.backward_calls": calls("nn.backward"),
        "nn.backward_rows": sum(values.get("nn.backward", [])),
        "nn.sgd_s": total("nn.sgd"),
        "selector.split_s": total("selector.split"),
        "selector.x_frac": (sum(x / (x + u) for x, u in splits) / len(splits)) if splits else 0.0,
        "mixing.plan_s": total("mixing.plan"),
        "mixing.mix_s": total("mixing.mix"),
        "mixing.mix_ops": sum(values.get("mixing.plan", [])),
        "mixing.digest_s": total("mixing.digest"),
        "trainer.epoch_ms_p50": _percentile(intervals, 50) if intervals else 0.0,
        "trainer.epoch_ms_p90": _percentile(intervals, 90) if intervals else 0.0,
        "trainer.warmup_s": total("trainer.warmup"),
        "trainer.evaluate_s": total("trainer.evaluate"),
        "trainer.self_s": table.get("trainer.cotrain_epoch", [0, 0.0, 0.0])[2],
        "trainer.fallbacks": sum(values.get("trainer.cotrain_epoch", [])),
        "report.prcurve_s": total("report.prcurve"),
        "report.emit_s": total("report.emit"),
        "report.bytes": sum(values.get("report.emit", [])),
    }
    return metrics, table
