"""The longremix benchmark: one workload, measured for a fixed time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --record-fingerprints

Each `longremix train` invocation runs through ``cli.main`` in a fresh
interpreter (``worker.py``) with BLAS and OpenMP pinned to one thread, one
process at a time. Every invocation's bundle is checked (``check.py``) and
its behaviour fingerprint must equal that of every other invocation of the
same cell and the one recorded in ``fingerprints.json``.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes over the workload's
cells and reports per-layer metrics from the traced pass (``tracer.py``).
Metric names and units come from ``BENCHMARK.json``. Human-readable lines
go first; the last line of standard output is one JSON object.

End-to-end timings are reported at the reference machine speed. Every
worker times a fixed numpy calibration workload that shares no code with
the package (``worker.calibrate``) right after set-up, about once a second
during an untraced run (that time is taken out of ``run_s``) and after the
run. Each timing is scaled by REFERENCE_CALIBRATION_S over the calibration
time next to it: the one after set-up for ``setup_s``, the mean of those
during and around the run for ``run_s``. On the shared 2-core
machine the benchmark was sized on, the same work ran up to 1.5 times
slower for seconds to minutes at a time, and the calibration moved with
it; the scaling takes that out of the comparison between runs. Per-layer
timings are not scaled. Raw wall-clock medians are printed and written to
the results file as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
RESULTS = os.path.join(HERE, "results")

# median calibration time on the 2-core Xeon the benchmark was sized on
REFERENCE_CALIBRATION_S = 0.04
SETUP_PROBES = 5           # set-up-only invocations per timed run, after one discarded
HARD_STOP_S = 140          # start nothing after this ...
KILL_AFTER_S = 170         # ... and stop any invocation here, so a run ends within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# per-layer metrics that are counts: they must repeat exactly between passes
EXACT = {"gmm.fit_calls", "gmm.em_iters", "gmm.iters_per_fit", "gmm.collapsed",
         "nn.forward_rows", "nn.backward_calls", "nn.backward_rows", "selector.x_frac",
         "mixing.mix_ops", "trainer.fallbacks", "report.bytes"}
# end-to-end metrics scaled to the reference machine speed
SCALED = ("setup_s", "run_s", "samples_per_s")


class Runner:
    """Starts worker processes inside one scratch directory of the checkout."""

    def __init__(self, workdir, kill_at):
        self.workdir = workdir
        self.kill_at = kill_at
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if k != "LONGREMIX_OUTDIR"}
        self.env.update(PINNED_ENV, PYTHONPATH=SRC)

    def invoke(self, cell, trace=False, probe=False, environment=False):
        """Run one cell; return a record with timings, or with ``error`` set."""
        self.count += 1
        tag = os.path.join(self.workdir, f"{self.count:04d}")
        config_path, outdir = tag + ".conf", tag + "-out"
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(cell["config"]))
        job = {"src": SRC, "trace": trace, "probe": probe, "environment": environment,
               "argv": ["train", "--config", config_path, "--out", outdir, *cell["args"]],
               "result": tag + "-result.json", "spans": tag + "-spans.json"}
        with open(tag + "-job.json", "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        record = {"cell": cell["name"], "trace": trace, "probe": probe}
        start = time.monotonic()
        timeout = max(1.0, self.kill_at - start)
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                                   tag + "-job.json"],
                                  env=self.env, cwd=self.workdir, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            record["error"] = f"killed after {timeout:.0f} s"
            return record
        try:
            with open(job["result"], encoding="utf-8") as fh:
                out = json.load(fh)
        except (OSError, ValueError):
            out = {"rc": None, "error": proc.stderr[-2000:]}
        if out.get("rc") != 0 or proc.returncode != 0:
            record["error"] = out.get("error") or f"exit {out.get('rc')}: {proc.stderr[-2000:]}"
            return record
        record["setup_s"] = out["entry"] - start
        calibration = out["calibration_s"]
        record["setup_speed"] = REFERENCE_CALIBRATION_S / calibration[0]
        record["environment"] = out.get("environment")
        if probe:
            return record
        record["speed"] = REFERENCE_CALIBRATION_S / statistics.mean(calibration)
        record["run_s"] = out["end"] - out["start"] - out["paused_s"]
        record["rss_mb"] = out["rss_kb"] / 1024.0
        record["samples_per_s"] = workloads.sample_epochs(cell["config"]) / record["run_s"]
        try:
            record["fingerprint"], record["summary"] = check.check_bundle(outdir, cell["config"])
        except (check.CheckError, OSError, KeyError, TypeError, ValueError) as exc:
            record["error"] = f"output check: {type(exc).__name__}: {exc}"
        if trace:
            with open(job["spans"], encoding="utf-8") as fh:
                record["spans"] = json.load(fh)
        shutil.rmtree(outdir, ignore_errors=True)
        return record


def _remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass  # another run is still using it


def _load_json(path, default=None):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(worker_env):
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "platform": platform.platform(),
            **(worker_env or {}),
            "thread_env": {k: os.environ.get(k) for k in PINNED_ENV if k != "PYTHONHASHSEED"},
            "worker_thread_env": {k: v for k, v in PINNED_ENV.items() if k != "PYTHONHASHSEED"}}


def verify_fingerprints(workload, records, recorded):
    """Mark failed every invocation whose behaviour differs from the recorded
    fingerprint of its cell, or from the cell's first invocation."""
    first = {}
    expected = recorded.get(workload, {})
    for rec in records:
        if "error" in rec or rec["probe"]:
            continue
        want = first.setdefault(rec["cell"], expected.get(rec["cell"], rec["fingerprint"]))
        if rec["fingerprint"] != want:
            rec["error"] = f"fingerprint {rec['fingerprint'][:12]} != expected {want[:12]}"


def timed_run(runner, cells, deadline, hard_stop):
    """Set-up probes, then cells in order: at least one full pass, and more
    invocations while time remains."""
    records = [runner.invoke(cells[0], probe=True) for _ in range(SETUP_PROBES)]
    i = 0
    while i < len(cells) or (time.monotonic() < deadline and time.monotonic() < hard_stop):
        records.append(runner.invoke(cells[i % len(cells)]))
        i += 1
    return records


def end_to_end_metrics(records):
    """Medians over every invocation that ran to the end, including those
    whose output check failed (the run then reports correct=false), with
    each timing scaled to the reference machine speed. Returns (metrics,
    raw samples)."""
    runs = [r for r in records if "run_s" in r]
    first = {}
    for r in runs:
        if "summary" in r:
            first.setdefault(r["cell"], r["summary"])
    per_cell = list(first.values())
    if not per_cell:
        return None, {}
    setups = [r for r in records if "setup_s" in r]
    scaled = {
        "setup_s": [r["setup_s"] * r["setup_speed"] for r in setups],
        "run_s": [r["run_s"] * r["speed"] for r in runs],
        "samples_per_s": [r["samples_per_s"] / r["speed"] for r in runs],
    }
    samples = {
        "setup_s": [r["setup_s"] for r in setups],
        "run_s": [r["run_s"] for r in runs],
        "samples_per_s": [r["samples_per_s"] for r in runs],
        "peak_rss_mb": [r["rss_mb"] for r in runs],
        "best_acc": [s["best_acc"] for s in per_cell],
        "last10_acc": [s["last10_acc"] for s in per_cell],
    }
    return {k: statistics.median(scaled.get(k, v)) for k, v in samples.items()}, samples


def trace_run(runner, cells, deadline, hard_stop):
    """Pairs of (untraced pass, traced pass) over all cells: at least one
    pair, more while time remains."""
    records, passes = [], []
    while not passes or (time.monotonic() < deadline and time.monotonic() < hard_stop):
        for traced in (False, True):
            batch = [runner.invoke(cell, trace=traced) for cell in cells]
            records += batch
            passes.append((traced, batch))
    return records, passes


def per_layer_metrics(passes):
    """Layer metrics of each traced pass; timings take the median over
    passes, counts must repeat exactly. Returns (metrics, table, mismatch)."""
    def run_total(batch):
        return sum(r["run_s"] * r["speed"] for r in batch)

    clean = [(t, b) for t, b in passes if all("run_s" in r and (not t or "spans" in r) for r in b)]
    traced = [b for t, b in clean if t]
    plain = [b for t, b in clean if not t]
    if not traced or not plain:
        return None, {}, False
    per_pass = [tracer.layer_metrics([r["spans"] for r in b]) for b in traced]
    metrics, mismatch = {}, False
    for name in per_pass[0][0]:
        values = [m[name] for m, _ in per_pass]
        if name in EXACT:
            mismatch |= len(set(values)) > 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = (statistics.median(run_total(b) for b in traced)
                                       / statistics.median(run_total(b) for b in plain))
    return metrics, per_pass[0][1], mismatch


def print_layer_table(table, metrics):
    run = table["trainer.run"][1]
    print(f"{'span':24s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s} {'self%':>6s}")
    for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:24s} {calls:8d} {total:9.3f} {self_s:9.3f} {100 * self_s / run:6.1f}")
    top = max(table, key=lambda name: table[name][2])
    print(f"design: largest self time is {top}")
    print(f"design: gmm.fit_calls={metrics['gmm.fit_calls']} mixing.mix_ops="
          f"{metrics['mixing.mix_ops']} gmm.iters_per_fit={metrics['gmm.iters_per_fit']:.2f}")


def record_fingerprints():
    """Re-record fingerprints.json from one run of every recorded cell."""
    workdir = os.path.join(ROOT, ".perfbench_work", f"record-{os.getpid():07d}")
    os.makedirs(workdir)
    recorded = {}
    try:
        runner = Runner(workdir, kill_at=time.monotonic() + 1800)
        for name, cells in workloads.WORKLOADS.items():
            recorded[name] = {}
            for cell in cells:
                rec = runner.invoke(cell)
                if "error" in rec:
                    print(f"{name} {cell['name']}: {rec['error']}", file=sys.stderr)
                    return 1
                recorded[name][cell["name"]] = rec["fingerprint"]
                print(f"{name} {cell['name']} {rec['fingerprint']}")
    finally:
        _remove_workdir(workdir)
    with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="base workload seed; recorded only, see workloads.py")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-fingerprints", action="store_true",
                        help="re-record fingerprints.json and exit")
    args = parser.parse_args(argv)

    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if spec is None or not os.path.isfile(os.path.join(SRC, "longremix", "cli.py")):
        print(f"no BENCHMARK.json or longremix sources under {ROOT}", file=sys.stderr)
        return 2
    if args.record_fingerprints:
        return record_fingerprints()
    if args.workload is None:
        parser.error("--workload is required")

    start = time.monotonic()
    deadline, hard_stop = start + args.seconds, start + HARD_STOP_S
    cells = workloads.WORKLOADS[args.workload]
    recorded = _load_json(FINGERPRINTS, {})
    # fixed-width name: metrics.json echoes the output path, so report.bytes
    # repeats exactly only if the path length does
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid():07d}")
    os.makedirs(workdir)
    try:
        runner = Runner(workdir, kill_at=start + KILL_AFTER_S)
        warm = runner.invoke(cells[0], probe=True, environment=True)
        if "error" in warm:
            print(f"set-up failed: {warm['error']}", file=sys.stderr)
            return 1
        if args.trace:
            records, passes = trace_run(runner, cells, deadline, hard_stop)
        else:
            records = timed_run(runner, cells, deadline, hard_stop)
    finally:
        _remove_workdir(workdir)

    verify_fingerprints(args.workload, records, recorded)
    attempted = sum(not r["probe"] for r in records)
    failed = sum(not r["probe"] and "error" in r for r in records)
    probe_failures = sum(r["probe"] and "error" in r for r in records)
    env = machine_info(warm["environment"])
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"cells={len(cells)} invocations={attempted} elapsed_s={time.monotonic() - start:.1f}")
    print("machine: " + json.dumps(env, sort_keys=True))
    for r in records:
        if "error" in r:
            print(f"FAILED {r['cell']} trace={int(r['trace'])}: {r['error']}")
    if args.trace:
        listed = spec["per_layer"]
        metrics, table, mismatch = per_layer_metrics(passes)
        failed += mismatch
        if metrics is not None:
            print_layer_table(table, metrics)
        samples = {}
    else:
        listed = spec["end_to_end"]
        metrics, samples = end_to_end_metrics(records)
        speeds = [r["setup_speed"] for r in records if "setup_speed" in r]
        print(f"machine speed relative to the reference calibration ({REFERENCE_CALIBRATION_S}"
              f" s): median {statistics.median(speeds):.4f}, min {min(speeds):.4f}, "
              f"max {max(speeds):.4f}; timings below are scaled by it")
    if metrics is None:
        print("no invocation succeeded", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        raise SystemExit(f"metric set differs from BENCHMARK.json: {set(units) ^ set(metrics)}")
    for name, value in metrics.items():
        extra = ""
        if name in samples:
            v = samples[name]
            raw = f"raw median {statistics.median(v):.6g}, raw " if name in SCALED else ""
            extra = f"  median of n={len(v)} ({raw}min {min(v):.6g}, max {max(v):.6g})"
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"{name:22s} {shown} {units[name]}{extra}")
    print(f"{'failed_ratio':22s} {failed / attempted:14.6g} ratio  "
          f"({failed} of {attempted} runs; {probe_failures} set-up probes failed)")

    correct = failed == 0 and probe_failures == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "machine": env, "raw_samples": samples,
                   "cells": [c["name"] for c in cells],
                   "invocations": [{k: v for k, v in r.items() if k != "spans"}
                                   for r in records]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
