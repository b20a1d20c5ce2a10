"""One `longremix train` invocation in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job names the checkout's ``src`` directory, the CLI arguments, whether
to trace, and whether this is a set-up probe, which stops at the entry of
``run_training``. The result file records the monotonic-clock time of that
entry and of the return of ``cli.main``: run.py started its clock just
before starting this process, so setup time includes interpreter start.
The worker times a fixed calibration workload right after set-up and, in a
full invocation, again after the run. An untraced invocation also times a
short one after the first `trainer.evaluate` return in each second of the
run (once per epoch at most), and reports the time spent on those, so
that run.py can take it out of the run time.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback


class SetupDone(Exception):
    """Raised at the entry of run_training to end a set-up probe."""


def _environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


CALIBRATION_INTERVAL_S = 1.0


def calibrate(repeats=5):
    """Median seconds of a fixed numpy workload shaped like the program's
    hot paths: a small-batch MLP forward and backward, elementwise passes
    over 2000 x 2 arrays as in the mixture EM, and two 2000-row forwards.
    It shares no code with the package, so a change to the package cannot
    move it; it tracks how fast the machine is while the run goes."""
    import numpy as np
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(64, 2))
    full = rng.normal(size=(2000, 2))
    ws = [rng.normal(size=shape) * 0.3 for shape in ((2, 64), (64, 64), (64, 16))]
    loss = rng.random(2000)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(200):
            a, acts = batch, [batch]
            for w in ws:
                a = np.maximum(a @ w, 0.0)
                acts.append(a)
            g = np.exp(a - a.max(axis=1, keepdims=True))
            g /= g.sum(axis=1, keepdims=True)
            for w, a in zip(reversed(ws), reversed(acts[:-1])):
                g = (g @ w.T) * (a > 0)
        for _ in range(100):
            comp = -0.5 * (np.log(2 * np.pi * 0.1) + (loss[:, None] - [0.2, 0.8]) ** 2 / 0.1)
            resp = np.exp(comp - comp.max(axis=1, keepdims=True))
            resp /= resp.sum(axis=1, keepdims=True)
            (resp * loss[:, None]).sum(axis=0)
        for _ in range(2):
            a = full
            for w in ws:
                a = np.maximum(a @ w, 0.0)
        times.append(time.perf_counter() - start)
    return sorted(times)[len(times) // 2]


def _calibrate_during_run(marks):
    """Calibrate after an epoch's evaluation once a second has passed since
    the run started or the last calibration; count the pause."""
    from longremix import trainer
    evaluate = trainer.evaluate

    def evaluate_then_calibrate(*args, **kwargs):
        result = evaluate(*args, **kwargs)
        now = time.monotonic()
        if now - marks.get("last", marks["start"]) >= CALIBRATION_INTERVAL_S:
            marks["calibration_s"].append(calibrate(repeats=1))
            marks["last"] = time.monotonic()
            marks["paused_s"] += marks["last"] - now
        return result

    trainer.evaluate = evaluate_then_calibrate


def run(job):
    import longremix
    src = os.path.join(job["src"], "")
    if not os.path.abspath(longremix.__file__).startswith(src):
        raise RuntimeError(f"longremix imported from {longremix.__file__}, not from {src}")
    from longremix import cli

    recorder = None
    if job["trace"]:
        import tracer
        recorder = tracer.install()
    marks = {"paused_s": 0.0}
    run_training = cli.run_training

    def entry(*args, **kwargs):
        marks["entry"] = time.monotonic()
        marks["calibration_s"] = [calibrate()]
        if job["probe"]:
            raise SetupDone
        marks["start"] = time.monotonic()
        return run_training(*args, **kwargs)

    cli.run_training = entry
    if not job["trace"]:
        _calibrate_during_run(marks)
    try:
        rc = cli.main(job["argv"])
    except SetupDone:
        rc = 0
    marks["end"] = time.monotonic()
    if "start" in marks:
        marks["calibration_s"].append(calibrate())
    out = {"rc": rc, **marks,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if job["environment"]:
        out["environment"] = _environment()
    if recorder is not None:
        recorder.write(job["spans"])
    return out


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    try:
        out = run(job)
    except Exception:  # reported to run.py, which counts the run as failed
        out = {"rc": None, "error": traceback.format_exc()}
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0 if out["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
