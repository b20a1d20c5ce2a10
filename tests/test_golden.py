"""Training bundles pinned by sha256, one per mode, in golden.json.

A bundle's bytes are fixed by its config, the BLAS kernel and numpy's
version; its decisions (splits, plan digests, counts, accuracies) by its
config alone. So the decision files are compared on every kernel, and the
mixture fits and the checkpoints only on the kernel and numpy version the
digests were recorded on.

Re-record (a behaviour change: name it where the change is described):

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import os
from pathlib import Path

# longremix before numpy (see conftest.py) when run as the re-record command
from longremix import cli, trainer

import numpy as np

GOLDEN = Path(__file__).with_name("golden.json")
DECISION_FILES = ("metrics.json", "epochs.csv", "prcurve.csv", "plans.csv", "bundle.json")
CONF = """dataset.n = 300
dataset.test_n = 200
dataset.classes = 4
noise.kind = symmetric
noise.eta = 0.5
train.mode = {mode}
train.epochs = 20
train.warmup = 5
report.plan_digests = true
report.checkpoints = true
report.gmm_dump = {gmm_dump}
"""


def blas_core():
    """The name of the OpenBLAS kernel numpy runs on, or None where numpy's
    bundled library does not report it."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                       *root.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def run_bundle(tmp, mode, out):
    """``{file name: sha256}`` of the bundle that ``train`` writes for ``mode``."""
    path = tmp / f"{mode}.conf"
    path.write_text(CONF.format(mode=mode, gmm_dump=str(mode != "ce").lower()))
    assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_bundles_match_golden_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    same_kernel = (golden["blas_core"], golden["numpy"]) == (blas_core(), np.__version__)
    print(f"golden: {'every file' if same_kernel else 'decision files only'} "
          f"(recorded on {golden['blas_core']}, numpy {golden['numpy']}; "
          f"running on {blas_core()}, numpy {np.__version__})")
    # each transport into an --out path of its own length
    transports = [(True, tmp_path / "o"), (False, tmp_path / "a-longer-output-directory")]
    for workers, out in transports if hasattr(os, "fork") else transports[1:]:
        monkeypatch.setattr(trainer, "_use_workers", lambda: workers)
        for mode, want in golden["bundles"].items():
            got = run_bundle(tmp_path, mode, out / mode)
            assert got.keys() == want.keys()
            for name in want if same_kernel else want.keys() & DECISION_FILES:
                assert got[name] == want[name], (mode, name, workers)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        bundles = {mode: run_bundle(Path(tmp), mode, Path(tmp, "out", mode))
                   for mode in trainer.MODES}
    GOLDEN.write_text(json.dumps({"blas_core": blas_core(), "numpy": np.__version__,
                                  "bundles": bundles}, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
