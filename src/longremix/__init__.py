"""Noisy-label learning at desk scale.

Two co-trained MLP classifiers, a loss-GMM clean/noisy splitter with a
confidence window, core-set guided retraining with oversampled MixUp, and
a Monte-Carlo validator for the selection precision/recall model.
"""

import os
import sys

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# numpy loaded before this package with none of these set: BLAS has sized
# its thread pool for the whole machine, and the pair keeps to one process
# (trainer._use_workers) rather than fork that pool into the stage's worker
BLAS_UNPINNED = "numpy" in sys.modules and not any(n in os.environ for n in _BLAS_THREADS)

# One BLAS thread unless the caller chose otherwise. The stage's forked
# worker would inherit a thread pool sized for the whole machine, and each
# process's spinning pool threads crowd out the other process. BLAS reads these
# when numpy first loads, so they are set before any module here imports it.
for _name in _BLAS_THREADS:
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"
