"""Noisy-label learning at desk scale.

Two co-trained MLP classifiers, a loss-GMM clean/noisy splitter with a
confidence window, core-set guided retraining with oversampled MixUp, and
a Monte-Carlo validator for the selection precision/recall model.
"""

import os

# One BLAS thread unless the caller chose otherwise. The pair's two forked
# workers would each inherit a thread pool sized for the whole machine, and
# the pools' spinning threads crowd out the other worker. BLAS reads these
# when numpy first loads, so they are set before any module here imports it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

__version__ = "0.1.0"
