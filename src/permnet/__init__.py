"""Permutation-invariant and -equivariant agent networks for cooperative
multi-agent Q-learning, with a deterministic micro-battle environment,
VDN/QMIX learners, and a small experiment CLI."""

import os

# one BLAS thread before numpy loads: threaded sums depend on the host
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
