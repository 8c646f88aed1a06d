"""Double-precision copies of the float32 networks.

The engine keeps the dtype of its inputs, so a module whose parameters are
float64 runs every op in float64.  Finite-difference checks and the
rounding-level comparisons (rel 1e-12) are calibrated to float64 and run
on such copies; the float32 nets themselves are checked bitwise.
"""

import numpy as np


def in_float64(module):
    """``module`` with every parameter cast to float64 in place."""
    for p in module.named_parameters().values():
        p.data = p.data.astype(np.float64)
    return module


def learner_in_float64(learner):
    """A ``Learner`` whose nets and mixers are all float64, before its
    first step: Adam's moments then start in float64 too."""
    for module in (learner.net, learner.target_net, learner.mixer,
                   learner.target_mixer):
        if module is not None:
            in_float64(module)
    return learner
