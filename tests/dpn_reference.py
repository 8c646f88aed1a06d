"""DPN's permutation matrix built by the masked Gumbel-softmax loop for
every config, one graph node per step of every slot.

``permnet.dpn`` selects a deterministic hard matrix by a masked argmax of
the assignment scores and returns it as a constant, and builds every
other config's matrix as one graph node.  This is the graph-building loop
both replaced, kept as the oracle they are checked against for every
config: M, the gradients and the Generator's state afterwards.  Each slot
row takes the scores' column, masks taken entities, runs
``gumbel_softmax`` (noise, softmax, and for a hard config the argmax
one-hot, straight-through) and concatenates the rows.
"""

from dataclasses import replace

import numpy as np

import permnet.dpn
from permnet.autodiff import Tensor, add, concat, reshape, take_index
from permnet.gumbel import gumbel_softmax
from permnet.layers import NEG_MASK


def softmax_permutation_matrix(net, X, rng=None, deterministic=None):
    cfg = net.gumbel
    if deterministic is not None:
        cfg = replace(cfg, deterministic=deterministic)
    m = X.shape[-2]
    lead = X.shape[:-2]
    if m == 0:
        return Tensor(np.zeros(lead + (0, 0), X.data.dtype))
    scores = net.assign_mlp(X)
    taken = np.zeros(lead + (m,), scores.data.dtype)
    rows = []
    for d in range(m):
        logits = take_index(scores, np.full(lead + (m,), d, dtype=np.intp))
        row = gumbel_softmax(add(logits, Tensor(NEG_MASK * taken)), cfg, rng)
        taken = taken + row.data
        rows.append(reshape(row, lead + (1, m)))
    return concat(rows, axis=-2)


def use_softmax_loop(monkeypatch):
    """Point ``DpnAgentNet.forward_batch`` at the softmax loop."""
    monkeypatch.setattr(permnet.dpn, "generate_permutation_matrix",
                        softmax_permutation_matrix)
