"""The dense hypernetwork layers: every entity row through the
hypernetworks, all-zero and dead rows included.

``permnet.hpn`` generates weights once per distinct row; these are the
layers it replaced, kept as the oracle it is checked against.  They take
the same ``distinct_rows`` key as the layers they stand in for, and
rebuild the entity block X from ``rows[ranks]`` before using it;
``test_distinct_rows_rebuilds_the_block_bitwise`` checks that the key
gives X back bit for bit.  The dense input layer pools each set on its
own: it sorts the set's rows by their raw bits and adds their embeddings
in that order from +0.0, which is the order ``permnet.hpn`` reaches
through its ranks over the whole batch.  The dense output layer scores
every enemy, dead ones included, as ``permnet.hpn`` does.
"""

import numpy as np

import permnet.baselines
import permnet.hpn
from permnet.autodiff import (
    Tensor,
    add,
    bmm,
    concat,
    mul,
    reduce_sum,
    reshape,
)


def take_rows(t, indices):
    """Rows ``t[indices]`` along the first axis, for 1-d indices in any
    order that may repeat a row; backward adds each copy's gradient into
    its row with ``np.add.at``."""
    def rule(g):
        full = np.zeros_like(t.data)
        np.add.at(full, indices, g)
        t._accumulate(full)

    return Tensor._from_op(t.data[indices], (t,), rule)


def entity_block(rows, ranks):
    """The entity block X (..., m, k) that the key ``rows, ranks`` came
    from: ``rows[ranks]``."""
    return reshape(take_rows(rows, ranks.reshape(-1)),
                   ranks.shape + rows.shape[1:])


def dense_input_layer(layer, rows, ranks):
    X = entity_block(rows, ranks)
    weights, _ = layer.generate(X)          # (..., m, k, h)
    lead = X.shape[:-1]
    flat = int(np.prod(lead))
    per_entity = bmm(reshape(X, (flat, 1, layer.feature_dim)),
                     reshape(weights, (flat, layer.rows, layer.cols)))
    # each set's rows in the order of a sort of their bits: the set index
    # is the primary key, then the columns from the last to the first
    words = np.ascontiguousarray(X.data).reshape(flat, layer.feature_dim)
    words = words.view(f"u{words.itemsize}")
    n_sets = int(np.prod(lead[:-1]))
    sets = np.repeat(np.arange(n_sets), lead[-1])
    order = np.lexsort((*words.T, sets))
    ranked = take_rows(reshape(per_entity, (flat, layer.cols)), order)
    pooled = reduce_sum(reshape(ranked, lead + (layer.cols,)), axis=-2)
    if layer.shared_bias is None:
        return pooled
    return add(pooled, layer.shared_bias)


def dense_output_layer(layer, trunk_hidden, rows, ranks):
    X_enemy = entity_block(rows, ranks)
    weights, bias = layer.generate(X_enemy)     # (..., m, h, 1), (..., m)
    m = X_enemy.shape[-2]
    lead = X_enemy.shape[:-2]
    if m == 0:
        return Tensor(np.zeros(lead + (0,), trunk_hidden.data.dtype))
    w = reshape(weights, lead + (m, layer.rows))
    hr = reshape(trunk_hidden, lead + (1, layer.rows))
    h = concat([hr] * m, axis=-2)
    scores = reduce_sum(mul(w, h), axis=-1)
    return scores if bias is None else add(scores, bias)


def use_dense_layers(monkeypatch):
    """Point every permnet binding of the two layers at the dense ones."""
    monkeypatch.setattr(permnet.hpn, "hpn_input_layer", dense_input_layer)
    for module in (permnet.hpn, permnet.baselines):
        monkeypatch.setattr(module, "hpn_output_layer", dense_output_layer)
