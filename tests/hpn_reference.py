"""The dense hypernetwork layers: every entity row through the
hypernetworks, all-zero and dead rows included.

``permnet.hpn`` generates weights for live rows only; these are the layers
it replaced, kept as the oracle it is checked against.  The dense output
layer scores every enemy and then adds ``NEG_MASK`` to the dead ones, so a
dead entry is ``NEG_MASK`` plus a score, not exactly ``NEG_MASK``.
"""

import numpy as np

import permnet.baselines
import permnet.hpn
from permnet.autodiff import (
    Tensor,
    add,
    bmm,
    canonical_sum,
    concat,
    mul,
    reduce_sum,
    reshape,
)
from permnet.layers import NEG_MASK


def dense_input_layer(layer, X):
    weights, _ = layer.generate(X)          # (..., m, k, h)
    lead = X.shape[:-1]
    flat = int(np.prod(lead)) if lead else 1
    per_entity = bmm(reshape(X, (flat, 1, layer.feature_dim)),
                     reshape(weights, (flat, layer.rows, layer.cols)))
    per_entity = reshape(per_entity, lead + (layer.cols,))
    pooled = canonical_sum(per_entity, axis=-2)
    if layer.shared_bias is None:
        return pooled
    return add(pooled, layer.shared_bias)


def dense_output_layer(layer, trunk_hidden, X_enemy):
    weights, bias = layer.generate(X_enemy)     # (..., m, h, 1), (..., m)
    m = X_enemy.shape[-2]
    lead = X_enemy.shape[:-2]
    if m == 0:
        return Tensor(np.zeros(lead + (0,), trunk_hidden.data.dtype))
    w = reshape(weights, lead + (m, layer.rows))
    hr = reshape(trunk_hidden, lead + (1, layer.rows))
    h = concat([hr] * m, axis=-2)
    scores = reduce_sum(mul(w, h), axis=-1)
    attack = scores if bias is None else add(scores, bias)
    return add(attack, Tensor(NEG_MASK * (1.0 - X_enemy.data[..., 3])))


def use_dense_layers(monkeypatch):
    """Point every permnet binding of the two layers at the dense ones."""
    monkeypatch.setattr(permnet.hpn, "hpn_input_layer", dense_input_layer)
    for module in (permnet.hpn, permnet.baselines):
        monkeypatch.setattr(module, "hpn_output_layer", dense_output_layer)
