"""Hypernetwork layers that build order-free agent Q-networks.

The input side embeds each entity through a weight matrix generated from
that entity's own features and pools the results with an order-free sum,
so reordering entities cannot change the embedding.  The output side
generates one (weight, bias) pair per enemy and scores the shared trunk
hidden state with it, so attack Q-values follow their entities exactly
under reordering.  Unlike canonicalization approaches, the same entity
features always meet the same generated weights no matter what the rest
of the group looks like.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    bmm,
    canonical_sum,
    concat,
    mul,
    reduce_sum,
    relu,
    reshape,
    uniform_init,
)
from .env import ENTITY_FEATURES, N_MOVE_ACTIONS, OWN_FEATURES
from .layers import NEG_MASK, AgentNet, Linear, Module


class HyperLayer(Module):
    """Two-layer hypernetwork emitting one weight block per entity.

    ``generate(X)`` maps entity features (..., m, k) to weight blocks
    (..., m, rows, cols), plus a per-entity bias (..., m) when configured.
    The final layer is split into parallel weight/bias heads over a shared
    hidden layer, which is the same arithmetic as one wide output layer.
    ``shared_bias`` adds a single learned (cols,) bias for sum-pooled use.
    """

    def __init__(self, rng: np.random.Generator, feature_dim: int, rows: int,
                 cols: int, hidden: int = 64, per_entity_bias: bool = False,
                 shared_bias: bool = False):
        self.feature_dim = feature_dim
        self.rows = rows
        self.cols = cols
        self.body = Linear(rng, feature_dim, hidden)
        self.w_head = Linear(rng, hidden, rows * cols)
        self.b_head = Linear(rng, hidden, 1) if per_entity_bias else None
        self.shared_bias = (Tensor(uniform_init(rng, feature_dim, (cols,)),
                                   requires_grad=True) if shared_bias else None)

    def generate(self, X: Tensor):
        if X.shape[-1] != self.feature_dim:
            raise ShapeError(
                f"entity feature width {X.shape[-1]} != {self.feature_dim}")
        z = relu(self.body(X))
        weights = reshape(self.w_head(z),
                          X.shape[:-1] + (self.rows, self.cols))
        if self.b_head is None:
            return weights, None
        # a width-1 matmul runs through a BLAS matvec kernel whose per-row
        # result can depend on the row's position in the batch; the
        # elementwise form keeps each entity's bias bit-identical under
        # reordering
        wvec = reshape(self.b_head.weight, (self.b_head.in_dim,))
        bias = add(reduce_sum(mul(z, wvec), axis=-1), self.b_head.bias)
        return weights, bias


def hpn_input_layer(layer: HyperLayer, X: Tensor) -> Tensor:
    """Embed a set: each entity through its own generated (k, h) matrix,
    pooled by a sort-based sum so any input order gives bitwise-identical
    output, plus the layer's shared bias.  (..., m, k) -> (..., h)."""
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


def hpn_output_layer(layer: HyperLayer, trunk_hidden: Tensor,
                     X_enemy: Tensor) -> Tensor:
    """One Q-value per enemy: score the shared hidden state with that
    enemy's generated (h, 1) weights and scalar bias.  Row i of the output
    is computed from row i of the input alone, so reordering enemies
    reorders the output exactly."""
    if trunk_hidden.shape[-1] != layer.rows:
        raise ShapeError(
            f"trunk width {trunk_hidden.shape[-1]} != {layer.rows}")
    weights, bias = layer.generate(X_enemy)     # (..., m, h, 1), (..., m)
    m = X_enemy.shape[-2]
    lead = X_enemy.shape[:-2]
    if m == 0:
        return Tensor(np.zeros(lead + (0,)))
    w = reshape(weights, lead + (m, layer.rows))
    # score each row with an elementwise product and a per-row sum rather
    # than a width-1 matmul: BLAS matvec kernels are not bitwise row-stable
    hr = reshape(trunk_hidden, lead + (1, layer.rows))
    h = concat([hr] * m, axis=-2)
    scores = reduce_sum(mul(w, h), axis=-1)
    return scores if bias is None else add(scores, bias)


def hpn_attack_head(layer: HyperLayer, trunk_hidden: Tensor,
                    enemies: Tensor) -> Tensor:
    """Attack Q-values (B, m) from the generated output layer, with the
    entries of dead enemies (alive flag 0) pushed to NEG_MASK so selection
    never picks them."""
    attack = hpn_output_layer(layer, trunk_hidden, enemies)
    return add(attack, Tensor(NEG_MASK * (1.0 - enemies.data[..., 3])))


class HpnAgentNet(AgentNet):
    """Per-agent Q-network, order-free by construction.

    hidden = relu(own_dense(own) + set-embed(allies) + set-embed(enemies));
    move Q-values come from a plain head on hidden, attack Q-values from
    per-enemy generated output weights (``hpn_attack_head``).
    """

    def __init__(self, rng: np.random.Generator, n_allies: int,
                 n_enemies: int, hidden: int = 64, hyper_hidden: int = 64):
        self.n_allies = n_allies
        self.n_enemies = n_enemies
        self.hidden = hidden
        k = ENTITY_FEATURES
        self.own_dense = Linear(rng, OWN_FEATURES, hidden)
        self.ally_embed = HyperLayer(rng, k, k, hidden, hyper_hidden,
                                     shared_bias=True)
        self.enemy_embed = HyperLayer(rng, k, k, hidden, hyper_hidden,
                                      shared_bias=True)
        self.move_head = Linear(rng, hidden, N_MOVE_ACTIONS)
        self.attack_head = HyperLayer(rng, k, hidden, 1, hyper_hidden,
                                      per_entity_bias=True)

    def forward_batch(self, own: Tensor, allies: Tensor, enemies: Tensor, *,
                      rng: np.random.Generator | None = None,
                      deterministic: bool = True) -> Tensor:
        """(B, own) + (B, n-1, k) + (B, m, k) -> (B, n_move + m)."""
        h = relu(add(add(self.own_dense(own),
                         hpn_input_layer(self.ally_embed, allies)),
                     hpn_input_layer(self.enemy_embed, enemies)))
        return concat([self.move_head(h),
                       hpn_attack_head(self.attack_head, h, enemies)], axis=1)
