"""Hypernetwork layers that build order-free agent Q-networks.

The input side embeds each entity through a weight matrix generated from
that entity's own features and sums the embeddings, so reordering
entities cannot change the pooled embedding.  The output side generates
one (weight, bias) pair per enemy and scores the shared trunk hidden
state with it, so attack Q-values follow their entities exactly under
reordering.  Unlike canonicalization approaches, the same entity
features always meet the same generated weights no matter what the rest
of the group looks like.

Weights are generated once per distinct entity row.  An entity's weights
depend on its own features alone, so rows with the same bits share one
generated block and one embedding, gathered back to every row.
``distinct_rows`` keys an entity block once per forward, and both layers
take that key.  The distinct rows enter the GEMMs in the order of a sort
of their raw bits, so any order of the same entities gives the same GEMM
inputs.  Each set adds its embeddings in that rank order, from +0.0:
rows that tie in rank have the same bits and so the same embedding, so
the pooled bits do not depend on the set's order.  A dead entity, and
every row a dead observer sees, is all-zero, and its embedding x @ W(x)
is +-0.  A dead enemy gets a finite attack value like any other row;
it is never an available action, and ``learners.greedy_actions`` masks
it.  From two rows up a row's result does not depend on which other rows
share the batch, so sharing rows changes no forward value.  A one-row
product is the exception: BLAS runs it as a matrix-vector product, and a
(1, 64) @ (64, 256) row differs in its last bits from the same row
inside a larger batch, in float32 and float64 alike.  So a lone distinct
row may differ from what the dense layers would give it, but never
between two orders of the same entities.  Rows of an input that needs a
gradient are never shared (see ``distinct_rows``).  The attack head
gathers the generated weights enemy-major and broadcasts the trunk state
over the enemies.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    bmm,
    canonical_sum,
    concat,
    count_matrix,
    mul,
    reduce_sum,
    relu,
    reshape,
    uniform_init,
)
from .env import ENTITY_FEATURES, N_MOVE_ACTIONS, OWN_FEATURES
from .layers import AgentNet, Linear, Module


class HyperLayer(Module):
    """Two-layer hypernetwork emitting one weight block per entity.

    ``generate(X)`` maps entity features (..., m, k) to weight blocks
    (..., m, rows, cols) and, with ``per_entity_bias``, a generated bias
    (..., m); the final layer is split into parallel weight/bias heads over
    a shared hidden layer, which is the same arithmetic as one wide output
    layer.  Without it the layer owns one learned (cols,) ``shared_bias``
    for sum-pooled use instead, and ``generate`` returns no bias.
    """

    def __init__(self, rng: np.random.Generator, feature_dim: int, rows: int,
                 cols: int, hidden: int = 64, per_entity_bias: bool = False):
        self.feature_dim = feature_dim
        self.rows = rows
        self.cols = cols
        self.body = Linear(rng, feature_dim, hidden)
        self.w_head = Linear(rng, hidden, rows * cols)
        self.b_head = Linear(rng, hidden, 1) if per_entity_bias else None
        self.shared_bias = (None if per_entity_bias else Tensor(
            uniform_init(rng, feature_dim, (cols,)), requires_grad=True))

    def generate(self, X: Tensor):
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


def distinct_rows(X: Tensor):
    """``rows, ranks`` for the entity rows of X (..., m, k): ``rows`` (U, k)
    holds each distinct row once, in the order of a sort of the rows' raw
    bits, and ``rows[ranks]`` (..., m) is X bit for bit, so ``ranks`` ranks
    the rows by their bits.  Rows are compared as bits, so -0.0 and +0.0
    are two rows.  The rows of an input that needs a gradient are never
    merged, since a merged row's gradient would go to one copy; they are
    still ranked.  ``rows`` is one node whose only parent is X, and its
    gradient is an exact copy: each row's gradient is written back to the
    row of X it came from."""
    lead = X.shape[:-1]
    flat = X.data.reshape(math.prod(lead), X.shape[-1])
    words = np.ascontiguousarray(flat).view(f"u{flat.itemsize}")
    order = np.lexsort(words.T)
    new = np.ones(len(words), bool)
    if not X.requires_grad:
        ranked = words[order]
        # rows differ where any column does; any(axis=1) is slow on short
        # rows
        np.logical_or.reduce(list((ranked[1:] != ranked[:-1]).T),
                             out=new[1:])
    ranks = np.empty(len(words), np.intp)
    ranks[order] = np.cumsum(new) - 1
    keep = order[new]

    def rule(g):
        # runs only when X needs a gradient, so the kept rows are distinct
        full = np.zeros_like(flat)
        full[keep] = g
        X._accumulate(full.reshape(X.shape))

    return Tensor._from_op(flat[keep], (X,), rule), ranks.reshape(lead)


def hpn_input_layer(layer: HyperLayer, rows: Tensor,
                    ranks: np.ndarray) -> Tensor:
    """Embed a set keyed by ``distinct_rows``: each distinct row through
    its own generated (k, h) matrix, each set's embeddings summed by
    ``canonical_sum``, plus the layer's shared bias.  (..., m) -> (..., h).
    """
    weights, _ = layer.generate(rows)           # (U, k, h)
    u = len(rows.data)
    embedded = bmm(reshape(rows, (u, 1, layer.feature_dim)), weights)
    return add(canonical_sum(reshape(embedded, (u, layer.cols)), ranks),
               layer.shared_bias)


def hpn_output_layer(layer: HyperLayer, trunk_hidden: Tensor, rows: Tensor,
                     ranks: np.ndarray) -> Tensor:
    """One Q-value per enemy of a block keyed by ``distinct_rows``: score
    the shared hidden state with that enemy's generated (h, 1) weights and
    scalar bias.  Entry i is computed from enemy i's row alone, so
    reordering enemies reorders the output exactly.  A dead enemy is
    scored like any other; ``learners.greedy_actions`` masks it.

    One node: the (U, h) weights are gathered enemy-major, as (m, B, h),
    and the (B, h) trunk state broadcasts over the enemies.  S (U, B) sums
    each distinct row's score gradients per observation; the weights get
    ``S @ h``, the biases S's row sums and the trunk ``S.T @ W``."""
    if trunk_hidden.shape[-1] != layer.rows:
        raise ShapeError(
            f"trunk width {trunk_hidden.shape[-1]} != {layer.rows}")
    sets = ranks.reshape(math.prod(ranks.shape[:-1]), ranks.shape[-1])
    weights, bias = layer.generate(rows)        # (U, h, 1), (U,)
    w = weights.data.reshape(len(rows.data), layer.rows)
    h = trunk_hidden.data.reshape(len(sets), layer.rows)
    # score each row with an elementwise product and a per-row sum rather
    # than a width-1 matmul: BLAS matvec kernels are not bitwise row-stable
    scores = (w[sets.T] * h).sum(axis=-1).T + bias.data[sets]

    def rule(g):
        s = count_matrix(sets, len(w), g.reshape(sets.shape))
        weights._accumulate((s @ h).reshape(weights.shape))
        bias._accumulate(s.sum(axis=1))
        if trunk_hidden.requires_grad:
            trunk_hidden._accumulate((s.T @ w).reshape(trunk_hidden.shape))

    return Tensor._from_op(scores.reshape(ranks.shape),
                           (weights, bias, trunk_hidden), rule)


class HpnAgentNet(AgentNet):
    """Per-agent Q-network, order-free by construction.

    hidden = relu(own_dense(own) + set-embed(allies) + set-embed(enemies));
    move Q-values come from a plain head on hidden, attack Q-values from
    per-enemy generated output weights (``hpn_output_layer``).
    """

    def __init__(self, rng: np.random.Generator, n_allies: int,
                 n_enemies: int, hidden: int = 64, hyper_hidden: int = 64):
        self.n_allies = n_allies
        self.n_enemies = n_enemies
        k = ENTITY_FEATURES
        self.own_dense = Linear(rng, OWN_FEATURES, hidden)
        self.ally_embed = HyperLayer(rng, k, k, hidden, hyper_hidden)
        self.enemy_embed = HyperLayer(rng, k, k, hidden, hyper_hidden)
        self.move_head = Linear(rng, hidden, N_MOVE_ACTIONS)
        self.attack_head = HyperLayer(rng, k, hidden, 1, hyper_hidden,
                                      per_entity_bias=True)

    def forward_batch(self, own: Tensor, allies: Tensor, enemies: Tensor, *,
                      rng: np.random.Generator | None = None,
                      deterministic: bool = True) -> Tensor:
        """(B, own) + (B, n-1, k) + (B, m, k) -> (B, n_move + m)."""
        enemy_key = distinct_rows(enemies)
        h = relu(add(add(self.own_dense(own),
                         hpn_input_layer(self.ally_embed,
                                         *distinct_rows(allies))),
                     hpn_input_layer(self.enemy_embed, *enemy_key)))
        return concat([self.move_head(h),
                       hpn_output_layer(self.attack_head, h, *enemy_key)],
                      axis=1)
