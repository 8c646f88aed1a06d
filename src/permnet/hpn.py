"""Hypernetwork layers that build order-free agent Q-networks.

The input side embeds each entity through a weight matrix generated from
that entity's own features and sums the embeddings (``pool_set``), so
reordering entities cannot change the pooled embedding.  The output side
generates one (weight, bias) pair per enemy and scores the shared trunk
hidden state with it, so attack Q-values follow their entities exactly
under reordering.  Unlike canonicalization approaches, the same entity
features always meet the same generated weights no matter what the rest
of the group looks like.

Weights are generated once per distinct entity row.  An entity's weights
depend on its own features alone, so rows with the same bits share one
generated block and one embedding, gathered back to every row.  The
distinct rows enter the GEMMs in the order of a sort of their raw bits,
so any order of the same entities gives the same GEMM inputs.  Each set
adds its embeddings in that rank order, from +0.0: rows that tie in rank
have the same bits and so the same embedding, so the pooled bits do not
depend on the set's order.  A dead entity, and every row a dead observer
sees, is all-zero, and its embedding x @ W(x) is +-0.  A dead enemy's
attack Q-value is never available, so it gets no generated weights and is
written as exactly ``NEG_MASK``.  From two rows up a row's result does
not depend on which other rows share the batch, so sharing rows changes
no forward value.  A one-row product is the exception: BLAS runs it as a
matrix-vector product, and a (1, 64) @ (64, 256) row differs in its last
bits from the same row inside a larger batch, in float32 and float64
alike.  So a lone distinct row may differ from what the dense layers
would give it, but never between two orders of the same entities.  Rows of an input that
needs a gradient are never shared (see ``_distinct_rows``).
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
    constant,
    gather_rows,
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


def _distinct_rows(data: np.ndarray, share: bool):
    """``first, inverse`` for the rows of the 2-d ``data``: ``data[first]``
    holds each distinct row once, in the order of a sort of the rows' raw
    bits, and ``data[first][inverse]`` is ``data`` bit for bit, so
    ``inverse`` ranks the rows by their bits.  Rows are compared as bits,
    so -0.0 and +0.0 are two rows.  Without ``share`` every row is its
    own, still ranked: the rows of an input that needs a gradient are
    never merged, since a merged row's gradient would go to one copy."""
    rows = len(data)
    words = np.ascontiguousarray(data).view(f"u{data.itemsize}")
    order = np.lexsort(words.T)
    new = np.ones(rows, bool)
    if share:
        ranked = words[order]
        # rows differ where any column does; any(axis=1) is slow on short
        # rows
        np.logical_or.reduce(list((ranked[1:] != ranked[:-1]).T),
                             out=new[1:])
    inverse = np.empty(rows, np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def pool_set(embed, X: Tensor) -> Tensor:
    """Embed each entity row of a set with ``embed``, (U, k) -> (U, h), and
    sum each set's embeddings: (..., m, k) -> (..., h).  Each distinct row
    is embedded once, and a set's embeddings are summed in the rank order
    of their rows' bits, so any order of the same entities gives the same
    bits."""
    lead = X.shape[:-1]
    flat = reshape(X, (int(np.prod(lead)), X.shape[-1]))
    first, inverse = _distinct_rows(flat.data, not X.requires_grad)
    return canonical_sum(embed(gather_rows(flat, first)),
                         inverse.reshape(lead))


def hpn_input_layer(layer: HyperLayer, X: Tensor) -> Tensor:
    """Embed a set: each entity through its own generated (k, h) matrix,
    pooled by ``pool_set``, plus the layer's shared bias.
    (..., m, k) -> (..., h)."""

    def embed(x):
        weights, _ = layer.generate(x)          # (U, k, h)
        rows = len(x.data)
        return reshape(bmm(reshape(x, (rows, 1, layer.feature_dim)),
                           weights), (rows, layer.cols))

    return add(pool_set(embed, X), layer.shared_bias)


def hpn_output_layer(layer: HyperLayer, trunk_hidden: Tensor,
                     X_enemy: Tensor) -> Tensor:
    """One Q-value per enemy: score the shared hidden state with that
    enemy's generated (h, 1) weights and scalar bias.  Row i of the output
    is computed from row i of the input alone, so reordering enemies
    reorders the output exactly.

    An enemy whose alive flag is 0 gets no generated weights and exactly
    ``NEG_MASK``: it is never an available action, so selection never
    picks it and the loss never reads it."""
    if trunk_hidden.shape[-1] != layer.rows:
        raise ShapeError(
            f"trunk width {trunk_hidden.shape[-1]} != {layer.rows}")
    m = X_enemy.shape[-2]
    lead = X_enemy.shape[:-2]
    batch = int(np.prod(lead))
    flat = reshape(X_enemy, (batch * m, layer.feature_dim))
    alive = flat.data[:, 3] != 0.0
    live = np.flatnonzero(alive)
    first, inverse = _distinct_rows(flat.data[live], not X_enemy.requires_grad)
    weights, bias = layer.generate(gather_rows(flat, live[first]))
    # (U, h, 1) and (U,), gathered back to the live rows
    w = gather_rows(reshape(weights, (len(first), layer.rows)), inverse)
    # score each row with an elementwise product and a per-row sum rather
    # than a width-1 matmul: BLAS matvec kernels are not bitwise row-stable
    h = gather_rows(reshape(trunk_hidden, (batch, layer.rows)), live // m)
    scores = add(reduce_sum(mul(w, h), axis=-1), gather_rows(bias, inverse))
    # dead rows read one constant row appended after the live scores
    padded = concat([scores, constant([NEG_MASK], scores)], axis=0)
    place = np.where(alive, np.cumsum(alive) - 1, len(live))
    return reshape(gather_rows(padded, place), lead + (m,))


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
        self.hidden = hidden
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
        h = relu(add(add(self.own_dense(own),
                         hpn_input_layer(self.ally_embed, allies)),
                     hpn_input_layer(self.enemy_embed, enemies)))
        return concat([self.move_head(h),
                       hpn_output_layer(self.attack_head, h, enemies)], axis=1)
