"""Comparison agent networks.

ConcatAgentNet runs a plain MLP over own + ally + enemy features joined in
the environment's fixed entity order, so its outputs depend on that order.
``big_concat_agent`` is the same architecture widened until it carries more
parameters than the hypernetwork agent for the same troop sizes, checked at
construction.  DeepSetAgentNet keys each group with ``hpn.distinct_rows``,
embeds each distinct row once with a shared dense layer and sum-pools
the embeddings with ``canonical_sum``.  Every output is order-free,
including the attack scores: reordering enemies does NOT reorder attack
Q-values, it leaves them all unchanged.  HpnSetAgentNet keeps that
pooled input path but swaps the attack head for the per-enemy generated
output layer, restoring exact attack equivariance.
"""

from __future__ import annotations

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    canonical_sum,
    concat,
    relu,
    reshape,
)
from .env import ENTITY_FEATURES, N_MOVE_ACTIONS, OWN_FEATURES
from .hpn import HpnAgentNet, HyperLayer, distinct_rows, hpn_output_layer
from .layers import AgentNet, Linear, Mlp, count_parameters


class ConcatAgentNet(AgentNet):
    """Fixed-order concatenation MLP; permutation sensitive by design."""

    def __init__(self, rng: np.random.Generator, n_allies: int,
                 n_enemies: int, hidden: tuple[int, ...] = (64,)):
        self.n_allies = n_allies
        self.n_enemies = n_enemies
        k = ENTITY_FEATURES
        self.input_dim = OWN_FEATURES + (n_allies - 1) * k + n_enemies * k
        self.net = Mlp(rng, [self.input_dim, *hidden,
                             N_MOVE_ACTIONS + n_enemies])

    def forward_batch(self, own: Tensor, allies: Tensor, enemies: Tensor, *,
                      rng: np.random.Generator | None = None,
                      deterministic: bool = True) -> Tensor:
        k = ENTITY_FEATURES
        if (allies.shape[1:] != (self.n_allies - 1, k)
                or enemies.shape[1:] != (self.n_enemies, k)):
            raise ShapeError(
                f"entity blocks {allies.shape[1:]} / {enemies.shape[1:]} do "
                f"not match ({self.n_allies - 1}, {k}) / "
                f"({self.n_enemies}, {k})")
        b = own.shape[0]
        x = concat([own,
                    reshape(allies, (b, (self.n_allies - 1) * k)),
                    reshape(enemies, (b, self.n_enemies * k))], axis=1)
        return self.net(x)


def big_concat_agent(rng: np.random.Generator, n_allies: int, n_enemies: int,
                     hidden: tuple[int, ...] = (256, 256)) -> ConcatAgentNet:
    """Concat net wide enough to out-parameterize the hypernetwork agent.

    The comparison is only meaningful if the plain architecture is not
    starved for capacity, so construction fails loudly when the widths do
    not give it strictly more parameters for these troop sizes.
    """
    net = ConcatAgentNet(rng, n_allies, n_enemies, hidden=hidden)
    reference = HpnAgentNet(np.random.default_rng(0), n_allies, n_enemies)
    have = count_parameters(net.named_parameters())
    need = count_parameters(reference.named_parameters())
    if have <= need:
        raise ValueError(
            f"big concat net has {have} parameters but must exceed the "
            f"hypernetwork agent's {need}; widen the hidden layers")
    return net


class DeepSetAgentNet(AgentNet):
    """Shared embeddings + sum pooling; order-free but attack Q-values do
    not follow their enemies under reordering (one output per slot from the
    pooled vector)."""

    def __init__(self, rng: np.random.Generator, n_allies: int,
                 n_enemies: int, hidden: int = 64):
        self.n_allies = n_allies
        self.n_enemies = n_enemies
        k = ENTITY_FEATURES
        self.phi_ally = Linear(rng, k, hidden)
        self.phi_enemy = Linear(rng, k, hidden)
        self.body = Linear(rng, OWN_FEATURES + 2 * hidden, hidden)
        self.move_head = Linear(rng, hidden, N_MOVE_ACTIONS)
        self.attack_head = Linear(rng, hidden, n_enemies)

    def forward_batch(self, own: Tensor, allies: Tensor, enemies: Tensor, *,
                      rng: np.random.Generator | None = None,
                      deterministic: bool = True) -> Tensor:
        rows, ranks = distinct_rows(allies)
        pooled_a = canonical_sum(self.phi_ally(rows), ranks)
        rows, ranks = distinct_rows(enemies)
        pooled_e = canonical_sum(self.phi_enemy(rows), ranks)
        h = relu(self.body(concat([own, pooled_a, pooled_e], axis=1)))
        return concat([self.move_head(h), self.attack_head(h)], axis=1)


class HpnSetAgentNet(AgentNet):
    """Pooled shared-embedding input path with the per-enemy generated
    attack head.  Differs from the full hypernetwork agent only in how the
    trunk hidden state is built; the output head is constructed the same
    way, so attack Q-values follow their enemies exactly."""

    def __init__(self, rng: np.random.Generator, n_allies: int,
                 n_enemies: int, hidden: int = 64, hyper_hidden: int = 64):
        self.n_allies = n_allies
        self.n_enemies = n_enemies
        k = ENTITY_FEATURES
        self.own_dense = Linear(rng, OWN_FEATURES, hidden)
        self.phi_ally = Linear(rng, k, hidden)
        self.phi_enemy = Linear(rng, k, hidden)
        self.move_head = Linear(rng, hidden, N_MOVE_ACTIONS)
        self.attack_head = HyperLayer(rng, k, hidden, 1, hyper_hidden,
                                      per_entity_bias=True)

    def forward_batch(self, own: Tensor, allies: Tensor, enemies: Tensor, *,
                      rng: np.random.Generator | None = None,
                      deterministic: bool = True) -> Tensor:
        rows, ranks = distinct_rows(allies)
        pooled_a = canonical_sum(self.phi_ally(rows), ranks)
        rows, ranks = distinct_rows(enemies)
        pooled_e = canonical_sum(self.phi_enemy(rows), ranks)
        h = relu(add(add(self.own_dense(own), pooled_a), pooled_e))
        return concat([self.move_head(h),
                       hpn_output_layer(self.attack_head, h, rows, ranks)],
                      axis=1)
