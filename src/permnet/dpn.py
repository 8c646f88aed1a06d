"""Order canonicalization through learned hard permutation matrices.

A small assignment network scores every (canonical slot, entity) pair and
a sequential masked Gumbel-softmax turns the scores into a permutation
matrix M, one slot row at a time.  Feeding any downstream network M·X
instead of X makes it invariant to the input ordering, and mapping a
per-entity output slice back through Mᵀ makes that slice equivariant.

Selection is stochastic-hard in the training forward (straight-through
gradients).  Greedy selection (hard and deterministic: acting, evaluation,
the learner's target and double-Q forwards) is a plain masked argmax per
slot that returns M as a constant.  Without score ties it is exact: the
same entity set in any order yields bitwise-identical M·X.  The argmax
takes the first maximum, so a tie between distinct entities picks by input
position.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    bmm,
    concat,
    relu,
    reshape,
    take_index,
)
from .env import ENTITY_FEATURES, N_MOVE_ACTIONS, OWN_FEATURES
from .gumbel import GumbelConfig, gumbel_softmax
from .layers import NEG_MASK, AgentNet, Linear, Mlp, Module


def is_permutation_matrix(entries: np.ndarray) -> bool:
    """True when the trailing two axes hold square binary matrices with
    exactly one unit entry per row and per column."""
    a = np.asarray(entries)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        return False
    binary = np.all((a == 0.0) | (a == 1.0))
    rows = np.all(a.sum(axis=-1) == 1.0)
    cols = np.all(a.sum(axis=-2) == 1.0)
    return bool(binary and rows and cols)


class DpnNet(Module):
    """Assignment-score network for one entity group of fixed size.

    ``assign_mlp`` maps each entity's features to one score per canonical
    slot; its transpose is consumed row-by-row by the masked sampling loop.
    """

    def __init__(self, rng: np.random.Generator, feature_dim: int,
                 group_size: int, hidden: int = 8,
                 gumbel: GumbelConfig | None = None):
        self.feature_dim = feature_dim
        self.group_size = group_size
        self.assign_mlp = Mlp(rng, [feature_dim, hidden, group_size])
        self.gumbel = gumbel if gumbel is not None \
            else GumbelConfig(tau=0.5, hard=True)


def generate_permutation_matrix(net: DpnNet, X: Tensor,
                                rng: np.random.Generator | None = None,
                                deterministic: bool | None = None) -> Tensor:
    """Build M row by row: slot d picks among still-unassigned entities.

    ``X`` is (m, k) or batched (..., m, k).  Each slot row adds a -1e10
    penalty on already-taken entities and picks among the rest.  A hard
    deterministic config picks the first maximum of the masked scores and
    returns M as a constant: no gradient reaches the assignment network.
    Otherwise each row samples a hard one-hot through ``gumbel_softmax``
    and adds that row's forward value (the exact one-hot) to the next
    row's penalty mask; a soft config penalizes by the soft row instead.
    The mask is accumulated outside the graph; gradients reach the
    assignment parameters through each row's straight-through softmax.

    ``deterministic`` overrides the net's GumbelConfig flag (argmax
    selection, no noise) without mutating it.
    """
    m = X.shape[-2] if len(X.shape) >= 2 else -1
    if m != net.group_size:
        raise ShapeError(
            f"group size {m} does not match permutation net width "
            f"{net.group_size}")
    cfg = net.gumbel
    if deterministic is not None:
        cfg = replace(cfg, deterministic=deterministic)
    lead = X.shape[:-2]
    if m == 0:
        return Tensor(np.zeros(lead + (0, 0), X.data.dtype))
    scores = net.assign_mlp(X)              # (..., m entities, m slots)
    taken = np.zeros(lead + (m,), scores.data.dtype)
    if cfg.hard and cfg.deterministic:
        M = np.zeros(lead + (m, m), scores.data.dtype)
        for d in range(m):
            pick = (scores.data[..., d] + NEG_MASK * taken).argmax(-1)
            np.put_along_axis(M[..., d, :], pick[..., None], 1.0, axis=-1)
            np.put_along_axis(taken, pick[..., None], 1.0, axis=-1)
        return Tensor(M)
    rows = []
    for d in range(m):
        slot = np.full(lead + (m,), d, dtype=np.intp)
        logits = take_index(scores, slot)   # transposed row d: (..., m)
        masked = add(logits, Tensor(NEG_MASK * taken))
        row = gumbel_softmax(masked, cfg, rng)
        taken = taken + row.data
        rows.append(reshape(row, lead + (1, m)))
    return concat(rows, axis=-2)


class DpnAgentNet(AgentNet):
    """Per-agent Q-network with DPN canonicalization on both entity groups.

    Own features and the two canonicalized, flattened groups feed a relu
    trunk with separate move and attack heads; attack outputs return to the
    observation's enemy order through M₂ᵀ.  The trunk itself is a plain
    order-sensitive MLP: all invariance comes from the canonicalization.
    """

    noisy_grad_forward = True

    def __init__(self, rng: np.random.Generator, n_allies: int,
                 n_enemies: int, hidden: int = 64, perm_hidden: int = 8,
                 tau: float = 0.5):
        self.n_allies = n_allies
        self.n_enemies = n_enemies
        k = ENTITY_FEATURES
        gumbel = GumbelConfig(tau=tau, hard=True)
        self.ally_net = DpnNet(rng, k, n_allies - 1, perm_hidden, gumbel)
        self.enemy_net = DpnNet(rng, k, n_enemies, perm_hidden, gumbel)
        in_dim = OWN_FEATURES + (n_allies - 1) * k + n_enemies * k
        self.body = Linear(rng, in_dim, hidden)
        self.move_head = Linear(rng, hidden, N_MOVE_ACTIONS)
        self.attack_head = Linear(rng, hidden, n_enemies)

    def forward_batch(self, own: Tensor, allies: Tensor, enemies: Tensor, *,
                      rng: np.random.Generator | None = None,
                      deterministic: bool = True) -> Tensor:
        """(B, own) + (B, n-1, k) + (B, m, k) -> (B, n_move + m)."""
        b = own.shape[0]
        m1 = generate_permutation_matrix(self.ally_net, allies, rng,
                                         deterministic)
        m2 = generate_permutation_matrix(self.enemy_net, enemies, rng,
                                         deterministic)
        n_a = (self.n_allies - 1) * ENTITY_FEATURES
        m = self.n_enemies
        x = concat([own,
                    reshape(bmm(m1, allies), (b, n_a)),
                    reshape(bmm(m2, enemies), (b, m * ENTITY_FEATURES))],
                   axis=1)
        h = relu(self.body(x))
        move = self.move_head(h)
        # M₂ᵀv as (vᵀM₂)ᵀ, rows kept flat
        attack = reshape(bmm(reshape(self.attack_head(h), (b, 1, m)), m2),
                         (b, m))
        return concat([move, attack], axis=1)
