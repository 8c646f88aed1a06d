"""Order canonicalization through learned hard permutation matrices.

A small assignment network scores every (canonical slot, entity) pair and
a sequential masked selection turns the scores into a permutation matrix
M, one slot row at a time.  Feeding any downstream network M·X instead of
X makes it invariant to the input ordering, and mapping a per-entity
output slice back through Mᵀ makes that slice equivariant.

There are two paths, and both run the slot loop in plain numpy.  Greedy
selection (hard and deterministic: acting, evaluation, the learner's
target and double-Q forwards) is a masked argmax per slot that returns M
as a constant.  Without score ties it is exact: the same entity set in
any order yields bitwise-identical M·X.  The argmax takes the first
maximum, so a tie between distinct entities picks by input position.
Every other config (the noisy training forward, soft configs) samples a
masked Gumbel-softmax per slot (Jang et al. 2017) inside one graph node
whose M and gradients are bit for bit those of ``gumbel_softmax`` called
slot by slot: a hard config forwards the exact one-hot and backpropagates
the soft rows' gradient (straight-through).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .autodiff import ShapeError, Tensor, bmm, concat, relu, reshape
from .env import ENTITY_FEATURES, N_MOVE_ACTIONS, OWN_FEATURES
from .gumbel import GumbelConfig, sample_gumbel
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
    slot; the masked selection loop reads its columns slot by slot.
    """

    def __init__(self, rng: np.random.Generator, feature_dim: int,
                 group_size: int, hidden: int = 8, *, gumbel: GumbelConfig):
        self.group_size = group_size
        self.assign_mlp = Mlp(rng, [feature_dim, hidden, group_size])
        self.gumbel = gumbel


def generate_permutation_matrix(net: DpnNet, X: Tensor,
                                rng: np.random.Generator | None = None,
                                deterministic: bool | None = None) -> Tensor:
    """Build M row by row: slot d picks among still-unassigned entities.

    ``X`` is (m, k) or batched (..., m, k).  Each slot row adds a -1e10
    penalty on already-taken entities and picks among the rest.  A hard
    deterministic config picks the first maximum of the masked scores and
    returns M as a constant: no gradient reaches the assignment network.
    Every other config builds M as one graph node (``_sampled_matrix``).

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
    if cfg.hard and cfg.deterministic:
        return Tensor(_greedy_matrix(scores.data))
    return _sampled_matrix(scores, cfg, rng)


def _greedy_matrix(scores: np.ndarray) -> np.ndarray:
    """Masked first-maximum argmax per slot, picks written by index."""
    m = scores.shape[-1]
    s = scores.reshape(-1, m, m)
    rows = np.arange(len(s))
    M = np.zeros_like(s)
    taken = np.zeros(s.shape[:2], s.dtype)
    for d in range(m):
        pick = (s[:, :, d] + NEG_MASK * taken).argmax(-1)
        M[rows, d, pick] = 1.0
        taken[rows, pick] = 1.0
    return M.reshape(scores.shape)


def _sampled_matrix(scores: Tensor, cfg: GumbelConfig,
                    rng: np.random.Generator | None) -> Tensor:
    """The masked Gumbel-softmax loop of ``gumbel_softmax`` calls, one
    per slot, as a single node with the same bits.

    Slot d softmaxes ``((s_d + NEG_MASK * taken) + g_d) / tau`` over the
    entities; a hard config takes the soft row's first maximum as a
    one-hot, a soft config keeps the soft row, and the row joins the
    penalty mask.  The group's noise is one draw, in the order of one
    draw per slot.  The backward is each slot's softmax gradient at
    once (straight-through for a hard config).
    """
    m = scores.shape[-1]
    s = scores.data.reshape(-1, m, m)       # (rows, entities, slots)
    rows = np.arange(len(s))
    if cfg.deterministic:
        noise = None
    elif rng is None:
        raise ValueError("stochastic sampling needs an rng")
    else:
        noise = sample_gumbel(rng, (m,) + s.shape[:2]).astype(s.dtype)
    inv_tau = np.asarray(1.0 / cfg.tau, s.dtype)
    soft = np.empty_like(s)                 # (rows, slots, entities)
    M = np.zeros_like(s) if cfg.hard else soft
    taken = np.zeros(s.shape[:2], s.dtype)
    for d in range(m):
        x = s[:, :, d] + NEG_MASK * taken
        if noise is not None:
            x = x + noise[d]
        x = x * inv_tau
        top = x[:, 0]
        for j in range(1, m):
            top = np.maximum(top, x[:, j])
        e = np.exp(x - top[:, None])
        soft[:, d] = e / e.sum(axis=-1, keepdims=True)
        if cfg.hard:
            pick = soft[:, d].argmax(-1)
            M[rows, d, pick] = 1.0
            taken[rows, pick] = 1.0
        else:
            taken = taken + soft[:, d]

    def rule(g):
        g = g.reshape(soft.shape)
        grad = soft * (g - (g * soft).sum(axis=-1, keepdims=True)) * inv_tau
        # transposed back to (entity, slot) in C order; the +0.0 is the
        # per-slot gradients' sum from zeros (it clears -0.0)
        full = np.add(grad.transpose(0, 2, 1), 0.0, out=np.empty_like(s))
        scores._accumulate(full.reshape(scores.shape))

    return Tensor._from_op(M.reshape(scores.shape), (scores,), rule)


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
        self.ally_net = DpnNet(rng, k, n_allies - 1, perm_hidden,
                               gumbel=gumbel)
        self.enemy_net = DpnNet(rng, k, n_enemies, perm_hidden,
                                gumbel=gumbel)
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
