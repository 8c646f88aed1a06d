"""Gumbel-softmax sampling.

A pure function of its inputs plus an explicitly passed numpy Generator,
so independent streams can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    constant,
    mul,
    one_hot,
    softmax,
    straight_through,
)


@dataclass
class GumbelConfig:
    """Sampling knobs.

    deterministic=True drops the noise entirely (g == 0); combined with
    hard=True that is pure argmax selection with first-max tie-breaking,
    exactly repeatable.  DPN selects with these knobs without calling
    ``gumbel_softmax``: greedy forwards (acting, evaluation, the learner's
    target and double-Q) by a masked argmax, every other config by the
    same per-slot arithmetic inside one graph node.
    """

    tau: float = 0.5
    hard: bool = False
    deterministic: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


def sample_gumbel(rng: np.random.Generator, shape) -> np.ndarray:
    """g = -log(-log(u)) with u away from {0, 1} for stability, in float64
    (``gumbel_softmax`` rounds it once to the logits' dtype)."""
    u = rng.uniform(1e-10, 1.0 - 1e-10, size=shape)
    return -np.log(-np.log(u))


def gumbel_softmax(logits: Tensor, cfg: GumbelConfig,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Sample from the Gumbel-softmax distribution over the last axis.

    Logits act directly as unnormalized log-probabilities; -inf entries are
    hard masks.  Soft mode returns a simplex row; hard mode returns an exact
    one-hot forward value whose backward gradient equals the soft sample's
    gradient (straight-through).
    """
    if cfg.deterministic:
        perturbed = logits
    else:
        if rng is None:
            raise ValueError("stochastic sampling needs an rng")
        perturbed = add(logits, constant(sample_gumbel(rng, logits.shape),
                                         logits))
    soft = softmax(mul(perturbed, constant(1.0 / cfg.tau, perturbed)),
                   axis=-1)
    if not cfg.hard:
        return soft
    hard = one_hot(np.argmax(soft.data, axis=-1), soft.shape[-1],
                   soft.data.dtype)
    return straight_through(soft, hard)
