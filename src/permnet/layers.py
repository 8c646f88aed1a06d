"""Parameter containers, dense layers and MLPs on top of the autodiff engine.

Parameters are exposed through ``named_parameters()`` as a flat dict of
dotted names to Tensors, which is the interface the optimizer and the
target-network sync consume.  Names follow attribute paths (``body.weight``,
``layers.0.bias``).  Initialization is uniform(-1/sqrt(fan_in), ..) from an
explicit numpy Generator so construction is reproducible; parameters are
float32.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Tensor, affine, relu, reshape, uniform_init
from .env import N_MOVE_ACTIONS

# additive penalty that keeps masked entries out of every argmax
NEG_MASK = -1e10


class Module:
    """Anything that owns parameters.

    ``named_parameters()`` walks the instance attributes in definition
    order: a Tensor attribute is a parameter named by its attribute, a
    sub-module or a list of sub-modules contributes its own parameters
    under ``attr.`` or ``attr.<index>.``.  Other attributes are skipped.
    """

    def named_parameters(self, prefix: str = "") -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                params[prefix + name] = value
            elif isinstance(value, Module):
                params.update(value.named_parameters(f"{prefix}{name}."))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        params.update(
                            item.named_parameters(f"{prefix}{name}.{i}."))
        return params


class AgentNet(Module):
    """Per-agent Q-network over one agent's own features and its two
    entity groups.

    Subclasses set ``n_enemies`` and define
    ``forward_batch(own, allies, enemies, *, rng=None, deterministic=True)``
    mapping (B, own) + (B, n-1, k) + (B, m, k) to (B, n_move + m) Q-values.
    ``rng`` and ``deterministic`` only matter to nets with a stochastic
    part (DPN's Gumbel selection); the others ignore them.

    ``noisy_grad_forward`` is True for a net whose training forward
    (``deterministic=False``) can differ from its greedy forward, so the
    learner cannot take double-Q actions from it.
    """

    noisy_grad_forward = False

    @property
    def n_actions(self) -> int:
        return N_MOVE_ACTIONS + self.n_enemies

    def forward(self, obs, rng: np.random.Generator | None = None,
                deterministic: bool = True) -> Tensor:
        """Q-values (n_actions,) for one ObservationSet, run as a batch of
        one; observation fields may be arrays or Tensors."""
        fields = [x if isinstance(x, Tensor) else Tensor(x)
                  for x in (obs.own, obs.allies, obs.enemies)]
        q = self.forward_batch(*(reshape(x, (1,) + x.shape) for x in fields),
                               rng=rng, deterministic=deterministic)
        return reshape(q, (self.n_actions,))


class Linear(Module):
    """Affine map x @ W + b with W of shape (in_dim, out_dim)."""

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Tensor(uniform_init(rng, in_dim, (in_dim, out_dim)),
                             requires_grad=True)
        self.bias = Tensor(uniform_init(rng, in_dim, (out_dim,)),
                           requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"input width {x.shape[-1]} != {self.in_dim}")
        lead = x.shape[:-1]
        if len(lead) != 1:  # flatten leading axes so matmul stays 2-d
            x = reshape(x, (int(np.prod(lead)) if lead else 1, self.in_dim))
        out = affine(x, self.weight, self.bias)
        if len(lead) != 1:
            out = reshape(out, (*lead, self.out_dim))
        return out


class Mlp(Module):
    """Stack of Linear layers with relu between them (none after the last)."""

    def __init__(self, rng: np.random.Generator, dims: list[int]):
        if len(dims) < 2:
            raise ValueError("an MLP needs at least input and output dims")
        self.layers = [Linear(rng, dims[i], dims[i + 1])
                       for i in range(len(dims) - 1)]

    def __call__(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i < len(self.layers) - 1:
                x = relu(x)
        return x


def count_parameters(params: dict[str, Tensor]) -> int:
    return sum(p.size for p in params.values())
