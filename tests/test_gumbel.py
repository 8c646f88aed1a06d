import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permnet.autodiff import Tensor, mul, reduce_sum
from permnet.gumbel import GumbelConfig, gumbel_softmax, sample_gumbel


def test_config_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        GumbelConfig(tau=0.0)
    with pytest.raises(ValueError):
        GumbelConfig(tau=-1.0)


def test_config_default_tau():
    assert GumbelConfig().tau == 0.5


def test_sample_gumbel_finite_and_seeded():
    g1 = sample_gumbel(np.random.default_rng(9), (1000,))
    g2 = sample_gumbel(np.random.default_rng(9), (1000,))
    assert np.array_equal(g1, g2)
    assert np.all(np.isfinite(g1))
    # standard Gumbel mean is the Euler-Mascheroni constant ~0.5772
    assert abs(g1.mean() - 0.5772) < 0.1


def test_deterministic_soft_uniform_logits():
    out = gumbel_softmax(Tensor(np.zeros(3)), GumbelConfig(tau=1.0, deterministic=True))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-12)


def test_deterministic_hard_is_argmax_first_tie():
    cfg = GumbelConfig(tau=1.0, hard=True, deterministic=True)
    out = gumbel_softmax(Tensor(np.array([1.0, 3.0, 3.0])), cfg)
    assert np.array_equal(out.data, [0.0, 1.0, 0.0])


def test_hard_output_is_exact_one_hot_every_seed():
    cfg = GumbelConfig(tau=0.5, hard=True)
    logits = Tensor(np.random.default_rng(1).standard_normal((200, 5)))
    out = gumbel_softmax(logits, cfg, np.random.default_rng(2)).data
    assert np.all(np.isin(out, (0.0, 1.0)))
    assert np.array_equal(out.sum(axis=-1), np.ones(200))


def test_masked_logits_never_selected():
    cfg = GumbelConfig(tau=0.5, hard=True)
    logits = np.zeros((500, 4))
    logits[:, 2] = -np.inf
    out = gumbel_softmax(Tensor(logits), cfg, np.random.default_rng(3)).data
    assert np.all(out[:, 2] == 0.0)


def test_fully_masked_raises():
    cfg = GumbelConfig(tau=0.5, hard=True)
    with pytest.raises(ValueError, match="fully masked logits"):
        gumbel_softmax(Tensor(np.array([-np.inf, -np.inf])), cfg,
                       np.random.default_rng(0))


def test_stochastic_mode_requires_rng():
    with pytest.raises(ValueError, match="rng"):
        gumbel_softmax(Tensor(np.zeros(3)), GumbelConfig(tau=1.0))


def test_straight_through_gradients_match_soft_exactly():
    logits_val = np.array([0.4, -1.2, 0.9])
    w = Tensor(np.array([2.0, -1.0, 0.5]))
    noise_rng = lambda: np.random.default_rng(77)

    soft_in = Tensor(logits_val, requires_grad=True)
    soft_out = gumbel_softmax(soft_in, GumbelConfig(tau=0.5), noise_rng())
    reduce_sum(mul(soft_out, w)).backward()

    hard_in = Tensor(logits_val, requires_grad=True)
    hard_out = gumbel_softmax(hard_in, GumbelConfig(tau=0.5, hard=True), noise_rng())
    reduce_sum(mul(hard_out, w)).backward()

    assert np.array_equal(soft_in.grad, hard_in.grad)


def test_monte_carlo_frequency_matches_analytic():
    # P(argmax(logit + g) = 1) for logits [1, 2] is e/(1+e), independent of tau
    cfg = GumbelConfig(tau=1.0, hard=True)
    logits = Tensor(np.tile([1.0, 2.0], (100_000, 1)))
    out = gumbel_softmax(logits, cfg, np.random.default_rng(0)).data
    freq = out[:, 1].mean()
    assert abs(freq - math.e / (1 + math.e)) < 0.02


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_deterministic_hard_is_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal(6)  # distinct with probability 1
    perm = rng.permutation(6)
    cfg = GumbelConfig(tau=0.5, hard=True, deterministic=True)
    base = gumbel_softmax(Tensor(logits), cfg).data
    moved = gumbel_softmax(Tensor(logits[perm]), cfg).data
    assert np.array_equal(moved, base[perm])
