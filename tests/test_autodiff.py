import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permnet import autodiff as ad
from permnet.autodiff import (
    AdamState, ShapeError, Tensor, adam_step, add, affine, bmm,
    canonical_sum, concat, grad_check, matmul, mul, no_grad,
    one_hot, reduce_sum, reshape, softmax, straight_through,
    take_index, uniform_init,
)


def t(value, rg=True):
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------------------
# gradient accumulation and graph traversal
# ---------------------------------------------------------------------------

def test_accumulation_x_plus_x():
    x = t(3.0)
    add(x, x).backward()
    assert x.grad == 2.0
    y = t(3.0)
    mul(Tensor(2.0), y).backward()
    assert y.grad == 2.0


def test_diamond_graph_visits_each_node_once():
    # z = (x*y) + (x*y) reusing the same intermediate node
    x, y = t(2.0), t(5.0)
    p = mul(x, y)
    add(p, p).backward()
    assert x.grad == 10.0 and y.grad == 4.0


def test_chained_reuse():
    x = t(1.5)
    a = mul(x, x)
    b = add(a, x)
    c = mul(a, b)   # c = x^2 (x^2 + x); dc/dx = 4x^3 + 3x^2
    c.backward()
    assert np.isclose(x.grad, 4 * 1.5 ** 3 + 3 * 1.5 ** 2)


def test_backward_requires_grad():
    x = t(1.0, rg=False)
    with pytest.raises(RuntimeError):
        (x).backward()


def test_no_grad_blocks_recording():
    x = t(2.0)
    with no_grad():
        y = mul(x, x)
    assert not y.requires_grad and y._parents == ()


def test_op_nodes_keep_dtype_and_record_only_under_grad():
    """An op's numpy-scalar result is a 0-d array of the input's dtype, a
    float32 graph stays float32, a node built under ``no_grad`` records
    nothing, and ``Tensor`` still turns ints into float64."""
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
               requires_grad=True)
    total = reduce_sum(x)
    assert type(total.data) is np.ndarray and total.data.shape == ()
    assert total.data.dtype == np.float32
    product = mul(ad.relu(x), x)
    y = reduce_sum(product, axis=1)
    assert product.data.dtype == y.data.dtype == np.float32
    assert y.requires_grad and y._parents == (product,)
    with no_grad():
        z = mul(x, x)
        s = reduce_sum(z)
    for node in (z, s):
        assert not node.requires_grad
        assert node._parents == () and node._backward_rule is None
    assert s.data.dtype == np.float32 and s.data.shape == ()
    const = mul(Tensor(np.ones(3, np.float32)), Tensor(np.ones(3, np.float32)))
    assert not const.requires_grad and const._backward_rule is None
    assert Tensor(np.arange(3)).data.dtype == np.float64
    assert Tensor(np.array([True])).data.dtype == np.float64


def test_shared_gradient_array_is_not_written_in_place():
    # add hands its one gradient array to both leaves; a later gradient for
    # a must make a new sum, or b's gradient would change with it
    rng = np.random.default_rng(20)
    av, bv, g0, g1 = rng.standard_normal((4, 3, 5))
    a, b = t(av), t(bv)
    add(a, b).backward(g0)
    mul(a, Tensor(3.0)).backward(g1)
    assert b.grad.tobytes() == (np.zeros((3, 5)) + g0).tobytes()
    ref_a = np.zeros((3, 5)) + g0
    ref_a += g1 * 3.0
    assert a.grad.tobytes() == ref_a.tobytes()
    # one graph: reshape passes a view of its gradient down
    c, d = t(av), t(bv)
    s = add(c, d)
    add(reduce_sum(reshape(s, (15,))),
        reduce_sum(mul(c, Tensor(2.0)))).backward()
    assert np.array_equal(d.grad, np.ones((3, 5)))
    assert np.array_equal(c.grad, np.full((3, 5), 3.0))


def test_deep_chain_no_recursion_error():
    x = t(1.0)
    y = x
    for _ in range(5000):
        y = add(y, Tensor(1.0))
    y.backward()
    assert x.grad == 1.0


# ---------------------------------------------------------------------------
# broadcasting
# ---------------------------------------------------------------------------

def test_leading_broadcast_ok():
    a = t(np.ones((3, 4)))
    b = t(np.ones(4))
    reduce_sum(add(a, b)).backward()
    assert np.array_equal(b.grad, np.full(4, 3.0))
    assert np.array_equal(a.grad, np.ones((3, 4)))


def test_leading_axis_size1_broadcast_ok():
    a = t(np.ones((3, 4)))
    b = t(np.ones((1, 4)))
    reduce_sum(mul(a, b)).backward()
    assert b.grad.shape == (1, 4)
    assert np.array_equal(b.grad, np.full((1, 4), 3.0))


def test_trailing_broadcast_rejected():
    a = t(np.ones((3, 4)))
    b = t(np.ones((3, 1)))
    with pytest.raises(ShapeError, match="leading axes"):
        add(a, b)


def test_interior_broadcast_rejected():
    a = t(np.ones((2, 3, 4)))
    b = t(np.ones((2, 1, 4)))
    with pytest.raises(ShapeError, match="leading axes"):
        mul(a, b)


def test_incompatible_shapes_rejected():
    with pytest.raises(ShapeError):
        add(t(np.ones(3)), t(np.ones(4)))


@pytest.mark.parametrize("op", [add, mul], ids=["add", "mul"])
@pytest.mark.parametrize("left, right", [
    ((4,), (3, 4)),         # a bias on the left: only the right broadcasts
    ((4,), (1, 4)),         # the right operand would widen the left
], ids=["left", "widening"])
def test_only_right_operand_broadcasts_over_leading_axes(op, left, right):
    with pytest.raises(ShapeError, match="leading axes"):
        op(t(np.ones(left)), t(np.ones(right)))


@pytest.mark.parametrize("left, right", [
    ((5,), (1,)), ((5, 3), (1, 3)), ((0,), (1,)), ((2, 5, 3), (1, 3))])
def test_broadcast_gradient_sums_over_leading_axes(left, right):
    rng = np.random.default_rng(22)
    av, bv, seed = (rng.standard_normal(left), rng.standard_normal(right),
                    rng.standard_normal(left))
    for op, partner in ((add, np.ones(left)), (mul, av)):
        a, b = t(av), t(bv)
        op(a, b).backward(seed)
        lead = tuple(range(len(left) - len(right) + 1))
        assert b.grad.shape == right
        assert b.grad.tobytes() == (
            (seed * partner).sum(axis=lead).reshape(right).tobytes())
        assert a.grad.tobytes() == (
            seed if op is add else seed * bv).tobytes()


# ---------------------------------------------------------------------------
# elementwise ops vs finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op, seed", [(ad.relu, 1), (ad.abs_, 3)],
                         ids=["relu", "abs"])
def test_unary_grad_matches_numeric(op, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4)) + 0.1  # keep away from relu/abs kinks
    err = grad_check(lambda a: reduce_sum(op(a)), [x])
    assert err < 1e-6


def test_binary_grad_matches_numeric():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    assert grad_check(lambda x, y: reduce_sum(add(mul(x, y), x)),
                      [a, b]) < 1e-6


def test_relu_subgradient_zero_at_zero():
    x = t(np.array([0.0, -1.0, 2.0]))
    reduce_sum(ad.relu(x)).backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# matmul / bmm
# ---------------------------------------------------------------------------

def test_matmul_grad():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
    assert grad_check(lambda x, y: reduce_sum(matmul(x, y)), [a, b]) < 1e-6


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        matmul(t(np.ones(3)), t(np.ones((3, 2))))


def test_bmm_matches_loop_of_matmuls():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 2, 3))
    b = rng.standard_normal((4, 3, 5))
    out = bmm(t(a, rg=False), t(b, rg=False))
    expected = np.stack([a[i] @ b[i] for i in range(4)])
    assert np.array_equal(out.data, expected)


def test_bmm_grad():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 2, 3))
    b = rng.standard_normal((2, 3, 2))
    assert grad_check(lambda x, y: reduce_sum(bmm(x, y)), [a, b]) < 1e-6


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def test_sum_axis_and_none():
    x = np.arange(6.0).reshape(2, 3)
    assert grad_check(lambda a: reduce_sum(a), [x]) < 1e-6
    assert grad_check(lambda a: reduce_sum(reduce_sum(a, axis=0)), [x]) < 1e-6
    assert grad_check(lambda a: reduce_sum(reduce_sum(a, axis=1)), [x]) < 1e-6


def test_reduce_sum_axis_error():
    with pytest.raises(ShapeError):
        reduce_sum(t(np.ones((2, 2))), axis=5)


def test_canonical_sum_is_order_independent_bitwise():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((7, 5)) * 1e3 + rng.standard_normal((7, 5)) * 1e-7
    sets = np.array([[0, 1, 2, 3, 4, 5, 6], [6, 6, 2, 0, 3, 3, 1]])
    base = canonical_sum(t(x, rg=False), sets).data
    for seed in range(20):
        perm = np.random.default_rng(seed).permutation(7)
        other = canonical_sum(t(x, rg=False), sets[:, perm]).data
        assert np.array_equal(base, other)


@pytest.mark.parametrize("m", range(0, 11))
def test_canonical_sum_is_sort_then_sum_bitwise(m):
    """Each set's rows added in ascending index order from +0.0."""
    rng = np.random.default_rng(40 + m)
    rows = rng.standard_normal((12, 4)) * 10.0 ** rng.integers(
        -12, 13, size=(12, 4))                      # mixed magnitudes
    rows[1:4] = rng.choice([-1.5, 0.25, 2.0], size=(3, 4))  # ties
    rows[4:7] = rng.choice([-0.0, 0.0, 1e-300, -3.0], size=(3, 4))
    rows[7:9] = -0.0
    sets = np.stack([rng.integers(0, 12, m),        # repeated indices
                     rng.integers(1, 4, m),         # tied rows
                     rng.integers(7, 9, m),         # only -0.0 rows
                     rng.permutation(12)[:m]])
    out = canonical_sum(t(rows, rg=False), sets.reshape(2, 2, m)).data
    assert out.shape == (2, 2, 4)
    for got, indices in zip(out.reshape(4, 4), sets):
        expected = np.zeros(4)
        for i in np.sort(indices):
            expected = expected + rows[i]
        assert got.tobytes() == expected.tobytes()
    assert not np.signbit(out.reshape(4, 4)[2]).any()


def test_naive_sum_is_not_always_order_independent():
    # the motivating counterexample: reassociation changes the rounding
    assert (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def test_canonical_sum_grad_is_plain_sum_grad():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 3))
    sets = np.array([[3, 0, 3], [1, 2, 0]])
    w = Tensor(rng.standard_normal((2, 3)))
    assert grad_check(lambda a: reduce_sum(mul(canonical_sum(a, sets), w)),
                      [x]) < 1e-6
    a = t(x)
    reduce_sum(mul(canonical_sum(a, sets), w)).backward()
    expected = np.zeros_like(x)
    np.add.at(expected, sets, w.data[:, None])
    np.testing.assert_allclose(a.grad, expected, rtol=1e-12)


def canonical_sum_grad(rows, sets, seed):
    """``canonical_sum``'s row gradient under a random upstream gradient,
    and the ``np.add.at`` oracle for it, summed in float64."""
    a = Tensor(rows, requires_grad=True)
    out = canonical_sum(a, sets)
    g = np.random.default_rng(seed).standard_normal(out.shape)
    out.backward(g.astype(rows.dtype))
    expected = np.zeros(rows.shape)
    np.add.at(expected, sets.reshape(-1),
              np.repeat(g.astype(rows.dtype).astype(np.float64).reshape(
                  -1, rows.shape[1]), sets.shape[-1], axis=0))
    return a.grad, expected


@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12),
                                         (np.float32, 1e-5)])
@pytest.mark.parametrize("shape", [(6, 4), (3, 2, 5), (5, 1), (4, 0), (0, 3),
                                   (0, 0)], ids=[
    "repeats", "batched", "one-row-sets", "m=0", "B=0", "B=m=0"])
def test_canonical_sum_grad_matches_add_at(dtype, rtol, shape):
    """The count-matrix gradient is each row's copies' gradients summed,
    whatever the dtype, the set sizes or the number of sets."""
    rng = np.random.default_rng(sum(shape))
    rows = rng.standard_normal((7, 3)).astype(dtype)
    sets = rng.integers(0, 3, size=shape)       # rows 0-2 repeat often
    grad, expected = canonical_sum_grad(rows, sets, 1)
    assert grad.dtype == dtype and grad.shape == rows.shape
    np.testing.assert_allclose(grad, expected, rtol=rtol, atol=rtol)
    if sets.size == 0:
        assert not grad.any()


@pytest.mark.parametrize("n", [1, 256, 257, 65536, 65537])
def test_canonical_sum_grad_at_every_row_count(n):
    """Row counts on both sides of the 8- and 16-bit index widths: the
    first and last rows get their copies' gradients."""
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((n, 2)).astype(np.float32)
    sets = rng.integers(0, n, size=(3, 40))
    sets[0, :3] = [n - 1, 0, n - 1]
    grad, expected = canonical_sum_grad(rows, sets, 2)
    np.testing.assert_allclose(grad, expected, rtol=1e-5, atol=1e-5)
    assert grad[n - 1].any() and grad[0].any()


@pytest.mark.parametrize("bias", [True, False])
def test_affine_is_matmul_then_add_bitwise(bias):
    # reference: the numpy arithmetic of a product node followed by a
    # leading-broadcast add node, forward and backward
    rng = np.random.default_rng(30)
    xv, wv, bv = (rng.standard_normal((6, 4)), rng.standard_normal((4, 3)),
                  rng.standard_normal(3))
    seed = rng.standard_normal((6, 3))
    x, w = t(xv), t(wv)
    b = t(bv) if bias else None
    out = affine(x, w, b)
    ref = xv @ wv + bv if bias else xv @ wv
    assert out.data.tobytes() == ref.tobytes()
    out.backward(seed)
    assert x.grad.tobytes() == (seed @ wv.T).tobytes()
    assert w.grad.tobytes() == (xv.T @ seed).tobytes()
    if bias:
        assert b.grad.tobytes() == seed.sum(axis=(0,)).tobytes()
    inputs = [xv, wv] + ([bv] if bias else [])
    def f(*ts):
        out = affine(*ts)
        return reduce_sum(mul(out, out))
    assert grad_check(f, inputs) < 1e-6


def test_affine_shape_errors():
    with pytest.raises(ShapeError):
        affine(t(np.ones((2, 3))), t(np.ones((4, 2))))
    with pytest.raises(ShapeError):
        affine(t(np.ones((2, 3))), t(np.ones((3, 2))), t(np.ones(3)))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_matches_reference():
    x = np.array([[1.0, 2.0, 3.0]])
    out = softmax(t(x, rg=False)).data
    e = np.exp(x - 3.0)
    assert np.allclose(out, e / e.sum(), atol=1e-12)
    assert np.isclose(out.sum(), 1.0)


def test_softmax_large_logits_stable():
    out = softmax(t(np.array([1000.0, 1001.0]), rg=False)).data
    assert np.all(np.isfinite(out)) and np.isclose(out.sum(), 1.0)


def test_softmax_neg_inf_masks_exactly():
    out = softmax(t(np.array([0.0, -np.inf, 1.0]), rg=False)).data
    assert out[1] == 0.0 and np.isclose(out.sum(), 1.0)


def test_softmax_fully_masked_raises():
    with pytest.raises(ValueError, match="fully masked logits"):
        softmax(t(np.array([-np.inf, -np.inf]), rg=False))


def test_softmax_grad():
    x = np.random.default_rng(14).standard_normal((2, 4))
    w = np.random.default_rng(15).standard_normal((2, 4))
    assert grad_check(lambda a: reduce_sum(mul(softmax(a), Tensor(w))),
                      [x]) < 1e-6


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def test_reshape_grad():
    x = np.arange(6.0).reshape(2, 3)
    w = Tensor(np.arange(6.0).reshape(3, 2))
    assert grad_check(lambda a: reduce_sum(mul(reshape(a, (3, 2)), w)),
                      [x]) < 1e-6


def test_concat_grad_and_split():
    a, b = np.ones((2, 2)), 2 * np.ones((3, 2))
    w = np.random.default_rng(16).standard_normal((5, 2))
    assert grad_check(
        lambda x, y: reduce_sum(mul(concat([x, y], axis=0), Tensor(w))),
        [a, b]) < 1e-6


def test_take_index_forward_and_grad():
    q = t(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    idx = np.array([2, 0])
    out = take_index(q, idx)
    assert np.array_equal(out.data, [3.0, 4.0])
    reduce_sum(out).backward()
    assert np.array_equal(q.grad, [[0, 0, 1], [1, 0, 0]])


def test_take_index_shape_mismatch():
    with pytest.raises(ShapeError):
        take_index(t(np.ones((2, 3))), np.array([0, 1, 2]))


# ---------------------------------------------------------------------------
# straight-through
# ---------------------------------------------------------------------------

def test_straight_through_forward_is_bitwise_hard():
    soft = softmax(t(np.array([0.3, 0.7])))
    hard = np.array([0.0, 1.0])
    out = straight_through(soft, hard)
    assert np.array_equal(out.data, hard)  # exact, not approximate


def test_straight_through_grad_equals_soft_grad():
    x = t(np.array([0.3, 0.7, -0.2]))
    w = np.array([1.0, -2.0, 0.5])
    s1 = softmax(x)
    reduce_sum(mul(s1, Tensor(w))).backward()
    g_soft = x.grad.copy()

    x2 = t(np.array([0.3, 0.7, -0.2]))
    s2 = softmax(x2)
    hard = one_hot(np.argmax(s2.data), 3)
    reduce_sum(mul(straight_through(s2, hard), Tensor(w))).backward()
    assert np.array_equal(x2.grad, g_soft)  # exactly equal, same code path


def test_straight_through_shape_check():
    with pytest.raises(ShapeError):
        straight_through(t(np.ones(3)), np.ones(4))


def test_one_hot():
    assert np.array_equal(one_hot(np.array([1, 0]), 3), [[0, 1, 0], [1, 0, 0]])


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_quadratic_convergence():
    # lr=0.001 moves ~lr per step on a dominated-sign trajectory; reaching
    # |x| < 1e-2 from 5.0 takes 8520 steps (measured once, frozen here)
    x = Tensor(np.array(5.0), requires_grad=True)
    state = AdamState(lr=0.001)
    steps = 0
    while abs(float(x.data)) >= 1e-2:
        x.zero_grad()
        mul(x, x).backward()
        adam_step({"x": x}, state)
        steps += 1
        assert steps <= 9000
    assert steps == 8520


def test_adam_first_step_magnitude():
    # bias correction makes the first update exactly lr * sign(g) up to eps
    x = Tensor(np.array(5.0), requires_grad=True)
    x.grad = np.array(10.0)
    adam_step({"x": x}, AdamState(lr=0.001))
    assert np.isclose(float(x.data), 5.0 - 0.001, atol=1e-8)


def test_adam_nan_grad_names_parameter():
    # an infinite gradient would leave the parameter NaN after one step
    for bad in (np.nan, np.inf, -np.inf):
        x = Tensor(np.array(1.0), requires_grad=True)
        x.grad = np.array(bad)
        with pytest.raises(FloatingPointError, match="w_hidden"):
            adam_step({"w_hidden": x}, AdamState())
        assert x.data == 1.0


def test_adam_missing_grad_treated_as_zero():
    x = Tensor(np.array(1.0), requires_grad=True)
    adam_step({"x": x}, AdamState(lr=0.1))
    assert float(x.data) == 1.0


# ---------------------------------------------------------------------------
# grad_check machinery and init
# ---------------------------------------------------------------------------

def test_grad_check_catches_wrong_gradient():
    def bad(x):
        out = reduce_sum(x)
        # sabotage: double the recorded gradient
        inner = out._backward_rule

        def rule(g):
            inner(2.0 * g)
        out._backward_rule = rule
        return out
    assert grad_check(bad, [np.array([1.0, 2.0])]) > 0.4


def test_grad_check_rejects_nonscalar():
    with pytest.raises(ShapeError):
        grad_check(lambda a: a, [np.ones(3)])


def test_grad_check_rejects_float32_inputs():
    with pytest.raises(TypeError, match="float64"):
        grad_check(lambda a: reduce_sum(a), [np.ones(3, np.float32)])


def test_uniform_init_bounds_and_determinism():
    w1 = uniform_init(np.random.default_rng(42), 16, (16, 8))
    w2 = uniform_init(np.random.default_rng(42), 16, (16, 8))
    assert np.array_equal(w1, w2)
    assert np.all(np.abs(w1) <= 0.25)
    # the float64 draws, each rounded once to float32
    drawn = np.random.default_rng(42).uniform(-0.25, 0.25, size=(16, 8))
    assert w1.tobytes() == drawn.astype(np.float32).tobytes()


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
def test_softmax_sums_to_one(vals):
    out = softmax(t(np.array(vals), rg=False)).data
    assert np.isclose(out.sum(), 1.0, atol=1e-12)
    assert np.all(out >= 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_canonical_sum_invariant_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((6, 4))
    sets = rng.integers(0, 6, size=(3, 5))
    perm = rng.permutation(5)
    a = canonical_sum(t(x, rg=False), sets).data
    b = canonical_sum(t(x, rg=False), sets[:, perm]).data
    assert np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_mlp_like_composite_grad_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 3))
    w = rng.standard_normal((3, 4)) * 0.5
    b = rng.standard_normal(4) * 0.1
    probe = Tensor(rng.standard_normal((2, 4)))

    def f(xx, ww, bb):
        return reduce_sum(mul(softmax(add(matmul(xx, ww), bb)), probe))
    assert grad_check(f, [x, w, b]) < 1e-5
