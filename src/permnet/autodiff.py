"""Minimal dense-tensor reverse-mode autodiff engine.

Tensors wrap a float32 or float64 numpy array plus an optional gradient
array; non-leaf tensors record their parents and a backward rule, and
``Tensor.backward`` replays the rules in reverse topological order, visiting
each node exactly once and *accumulating* (never overwriting) gradients.
One pass consumes the graph: a non-leaf drops its gradient, rule and
parents once its rule has run, so only leaves keep ``.grad``, and a
second pass through a consumed node raises.
Gradient arrays may be shared between tensors and are never written in
place.  Op functions build every graph node through ``Tensor._from_op``:
the module-level ones (``add``, ``mul``, ``reduce_sum``, ...) and the
fused nodes of ``dpn`` and ``hpn`` (``distinct_rows`` among them).
``Tensor`` has no operator overloads.

Only the right operand of ``add`` and ``mul`` broadcasts: its shape, less
leading 1s, must end the left operand's shape, and its gradient is summed
over the leading axes.  Same-shape operands pass gradients through as is.
``canonical_sum``'s gradient is a count-matrix GEMM whose bits, like
every weight gradient's, depend on the BLAS threads.

Every op keeps the dtype of its inputs.  The networks' parameters and the
battle's observations and states are float32, so the whole training graph
runs in single precision; a constant joins a graph through ``constant``,
which gives it the dtype of the tensor it meets.  Float64 inputs (the
finite-difference checks) run the same ops in double precision.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (cheap inference forward)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


def _as_array(value) -> np.ndarray:
    value = np.asarray(value)
    if value.dtype in (np.float32, np.float64):
        return value
    return value.astype(np.float64)


class Tensor:
    """A dense array participating in the gradient graph.

    A float32 or float64 array is kept as given (no copy); ints, bools
    and Python scalars become float64.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_rule")

    def __init__(self, value, requires_grad: bool = False):
        self.data = _as_array(value)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_rule = None

    # -- introspection -------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------
    @classmethod
    def _from_op(cls, value: np.ndarray, parents: tuple, rule) -> "Tensor":
        # an op's array already has its inputs' dtype; only a numpy scalar
        # (a full reduction) needs ``_as_array``.  A rule runs only where a
        # parent needs a gradient, so a single-parent rule never checks
        out = cls.__new__(cls)
        out.data = value if type(value) is np.ndarray else _as_array(value)
        out.grad = None
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad
                                                  for p in parents)
        out._parents = parents if out.requires_grad else ()
        out._backward_rule = rule if out.requires_grad else None
        return out

    def _accumulate(self, g: np.ndarray):
        # the first gradient is stored as handed in, and later ones make a
        # new sum: rules hand one array to several parents (``add``) or
        # pass views (``reshape``), so writing into it in place would
        # change a sibling's gradient
        self.grad = g if self.grad is None else self.grad + g

    def zero_grad(self):
        self.grad = None

    def backward(self, seed=None):
        """Reverse-mode pass from this tensor; it consumes the graph.

        ``seed`` defaults to ones (the usual scalar-loss case).  Nodes are
        visited in reverse topological order exactly once.  Once a node's
        rule has run, the node drops its gradient, its rule and its
        parents, so each intermediate gradient and each array only that
        rule held is freed during the pass.  Leaves keep their ``.grad``;
        a non-leaf's is not kept.  A second pass through a consumed node
        raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that requires no grad")
        order = _topo_order(self)
        self._accumulate(np.ones_like(self.data) if seed is None else _as_array(seed))
        # popping lets a node, and the array it holds, go as soon as its
        # rule has run, unless the caller still refers to it
        while order:
            node = order.pop()
            rule = node._backward_rule
            if rule is not None:
                rule(node.grad)
                node.grad = None
                node._parents = ()
                node._backward_rule = _consumed


def _consumed(g):
    """The rule of a node a backward pass has already run through."""
    raise RuntimeError("backward() through a graph that a backward pass "
                       "has already consumed")


def constant(value, like: Tensor) -> Tensor:
    """``value`` as a graph constant in ``like``'s dtype, rounded once."""
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order DFS; recursion would overflow on long graphs."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward_rule is _consumed:
            _consumed(None)
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


# ---------------------------------------------------------------------------
# broadcasting helpers (right operand, leading axes only)
# ---------------------------------------------------------------------------

def _broadcast_axes(sa: tuple, sb: tuple) -> tuple:
    """The leading axes of ``sa`` that a right operand of shape ``sb`` is
    broadcast along; () when the shapes are equal."""
    if sa == sb:
        return ()
    core = sb
    while core[:1] == (1,):
        core = core[1:]
    if len(sb) > len(sa) or sa[len(sa) - len(core):] != core:
        raise ShapeError(
            f"{sb} does not broadcast over the leading axes of {sa}")
    return tuple(range(len(sa) - len(core)))


def _unbroadcast(g: np.ndarray, axes: tuple, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the broadcast ``axes`` down to ``shape``."""
    return g.sum(axis=axes).reshape(shape) if axes else g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    axes = _broadcast_axes(a.shape, b.shape)
    out_val = a.data + b.data

    def rule(g):
        if a.requires_grad:
            a._accumulate(g)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, axes, b.shape))

    return Tensor._from_op(out_val, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    axes = _broadcast_axes(a.shape, b.shape)
    out_val = a.data * b.data

    def rule(g):
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, axes, b.shape))

    return Tensor._from_op(out_val, (a, b), rule)


def relu(a: Tensor) -> Tensor:
    out_val = np.maximum(a.data, 0.0)

    def rule(g):
        a._accumulate(g * (a.data > 0.0))  # subgradient 0 at 0

    return Tensor._from_op(out_val, (a,), rule)


def abs_(a: Tensor) -> Tensor:
    out_val = np.abs(a.data)

    def rule(g):
        a._accumulate(g * np.sign(a.data))

    return Tensor._from_op(out_val, (a,), rule)


# ---------------------------------------------------------------------------
# matmul / bmm
# ---------------------------------------------------------------------------

def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Dense layer x @ w + b as one node: (n, k) @ (k, p) + (p,) -> (n, p).

    The same values as the product followed by ``add``: the bias is added
    in place into the fresh product, so a layer makes one output array and
    one node.
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"affine needs 2-d operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError(f"affine inner dimensions differ: {x.shape} x {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"bias shape {b.shape} does not match {w.shape}")
    out_val = x.data @ w.data
    if b is not None:
        out_val += b.data

    def rule(g):
        if x.requires_grad:
            x._accumulate(g @ w.data.T)
        if w.requires_grad:
            w._accumulate(x.data.T @ g)
        if b is not None and b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return Tensor._from_op(out_val, (x, w) if b is None else (x, w, b), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-d matrix product: (n, k) @ (k, p) -> (n, p), an unbiased affine."""
    return affine(a, b)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: (B, n, k) @ (B, k, p) -> (B, n, p)."""
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ShapeError(f"bmm needs 3-d operands, got {a.shape} and {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeError(f"bmm shapes incompatible: {a.shape} x {b.shape}")
    out_val = a.data @ b.data

    def rule(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.transpose(0, 2, 1))
        if b.requires_grad:
            b._accumulate(a.data.transpose(0, 2, 1) @ g)

    return Tensor._from_op(out_val, (a, b), rule)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _check_axis(t: Tensor, axis):
    if axis is not None and not (-t.data.ndim <= axis < t.data.ndim):
        raise ShapeError(f"axis {axis} out of range for shape {t.shape}")


def reduce_sum(t: Tensor, axis=None) -> Tensor:
    _check_axis(t, axis)
    out_val = t.data.sum(axis=axis)

    def rule(g):
        if axis is None:
            t._accumulate(np.broadcast_to(g, t.shape).copy())
        else:
            t._accumulate(np.broadcast_to(np.expand_dims(g, axis), t.shape).copy())

    return Tensor._from_op(out_val, (t,), rule)


def count_matrix(sets: np.ndarray, n_rows: int, weights: np.ndarray):
    """(n_rows, B) matrix whose entry [u, b] sums the (B, m) ``weights`` of
    row u's copies in the (B, m) row-index ``sets``, in their dtype.  It is
    dense: unmerged rows (an input needing a gradient) make n_rows B·m."""
    out = np.zeros((n_rows, len(sets)), weights.dtype)
    cells = sets * len(sets) + np.arange(len(sets))[:, None]
    np.add.at(out.reshape(-1), cells.reshape(-1), weights.reshape(-1))
    return out


def canonical_sum(rows: Tensor, sets: np.ndarray) -> Tensor:
    """Sum of each set of rows: ``out[a]`` is the sum of ``rows[i]`` for
    the ``i`` in ``sets[a]``.  (n, h) rows and (..., m) sets -> (..., h).

    Each set's indices are sorted and its rows added in ascending index
    order from +0.0, so any order of a set's indices gives bitwise the
    same sum.  Pooling is exactly order-free when the rows are ranked by
    their values and equal values share a rank, as ``hpn.distinct_rows``
    ranks them.  The sum is one node whose gradient is ``C @ g``, with C
    (n, B) counting each row's copies in each of the B sets; like every
    weight-gradient GEMM, its bits depend on the BLAS thread count.
    """
    sets = np.sort(np.asarray(sets, dtype=np.intp), axis=-1)
    flat = sets.reshape(math.prod(sets.shape[:-1]), sets.shape[-1])

    def rule(g):
        ones = np.ones_like(flat, g.dtype)
        rows._accumulate(count_matrix(flat, len(rows.data), ones)
                         @ g.reshape(len(flat), rows.shape[1]))

    # numpy sums a (..., m, h) array's m axis in order, from +0.0
    return Tensor._from_op(rows.data[sets].sum(axis=-2), (rows,), rule)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis``.

    -inf entries act as hard masks (probability exactly 0); a slice that is
    entirely -inf has no distribution to normalize and raises.
    """
    _check_axis(t, axis)
    x = t.data
    m = x.max(axis=axis, keepdims=True)
    if np.any(np.isneginf(m)):
        raise ValueError("fully masked logits")
    e = np.exp(x - m)
    out_val = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        inner = (g * out_val).sum(axis=axis, keepdims=True)
        t._accumulate(out_val * (g - inner))

    return Tensor._from_op(out_val, (t,), rule)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------

def reshape(t: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out_val = t.data.reshape(shape)

    def rule(g):
        t._accumulate(g.reshape(t.shape))

    return Tensor._from_op(out_val, (t,), rule)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out_val = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def rule(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return Tensor._from_op(out_val, tuple(tensors), rule)


def take_index(t: Tensor, indices: np.ndarray,
               rows: np.ndarray | None = None) -> Tensor:
    """Gather one entry per row along the last axis: out[...] = t[..., idx[...]].

    With ``rows``, ``t`` is (K, A) and out[...] = t[rows[...], idx[...]]:
    rows may repeat.  The backward sums, in float64 rounded once to the
    dtype, the gradients of every entry that reads one row of ``t``.
    """
    idx = np.asarray(indices, dtype=np.intp)
    width = t.shape[-1]
    if rows is None:
        if idx.shape != t.shape[:-1]:
            raise ShapeError(
                f"index shape {idx.shape} does not match {t.shape[:-1]}")
        rows = np.arange(idx.size).reshape(idx.shape)
    else:
        rows = np.asarray(rows, dtype=np.intp)
        if t.data.ndim != 2 or rows.shape != idx.shape:
            raise ShapeError(f"rows {rows.shape} and indices {idx.shape} "
                             f"do not gather from a 2-d {t.shape}")
    out_val = t.data.reshape(-1, width)[rows, idx]

    def rule(g):
        full = np.bincount((rows * width + idx).reshape(-1), g.reshape(-1),
                           t.size)
        t._accumulate(full.astype(t.data.dtype, copy=False).reshape(t.shape))

    return Tensor._from_op(out_val, (t,), rule)


def straight_through(soft: Tensor, hard_value: np.ndarray) -> Tensor:
    """Forward the hard value verbatim; backward passes gradients to ``soft``.

    Equivalent to ``hard - detach(soft) + soft`` but with a bitwise-exact
    forward value (the add/subtract form loses exactness to rounding).
    """
    hard_value = _as_array(hard_value)
    if hard_value.shape != soft.shape:
        raise ShapeError(f"hard value shape {hard_value.shape} != {soft.shape}")

    def rule(g):
        soft._accumulate(g)

    return Tensor._from_op(hard_value, (soft,), rule)


def one_hot(indices: np.ndarray, depth: int, dtype=np.float64) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp)
    out = np.zeros(idx.shape + (depth,), dtype)
    np.put_along_axis(out, idx[..., None], 1.0, axis=-1)
    return out


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Per-parameter Adam moments plus the shared step counter."""

    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict[str, Tensor], state: AdamState):
    """One Adam update over named parameters from each tensor's
    accumulated ``.grad``.

    Parameters with no gradient are treated as zero-gradient (their
    moments still decay).  Non-finite gradients abort, naming the parameter.
    """
    state.step += 1
    t = state.step
    bias1 = 1.0 - state.beta1 ** t
    bias2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f, inputs, h: float = 1e-5) -> float:
    """Max relative error between backprop and central differences.

    ``f`` maps the given tensors to a scalar Tensor and is re-evaluated for
    each perturbed component, so it must be deterministic.  The error metric
    is |analytic - numeric| / max(1, |analytic|), maximized over all input
    components.  Inputs must be float64: float32 rounding alone puts the
    error near 1e-3 at ``h`` = 1e-5.  They must be leaves, since the
    backward frees a non-leaf's gradient.
    """
    inputs = [t if isinstance(t, Tensor) else Tensor(t, requires_grad=True)
              for t in inputs]
    if any(t.data.dtype != np.float64 for t in inputs):
        raise TypeError("grad_check needs float64 inputs")
    if any(t._backward_rule is not None for t in inputs):
        raise ValueError("grad_check needs leaf inputs: the backward frees "
                         "a non-leaf's gradient")
    for t in inputs:
        t.requires_grad = True
        t.zero_grad()
    out = f(*inputs)
    if out.size != 1:
        raise ShapeError("grad_check expects a scalar-valued function")
    if np.isnan(out.data):
        raise FloatingPointError("function returned NaN")
    out.backward()
    analytic = [np.array(t.grad, copy=True) if t.grad is not None
                else np.zeros_like(t.data) for t in inputs]

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with no_grad():
                hi = float(f(*inputs).data)
            flat[i] = orig - h
            with no_grad():
                lo = float(f(*inputs).data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * h)
            a = float(ana.reshape(-1)[i])
            worst = max(worst, abs(a - numeric) / max(1.0, abs(a)))
    return worst


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """Dense-layer initialization: uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)),
    drawn in float64 and rounded once to float32."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)
