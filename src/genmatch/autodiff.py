"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation records its inputs and a backward closure on the output
node; ``backward`` replays the recorded tape in reverse topological order.
Every node, parameters included, follows one gradient rule: ``grad`` is
None until an op hands it one, the first gradient is kept by reference, and
a None grad reads as zero wherever a grad is read (the gradient norm and
``Adam.step``).

An op keeps for its backward only what that backward reads, in the
smallest form it reads it in. ``affine_softmax_nll``, the vocabulary-wide
output layer, computes its logits, their softmax and then the logits'
gradient in one (N, V) buffer, and hands its weight the gradient
``x.T @ g`` as its two factors, which at a large output are far smaller
than the product. The gradient norm and ``Adam.step`` build the product one
column block at a time into one reused buffer; any other read of ``grad``,
and a second gradient into the same weight, forms it whole once, bit for
bit as ``x.T @ g``. ``dropout`` keeps its mask as one bool per element, a
recorded GRU pass recomputes each step's ``reset * h`` in its backward,
``attention_weights`` rebuilds its tanh there, and ``concat`` keeps only
the parts that take a gradient.

``backward`` frees the graph as it runs: once an op node's backward has
run, the node drops its closure, its parents and its grad, so the pass
releases activations as it moves down the graph. Inner grads are therefore
gone when ``backward`` returns; leaves and parameters keep theirs. A graph
is differentiated once: a later ``backward`` that reaches a released node
raises ``RuntimeError``.

An op that records nothing (under ``no_grad``, or with no input that
requires a gradient) keeps no activation for a backward that will not run:
a GRU pass that records nothing keeps its outputs plus one block.

Models keep every tensor 2-D (batch-first) or scalar, and all values are
required to stay finite. A tensor keeps the float32 or float64 dtype of its
data; a model's ``ParamStore`` fixes the dtype of its parameters, and every
op result follows the dtype of its operands.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable tape recording inside the block (greedy decoding, eval)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


def check_finite(arr: np.ndarray, source=None) -> None:
    """Raise ``NonFiniteError`` naming ``source`` when ``arr`` holds a NaN or
    an Inf. ``source`` is the name of the op that made ``arr``, or that op's
    backward closure, whose qualified name (``matmul.<locals>._bw``) names
    the op and is read only when raising."""
    # A NaN or Inf element makes the sum non-finite, so one reduction clears
    # almost every array; a sum that overflows on finite data falls through
    # to the exact elementwise check.
    if np.isfinite(arr.sum()):
        return
    if not np.all(np.isfinite(arr)):
        if callable(source):
            source = source.__qualname__.split(".")[0]
        raise NonFiniteError(f"non-finite value from {source or 'tensor data'}")


class Tensor:
    """Dense array node. Leaf tensors are constants unless requires_grad."""

    __slots__ = ("data", "_grad", "requires_grad", "_parents", "_backward", "_owns_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        check_finite(arr)
        self.data = arr
        self._grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._owns_grad = False  # True once ``grad`` is an array no one else holds

    @property
    def grad(self) -> np.ndarray | None:
        """The gradient array, or None. A weight gradient that
        ``affine_softmax_nll`` handed over as its factors is formed whole at
        the first read, as ``x.T @ g`` bit for bit, and kept."""
        if type(self._grad) is _Product:
            self._grad = self._grad.dense()
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        self._grad = value

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named leaf whose ``requires_grad`` is its trainable flag. Its grad
    follows the rule of every node: None until an op hands it one, which no
    op does while the parameter is frozen."""

    __slots__ = ("name",)

    def __init__(self, name: str, data, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape}, trainable={self.requires_grad})"


@dataclass(frozen=True)
class Initializer:
    """A parameter's shape and the zero-argument function that draws its
    first value. A store filled from a checkpoint never calls ``draw``."""

    shape: tuple
    draw: Callable[[], np.ndarray]


class ParamStore:
    """Ordered registry of uniquely named parameters, all of one dtype.

    The store takes ownership of the arrays it is given: a parameter holds
    the given array itself when its dtype is the store's, and one cast copy
    when it is not. A store filled from a checkpoint ``state`` (name ->
    array) gives each created parameter the state's array, checked against
    the parameter's shape, and draws no initial value. A created
    parameter's grad is None, like every node's, until an op hands it one.
    """

    def __init__(self, dtype=np.float64, state: dict[str, np.ndarray] | None = None):
        self.dtype = np.dtype(dtype)
        if self.dtype not in _FLOAT_DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
        self._params: dict[str, Parameter] = {}
        self._state = None if state is None else dict(state)

    def create(self, name: str, init, trainable: bool = True) -> Parameter:
        """Register ``name`` with its first value ``init``: an array, or an
        ``Initializer`` drawn only when the store has no state."""
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if self._state is not None:
            if name not in self._state:
                raise ValueError(f"missing parameter {name!r}")
            data = self._state.pop(name)
        else:
            data = init.draw() if isinstance(init, Initializer) else init
        if np.shape(data) != init.shape:
            raise ValueError(f"shape mismatch for {name!r}: {np.shape(data)} given, "
                             f"the model has {init.shape}")
        try:
            p = Parameter(name, np.asarray(data, dtype=self.dtype), trainable=trainable)
        except NonFiniteError:
            raise NonFiniteError(f"non-finite value in parameter {name!r}") from None
        self._params[name] = p
        return p

    def check_state_taken(self) -> None:
        """Raise when the state holds a parameter that no ``create`` took."""
        if self._state:
            raise ValueError(f"unexpected parameters {sorted(self._state)}")

    def all(self) -> list[Parameter]:
        return list(self._params.values())

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]


# Ops that cannot turn finite inputs into a non-finite output, so their
# results are not checked: every input was checked when it was made (a
# parameter that Adam wrote in place is caught by the first checking op that
# reads it). concat, reshape and gather_rows only move values; tanh, sigmoid
# and masked_softmax are bounded.
_UNCHECKED_OPS = ("concat", "reshape", "gather_rows", "tanh", "sigmoid", "masked_softmax")


def _node(data: np.ndarray, parents: tuple, backward, checked: bool = True) -> Tensor:
    """Record ``data`` as the output of an op; ``checked=False`` is for the
    ops of ``_UNCHECKED_OPS`` and for ops that check their values before a
    bounded last step, as ``attention_weights`` checks its scores."""
    if checked:
        check_finite(data, backward)
    out = Tensor.__new__(Tensor)
    out.data = data
    out._grad = None
    out._owns_grad = False
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


class _Product:
    """A (K, M) weight gradient ``x.T @ g`` held as its two factors, an
    ``affine_softmax_nll`` op's (N, K) input ``x`` and the (N, M) gradient
    ``g`` of its logits: N * (K + M) elements instead of K * M. ``g`` is the
    op's one logits-sized buffer, which held the logits and then their
    softmax. Both are arrays that nothing writes once the backward that made
    them has run."""

    __slots__ = ("x", "g")

    def __init__(self, x: np.ndarray, g: np.ndarray):
        self.x, self.g = x, g

    def dense(self) -> np.ndarray:
        return self.x.T @ self.g

    def column_blocks(self, buffers: dict):
        """``(lo, hi, block)`` for each of the near-equal ranges of columns
        that cover the product, at most ``_GRAD_BLOCK`` elements each when a
        column fits: ``block`` is ``x.T @ g[:, lo:hi]``, written into one
        buffer that the next block overwrites. ``buffers`` keeps that buffer
        by dtype, grown as needed, for a later call. A single block is
        ``dense()`` bit for bit; other blocks round as BLAS rounds a product
        of their size."""
        rows, cols = self.x.shape[1], self.g.shape[1]
        ranges = _even_ranges(cols, max(1, _GRAD_BLOCK // max(1, rows)))
        dtype = np.result_type(self.x, self.g)
        size = rows * (ranges[0][1] - ranges[0][0])  # the first range is the widest
        buf = buffers.get(dtype)
        if buf is None or buf.size < size:
            buf = buffers[dtype] = np.empty(size, dtype)
        for lo, hi in ranges:
            block = buf[:rows * (hi - lo)].reshape(rows, hi - lo)
            yield lo, hi, np.matmul(self.x.T, self.g[:, lo:hi], out=block)


def _accum(t: Tensor, g, owned: bool = False) -> None:
    """Add ``g``, an array or a ``_Product``, into ``t.grad`` without
    writing any array someone else holds.

    The first gradient is kept by reference (it may be another node's grad,
    a read-only broadcast view, or a product's factors), the second sum is
    a fresh array that ``t`` owns, and later ones add into it in place.
    ``owned`` says that ``g`` is a fresh array that the calling op made and
    holds nowhere else: ``t`` then owns it as its first gradient, and the
    second adds into it in place. The rule is the same for inner nodes and
    parameters. A product that meets another gradient is formed whole
    first. A gradient of another dtype takes the allocating path, so type
    promotion, the order of the adds and every value are the same as
    summing the dense arrays with ``+`` (``a += b`` rounds as ``a + b``).
    """
    if not t.requires_grad:
        return
    if t._grad is None:
        t._grad = g
        t._owns_grad = owned and _may_own(t)
        return
    if type(g) is _Product:
        g = g.dense()
    if t._owns_grad and t._grad.dtype == g.dtype:  # an owned grad is an array
        t._grad += g
    else:
        t._grad = t.grad + g
        t._owns_grad = _may_own(t)


def _may_own(t: Tensor) -> bool:
    """Whether ``t`` may add into its grad in place: a plain leaf's grad
    goes back to its caller, who may keep it."""
    return t._backward is not None or isinstance(t, Parameter)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _released(g) -> None:
    raise RuntimeError("backward reached a node whose graph was already differentiated; "
                       "a graph is differentiated once")


def backward(loss: Tensor) -> int:
    """Populate the gradients of the leaves and parameters the scalar
    ``loss`` depends on, releasing the graph as it goes; returns the number
    of op nodes it ran.

    Each op node, ``loss`` included, drops its closure, parents and grad
    once its backward has run, so its inputs and activations are freed as
    the pass moves down the graph; its ``_backward`` becomes a sentinel that
    raises when a later ``backward`` reaches it."""
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not loss.requires_grad:
        raise ValueError("loss is not connected to any recorded computation")

    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent._backward is not None and id(parent) not in visited:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    ran = 0
    while order:
        # popped, so the tape holds the node only through its unprocessed children
        node = order.pop()
        if node._backward is None:
            continue
        if node._grad is not None:
            node._backward(node.grad)
        ran += 1
        # its parents may hold the grad by reference; the node lets go of it
        node._backward, node._parents, node._grad = _released, (), None
    return ran


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def _bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), _bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def _bw(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), _bw)


def mul_const(a: Tensor, c) -> Tensor:
    """Multiply by a python scalar or a constant ndarray (mask, 1/n, ...)."""
    data = a.data * c

    def _bw(g):
        _accum(a, _unbroadcast(g * c, a.data.shape))

    return _node(data, (a,), _bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def _bw(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

    return _node(data, (a, b), _bw)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    """Join the tensors along ``axis``; the node keeps only the parts that
    take a gradient, so a constant part is not held for the backward."""
    if not tensors:
        raise ValueError("concat of empty list")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    parts = [(t, lo, hi) for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:])
             if t.requires_grad]

    def _bw(g):
        for t, lo, hi in parts:
            _accum(t, g[lo:hi] if axis == 0 else g[:, lo:hi])

    return _node(data, tuple(t for t, _, _ in parts), _bw, checked=False)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so no
    exp overflows. ``out`` may be ``x`` itself. The numerator is 1 or
    exp(-|x|), taken as the larger of exp(-|x|) and ``x >= 0``; one array
    besides the result, ``scratch`` when given, holds exp(-|x|) and then the
    denominator."""
    e = np.abs(x, out=scratch)
    np.negative(e, out=e)
    np.exp(e, out=e)  # exp(-|x|)
    if out is None:
        out = np.empty_like(e)
    np.greater_equal(x, 0.0, out=out)
    np.maximum(e, out, out=out)
    e += 1.0
    return np.divide(out, e, out=out)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)

    def _bw(g):
        _accum(a, g * y * (1.0 - y))

    return _node(y, (a,), _bw, checked=False)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def _bw(g):
        _accum(a, g * (1.0 - y * y))

    return _node(y, (a,), _bw, checked=False)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def _bw(g):
        _accum(a, g / a.data)

    return _node(data, (a,), _bw)


def softmax_nll(a: Tensor, targets: np.ndarray) -> Tensor:
    """Negative log-softmax of the (N, V) logits at one target column per
    row: out[i, 0] = -log(softmax(a)[i, targets[i]]).

    The op works in one copy of the logits, which becomes their softmax and
    then, in the backward, their gradient; see ``_softmax_nll_in_place``.
    """
    idx = np.asarray(targets, dtype=np.int64)
    p = a.data.copy()
    data = _softmax_nll_in_place(p, idx)

    def _bw(g):
        _accum(a, _softmax_nll_grad(p, idx, g))

    return _node(data, (a,), _bw)


def affine_softmax_nll(x: Tensor, w: Tensor, b: Tensor, targets: np.ndarray) -> Tensor:
    """The output layer: ``softmax_nll`` of the logits ``x @ w + b`` for a
    (N, K) ``x``, a (K, V) ``w`` and a bias ``b`` that broadcasts over the
    rows, in one (N, V) buffer. Values and gradients equal
    ``softmax_nll(add(matmul(x, w), b), targets)`` bit for bit.

    The bias is added into the product in place and the logits are checked
    once; the buffer then becomes their softmax, the one activation the
    backward reads, and in the backward their gradient ``g``. The weight's
    gradient is kept as the factors of ``x.T @ g`` (see ``_Product``).
    """
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("affine_softmax_nll expects 2-D operands")
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"affine_softmax_nll shape mismatch: {x.data.shape} @ {w.data.shape}")
    idx = np.asarray(targets, dtype=np.int64)
    buf = x.data @ w.data
    buf += b.data
    check_finite(buf, "affine_softmax_nll")
    data = _softmax_nll_in_place(buf, idx)

    def _bw(g):
        grad = _softmax_nll_grad(buf, idx, g)
        _accum(b, _unbroadcast(grad, b.data.shape))
        _accum(x, grad @ w.data.T)
        _accum(w, _Product(x.data, grad))  # kept as its factors; see ``_Product``

    return _node(data, (x, w, b), _bw)


_EXP_SUM_BLOCK = 1 << 16  # elements of one row block of a softmax's exp-sum scratch


def _softmax_nll_in_place(buf: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Turn the (N, V) logits ``buf`` into their softmax in place and return
    the (N, 1) negative log-softmax at the ``idx`` columns.

    The arithmetic is ``y = a - max``, ``y -= log(sum(exp(y)))``, the pick,
    then ``exp(y)``. Each row's exp-sum is taken in row blocks of at most
    ``_EXP_SUM_BLOCK`` elements through a small scratch, each row summed as
    one contiguous row, so the sums are those of the whole (N, V)
    exponential bit for bit without making it."""
    rows, cols = buf.shape
    buf -= buf.max(axis=-1, keepdims=True)
    per_block = max(1, _EXP_SUM_BLOCK // max(1, cols))
    scratch = np.empty((min(per_block, rows), cols), buf.dtype)
    sums = np.empty((rows, 1), buf.dtype)
    for lo in range(0, rows, per_block):
        part = buf[lo:lo + per_block]
        sums[lo:lo + per_block] = np.exp(part, out=scratch[:len(part)]).sum(axis=-1, keepdims=True)
    buf -= np.log(sums)  # buf is now the log-softmax
    data = -buf[np.arange(rows), idx][:, None]
    np.exp(buf, out=buf)
    return data


def _softmax_nll_grad(p: np.ndarray, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The logits' gradient g * (p - onehot) from the (N, 1) ``g``, evaluated
    as g * p with g subtracted at each target, written into the softmax
    ``p`` itself: nothing else holds it, and the node is run once."""
    grad = np.multiply(p, g, out=p)
    grad[np.arange(p.shape[0]), idx] -= g[:, 0]
    return grad


def masked_softmax(a: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax along the last axis over positions where ``mask`` is True,
    stabilized by max subtraction; masked entries get 0 mass.

    ``mask`` is a constant bool array broadcastable to ``a``, True at real
    tokens. A fully masked row is an error (the distribution would be
    undefined).
    """
    y = _masked_softmax(a.data, mask)

    def _bw(g):
        _accum(a, _softmax_grad(g, y))

    return _node(y, (a,), _bw, checked=False)


def _masked_softmax(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    if not np.all(mask.any(axis=-1)):
        raise ValueError("masked_softmax: a row is fully masked")
    logits = x + np.where(mask, 0.0, -np.inf).astype(x.dtype, copy=False)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient of a softmax's input from ``g``, its output's gradient."""
    inner = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - inner)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup (embedding gather). Gradients scatter-add back."""
    idx = np.asarray(indices, dtype=np.int64)
    data = table.data[idx]

    def _bw(g):
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, idx, g)
            _accum(table, buf)

    return _node(data, (table,), _bw, checked=False)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)

    def _bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(data, (a,), _bw, checked=False)


def tensor_sum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def _bw(g):
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _node(data, (a,), _bw)


def mean(a: Tensor) -> Tensor:
    return mul_const(tensor_sum(a), 1.0 / a.data.size)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when ``rng`` is None (eval) or rate is 0.

    The output is ``a * mask`` with ``mask = kept / (1 - rate)``; the node
    keeps ``kept``, one bool per element, and rebuilds the mask from it when
    its backward runs."""
    if rng is None or rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    keep = 1.0 - rate
    kept = rng.random(a.data.shape) < keep
    data = a.data * (kept.astype(a.data.dtype) / keep)

    def _bw(g):
        _accum(a, g * (kept.astype(a.data.dtype) / keep))

    return _node(data, (a,), _bw)


# ---------------------------------------------------------------------------
# additive attention as two ops: the weights, then the weighted sum. Each
# forward works in blocks of whole instances whose (k, T, .) arrays fit
# ``_ATTENTION_BLOCK`` elements, so a block stays in cache between its passes.

_ATTENTION_BLOCK = 1 << 16


def _instances_per_block(length: int, width: int) -> int:
    return max(1, _ATTENTION_BLOCK // max(1, length * width))


def _attention_tanh(keys: np.ndarray, queried: np.ndarray, bias: np.ndarray, length: int,
                    checked: bool = False) -> np.ndarray:
    """One part's (B*T, A) ``tanh(keys[b*T + t] + queried[b] + bias)``,
    computed block by block; ``checked`` checks each block before its tanh,
    which would hide an overflow."""
    batch, proj = queried.shape
    blocks = keys.reshape(batch, length, proj)
    th = np.empty_like(blocks, dtype=np.result_type(blocks, queried, bias))
    step = _instances_per_block(length, proj)
    for lo in range(0, batch, step):
        pre = np.add(blocks[lo:lo + step], queried[lo:lo + step, None, :],
                     out=th[lo:lo + step])
        pre += bias
        if checked:
            check_finite(pre, "attention_weights")
        np.tanh(pre, out=pre)
    return th.reshape(batch * length, proj)


def attention_weights(query: Tensor, parts, w_query: Tensor, bias: Tensor, v: Tensor) -> Tensor:
    """Additive attention weights of a (B, S) query over one or more memory
    parts: the masked softmax, jointly over every part's positions, of the
    scores ``v . tanh(keys[b*T + t] + query[b] W_q + bias)``.

    ``parts`` lists (keys, mask) pairs: a part's batch-major (B*T_i, A) keys
    and its (B, T_i) bool mask, True at real tokens. Returns the (B, sum T_i)
    weights, which carry zero mass on masked positions and sum to 1 over
    each row.

    The forward computes ``query W_q`` once, each part's tanh block by block
    into one (B, T_i, A) array, and then one score product over all of the
    part's rows; it then drops the tanh, so the node keeps the weights and
    ``query W_q`` but no (B, T_i, A) array. The backward rebuilds each
    part's tanh with the forward's own blocks and adds, and then does the
    arithmetic of the composite it replaces (per part: the repeated query
    projection, the two adds, the tanh, the score product and a reshape;
    then a concat and the masked softmax) in that composite's order, part 1
    first, so every value and gradient equals the composite's bit for bit.
    """
    batch = query.data.shape[0]
    proj = w_query.data.shape[1]
    queried = query.data @ w_query.data
    scores = []
    for keys, mask in parts:
        length = mask.shape[1]
        if keys.data.shape != (batch * length, proj):
            raise ValueError(f"keys of shape {keys.data.shape} do not fit a {mask.shape} mask "
                             f"and {proj} attention units")
        flat = _attention_tanh(keys.data, queried, bias.data, length, checked=True)
        scores.append((flat @ v.data).reshape(batch, length))
    scores = np.concatenate(scores, axis=1)
    check_finite(scores, "attention_weights")
    y = _masked_softmax(scores, np.concatenate([mask for _, mask in parts], axis=1))

    def _bw(g):
        d_logits = _softmax_grad(g, y)
        to_query = query.requires_grad or w_query.requires_grad
        offset = 0
        for keys, mask in parts:
            length = mask.shape[1]
            # the values the forward checked, rebuilt by the same blocks and adds
            flat = _attention_tanh(keys.data, queried, bias.data, length)
            d_logit = d_logits[:, offset:offset + length].reshape(batch * length, 1)
            offset += length
            d_pre = d_logit @ v.data.T
            _accum(v, flat.T @ d_logit)
            d_pre *= 1.0 - flat * flat
            _accum(bias, d_pre.sum(axis=0))
            _accum(keys, d_pre)
            if to_query:
                d_queried = d_pre.reshape(batch, length, proj).sum(axis=1)
                _accum(query, d_queried @ w_query.data.T)
                _accum(w_query, query.data.T @ d_queried)

    # the keys first and the query last, so that backward's depth-first
    # search meets them in the composite's order
    parents = tuple(keys for keys, _ in parts) + (query, w_query, bias, v)
    return _node(y, parents, _bw, checked=False)  # the scores were checked


def weighted_sum(weights: Tensor, memories) -> Tensor:
    """The (B, M) weighted sum of one or more batch-major (B*T_i, M) memories
    whose weights sit side by side in the (B, sum T_i) ``weights``:
    ``out[b] = sum_i sum_t weights[b, offset_i + t] * memory_i[b*T_i + t]``.

    Each part is summed over its positions in order and the parts are added
    in order, as the composite (per part a slice, a reshape, a multiply and a
    row-group sum; then an add per part after the first) rounds. The forward
    multiplies block by block into one reused (k, T_i, M) buffer; the
    backward does the composite's arithmetic in its order, part 1 first, and
    computes no gradient for a constant input: weights such as a mask that
    pools, or a memory such as a frozen encoding.
    """
    batch, width = weights.data.shape
    lengths = [memory.data.shape[0] // batch for memory in memories]
    if sum(lengths) != width or any(m.data.shape[0] != batch * n
                                    for m, n in zip(memories, lengths)):
        raise ValueError(f"memories of {[m.data.shape for m in memories]} rows do not fit "
                         f"weights of shape {weights.data.shape}")
    out = None
    offset = 0
    for memory, length in zip(memories, lengths):
        cols = memory.data.shape[1]
        blocks = memory.data.reshape(batch, length, cols)
        w = weights.data[:, offset:offset + length, None]
        offset += length
        dtype = np.result_type(blocks, w)
        step = _instances_per_block(length, cols)
        buf = np.empty((min(step, batch), length, cols), dtype=dtype)
        part = np.empty((batch, cols), dtype=dtype)
        for lo in range(0, batch, step):
            hi = min(batch, lo + step)
            prod = np.multiply(blocks[lo:hi], w[lo:hi], out=buf[:hi - lo])
            prod.sum(axis=1, out=part[lo:hi])
        out = part if out is None else np.add(out, part, out=out)

    def _bw(g):
        d_weights = np.empty_like(weights.data) if weights.requires_grad else None
        offset = 0
        for memory, length in zip(memories, lengths):
            w = weights.data[:, offset:offset + length]
            if memory.requires_grad:
                _accum(memory, (g[:, None, :] * w[:, :, None]).reshape(memory.data.shape))
            if d_weights is not None:
                blocks = memory.data.reshape(batch, length, memory.data.shape[1])
                d_weights[:, offset:offset + length] = (g[:, None, :] * blocks).sum(axis=2)
            offset += length
        if d_weights is not None:
            _accum(weights, d_weights)

    # the weights last, so that backward's depth-first search meets them first
    return _node(out, tuple(memories) + (weights,), _bw)


# ---------------------------------------------------------------------------
# GRU: the named cell parameters, ``gru_sequence`` (the one GRU op: one cell
# or two, the second run in reverse; it writes batch-major, masked states and
# adds into the sequence once per cell) and its per-step reference ``gru_cell``


@dataclass
class GRUCellParams:
    """Gate parameters; convention is pinned by the analytic tests:

    update = sigmoid(x W_u + h U_u + b_u)
    reset  = sigmoid(x W_r + h U_r + b_r)
    cand   = tanh(x W_c + (reset * h) U_c + b_c)
    h'     = (1 - update) * h + update * cand
    """

    w_update: Parameter
    u_update: Parameter
    b_update: Parameter
    w_reset: Parameter
    u_reset: Parameter
    b_reset: Parameter
    w_cand: Parameter
    u_cand: Parameter
    b_cand: Parameter

    @property
    def hidden(self) -> int:
        return self.b_update.data.shape[-1]

    @property
    def input_dim(self) -> int:
        return self.w_update.data.shape[0]

    def gates(self) -> tuple[tuple[Parameter, ...], ...]:
        """The (update, reset, cand) parameters of W, of U and of b."""
        return ((self.w_update, self.w_reset, self.w_cand),
                (self.u_update, self.u_reset, self.u_cand),
                (self.b_update, self.b_reset, self.b_cand))


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int,
           gain: float = 1.0) -> Initializer:
    """Glorot-uniform values times ``gain``, drawn from ``rng`` only when a
    store asks for them."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))

    def draw():
        values = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        if gain != 1.0:
            values *= gain
        return values

    return Initializer((fan_in, fan_out), draw)


def zeros(*shape: int) -> Initializer:
    return Initializer(shape, lambda: np.zeros(shape))


def init_gru_cell(store: ParamStore, prefix: str, input_dim: int, hidden: int,
                  rng: np.random.Generator) -> GRUCellParams:
    if hidden < 1:
        raise ValueError("hidden size must be positive")
    if input_dim < 1:
        raise ValueError("input size must be positive")

    def w(name):
        return store.create(f"{prefix}.{name}", glorot(rng, input_dim, hidden))

    def u(name):
        return store.create(f"{prefix}.{name}", glorot(rng, hidden, hidden))

    def b(name):
        return store.create(f"{prefix}.{name}", zeros(hidden))

    return GRUCellParams(
        w_update=w("w_update"), u_update=u("u_update"), b_update=b("b_update"),
        w_reset=w("w_reset"), u_reset=u("u_reset"), b_reset=b("b_reset"),
        w_cand=w("w_cand"), u_cand=u("u_cand"), b_cand=b("b_cand"),
    )


def gru_cell(x: Tensor, h_prev: Tensor, params: GRUCellParams) -> Tensor:
    """One GRU step for a (batch, dim) input against a (batch, hidden) state."""
    if h_prev.data.ndim != 2 or h_prev.data.shape[1] == 0:
        raise ValueError("h_prev must be (batch, hidden) with hidden > 0")
    if x.data.shape[1] != params.input_dim:
        raise ValueError(f"input dim {x.data.shape[1]} != cell dim {params.input_dim}")
    update = sigmoid(add(add(matmul(x, params.w_update), matmul(h_prev, params.u_update)),
                         params.b_update))
    reset = sigmoid(add(add(matmul(x, params.w_reset), matmul(h_prev, params.u_reset)),
                        params.b_reset))
    cand = tanh(add(add(matmul(x, params.w_cand), matmul(mul(reset, h_prev), params.u_cand)),
                    params.b_cand))
    return add(h_prev, mul(update, add(cand, mul_const(h_prev, -1.0))))


def gru_sequence(x: Tensor, h0: Tensor, cells, mask: np.ndarray) -> Tensor:
    """Run one or two GRU cells over a position-major (T*B, D) sequence from
    the (B, H) state ``h0``; returns the states batch-major, (B*T, H * cells)
    with row ``b*T + t``, multiplied by the (B, T) bool ``mask``, True at
    real tokens.

    ``cells`` holds one ``GRUCellParams`` (a decoder's) or two (an encoder's
    forward and backward cells, the second run from the last position to the
    first, its states right of the first's). Where the mask is False a cell
    carries its state through bit for bit and the output reads 0. The cells
    step together: at step s the first is at position s and the second at
    position T-1-s, and every elementwise op of a step is one numpy call
    over both cells' contiguous (cell, batch, .) buffers. Only the matrix
    products stay one per cell, each over packed gates: the input projection
    ``x @ [W_u | W_r | W_c]``, one block of positions at a time (the same
    blocks for both cells), and the recurrent ``h @ [U_u | U_r]`` and
    ``(reset * h) @ U_c``. The op records one tape node, whose backward
    steps both cells back together, hands each named parameter its block of
    its cell's packed gradient, and adds into ``x`` and ``h0`` once per
    cell, first cell first. A step does ``gru_cell``'s arithmetic in
    ``gru_cell``'s order (up to swapping the two operands of a sum or
    product, and ``a - b`` for ``a + (-b)``, which leave every rounding the
    same), so the two agree bit for bit wherever BLAS returns the same
    matrix products.

    A pass that records keeps every step's gates and states for its
    backward, which recomputes each step's ``reset * h`` from them. A pass
    that records nothing keeps its outputs plus one block: it projects its
    input and keeps its gates and states one block of steps at a time.
    """
    if len(cells) not in (1, 2):
        raise ValueError(f"gru_sequence runs one cell or two, not {len(cells)}")
    batch, hidden = h0.data.shape
    length = mask.shape[1]
    if mask.shape[0] != batch or x.data.shape[0] != length * batch:
        raise ValueError(f"sequence of {x.data.shape[0]} rows does not match a "
                         f"{mask.shape} mask and {batch} initial states")
    for cell in cells:
        if x.data.shape[1] != cell.input_dim or cell.hidden != hidden:
            raise ValueError(f"a ({x.data.shape[1]} -> {hidden}) sequence does not fit a "
                             f"({cell.input_dim} -> {cell.hidden}) cell")
    parents = (x, h0) + tuple(p for cell in cells for trio in cell.gates() for p in trio)
    recording = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    shape = (batch, length, len(cells), hidden)
    out = np.empty(shape, dtype=np.result_type(x.data, *(p.data for p in cells[0].gates()[0])))
    bw = _run_cells(cells, x, h0, ~mask, out, recording)
    out *= mask[:, :, None, None]

    def _bw(g):
        nonlocal bw
        run, bw = bw, None  # frees the activations once it returns
        run(g.reshape(shape), mask)

    return _node(out.reshape(batch * length, len(cells) * hidden), parents, _bw)


_XW_BLOCK = 1 << 18  # elements of one block of a cell's input projection
_STEP_CHUNK = 1 << 14  # elements of one chunk of a GRU pass's step-major scratch


def _position_blocks(length: int, width: int) -> list[tuple[int, int]]:
    """Ranges ``(lo, hi)`` of whole positions that cover ``range(length)``,
    each of at most ``_XW_BLOCK`` elements when one position's ``width``
    fits."""
    return _even_ranges(length, max(1, _XW_BLOCK // max(1, width)))


def _even_ranges(length: int, per_block: int) -> list[tuple[int, int]]:
    """The fewest ranges ``(lo, hi)`` of at most ``per_block`` that cover
    ``range(length)``. They differ in size by at most one, so none is much
    smaller than the budget: BLAS may take another kernel, with other
    roundings, for a small product."""
    if length <= per_block:
        return [(0, length)]
    count = -(-length // per_block)
    size, extra = divmod(length, count)  # the first ``extra`` ranges take one more
    bounds = [k * size + min(k, extra) for k in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _mirror(a: np.ndarray, k: int) -> np.ndarray:
    """Cell ``k``'s view of a position-ordered array in its step order: the
    second cell walks the positions back to front."""
    return a[::-1] if k else a


def _positions(k: int, length: int, lo: int, hi: int) -> tuple[int, int]:
    """The positions, ``(first, last)`` in position order, at which cell
    ``k`` takes its steps ``lo`` to ``hi - 1``."""
    return (length - hi, length - lo) if k else (lo, hi)


def _run_cells(cells, x: Tensor, h0: Tensor, skip: np.ndarray, out: np.ndarray,
               recording: bool):
    """Step the cells together over the sequence, their states written to
    the (B, T, C, H) ``out``; returns, when ``recording``, the backward that
    takes the gradient of ``out`` and the (B, T) bool mask, and None
    otherwise.

    Step buffers are step-major, (step, cell, batch, .), so that a step of
    both cells is one contiguous block: the states, update | reset packed
    per cell and the candidate; the biases are repeated over the batch, and
    a step's ``reset * h`` goes to a one-step scratch. Each cell projects
    ``x @ W`` one block of positions at a time, the second cell taking the
    first's blocks last to first, and stages the block in step order in its
    gate buffers, which each step then turns into its gates. A pass that
    records keeps every step's states and gates; its backward recomputes
    every ``reset * h`` from them, the same multiply on the same values,
    before its steps overwrite the reset gates with their gradients. A pass
    that records nothing keeps one block of steps' gates, reused in turn,
    and its states one chunk of at most ``_STEP_CHUNK`` step elements at a
    time: it writes each chunk to ``out`` and carries the chunk's last state
    in row 0 to the next."""
    count = len(cells)
    batch, hidden = h0.data.shape
    length = skip.shape[1]
    split = 2 * hidden
    width = 3 * hidden
    dtype = out.dtype
    # where a cell carries a row's state through, by step, and the steps that have any
    skip_steps = np.zeros((length, count, batch, 1), dtype=bool) if skip.any() else None
    if skip_steps is None:
        skip_any = np.zeros(length, dtype=bool)
    else:
        for k in range(count):
            skip_steps[:, k, :, 0] = _mirror(skip.T, k)
        skip_any = skip_steps.reshape(length, -1).any(axis=1)
    per_chunk = max(1, _STEP_CHUNK // max(1, count * batch * hidden))

    def packed_w(k):  # W with its gates side by side: update | reset | cand
        return np.concatenate([p.data for p in cells[k].gates()[0]], axis=1)

    def packed_u_ur():  # per cell, U_ur = [U_u | U_r]
        return [np.concatenate((cell.u_update.data, cell.u_reset.data), axis=1)
                for cell in cells]

    u_ur = packed_u_ur()
    u_c = [cell.u_cand.data for cell in cells]
    # the biases repeated over the batch, so that a step adds them as plain arrays
    bias = np.concatenate([p.data for cell in cells for p in cell.gates()[2]])
    bias = bias.reshape(count, 1, width)
    b_ur = np.empty((count, batch, split), bias.dtype)
    b_ur[...] = bias[..., :split]
    b_c = np.empty((count, batch, hidden), bias.dtype)
    b_c[...] = bias[..., split:]
    blocks = _position_blocks(length, batch * width)
    widest = blocks[0][1]  # the first block is the largest
    # each cell's blocks of positions, in the order it takes them, and the
    # step at which it projects the next: the second cell takes the first's
    # blocks last to first
    pending = [iter(_mirror(blocks, k)) for k in range(count)]
    next_block = [0] * count
    xw = np.empty((widest, batch, width), dtype)  # a cell's block of the projection
    # each step's gates start as its projection, staged at the block's start:
    # step s is row s of a pass that records, and row s % widest of one that
    # does not, whose blocks overwrite only rows of steps already taken
    rows = length if recording else widest
    gates_ur = np.empty((rows, count, batch, split), dtype)  # update | reset
    gates_c = np.empty((rows, count, batch, hidden), dtype)  # cand
    reset_h = np.empty((count, batch, hidden), dtype)  # a step's reset * h
    through_ur = np.empty((count, batch, split), dtype)  # the recurrent products
    through_c = np.empty((count, batch, hidden), dtype)
    chunk = min(widest, per_chunk)
    states = np.empty(((length if recording else chunk) + 1, count, batch, hidden), dtype)
    states[0] = h0.data  # row 0 holds the state the next step starts from
    for lo, hi in _even_ranges(length, chunk):
        base = 0 if recording else lo  # step s reads row s - base, writes the next
        for s in range(lo, hi):
            for k in range(count):
                if s == next_block[k]:
                    a, b = next(pending[k])
                    next_block[k] = s + b - a
                    block = xw[:b - a]
                    np.matmul(x.data[a * batch:b * batch], packed_w(k),
                              out=block.reshape(-1, width))
                    block = _mirror(block, k)  # in the cell's step order, from step s
                    row = s % rows
                    for part in (block[:rows - row], block[rows - row:]):
                        if len(part):  # the rows up to the last, then from the first
                            gates_ur[row:row + len(part), k] = part[..., :split]
                            gates_c[row:row + len(part), k] = part[..., split:]
                        row = 0
            h = states[s - base]
            ur = gates_ur[s % rows]
            for k in range(count):
                np.matmul(h[k], u_ur[k], out=through_ur[k])
            ur += through_ur  # xw + h U rounds as h U + xw
            ur += b_ur
            _sigmoid(ur, out=ur, scratch=through_ur)
            rh = np.multiply(ur[..., hidden:], h, out=reset_h)
            cand = gates_c[s % rows]
            for k in range(count):
                np.matmul(rh[k], u_c[k], out=through_c[k])
            cand += through_c
            cand += b_c
            np.tanh(cand, out=cand)
            new = np.subtract(cand, h, out=states[s - base + 1])
            new *= ur[..., :hidden]
            new += h
            if skip_any[s]:
                np.copyto(new, h, where=skip_steps[s])
        done = states[lo - base + 1:hi - base + 1]
        for k in range(count):
            a, b = _positions(k, length, lo, hi)
            out[:, a:b, k] = _mirror(done[:, k], k).swapaxes(0, 1)
        if not recording and hi < length:
            states[0] = states[hi - lo]
    if not recording:
        return None

    def backward_cells(g, mask):
        # packed again, so that no recorded step holds a copy of the weights
        u_ur = packed_u_ur()
        to_params = [any(p.requires_grad for trio in cell.gates() for p in trio)
                     for cell in cells]
        # every step's reset * h, as the forward computed it, before the steps
        # below overwrite the reset gates
        rh_all = np.multiply(gates_ur[..., hidden:], states[:length]) if any(to_params) else None
        chunk = min(length, per_chunk)
        d_states = np.empty((chunk, count, batch, hidden), np.result_type(g, dtype))
        d_rh = np.empty((count, batch, hidden), np.result_type(dtype, *u_c))
        through_ur = np.empty((count, batch, hidden), np.result_type(dtype, *u_ur))
        zero = np.zeros((), dtype=d_states.dtype)
        dh = np.zeros((count, batch, hidden), dtype=d_states.dtype)
        for lo, hi in reversed(_even_ranges(length, per_chunk)):
            for k in range(count):  # the states' gradient through the mask, step-major
                first, last = _positions(k, length, lo, hi)
                np.multiply(_mirror(g[:, first:last, k].swapaxes(0, 1), k),
                            _mirror(mask[:, first:last].T, k)[..., None],
                            out=d_states[:hi - lo, k])
            update, reset = gates_ur[lo:hi, ..., :hidden], gates_ur[lo:hi, ..., hidden:]
            cand, prev = gates_c[lo:hi], states[lo:hi]
            # the chunk's local derivatives, which do not depend on the incoming gradient
            to_prev = 1.0 - update
            to_cand = update * (1.0 - cand * cand)
            to_update = (cand - prev) * update * to_prev
            to_reset = prev * reset * (1.0 - reset)
            reset = reset.copy()  # contiguous, and kept while the steps overwrite the gates
            # each step's gate gradients take its gates' place: update | reset, and cand
            for j in range(hi - lo - 1, -1, -1):
                s = lo + j
                dh += d_states[j]
                d_new = np.where(skip_steps[s], zero, dh) if skip_any[s] else dh
                d_cand = np.multiply(d_new, to_cand[j], out=gates_c[s])
                for k in range(count):
                    np.matmul(d_cand[k], u_c[k].T, out=d_rh[k])
                d_prev = d_new * to_prev[j]
                d_prev += d_rh * reset[j]
                d_ur = gates_ur[s]
                np.multiply(d_new, to_update[j], out=d_ur[..., :hidden])
                np.multiply(d_rh, to_reset[j], out=d_ur[..., hidden:])
                for k in range(count):
                    np.matmul(d_ur[k], u_ur[k].T, out=through_ur[k])
                d_prev += through_ur
                if skip_any[s]:
                    np.copyto(dh, d_prev, where=~skip_steps[s])
                else:
                    dh = d_prev
        for k in range(count):
            _accum(h0, dh[k])
        d_pre = np.empty((length, batch, width), dtype)
        for k, cell in enumerate(cells):
            # the cell's gate gradients in position order, as one (T*B, 3H) matrix
            d_pre[..., :split] = _mirror(gates_ur[:, k], k)
            d_pre[..., split:] = _mirror(gates_c[:, k], k)
            d_flat = d_pre.reshape(length * batch, width)
            if x.requires_grad:
                _accum(x, d_flat @ packed_w(k).T, owned=True)
            if not to_params[k]:
                continue
            # the state each position started from, and its reset * h, in position order
            prev = _mirror(states[:length, k], k).reshape(length * batch, hidden)
            rh = _mirror(rh_all[:, k], k).reshape(length * batch, hidden)
            grads = (x.data.T @ d_flat,
                     np.concatenate([prev.T @ d_flat[:, :split], rh.T @ d_flat[:, split:]],
                                    axis=1),
                     d_flat.sum(axis=0))
            # each gate its block: update | reset | cand
            for trio, grad in zip(cell.gates(), grads):
                for i, p in enumerate(trio):
                    _accum(p, grad[..., i * hidden:(i + 1) * hidden])

    return backward_cells


# ---------------------------------------------------------------------------
# optimization

_ADAM_CHUNK = 1 << 15  # elements per pass of the norm or the update, so a chunk stays in cache
_GRAD_BLOCK = 1 << 21  # elements of one column block of a weight gradient kept as factors


def zero_grads(params) -> None:
    """Drop the gradients; each reads as zero until an op hands it one."""
    for p in params:
        p.grad = None


def global_grad_norm(params) -> float:
    """L2 norm of all the gradients together; a None grad counts as zero.

    Each gradient's sum of squares is ``float((g * g).sum())`` bit for bit,
    taken by ``_square_sum`` over the elements in memory order (the order
    in which numpy sums ``g * g``) through one chunk-sized buffer, so no
    gradient-sized square is made. A gradient kept as factors is built one
    column block at a time into one reused buffer, and its blocks' sums are
    added in column order; when one block covers it, that is the same sum
    as of the whole product."""
    total = 0.0
    buffers: dict[np.dtype, np.ndarray] = {}
    blocks: dict[np.dtype, np.ndarray] = {}
    for p in params:
        grad = p._grad
        if grad is None:
            continue
        if type(grad) is _Product:
            pieces = (block for _, _, block in grad.column_blocks(blocks))
        else:
            pieces = (grad,)
        for piece in pieces:
            buf = buffers.get(piece.dtype)
            if buf is None:
                buf = buffers[piece.dtype] = np.empty(_ADAM_CHUNK, piece.dtype)
            total += float(_square_sum(piece.ravel(order="K"), buf))
    return math.sqrt(total)


def _square_sum(flat: np.ndarray, buf: np.ndarray):
    """The sum of squares of the 1-D ``flat``, in its dtype. A range longer
    than ``_ADAM_CHUNK`` is split where numpy's pairwise sum splits it (at
    half its length, less that half's remainder mod 8); a shorter one is
    squared into ``buf`` and summed by numpy through the same subtree. Every
    split range is longer than numpy's 128-element block, below which numpy
    stops splitting, so the splits fall where numpy's do."""
    n = flat.size
    if n <= _ADAM_CHUNK:
        return np.multiply(flat, flat, out=buf[:n]).sum()
    half = n // 2
    half -= half % 8
    return _square_sum(flat[:half], buf) + _square_sum(flat[half:], buf)


def clip_global_norm(norm: float, threshold: float) -> float:
    """The scale that brings gradients whose global L2 norm is ``norm`` (from
    ``global_grad_norm``) to at most ``threshold``: 1.0 when it already is.
    ``Adam.step`` applies the scale as it reads the grads. The tiny slack in
    the trigger makes the scale of already-scaled gradients 1.0.
    """
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    if norm <= threshold * (1.0 + 1e-12):
        return 1.0
    return threshold / norm


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam (betas 0.9 and 0.999, eps 1e-8) over a fixed
    parameter list; frozen entries are skipped."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("Adam needs at least one parameter")
        self.lr = lr
        self.t = 0
        self._m = {p.name: np.zeros(p.data.shape, p.data.dtype) for p in self.params}
        self._v = {p.name: np.zeros(p.data.shape, p.data.dtype) for p in self.params}
        self._scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}
        self._blocks: dict[np.dtype, np.ndarray] = {}  # a factored gradient's column block

    def step(self, scale: float) -> float:
        """One update with every gradient times ``scale`` (the clip's); a
        None grad steps as zeros. Returns the scaled gradients' L2 norm.

        A gradient kept as factors is built one column block at a time, and
        each block updates its columns of the parameter and the moments.
        Where a factor shares memory with a parameter that this step
        writes, that gradient is formed whole before anything moves."""
        self.t += 1
        bc1 = 1.0 - _ADAM_BETA1 ** self.t
        bc2 = 1.0 - _ADAM_BETA2 ** self.t
        trained = [p for p in self.params if p.requires_grad]
        for p in trained:
            grad = p._grad
            if type(grad) is _Product and any(np.may_share_memory(f, q.data)
                                              for f in (grad.x, grad.g) for q in trained):
                p._grad = grad.dense()
        total = 0.0
        for p in trained:
            arrays = (p.data, self._m[p.name], self._v[p.name])
            grad = p._grad
            if type(grad) is _Product:
                for lo, hi, block in grad.column_blocks(self._blocks):
                    total = self._update_rows(total, *(x[:, lo:hi] for x in arrays), block,
                                              scale, bc1, bc2)
            else:
                grad = np.zeros((), p.data.dtype) if grad is None else grad
                total = self._update_rows(total, *arrays, grad, scale, bc1, bc2)
        return math.sqrt(total)

    def _update_rows(self, total: float, data, m, v, grad, scale: float, bc1: float,
                     bc2: float) -> float:
        """``_update`` over chunks of whole rows of ``data``, each chunk's
        squared norm added to ``total`` in turn; returns the new total."""
        arrays = [np.atleast_1d(x) for x in (data, m, v, np.broadcast_to(grad, data.shape))]
        rows = max(1, _ADAM_CHUNK // max(1, math.prod(arrays[0].shape[1:])))
        for lo in range(0, arrays[0].shape[0], rows):
            total += self._update(*(x[lo:lo + rows] for x in arrays), scale, bc1, bc2)
        return total

    def _update(self, data, m, v, g, scale: float, bc1: float, bc2: float) -> float:
        """With g' = g * scale: m = b1 m + (1-b1) g';  v = b2 v + (1-b2) g'*g';
        data -= lr (m/bc1) / (sqrt(v/bc2) + eps), op for op as written,
        through two reused scratch buffers instead of fresh temporaries.
        Returns the sum of g'*g', the chunk's share of the squared norm."""
        a, b = self._buffers(data)
        np.multiply(g, scale, out=b)
        m *= _ADAM_BETA1
        np.multiply(1.0 - _ADAM_BETA1, b, out=a)
        m += a
        v *= _ADAM_BETA2
        np.multiply(b, b, out=a)
        square_sum = float(a.sum())
        np.multiply(1.0 - _ADAM_BETA2, a, out=a)
        v += a
        np.divide(m, bc1, out=a)
        np.multiply(self.lr, a, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        np.add(b, _ADAM_EPS, out=b)
        np.divide(a, b, out=a)
        data -= a
        return square_sum

    def _buffers(self, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pair = self._scratch.get(like.dtype)
        if pair is None or pair[0].size < like.size:
            pair = (np.empty(like.size, like.dtype), np.empty(like.size, like.dtype))
            self._scratch[like.dtype] = pair
        return tuple(buf[:like.size].reshape(like.shape) for buf in pair)
