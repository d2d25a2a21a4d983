"""Reverse-mode automatic differentiation over dense numpy arrays.

Every operation records its inputs and a backward closure on the output
node; ``backward`` replays the recorded tape in reverse topological order.
Models keep every tensor 2-D (batch-first) or scalar, and all values are
required to stay finite. A tensor keeps the float32 or float64 dtype of its
data; a model's ``ParamStore`` fixes the dtype of its parameters, and every
op result follows the dtype of its operands.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

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


def _check_finite(arr: np.ndarray) -> None:
    # A NaN or Inf element makes the sum non-finite, so one reduction clears
    # almost every array; a sum that overflows on finite data falls through
    # to the exact elementwise check.
    if np.isfinite(arr.sum()):
        return
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("operation produced a non-finite value")


class Tensor:
    """Dense array node. Leaf tensors are constants unless requires_grad."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_owns_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        _check_finite(arr)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._owns_grad = False  # True once ``grad`` is an array no one else holds

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else add_const(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else mul_const(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


class Parameter(Tensor):
    """Named trainable leaf. Frozen parameters keep an all-zero gradient."""

    __slots__ = ("name", "trainable")

    def __init__(self, name: str, data, trainable: bool = True):
        super().__init__(data, requires_grad=trainable)
        self.name = name
        self.trainable = bool(trainable)
        _own_zero_grad(self)

    def set_trainable(self, trainable: bool) -> None:
        self.trainable = bool(trainable)
        self.requires_grad = self.trainable
        if not self.trainable:
            _own_zero_grad(self)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape}, trainable={self.trainable})"


class ParamStore:
    """Ordered registry of uniquely named parameters, all of one dtype."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        if self.dtype not in _FLOAT_DTYPES:
            raise ValueError(f"unsupported dtype {dtype!r}; use float32 or float64")
        self._params: dict[str, Parameter] = {}

    def create(self, name: str, data, trainable: bool = True) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Parameter(name, np.asarray(data, dtype=self.dtype), trainable=trainable)
        self._params[name] = p
        return p

    def all(self) -> list[Parameter]:
        return list(self._params.values())

    def names(self) -> list[str]:
        return list(self._params.keys())

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ValueError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, p in self._params.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name!r}: {arr.shape} vs {p.data.shape}")
            p.data = arr.astype(p.data.dtype, copy=True)
            _own_zero_grad(p)


def _own_zero_grad(t: Tensor) -> None:
    # np.zeros, unlike zeros_like, leaves a large array's pages untouched
    # until something writes them, so a grad nothing reads costs no memory
    t.grad = np.zeros(t.data.shape, t.data.dtype)
    t._owns_grad = True


def _node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    _check_finite(data)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
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


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad`` without writing any array someone else holds.

    The first gradient is kept by reference (it may be another node's grad
    or a read-only broadcast view), the second sum is a fresh array that
    ``t`` owns, and later ones add into it in place. Parameters own their
    zeroed grad from the start. A gradient of another dtype takes the
    allocating path, so type promotion, the order of the adds and every
    value are the same as summing with ``+``.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
        t._owns_grad = False
    elif t._owns_grad and t.grad.dtype == g.dtype:
        t.grad += g
    else:
        t.grad = t.grad + g
        # a plain leaf's grad goes back to its caller, who may keep it
        t._owns_grad = t._backward is not None or isinstance(t, Parameter)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Populate gradients of everything the scalar ``loss`` depends on."""
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
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            # its parents may hold the grad by reference from here on
            node._owns_grad = False


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def _bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), _bw)


def add_const(a: Tensor, c) -> Tensor:
    data = a.data + c

    def _bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))

    return _node(data, (a,), _bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def _bw(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return _node(data, (a, b), _bw)


def neg(a: Tensor) -> Tensor:
    def _bw(g):
        _accum(a, -g)

    return _node(-a.data, (a,), _bw)


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
    if not tensors:
        raise ValueError("concat of empty list")
    parts = tuple(tensors)
    sizes = [t.data.shape[axis] for t in parts]
    data = np.concatenate([t.data for t in parts], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def _bw(g):
        for t, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            piece = g[lo:hi] if axis == 0 else g[:, lo:hi]
            _accum(t, piece)

    return _node(data, parts, _bw)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so no
    exp overflows. ``out`` may be ``x`` itself."""
    e = np.exp(np.copysign(x, -1.0))  # exp(-|x|)
    return np.divide(np.where(x < 0, e, 1.0), 1.0 + e, out=out)


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)

    def _bw(g):
        _accum(a, g * y * (1.0 - y))

    return _node(y, (a,), _bw)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def _bw(g):
        _accum(a, g * (1.0 - y * y))

    return _node(y, (a,), _bw)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def _bw(g):
        _accum(a, g / a.data)

    return _node(data, (a,), _bw)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def _bw(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, y * (g - inner))

    return _node(y, (a,), _bw)


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse

    def _bw(g):
        _accum(a, g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return _node(y, (a,), _bw)


def masked_softmax(a: Tensor, mask: np.ndarray) -> Tensor:
    """Softmax over positions where ``mask`` is 1; masked entries get 0 mass.

    ``mask`` is a constant {0,1} array broadcastable to ``a``. A fully
    masked row is an error (the distribution would be undefined).
    """
    keep = mask > 0.5
    if not np.all(keep.any(axis=-1)):
        raise ValueError("masked_softmax: a row is fully masked")
    neg_inf = np.where(keep, 0.0, -np.inf).astype(a.data.dtype, copy=False)
    shifted = a.data + neg_inf
    shifted = shifted - shifted.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def _bw(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(a, y * (g - inner))

    return _node(y, (a,), _bw)


def gather_rows(table: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup (embedding gather). Gradients scatter-add back."""
    idx = np.asarray(indices, dtype=np.int64)
    data = table.data[idx]

    def _bw(g):
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, idx, g)
            _accum(table, buf)

    return _node(data, (table,), _bw)


def take_per_row(a: Tensor, indices: np.ndarray) -> Tensor:
    """Pick one column per row: out[i, 0] = a[i, indices[i]]."""
    idx = np.asarray(indices, dtype=np.int64)
    rows = np.arange(a.data.shape[0])
    data = a.data[rows, idx][:, None]

    def _bw(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, (rows, idx), g[:, 0])
        _accum(a, buf)

    return _node(data, (a,), _bw)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    data = a.data[:, start:stop]

    def _bw(g):
        buf = np.zeros_like(a.data)
        buf[:, start:stop] = g
        _accum(a, buf)

    return _node(data, (a,), _bw)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    data = a.data.reshape(shape)

    def _bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _node(data, (a,), _bw)


def repeat_rows(a: Tensor, times: int) -> Tensor:
    """Repeat each row ``times`` times: (B, M) -> (B*times, M)."""
    data = np.repeat(a.data, times, axis=0)

    def _bw(g):
        _accum(a, g.reshape(a.data.shape[0], times, -1).sum(axis=1))

    return _node(data, (a,), _bw)


def sum_groups(a: Tensor, group: int) -> Tensor:
    """Sum blocks of ``group`` consecutive rows: (B*group, M) -> (B, M)."""
    rows, cols = a.data.shape
    data = a.data.reshape(rows // group, group, cols).sum(axis=1)

    def _bw(g):
        _accum(a, np.repeat(g, group, axis=0))

    return _node(data, (a,), _bw)


def regroup_rows(a: Tensor, outer: int, inner: int) -> Tensor:
    """Reorder rows from outer-major to inner-major blocks.

    Row ``o*inner + i`` of the input becomes row ``i*outer + o``.
    """
    cols = a.data.shape[1]
    data = a.data.reshape(outer, inner, cols).transpose(1, 0, 2).reshape(inner * outer, cols)

    def _bw(g):
        _accum(a, g.reshape(inner, outer, cols).transpose(1, 0, 2).reshape(outer * inner, cols))

    return _node(data, (a,), _bw)


def tensor_sum(a: Tensor) -> Tensor:
    data = np.asarray(a.data.sum())

    def _bw(g):
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _node(data, (a,), _bw)


def sum_last(a: Tensor) -> Tensor:
    """Sum along the last axis, keeping the axis: (B, M) -> (B, 1)."""
    data = a.data.sum(axis=-1, keepdims=True)

    def _bw(g):
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _node(data, (a,), _bw)


def mean(a: Tensor) -> Tensor:
    return mul_const(tensor_sum(a), 1.0 / a.data.size)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when ``rng`` is None (eval) or rate is 0."""
    if rng is None or rate <= 0.0:
        return a
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    keep = 1.0 - rate
    mask = (rng.random(a.data.shape) < keep).astype(a.data.dtype) / keep
    return mul_const(a, mask)


def masked_sum_positions(flat: Tensor, mask: np.ndarray, length: int) -> Tensor:
    """Sum over positions of a row-major (B*length, M) layout: -> (B, M)."""
    col = mask.reshape(-1, 1).astype(flat.data.dtype)
    return sum_groups(mul_const(flat, col), length)


def masked_mean_positions(flat: Tensor, mask: np.ndarray, length: int) -> Tensor:
    counts = mask.sum(axis=1)
    if np.any(counts <= 0):
        raise ValueError("masked mean over an empty sequence")
    total = masked_sum_positions(flat, mask, length)
    return mul_const(total, (1.0 / counts)[:, None])


# ---------------------------------------------------------------------------
# GRU: the named cell parameters, the fused sequence op that runs them, and
# the per-step composite ``gru_cell`` that the tests hold it against


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

    def all(self) -> list[Parameter]:
        return [
            self.w_update, self.u_update, self.b_update,
            self.w_reset, self.u_reset, self.b_reset,
            self.w_cand, self.u_cand, self.b_cand,
        ]

    def pack(self) -> "PackedGRU":
        """The gate blocks side by side for ``gru_sequence``. The joins are
        tape concats, so gradients reach the named parameters; pack once
        per sequence or decode loop, not once per step."""
        return PackedGRU(
            w=concat([self.w_update, self.w_reset, self.w_cand], axis=1),
            u=concat([self.u_update, self.u_reset, self.u_cand], axis=1),
            b=concat([self.b_update, self.b_reset, self.b_cand], axis=0),
        )


@dataclass
class PackedGRU:
    """One cell's weights, gate blocks in the order update | reset | cand."""

    w: Tensor  # (D, 3H)
    u: Tensor  # (H, 3H)
    b: Tensor  # (3H,)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


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
        return store.create(f"{prefix}.{name}", np.zeros(hidden))

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
    return add(h_prev, mul(update, sub(cand, h_prev)))


def gru_sequence(x: Tensor, h0: Tensor, packed: PackedGRU, mask: np.ndarray,
                 reverse: bool = False) -> Tensor:
    """Run a GRU over a position-major (T*B, D) sequence from the (B, H)
    state ``h0``; returns the (T*B, H) state after each position.

    Where the (B, T) ``mask`` is 0 the state is carried through bit for
    bit. ``reverse`` runs from the last position to the first. The input
    projections of all positions are one matmul; the recurrence runs in
    numpy and records a single tape node, whose backward runs
    backpropagation through time and hands ``x`` its gradient in one array.
    A step does ``gru_cell``'s arithmetic in ``gru_cell``'s order (up to
    swapping the two operands of a sum or product, which leaves every
    rounding the same), so the two agree bit for bit wherever BLAS returns
    the same matrix products.
    """
    batch, hidden = h0.data.shape
    length = mask.shape[1]
    if mask.shape[0] != batch or x.data.shape[0] != length * batch:
        raise ValueError(f"sequence of {x.data.shape[0]} rows does not match a "
                         f"{mask.shape} mask and {batch} initial states")
    if x.data.shape[1] != packed.w.data.shape[0]:
        raise ValueError(f"input dim {x.data.shape[1]} != cell dim {packed.w.data.shape[0]}")
    skip = mask <= 0.5              # positions that carry the state through
    skip_any = skip.any(axis=0)
    split = 2 * hidden
    w = packed.w.data
    u_ur = np.ascontiguousarray(packed.u.data[:, :split])
    u_c = np.ascontiguousarray(packed.u.data[:, split:])
    b_ur, b_c = packed.b.data[:split], packed.b.data[split:]
    xw = x.data @ w
    rows_total = length * batch
    states = np.empty((rows_total, hidden), dtype=xw.dtype)
    gates_ur = np.empty((rows_total, split), dtype=xw.dtype)  # update | reset
    gates_c = np.empty_like(states)                           # cand
    reset_prev = np.empty_like(states)  # reset * h, the candidate's recurrent input
    order = range(length - 1, -1, -1) if reverse else range(length)
    h = h0.data
    for t in order:
        rows = slice(t * batch, (t + 1) * batch)
        ur = np.matmul(h, u_ur, out=gates_ur[rows])
        ur += xw[rows, :split]
        ur += b_ur
        _sigmoid(ur, out=ur)
        update = ur[:, :hidden]
        rh = np.multiply(ur[:, hidden:], h, out=reset_prev[rows])
        cand = np.matmul(rh, u_c, out=gates_c[rows])
        cand += xw[rows, split:]
        cand += b_c
        np.tanh(cand, out=cand)
        new = np.subtract(cand, h, out=states[rows])
        new *= update
        new += h
        if skip_any[t]:
            np.copyto(new, h, where=skip[:, t:t + 1])
        h = new

    def _bw(g):
        prev = np.empty_like(states)  # the state each step started from
        if reverse:
            prev[:-batch], prev[-batch:] = states[batch:], h0.data
        else:
            prev[batch:], prev[:batch] = states[:-batch], h0.data
        update, reset = gates_ur[:, :hidden], gates_ur[:, hidden:]
        # the local derivatives, which do not depend on the incoming gradient
        to_cand = update * (1.0 - gates_c * gates_c)
        to_update = (gates_c - prev) * update * (1.0 - update)
        to_reset = prev * reset * (1.0 - reset)
        to_prev = 1.0 - update
        d_ur_all = np.empty_like(gates_ur)  # gradients of the gate pre-activations
        d_c_all = np.empty_like(gates_c)
        zero = np.zeros((), dtype=g.dtype)
        dh = np.zeros((batch, hidden), dtype=g.dtype)
        for t in reversed(order):
            rows = slice(t * batch, (t + 1) * batch)
            dh += g[rows]
            d_new = np.where(skip[:, t:t + 1], zero, dh) if skip_any[t] else dh
            d_cand = np.multiply(d_new, to_cand[rows], out=d_c_all[rows])
            d_rh = d_cand @ u_c.T
            d_ur = d_ur_all[rows]
            np.multiply(d_new, to_update[rows], out=d_ur[:, :hidden])
            np.multiply(d_rh, to_reset[rows], out=d_ur[:, hidden:])
            d_prev = d_new * to_prev[rows]
            d_prev += d_rh * reset[rows]
            d_prev += d_ur @ u_ur.T
            if skip_any[t]:
                np.copyto(dh, d_prev, where=~skip[:, t:t + 1])
            else:
                dh = d_prev
        _accum(h0, dh)
        d_pre = np.concatenate([d_ur_all, d_c_all], axis=1)
        if x.requires_grad:
            _accum(x, d_pre @ w.T)
        if packed.w.requires_grad:
            _accum(packed.w, x.data.T @ d_pre)
        if packed.u.requires_grad:
            _accum(packed.u, np.concatenate([prev.T @ d_ur_all, reset_prev.T @ d_c_all],
                                            axis=1))
        _accum(packed.b, d_pre.sum(axis=0))

    return _node(states, (x, h0, packed.w, packed.u, packed.b), _bw)


# ---------------------------------------------------------------------------
# optimization


def zero_grads(params) -> None:
    for p in params:
        _own_zero_grad(p)


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    return math.sqrt(total)


def clip_global_norm(params, threshold: float = 10.0) -> float:
    """Jointly rescale gradients so their global L2 norm is <= threshold.

    Returns the scale that was applied (1.0 when no clipping happened).
    The tiny slack in the trigger makes a second application a no-op.
    """
    if threshold <= 0:
        raise ValueError("clip threshold must be positive")
    params = list(params)
    norm = global_grad_norm(params)
    if norm <= threshold * (1.0 + 1e-12):
        return 1.0
    scale = threshold / norm
    for p in params:
        p.grad *= scale
    return scale


_ADAM_CHUNK = 1 << 15  # elements per update pass, so one chunk's arrays stay in cache
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam (betas 0.9 and 0.999, eps 1e-8) over a fixed
    parameter list; frozen entries are skipped."""

    def __init__(self, params, lr: float = 0.005):
        self.params = list(params)
        if not self.params:
            raise ValueError("Adam needs at least one parameter")
        self.lr = lr
        self.t = 0
        self._m = {p.name: np.zeros(p.data.shape, p.data.dtype) for p in self.params}
        self._v = {p.name: np.zeros(p.data.shape, p.data.dtype) for p in self.params}
        self._scratch: dict[np.dtype, tuple[np.ndarray, np.ndarray]] = {}

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - _ADAM_BETA1 ** self.t
        bc2 = 1.0 - _ADAM_BETA2 ** self.t
        for p in self.params:
            if not p.trainable:
                continue
            arrays = [np.atleast_1d(x) for x in (p.data, self._m[p.name],
                                                 self._v[p.name], p.grad)]
            rows = max(1, _ADAM_CHUNK // max(1, math.prod(arrays[0].shape[1:])))
            for lo in range(0, arrays[0].shape[0], rows):
                self._update(*(x[lo:lo + rows] for x in arrays), bc1, bc2)

    def _update(self, data, m, v, g, bc1: float, bc2: float) -> None:
        """m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g*g;
        data -= lr (m/bc1) / (sqrt(v/bc2) + eps), op for op as written,
        through two reused scratch buffers instead of fresh temporaries."""
        a, b = self._buffers(data)
        m *= _ADAM_BETA1
        np.multiply(1.0 - _ADAM_BETA1, g, out=a)
        m += a
        v *= _ADAM_BETA2
        np.multiply(g, g, out=a)
        np.multiply(1.0 - _ADAM_BETA2, a, out=a)
        v += a
        np.divide(m, bc1, out=a)
        np.multiply(self.lr, a, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        np.add(b, _ADAM_EPS, out=b)
        np.divide(a, b, out=a)
        data -= a

    def _buffers(self, like: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pair = self._scratch.get(like.dtype)
        if pair is None or pair[0].size < like.size:
            pair = (np.empty(like.size, like.dtype), np.empty(like.size, like.dtype))
            self._scratch[like.dtype] = pair
        return tuple(buf[:like.size].reshape(like.shape) for buf in pair)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    tolerance: float
    step: float
    per_param: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_param.values()) if self.per_param else 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance

    def summary(self) -> str:
        lines = [f"{'parameter':<40} {'max rel err':>12}"]
        for name, err in sorted(self.per_param.items(), key=lambda kv: -kv[1]):
            lines.append(f"{name:<40} {err:>12.3e}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"overall max {self.max_rel_error:.3e} vs tol {self.tolerance:.1e}: {verdict}")
        return "\n".join(lines)


_REL_FLOOR = 1e-4  # below this magnitude the comparison is effectively absolute


def check_gradients(params, loss_fn, *, step: float = 1e-5, tolerance: float = 1e-4,
                    max_elements_per_param: int | None = None,
                    rng: np.random.Generator | None = None) -> GradCheckReport:
    """Compare analytic gradients of ``loss_fn()`` against central differences.

    ``loss_fn`` must rebuild the forward pass from the current parameter
    values on every call and must be deterministic (no dropout). With
    ``max_elements_per_param`` set, a seeded subset of coordinates per
    parameter is probed instead of the full sweep.
    """
    params = list(params)
    zero_grads(params)
    loss = loss_fn()
    backward(loss)
    analytic = {p.name: np.array(p.grad, copy=True) for p in params}

    report = GradCheckReport(tolerance=tolerance, step=step)
    with no_grad():
        for p in params:
            flat = p.data.reshape(-1)
            n = flat.shape[0]
            if max_elements_per_param is not None and n > max_elements_per_param:
                picker = rng or np.random.default_rng(0)
                coords = picker.choice(n, size=max_elements_per_param, replace=False)
            else:
                coords = range(n)
            a_flat = analytic[p.name].reshape(-1)
            worst = 0.0
            for i in coords:
                orig = flat[i]
                flat[i] = orig + step
                up = float(loss_fn().data)
                flat[i] = orig - step
                down = float(loss_fn().data)
                flat[i] = orig
                numeric = (up - down) / (2.0 * step)
                a = a_flat[i]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
                if rel > worst:
                    worst = rel
            report.per_param[p.name] = worst
    zero_grads(params)
    return report
