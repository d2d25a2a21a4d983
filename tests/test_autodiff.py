import ast
import inspect
import math
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmatch import autodiff as ad
from genmatch.autodiff import (
    Adam,
    ParamStore,
    Tensor,
    backward,
    clip_global_norm,
    concat,
    gather_rows,
    global_grad_norm,
    gru_cell,
    init_gru_cell,
    masked_softmax,
    matmul,
    mul,
    no_grad,
    sigmoid,
    tensor_sum,
    zero_grads,
)

import helpers
from helpers import (
    check_gradients,
    composite_bigru,
    pack,
    packed_gru_sequence,
    reachable_op_nodes,
    regroup_rows,
    repeat_rows,
    slice_cols,
    sum_groups,
    phase_peaks,
    sum_last,
    traced_held,
    traced_peak,
)


def rand(rng, *shape):
    return rng.standard_normal(shape)


def softmax(a):
    """``masked_softmax`` with nothing masked: the softmax along the last axis."""
    return masked_softmax(a, np.ones(a.data.shape, dtype=bool))


# ---------------------------------------------------------------------------
# primitive forward values


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rand(rng, 3, 3)
    out = matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_softmax_uniform():
    out = softmax(Tensor([[0.0, 0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[0.25, 0.25, 0.25, 0.25]])


def test_softmax_analytic():
    out = softmax(Tensor([[math.log(2.0), 0.0]]))
    np.testing.assert_allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=12))
def test_softmax_rows_sum_to_one_even_for_large_magnitudes(values):
    out = softmax(Tensor([values]))
    assert abs(out.data.sum() - 1.0) <= 1e-6
    assert np.all(out.data >= 0)


def test_masked_softmax_zero_mass_on_masked_positions():
    mask = np.array([[True, False, True]])
    out = masked_softmax(Tensor([[5.0, 100.0, 5.0]]), mask)
    np.testing.assert_allclose(out.data, [[0.5, 0.0, 0.5]])


def test_masked_softmax_rejects_fully_masked_row():
    with pytest.raises(ValueError):
        masked_softmax(Tensor([[1.0, 2.0]]), np.array([[False, False]]))


def test_shape_mismatch_raises():
    with pytest.raises(ValueError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_non_finite_result_raises():
    with pytest.raises(ad.NonFiniteError):
        ad.log(Tensor([[0.0]]))


@pytest.mark.parametrize("op", ["matmul", "add"])
def test_a_non_finite_error_names_the_op_that_produced_it(op):
    huge = Tensor([[1e308]])
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError) as excinfo:
        getattr(ad, op)(huge, huge)
    assert str(excinfo.value) == f"non-finite value from {op}"


@pytest.mark.parametrize("values", [[1e308, 1e308], np.array([3e38, 3e38], dtype=np.float32)])
def test_finite_values_whose_sum_overflows_pass_the_guard(values):
    with np.errstate(over="ignore"):
        out = Tensor(values)
    assert np.all(np.isfinite(out.data))


def one_nan_in_100k():
    arr = np.zeros(100_000)
    arr[61_234] = np.nan
    return arr


@pytest.mark.parametrize("values", [[np.inf, -np.inf], [1.0, -np.inf, 2.0], one_nan_in_100k()],
                         ids=["inf_minus_inf", "lone_neg_inf", "one_nan_in_100k"])
def test_guard_catches_every_non_finite_value(values):
    with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError):
        Tensor(values)


# ---------------------------------------------------------------------------
# backward correctness


def test_backward_linear_case_outer_product():
    rng = np.random.default_rng(1)
    store = ParamStore()
    w = store.create("w", rand(rng, 3, 4))
    x = Tensor(rand(rng, 4, 2))
    loss = tensor_sum(matmul(w, x))
    backward(loss)
    # d sum(Wx) / dW = ones @ x^T, an outer-product structure
    expected = np.ones((3, 2)) @ x.data.T
    np.testing.assert_allclose(w.grad, expected, atol=1e-12)


def test_disconnected_parameter_gets_zero_gradient():
    store = ParamStore()
    used = store.create("used", np.ones((2, 2)))
    unused = store.create("unused", np.ones((2, 2)))
    loss = tensor_sum(used)
    backward(loss)
    assert unused.grad is None
    # the norm reads the missing grad as zero
    assert global_grad_norm([used, unused]) == global_grad_norm([used]) == 2.0


def test_frozen_parameter_gets_zero_gradient_but_passes_values():
    store = ParamStore()
    frozen = store.create("frozen", np.full((2, 2), 2.0), trainable=False)
    live = store.create("live", np.ones((2, 2)))
    loss = tensor_sum(mul(frozen, live))
    backward(loss)
    assert frozen.grad is None
    np.testing.assert_allclose(live.grad, np.full((2, 2), 2.0))
    assert global_grad_norm([frozen, live]) == global_grad_norm([live]) == 4.0


def test_backward_rejects_non_scalar_and_disconnected_loss():
    with pytest.raises(ValueError):
        backward(Tensor(np.zeros((2, 2)), requires_grad=True))
    with pytest.raises(ValueError):
        backward(Tensor(0.0))  # constant, nothing recorded


def test_no_grad_suppresses_recording():
    store = ParamStore()
    w = store.create("w", np.ones((2, 2)))
    with no_grad():
        loss = tensor_sum(w)
    assert not loss.requires_grad


# One central-difference case per tape op, the engine's and those of the
# reference composites in tests/helpers.py. Each builds its output from the
# (4, 6) leaves ``a`` and ``b`` and the (6, 3) leaf ``w``.
MASK = np.array([[1, 1, 0, 1, 0, 1]] * 4, dtype=bool)
IDX = np.array([0, 2, 1, 3])
GRADIENT_CASES = {
    "add": lambda a, b, w: ad.add(a, b),
    "mul": lambda a, b, w: ad.mul(a, b),
    "mul_const": lambda a, b, w: ad.mul_const(a, np.arange(1.0, 5.0)[:, None]),
    "matmul": lambda a, b, w: ad.matmul(a, w),
    # the bias: sums of w's row pairs; repeated ids
    "affine_softmax_nll": lambda a, b, w: ad.affine_softmax_nll(
        a, w, ad.reshape(sum_groups(ad.reshape(w, (18, 1)), 6), (3,)), np.array([2, 0, 2, 1])),
    "concat_cols": lambda a, b, w: ad.concat([a, b], axis=1),
    "concat_rows": lambda a, b, w: ad.concat([a, b], axis=0),
    "sigmoid": lambda a, b, w: ad.sigmoid(a),
    "tanh": lambda a, b, w: ad.tanh(a),
    "log": lambda a, b, w: ad.log(ad.sigmoid(a)),
    "softmax_nll": lambda a, b, w: ad.softmax_nll(a, np.array([4, 1, 4, 4])),  # repeated ids
    "masked_softmax": lambda a, b, w: ad.masked_softmax(a, MASK),
    "gather": lambda a, b, w: ad.gather_rows(a, np.array([1, 0, 3, 1, 2])),
    "slice_cols": lambda a, b, w: slice_cols(a, 2, 5),
    "reshape": lambda a, b, w: ad.reshape(a, (2, 12)),
    "repeat_rows": lambda a, b, w: repeat_rows(a, 3),
    "sum_groups": lambda a, b, w: sum_groups(a, 2),
    "regroup_rows": lambda a, b, w: regroup_rows(a, 2, 2),
    "tensor_sum": lambda a, b, w: ad.mul(ad.tensor_sum(a), ad.tensor_sum(ad.tanh(b))),
    "sum_last": lambda a, b, w: sum_last(ad.mul(a, b)),
    "mean": lambda a, b, w: ad.mul(ad.mean(a), ad.mean(ad.tanh(b))),
    "dropout": lambda a, b, w: ad.dropout(a, 0.5, np.random.default_rng(3)),
    # keys of 2 and 4 positions; w serves as W_q, and row-group sums of w*w
    # and of w as bias and v
    "attention_weights": lambda a, b, w: ad.attention_weights(
        a, [(ad.reshape(b, (8, 3)), MASK[:, :2]),
            (ad.reshape(ad.concat([a, b], axis=0), (16, 3)), MASK[:, 2:])],
        w, ad.reshape(sum_groups(ad.reshape(ad.mul(w, w), (18, 1)), 6), (3,)),
        sum_groups(ad.reshape(w, (18, 1)), 6)),
    "weighted_sum": lambda a, b, w: ad.weighted_sum(
        a, [ad.reshape(b, (12, 2)), ad.reshape(ad.mul(a, b), (12, 2))]),
}
# the op a case checks, where the case is not named after it
CASE_OPS = {"concat_cols": "concat", "concat_rows": "concat", "gather": "gather_rows"}


@pytest.mark.parametrize("op_name", list(GRADIENT_CASES))
def test_primitive_gradients_match_central_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    store = ParamStore()
    a = store.create("a", rand(rng, 4, 6))
    b = store.create("b", rand(rng, 4, 6))
    w = store.create("w", rand(rng, 6, 3))
    weights = Tensor(rng.random((4, 6)))  # constant positive mixing weights

    def build():
        out = GRADIENT_CASES[op_name](a, b, w)
        if out.data.shape == weights.data.shape:
            out = ad.mul(out, weights)
        return tensor_sum(out)

    report = check_gradients([a, b, w], build, tolerance=1e-4)
    assert report.passed, report.summary()


def tape_ops() -> set[str]:
    """Public functions of ``autodiff`` that record a tape node, directly or
    through another function of the module."""
    tree = ast.parse(inspect.getsource(ad))
    calls = {node.name: {c.func.id for c in ast.walk(node)
                         if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    recording = {"_node"}
    while True:
        found = {name for name, called in calls.items() if called & recording}
        if found <= recording:
            return {name for name in recording if not name.startswith("_")}
        recording |= found


def reference_ops() -> set[str]:
    """Functions of ``tests/helpers.py`` that record their own tape node: the
    ops of the composites that the bit-identity tests compare against."""
    tree = ast.parse(inspect.getsource(helpers))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                    and c.func.attr == "_node" for c in ast.walk(node))}


def test_every_tape_op_has_a_central_difference_check():
    # the GRU ops are checked over whole sequences, in their own tests
    checked_elsewhere = {
        "gru_cell": test_gru_encoder_gradients_pass_finite_differences,
        "gru_sequence": test_gru_sequence_gradients_match_central_differences,
        "packed_gru_sequence": test_the_packed_gru_reference_gradients_match_central_differences,
    }
    covered = {CASE_OPS.get(case, case) for case in GRADIENT_CASES} | set(checked_elsewhere)
    ops = tape_ops()
    references = reference_ops()
    assert {"add", "masked_softmax", "mean", "gru_sequence"} <= ops
    assert {"slice_cols", "sum_groups", "sum_last", "regroup_rows", "repeat_rows"} <= references
    # a wrong reference backward fails its own check, not only a bit-identity test
    assert sorted((ops | references) - covered) == [], "tape ops without a gradient check"
    assert sorted(covered - ops - references) == [], \
        "gradient cases for functions that are no tape op"


# One call per tape op whose input ``x`` (4, 6) is the first to hold a NaN,
# written in place after ``x`` was made, as Adam writes parameters.
def _gru_cells(count):
    store = ParamStore()
    rng = np.random.default_rng(5)
    return [init_gru_cell(store, f"c{k}", 6, 2, rng) for k in range(count)]


FINITE_CASES = {
    "add": lambda x: ad.add(x, x),
    "mul": lambda x: ad.mul(x, x),
    "mul_const": lambda x: ad.mul_const(x, 2.0),
    "matmul": lambda x: ad.matmul(x, Tensor(np.ones((6, 3)))),
    "affine_softmax_nll": lambda x: ad.affine_softmax_nll(x, Tensor(np.ones((6, 3))),
                                                          Tensor(np.zeros(3)), IDX % 3),
    "concat": lambda x: ad.concat([x, x], axis=1),
    "sigmoid": lambda x: ad.sigmoid(x),
    "tanh": lambda x: ad.tanh(x),
    "log": lambda x: ad.log(x),
    "softmax_nll": lambda x: ad.softmax_nll(x, IDX),
    "masked_softmax": lambda x: ad.masked_softmax(x, MASK),
    "gather_rows": lambda x: ad.gather_rows(x, np.array([0, 1])),
    "reshape": lambda x: ad.reshape(x, (2, 12)),
    "tensor_sum": lambda x: ad.tensor_sum(x),
    "mean": lambda x: ad.mean(x),
    "dropout": lambda x: ad.dropout(x, 0.5, np.random.default_rng(0)),
    "gru_cell": lambda x: ad.gru_cell(x, Tensor(np.zeros((4, 2))), _gru_cells(1)[0]),
    "gru_sequence": lambda x: ad.gru_sequence(x, Tensor(np.zeros((2, 2))), _gru_cells(2),
                                              np.ones((2, 2), dtype=bool)),
    "attention_weights": lambda x: ad.attention_weights(
        Tensor(np.ones((2, 1))), [(ad.reshape(x, (8, 3)), np.ones((2, 4), dtype=bool))],
        Tensor(np.ones((1, 3))), Tensor(np.zeros(3)), Tensor(np.ones((3, 1)))),
    "weighted_sum": lambda x: ad.weighted_sum(Tensor(np.full((2, 6), 0.5)),
                                              [ad.reshape(x, (12, 2))]),
}


def direct_ops() -> set[str]:
    """Public functions of ``autodiff`` that record their own tape node."""
    tree = ast.parse(inspect.getsource(ad))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                    and c.func.id == "_node" for c in ast.walk(node))}


def test_every_tape_op_checks_its_output_or_is_listed_as_unable_to_make_a_non_finite():
    assert sorted(tape_ops() ^ set(FINITE_CASES)) == [], "tape ops without a finite case"
    assert set(ad._UNCHECKED_OPS) <= direct_ops()
    for name, call in FINITE_CASES.items():
        x = Tensor(np.linspace(0.1, 0.9, 24).reshape(4, 6))
        x.data[0, 0] = np.nan
        if name in ad._UNCHECKED_OPS:
            call(x)  # the NaN passes through unchecked: the first checking op raises
            continue
        with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError) as excinfo:
            call(x)
        if name in direct_ops():
            assert str(excinfo.value) == f"non-finite value from {name}"


def _huge_cell():
    # from x = (1e308, 1e308, 0, ...) and h = (1, 1) the update gate's
    # pre-activation is x W_u + h U_u = -inf + inf
    cell = _gru_cells(1)[0]
    cell.w_update.data[:2, 0] = -10.0
    cell.u_update.data[:, 0] = 1e308
    return cell


# For each op that checks its output, finite inputs whose result overflows.
OVERFLOW_CASES = {
    "add": lambda h: ad.add(h, h),
    "mul": lambda h: ad.mul(h, h),
    "mul_const": lambda h: ad.mul_const(h, 10.0),
    "matmul": lambda h: ad.matmul(h, Tensor(np.ones((2, 1)))),
    # a finite product that overflows only with the bias
    "affine_softmax_nll": lambda h: ad.affine_softmax_nll(h, Tensor([[0.5], [0.5]]),
                                                          Tensor([1e308]), np.array([0])),
    "log": lambda h: ad.log(ad.mul_const(h, 0.0)),
    "softmax_nll": lambda h: ad.softmax_nll(Tensor([[1e308, -1e308]]), np.array([1])),
    "tensor_sum": lambda h: ad.tensor_sum(h),
    # the kept element doubles
    "dropout": lambda h: ad.dropout(h, 0.5, np.random.default_rng(0)),
    "gru_sequence": lambda h: ad.gru_sequence(
        ad.concat([h, Tensor(np.zeros((1, 4)))], axis=1), Tensor(np.ones((1, 2))),
        [_huge_cell()], np.ones((1, 1), dtype=bool)),
    # in the pre-activation, whose overflow the tanh would hide
    "attention_weights": lambda h: ad.attention_weights(
        Tensor([[1.0]]), [(ad.reshape(h, (2, 1)), np.ones((1, 2), dtype=bool))],
        Tensor([[1e308]]),
        Tensor(np.zeros(1)), Tensor([[1.0]])),
    "weighted_sum": lambda h: ad.weighted_sum(Tensor([[1.0, 1.0]]), [ad.reshape(h, (2, 1))]),
}


def test_attention_scores_that_overflow_name_the_op():
    # each tanh lies in [-1, 1], so only v can overflow a score
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError) as excinfo:
        ad.attention_weights(Tensor([[1.0]]), [(Tensor([[1.0, 1.0]]), np.ones((1, 1), bool))],
                             Tensor([[1.0, 1.0]]), Tensor(np.zeros(2)),
                             Tensor([[1e308], [1e308]]))
    assert str(excinfo.value) == "non-finite value from attention_weights"


@pytest.mark.parametrize("op", list(OVERFLOW_CASES))
def test_an_overflow_in_a_checking_op_raises_naming_that_op(op):
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        huge = Tensor([[1e308, 1e308]])
        with pytest.raises(ad.NonFiniteError) as excinfo:
            OVERFLOW_CASES[op](huge)
    assert str(excinfo.value) == f"non-finite value from {op}"


def test_every_checking_op_has_an_overflow_case():
    checking = direct_ops() - set(ad._UNCHECKED_OPS)
    assert sorted(checking ^ set(OVERFLOW_CASES)) == []


def test_softmax_nll_is_the_negative_log_softmax_at_the_targets():
    rng = np.random.default_rng(12)
    store = ParamStore()
    a = store.create("a", rand(rng, 5, 300) * 6.0)
    targets = np.array([7, 299, 7, 0, 7])
    out = ad.softmax_nll(a, targets)
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    assert out.data.shape == (5, 1)
    np.testing.assert_array_equal(out.data[:, 0], -log_p[np.arange(5), targets])
    backward(ad.mean(out))
    onehot = np.zeros_like(a.data)
    onehot[np.arange(5), targets] = 1.0
    np.testing.assert_allclose(a.grad, (np.exp(log_p) - onehot) / 5, rtol=1e-12, atol=1e-18)


def composite_output_layer(x, w, b, targets):
    """Reference for ``autodiff.affine_softmax_nll``: the product, the bias
    add and the softmax NLL as three tape ops."""
    return ad.softmax_nll(ad.add(matmul(x, w), b), targets)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_affine_softmax_nll_is_the_composite_bit_for_bit(dtype):
    rng = np.random.default_rng(21)
    store = ParamStore(dtype)
    x = store.create("x", rand(rng, 7, 5))
    w = store.create("w", rand(rng, 5, 300))
    b = store.create("b", rand(rng, 300))
    targets = np.array([7, 299, 7, 0, 7, 150, 3])
    upstream = rand(rng, 7, 1).astype(dtype)

    def run(op):
        zero_grads([x, w, b])
        out = op(x, w, b, targets)
        backward(tensor_sum(ad.mul_const(out, upstream)))
        return out.data, [p.grad.copy() for p in (x, w, b)]

    got, got_grads = run(ad.affine_softmax_nll)
    want, want_grads = run(composite_output_layer)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    for g, ref in zip(got_grads, want_grads):
        assert g.dtype == dtype and g.tobytes() == ref.tobytes()


@pytest.mark.parametrize("cols", [1, 300, 70_000], ids=["one_col", "row_blocks", "row_per_block"])
def test_softmax_nll_in_row_blocks_sums_each_row_as_the_whole_exponential(cols):
    # one column, many rows to a block, and fewer than one row to a block
    rng = np.random.default_rng(20)
    logits = rand(rng, 5, cols) * 6.0
    targets = rng.integers(0, cols, 5)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    p = logits.copy()
    nll = ad._softmax_nll_in_place(p, targets)
    assert nll.tobytes() == (-log_p[np.arange(5), targets][:, None]).tobytes()
    assert p.tobytes() == np.exp(log_p).tobytes()


def test_dropout_is_mul_const_of_its_mask_bit_for_bit():
    rng = np.random.default_rng(19)
    a = ParamStore().create("a", rand(rng, 9, 40))
    upstream = rand(rng, 9, 40)
    keep = 1.0 - 0.45
    results = []
    for op in (lambda: ad.dropout(a, 0.45, np.random.default_rng(3)),
               lambda: ad.mul_const(a, (np.random.default_rng(3).random(a.data.shape) < keep)
                                    .astype(a.data.dtype) / keep)):
        zero_grads([a])
        out = op()
        backward(tensor_sum(ad.mul_const(out, upstream)))
        results.append((out.data.tobytes(), a.grad.tobytes()))
    assert results[0] == results[1]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [1, 129])
@pytest.mark.parametrize("width", [1, 7, 8, 9, 127, 128, 129, 300, 1000])
def test_a_one_part_weighted_sum_is_the_sum_of_a_product_bit_for_bit(width, rows, dtype):
    # the decoder loss's masked sum and the matcher's dot products: one memory
    # of one column, ``width`` rows per weight row; widths on both sides of
    # numpy's 8-element unrolled sum and its 128-element pairwise blocks
    rng = np.random.default_rng(width)
    store = ParamStore(dtype)
    w = store.create("w", rand(rng, rows, width))
    m = store.create("m", rand(rng, rows, width))
    upstream = rand(rng, rows, 1).astype(dtype)
    results = []
    for reduce in (lambda: ad.weighted_sum(w, [ad.reshape(m, (rows * width, 1))]),
                   lambda: sum_last(mul(w, m))):
        zero_grads([w, m])
        out = reduce()
        backward(tensor_sum(ad.mul_const(out, upstream)))
        results.append((out.data, w.grad, m.grad))
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_weighted_sum_forms_no_gradient_for_a_constant_memory():
    # the memory's gradient, 1e200 * 1e200, would overflow: it is not formed
    weights = Tensor([[1e200, 1e200]], requires_grad=True)
    memory = Tensor([[1e-300], [1e-300]])
    loss = ad.mul_const(ad.weighted_sum(weights, [memory]), 1e200)
    with np.errstate(over="raise"):
        backward(loss)
    assert memory.grad is None
    assert weights.grad.tolist() == [[1e200 * 1e-300] * 2]


def test_the_output_layer_forward_holds_one_logits_sized_buffer():
    # the parent's composite held the product, the biased logits and a copy
    # for the softmax; the op's peak is its one buffer and a small scratch
    rng = np.random.default_rng(18)
    rows, cols, vocab = 64, 16, 4096
    store = ParamStore()
    x = store.create("x", rand(rng, rows, cols))
    w = store.create("w", rand(rng, cols, vocab))
    b = store.create("b", rand(rng, vocab))
    targets = rng.integers(0, vocab, rows)
    bound = 1.5 * rows * vocab * 8
    _, peak = traced_peak(lambda: ad.affine_softmax_nll(x, w, b, targets))
    assert peak < bound, peak
    _, composite_peak = traced_peak(lambda: composite_output_layer(x, w, b, targets))
    assert composite_peak > bound, composite_peak


def test_a_recorded_dropout_holds_one_byte_per_element_for_its_mask():
    a = ParamStore().create("a", np.random.default_rng(17).standard_normal((256, 1024)))
    out, held = traced_held(lambda: ad.dropout(a, 0.45, np.random.default_rng(0)))
    assert out.requires_grad
    # the output, one bool per element, and the node's few small objects
    assert 0 <= held - out.data.nbytes - a.data.size < 4096, held


def test_a_recorded_concat_keeps_only_the_parts_that_take_a_gradient():
    rng = np.random.default_rng(19)
    a = ParamStore().create("a", rand(rng, 6, 3))
    constant = Tensor(rand(rng, 6, 2))
    gone = weakref.ref(constant.data)
    out = ad.concat([a, constant], axis=1)
    del constant
    assert out.requires_grad and out._parents == (a,)
    assert gone() is None
    ad.backward(ad.tensor_sum(ad.mul_const(out, np.arange(30.0).reshape(6, 5))))
    np.testing.assert_array_equal(a.grad, np.arange(30.0).reshape(6, 5)[:, :3])


def test_phase_peaks_reads_each_phase_and_folds_inner_peaks_into_outer_ones():
    mb = 2**20

    class Phases:
        def inner(self):
            np.ones(2 * mb // 8)  # freed on return
            return np.ones(mb // 8)

        def outer(self):
            kept = self.inner()
            kept2 = self.inner()
            return kept, kept2

    held, phases = phase_peaks(lambda: Phases().outer(),
                               [(Phases, "inner"), (Phases, "outer")])
    assert vars(Phases)["inner"].__name__ == "inner"  # restored
    start, peak, end = phases["inner"]  # the second call has the higher peak
    assert 1 <= start < 1.01 and 3 <= peak < 3.01 and 2 <= end < 2.01
    start, peak, end = phases["outer"]  # its peak was reached inside the second inner
    assert 0 <= start < 0.01 and 3 <= peak < 3.01 and 2 <= end < 2.01
    assert len(held) == 2


# ``affine_softmax_nll``'s weight gradient as factors: the dense reference
# is the composite, whose ``matmul`` forms ``x.T @ g`` whole


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_weight_gradient_kept_as_factors_reads_as_x_t_g_bit_for_bit(dtype):
    rng = np.random.default_rng(22)
    store = ParamStore(dtype)
    h = store.create("h", rand(rng, 7, 5))
    w = store.create("w", rand(rng, 5, 300))
    b = store.create("b", rand(rng, 300))
    x = ad.tanh(h)
    backward(tensor_sum(ad.affine_softmax_nll(x, w, b, rng.integers(0, 300, 7))))
    factors = w._grad
    assert type(factors) is ad._Product and factors.x is x.data
    assert factors.g.shape == (7, 300) and factors.g.dtype == dtype
    want = x.data.T @ factors.g
    got = w.grad
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    assert w.grad is got  # formed once


def softmax_step_runs(make_x, dense, clip, steps=3, out_cols=61):
    """Parameters, pre-clip norms and post-clip norms of ``steps`` steps of
    backward, norm, clip and Adam on ``affine_softmax_nll`` (or, with
    ``dense``, on the composite)."""
    rng = np.random.default_rng(23)
    store = ParamStore()
    h = store.create("h", rand(rng, 12, 96))
    w = store.create("w", rand(rng, 96, out_cols))
    b = store.create("b", rand(rng, out_cols))
    params = [h, w, b]
    opt = Adam(params, lr=0.005)
    norms, post = [], []
    op = composite_output_layer if dense else ad.affine_softmax_nll
    for _ in range(steps):
        zero_grads(params)
        backward(ad.mean(op(make_x(h), w, b, rng.integers(0, out_cols, 12))))
        norms.append(global_grad_norm(params))
        post.append(opt.step(clip_global_norm(norms[-1], clip)))
    return [p.data for p in params], norms, post


# the input as an activation, and as the parameter ``h`` itself, which the
# step writes before it reaches ``w``
INPUTS = {"activation": ad.tanh, "parameter": lambda h: h}


@pytest.mark.parametrize("clip", [1e-3, 1e6])
@pytest.mark.parametrize("make_x", list(INPUTS))
def test_one_block_of_factors_steps_as_the_dense_gradient_bit_for_bit(make_x, clip):
    assert len(ad._even_ranges(61, ad._GRAD_BLOCK // 96)) == 1
    got = softmax_step_runs(INPUTS[make_x], dense=False, clip=clip)
    want = softmax_step_runs(INPUTS[make_x], dense=True, clip=clip)
    for a, ref in zip(got[0], want[0]):
        assert a.tobytes() == ref.tobytes()
    assert got[1:] == want[1:]
    assert all(n > clip for n in got[1]) is (clip < 1)


@pytest.mark.parametrize("clip", [1e-3, 1e6])
@pytest.mark.parametrize("make_x", list(INPUTS))
def test_column_blocks_of_factors_step_as_the_dense_gradient(monkeypatch, make_x, clip):
    monkeypatch.setattr(ad, "_GRAD_BLOCK", 96 * 23)
    ranges = ad._even_ranges(61, ad._GRAD_BLOCK // 96)
    assert ranges == [(0, 21), (21, 41), (41, 61)]
    got = softmax_step_runs(INPUTS[make_x], dense=False, clip=clip)
    want = softmax_step_runs(INPUTS[make_x], dense=True, clip=clip)
    for a, ref in zip(got[0], want[0]):
        np.testing.assert_allclose(a, ref, rtol=1e-12, atol=0)
    for a, ref in zip(got[1] + got[2], want[1] + want[2]):
        assert a == pytest.approx(ref, rel=1e-12)


def test_a_second_gradient_into_factors_adds_to_the_whole_product_bit_for_bit():
    rng = np.random.default_rng(24)
    x, g, other = rand(rng, 6, 4), rand(rng, 6, 9), rand(rng, 4, 9)
    first = ParamStore().create("first", np.zeros((4, 9)))
    second = ParamStore().create("second", np.zeros((4, 9)))
    ad._accum(first, ad._Product(x, g))
    ad._accum(first, other)
    ad._accum(second, other)
    ad._accum(second, ad._Product(x, g))
    assert first.grad.tobytes() == ((x.T @ g) + other).tobytes()
    assert second.grad.tobytes() == (other + (x.T @ g)).tobytes()
    # two output layers on one weight, against the composites
    store = ParamStore()
    h = store.create("h", rand(rng, 5, 4))
    w = store.create("w", rand(rng, 4, 9))
    b = store.create("b", rand(rng, 9))
    upstream = rand(rng, 5, 1)
    targets = rng.integers(0, 9, 5)
    grads = []
    for op in (ad.affine_softmax_nll, composite_output_layer):
        zero_grads([h, w, b])
        twice = ad.add(op(h, w, b, targets), op(ad.tanh(h), w, b, targets))
        backward(tensor_sum(ad.mul_const(twice, upstream)))
        grads.append(w.grad)
    assert grads[0].tobytes() == grads[1].tobytes()


def test_a_step_on_factors_spanning_many_blocks_forms_no_whole_gradient(monkeypatch):
    rows, cols, out = 6, 64, 16384
    monkeypatch.setattr(ad, "_GRAD_BLOCK", 1 << 16)
    assert len(ad._even_ranges(out, ad._GRAD_BLOCK // cols)) >= 8
    rng = np.random.default_rng(25)
    store = ParamStore()
    w = store.create("w", 0.01 * rand(rng, cols, out))
    b = store.create("b", np.zeros(out))
    opt = Adam([w, b], lr=0.005)
    loss = ad.mean(ad.affine_softmax_nll(Tensor(rand(rng, rows, cols)), w, b,
                                         rng.integers(0, out, rows)))

    def step():
        backward(loss)
        return opt.step(clip_global_norm(global_grad_norm([w, b]), 1.0))

    _, peak = traced_peak(step)
    assert type(w._grad) is ad._Product
    assert peak < w.data.nbytes, peak


def two_branch_sigmoid(x):
    """The sigmoid as ``autodiff._sigmoid`` first wrote it: ``np.where``
    picks the numerator of each branch."""
    e = np.exp(np.copysign(x, -1.0))
    return np.where(x < 0, e, 1.0) / (1.0 + e)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_sigmoid_equals_the_two_branch_formula_bit_for_bit(dtype):
    info = np.finfo(dtype)
    edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, info.smallest_subnormal,
                      -info.smallest_subnormal, 7 * info.smallest_subnormal,
                      -7 * info.smallest_subnormal, info.tiny, -info.tiny], dtype=dtype)
    random = (np.random.default_rng(8).standard_normal((40, 30)) * 20).astype(dtype)
    for x in (edges, random):
        want = two_branch_sigmoid(x)
        aliased = x.copy()
        for got in (ad._sigmoid(x), ad._sigmoid(aliased, out=aliased)):
            assert got.dtype == dtype
            # as bytes, so that a -0.0 for a +0.0 would show
            assert got.tobytes() == want.tobytes()


def test_softmax_nll_backward_allocates_no_second_logits_sized_array():
    rng = np.random.default_rng(4)
    rows, vocab = 64, 4096
    a = ParamStore().create("a", rand(rng, rows, vocab))
    loss = tensor_sum(ad.softmax_nll(a, rng.integers(0, vocab, rows)))
    _, peak = traced_peak(lambda: backward(loss))
    assert a.grad.shape == (rows, vocab)
    assert peak < a.data.nbytes // 2, peak


def test_corrupted_backward_rule_fails_gradient_check():
    store = ParamStore()
    rng = np.random.default_rng(5)
    a = store.create("a", rand(rng, 3, 3))

    def bad_square(t):
        data = t.data * t.data

        def _bw(g):
            ad._accum(t, g)  # wrong: should be 2 * t.data * g

        return ad._node(data, (t,), _bw)

    report = check_gradients([a], lambda: tensor_sum(bad_square(a)), tolerance=1e-4)
    assert not report.passed


def spy_on_grad(node):
    """Record the grad ``node`` hands to its parents, and a copy of it."""
    seen = {}
    inner = node._backward

    def _bw(g):
        seen["held"], seen["copy"] = g, g.copy()
        inner(g)

    node._backward = _bw
    return seen


def test_a_tensor_consumed_twice_leaves_the_upstream_grad_untouched():
    rng = np.random.default_rng(7)
    store = ParamStore()
    a = store.create("a", rand(rng, 3, 4))
    weights = Tensor(rng.random((3, 4)))
    u = ad.tanh(a)
    doubled = ad.add(u, u)                   # u is handed doubled's grad twice
    v = ad.sigmoid(a)
    joint = ad.add(v, doubled)               # v and doubled share joint's grad
    feeds_two = ad.add(joint, ad.tanh(v))    # v takes a second gradient here
    # backward drops inner grads, so each is read as its node's backward got it
    u_seen, v_seen, doubled_seen, joint_seen, feeds_two_seen = (
        spy_on_grad(n) for n in (u, v, doubled, joint, feeds_two))
    backward(tensor_sum(mul(feeds_two, weights)))
    for seen in (doubled_seen, joint_seen, feeds_two_seen):
        np.testing.assert_array_equal(seen["held"], seen["copy"])
    np.testing.assert_array_equal(doubled_seen["held"], weights.data)
    np.testing.assert_array_equal(u_seen["held"], weights.data + weights.data)
    assert u_seen["held"] is not doubled_seen["held"]
    assert v_seen["held"] is not joint_seen["held"]


def test_an_owned_first_gradient_takes_the_second_in_place_except_at_a_plain_leaf():
    rng = np.random.default_rng(9)
    first, second = rand(rng, 3, 4), rand(rng, 3, 4)
    want = (first + second).tobytes()
    param = ParamStore().create("p", np.zeros((3, 4)))
    leaf = Tensor(np.zeros((3, 4)), requires_grad=True)
    for t, owner in ((param, True), (leaf, False)):
        handed = first.copy()
        ad._accum(t, handed, owned=True)
        ad._accum(t, second)
        # ``a += b`` rounds as ``a + b``; a plain leaf's grad goes back to its
        # caller, who may keep the array, so it is not written
        assert (t.grad is handed) is owner
        assert t.grad.tobytes() == want
        assert handed.tobytes() == (want if owner else first.tobytes())


def test_backward_frees_the_activations_of_the_graph_it_ran():
    rng = np.random.default_rng(15)
    store = ParamStore()
    w = store.create("w", rand(rng, 3, 4))
    projected = matmul(Tensor(rand(rng, 2, 3)), w)
    hidden = ad.tanh(projected)
    alive = [weakref.ref(projected.data), weakref.ref(hidden.data)]
    loss = tensor_sum(mul(hidden, hidden))
    backward(loss)
    del projected, hidden
    assert [ref() for ref in alive] == [None, None]
    # the loss keeps only its value; the parameter keeps its grad
    assert loss.grad is None and loss._parents == ()
    assert w.grad is not None


def test_a_second_backward_through_a_released_graph_raises():
    store = ParamStore()
    w = store.create("w", np.ones((2, 2)))
    hidden = ad.tanh(w)
    loss = tensor_sum(hidden)
    backward(loss)
    with pytest.raises(RuntimeError, match="differentiated once"):
        backward(loss)
    with pytest.raises(RuntimeError, match="differentiated once"):
        backward(tensor_sum(sigmoid(hidden)))


def test_backward_returns_the_number_of_op_nodes_it_ran():
    rng = np.random.default_rng(16)
    store = ParamStore()
    a = store.create("a", rand(rng, 3, 4))
    u = ad.tanh(a)
    constant = ad.tanh(Tensor(rand(rng, 3, 4)))  # no parameter under it: not recorded
    loss = tensor_sum(ad.add(mul(u, u), constant))  # u is reached twice, run once
    assert reachable_op_nodes(loss) == 4
    assert backward(loss) == 4


def test_gradients_added_onto_read_only_broadcast_views_stay_correct():
    # tensor_sum and the reference sum_last hand back read-only broadcast views; a tensor
    # taking three gradients must copy the view, then add into its own array
    rng = np.random.default_rng(8)
    store = ParamStore()
    a = store.create("a", rand(rng, 3, 4))
    w = store.create("w", rand(rng, 3, 4))

    def loss_fn():
        u = ad.tanh(a)
        total = tensor_sum(u)
        rows = sum_last(u)
        squared = ad.mul(total, total)       # the tensor_sum result has two consumers
        return ad.add(ad.add(squared, tensor_sum(rows)), tensor_sum(ad.mul(u, w)))

    report = check_gradients([a, w], loss_fn, tolerance=1e-4)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# GRU cell


def make_cell(rng, input_dim, hidden, store=None, prefix="cell"):
    store = store or ParamStore()
    return init_gru_cell(store, prefix, input_dim, hidden, rng), store


def test_gru_cell_zero_weights_halves_state():
    rng = np.random.default_rng(2)
    cell, store = make_cell(rng, 3, 4)
    for p in store.all():
        p.data[...] = 0.0
    h = rand(rng, 2, 4)
    out = gru_cell(Tensor(rand(rng, 2, 3)), Tensor(h), cell)
    np.testing.assert_array_equal(out.data, 0.5 * h)


def test_gru_cell_zero_hidden_dim_rejected():
    rng = np.random.default_rng(3)
    store = ParamStore()
    with pytest.raises(ValueError):
        init_gru_cell(store, "bad", 3, 0, rng)
    cell, _ = make_cell(rng, 3, 4)
    with pytest.raises(ValueError):
        gru_cell(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 0))), cell)


def test_gru_cell_matches_scalar_reference():
    rng = np.random.default_rng(4)
    cell, store = make_cell(rng, 2, 3)
    x = rand(rng, 1, 2)
    h = rand(rng, 1, 3)
    out = gru_cell(Tensor(x), Tensor(h), cell)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    expected = np.zeros(3)
    for j in range(3):
        zu = sum(x[0, i] * cell.w_update.data[i, j] for i in range(2))
        zu += sum(h[0, k] * cell.u_update.data[k, j] for k in range(3))
        z = sig(zu + cell.b_update.data[j])
        ru = sum(x[0, i] * cell.w_reset.data[i, j] for i in range(2))
        ru += sum(h[0, k] * cell.u_reset.data[k, j] for k in range(3))
        r_j = sig(ru + cell.b_reset.data[j])
        expected[j] = r_j
    reset = expected.copy()
    for j in range(3):
        cu = sum(x[0, i] * cell.w_cand.data[i, j] for i in range(2))
        cu += sum(reset[k] * h[0, k] * cell.u_cand.data[k, j] for k in range(3))
        cand = math.tanh(cu + cell.b_cand.data[j])
        zu = sum(x[0, i] * cell.w_update.data[i, j] for i in range(2))
        zu += sum(h[0, k] * cell.u_update.data[k, j] for k in range(3))
        z = sig(zu + cell.b_update.data[j])
        expected[j] = (1.0 - z) * h[0, j] + z * cand
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


def test_gru_encoder_gradients_pass_finite_differences():
    rng = np.random.default_rng(6)
    cell, store = make_cell(rng, 3, 4)
    xs = [Tensor(rand(rng, 2, 3)) for _ in range(2)]
    readout = Tensor(rng.random((2, 4)))

    def loss_fn():
        h = Tensor(np.zeros((2, 4)))
        for x in xs:
            h = gru_cell(x, h, cell)
        return tensor_sum(mul(h, readout))

    report = check_gradients(store.all(), loss_fn, tolerance=1e-4)
    assert report.passed, report.summary()


def gru_cell_loop(x, h0, cell, mask, reverse):
    """The composite reference: one ``gru_cell`` per position, and padded
    rows keep their state."""
    batch, length = mask.shape
    states = [None] * length
    h = Tensor(h0)
    for t in (reversed(range(length)) if reverse else range(length)):
        step = gru_cell(Tensor(x[t * batch:(t + 1) * batch]), h, cell)
        h = Tensor(np.where(mask[:, t:t + 1], step.data, h.data))
        states[t] = h.data
    return np.concatenate(states, axis=0)


# right-padded rows of lengths 5, 3 and 1
PADDED_MASK = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0]], dtype=bool)


def make_cells(rng, count, input_dim, hidden):
    store = ParamStore()
    cells = [init_gru_cell(store, f"cell{k}", input_dim, hidden, rng) for k in range(count)]
    for p in store.all():  # nonzero biases, so every gate gradient is exercised
        p.data[...] = 0.5 * rand(rng, *p.data.shape)
    return cells, store


# one cell runs forward; of two, the second runs in reverse
@pytest.mark.parametrize("count", [1, 2], ids=["forward", "reverse"])
def test_gru_sequence_matches_a_gru_cell_loop(count):
    rng = np.random.default_rng(21)
    cells, _ = make_cells(rng, count, 6, 5)
    batch, length = PADDED_MASK.shape
    x = rand(rng, length * batch, 6)
    h0 = rand(rng, batch, 5)
    out = ad.gru_sequence(Tensor(x), Tensor(h0), cells, PADDED_MASK).data
    # the second cell runs from the last position to the first
    loops = [gru_cell_loop(x, h0, cell, PADDED_MASK, reverse=k == 1)
             for k, cell in enumerate(cells)]
    states = out.reshape(batch, length, count, 5)
    for k, loop in enumerate(loops):
        np.testing.assert_allclose(states[:, :, k], loop.reshape(length, batch, 5).swapaxes(0, 1)
                                   * PADDED_MASK[:, :, None], rtol=1e-12, atol=1e-12)
    for b, n in enumerate(PADDED_MASK.sum(axis=1)):
        np.testing.assert_array_equal(states[b, n:], 0.0)  # padded positions read zero
        # the state each cell carries to its end is at its last unmasked position
        np.testing.assert_allclose(states[b, n - 1, 0], loops[0][(length - 1) * batch + b],
                                   rtol=1e-12, atol=1e-12)
        if count == 2:
            np.testing.assert_allclose(states[b, 0, 1], loops[1][b], rtol=1e-12, atol=1e-12)
    for bad_x, bad_cells in [(x[:-1], cells), (x[:, :4], cells), (x, []), (x, cells * 3)]:
        with pytest.raises(ValueError):
            ad.gru_sequence(Tensor(bad_x), Tensor(h0), bad_cells, PADDED_MASK)


@pytest.mark.parametrize("count", [1, 2], ids=["forward", "reverse"])
def test_gru_sequence_gradients_match_central_differences(count):
    rng = np.random.default_rng(22)
    cells, store = make_cells(rng, count, 3, 4)
    batch, length = PADDED_MASK.shape
    x = store.create("x", rand(rng, length * batch, 3))
    h0 = store.create("h0", rand(rng, batch, 4))
    readout = rng.standard_normal((batch * length, 4 * count))

    def loss_fn():
        states = ad.gru_sequence(x, h0, cells, PADDED_MASK)
        return tensor_sum(ad.mul_const(states, readout))

    report = check_gradients(store.all(), loss_fn, tolerance=1e-4)
    assert len(report.per_param) == 9 * count + 2
    assert report.passed, report.summary()


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_the_packed_gru_reference_gradients_match_central_differences(reverse):
    rng = np.random.default_rng(26)
    cells, store = make_cells(rng, 1, 3, 4)
    batch, length = PADDED_MASK.shape
    x = store.create("x", rand(rng, length * batch, 3))
    h0 = store.create("h0", rand(rng, batch, 4))
    readout = rng.standard_normal((length * batch, 4))

    def loss_fn():
        states = packed_gru_sequence(x, h0, pack(cells[0]), PADDED_MASK, reverse=reverse)
        return tensor_sum(ad.mul_const(states, readout))

    report = check_gradients(store.all(), loss_fn, tolerance=1e-4)
    assert len(report.per_param) == 11
    assert report.passed, report.summary()


def padded_two_cells(reference):
    """Both directions over a right-padded batch from a trainable ``h0``.
    ``x`` and ``h0`` are also read by ops whose gradients reach them first,
    so the order of each one's adds shows in its last bits."""
    rng = np.random.default_rng(23)
    cells, store = make_cells(rng, 2, 3, 4)
    batch, length = PADDED_MASK.shape
    x = store.create("x", rand(rng, length * batch, 3))
    h0 = store.create("h0", rand(rng, batch, 4))
    readouts = [rand(rng, length * batch, 8), rand(rng, length * batch, 3), rand(rng, batch, 4)]

    def loss_fn():
        first = ad.add(tensor_sum(ad.mul_const(ad.tanh(x), readouts[1])),
                       tensor_sum(ad.mul_const(ad.tanh(h0), readouts[2])))
        if reference:
            states, _ = composite_bigru(x, h0, cells, PADDED_MASK)
        else:
            states = ad.gru_sequence(x, h0, cells, PADDED_MASK)
        return ad.add(first, tensor_sum(ad.mul_const(states, readouts[0]))), states

    return store, loss_fn


def two_decoder_steps(reference):
    """Two one-cell steps from a trainable ``h0``; the second starts from the
    first's state and both states are read."""
    rng = np.random.default_rng(24)
    cells, store = make_cells(rng, 1, 3, 4)
    xs = [store.create(f"x{t}", rand(rng, 2, 3)) for t in range(2)]
    h0 = store.create("h0", rand(rng, 2, 4))
    readouts = [rand(rng, 2, 4) for _ in range(2)]
    ones = np.ones((2, 1), dtype=bool)

    def loss_fn():
        if reference:
            packed = pack(cells[0])  # once for all steps, as the decoder did

            def step(x, h):
                return packed_gru_sequence(x, h, packed, ones)
        else:
            def step(x, h):
                return ad.gru_sequence(x, h, cells, ones)
        h1 = step(xs[0], h0)
        h2 = step(xs[1], h1)
        return ad.add(tensor_sum(ad.mul_const(h1, readouts[0])),
                      tensor_sum(ad.mul_const(h2, readouts[1]))), h2

    return store, loss_fn


@pytest.mark.parametrize("case", ["padded_two_cells", "two_decoder_steps"])
def test_gru_sequence_is_bit_identical_to_the_packed_composite(case):
    build = {"padded_two_cells": padded_two_cells, "two_decoder_steps": two_decoder_steps}[case]
    results = []
    for reference in (False, True):
        store, loss_fn = build(reference)
        loss, states = loss_fn()
        backward(loss)
        results.append((states.data, loss.data, {p.name: p.grad for p in store.all()}))
    (states, loss, grads), (want_states, want_loss, want_grads) = results
    np.testing.assert_array_equal(states, want_states)
    np.testing.assert_array_equal(loss, want_loss)
    assert len(grads) == {"padded_two_cells": 20, "two_decoder_steps": 12}[case]
    for name, want in want_grads.items():
        np.testing.assert_array_equal(grads[name], want, err_msg=name)


def composite_gru(x, h0, cells, mask, blocks=None):
    """Reference for ``autodiff.gru_sequence``: a packed sequence node per
    cell, the second in reverse, their concat, the mask multiply and the
    regroup to batch-major. Each cell projects its input in one product, or
    in one per range of positions in ``blocks``."""
    batch, length = mask.shape
    runs = [packed_gru_sequence(x, h0, pack(cell), mask, reverse=k == 1, blocks=blocks)
            for k, cell in enumerate(cells)]
    keep = mask.T.reshape(-1, 1).astype(runs[0].data.dtype)
    states = ad.mul_const(ad.concat(runs, axis=1), keep)
    return regroup_rows(states, length, batch)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "no_grad"])
@pytest.mark.parametrize("count", [1, 2], ids=["one_cell", "two_cells"])
def test_gru_sequence_in_position_blocks_is_bit_identical_to_the_packed_composite(
        monkeypatch, count, recorded, dtype):
    batch, length = PADDED_MASK.shape
    hidden = 5
    # two positions a block: blocks of 2, 2 and 1 positions
    monkeypatch.setattr(ad, "_XW_BLOCK", 2 * batch * 3 * hidden)
    assert ad._position_blocks(length, batch * 3 * hidden) == [(0, 2), (2, 4), (4, 5)]
    results = []
    for op in (ad.gru_sequence, composite_gru):
        rng = np.random.default_rng(25)
        store = ParamStore(dtype)
        cells = [init_gru_cell(store, f"cell{k}", 6, hidden, rng) for k in range(count)]
        for p in store.all():
            p.data[...] = 0.5 * rand(rng, *p.data.shape)
        x = store.create("x", rand(rng, length * batch, 6))
        h0 = store.create("h0", rand(rng, batch, hidden))
        readout = rand(rng, batch * length, count * hidden).astype(dtype)
        if recorded:
            states = op(x, h0, cells, PADDED_MASK)
            backward(tensor_sum(ad.mul_const(states, readout)))
        else:
            with no_grad():
                states = op(x, h0, cells, PADDED_MASK)
        results.append((states.data, {p.name: p.grad for p in store.all()}))
    (states, grads), (want_states, want_grads) = results
    assert states.dtype == dtype
    np.testing.assert_array_equal(states, want_states)
    assert len(grads) == 9 * count + 2
    for name, want in want_grads.items():
        if recorded:
            np.testing.assert_array_equal(grads[name], want, err_msg=name)
        else:
            assert grads[name] is want is None, name


def gru_and_composite_results(mask, hidden, dim, recorded, blocks=None):
    """The states and every gradient of ``gru_sequence`` and of the packed
    composite, two cells over ``mask`` from a trainable ``h0``."""
    batch, length = mask.shape
    results = []
    for op in (ad.gru_sequence, lambda *args: composite_gru(*args, blocks=blocks)):
        rng = np.random.default_rng(28)
        cells, store = make_cells(rng, 2, dim, hidden)
        x = store.create("x", rand(rng, length * batch, dim))
        h0 = store.create("h0", rand(rng, batch, hidden))
        readout = rand(rng, batch * length, 2 * hidden)
        if recorded:
            states = op(x, h0, cells, mask)
            backward(tensor_sum(ad.mul_const(states, readout)))
        else:
            with no_grad():
                states = op(x, h0, cells, mask)
        results.append((states.data, {p.name: p.grad for p in store.all()}))
    return results


def assert_same_states_and_grads(results):
    (states, grads), (want_states, want_grads) = results
    np.testing.assert_array_equal(states, want_states)
    assert len(grads) == 20
    for name, want in want_grads.items():
        if want is None:
            assert grads[name] is None, name
        else:
            np.testing.assert_array_equal(grads[name], want, err_msg=name)


def test_two_cells_stepping_together_keep_the_bits_where_one_skips_and_the_other_steps():
    # rows of lengths 7, 2, 5, 1 and 4: at step s the first cell is at
    # position s and the second at 6 - s, and in most steps one of them
    # carries a row's state through while the other advances it
    lengths = np.array([7, 2, 5, 1, 4])
    mask = np.arange(7) < lengths[:, None]
    skip = ~mask
    assert any((skip[:, s] != skip[:, 6 - s]).any() for s in range(7))
    for recorded in (True, False):
        assert_same_states_and_grads(gru_and_composite_results(mask, 6, 4, recorded))


@pytest.mark.parametrize("recorded", [True, False], ids=["recorded", "no_grad"])
def test_gru_sequence_in_one_position_blocks_keeps_the_bits_of_the_composite(
        monkeypatch, recorded):
    # a block per position, so a pass that records nothing carries its
    # state from block to block through a one-step buffer
    batch, length = PADDED_MASK.shape
    monkeypatch.setattr(ad, "_XW_BLOCK", batch * 3 * 5)
    assert ad._position_blocks(length, batch * 3 * 5) == [(t, t + 1) for t in range(length)]
    assert_same_states_and_grads(gru_and_composite_results(PADDED_MASK, 5, 6, recorded))


def test_the_second_cell_projects_the_first_cells_blocks_of_positions(monkeypatch):
    # blocks of 2, 2 and 1 positions of 517 rows: the second cell steps
    # from the last position, yet projects positions (4, 5), (2, 4) and
    # (0, 2) as the first cell does. Products over the mirrored ranges
    # (3, 5), (1, 3) and (0, 1) put rows at other offsets in a product and
    # round some of them otherwise.
    batch, length, hidden = 517, 5, 25
    monkeypatch.setattr(ad, "_XW_BLOCK", 2 * batch * 3 * hidden)
    blocks = ad._position_blocks(length, batch * 3 * hidden)
    assert blocks == [(0, 2), (2, 4), (4, 5)]
    mask = np.ones((batch, length), dtype=bool)
    results = gru_and_composite_results(mask, hidden, 25, False, blocks=blocks)
    assert_same_states_and_grads(results)


def test_gru_input_blocks_keep_the_bits_of_the_whole_projection_at_a_char_encoder_shape():
    # 300 distinct tokens of 12 characters, 16-wide char embeddings, 25
    # hidden units: the sequence takes more than one block, and a block of a
    # few hundred rows is a small product for which BLAS may take another
    # kernel than for the whole
    rng = np.random.default_rng(26)
    batch, length, hidden = 300, 12, 25
    assert len(ad._position_blocks(length, batch * 3 * hidden)) > 1
    cells, _ = make_cells(rng, 2, 16, hidden)
    x = Tensor(rand(rng, length * batch, 16))
    h0 = Tensor(np.zeros((batch, hidden)))
    mask = np.ones((batch, length), dtype=bool)
    with no_grad():
        got = ad.gru_sequence(x, h0, cells, mask).data
        want = composite_gru(x, h0, cells, mask).data
    np.testing.assert_array_equal(got, want)


def test_a_gru_sequence_under_no_grad_keeps_its_output_plus_one_block(monkeypatch):
    rng = np.random.default_rng(27)
    batch, length, dim, hidden = 16, 200, 32, 32
    monkeypatch.setattr(ad, "_XW_BLOCK", 1 << 12)
    cells, _ = make_cells(rng, 2, dim, hidden)
    x = Tensor(rand(rng, length * batch, dim))
    h0 = Tensor(np.zeros((batch, hidden)))
    mask = np.ones((batch, length), dtype=bool)
    with no_grad():
        out, peak = traced_peak(lambda: ad.gru_sequence(x, h0, cells, mask))
    # besides the output: a block of the projection, the packed weights and
    # one step's gates, each far smaller than the output
    assert out.data.nbytes == batch * length * 2 * hidden * 8
    assert peak < out.data.nbytes + 8 * (1 << 12) * 8, (peak, out.data.nbytes)


def test_a_recorded_gru_sequence_keeps_no_reset_times_h_buffer():
    rng = np.random.default_rng(29)
    batch, length, dim, hidden = 16, 200, 32, 32
    cells, store = make_cells(rng, 2, dim, hidden)
    x = store.create("x", rand(rng, length * batch, dim))
    h0 = store.create("h0", np.zeros((batch, hidden)))
    mask = np.ones((batch, length), dtype=bool)
    out, held = traced_held(lambda: ad.gru_sequence(x, h0, cells, mask))
    assert out.requires_grad
    # one (T, C, B, H) array: the size of the states, or of the candidate gates
    step_array = length * 2 * batch * hidden * 8
    # the output, the update | reset and candidate gates, the states from h0 on
    kept = out.data.nbytes + 2 * step_array + step_array + (length + 1) * 2 * batch * hidden * 8
    assert kept <= held < kept + step_array // 2, (held, kept)
    backward(tensor_sum(ad.mul_const(out, rand(rng, *out.data.shape))))
    assert all(p.grad is not None for p in store.all())


# ---------------------------------------------------------------------------
# clipping and Adam


def set_grads(params, values):
    for p, v in zip(params, values):
        p.grad = np.asarray(v, dtype=float)


def test_clip_noop_below_threshold():
    store = ParamStore()
    p = store.create("p", np.zeros(2))
    set_grads([p], [[3.0, 4.0]])
    scale = clip_global_norm(global_grad_norm([p]), 10.0)
    assert scale == 1.0
    np.testing.assert_array_equal(p.grad, [3.0, 4.0])


def test_clip_rescales_to_threshold():
    store = ParamStore()
    p = store.create("p", np.zeros(2))
    set_grads([p], [[30.0, 40.0]])
    scale = clip_global_norm(global_grad_norm([p]), 10.0)
    np.testing.assert_array_equal(p.grad, [30.0, 40.0])  # left for Adam to scale
    np.testing.assert_allclose(p.grad * scale, [6.0, 8.0])
    assert Adam([p], lr=0.005).step(scale) <= 10.0 + 1e-9


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8),
       st.floats(min_value=0.5, max_value=20.0))
def test_clip_is_idempotent(grads, threshold):
    store = ParamStore()
    p = store.create("p", np.zeros(len(grads)))
    set_grads([p], [grads])
    given_grad = p.grad.copy()
    scale = clip_global_norm(global_grad_norm([p]), threshold)
    np.testing.assert_array_equal(p.grad, given_grad)
    p.grad = p.grad * scale
    assert clip_global_norm(global_grad_norm([p]), threshold) == 1.0
    p.grad = given_grad
    assert Adam([p], lr=0.005).step(scale) <= threshold + 1e-9


def gradient_layouts(dtype):
    """Gradients in every layout an op can hand a parameter, with sizes up
    to past two norm chunks. Their magnitudes span e^-8 to e^8, so summing
    the squares in another order would round differently."""
    rng = np.random.default_rng(17)

    def draw(*shape):
        return (rng.standard_normal(shape) * np.exp(rng.uniform(-8, 8, shape))).astype(dtype)

    big = draw(2 * ad._ADAM_CHUNK + 4099)
    m = draw(300, 257)
    return {
        "c_order": m,
        "f_order": np.asfortranarray(m),
        "transposed": m.T,
        "sliced": m[:, 1:-1],
        "negative_stride": m[::-1, ::2],
        "reversed": big[::-1],
        "broadcast": np.broadcast_to(m[0], m.shape),
        "empty": np.zeros((0, 5), dtype),
        "above_two_chunks": big,
        "scalar": np.asarray(2.5, dtype),
        "small": m[:3, :7],
    }


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_global_grad_norm_is_the_sum_of_squares_bit_for_bit(dtype):
    grads = gradient_layouts(dtype)
    store = ParamStore(dtype)
    params = [store.create(name, np.zeros(g.shape)) for name, g in grads.items()]
    for p, g in zip(params, grads.values()):
        p.grad = g
        assert global_grad_norm([p]) == math.sqrt(float((g * g).sum())), p.name
    assert global_grad_norm(params) == math.sqrt(sum(float((g * g).sum())
                                                     for g in grads.values()))


def test_the_norm_of_a_large_gradient_allocates_no_gradient_sized_array():
    p = ParamStore().create("p", np.zeros(1 << 22))
    p.grad = np.random.default_rng(2).standard_normal(1 << 22)
    norm, peak = traced_peak(lambda: global_grad_norm([p]))
    assert norm == math.sqrt(float((p.grad * p.grad).sum()))
    assert peak < 1 << 20, peak


def test_adam_first_step_analytic():
    store = ParamStore()
    p = store.create("theta", np.zeros(1))
    opt = Adam([p], lr=0.005)
    p.grad = np.array([2.0])
    opt.step(1.0)
    expected = -0.005 * (2.0 / (2.0 + 1e-8))
    np.testing.assert_allclose(p.data, [expected], rtol=1e-12)


def test_adam_rejects_an_empty_parameter_list():
    with pytest.raises(ValueError):
        Adam([], lr=0.005)


def test_adam_skips_frozen_parameters():
    store = ParamStore()
    frozen = store.create("emb", np.ones((2, 2)), trainable=False)
    opt = Adam([frozen], lr=0.005)
    frozen.grad = np.full((2, 2), 3.0)
    opt.step(1.0)
    np.testing.assert_array_equal(frozen.data, np.ones((2, 2)))


def test_adam_step_applies_its_scale_as_pre_scaled_grads_would():
    # 300 x 200 spans two of Adam's chunks; the 0-d parameter is one row
    rng = np.random.default_rng(12)
    shapes = [(300, 200), (7,), ()]
    values = [rand(rng, *shape) for shape in shapes]
    grads = [rand(rng, *shape) for shape in shapes]
    scale = 0.37
    runs = []
    for prescale in (False, True):
        store = ParamStore()
        params = [store.create(f"p{i}", v.copy()) for i, v in enumerate(values)]
        opt = Adam(params, lr=0.005)
        norms = []
        for _ in range(3):
            set_grads(params, [g * scale if prescale else g for g in grads])
            norms.append(opt.step(1.0) if prescale else opt.step(scale))
        runs.append(([p.data for p in params], norms))
    (data, norms), (want_data, want_norms) = runs
    for got, want in zip(data, want_data):
        np.testing.assert_array_equal(got, want)
    assert norms == want_norms
    assert norms[0] == pytest.approx(scale * math.sqrt(sum((g * g).sum() for g in grads)),
                                     rel=1e-12)


def test_adam_steps_a_missing_grad_as_zeros():
    # the batch with no oracle span: span_loss reaches no extractor
    # parameter, so its grad stays None on that step
    rng = np.random.default_rng(13)
    start = rand(rng, 4, 3)
    store = ParamStore()
    missing, zeroed = store.create("missing", start.copy()), store.create("zeroed", start.copy())
    opt_missing, opt_zeroed = Adam([missing], lr=0.005), Adam([zeroed], lr=0.005)
    for step in range(4):
        grad = rand(rng, 4, 3) if step < 2 else None
        missing.grad = grad
        zeroed.grad = np.zeros((4, 3)) if grad is None else grad.copy()
        before = missing.data.copy()
        assert opt_missing.step(1.0) == opt_zeroed.step(1.0)
        np.testing.assert_array_equal(missing.data, zeroed.data)
        assert not np.array_equal(missing.data, before)  # momentum keeps it moving
    np.testing.assert_array_equal(opt_missing._m["missing"], opt_zeroed._m["zeroed"])
    np.testing.assert_array_equal(opt_missing._v["missing"], opt_zeroed._v["zeroed"])


def test_a_parameter_reached_once_holds_the_ops_gradient_array():
    rng = np.random.default_rng(14)
    store = ParamStore()
    w = store.create("w", rand(rng, 3, 2))
    shifted = ad.add(w, Tensor(rand(rng, 3, 2)))  # add hands w its own grad
    seen = spy_on_grad(shifted)
    backward(tensor_sum(mul(shifted, Tensor(rand(rng, 3, 2)))))
    assert w.grad is seen["held"]


def test_adam_zero_gradients_leave_parameters_unchanged():
    store = ParamStore()
    p = store.create("p", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.005)
    zero_grads([p])
    for _ in range(3):
        opt.step(1.0)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


# ---------------------------------------------------------------------------
# store plumbing


def test_param_store_rejects_duplicates_and_roundtrips_state():
    store = ParamStore()
    store.create("a", np.ones(2))
    with pytest.raises(ValueError):
        store.create("a", np.ones(2))


def test_param_store_takes_the_arrays_it_is_given():
    store = ParamStore()
    given = np.ones((2, 3))
    assert store.create("a", given).data is given
    store32 = ParamStore(np.float32)
    given32 = np.ones((2, 3), np.float32)
    assert store32.create("a", given32).data is given32
    assert store32.create("b", given).data.dtype == np.float32


def test_gather_rows_accumulates_repeated_indices():
    store = ParamStore()
    table = store.create("t", np.zeros((3, 2)))
    out = gather_rows(table, np.array([0, 2, 0]))
    backward(tensor_sum(out))
    np.testing.assert_array_equal(table.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
