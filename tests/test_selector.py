import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmatch import autodiff as ad
from genmatch.autodiff import ParamStore, Tensor
from genmatch.corpus import NUM_OPTIONS
from genmatch.selector import (
    bilinear_score,
    init_bilinear,
    select_option,
    selection_loss,
)

from helpers import check_gradients, sum_last


def matcher(hidden=1, store=None):
    store = store or ParamStore()
    return init_bilinear(store, hidden), store


def probabilities(scores):
    """The softmax of (B, 4) scores."""
    return ad.masked_softmax(scores, np.ones(scores.data.shape, dtype=bool)).data


def score_case(answer_rows, option_rows, w=None, hidden=1):
    w_att, store = matcher(hidden)
    if w is not None:
        w_att.data[...] = w
    answer = Tensor(np.asarray(answer_rows, dtype=float))
    options = Tensor(np.asarray(option_rows, dtype=float))
    return bilinear_score(answer, options, w_att), w_att, store


def test_zero_answer_vector_gives_uniform_probabilities():
    scores, _, _ = score_case([[0.0, 0.0]], np.ones((4, 2)), w=np.eye(2))
    np.testing.assert_array_equal(scores.data, np.zeros((1, 4)))
    np.testing.assert_allclose(probabilities(scores), np.full((1, 4), 0.25))


def test_identity_matcher_scores_norm_squared():
    a = np.array([[1.0, 2.0]])
    options = np.vstack([a, np.zeros((3, 2))])
    scores, _, _ = score_case(a, options, w=np.eye(2))
    assert scores.data[0, 0] == pytest.approx(5.0)  # ||a||^2


def test_known_bilinear_value():
    scores, _, _ = score_case([[1.0, 2.0]],
                              [[3.0, 4.0], [0, 0], [0, 0], [0, 0]], w=np.eye(2))
    assert scores.data[0, 0] == pytest.approx(11.0)


def test_dimension_mismatch_rejected():
    w_att, _ = matcher(2)
    with pytest.raises(ValueError):
        bilinear_score(Tensor(np.zeros((1, 3))), Tensor(np.zeros((4, 3))), w_att)
    with pytest.raises(ValueError):
        bilinear_score(Tensor(np.zeros((1, 4))), Tensor(np.zeros((3, 4))), w_att)


def test_select_option_argmax_and_ties():
    assert select_option(Tensor([[1.0, 5.0, 2.0, 0.0]])).tolist() == [1]
    assert select_option(Tensor([[3.0, 3.0, 3.0, 3.0]])).tolist() == [0]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-200, max_value=200).map(lambda v: v * 0.25),
                min_size=4, max_size=4),
       st.integers(min_value=-400, max_value=400).map(lambda v: v * 0.25))
def test_adding_constant_preserves_selection_and_probabilities(raw, shift):
    # quarter-step grid keeps score + shift exact in binary floating point
    base = Tensor([raw])
    shifted = Tensor([[v + shift for v in raw]])
    assert select_option(base).tolist() == select_option(shifted).tolist()
    np.testing.assert_allclose(probabilities(base), probabilities(shifted), atol=1e-9)


def test_selection_loss_uniform_is_log4():
    scores, _, _ = score_case([[0.0, 0.0]], np.ones((4, 2)))
    loss = selection_loss(scores, np.array([2]))
    assert loss.item() == pytest.approx(math.log(4.0))


def test_selection_loss_confident_gold_approaches_zero():
    scores = Tensor([[100.0, 0.0, 0.0, 0.0]])
    assert selection_loss(scores, np.array([0])).item() == pytest.approx(0.0, abs=1e-12)


def test_selection_loss_invalid_gold_rejected():
    scores, _, _ = score_case([[0.0, 0.0]], np.ones((4, 2)))
    with pytest.raises(ValueError):
        selection_loss(scores, np.array([4]))


def test_zero_matcher_loss_is_exactly_log4_for_every_instance():
    rng = np.random.default_rng(0)
    w_att, _ = matcher(hidden=2)
    for _ in range(5):
        answer = Tensor(rng.standard_normal((3, 4)))
        options = Tensor(rng.standard_normal((12, 4)))
        scores = bilinear_score(answer, options, w_att)
        loss = selection_loss(scores, rng.integers(0, 4, size=3))
        assert loss.item() == pytest.approx(math.log(4.0), rel=0, abs=1e-15)


def test_option_permutation_equivariance():
    rng = np.random.default_rng(1)
    w_att, _ = matcher(hidden=2)
    w_att.data[...] = rng.standard_normal((4, 4))
    answer = Tensor(rng.standard_normal((1, 4)))
    options = rng.standard_normal((4, 4))
    base = bilinear_score(answer, Tensor(options), w_att)
    perm = np.array([2, 0, 3, 1])
    permuted = bilinear_score(answer, Tensor(options[perm]), w_att)
    np.testing.assert_allclose(permuted.data[0], base.data[0][perm],
                               atol=1e-12)
    gold = 1
    gold_after = int(np.where(perm == gold)[0][0])
    l_base = selection_loss(base, np.array([gold])).item()
    l_perm = selection_loss(permuted, np.array([gold_after])).item()
    assert l_base == pytest.approx(l_perm, abs=1e-12)


def test_matcher_gradient_passes_tight_check():
    rng = np.random.default_rng(2)
    store = ParamStore()
    w_att = init_bilinear(store, hidden=2)
    w_att.data[...] = rng.standard_normal((4, 4)) * 0.3
    answer_data = rng.standard_normal((2, 4))
    option_data = rng.standard_normal((8, 4))
    gold = np.array([1, 3])

    def loss_fn():
        scores = bilinear_score(Tensor(answer_data), Tensor(option_data), w_att)
        return selection_loss(scores, gold)

    report = check_gradients([w_att], loss_fn, tolerance=1e-6)
    assert report.passed, report.summary()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("frozen_options", [False, True], ids=["options", "frozen_options"])
@pytest.mark.parametrize("hidden", [1, 3, 4, 5, 64, 65, 128])
def test_bilinear_score_is_the_sum_of_a_product_bit_for_bit(hidden, frozen_options, dtype):
    # the composite it replaced: each instance's projected answer once per
    # option, times the options, summed along the features
    rng = np.random.default_rng(hidden)
    batch = 3
    w_att, store = matcher(hidden, ParamStore(dtype))
    w_att.data[...] = rng.standard_normal(w_att.data.shape)
    answer = store.create("answer", rng.standard_normal((batch, 2 * hidden)))
    options = store.create("options", rng.standard_normal((batch * NUM_OPTIONS, 2 * hidden)),
                           trainable=not frozen_options)
    upstream = rng.standard_normal((batch, NUM_OPTIONS)).astype(dtype)

    def composite():
        projected = ad.gather_rows(ad.matmul(answer, w_att),
                                   np.repeat(np.arange(batch), NUM_OPTIONS))
        return ad.reshape(sum_last(ad.mul(projected, options)), (batch, NUM_OPTIONS))

    results = []
    for score in (lambda: bilinear_score(answer, options, w_att), composite):
        ad.zero_grads(store.all())
        out = score()
        ad.backward(ad.tensor_sum(ad.mul_const(out, upstream)))
        results.append([out.data] + [p.grad for p in store.all()])
    assert (results[0][-1] is None) == (results[1][-1] is None) == frozen_options
    for got, want in zip(*results):
        if want is not None:
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()
