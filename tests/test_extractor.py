import importlib.util
import itertools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmatch import autodiff as ad
from genmatch.autodiff import ParamStore, Tensor
from genmatch.corpus import parse_race_record
from genmatch.encoders import ContextualEncoding
from genmatch.extractor import (
    EvidenceSpan,
    SpanDistributions,
    feasible_span_argmax,
    init_extractor,
    oracle_span,
    pool_question,
    predict_span,
    span_loss,
)

from helpers import (
    build_micro_model,
    check_gradients,
    composite_span_loss,
    loop_feasible_span_argmax,
    loop_oracle_span,
    positions,
    toy_instances,
)


def make_encoding(rng, batch, length, hidden, mask=None):
    mask = mask if mask is not None else np.ones((batch, length), dtype=bool)
    data = rng.standard_normal((batch * length, 2 * hidden))
    data *= mask.reshape(-1, 1)
    return ContextualEncoding(flat=Tensor(data), mask=mask,
                              final=Tensor(np.zeros((batch, 2 * hidden))))


def extractor(rng, hidden, store=None):
    store = store or ParamStore()
    return init_extractor(store, hidden, rng), store


# ---------------------------------------------------------------------------
# question pooling


def test_pool_length_one_returns_the_position():
    rng = np.random.default_rng(0)
    params, _ = extractor(rng, 3)
    enc = make_encoding(rng, 2, 1, 3)
    pooled = pool_question(enc, params)
    np.testing.assert_allclose(pooled.data, positions(enc)[:, 0, :], atol=1e-12)


def test_pool_uniform_scores_gives_mean():
    rng = np.random.default_rng(1)
    params, _ = extractor(rng, 3)
    params.pool_query.data[...] = 0.0  # all scores equal
    enc = make_encoding(rng, 1, 4, 3)
    pooled = pool_question(enc, params)
    np.testing.assert_allclose(pooled.data[0], positions(enc)[0].mean(axis=0), atol=1e-12)


def test_pool_weights_respect_mask():
    rng = np.random.default_rng(2)
    params, _ = extractor(rng, 2)
    mask = np.array([[True, True, False]])
    enc = make_encoding(rng, 1, 3, 2, mask=mask)
    pooled = pool_question(enc, params)
    assert np.all(np.isfinite(pooled.data))
    with pytest.raises(ValueError):
        pool_question(make_encoding(rng, 1, 2, 2, mask=np.zeros((1, 2), dtype=bool)), params)


# ---------------------------------------------------------------------------
# span prediction


def test_predict_span_length_one_passage():
    rng = np.random.default_rng(3)
    params, _ = extractor(rng, 3)
    passage = make_encoding(rng, 1, 1, 3)
    qv = Tensor(rng.standard_normal((1, 6)))
    dists, spans = predict_span(passage, qv, params, max_span=30)
    assert spans[0].start == 0 and spans[0].end == 0
    np.testing.assert_allclose(dists.start.data.sum(), 1.0, atol=1e-6)


def brute_force_argmax(start_probs, end_probs, length, max_span):
    best = None
    for s, e in itertools.product(range(length), repeat=2):
        if s <= e < s + max_span:
            p = start_probs[s] * end_probs[e]
            if best is None or p > best[0]:
                best = (p, s, e)
    return best[1], best[2]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**30))
def test_predict_span_argmax_matches_brute_force(length, max_span, seed):
    rng = np.random.default_rng(seed)
    params, _ = extractor(rng, 2)
    passage = make_encoding(rng, 1, length, 2)
    qv = Tensor(rng.standard_normal((1, 4)))
    dists, spans = predict_span(passage, qv, params, max_span=max_span)
    s, e = brute_force_argmax(dists.start.data[0], dists.end.data[0], length, max_span)
    assert (spans[0].start, spans[0].end) == (s, e)


def test_distributions_sum_to_one_on_unmasked():
    rng = np.random.default_rng(4)
    params, _ = extractor(rng, 3)
    mask = np.array([[True] * 4 + [False] * 2, [True] * 6])
    passage = make_encoding(rng, 2, 6, 3, mask=mask)
    qv = Tensor(rng.standard_normal((2, 6)))
    dists, spans = predict_span(passage, qv, params, max_span=30)
    np.testing.assert_allclose(dists.start.data.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_allclose(dists.end.data.sum(axis=1), 1.0, atol=1e-6)
    np.testing.assert_array_equal(dists.start.data[0, 4:], 0.0)
    assert spans[0].end < 4  # feasibility enforced structurally


def argmax_one(start_probs, end_probs, length, max_span):
    """``feasible_span_argmax`` on one row, as a batch of one."""
    (span,) = feasible_span_argmax(start_probs[None], end_probs[None], [length], max_span)
    return span


@pytest.mark.filterwarnings("error")
def test_feasible_span_tie_rules():
    start = np.array([0.5, 0.5])
    end = np.array([0.5, 0.5])
    span = argmax_one(start, end, 2, max_span=2)
    assert (span.start, span.end) == (0, 0)


def assert_spans_match_the_loop(instances):
    """Every instance's predicted span, and the argmax at two more span caps,
    equal the per-start loop's."""
    model, config, _, batches = build_micro_model(instances, batch_size=16)
    compared = 0
    with ad.no_grad():
        for batch in batches:
            passage, question = model._embed_batch(batch)
            dists, spans = model.predict_spans(passage, question)
            lengths = batch.passage_mask.sum(axis=1).astype(int)
            for b, span in enumerate(spans):
                args = (dists.start.data[b], dists.end.data[b], int(lengths[b]))
                assert span == loop_feasible_span_argmax(*args, config.max_span)
                for cap in (1, 30):
                    assert argmax_one(*args, cap) == loop_feasible_span_argmax(*args, cap)
                compared += 1
    assert compared == len(instances)


@pytest.mark.filterwarnings("error")
def test_feasible_span_argmax_matches_the_loop_on_the_toy_corpus():
    assert_spans_match_the_loop(toy_instances(n_passages=200, seed=7))


def exam_like_instances():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "examgen.py"
    spec = importlib.util.spec_from_file_location("examgen", path)
    examgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(examgen)
    rng = np.random.default_rng(3)
    records = examgen.make_records(rng, examgen.make_lexicon(rng, size=3000), 24, "span")
    return [inst for r in records for inst in parse_race_record(r)]


@pytest.mark.filterwarnings("error")
def test_feasible_span_argmax_matches_the_loop_on_exam_like_instances():
    assert_spans_match_the_loop(exam_like_instances())


@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=35),
       st.integers(min_value=0, max_value=2**30))
def test_feasible_span_argmax_matches_the_loop_on_ties(length, max_span, seed):
    # probabilities drawn from three values, so that most products tie
    rng = np.random.default_rng(seed)
    start = rng.choice([0.125, 0.25, 0.5], size=length + 3)
    end = rng.choice([0.125, 0.25, 0.5], size=length + 3)
    got = argmax_one(start, end, length, max_span)
    assert got == loop_feasible_span_argmax(start, end, length, max_span)


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=2**30))
def test_feasible_span_argmax_of_a_batch_matches_the_loop_per_row(lengths, max_span, seed):
    # rows of mixed lengths, their padding zero like a masked softmax's,
    # and probabilities from three values, so that most products tie
    rng = np.random.default_rng(seed)
    width = max(lengths)
    held = np.arange(width) < np.array(lengths)[:, None]
    start = np.where(held, rng.choice([0.125, 0.25, 0.5], size=held.shape), 0.0)
    end = np.where(held, rng.choice([0.125, 0.25, 0.5], size=held.shape), 0.0)
    got = feasible_span_argmax(start, end, lengths, max_span)
    assert got == [loop_feasible_span_argmax(start[b], end[b], n, max_span)
                   for b, n in enumerate(lengths)]


# ---------------------------------------------------------------------------
# oracle spans


def brute_force_oracle(passage, option, max_span):
    best = None
    opt = Counter(option)
    for s in range(len(passage)):
        for e in range(s, min(len(passage), s + max_span)):
            window = Counter(passage[s:e + 1])
            overlap = sum(min(c, opt[t]) for t, c in window.items())
            if overlap == 0:
                continue
            f1 = Fraction(2 * overlap, (e - s + 1) + len(option))
            key = (f1, -(e - s + 1), -s)
            if best is None or key > best[0]:
                best = (key, s, e)
    if best is None:
        return None
    return best[1], best[2]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("abcdef"), max_size=40),
       st.lists(st.sampled_from("abcdefg"), max_size=6),
       st.integers(min_value=0, max_value=45))
def test_oracle_matches_the_loop(passage, option, max_span):
    # empty passages and options, repeated tokens, spans capped past the passage
    assert oracle_span(passage, option, max_span) == loop_oracle_span(passage, option, max_span)


def test_oracle_matches_the_loop_on_the_toy_corpus_and_exam_like_instances():
    instances = toy_instances(n_passages=200, seed=7) + exam_like_instances()
    for inst in instances:
        for option in inst.option_tokens:
            assert (oracle_span(inst.passage_tokens, option, 30)
                    == loop_oracle_span(inst.passage_tokens, option, 30))


def test_oracle_verbatim_option_gets_exact_occurrence():
    passage = "the cat is red . the dog is blue .".split()
    span = oracle_span(passage, ["red"], max_span=30)
    assert (span.start, span.end) == (3, 3)


def test_oracle_no_overlap_returns_none():
    assert oracle_span(["a", "b", "c"], ["x", "y"], max_span=30) is None


def test_oracle_prefers_shortest_then_earliest():
    passage = ["x", "y", "x", "y"]
    span = oracle_span(passage, ["x", "y"], max_span=30)
    assert (span.start, span.end) == (0, 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=10),
       st.lists(st.sampled_from("abcd"), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=6))
def test_oracle_matches_brute_force(passage, option, max_span):
    got = oracle_span(passage, option, max_span=max_span)
    want = brute_force_oracle(passage, option, max_span)
    if want is None:
        assert got is None
    else:
        assert (got.start, got.end) == want


# ---------------------------------------------------------------------------
# span loss


def test_span_loss_probability_one_is_zero():
    start = Tensor([[1.0, 0.0, 0.0]])
    end = Tensor([[0.0, 1.0, 0.0]])
    loss = span_loss(SpanDistributions(start=start, end=end), [EvidenceSpan(0, 1)])
    assert loss.item() == pytest.approx(0.0)


def test_span_loss_uniform_is_two_log_p():
    p = 5
    start = Tensor(np.full((1, p), 1.0 / p))
    end = Tensor(np.full((1, p), 1.0 / p))
    loss = span_loss(SpanDistributions(start=start, end=end), [EvidenceSpan(2, 3)])
    assert loss.item() == pytest.approx(2.0 * math.log(p))


def test_span_loss_skips_instances_without_targets():
    start = Tensor(np.full((2, 4), 0.25))
    end = Tensor(np.full((2, 4), 0.25))
    loss = span_loss(SpanDistributions(start=start, end=end),
                     [None, EvidenceSpan(1, 2)])
    assert loss.item() == pytest.approx(2.0 * math.log(4))
    zero = span_loss(SpanDistributions(start=start, end=end), [None, None])
    assert zero.item() == 0.0


def test_span_loss_target_out_of_range():
    start = Tensor(np.full((1, 3), 1 / 3))
    end = Tensor(np.full((1, 3), 1 / 3))
    with pytest.raises(ValueError):
        span_loss(SpanDistributions(start=start, end=end), [EvidenceSpan(0, 5)])


SPAN_TARGETS = {
    # a target at the last padded width, two rows without one
    "some_none": [EvidenceSpan(0, 6), None, EvidenceSpan(0, 0), EvidenceSpan(2, 6), None,
                  EvidenceSpan(1, 1)],
    "all_valid": [EvidenceSpan(3, 6), EvidenceSpan(4, 4), EvidenceSpan(0, 0), EvidenceSpan(6, 6),
                  EvidenceSpan(0, 2), EvidenceSpan(1, 1)],
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("targets", list(SPAN_TARGETS))
def test_span_loss_is_bit_identical_to_the_composite(targets, dtype):
    rng = np.random.default_rng(19)
    # right-padded rows of lengths 7, 5, 1, 7, 3 and 2
    mask = np.arange(7)[None, :] < np.array([7, 5, 1, 7, 3, 2])[:, None]
    store = ParamStore(dtype)
    dists = []
    for name in ("start", "end"):
        weights = rng.random(mask.shape) * mask
        dists.append(store.create(name, weights / weights.sum(axis=1, keepdims=True)))
    start, end = dists
    loss = span_loss(SpanDistributions(start=start, end=end), SPAN_TARGETS[targets])
    ad.backward(loss)
    want = composite_span_loss(start.data, end.data, SPAN_TARGETS[targets])
    for got, ref in zip((np.asarray(loss.data), start.grad, end.grad), want):
        assert got.dtype == ref.dtype == dtype
        assert got.tobytes() == ref.tobytes()


def test_extractor_gradients_pass_check():
    rng = np.random.default_rng(5)
    params, store = extractor(rng, 3)
    mask = np.array([[True] * 5, [True] * 3 + [False] * 2])
    enc_data = rng.standard_normal((2 * 5, 6)) * mask.reshape(-1, 1)
    q_data = rng.standard_normal((2 * 4, 6))

    def loss_fn():
        passage = ContextualEncoding(flat=Tensor(enc_data), mask=mask,
                                     final=Tensor(np.zeros((2, 6))))
        question = ContextualEncoding(flat=Tensor(q_data), mask=np.ones((2, 4), dtype=bool),
                                      final=Tensor(np.zeros((2, 6))))
        qv = pool_question(question, params)
        dists, _ = predict_span(passage, qv, params, max_span=30)
        return span_loss(dists, [EvidenceSpan(1, 2), EvidenceSpan(0, 0)])

    report = check_gradients(store.all(), loss_fn, tolerance=1e-4)
    assert report.passed, report.summary()
