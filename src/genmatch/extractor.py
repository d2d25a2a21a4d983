"""Evidence span extraction over the passage.

A pooled question vector conditions two attention passes over the passage
states: the first yields the span-start distribution (and a weighted
passage summary), the second, conditioned on that summary, yields the
span-end distribution. The selected span maximizes the start/end
probability product over feasible pairs. Training targets come from
distant supervision: the bounded-length span with the best unigram F1
against the correct option's tokens.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import AttentionParams, additive_attention, init_attention
from .autodiff import ParamStore, Parameter, Tensor
from .encoders import ContextualEncoding


@dataclass(frozen=True)
class EvidenceSpan:
    """Inclusive (start, end) positions."""

    start: int
    end: int

    def __post_init__(self):
        if not 0 <= self.start <= self.end:
            raise ValueError(f"invalid span ({self.start}, {self.end})")


@dataclass
class SpanDistributions:
    """Start/end position distributions over the padded passage block."""

    start: Tensor  # (B, P)
    end: Tensor    # (B, P)


@dataclass
class ExtractorParams:
    pool_query: Parameter          # (2H, 1)
    start_attention: AttentionParams
    end_attention: AttentionParams


def init_extractor(store: ParamStore, hidden: int, rng: np.random.Generator) -> ExtractorParams:
    mem = 2 * hidden
    return ExtractorParams(
        pool_query=store.create("extract.pool_query", ad.glorot(rng, mem, 1)),
        start_attention=init_attention(store, "extract.start", mem, mem, hidden, rng),
        end_attention=init_attention(store, "extract.end", mem, 2 * mem, hidden, rng),
    )


def pool_question(encoding: ContextualEncoding, params: ExtractorParams) -> Tensor:
    """Attention-pool the question states with a learned query vector."""
    scores = ad.reshape(ad.matmul(encoding.flat, params.pool_query), encoding.mask.shape)
    return ad.weighted_sum(ad.masked_softmax(scores, encoding.mask), [encoding.flat])


def feasible_span_argmax(start_probs: np.ndarray, end_probs: np.ndarray,
                         lengths, max_span: int) -> list[EvidenceSpan]:
    """For each row b of the (B, P) start and end probabilities, maximize
    start*end over {(s, e): s <= e < s + max_span, e < lengths[b]}; ties
    prefer the smaller start, then the smaller end. Returns the B spans."""
    lengths = np.asarray(lengths)
    if lengths.size and lengths.min() < 1:
        raise ValueError("every row needs at least one position")
    batch, width = start_probs.shape
    valid = np.arange(width) < lengths[:, None]
    # one window of max_span ends per start, padded past each row's length
    # with -inf, which no probability loses to; argmax takes the first maximum
    padded = np.full((batch, width + max_span - 1), -np.inf, dtype=end_probs.dtype)
    np.copyto(padded[:, :width], end_probs, where=valid)
    windows = np.lib.stride_tricks.sliding_window_view(padded, max_span, axis=1)[:, :width]
    offsets = windows.argmax(axis=2)
    best_end = np.take_along_axis(windows, offsets[..., None], axis=2)[..., 0]
    # a start past its row's length scores -inf; its window holds no end
    scores = np.full((batch, width), -np.inf, dtype=np.result_type(start_probs, end_probs))
    np.multiply(start_probs, best_end, out=scores, where=valid)
    starts = scores.argmax(axis=1)
    return [EvidenceSpan(start=int(s), end=int(s + offsets[b, s])) for b, s in enumerate(starts)]


def predict_span(passage: ContextualEncoding, question_vector: Tensor,
                 params: ExtractorParams,
                 max_span: int) -> tuple[SpanDistributions, list[EvidenceSpan]]:
    """Span distributions plus the per-instance argmax span. The end pass
    needs no context, so it records the attention weights alone."""
    start, end = params.start_attention, params.end_attention
    summary, start_dist = additive_attention(
        question_vector, [(passage.flat, ad.matmul(passage.flat, start.w_memory), passage.mask)],
        start)
    end_query = ad.concat([question_vector, summary], axis=1)
    end_dist = ad.attention_weights(
        end_query, [(ad.matmul(passage.flat, end.w_memory), passage.mask)],
        end.w_query, end.bias, end.v)
    spans = feasible_span_argmax(start_dist.data, end_dist.data,
                                 passage.mask.sum(axis=1), max_span)
    return SpanDistributions(start=start_dist, end=end_dist), spans


def oracle_span(passage_tokens, option_tokens, max_span: int) -> EvidenceSpan | None:
    """Distant-supervision target: the span (length <= max_span) with maximal
    unigram F1 against the option tokens; ties prefer shorter spans, then
    earlier ones. Returns None when no span shares a token with the option.

    F1 comparisons are done on cross-multiplied integers, so ties are exact.
    """
    length = len(passage_tokens)
    longest = min(max_span, length)
    option_counts = Counter(option_tokens)
    # one row per option token that the passage holds, so every other token scores 0
    shared = {tok: i for i, tok in enumerate(option_counts.keys() & set(passage_tokens))}
    if longest < 1 or not shared:
        return None
    caps = np.array([option_counts[tok] for tok in shared])
    ids = np.array([shared.get(tok, -1) for tok in passage_tokens])
    # prefix[v, i]: occurrences of shared token v among the first i passage tokens
    prefix = np.zeros((len(shared), length + 1), dtype=np.int64)
    np.cumsum(ids == np.arange(len(shared))[:, None], axis=1, out=prefix[:, 1:])
    # the clipped overlap of the span of each length (rows) at each start (columns)
    lengths = np.arange(1, longest + 1)
    ends = np.minimum(np.arange(length) + lengths[:, None], length)
    counts = prefix[:, ends] - prefix[:, None, :length]
    overlap = np.minimum(counts, caps[:, None, None]).sum(axis=0)
    overlap[ends - np.arange(length) < lengths[:, None]] = -1  # spans that run past the end
    starts = overlap.argmax(axis=1)  # each length's first best start
    best = overlap[lengths - 1, starts]  # at least 1: a shared token spans itself
    # F1 = 2 * best / (length + len(option)): the shortest length that no
    # other beats, compared as cross-multiplied integers
    denom = lengths + len(option_tokens)
    unbeaten = (best[:, None] * denom[None, :] >= best[None, :] * denom[:, None]).all(axis=1)
    k = int(unbeaten.argmax())
    start = int(starts[k])
    return EvidenceSpan(start=start, end=start + k)


def span_loss(distributions: SpanDistributions, targets: list[EvidenceSpan | None]) -> Tensor:
    """Mean negative log-likelihood of the target start and end positions,
    averaged over instances that have a target."""
    batch, width = distributions.start.data.shape
    if len(targets) != batch:
        raise ValueError("one target (or None) per instance required")
    dtype = distributions.start.data.dtype
    start_idx = np.zeros(batch, dtype=np.int64)
    end_idx = np.zeros(batch, dtype=np.int64)
    valid = np.zeros((batch, 1), dtype=dtype)
    for b, span in enumerate(targets):
        if span is None:
            continue
        if span.end >= width:
            raise ValueError(f"target span {span} out of range for width {width}")
        start_idx[b], end_idx[b] = span.start, span.end
        valid[b, 0] = 1.0
    n_valid = valid.sum()
    if n_valid == 0:
        return Tensor(np.zeros((), dtype=dtype))
    # each row's target probability, picked from the distributions' flat cells
    offsets = np.arange(batch) * width
    log_start = ad.log(ad.gather_rows(ad.reshape(distributions.start, (batch * width, 1)),
                                      offsets + start_idx))
    log_end = ad.log(ad.gather_rows(ad.reshape(distributions.end, (batch * width, 1)),
                                    offsets + end_idx))
    # the sign folds into the mean's factor: negation commutes with every rounding
    log_likelihood = ad.tensor_sum(ad.mul_const(ad.add(log_start, log_end), valid))
    return ad.mul_const(log_likelihood, -(1.0 / n_valid))
