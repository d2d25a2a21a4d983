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

DEFAULT_MAX_SPAN = 30


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
    scores = ad.reshape(ad.matmul(encoding.flat, params.pool_query),
                        (encoding.batch, encoding.length))
    return ad.weighted_sum(ad.masked_softmax(scores, encoding.mask), [encoding.flat])


def feasible_span_argmax(start_probs: np.ndarray, end_probs: np.ndarray,
                         length: int, max_span: int) -> EvidenceSpan:
    """Maximize start*end over {(s, e): s <= e < s + max_span, e < length};
    ties prefer the smaller start, then the smaller end."""
    # one window of max_span ends per start, padded past ``length`` with -inf,
    # which no probability loses to; argmax takes the first maximum
    padded = np.full(length + max_span - 1, -np.inf, dtype=end_probs.dtype)
    padded[:length] = end_probs[:length]
    windows = np.lib.stride_tricks.sliding_window_view(padded, max_span)[:length]
    offsets = windows.argmax(axis=1)
    starts = np.arange(length)
    s = int(np.argmax(start_probs[:length] * windows[starts, offsets]))
    e = s + int(offsets[s])
    return EvidenceSpan(start=s, end=e)


def predict_span(passage: ContextualEncoding, question_vector: Tensor,
                 params: ExtractorParams,
                 max_span: int = DEFAULT_MAX_SPAN) -> tuple[SpanDistributions, list[EvidenceSpan]]:
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
    lengths = passage.mask.sum(axis=1).astype(int)
    spans = [feasible_span_argmax(start_dist.data[b], end_dist.data[b],
                                  int(lengths[b]), max_span)
             for b in range(passage.batch)]
    return SpanDistributions(start=start_dist, end=end_dist), spans


def oracle_span(passage_tokens, option_tokens,
                max_span: int = DEFAULT_MAX_SPAN) -> EvidenceSpan | None:
    """Distant-supervision target: the span (length <= max_span) with maximal
    unigram F1 against the option tokens; ties prefer shorter spans, then
    earlier ones. Returns None when no span shares a token with the option.

    F1 comparisons are done on cross-multiplied integers, so ties are exact.
    """
    option_counts = Counter(option_tokens)
    option_len = len(option_tokens)
    best = None  # (overlap, denominator, start, end)
    for s in range(len(passage_tokens)):
        window_counts: Counter = Counter()
        overlap = 0
        for e in range(s, min(len(passage_tokens), s + max_span)):
            token = passage_tokens[e]
            window_counts[token] += 1
            if window_counts[token] <= option_counts.get(token, 0):
                overlap += 1
            if overlap == 0:
                continue
            denom = (e - s + 1) + option_len
            if best is None:
                best = (overlap, denom, s, e)
                continue
            b_overlap, b_denom, b_s, b_e = best
            # F1 = 2*overlap/denom; compare as fractions
            lhs = overlap * b_denom
            rhs = b_overlap * denom
            if lhs > rhs or (lhs == rhs and denom < b_denom):
                best = (overlap, denom, s, e)
    if best is None:
        return None
    _, _, s, e = best
    return EvidenceSpan(start=s, end=e)


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
