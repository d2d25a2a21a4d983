"""Additive attention over one or more batch-major flattened memories.

Scores are v . tanh(W_m m_j + W_q q + b) for every position j of every
memory, softmax-normalized jointly over the unmasked positions; the
context is the weight-averaged memory. The keys W_m m_j do not depend on
the query, so a caller projects each memory once and passes its keys in;
the decoder attends with a new query at every step. The extractor attends
over the passage alone, the decoder over the passage and the question
together.

An attention call records two tape ops of ``autodiff``:
``attention_weights`` (scores and softmax) and ``weighted_sum`` (the
context). Both compute their forward in blocks of whole instances sized by
``autodiff._ATTENTION_BLOCK``, so each block stays in cache between passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Parameter, Tensor


@dataclass
class AttentionParams:
    w_memory: Parameter   # (M, A)
    w_query: Parameter    # (S, A)
    bias: Parameter       # (A,)
    v: Parameter          # (A, 1)


# Score layers start 3x wider than plain glorot: with unit-scale inputs the
# tanh units then sit in their curved region, where the additive query can
# actually shift the per-position ranking (near zero the query is only a
# constant offset and the scorer stays query-blind).
_SCORE_INIT_GAIN = 3.0


def init_attention(store: ParamStore, prefix: str, memory_dim: int, query_dim: int,
                   proj_dim: int, rng: np.random.Generator) -> AttentionParams:
    def scaled(fan_in, fan_out):
        return ad.glorot(rng, fan_in, fan_out, gain=_SCORE_INIT_GAIN)

    return AttentionParams(
        w_memory=store.create(f"{prefix}.w_memory", scaled(memory_dim, proj_dim)),
        w_query=store.create(f"{prefix}.w_query", scaled(query_dim, proj_dim)),
        bias=store.create(f"{prefix}.bias", ad.zeros(proj_dim)),
        v=store.create(f"{prefix}.v", scaled(proj_dim, 1)),
    )


def additive_attention(query: Tensor, memories, params: AttentionParams) -> tuple[Tensor, Tensor]:
    """Attend a (B, S) query over one or more memories jointly.

    ``memories`` is a list of (memory_flat, keys, mask) triples: a
    batch-major (B*T_i, M) memory, its (B*T_i, A) keys
    ``matmul(memory_flat, params.w_memory)`` and its (B, T_i) mask, all
    sharing M. One softmax runs across every memory's positions. Returns
    (context (B, M), weights (B, sum T_i)); the weights carry zero mass on
    masked positions and sum to 1 over each row.
    """
    if not memories or any(flat.data.shape[0] == 0 for flat, _, _ in memories):
        raise ValueError("attention over an empty memory")
    weights = ad.attention_weights(query, [(keys, mask) for _, keys, mask in memories],
                                   params.w_query, params.bias, params.v)
    context = ad.weighted_sum(weights, [flat for flat, _, _ in memories])
    return context, weights
