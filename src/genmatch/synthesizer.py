"""Answer synthesis: a GRU decoder with additive attention over the
feature-augmented passage and question encodings.

Each step reads the previous word embedding and the previous context
vector, produces a new hidden state and attends over the combined memory,
whose attention keys are projected once per sequence. The loops pass the
decoder state as plain tensors: ``initial_state`` gives (hidden, word
embedding, context), ``decode_step`` gives the next (hidden, context), and
each loop looks up the next word embedding itself. [hidden ; context]
is projected to vocabulary logits: at every step when decoding, which is
greedy and stops at the end token or a length cap, and once for all steps
when training, which is teacher-forced with mean per-token cross-entropy
against the correct option's tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import AttentionParams, additive_attention, init_attention
from .autodiff import ParamStore, Parameter, Tensor
from .corpus import BOS, EOS, PAD, Vocabulary, pad_block
from .encoders import ContextualEncoding


@dataclass
class DecoderParams:
    gru: ad.GRUCellParams        # input = [word emb ; context]
    attention: AttentionParams
    init_w: Parameter            # (4H, Hd) from [pooled question ; pooled passage]
    init_b: Parameter
    out_w: Parameter             # (Hd + 2H, |V|)
    out_b: Parameter


def init_decoder(store: ParamStore, embed_dim: int, hidden: int, vocab_size: int,
                 rng: np.random.Generator) -> DecoderParams:
    memory_dim = 2 * hidden
    return DecoderParams(
        gru=ad.init_gru_cell(store, "decoder.gru", embed_dim + memory_dim, hidden, rng),
        attention=init_attention(store, "decoder.attention", memory_dim, hidden,
                                 hidden, rng),
        init_w=store.create("decoder.init_w", ad.glorot(rng, 2 * memory_dim, hidden)),
        init_b=store.create("decoder.init_b", ad.zeros(hidden)),
        out_w=store.create("decoder.out_w", ad.glorot(rng, hidden + memory_dim, vocab_size)),
        out_b=store.create("decoder.out_b", ad.zeros(vocab_size)),
    )


def decoder_memory(passage: ContextualEncoding, question: ContextualEncoding,
                   params: AttentionParams) -> list[tuple[Tensor, Tensor, np.ndarray]]:
    """The attention memory, passage (feature-augmented) then question: one
    (values, keys, mask) part each, with keys no decode step changes."""
    return [(enc.flat, ad.matmul(enc.flat, params.w_memory), enc.mask)
            for enc in (passage, question)]


def initial_state(passage: ContextualEncoding, question: ContextualEncoding,
                  word_table: Parameter | Tensor, batch: int,
                  params: DecoderParams) -> tuple[Tensor, Tensor, Tensor]:
    """(hidden (B, Hd), start token embedding (B, De), zero context (B, 2H))."""
    pooled = ad.concat([question.mean_pooled(), passage.mean_pooled()], axis=1)
    hidden = ad.tanh(ad.add(ad.matmul(pooled, params.init_w), params.init_b))
    bos = ad.gather_rows(word_table, np.full(batch, BOS, dtype=np.int64))
    context = Tensor(np.zeros((batch, passage.flat.data.shape[1]), dtype=passage.flat.data.dtype))
    return hidden, bos, context


def decode_step(hidden: Tensor, word_embedding: Tensor, context: Tensor,
                memory: list[tuple[Tensor, Tensor, np.ndarray]],
                params: DecoderParams) -> tuple[Tensor, Tensor]:
    """One step from the previous hidden state, emitted token's embedding
    and context: returns (new hidden, new context). The caller projects the
    output and picks the next input token."""
    x = ad.concat([word_embedding, context], axis=1)
    step_mask = np.ones((x.data.shape[0], 1), dtype=bool)
    hidden = ad.gru_sequence(x, hidden, (params.gru,), step_mask)
    context, _ = additive_attention(hidden, memory, params.attention)
    return hidden, context


@dataclass(frozen=True)
class GeneratedAnswer:
    """Greedy decode result. ``token_ids`` is the raw emitted sequence
    (end token included when emitted); surface tokens strip it."""

    token_ids: tuple[int, ...]
    surface_tokens: tuple[str, ...]
    text: str
    token_logprobs: tuple[float, ...]


# elements per row block of a greedy step's logits, so that a block stays in
# cache through the finite check, the max, the exp-sum and the argmax
_LOGIT_BLOCK = 1 << 16


def generate_answer(passage: ContextualEncoding, question: ContextualEncoding,
                    word_table, params: DecoderParams, vocab: Vocabulary,
                    max_length: int) -> list[GeneratedAnswer]:
    """Greedy decoding for a batch; pure function of (parameters, inputs).

    Every step projects into one (B, |V|) logits array allocated once per
    call and adds the output bias in place; the rest of the step's logit
    work runs in row blocks of ``_LOGIT_BLOCK`` elements."""
    batch = len(passage.mask)
    emitted: list[list[int]] = [[] for _ in range(batch)]
    logprobs: list[list[float]] = [[] for _ in range(batch)]
    finished = np.zeros(batch, dtype=bool)
    out_w, out_b = params.out_w.data, params.out_b.data
    logits = np.empty((batch, out_w.shape[1]),
                      dtype=np.result_type(passage.flat.data, out_w, out_b))
    rows = max(1, _LOGIT_BLOCK // logits.shape[1])
    scratch = np.empty((min(rows, batch), logits.shape[1]), dtype=logits.dtype)
    with ad.no_grad():
        memory = decoder_memory(passage, question, params.attention)
        hidden, word, context = initial_state(passage, question, word_table, batch, params)
        for _ in range(max_length):
            hidden, context = decode_step(hidden, word, context, memory, params)
            np.matmul(np.concatenate([hidden.data, context.data], axis=1), out_w, out=logits)
            logits += out_b
            picks, logp = _greedy_picks(logits, rows, scratch)
            for b in range(batch):
                if finished[b]:
                    continue
                emitted[b].append(int(picks[b]))
                logprobs[b].append(float(logp[b]))
                if picks[b] == EOS:
                    finished[b] = True
            if finished.all():
                break
            word = ad.gather_rows(word_table, picks)
    answers = []
    for ids, lps in zip(emitted, logprobs):
        surface = tuple(vocab.token_for(i) for i in ids if i != EOS)
        answers.append(GeneratedAnswer(token_ids=tuple(ids), surface_tokens=surface,
                                       text=" ".join(surface),
                                       token_logprobs=tuple(lps)))
    return answers


def _greedy_picks(logits: np.ndarray, rows: int,
                  scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argmax over the tokens other than padding and start, and
    its log-softmax, ``(logit - max) - log(sum(exp(logit - max)))``, taken
    ``rows`` rows at a time. Overwrites ``logits``; ``scratch`` holds a block."""
    picks = np.empty(logits.shape[0], dtype=np.int64)
    logp = np.empty(logits.shape[0], dtype=logits.dtype)
    for lo in range(0, logits.shape[0], rows):
        block = logits[lo:lo + rows]
        ad.check_finite(block, "generate_answer")
        top = block.max(axis=1, keepdims=True)
        shifted = np.subtract(block, top, out=scratch[:len(block)])
        lse = np.log(np.exp(shifted, out=shifted).sum(axis=1))
        block[:, PAD] = -np.inf  # padding and start tokens are never emitted
        block[:, BOS] = -np.inf
        picked = np.argmax(block, axis=1)
        picks[lo:lo + rows] = picked
        logp[lo:lo + rows] = (block[np.arange(len(block)), picked] - top[:, 0]) - lse
    return picks, logp


def teacher_targets(option_ids: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build teacher-forcing arrays from per-instance gold token ids.

    Returns (inputs, targets, mask) of shape (B, L): inputs start with the
    begin token, targets end with the end token.
    """
    if any(len(ids) == 0 for ids in option_ids):
        raise ValueError("empty synthesis target")
    inputs, mask = pad_block([[BOS] + list(ids) for ids in option_ids])
    targets, _ = pad_block([list(ids) + [EOS] for ids in option_ids])
    return inputs, targets, mask


def synthesis_loss(passage: ContextualEncoding, question: ContextualEncoding,
                   word_table, params: DecoderParams,
                   target_ids: list[list[int]]) -> Tensor:
    """Teacher-forced mean per-token cross-entropy of the gold sequence,
    averaged per instance and then over the batch."""
    inputs, targets, mask = teacher_targets(target_ids)
    weights = mask.astype(passage.flat.data.dtype)
    batch, width = targets.shape
    memory = decoder_memory(passage, question, params.attention)
    hidden, word, context = initial_state(passage, question, word_table, batch, params)
    outputs = []
    for t in range(width):
        hidden, context = decode_step(hidden, word, context, memory, params)
        outputs.append(ad.concat([hidden, context], axis=1))
        if t + 1 < width:
            word = ad.gather_rows(word_table, inputs[:, t + 1])
    # one output layer for all L steps, rows step-major (t * B + b)
    step_nll = ad.affine_softmax_nll(ad.concat(outputs, axis=0), params.out_w,
                                     params.out_b, targets.T.reshape(-1))   # (L*B, 1)
    # to instance-major rows, b * L + t, each instance's summed under its mask
    by_instance = np.arange(width * batch).reshape(width, batch).T.ravel()
    per_instance = ad.weighted_sum(Tensor(weights), [ad.gather_rows(step_nll, by_instance)])
    lengths = weights.sum(axis=1, keepdims=True)
    return ad.mean(ad.mul_const(per_instance, 1.0 / lengths))
