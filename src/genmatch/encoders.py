"""Sequence encoders: character-aware word embeddings and bidirectional GRU
contextual encodings.

Sequences travel through the graph as flat 2-D tensors. An embedded
sequence is laid out position-major, (T*B, D) with row ``t*B + b``; a
contextual encoding is laid out batch-major, (B*T, 2H) with row ``b*T + t``,
which is what the attention ops consume. The layout changes inside the one
tape op of a BiGRU, ``autodiff.gru_sequence`` over both directions.

Padded rows of an embedded sequence are not zeroed: they hold whatever the
gathers return. Their one reader, ``gru_sequence``, skips them: the state
passes through a padded position unchanged, the output there is zero, and
no gradient flows back into a padded input row.

Nothing here draws dropout. ``PipelineModel`` owns it: it drops the
embedded sequence going into each encode and the states coming out, while
``final`` keeps the states before dropout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Parameter, Tensor
from .corpus import CharVocabulary, pad_block


def init_bigru(store: ParamStore, prefix: str, input_dim: int, hidden: int,
               rng: np.random.Generator) -> tuple[ad.GRUCellParams, ad.GRUCellParams]:
    """A BiGRU encoder: its forward and backward cells, as ``gru_sequence``
    takes them."""
    return (ad.init_gru_cell(store, f"{prefix}.fwd", input_dim, hidden, rng),
            ad.init_gru_cell(store, f"{prefix}.bwd", input_dim, hidden, rng))


@dataclass
class EmbeddedSequence:
    """Per-position input vectors and the bool mask, True at real tokens;
    rows at padded positions hold unread values."""

    flat: Tensor              # (T*B, D), position-major
    mask: np.ndarray          # (B, T)

    @property
    def length(self) -> int:
        return self.mask.shape[1]


@dataclass
class ContextualEncoding:
    """Per-position forward/backward state concatenations plus final states."""

    flat: Tensor              # (B*T, 2H), batch-major
    mask: np.ndarray          # (B, T), bool, True at real tokens
    final: Tensor             # (B, 2H), the state each direction ends in

    def mean_pooled(self) -> Tensor:
        """Mean over each row's unmasked positions: (B, 2H)."""
        weights = self.mask.astype(self.flat.data.dtype)
        counts = weights.sum(axis=1)
        if np.any(counts <= 0):
            raise ValueError("masked mean over an empty sequence")
        return ad.mul_const(ad.weighted_sum(Tensor(weights), [self.flat]), (1.0 / counts)[:, None])


def embed_ids(table: Parameter | Tensor, ids: np.ndarray, mask: np.ndarray) -> EmbeddedSequence:
    """Gather embedding rows for padded (B, T) ids into a position-major
    flat sequence."""
    return EmbeddedSequence(flat=ad.gather_rows(table, ids.T.reshape(-1)), mask=mask)


def bigru_encode(seq: EmbeddedSequence, cells) -> ContextualEncoding:
    """Run the (forward, backward) ``cells`` over the sequence; masked
    positions neither advance the recurrent state nor emit output vectors."""
    if seq.flat.data.shape[1] != cells[0].input_dim:
        raise ValueError(f"input dim {seq.flat.data.shape[1]} != encoder dim "
                         f"{cells[0].input_dim}")
    (batch, length), hidden = seq.mask.shape, cells[0].hidden
    zero = Tensor(np.zeros((batch, hidden), dtype=seq.flat.data.dtype))
    states = ad.gru_sequence(seq.flat, zero, cells, seq.mask)
    # going forward the state ends at the last unmasked position, going backward
    # at the first; row 2*(b*T + t) of the (B*T*2, H) view is (b, t)'s forward half
    starts = np.arange(batch) * length
    rows = np.stack([2 * (starts + length - 1 - seq.mask[:, ::-1].argmax(axis=1)),
                     2 * (starts + seq.mask.argmax(axis=1)) + 1], axis=1).reshape(-1)
    halves = ad.gather_rows(ad.reshape(states, (2 * batch * length, hidden)), rows)
    return ContextualEncoding(flat=states, mask=seq.mask,
                              final=ad.reshape(halves, (batch, 2 * hidden)))


# ---------------------------------------------------------------------------
# character-level features


@dataclass
class CharEncoderParams:
    table: Parameter          # (char vocab, char dim)
    gru: tuple[ad.GRUCellParams, ad.GRUCellParams]  # forward, backward

    @property
    def feature_dim(self) -> int:
        return 2 * self.gru[0].hidden


def init_char_encoder(store: ParamStore, char_vocab: CharVocabulary, char_dim: int,
                      char_hidden: int, rng: np.random.Generator) -> CharEncoderParams:
    shape = (len(char_vocab), char_dim)
    table = store.create("char.table", ad.Initializer(
        shape, lambda: rng.uniform(-0.1, 0.1, size=shape)))
    gru = init_bigru(store, "char.gru", char_dim, char_hidden, rng)
    return CharEncoderParams(table=table, gru=gru)


def char_embed_tokens(tokens: list[str], params: CharEncoderParams,
                      char_vocab: CharVocabulary) -> Tensor:
    """Encode each token's character sequence, returning the concatenation
    of final forward/backward states, one row per token."""
    if any(not tok for tok in tokens):
        raise ValueError("cannot char-embed an empty token")
    ids, mask = pad_block([char_vocab.ids(tok) for tok in tokens])
    return bigru_encode(embed_ids(params.table, ids, mask), params.gru).final


def embed_with_chars(word_table: Parameter, char_params: CharEncoderParams,
                     char_vocab: CharVocabulary, ids: np.ndarray,
                     surfaces: list, mask: np.ndarray) -> EmbeddedSequence:
    """Word rows concatenated with per-token character features, before
    any dropout.

    Character vectors are computed once per distinct surface form in the
    batch (so out-of-vocabulary words still get their own characters) and
    gathered back per position.
    """
    word_flat = ad.gather_rows(word_table, ids.T.reshape(-1))
    # the unmasked positions in row-major order, so surfaces are indexed first seen first
    rows, cols = np.nonzero(mask)
    tokens = [surfaces[b][t] for b, t in zip(rows.tolist(), cols.tolist())]
    distinct = {tok: slot for slot, tok in enumerate(dict.fromkeys(tokens))}
    pointer = np.zeros(ids.T.shape, dtype=np.int64)
    pointer[cols, rows] = [distinct[tok] for tok in tokens]
    char_matrix = char_embed_tokens(list(distinct), char_params, char_vocab)
    flat = ad.concat([word_flat, ad.gather_rows(char_matrix, pointer.reshape(-1))], axis=1)
    return EmbeddedSequence(flat=flat, mask=mask)


# ---------------------------------------------------------------------------
# evidence indicator channels


def add_span_channels(seq: EmbeddedSequence, spans) -> EmbeddedSequence:
    """The sequence with a start and an end indicator channel appended to
    each position, as the synthesis encoder reads it. ``spans`` holds one
    inclusive (start, end) pair per instance, inside that instance's
    unmasked length. The channels are a constant part of the concat, so a
    recorded result keeps only ``seq`` for its backward, and one made under
    ``no_grad`` keeps nothing: ``seq`` is freed with its last reference."""
    batch, length = seq.mask.shape
    if len(spans) != batch:
        raise ValueError(f"{len(spans)} spans for a batch of {batch}")
    lengths = seq.mask.sum(axis=1)
    channels = np.zeros((length, batch, 2), dtype=seq.flat.data.dtype)
    for b, ((start, end), n) in enumerate(zip(spans, lengths)):
        if not 0 <= start <= end < n:
            raise ValueError(f"span ({start}, {end}) invalid for length {n}")
        channels[start, b, 0] = 1.0
        channels[end, b, 1] = 1.0
    flat = ad.concat([seq.flat, Tensor(channels.reshape(-1, 2))], axis=1)
    return EmbeddedSequence(flat=flat, mask=seq.mask)
