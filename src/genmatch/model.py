"""Full pipeline model: shared embeddings, extraction encoders, span
extractor, synthesis encoders, decoder, and the bilinear option matcher.

Parameter layout (prefixes in the store):
  emb                word embedding table (trainable per config)
  char.*             character embedding table + char BiGRU
  extract_passage.*  extraction-stage passage BiGRU
  qz.*               shared question/option/answer BiGRU
  extract.*          question pooling + start/end span attention
  syn_passage.*      synthesis-stage passage BiGRU (two indicator channels)
  syn_question.*     synthesis-stage question BiGRU
  decoder.*          GRU decoder, attention, init/output projections
  select.w_att       bilinear matching matrix (zero-initialized)

The selection stage trains ``select.w_att`` only; everything else, the
shared ``qz.*`` encoder included, is the frozen stage-one set.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore
from .corpus import EOS_TOKEN, Batch, CharVocabulary, Vocabulary, pad_block
from .encoders import (
    EmbeddedSequence,
    add_span_channels,
    bigru_encode,
    embed_with_chars,
    init_bigru,
    init_char_encoder,
)
from .extractor import EvidenceSpan, init_extractor, pool_question, predict_span, span_loss
from .selector import MATCHER_PARAM, bilinear_score, init_bilinear, select_option, selection_loss
from .synthesizer import generate_answer, init_decoder, synthesis_loss

if TYPE_CHECKING:
    from .training import TrainConfig


class PipelineModel:
    """The pipeline as ``config`` builds it; the word table and the output
    layer have one row or column per word of ``vocab``."""

    def __init__(self, config: TrainConfig, vocab: Vocabulary, char_vocab: CharVocabulary,
                 embedding_matrix: np.ndarray | None, rng: np.random.Generator,
                 state: dict[str, np.ndarray] | None):
        self.config = config
        self.vocab = vocab
        self.char_vocab = char_vocab
        store = ParamStore(config.precision, state)
        self.store = store
        self.embedding = store.create(
            "emb", ad.Initializer((len(vocab), config.embed_dim), lambda: embedding_matrix),
            trainable=config.fine_tune_embeddings)
        self.char_encoder = init_char_encoder(store, char_vocab, config.char_dim,
                                              config.char_hidden, rng)
        token_dim = config.embed_dim + self.char_encoder.feature_dim
        self.extract_passage = init_bigru(store, "extract_passage", token_dim,
                                          config.hidden, rng)
        self.qz_encoder = init_bigru(store, "qz", token_dim, config.hidden, rng)
        self.extractor = init_extractor(store, config.hidden, rng)
        self.syn_passage = init_bigru(store, "syn_passage", token_dim + 2,
                                      config.hidden, rng)
        self.syn_question = init_bigru(store, "syn_question", token_dim, config.hidden, rng)
        self.decoder = init_decoder(store, config.embed_dim, config.hidden, len(vocab), rng)
        self.matcher = init_bilinear(store, config.hidden)
        store.check_state_taken()

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self):
        return self.store.all()

    def trainable_parameters(self):
        return [p for p in self.parameters() if p.requires_grad]

    def freeze_for_selection_stage(self) -> None:
        """Freeze every parameter but the matcher matrix.

        The shared question/option encoder stays frozen too: training it on
        the selection loss drifts the extractor's question pooling and
        degrades generation, and the matcher matrix alone is enough."""
        for p in self.parameters():
            p.requires_grad = p is self.matcher

    # -- embedding and encoding helpers ---------------------------------------

    def _embed(self, ids: np.ndarray, surfaces, mask: np.ndarray):
        return embed_with_chars(self.embedding, self.char_encoder, self.char_vocab,
                                ids, surfaces, mask)

    def _embed_batch(self, batch: Batch):
        """The passage and question embeddings, shared by extraction and
        synthesis."""
        passage = self._embed(batch.passage_ids,
                              [i.passage_tokens for i in batch.instances],
                              batch.passage_mask)
        question = self._embed(batch.question_ids,
                               [i.question_tokens for i in batch.instances],
                               batch.question_mask)
        return passage, question

    def _embed_options(self, batch: Batch):
        surfaces = [opt for inst in batch.instances for opt in inst.option_tokens]
        return self._embed(batch.option_ids, surfaces, batch.option_mask)

    def _dropped(self, seq, rng):
        """An embedded sequence or an encoding with dropout on its ``flat``
        rows; identity when rng is None. An encoding's ``final`` is kept."""
        return replace(seq, flat=ad.dropout(seq.flat, self.config.dropout, rng))

    def _encode(self, seq: EmbeddedSequence, cells, rng):
        """Input dropout, the BiGRU, output dropout."""
        return self._dropped(bigru_encode(self._dropped(seq, rng), cells), rng)

    # -- extraction -----------------------------------------------------------

    def encode_for_extraction(self, passage: EmbeddedSequence,
                              question: EmbeddedSequence, rng):
        return (self._encode(passage, self.extract_passage, rng),
                self._encode(question, self.qz_encoder, rng))

    def predict_spans(self, passage: EmbeddedSequence, question: EmbeddedSequence,
                      rng=None):
        passage, question = self.encode_for_extraction(passage, question, rng)
        question_vector = pool_question(question, self.extractor)
        return predict_span(passage, question_vector, self.extractor, self.config.max_span)

    # -- synthesis ------------------------------------------------------------

    def _with_spans(self, passage: EmbeddedSequence, spans: list[EvidenceSpan], rng=None):
        """The embedded passage after its input dropout, with the spans'
        indicator channels: what the synthesis passage BiGRU reads."""
        return add_span_channels(self._dropped(passage, rng), [(s.start, s.end) for s in spans])

    def encode_for_synthesis(self, passage: EmbeddedSequence, question: EmbeddedSequence,
                             rng=None):
        """The synthesis encodings of a ``_with_spans`` passage, which has
        had its input dropout, and of the embedded question."""
        return (self._dropped(bigru_encode(passage, self.syn_passage), rng),
                self._encode(question, self.syn_question, rng))

    def gold_option_ids(self, batch: Batch) -> list[list[int]]:
        return [self.vocab.ids(inst.option_tokens[inst.gold_index])
                for inst in batch.instances]

    def stage_one_loss(self, batch: Batch, oracle_spans: list[EvidenceSpan | None], rng):
        """Joint extraction + synthesis loss for one batch.

        Oracle spans provide the indicator features and the span targets;
        instances without an oracle span fall back to the predicted span
        for features and contribute no span loss.
        """
        passage, question = self._embed_batch(batch)
        distributions, predicted = self.predict_spans(passage, question, rng)
        feature_spans = [oracle if oracle is not None else guess
                         for oracle, guess in zip(oracle_spans, predicted)]
        extraction_loss = span_loss(distributions, oracle_spans)
        syn_passage, syn_question = self.encode_for_synthesis(
            self._with_spans(passage, feature_spans, rng), question, rng)
        generation_loss = synthesis_loss(syn_passage, syn_question, self.embedding,
                                         self.decoder, self.gold_option_ids(batch))
        total = ad.add(extraction_loss, generation_loss)
        parts = {"span_loss": extraction_loss.item(),
                 "synthesis_loss": generation_loss.item()}
        return total, parts

    def generate(self, batch: Batch):
        """Greedy answers under inference conditions (predicted spans, no dropout)."""
        with ad.no_grad():
            passage, question = self._embed_batch(batch)
            _, spans = self.predict_spans(passage, question)
            # each rebinding frees what it replaces: the plain passage before
            # the synthesis BiGRU, the embeddings before decoding
            passage = self._with_spans(passage, spans)
            passage, question = self.encode_for_synthesis(passage, question)
            answers = generate_answer(passage, question, self.embedding, self.decoder,
                                      self.vocab, self.config.max_decode_len)
        return answers, spans

    # -- selection ------------------------------------------------------------

    def _embed_answers(self, answers):
        # an empty generated answer still encodes as the end token alone
        sequences = [list(a.surface_tokens) if a.surface_tokens else [EOS_TOKEN]
                     for a in answers]
        ids, mask = pad_block([self.vocab.ids(seq) for seq in sequences])
        return self._embed(ids, sequences, mask)

    def score_options(self, batch: Batch, answers, rng=None):
        answer_enc = self._encode(self._embed_answers(answers), self.qz_encoder, rng)
        option_enc = self._encode(self._embed_options(batch), self.qz_encoder, rng)
        return bilinear_score(answer_enc.final, option_enc.final, self.matcher)

    def selection_stage_loss(self, batch: Batch, answers, rng):
        """Selection cross-entropy of the batch's options scored against its
        generated ``answers``."""
        scores = self.score_options(batch, answers, rng)
        return selection_loss(scores, batch.gold)

    def predict_batch(self, batch: Batch, answers) -> np.ndarray:
        """Score the options against the batch's generated ``answers`` and
        pick one per instance."""
        with ad.no_grad():
            return select_option(self.score_options(batch, answers))


def build_model(config: TrainConfig, vocab: Vocabulary, char_vocab: CharVocabulary,
                embedding_matrix: np.ndarray | None, seed: int,
                state: dict[str, np.ndarray] | None = None) -> PipelineModel:
    """A new model: the word table is ``embedding_matrix`` and every other
    parameter is drawn from ``seed``. Given a checkpoint ``state`` that names
    exactly the model's parameters, each parameter holds the state's array
    instead, nothing is drawn and ``embedding_matrix`` may be None."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return PipelineModel(config, vocab, char_vocab, embedding_matrix, rng, state)
