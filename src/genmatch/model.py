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

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore
from .corpus import EOS_TOKEN, Batch, CharVocabulary, Vocabulary
from .encoders import (
    EvidenceFeatures,
    bigru_encode,
    embed_with_chars,
    encode_with_features,
    init_bigru,
    init_char_encoder,
)
from .extractor import EvidenceSpan, init_extractor, pool_question, predict_span, span_loss
from .selector import bilinear_score, init_bilinear, select_option, selection_loss
from .synthesizer import generate_answer, init_decoder, synthesis_loss

MATCHER_PARAM = "select.w_att"


@dataclass
class ModelDims:
    """Structural hyperparameters (everything needed to rebuild the graph)."""

    vocab_size: int
    char_vocab_size: int
    embed_dim: int
    char_dim: int
    char_hidden: int
    hidden: int
    dropout: float
    max_span: int
    max_decode_len: int
    fine_tune_embeddings: bool = False
    precision: str = "float64"


class PipelineModel:
    def __init__(self, dims: ModelDims, vocab: Vocabulary, char_vocab: CharVocabulary,
                 embedding_matrix: np.ndarray, rng: np.random.Generator):
        if embedding_matrix.shape != (dims.vocab_size, dims.embed_dim):
            raise ValueError("embedding matrix does not match the configured dims")
        self.dims = dims
        self.vocab = vocab
        self.char_vocab = char_vocab
        store = ParamStore(dims.precision)
        self.store = store
        self.embedding = store.create("emb", embedding_matrix,
                                      trainable=dims.fine_tune_embeddings)
        self.char_encoder = init_char_encoder(store, char_vocab, dims.char_dim,
                                              dims.char_hidden, rng)
        token_dim = dims.embed_dim + self.char_encoder.feature_dim
        self.extract_passage = init_bigru(store, "extract_passage", token_dim,
                                          dims.hidden, rng)
        self.qz_encoder = init_bigru(store, "qz", token_dim, dims.hidden, rng)
        self.extractor = init_extractor(store, dims.hidden, rng)
        self.syn_passage = init_bigru(store, "syn_passage", token_dim + 2,
                                      dims.hidden, rng)
        self.syn_question = init_bigru(store, "syn_question", token_dim, dims.hidden, rng)
        self.decoder = init_decoder(store, dims.embed_dim, dims.hidden,
                                    dims.vocab_size, rng)
        self.matcher = init_bilinear(store, dims.hidden)

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self):
        return self.store.all()

    def zero_grads(self) -> None:
        # frozen parameters already hold zeros: no op adds into them
        ad.zero_grads(self.trainable_parameters())

    def trainable_parameters(self):
        return [p for p in self.parameters() if p.trainable]

    def matcher_parameters(self):
        return [self.store[MATCHER_PARAM]]

    def stage_one_frozen_names(self) -> list[str]:
        return [name for name in self.store.names() if name != MATCHER_PARAM]

    def freeze_for_selection_stage(self) -> list[str]:
        """Freeze the stage-one set; returns the frozen names.

        The shared question/option encoder stays frozen too: training it on
        the selection loss drifts the extractor's question pooling and
        degrades generation, and the matcher matrix alone is enough."""
        frozen = self.stage_one_frozen_names()
        for name in frozen:
            self.store[name].set_trainable(False)
        for p in self.matcher_parameters():
            p.set_trainable(True)
        return frozen

    # -- embedding helpers ----------------------------------------------------

    def _dropout_rate(self, rng):
        return self.dims.dropout if rng is not None else 0.0

    def _embed(self, ids: np.ndarray, surfaces, mask: np.ndarray, rng):
        # masks arrive as float64 and enter the graph in the model's dtype
        mask = mask.astype(self.store.dtype, copy=False)
        return embed_with_chars(self.embedding, self.char_encoder, self.char_vocab,
                                ids, surfaces, mask, self._dropout_rate(rng), rng)

    def _embed_passage(self, batch: Batch, rng):
        return self._embed(batch.passage_ids,
                           [list(i.passage_tokens) for i in batch.instances],
                           batch.passage_mask, rng)

    def _embed_question(self, batch: Batch, rng):
        return self._embed(batch.question_ids,
                           [list(i.question_tokens) for i in batch.instances],
                           batch.question_mask, rng)

    def _embed_options(self, batch: Batch, rng):
        size, _, width = batch.option_ids.shape
        ids = batch.option_ids.reshape(size * 4, width)
        mask = batch.option_mask.reshape(size * 4, width)
        surfaces = [list(opt) for inst in batch.instances for opt in inst.option_tokens]
        return self._embed(ids, surfaces, mask, rng)

    # -- extraction -----------------------------------------------------------

    def encode_for_extraction(self, batch: Batch, rng=None):
        rate = self._dropout_rate(rng)
        passage = bigru_encode(self._embed_passage(batch, rng), self.extract_passage,
                               rate, rng)
        question = bigru_encode(self._embed_question(batch, rng), self.qz_encoder,
                                rate, rng)
        return passage, question

    def predict_spans(self, batch: Batch, rng=None):
        passage, question = self.encode_for_extraction(batch, rng)
        question_vector = pool_question(question, self.extractor)
        return predict_span(passage, question_vector, self.extractor, self.dims.max_span)

    # -- synthesis ------------------------------------------------------------

    def encode_for_synthesis(self, batch: Batch, spans: list[EvidenceSpan], rng=None):
        rate = self._dropout_rate(rng)
        features = EvidenceFeatures.from_spans(
            [(s.start, s.end) for s in spans],
            batch.passage_lengths, batch.passage_ids.shape[1])
        passage = encode_with_features(self._embed_passage(batch, rng), features,
                                       self.syn_passage, rate, rng)
        question = bigru_encode(self._embed_question(batch, rng), self.syn_question,
                                rate, rng)
        return passage, question

    def gold_option_ids(self, batch: Batch) -> list[list[int]]:
        return [self.vocab.ids(inst.option_tokens[inst.gold_index])
                for inst in batch.instances]

    def stage_one_loss(self, batch: Batch, oracle_spans: list[EvidenceSpan | None],
                       rng=None):
        """Joint extraction + synthesis loss for one batch.

        Oracle spans provide the indicator features and the span targets;
        instances without an oracle span fall back to the predicted span
        for features and contribute no span loss.
        """
        passage, question = self.encode_for_extraction(batch, rng)
        question_vector = pool_question(question, self.extractor)
        distributions, predicted = predict_span(passage, question_vector,
                                                self.extractor, self.dims.max_span)
        feature_spans = [oracle if oracle is not None else guess
                         for oracle, guess in zip(oracle_spans, predicted)]
        extraction_loss = span_loss(distributions, oracle_spans)
        syn_passage, syn_question = self.encode_for_synthesis(batch, feature_spans, rng)
        generation_loss = synthesis_loss(syn_passage, syn_question, self.embedding,
                                         self.decoder, self.gold_option_ids(batch))
        total = ad.add(extraction_loss, generation_loss)
        parts = {"span": extraction_loss.item(), "synthesis": generation_loss.item()}
        return total, parts

    def generate(self, batch: Batch, spans: list[EvidenceSpan] | None = None):
        """Greedy answers under inference conditions (predicted spans, no dropout)."""
        with ad.no_grad():
            if spans is None:
                _, spans = self.predict_spans(batch)
            passage, question = self.encode_for_synthesis(batch, spans)
            answers = generate_answer(passage, question, self.embedding, self.decoder,
                                      self.vocab, self.dims.max_decode_len)
        return answers, spans

    # -- selection ------------------------------------------------------------

    def _embed_answers(self, answers, rng):
        # an empty generated answer still encodes as the end token alone
        sequences = [list(a.surface_tokens) if a.surface_tokens else [EOS_TOKEN]
                     for a in answers]
        width = max(len(s) for s in sequences)
        ids = np.zeros((len(sequences), width), dtype=np.int64)
        mask = np.zeros((len(sequences), width))
        for b, seq in enumerate(sequences):
            ids[b, :len(seq)] = self.vocab.ids(seq)
            mask[b, :len(seq)] = 1.0
        return self._embed(ids, sequences, mask, rng)

    def score_options(self, batch: Batch, answers, rng=None):
        rate = self._dropout_rate(rng)
        answer_enc = bigru_encode(self._embed_answers(answers, rng), self.qz_encoder,
                                  rate, rng)
        option_enc = bigru_encode(self._embed_options(batch, rng), self.qz_encoder,
                                  rate, rng)
        return bilinear_score(answer_enc.final_concat(), option_enc.final_concat(),
                              self.store[MATCHER_PARAM])

    def selection_stage_loss(self, batch: Batch, rng=None):
        answers, _ = self.generate(batch)
        scores = self.score_options(batch, answers, rng)
        return selection_loss(scores, batch.gold), answers

    def predict_batch(self, batch: Batch):
        """Full pipeline per instance: extract, synthesize, score, select."""
        with ad.no_grad():
            answers, spans = self.generate(batch)
            scores = self.score_options(batch, answers)
            chosen = select_option(scores)
        return chosen, answers, spans, scores


def build_model(dims: ModelDims, vocab: Vocabulary, char_vocab: CharVocabulary,
                embedding_matrix: np.ndarray, seed: int) -> PipelineModel:
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    return PipelineModel(dims, vocab, char_vocab, embedding_matrix, rng)
