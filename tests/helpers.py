"""Shared builders for micro-scale models and toy data in tests."""

import numpy as np

from genmatch.corpus import (
    CharVocabulary,
    Vocabulary,
    generate_toy_corpus,
    instance_token_streams,
    make_batches,
    parse_race_record,
    random_embeddings,
)
from genmatch.model import build_model
from genmatch.training import TrainConfig


def micro_config(**overrides) -> TrainConfig:
    base = dict(hidden=4, embed_dim=4, char_dim=2, char_hidden=2, dropout=0.0,
                batch_size=4, max_epochs=3, seed=9, fine_tune_embeddings=True,
                max_span=5, max_decode_len=6, patience=2)
    base.update(overrides)
    return TrainConfig(**base)


def toy_instances(n_passages=4, seed=11):
    docs = generate_toy_corpus(n_passages, seed=seed)
    return [inst for doc in docs for inst in parse_race_record(doc)]


def build_micro_pipeline(n_passages=3, seed=11, **config_overrides):
    config = micro_config(**config_overrides)
    instances = toy_instances(n_passages, seed=seed)
    vocab = Vocabulary.build(instance_token_streams(instances), cap=config.vocab_cap)
    char_vocab = CharVocabulary.build(instance_token_streams(instances,
                                                             include_options=True))
    table = random_embeddings(vocab, config.embed_dim, seed=config.seed,
                              trainable=config.fine_tune_embeddings)
    model = build_model(config.dims(vocab, char_vocab), vocab, char_vocab,
                        table.matrix, seed=config.seed)
    batches = make_batches(instances, vocab, config.batch_size)
    return model, config, instances, batches


def positions(encoding):
    """(B, T, 2H) view of a contextual encoding's values."""
    return encoding.flat.data.reshape(encoding.batch, encoding.length, 2 * encoding.hidden)
