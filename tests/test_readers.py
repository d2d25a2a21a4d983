"""Every reader of an input file parses a corrupted copy of a valid file or
raises its own error naming the file.

Each property draws mutations of one valid file: one to four bytes
overwritten, a truncation, or one to six bytes inserted. The examples are
derandomized, so every run tries the same mutants.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmatch.autodiff import ParamStore
from genmatch.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from genmatch.corpus import (
    EmbeddingFormatError,
    MalformedRecord,
    Vocabulary,
    generate_toy_corpus,
    load_embeddings,
    parse_record_file,
)
from genmatch.training import TrainConfig

EXAMPLES = 300  # mutants per reader; the four take a few seconds together
MUTANTS = settings(max_examples=EXAMPLES, derandomize=True, deadline=None)


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    kind = draw(st.sampled_from(["overwrite", "truncate", "insert"]))
    if kind == "overwrite":
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    elif kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    else:
        at = draw(st.integers(0, len(data)))
        data[at:at] = draw(st.binary(min_size=1, max_size=6))
    return bytes(data)


def parses_or_names_the_file(path, data, read, error):
    path.write_bytes(data)
    try:
        read(path)
    except error as exc:
        assert str(path) in str(exc)


RECORD = json.dumps(generate_toy_corpus(1, seed=4)[0], indent=2, sort_keys=True).encode()
VECTORS = b"".join(f"{word} {i}.5 -{i}.25 1e-{i}\n".encode()
                   for i, word in enumerate(["red", "dog", "the", "blue", "zebra"]))
CONFIG = (b"# a comment\nhidden=8\nlr = 0.01\n\nfine_tune_embeddings=true  # trailing\n"
          b"precision=float32\ndropout=0.1\n")
VOCAB = Vocabulary.build([["red", "dog", "the", "blue"]], cap=65_000)


def read_vectors(path):
    return load_embeddings(path, VOCAB, dim=3, seed=1, trainable=False)


def read_config(path):
    return TrainConfig.from_file(path, base=TrainConfig())


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@pytest.fixture(scope="module")
def checkpoint(scratch):
    rng = np.random.default_rng(0)
    store = ParamStore()
    store.create("w", rng.standard_normal((3, 4)))
    store.create("scalar", np.array(1.5))
    path = scratch / "valid.ckpt"
    write_checkpoint(path, store.all())
    return path.read_bytes()


def test_the_unmutated_inputs_parse(scratch, checkpoint):
    for name, valid, read in (("record.json", RECORD, parse_record_file),
                              ("vectors.txt", VECTORS, read_vectors),
                              ("model.ckpt", checkpoint, read_checkpoint),
                              ("train.cfg", CONFIG, read_config)):
        (scratch / name).write_bytes(valid)
        assert read(scratch / name)


@MUTANTS
@given(st.data())
def test_record_files_parse_or_name_the_file(scratch, data):
    parses_or_names_the_file(scratch / "record.json", data.draw(mutated(RECORD)),
                             parse_record_file, MalformedRecord)


@MUTANTS
@given(st.data())
def test_vector_files_parse_or_name_the_file(scratch, data):
    parses_or_names_the_file(scratch / "vectors.txt", data.draw(mutated(VECTORS)),
                             read_vectors, EmbeddingFormatError)


@MUTANTS
@given(st.data())
def test_checkpoints_parse_or_name_the_file(scratch, checkpoint, data):
    parses_or_names_the_file(scratch / "model.ckpt", data.draw(mutated(checkpoint)),
                             read_checkpoint, CheckpointError)


@MUTANTS
@given(st.data())
def test_config_files_parse_or_name_the_file(scratch, data):
    parses_or_names_the_file(scratch / "train.cfg", data.draw(mutated(CONFIG)),
                             read_config, ValueError)
