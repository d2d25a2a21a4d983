import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmatch import corpus
from genmatch.corpus import (
    EOS_TOKEN,
    PAD_TOKEN,
    UNK,
    CharVocabulary,
    EmbeddingFormatError,
    Instance,
    MalformedRecord,
    Vocabulary,
    generate_toy_corpus,
    instance_token_streams,
    load_dataset_dir,
    load_embeddings,
    make_batches,
    parse_race_record,
    random_embeddings,
    tokenize,
    write_toy_dataset,
)

SAMPLE = {
    "article": "A dog ran.",
    "questions": ["What ran? _"],
    "options": [["dog", "cat", "bird", "fish"]],
    "answers": ["A"],
    "id": "t1",
}


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_splits_punctuation():
    assert tokenize("A dog ran.") == ["a", "dog", "ran", "."]


def test_tokenize_keeps_cloze_placeholder():
    assert tokenize("What ran? _") == ["what", "ran", "?", "_"]


def test_tokenize_empty():
    assert tokenize("") == []


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=40))
def test_tokenize_deterministic_and_lowercase(text):
    first = tokenize(text)
    assert first == tokenize(text)
    assert all(tok == tok.lower() for tok in first)
    assert all(" " not in tok for tok in first)


# ---------------------------------------------------------------------------
# record parsing


def test_parse_sample_record():
    insts = parse_race_record(json.dumps(SAMPLE))
    assert len(insts) == 1
    inst = insts[0]
    assert inst.gold_index == 0
    assert inst.passage_tokens == ("a", "dog", "ran", ".")
    assert inst.option_tokens[0] == ("dog",)


def test_parse_letter_arithmetic():
    doc = dict(SAMPLE, answers=["C"], questions=["What ran?"])
    inst = parse_race_record(doc)[0]
    assert inst.gold_index == 2


def test_parse_rejects_wrong_option_arity():
    doc = dict(SAMPLE, options=[["dog", "cat", "bird"]])
    with pytest.raises(MalformedRecord):
        parse_race_record(doc)


@pytest.mark.parametrize("mutation", [
    lambda d: d.pop("article"),
    lambda d: d.pop("id"),
    lambda d: d.update(answers=["E"]),
    lambda d: d.update(answers=[1]),
    lambda d: d.update(article=""),
])
def test_parse_rejects_malformed(mutation):
    doc = json.loads(json.dumps(SAMPLE))
    mutation(doc)
    with pytest.raises(MalformedRecord):
        parse_race_record(doc)


def test_instance_requires_four_options():
    with pytest.raises(MalformedRecord):
        Instance(uid="x", passage_tokens=("a",), question_tokens=("b",),
                 option_tokens=(("c",),), gold_index=0)


# ---------------------------------------------------------------------------
# vocabulary


def test_vocabulary_cap_and_unk():
    vocab = Vocabulary.build([["a", "a", "b"]], cap=1)
    assert vocab.tokens == [PAD_TOKEN, "<unk>", "<bos>", EOS_TOKEN, "a"]
    assert vocab.ids(["b"])[0] == UNK


def test_vocabulary_lexicographic_tie_break():
    vocab = Vocabulary.build([["x", "y"]], cap=1)
    assert vocab.ids(["x"])[0] == 4
    assert vocab.ids(["y"])[0] == UNK


def test_vocabulary_rejects_empty_corpus():
    with pytest.raises(ValueError):
        Vocabulary.build([], cap=65_000)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "cc", "dd"]), max_size=6), max_size=5),
       st.integers(min_value=1, max_value=8))
def test_vocabulary_deterministic(streams, cap):
    if not any(streams):
        return
    first = Vocabulary.build(streams, cap=cap)
    second = Vocabulary.build([list(s) for s in streams], cap=cap)
    assert first.tokens == second.tokens


def test_char_vocabulary_sorted_and_unk():
    cv = CharVocabulary.build([["ba", "ab"]])
    assert cv.chars == ["<cpad>", "<cunk>", "a", "b"]
    assert cv.ids(["z"])[0] == corpus.CHAR_UNK


# ---------------------------------------------------------------------------
# embeddings


def test_load_embeddings_covered_and_oov(tmp_path):
    vocab = Vocabulary.build([["the", "dog"]], cap=65_000)
    vec_file = tmp_path / "vecs.txt"
    values = " ".join(str(0.1 * i) for i in range(300))
    vec_file.write_text(f"the {values}\n")
    table = load_embeddings(vec_file, vocab, dim=300, seed=3, trainable=False)
    the_id = vocab.ids(["the"])[0]
    dog_id = vocab.ids(["dog"])[0]
    assert table.matrix.shape == (len(vocab), 300)
    np.testing.assert_allclose(table.matrix[the_id][:3], [0.0, 0.1, 0.2])
    assert table.pretrained[the_id] and not table.pretrained[dog_id]
    assert np.all(np.abs(table.matrix[dog_id]) <= 0.1)
    # seeded: same file and seed reproduces the OOV rows
    again = load_embeddings(vec_file, vocab, dim=300, seed=3, trainable=False)
    np.testing.assert_array_equal(table.matrix, again.matrix)
    assert table.coverage == pytest.approx(1 / len(vocab))
    assert table.trainable is False


def test_load_embeddings_arity_error(tmp_path):
    vocab = Vocabulary.build([["the"]], cap=65_000)
    vec_file = tmp_path / "vecs.txt"
    vec_file.write_text("the " + " ".join(["0.0"] * 299) + "\n")
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(vec_file, vocab, dim=300, seed=0, trainable=False)


def test_load_embeddings_non_numeric_value_names_file_and_line(tmp_path):
    vocab = Vocabulary.build([["the", "dog"]], cap=65_000)
    vec_file = tmp_path / "vecs.txt"
    vec_file.write_text("the 0.5 0.25\ndog 0.5 abc\n")
    with pytest.raises(EmbeddingFormatError) as info:
        load_embeddings(vec_file, vocab, dim=2, seed=0, trainable=False)
    assert str(info.value) == f"{vec_file}:2: could not convert string to float: 'abc'"


@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
def test_load_embeddings_non_finite_value_names_file_and_line(tmp_path, value):
    vocab = Vocabulary.build([["red"]], cap=65_000)
    vec_file = tmp_path / "vecs.txt"
    vec_file.write_text(f"red {value} 1 2\n")
    with pytest.raises(EmbeddingFormatError) as info:
        load_embeddings(vec_file, vocab, dim=3, seed=0, trainable=False)
    assert str(info.value) == f"{vec_file}:1: non-finite value {value!r}"


def test_load_embeddings_line_that_is_not_utf8_names_file_and_line(tmp_path):
    vocab = Vocabulary.build([["the", "dog"]], cap=65_000)
    vec_file = tmp_path / "vecs.txt"
    vec_file.write_bytes(b"the 0.5 0.25\n\xff\xfe 0.5 0.25\n")
    with pytest.raises(EmbeddingFormatError) as info:
        load_embeddings(vec_file, vocab, dim=2, seed=0, trainable=False)
    assert str(info.value).startswith(f"{vec_file}:2: ")
    assert "can't decode byte 0xff" in str(info.value)


def test_load_embeddings_unreadable_file(tmp_path):
    vocab = Vocabulary.build([["the"]], cap=65_000)
    with pytest.raises(OSError):
        load_embeddings(tmp_path / "missing.txt", vocab, dim=300, seed=0, trainable=False)


# ---------------------------------------------------------------------------
# batching


def toy_instances(n=33):
    docs = generate_toy_corpus(max(1, (n + 2) // 3), seed=11)  # >= 3 questions each
    insts = [i for doc in docs for i in parse_race_record(doc)]
    return insts[:n]


def test_batch_sizes_keep_final_partial():
    insts = toy_instances(33)
    vocab = Vocabulary.build(instance_token_streams(insts), cap=65_000)
    batches = make_batches(insts, vocab, batch_size=32)
    assert [b.size for b in batches] == [32, 1]


def test_batch_padding_and_masks():
    insts = toy_instances(8)
    vocab = Vocabulary.build(instance_token_streams(insts), cap=65_000)
    batch = make_batches(insts, vocab, batch_size=8)[0]
    lengths = [len(i.passage_tokens) for i in insts]
    assert batch.passage_ids.shape[1] == max(lengths)
    assert {m.dtype for m in (batch.passage_mask, batch.question_mask, batch.option_mask)} == {
        np.dtype(bool)}
    for row, inst in enumerate(insts):
        assert batch.passage_mask[row].sum() == len(inst.passage_tokens)
        assert batch.question_mask[row].sum() == len(inst.question_tokens)
        # the mask is True exactly on non-pad positions
        assert np.all((batch.passage_ids[row] != 0) == batch.passage_mask[row])


def test_batch_shuffle_deterministic_under_seed():
    insts = toy_instances(20)
    vocab = Vocabulary.build(instance_token_streams(insts), cap=65_000)
    first = make_batches(insts, vocab, batch_size=7, shuffle_seed=5)
    second = make_batches(insts, vocab, batch_size=7, shuffle_seed=5)
    assert [[i.uid for i in b.instances] for b in first] == \
        [[i.uid for i in b.instances] for b in second]
    unshuffled = make_batches(insts, vocab, batch_size=7)
    assert [i.uid for i in unshuffled[0].instances] == [i.uid for i in insts[:7]]


# ---------------------------------------------------------------------------
# toy corpus


def test_toy_corpus_round_trips_and_gold_is_verbatim():
    docs = generate_toy_corpus(1, seed=7)
    insts = parse_race_record(docs[0])
    assert len(insts) >= 1
    for inst in insts:
        gold = inst.option_tokens[inst.gold_index]
        passage = " ".join(inst.passage_tokens)
        assert " ".join(gold) in passage


def test_toy_corpus_distinct_seeds_differ():
    assert generate_toy_corpus(2, seed=1) != generate_toy_corpus(2, seed=2)


def test_toy_corpus_serialization_round_trip():
    docs = generate_toy_corpus(3, seed=13)
    for doc in docs:
        reparsed = parse_race_record(json.dumps(doc))
        direct = parse_race_record(doc)
        assert reparsed == direct


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_toy_instances_valid_under_any_seed(seed):
    for doc in generate_toy_corpus(1, seed=seed):
        for inst in parse_race_record(doc):
            assert len(inst.option_tokens) == 4
            assert 0 <= inst.gold_index < 4
            gold = inst.option_tokens[inst.gold_index]
            others = [o for k, o in enumerate(inst.option_tokens) if k != inst.gold_index]
            assert gold not in others  # exactly one correct option


def test_write_and_load_toy_dataset(tmp_path):
    counts = write_toy_dataset(tmp_path / "toy", num_passages=10, seed=3)
    assert counts["train"] >= 1 and counts["dev"] >= 1 and counts["test"] >= 1
    splits = load_dataset_dir(tmp_path / "toy")
    assert set(splits) == {"train", "dev", "test"}
    total = sum(len(v) for v in splits.values())
    docs = generate_toy_corpus(10, seed=3)
    assert total == sum(len(d["questions"]) for d in docs)


def test_load_dataset_dir_subset_labels(tmp_path):
    root = tmp_path / "data"
    (root / "test" / "middle").mkdir(parents=True)
    (root / "test" / "high").mkdir(parents=True)
    doc = dict(SAMPLE)
    (root / "test" / "middle" / "m.txt").write_text(json.dumps(doc))
    (root / "test" / "high" / "h.txt").write_text(json.dumps(dict(doc, id="t2")))
    splits = load_dataset_dir(root)
    subsets = sorted(i.subset for i in splits["test"])
    assert subsets == ["high", "middle"]


BROKEN_RECORDS = {
    "bad_json": ('{"article": "A dog ran.", }', "invalid JSON"),
    "three_options": (json.dumps(dict(SAMPLE, options=[["dog", "cat", "bird"]])),
                      "question 0 needs exactly 4 options"),
    "article_not_string": (json.dumps(dict(SAMPLE, article=7)),
                           "t1: field 'article' is not a str"),
    "question_not_string": (json.dumps(dict(SAMPLE, questions=[["What", "ran?"]])),
                            "t1: question 0 or one of its options is not a string"),
    "options_not_list": (json.dumps(dict(SAMPLE, options="dog cat bird fish")),
                         "t1: field 'options' is not a list"),
    "option_not_string": (json.dumps(dict(SAMPLE, options=[["dog", 3, "bird", "fish"]])),
                          "t1: question 0 or one of its options is not a string"),
}


@pytest.mark.parametrize("kind", sorted(BROKEN_RECORDS))
def test_broken_record_error_names_its_file(tmp_path, kind):
    text, detail = BROKEN_RECORDS[kind]
    split = tmp_path / "data" / "test"
    split.mkdir(parents=True)
    (split / "a.json").write_text(json.dumps(SAMPLE))
    broken = split / "b.json"
    broken.write_text(text)
    with pytest.raises(MalformedRecord) as info:
        load_dataset_dir(tmp_path / "data")
    assert str(info.value).startswith(f"{broken}: ")
    assert detail in str(info.value)


def test_a_record_that_is_not_utf8_names_its_file(tmp_path):
    split = tmp_path / "data" / "test"
    split.mkdir(parents=True)
    broken = split / "b.json"
    broken.write_bytes(json.dumps(SAMPLE).encode("utf-8").replace(b"dog", b"d\xffg", 1))
    with pytest.raises(MalformedRecord) as info:
        load_dataset_dir(tmp_path / "data")
    assert str(info.value).startswith(f"{broken}: ")
    assert "can't decode byte 0xff" in str(info.value)


def test_load_dataset_dir_missing():
    with pytest.raises(FileNotFoundError):
        load_dataset_dir("/nonexistent/path")


def test_random_embeddings_within_bounds():
    vocab = Vocabulary.build([["a", "b"]], cap=65_000)
    table = random_embeddings(vocab, dim=8, seed=1, trainable=True)
    assert np.all(np.abs(table.matrix) <= 0.1)
    assert table.trainable
