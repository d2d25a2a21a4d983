"""Tests of the benchmark's own parts: the exam-like generator, self time
over nested spans, the tape-node walk and the tracer's wrapping.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import examgen  # noqa: E402
import tracer  # noqa: E402
from genmatch import autodiff as ad  # noqa: E402
from genmatch import corpus, encoders  # noqa: E402
from genmatch import model as model_mod  # noqa: E402


def generate(seed: int, count: int = 6):
    rng = np.random.default_rng(seed)
    lexicon = examgen.make_lexicon(rng)
    return lexicon, examgen.make_records(rng, lexicon, count, "t")


def test_generator_is_deterministic_under_a_seed():
    lexicon_a, records_a = generate(5)
    lexicon_b, records_b = generate(5)
    assert lexicon_a == lexicon_b
    assert records_a == records_b
    assert generate(6)[1] != records_a


def test_generator_shape_and_oracle_span():
    lexicon, records = generate(3, count=40)
    assert len(lexicon) == len(set(lexicon)) == examgen.LEXICON_SIZE
    assert all(2 <= len(w) <= 10 and w.isalpha() and w.islower() for w in lexicon)
    golds = []
    for record in records:
        (inst,) = corpus.parse_race_record(record)
        assert len(inst.passage_tokens) == examgen.PASSAGE_TOKENS
        assert len(inst.question_tokens) == examgen.QUESTION_TOKENS + 1  # trailing "?"
        gold = inst.option_tokens[inst.gold_index]
        assert 2 <= len(gold) <= 6
        text = " ".join(inst.passage_tokens)
        assert " ".join(gold) in text  # copied from the passage: an oracle span exists
        golds.append(inst.gold_index)
    assert len(set(golds)) == 4


def test_vocabulary_reaches_the_cap():
    lexicon, records = generate(2, count=2)
    instances = [i for r in records for i in corpus.parse_race_record(r)]
    streams = [lexicon] + list(corpus.instance_token_streams(instances))
    vocab = corpus.Vocabulary.build(streams, cap=65_000)
    assert len(vocab) == 65_000 + len(corpus.RESERVED_TOKENS)


def test_self_time_on_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]; e [11, 12] is a root
    names = ["a", "b", "d", "c", "e"]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 9.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    selfs = tracer.self_times(names, starts, ends, parents)
    assert selfs == {"a": 3.0, "b": 2.0, "d": 1.0, "c": 4.0, "e": 1.0}


def test_recorder_spans_nest_and_sum_by_name():
    ticks = iter(range(100))
    rec = tracer.Recorder(clock=lambda: float(next(ticks)))
    outer = rec.begin("outer")       # 0
    inner = rec.begin("inner")       # 1
    rec.end(inner)                   # 2
    again = rec.begin("inner")       # 3
    rec.end(again)                   # 4
    rec.end(outer)                   # 5
    assert rec.parents == [-1, 0, 0]
    selfs = tracer.self_times(rec.names, rec.starts, rec.ends, rec.parents)
    assert selfs == {"outer": 3.0, "inner": 2.0}
    with pytest.raises(RuntimeError):
        a = rec.begin("a")
        rec.begin("b")
        rec.end(a)


def test_tape_walk_counts_a_hand_built_five_node_graph():
    x = ad.Parameter("x", np.array([[0.5, -1.0]]))
    n1 = ad.mul_const(x, 2.0)        # 1
    n2 = ad.tanh(n1)                 # 2
    n3 = ad.add(n2, n1)              # 3, shares n1 with n2
    n4 = ad.mul(n3, n3)              # 4, the same parent twice
    loss = ad.tensor_sum(n4)         # 5
    assert tracer.tape_nodes(loss) == 5
    assert tracer.tape_nodes(x) == 0
    frozen = ad.Tensor(np.ones((1, 2)))
    assert tracer.tape_nodes(ad.tensor_sum(ad.mul_const(frozen, 3.0))) == 0


def test_wrapping_reaches_every_lookup_site_and_is_undone():
    original = encoders.bigru_encode
    rec = tracer.Recorder()
    instrumentation = tracer.Instrumentation(rec)
    instrumentation.install()
    try:
        assert model_mod.bigru_encode is encoders.bigru_encode
        assert encoders.bigru_encode is not original
        assert ad.gru_cell.__module__ == "genmatch.autodiff"  # primitives stay bare
        tokens = ["ab", "abc"]
        char_vocab = corpus.CharVocabulary.build([tokens])
        store = ad.ParamStore()
        params = encoders.init_char_encoder(store, char_vocab, 2, 2, np.random.default_rng(0))
        encoders.char_embed_tokens(tokens, params, char_vocab)
    finally:
        instrumentation.remove()
    assert encoders.bigru_encode is original and model_mod.bigru_encode is original
    assert "encoders.bigru_encode" in rec.names
    chain = rec.names.index("encoders.bigru_encode")
    assert rec.names[rec.parents[chain]] == "encoders.char_embed_tokens"
    assert not any(name.startswith("autodiff.") and "gru" in name for name in rec.names)
