"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

The desk-scale substitute for full-corpus accuracy is the seeded
200-passage toy corpus: two-stage training must reach at least 95%
selection accuracy on held-out dev within 200 epochs in under 10 minutes
on one core. The optional full-data smoke test runs only when RACE_DIR
(and optionally GLOVE_PATH) point at local data.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from genmatch import autodiff as ad
from genmatch.autodiff import ParamStore, Tensor
from genmatch.baselines import (
    DEFAULT_WINDOW,
    random_baseline,
    sliding_window_baseline,
    window_score,
)
from genmatch.corpus import (
    CharVocabulary,
    Vocabulary,
    generate_toy_corpus,
    instance_token_streams,
    load_dataset_dir,
    load_embeddings,
    make_batches,
    parse_race_record,
    random_embeddings,
)
from genmatch.evaluation import PIPELINE_FULL_SCALE_ACCURACY, evaluate
from genmatch.extractor import oracle_span
from genmatch.model_io import load_model_dir, save_model_dir
from genmatch.training import (
    TrainConfig,
    compute_oracle_spans,
    train_selection_stage,
    train_synthesis_stage,
)

from helpers import build_micro_pipeline, check_gradients
from test_baselines import brute_window_score
from test_extractor import brute_force_argmax, brute_force_oracle
from test_model import oracle_targets

TOY_SEED = 7
TOY_PASSAGES = 200
STAGE1 = dict(hidden=32, embed_dim=16, char_dim=8, char_hidden=8, dropout=0.1,
              lr=0.005, batch_size=32, max_epochs=60, patience=10, seed=TOY_SEED,
              fine_tune_embeddings=True)
STAGE2 = dict(STAGE1, max_epochs=200, patience=30)


def report_line(number: int, description: str, passed: bool, detail: str = "") -> None:
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {verdict}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="session")
def toy_run():
    """Seeded 200-passage corpus, two-stage training, timing, and reports."""
    started = time.perf_counter()
    docs = generate_toy_corpus(TOY_PASSAGES, seed=TOY_SEED)
    splits = {"train": [], "dev": [], "test": []}
    for k, doc in enumerate(docs):
        split = "train" if k < 160 else ("dev" if k < 180 else "test")
        splits[split].extend(parse_race_record(doc))
    config = TrainConfig(**STAGE1)
    vocab = Vocabulary.build(instance_token_streams(splits["train"]),
                             cap=config.vocab_cap)
    char_vocab = CharVocabulary.build(instance_token_streams(splits["train"],
                                                             include_options=True))
    table = random_embeddings(vocab, config.embed_dim, seed=config.seed,
                              trainable=config.fine_tune_embeddings)
    stage1 = train_synthesis_stage(config, splits["train"], splits["dev"],
                                   vocab, char_vocab, table)
    stage2 = train_selection_stage(TrainConfig(**STAGE2), stage1.model,
                                   splits["train"], splits["dev"])
    elapsed = time.perf_counter() - started
    return {
        "model": stage1.model, "config": config, "splits": splits, "vocab": vocab,
        "stage1": stage1, "stage2": stage2, "elapsed": elapsed,
    }


# ---------------------------------------------------------------------------
# 1. gradient correctness across every parameterized module


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst: dict[str, float] = {}
    rng = np.random.default_rng(0)

    # encoders (word+char embedding through both BiGRU directions)
    from genmatch.encoders import bigru_encode, embed_with_chars, init_bigru, init_char_encoder
    store = ParamStore()
    cv = CharVocabulary.build([["ab", "ba", "cab"]])
    emb = store.create("emb", rng.standard_normal((7, 3)) * 0.4)
    char_params = init_char_encoder(store, cv, 2, 2, rng)
    encoder = init_bigru(store, "enc", 3 + 4, 4, rng)
    ids = np.array([[4, 5, 6, 4], [5, 6, 0, 0]])
    surfaces = [["ab", "ba", "cab", "ab"], ["ba", "cab", "", ""]]
    mask = np.array([[True] * 4, [True, True, False, False]])
    readout = rng.random((8, 8))

    def encoder_loss():
        seq = embed_with_chars(emb, char_params, cv, ids, surfaces, mask)
        return ad.tensor_sum(ad.mul_const(bigru_encode(seq, encoder).flat, readout))

    report = check_gradients(store.all(), encoder_loss, tolerance=1e-4)
    worst["encoders"] = report.max_rel_error
    assert report.passed, report.summary()

    # extractor (pooling + two-step span attention + span loss)
    from genmatch.encoders import ContextualEncoding
    from genmatch.extractor import EvidenceSpan, init_extractor, pool_question, predict_span, span_loss
    store = ParamStore()
    extractor = init_extractor(store, 3, rng)
    p_data = rng.standard_normal((2 * 6, 6))
    q_data = rng.standard_normal((2 * 3, 6))

    def enc(data, batch, length):
        return ContextualEncoding(flat=Tensor(data), mask=np.ones((batch, length), dtype=bool),
                                  final=Tensor(np.zeros((batch, 6))))

    def extractor_loss():
        qv = pool_question(enc(q_data, 2, 3), extractor)
        dists, _ = predict_span(enc(p_data, 2, 6), qv, extractor, max_span=4)
        return span_loss(dists, [EvidenceSpan(1, 3), EvidenceSpan(0, 0)])

    report = check_gradients(store.all(), extractor_loss, tolerance=1e-4)
    worst["extractor"] = report.max_rel_error
    assert report.passed, report.summary()

    # decoder (teacher-forced synthesis loss through attention)
    from genmatch.synthesizer import init_decoder, synthesis_loss
    store = ParamStore()
    table = store.create("emb", rng.standard_normal((8, 3)) * 0.4)
    decoder = init_decoder(store, 3, 3, 8, rng)
    dp = rng.standard_normal((1 * 5, 6))
    dq = rng.standard_normal((1 * 3, 6))

    def decoder_loss():
        return synthesis_loss(enc(dp, 1, 5), enc(dq, 1, 3), table, decoder,
                              [[4, 6, 5]])

    report = check_gradients(store.all(), decoder_loss, tolerance=1e-4)
    worst["decoder"] = report.max_rel_error
    assert report.passed, report.summary()

    # selector (bilinear matcher)
    from genmatch.selector import bilinear_score, init_bilinear, selection_loss
    store = ParamStore()
    w_att = init_bilinear(store, 2)
    w_att.data[...] = rng.standard_normal((4, 4)) * 0.3
    answers = rng.standard_normal((2, 4))
    options = rng.standard_normal((8, 4))

    def selector_loss():
        return selection_loss(bilinear_score(Tensor(answers), Tensor(options), w_att),
                              np.array([0, 3]))

    report = check_gradients(store.all(), selector_loss, tolerance=1e-4)
    worst["selector"] = report.max_rel_error
    assert report.passed, report.summary()

    # whole pipeline on micro shapes (sampled coordinates)
    model, config, instances, _ = build_micro_pipeline(n_passages=1)
    batch = make_batches(instances[:2], model.vocab, 2)[0]
    targets = oracle_targets(batch, config.max_span)

    def pipeline_loss():
        loss, _ = model.stage_one_loss(batch, targets, None)
        return loss

    report = check_gradients(model.trainable_parameters(), pipeline_loss,
                             tolerance=1e-4, max_elements_per_param=4,
                             rng=np.random.default_rng(1))
    worst["pipeline"] = report.max_rel_error
    assert report.passed, report.summary()

    elapsed = time.perf_counter() - started
    detail = (f"max rel err {max(worst.values()):.2e} over {sorted(worst)} "
              f"in {elapsed:.1f}s")
    report_line(1, "gradients match central differences at 1e-4 in under 2 minutes",
                max(worst.values()) <= 1e-4 and elapsed < 120.0, detail)


# ---------------------------------------------------------------------------
# 2. desk-scale substitute for the full-data accuracy table


def test_criterion_2_two_stage_toy_accuracy(toy_run):
    assert PIPELINE_FULL_SCALE_ACCURACY == {"middle": 79.6, "high": 75.4,
                                            "overall": 77.3}
    dev_accuracy = toy_run["stage2"].best_metric
    stage1_epochs = len(toy_run["stage1"].history)
    stage2_epochs = len(toy_run["stage2"].history)
    elapsed = toy_run["elapsed"]
    detail = (f"dev accuracy {dev_accuracy:.3f}, epochs {stage1_epochs}+{stage2_epochs},"
              f" {elapsed:.0f}s; full-data reference 77.3 not reproducible at desk scale")
    report_line(2, "two-stage toy training reaches >= 95% held-out dev accuracy "
                   "within 200 epochs in under 10 minutes",
                dev_accuracy >= 0.95 and stage1_epochs <= 200
                and stage2_epochs <= 200 and elapsed < 600.0, detail)


def test_training_loss_descends_over_first_ten_epochs(toy_run):
    """Smoothed (3-epoch mean) training loss decreases across the first 10
    epochs of the seeded stage-one run."""
    losses = [h["train_loss"] for h in toy_run["stage1"].history[:10]]
    assert len(losses) == 10
    smoothed = [np.mean(losses[i:i + 3]) for i in range(8)]
    assert all(b < a for a, b in zip(smoothed, smoothed[1:])), smoothed


def test_criterion_3_synthesis_fidelity(toy_run):
    model, vocab = toy_run["model"], toy_run["vocab"]
    exact = total = 0
    for batch in make_batches(toy_run["splits"]["train"], vocab, 32):
        answers, _ = model.generate(batch)
        for inst, answer in zip(batch.instances, answers):
            exact += (answer.text == " ".join(inst.option_tokens[inst.gold_index]))
            total += 1
    fidelity = exact / total
    report_line(3, "greedy generation reproduces the gold option exactly for "
                   ">= 90% of training instances",
                fidelity >= 0.90, f"{exact}/{total} = {fidelity:.3f}")


def test_criterion_4_random_baseline():
    docs = generate_toy_corpus(2250, seed=123)
    instances = [inst for doc in docs for inst in parse_race_record(doc)][:10_000]
    assert len(instances) == 10_000
    first = random_baseline(instances, seed=11)
    second = random_baseline(instances, seed=11)
    deterministic = first.to_json() == second.to_json()
    report_line(4, "random baseline accuracy on 10,000 toy questions lies in "
                   "[22%, 28%] and is deterministic under the seed",
                0.22 <= first.accuracy <= 0.28 and deterministic,
                f"accuracy {first.accuracy:.4f} (reference 24.9)")


def test_criterion_5_sliding_window(toy_run):
    instances = [inst for split in toy_run["splits"].values() for inst in split]
    sw = sliding_window_baseline(instances, DEFAULT_WINDOW)
    rand = random_baseline(instances, seed=3)
    margin = sw.accuracy - rand.accuracy
    rng = np.random.default_rng(5)
    tokens = list("abcdef")
    matches = True
    for length in range(1, 13):
        for _ in range(20):
            passage = tuple(rng.choice(tokens, size=length))
            bag = set(rng.choice(tokens, size=3))
            if not math.isclose(window_score(passage, bag, 10),
                                brute_window_score(passage, bag, 10),
                                abs_tol=1e-12):
                matches = False
    report_line(5, "sliding window beats random by >= 20 points and matches "
                   "brute-force window enumeration for P <= 12",
                margin >= 0.20 and matches,
                f"sliding {sw.accuracy:.3f} vs random {rand.accuracy:.3f} "
                f"(references 32.2 vs 24.9)")


def test_criterion_6_span_oracle_and_predictor():
    docs = generate_toy_corpus(230, seed=77)
    instances = [inst for doc in docs for inst in parse_race_record(doc)][:1000]
    assert len(instances) == 1000
    oracle_ok = True
    for inst in instances:
        gold = inst.option_tokens[inst.gold_index]
        got = oracle_span(inst.passage_tokens, gold, max_span=30)
        want = brute_force_oracle(list(inst.passage_tokens), list(gold), 30)
        if want is None:
            oracle_ok = oracle_ok and got is None
        else:
            oracle_ok = oracle_ok and (got.start, got.end) == want

    from genmatch.encoders import ContextualEncoding
    from genmatch.extractor import init_extractor, predict_span
    rng = np.random.default_rng(9)
    store = ParamStore()
    extractor = init_extractor(store, 2, rng)
    predictor_ok = True
    for length in range(1, 13):
        for _ in range(5):
            data = rng.standard_normal((length, 4))
            passage = ContextualEncoding(flat=Tensor(data), mask=np.ones((1, length), dtype=bool),
                                         final=Tensor(np.zeros((1, 4))))
            qv = Tensor(rng.standard_normal((1, 4)))
            dists, spans = predict_span(passage, qv, extractor, max_span=4)
            want = brute_force_argmax(dists.start.data[0], dists.end.data[0],
                                      length, 4)
            predictor_ok = predictor_ok and (spans[0].start, spans[0].end) == want
    report_line(6, "span oracle and span predictor match exhaustive search",
                oracle_ok and predictor_ok,
                "1000 oracle instances, all P <= 12 predictor cases")


def test_criterion_7_exact_invariants(toy_run, tmp_path):
    from genmatch.selector import bilinear_score, init_bilinear, selection_loss
    store = ParamStore()
    w_att = init_bilinear(store, 2)
    rng = np.random.default_rng(2)
    scores = bilinear_score(Tensor(rng.standard_normal((3, 4))),
                            Tensor(rng.standard_normal((12, 4))), w_att)
    log4_exact = selection_loss(scores, np.array([0, 1, 2])).item() == pytest.approx(
        math.log(4.0), rel=0, abs=1e-15)

    uniform = ad.masked_softmax(Tensor([[5.0, 5.0, 5.0, 5.0]]), np.ones((1, 4), bool)).data
    softmax_exact = np.array_equal(uniform, np.full((1, 4), 0.25))

    clip_ok = (toy_run["stage1"].max_post_clip_norm <= 10.0 + 1e-9
               and toy_run["stage2"].max_post_clip_norm <= 10.0 + 1e-9)

    model, config = toy_run["model"], toy_run["config"]
    dev = toy_run["splits"]["dev"]
    before = evaluate(model, dev, config.batch_size)
    out = save_model_dir(tmp_path / "model", model, config)
    reloaded, _ = load_model_dir(out)
    after = evaluate(reloaded, dev, config.batch_size)
    roundtrip_ok = before.to_json() == after.to_json()

    report_line(7, "exact analytic invariants hold (log 4 loss, uniform softmax, "
                   "clipped norms, byte-identical checkpoint round trip)",
                log4_exact and softmax_exact and clip_ok and roundtrip_ok,
                f"max post-clip norm {max(toy_run['stage1'].max_post_clip_norm, toy_run['stage2'].max_post_clip_norm):.4f}")


RACE_DIR = os.environ.get("RACE_DIR")


@pytest.mark.skipif(not RACE_DIR, reason="RACE_DIR not set; full-data smoke test "
                                         "needs a local copy of the corpus")
def test_criterion_8_optional_full_data_smoke():
    splits = load_dataset_dir(RACE_DIR)
    assert "train" in splits and "dev" in splits
    rng = np.random.default_rng(0)

    def subsample(instances, fraction=0.01):
        count = max(32, int(fraction * len(instances)))
        picks = rng.choice(len(instances), size=min(count, len(instances)),
                           replace=False)
        return [instances[i] for i in sorted(picks)]

    train = subsample(splits["train"])
    dev = subsample(splits["dev"], fraction=0.05)
    config = TrainConfig(hidden=64, embed_dim=100, char_dim=8, char_hidden=8,
                         dropout=0.2, max_epochs=5, patience=5, seed=1,
                         fine_tune_embeddings=True, vocab_cap=20_000)
    vocab = Vocabulary.build(instance_token_streams(train), cap=config.vocab_cap)
    char_vocab = CharVocabulary.build(instance_token_streams(train,
                                                             include_options=True))
    glove = os.environ.get("GLOVE_PATH")
    if glove:
        table = load_embeddings(glove, vocab, dim=config.embed_dim, seed=1,
                                trainable=config.fine_tune_embeddings)
    else:
        table = random_embeddings(vocab, config.embed_dim, seed=1, trainable=True)
    stage1 = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    stage2 = train_selection_stage(config, stage1.model, train, dev)
    accuracy = evaluate(stage1.model, dev, config.batch_size).accuracy
    report_line(8, "1% full-data smoke run exceeds 28% dev accuracy",
                accuracy > 0.28, f"dev accuracy {accuracy:.3f}")
