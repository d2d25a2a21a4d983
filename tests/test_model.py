import math

import numpy as np
import pytest

from genmatch import autodiff as ad
from genmatch.checkpoint import param_fingerprints
from genmatch.extractor import oracle_span
from genmatch.model import MATCHER_PARAM
from genmatch.model_io import load_model_dir, save_model_dir

from helpers import build_micro_pipeline


def oracle_targets(batch, max_span):
    return [oracle_span(i.passage_tokens, i.option_tokens[i.gold_index], max_span)
            for i in batch.instances]


def test_stage_one_loss_deterministic_without_dropout():
    model, config, _, batches = build_micro_pipeline()
    batch = batches[0]
    targets = oracle_targets(batch, config.max_span)
    first, parts = model.stage_one_loss(batch, targets)
    second, _ = model.stage_one_loss(batch, targets)
    assert first.item() == second.item()
    assert parts["span"] > 0 and parts["synthesis"] > 0


def test_generate_is_pure_and_respects_cap():
    model, config, _, batches = build_micro_pipeline()
    batch = batches[0]
    answers_a, spans_a = model.generate(batch)
    answers_b, spans_b = model.generate(batch)
    assert answers_a == answers_b
    assert [(s.start, s.end) for s in spans_a] == [(s.start, s.end) for s in spans_b]
    assert all(len(a.token_ids) <= config.max_decode_len for a in answers_a)


def test_batch_composition_does_not_change_predictions():
    model, config, instances, _ = build_micro_pipeline()
    from genmatch.corpus import make_batches
    single = make_batches(instances[:1], model.vocab, 1)[0]
    grouped = make_batches(instances[:4], model.vocab, 4)[0]
    answers_single, _ = model.generate(single)
    answers_grouped, _ = model.generate(grouped)
    assert answers_single[0].token_ids == answers_grouped[0].token_ids


def test_identical_options_get_identical_vectors():
    model, _, instances, _ = build_micro_pipeline()
    from genmatch.corpus import Instance, make_batches
    base = instances[0]
    twin = Instance(uid="twin", passage_tokens=base.passage_tokens,
                    question_tokens=base.question_tokens,
                    option_tokens=(("red",), ("red",), ("blue",), ("green",)),
                    gold_index=0, question_style=base.question_style)
    batch = make_batches([twin], model.vocab, 1)[0]
    from genmatch.encoders import bigru_encode
    enc = bigru_encode(model._embed_options(batch, None), model.qz_encoder)
    vectors = enc.final_concat().data
    np.testing.assert_array_equal(vectors[0], vectors[1])
    assert not np.array_equal(vectors[0], vectors[2])
    assert vectors.shape[1] == 2 * model.dims.hidden


def test_zero_overlap_instances_contribute_only_synthesis_loss():
    model, config, _, batches = build_micro_pipeline()
    batch = batches[0]
    loss, parts = model.stage_one_loss(batch, [None] * batch.size)
    assert parts["span"] == 0.0
    assert loss.item() == pytest.approx(parts["synthesis"])
    # and gradients still flow for the synthesis side
    model.zero_grads()
    ad.backward(loss)
    assert any(np.any(p.grad) for p in model.trainable_parameters())


def test_selection_loss_is_log4_with_zero_matcher():
    model, config, _, batches = build_micro_pipeline()
    batch = batches[0]
    np.testing.assert_array_equal(model.store[MATCHER_PARAM].data, 0.0)
    loss, answers = model.selection_stage_loss(batch)
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)
    assert len(answers) == batch.size


def test_predict_batch_shapes():
    model, _, _, batches = build_micro_pipeline()
    batch = batches[0]
    chosen, answers, spans, scores = model.predict_batch(batch)
    assert chosen.shape == (batch.size,)
    assert len(answers) == len(spans) == batch.size
    np.testing.assert_allclose(scores.probabilities.data.sum(axis=1), 1.0, atol=1e-6)


def test_loading_a_float32_model_leaves_new_models_float64(tmp_path):
    model32, config32, _, _ = build_micro_pipeline(precision="float32")
    save_model_dir(tmp_path / "m32", model32, config32)
    loaded, _ = load_model_dir(tmp_path / "m32")
    model64, config64, _, _ = build_micro_pipeline()
    assert config64.precision == "float64"
    assert {p.data.dtype for p in model64.parameters()} == {np.dtype(np.float64)}
    assert {p.data.dtype for p in loaded.parameters()} == {np.dtype(np.float32)}


def test_float32_model_computes_in_float32():
    model, config, _, batches = build_micro_pipeline(precision="float32")
    batch = batches[0]
    loss, _ = model.stage_one_loss(batch, oracle_targets(batch, config.max_span))
    assert loss.data.dtype == np.float32
    model.zero_grads()
    ad.backward(loss)
    assert {p.grad.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    _, _, _, scores = model.predict_batch(batch)
    assert scores.probabilities.data.dtype == np.float32


def test_freeze_partition_covers_all_parameters():
    model, _, _, _ = build_micro_pipeline()
    frozen = model.freeze_for_selection_stage()
    assert set(frozen) == set(model.store.names()) - {MATCHER_PARAM}
    assert [p.name for p in model.trainable_parameters()] == [MATCHER_PARAM]
    assert all(not model.store[name].trainable for name in frozen)


def test_frozen_parameters_stay_out_of_the_gradient_bookkeeping():
    model, _, _, _ = build_micro_pipeline(fine_tune_embeddings=False)
    trainable = model.trainable_parameters()
    assert all(p is not model.embedding for p in trainable)
    for p in trainable:
        p.grad[...] = 1.0
    model.embedding.grad[...] = 1e6  # stale: the norm and zeroing skip it
    expected = math.sqrt(sum(p.grad.size for p in trainable))
    assert ad.global_grad_norm(trainable) == pytest.approx(expected, rel=1e-12)
    model.zero_grads()
    assert not any(p.grad.any() for p in trainable)
    model.embedding.set_trainable(False)
    assert not model.embedding.grad.any()


def test_full_pipeline_gradients_on_micro_shapes():
    model, config, instances, _ = build_micro_pipeline(n_passages=1)
    from genmatch.corpus import make_batches
    batch = make_batches(instances[:2], model.vocab, 2)[0]
    targets = oracle_targets(batch, config.max_span)
    params = model.trainable_parameters()
    # the selection term scores fixed pre-generated answers, exactly as the
    # selection stage trains (generation itself is a discrete argmax)
    answers, _ = model.generate(batch)
    rng = np.random.default_rng(3)
    model.store[MATCHER_PARAM].data[...] = 0.1 * rng.standard_normal(
        model.store[MATCHER_PARAM].data.shape)

    def loss_fn():
        stage_one, _ = model.stage_one_loss(batch, targets)
        scores = model.score_options(batch, answers)
        from genmatch.selector import selection_loss
        return ad.add(stage_one, selection_loss(scores, batch.gold))

    report = ad.check_gradients(params, loss_fn, tolerance=1e-4,
                                max_elements_per_param=4,
                                rng=np.random.default_rng(0))
    assert report.passed, report.summary()
