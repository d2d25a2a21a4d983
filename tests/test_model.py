import json
import math
import weakref

import numpy as np
import pytest

from genmatch import autodiff as ad
from genmatch import encoders
from genmatch.checkpoint import param_fingerprints, write_checkpoint
from genmatch.extractor import oracle_span
from genmatch.model import MATCHER_PARAM
from genmatch.model_io import load_model_dir, save_model_dir

from helpers import build_micro_pipeline, check_gradients, embed_twice_stage_one_loss


def oracle_targets(batch, max_span):
    return [oracle_span(i.passage_tokens, i.option_tokens[i.gold_index], max_span)
            for i in batch.instances]


def test_stage_one_loss_deterministic_without_dropout():
    model, config, _, batches = build_micro_pipeline()
    batch = batches[0]
    targets = oracle_targets(batch, config.max_span)
    first, parts = model.stage_one_loss(batch, targets, None)
    second, _ = model.stage_one_loss(batch, targets, None)
    assert first.item() == second.item()
    assert parts["span_loss"] > 0 and parts["synthesis_loss"] > 0


def test_generate_is_pure_and_respects_cap():
    model, config, _, batches = build_micro_pipeline()
    batch = batches[0]
    answers_a, spans_a = model.generate(batch)
    answers_b, spans_b = model.generate(batch)
    assert answers_a == answers_b
    assert [(s.start, s.end) for s in spans_a] == [(s.start, s.end) for s in spans_b]
    assert all(len(a.token_ids) <= config.max_decode_len for a in answers_a)


def test_generate_frees_the_plain_passage_before_the_synthesis_encoder(monkeypatch):
    model, _, _, batches = build_micro_pipeline()
    embed_batch, gru_sequence = model._embed_batch, ad.gru_sequence
    plain, alive = [], []

    def embedded(batch):
        passage, question = embed_batch(batch)
        plain.append(weakref.ref(passage.flat.data))
        return passage, question

    def encoded(x, h0, cells, mask):
        if cells is model.syn_passage:
            alive.append(plain[-1]() is not None)
        return gru_sequence(x, h0, cells, mask)

    monkeypatch.setattr(model, "_embed_batch", embedded)
    monkeypatch.setattr(ad, "gru_sequence", encoded)
    model.generate(batches[0])
    assert alive == [False]


def test_batch_composition_does_not_change_predictions():
    model, config, instances, _ = build_micro_pipeline()
    from genmatch.corpus import make_batches
    single = make_batches(instances[:1], model.vocab, 1)[0]
    grouped = make_batches(instances[:4], model.vocab, 4)[0]
    answers_single, _ = model.generate(single)
    answers_grouped, _ = model.generate(grouped)
    assert answers_single[0].token_ids == answers_grouped[0].token_ids


def test_passage_and_question_are_embedded_once_per_batch(monkeypatch):
    model, config, _, batches = build_micro_pipeline()
    batch = batches[0]
    calls = []
    original = encoders.char_embed_tokens

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(encoders, "char_embed_tokens", counted)
    model.stage_one_loss(batch, oracle_targets(batch, config.max_span),
                         np.random.default_rng(0))
    assert len(calls) == 2
    calls.clear()
    model.generate(batch)
    assert len(calls) == 2


def test_stage_one_loss_matches_the_embed_twice_reference():
    """One shared embedding gives the same forward values and rng stream as
    embedding again for each consumer; only the summation order of the
    embedding gradients differs."""
    model, config, _, batches = build_micro_pipeline(dropout=0.3)
    batch = batches[0]
    targets = oracle_targets(batch, config.max_span)
    params = model.trainable_parameters()
    assert any(p.name == "emb" for p in params)

    def run(loss_fn):
        rng = np.random.default_rng(5)
        ad.zero_grads(params)
        loss, parts = loss_fn(batch, targets, rng)
        ad.backward(loss)
        return loss.item(), parts, rng.bit_generator.state, [p.grad for p in params]

    loss, parts, state, grads = run(model.stage_one_loss)
    ref_loss, ref_parts, ref_state, ref_grads = run(
        lambda *args: embed_twice_stage_one_loss(model, *args))
    assert loss == ref_loss
    assert parts == ref_parts
    assert state == ref_state != np.random.default_rng(5).bit_generator.state
    # the stage-one loss reaches every parameter but the matcher
    for got in (grads, ref_grads):
        assert [p.name for p, grad in zip(params, got) if grad is None] == [MATCHER_PARAM]
    for p, grad, ref in zip(params, grads, ref_grads):
        if grad is not None:
            np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=0, err_msg=p.name)


def test_identical_options_get_identical_vectors():
    model, _, instances, _ = build_micro_pipeline()
    from genmatch.corpus import Instance, make_batches
    base = instances[0]
    twin = Instance(uid="twin", passage_tokens=base.passage_tokens,
                    question_tokens=base.question_tokens,
                    option_tokens=(("red",), ("red",), ("blue",), ("green",)),
                    gold_index=0)
    batch = make_batches([twin], model.vocab, 1)[0]
    from genmatch.encoders import bigru_encode
    enc = bigru_encode(model._embed_options(batch), model.qz_encoder)
    vectors = enc.final.data
    np.testing.assert_array_equal(vectors[0], vectors[1])
    assert not np.array_equal(vectors[0], vectors[2])
    assert vectors.shape[1] == 2 * model.config.hidden


def test_zero_overlap_instances_contribute_only_synthesis_loss():
    model, config, _, batches = build_micro_pipeline()
    batch = batches[0]
    loss, parts = model.stage_one_loss(batch, [None] * batch.size, None)
    assert parts["span_loss"] == 0.0
    assert loss.item() == pytest.approx(parts["synthesis_loss"])
    # and gradients still flow for the synthesis side
    ad.zero_grads(model.trainable_parameters())
    ad.backward(loss)
    assert any(np.any(p.grad) for p in model.trainable_parameters())


def test_selection_loss_is_log4_with_zero_matcher():
    model, config, _, batches = build_micro_pipeline()
    batch = batches[0]
    np.testing.assert_array_equal(model.store[MATCHER_PARAM].data, 0.0)
    answers, _ = model.generate(batch)
    loss = model.selection_stage_loss(batch, answers, None)
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_selection_scores_draw_dropout_answers_then_options():
    """``score_options`` and ``selection_stage_loss`` with an rng: input
    dropout, the shared BiGRU and output dropout for the answers, then the
    same for the options. The scores read the final states, which are taken
    before output dropout, but the output draws still advance the rng."""
    from dataclasses import replace

    from genmatch.selector import bilinear_score, selection_loss

    model, _, _, batches = build_micro_pipeline(dropout=0.3)
    batch = batches[0]
    answers, _ = model.generate(batch)
    matcher = model.store[MATCHER_PARAM]
    matcher.data[...] = 0.1 * np.random.default_rng(4).standard_normal(matcher.data.shape)

    def by_hand(rng):
        def dropped(seq):
            return replace(seq, flat=ad.dropout(seq.flat, model.config.dropout, rng))

        answer = dropped(encoders.bigru_encode(dropped(model._embed_answers(answers)),
                                               model.qz_encoder))
        options = dropped(encoders.bigru_encode(dropped(model._embed_options(batch)),
                                                model.qz_encoder))
        return bilinear_score(answer.final, options.final, matcher)

    want_rng, got_rng = np.random.default_rng(11), np.random.default_rng(11)
    want = by_hand(want_rng)
    np.testing.assert_array_equal(model.score_options(batch, answers, got_rng).data, want.data)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert not np.array_equal(want.data, model.score_options(batch, answers).data)
    want_loss = selection_loss(by_hand(want_rng), batch.gold).item()
    assert model.selection_stage_loss(batch, answers, got_rng).item() == want_loss
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_predict_batch_shapes():
    model, _, _, batches = build_micro_pipeline()
    batch = batches[0]
    answers, spans = model.generate(batch)
    assert len(answers) == len(spans) == batch.size
    chosen = model.predict_batch(batch, answers)
    assert chosen.shape == (batch.size,)
    with ad.no_grad():
        scores = model.score_options(batch, answers)
    assert scores.data.shape == (batch.size, 4)
    np.testing.assert_array_equal(chosen, np.argmax(scores.data, axis=1))


def test_loading_a_float32_model_leaves_new_models_float64(tmp_path):
    model32, config32, _, _ = build_micro_pipeline(precision="float32")
    save_model_dir(tmp_path / "m32", model32, config32)
    loaded, _ = load_model_dir(tmp_path / "m32")
    model64, config64, _, _ = build_micro_pipeline()
    assert config64.precision == "float64"
    assert {p.data.dtype for p in model64.parameters()} == {np.dtype(np.float64)}
    assert {p.data.dtype for p in loaded.parameters()} == {np.dtype(np.float32)}


def test_float64_checkpoint_loads_into_a_float32_config_cast_once(tmp_path):
    model, config, _, _ = build_micro_pipeline()
    out = save_model_dir(tmp_path / "m", model, config)
    payload = json.loads((out / "config.json").read_text())
    payload["precision"] = "float32"
    (out / "config.json").write_text(json.dumps(payload))
    loaded, _ = load_model_dir(out)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert q.data.dtype == np.float32
        assert q.data.tobytes() == p.data.astype(np.float32).tobytes()


class _RngSpy:
    """A generator that logs every draw into ``draws``."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def spied(*args, **kwargs):
            self._draws.append(name)
            return method(*args, **kwargs)

        return spied


def test_load_model_dir_draws_nothing_and_holds_the_saved_values(tmp_path, monkeypatch):
    draws = []
    real_glorot, real_default_rng = ad.glorot, np.random.default_rng

    def glorot_spy(*args, **kwargs):
        init = real_glorot(*args, **kwargs)

        def draw():
            draws.append("glorot")
            return init.draw()

        return ad.Initializer(init.shape, draw)

    monkeypatch.setattr(ad, "glorot", glorot_spy)
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args, **kwargs: _RngSpy(real_default_rng(*args, **kwargs),
                                                        draws))
    model, config, _, _ = build_micro_pipeline()
    assert "glorot" in draws and "uniform" in draws  # the spies see a build's draws
    out = save_model_dir(tmp_path / "m", model, config)
    draws.clear()
    loaded, _ = load_model_dir(out)
    assert draws == []
    assert param_fingerprints(loaded.parameters()) == param_fingerprints(model.parameters())
    for p in loaded.parameters():
        flags = p.data.flags
        assert flags.writeable and flags.c_contiguous and flags.owndata, p.name


def test_checkpoint_disagreeing_with_an_edited_config_names_file_and_parameter(tmp_path):
    model, config, _, _ = build_micro_pipeline()
    out = save_model_dir(tmp_path / "m", model, config)
    payload = json.loads((out / "config.json").read_text())
    payload["hidden"] = config.hidden + 1
    (out / "config.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError) as excinfo:
        load_model_dir(out)
    message = str(excinfo.value)
    assert message.startswith(f"{out / 'model.ckpt'}: shape mismatch for '")


@pytest.mark.parametrize("drop, extra, expected", [
    ("decoder.out_b", None, "missing parameter 'decoder.out_b'"),
    (None, "decoder.spare", "unexpected parameters ['decoder.spare']"),
])
def test_checkpoint_with_a_missing_or_extra_parameter_names_file_and_parameter(
        tmp_path, drop, extra, expected):
    model, config, _, _ = build_micro_pipeline()
    out = save_model_dir(tmp_path / "m", model, config)
    params = [p for p in model.parameters() if p.name != drop]
    if extra is not None:
        params.append(ad.Parameter(extra, np.ones(2)))
    write_checkpoint(out / "model.ckpt", params)
    with pytest.raises(ValueError) as excinfo:
        load_model_dir(out)
    assert str(excinfo.value) == f"{out / 'model.ckpt'}: {expected}"


def test_checkpoint_with_a_non_finite_value_names_file_and_parameter(tmp_path):
    model, config, _, _ = build_micro_pipeline()
    model.store["decoder.out_b"].data[0] = np.nan
    out = save_model_dir(tmp_path / "m", model, config)
    with pytest.raises(ad.NonFiniteError) as excinfo:
        load_model_dir(out)
    assert str(excinfo.value) == (f"{out / 'model.ckpt'}: "
                                  "non-finite value in parameter 'decoder.out_b'")


def test_a_nan_written_into_any_parameter_is_caught_downstream():
    # the optimizer writes parameters in place, unchecked; the first
    # checking op that reads one must raise
    model, config, _, batches = build_micro_pipeline()
    batch = batches[0]
    targets = oracle_targets(batch, config.max_span)
    answers, _ = model.generate(batch)
    for param in model.parameters():
        saved = param.data.copy()
        param.data[...] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(ad.NonFiniteError):
            model.stage_one_loss(batch, targets, None)
            model.selection_stage_loss(batch, answers, None)
        param.data[...] = saved


def test_float32_model_computes_in_float32():
    model, config, _, batches = build_micro_pipeline(precision="float32")
    batch = batches[0]
    loss, _ = model.stage_one_loss(batch, oracle_targets(batch, config.max_span), None)
    assert loss.data.dtype == np.float32
    ad.zero_grads(model.trainable_parameters())
    ad.backward(loss)
    assert [p.name for p in model.parameters() if p.grad is None] == [MATCHER_PARAM]
    assert ({p.grad.dtype for p in model.parameters() if p.grad is not None}
            == {np.dtype(np.float32)})
    with ad.no_grad():
        scores = model.score_options(batch, model.generate(batch)[0])
    assert scores.data.dtype == np.float32


def test_freeze_partition_covers_all_parameters():
    model, _, _, _ = build_micro_pipeline()
    assert model.freeze_for_selection_stage() is None
    frozen = [p.name for p in model.parameters() if not p.requires_grad]
    assert set(frozen) == {p.name for p in model.store.all()} - {MATCHER_PARAM}
    assert [p.name for p in model.trainable_parameters()] == [MATCHER_PARAM]


def test_frozen_parameters_stay_out_of_the_gradient_bookkeeping():
    model, config, _, batches = build_micro_pipeline(fine_tune_embeddings=False)
    trainable = model.trainable_parameters()
    assert all(p is not model.embedding for p in trainable)
    for p in trainable:
        p.grad = np.ones_like(p.data)
    stale = np.full_like(model.embedding.data, 1e6)
    model.embedding.grad = stale  # stale: the norm and zeroing skip it
    expected = math.sqrt(sum(p.grad.size for p in trainable))
    assert ad.global_grad_norm(trainable) == pytest.approx(expected, rel=1e-12)
    ad.zero_grads(trainable)
    assert all(p.grad is None for p in trainable)
    assert model.embedding.grad is stale
    # freezing is the requires_grad flag: backward then hands the
    # parameter nothing
    out_b = model.store["decoder.out_b"]
    out_b.requires_grad = False
    assert out_b not in model.trainable_parameters()
    targets = oracle_targets(batches[0], config.max_span)
    loss, _ = model.stage_one_loss(batches[0], targets, None)
    ad.backward(loss)
    assert out_b.grad is None and model.embedding.grad is stale


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
        stage_one, _ = model.stage_one_loss(batch, targets, None)
        scores = model.score_options(batch, answers)
        from genmatch.selector import selection_loss
        return ad.add(stage_one, selection_loss(scores, batch.gold))

    report = check_gradients(params, loss_fn, tolerance=1e-4,
                             max_elements_per_param=4,
                             rng=np.random.default_rng(0))
    assert report.passed, report.summary()
