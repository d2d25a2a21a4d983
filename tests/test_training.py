import dataclasses
import json
import math

import numpy as np
import pytest

from genmatch.checkpoint import param_fingerprints
from genmatch.corpus import (
    CharVocabulary,
    Vocabulary,
    instance_token_streams,
    random_embeddings,
)
from genmatch.evaluation import evaluate
from genmatch.model import build_model
from genmatch.model_io import load_model_dir, save_model_dir
from genmatch.training import (
    StageResult,
    TrainConfig,
    compute_oracle_spans,
    train_selection_stage,
    train_synthesis_stage,
)

from helpers import micro_config, toy_instances


def setup_training(n_passages=6, seed=21, **overrides):
    config = micro_config(**overrides)
    instances = toy_instances(n_passages, seed=seed)
    split = max(2, int(0.8 * len(instances)))
    train, dev = instances[:split], instances[split:]
    vocab = Vocabulary.build(instance_token_streams(train), cap=config.vocab_cap)
    char_vocab = CharVocabulary.build(instance_token_streams(train, include_options=True))
    table = random_embeddings(vocab, config.embed_dim, seed=config.seed,
                              trainable=config.fine_tune_embeddings)
    return config, train, dev, vocab, char_vocab, table


def test_config_defaults_are_the_reference_recipe():
    config = TrainConfig()
    assert config.lr == 0.005
    assert config.clip_norm == 10.0
    assert config.batch_size == 32
    assert config.vocab_cap == 65_000
    assert config.embed_dim == 300
    assert config.hidden == 128
    assert config.dropout == 0.45
    assert config.max_epochs == 80
    assert config.max_span == 30
    assert config.fine_tune_embeddings is False


def test_config_file_parsing_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("""
# comment line
lr = 0.01
hidden = 16
fine_tune_embeddings = true
""")
    config = TrainConfig.from_file(cfg_file)
    assert config.lr == 0.01 and config.hidden == 16
    assert config.fine_tune_embeddings is True
    assert config.batch_size == 32  # untouched default
    overridden = config.with_overrides({"hidden": "8"})
    assert overridden.hidden == 8
    with pytest.raises(ValueError):
        config.with_overrides({"nonsense": "1"})
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        TrainConfig.from_file(bad)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(precision="float16")


def test_synthesis_stage_trains_and_logs():
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=3)
    result = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    assert len(result.history) >= 1
    assert result.max_post_clip_norm <= config.clip_norm + 1e-9
    first, last = result.history[0], result.history[-1]
    assert last["train_loss"] <= first["train_loss"] * 1.5  # descending trend, loosely
    with pytest.raises(ValueError):
        train_synthesis_stage(config, [], dev, vocab, char_vocab, table)


def test_logged_loss_parts_recombine_to_the_train_loss():
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=2)
    result = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    for entry in result.history:
        assert entry["span_loss"] > 0 and entry["synthesis_loss"] > 0
        recombined = entry["span_loss"] + entry["synthesis_loss"]
        assert recombined == pytest.approx(entry["train_loss"], rel=1e-12)


def test_training_trajectory_is_bit_identical_under_fixed_seed():
    losses = []
    for _ in range(2):
        config, train, dev, vocab, char_vocab, table = setup_training(
            max_epochs=2, dropout=0.2)
        result = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
        losses.append([(h["train_loss"], h["dev_loss"]) for h in result.history])
    assert losses[0] == losses[1]


def test_best_dev_checkpoint_never_worse_than_epoch_zero():
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=3)
    result = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    spans = compute_oracle_spans(train + dev, config.max_span)
    from genmatch.training import _dev_stage_one_loss
    final_dev = _dev_stage_one_loss(result.model, dev, spans, config)
    assert final_dev <= result.best_metric + 1e-9


def test_selection_stage_freezes_stage_one_and_starts_at_log4():
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=2)
    stage1 = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    model = stage1.model
    epoch_zero_accuracy = evaluate(model, dev, config.batch_size).accuracy
    frozen_names = model.stage_one_frozen_names()
    before = param_fingerprints([model.store[n] for n in frozen_names])
    result = train_selection_stage(config, model, train, dev)
    after = param_fingerprints([model.store[n] for n in frozen_names])
    assert before == after
    first_epoch = result.history[0]
    assert first_epoch["train_loss"] == pytest.approx(math.log(4.0), abs=0.05)
    assert result.max_post_clip_norm <= config.clip_norm + 1e-9
    # dev-selected checkpoint is at least as good as the epoch-0 model
    assert result.best_metric >= epoch_zero_accuracy


def test_model_dir_round_trip_reproduces_reports(tmp_path):
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=2)
    stage1 = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    report_before = evaluate(stage1.model, dev, config.batch_size)
    out = save_model_dir(tmp_path / "model", stage1.model, config,
                         history=stage1.history_payload())
    loaded, loaded_config = load_model_dir(out)
    assert loaded_config == config
    report_after = evaluate(loaded, dev, config.batch_size)
    assert report_before.to_json() == report_after.to_json()
    assert (out / "history.json").exists()
    payload = json.loads((out / "history.json").read_text())
    assert payload["history"]


def test_history_entries_carry_clip_rate_and_throughput():
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=2,
                                                                  clip_norm=1e-6)
    stage1 = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    stage2 = train_selection_stage(config, stage1.model, train, dev)
    for entry in stage1.history + stage2.history:
        assert entry["clip_rate"] == 1.0
        assert entry["inst_per_s"] > 0


def test_stage_one_stops_after_patience_holding_its_epoch_zero_snapshot():
    # steps of 1e-13 move every weight but cannot lower the dev loss by the
    # 1e-9 an improvement needs
    config, train, dev, vocab, char_vocab, table = setup_training(
        max_epochs=10, patience=3, lr=1e-13)
    initial = build_model(config.dims(vocab, char_vocab), vocab, char_vocab,
                          table.matrix.copy(), config.seed)
    result = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    assert [h["epoch"] for h in result.history] == [1, 2, 3]
    assert result.best_epoch == 0
    assert (param_fingerprints(result.model.parameters())
            == param_fingerprints(initial.parameters()))


def _identical_options(instances, gold_index):
    """Dev instances whose four options are one text: every option scores the
    same under any matcher, so the tie goes to option 0 at every epoch."""
    return [dataclasses.replace(inst, option_tokens=(inst.option_tokens[0],) * 4,
                                gold_index=gold_index)
            for inst in instances]


@pytest.mark.parametrize("gold_index, epochs, accuracy", [(1, 3, 0.0), (0, 1, 1.0)])
def test_stage_two_stops_on_patience_or_perfect_dev_holding_its_epoch_zero_snapshot(
        gold_index, epochs, accuracy):
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=10, patience=3)
    model = build_model(config.dims(vocab, char_vocab), vocab, char_vocab,
                        table.matrix.copy(), config.seed)
    before = param_fingerprints(model.parameters())
    result = train_selection_stage(config, model, train,
                                   _identical_options(dev, gold_index))
    assert [h["dev_accuracy"] for h in result.history] == [accuracy] * epochs
    assert result.best_epoch == 0 and result.best_metric == accuracy
    assert param_fingerprints(model.parameters()) == before


def test_config_json_with_retired_keys_at_their_fixed_values_still_loads(tmp_path):
    config, train, dev, vocab, char_vocab, table = setup_training()
    model = build_model(config.dims(vocab, char_vocab), vocab, char_vocab,
                        table.matrix.copy(), config.seed)
    out = save_model_dir(tmp_path / "model", model, config)
    report = evaluate(load_model_dir(out)[0], dev, config.batch_size).to_json()
    payload = json.loads((out / "config.json").read_text())
    payload.update(stage1_joint=True, span_loss_weight=1.0, synthesis_loss_weight=1.0,
                   train_matcher_encoder=False, option_pooling="final",
                   adam_beta1=0.9, adam_beta2=0.999, adam_eps=1e-08)
    (out / "config.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    loaded, loaded_config = load_model_dir(out)
    assert loaded_config == config
    assert evaluate(loaded, dev, config.batch_size).to_json() == report


@pytest.mark.parametrize("key, value", [("stage1_joint", False), ("foo", 1)])
def test_bad_config_json_key_names_the_file_and_key(tmp_path, key, value):
    config, train, dev, vocab, char_vocab, table = setup_training()
    model = build_model(config.dims(vocab, char_vocab), vocab, char_vocab,
                        table.matrix.copy(), config.seed)
    out = save_model_dir(tmp_path / "model", model, config)
    payload = json.loads((out / "config.json").read_text())
    payload[key] = value
    (out / "config.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError) as excinfo:
        load_model_dir(out)
    message = str(excinfo.value)
    assert message.startswith(f"{out / 'config.json'}: ")
    assert repr(key) in message
