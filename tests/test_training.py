import dataclasses
import json
import math
import tempfile
import weakref
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from genmatch import autodiff as ad
from genmatch import training
from genmatch.checkpoint import param_fingerprints
from genmatch.corpus import (
    CharVocabulary,
    Instance,
    Vocabulary,
    instance_token_streams,
    make_batches,
    random_embeddings,
)
from genmatch.evaluation import evaluate
from genmatch.extractor import oracle_span
from genmatch.model import PipelineModel, build_model
from genmatch.model_io import load_model_dir, save_model_dir
from genmatch.training import (
    StageResult,
    TrainConfig,
    compute_oracle_spans,
    train_selection_stage,
    train_synthesis_stage,
)

from helpers import (
    micro_config,
    reachable_op_nodes,
    toy_instances,
    traced_peak,
    use_five_pass_step,
)


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
    config = TrainConfig.from_file(cfg_file, base=TrainConfig())
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
        TrainConfig.from_file(bad, base=TrainConfig())


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(precision="float16")
    # numpy's SeedSequence takes no negative seed, and its own error names no key
    with pytest.raises(ValueError, match="^config field seed must be non-negative$"):
        TrainConfig(seed=-1)


def test_synthesis_stage_trains_and_logs():
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=3)
    result = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    assert len(result.history) >= 1
    assert result.max_post_clip_norm <= config.clip_norm + 1e-9
    first, last = result.history[0], result.history[-1]
    assert last["train_loss"] <= first["train_loss"] * 1.5  # descending trend, loosely
    with pytest.raises(ValueError):
        train_synthesis_stage(config, [], dev, vocab, char_vocab, table)


def test_two_pass_step_moves_every_parameter_as_the_five_pass_reference(monkeypatch):
    # a clip of 1e-3 scales every step, so Adam reads each gradient scaled
    def run():
        config, train, dev, vocab, char_vocab, table = setup_training(
            max_epochs=2, patience=5, dropout=0.2, clip_norm=1e-3)
        return train_synthesis_stage(config, train, dev, vocab, char_vocab, table)

    result = run()
    with monkeypatch.context() as patched:
        use_five_pass_step(patched)
        reference = run()
    assert [h["clip_rate"] for h in result.history] == [1.0, 1.0]
    assert ([(h["train_loss"], h["dev_loss"]) for h in result.history]
            == [(h["train_loss"], h["dev_loss"]) for h in reference.history])
    assert (param_fingerprints(result.model.parameters())
            == param_fingerprints(reference.model.parameters()))
    assert result.max_post_clip_norm == pytest.approx(reference.max_post_clip_norm,
                                                      rel=1e-12, abs=0)


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


def test_dev_loss_records_no_tape_and_keeps_its_value(monkeypatch):
    from genmatch.training import _dev_stage_one_loss
    config, train, dev, vocab, char_vocab, table = setup_training()
    model = build_model(config, vocab, char_vocab, table.matrix, seed=config.seed)
    spans = compute_oracle_spans(train + dev, config.max_span)
    recorded_total, count = 0.0, 0
    for batch in make_batches(dev, vocab, config.batch_size):
        loss, _ = model.stage_one_loss(batch, [spans[i] for i in batch.instances], None)
        assert loss.requires_grad
        recorded_total += loss.item() * batch.size
        count += batch.size
    recording = []
    original = PipelineModel.stage_one_loss

    def spy(self, *args, **kwargs):
        loss, parts = original(self, *args, **kwargs)
        recording.append(loss.requires_grad)
        return loss, parts

    monkeypatch.setattr(PipelineModel, "stage_one_loss", spy)
    assert _dev_stage_one_loss(model, dev, spans, config) == recorded_total / count
    assert recording and not any(recording)


def test_selection_stage_freezes_stage_one_and_starts_at_log4():
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=2)
    stage1 = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    model = stage1.model
    epoch_zero_accuracy = evaluate(model, dev, config.batch_size).accuracy
    model.freeze_for_selection_stage()
    frozen_names = [p.name for p in model.parameters() if not p.requires_grad]
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
        assert entry["train_s"] > 0 and entry["dev_s"] > 0
        assert entry["inst_per_s"] == len(train) / entry["train_s"]
        phases = [entry[key] for key in ("forward_s", "backward_s", "optimizer_s")]
        assert all(seconds > 0 for seconds in phases)
        assert sum(phases) <= entry["train_s"]


def test_history_entries_record_the_mean_tape_size_per_step(monkeypatch):
    sizes = []
    backward = ad.backward

    def counting_backward(loss):
        sizes.append(reachable_op_nodes(loss))
        return backward(loss)

    monkeypatch.setattr(ad, "backward", counting_backward)
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=2, patience=5)
    stage1 = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    stage2 = train_selection_stage(config, stage1.model, train, dev)
    steps = len(make_batches(train, vocab, config.batch_size))
    entries = stage1.history + stage2.history
    assert len(sizes) == steps * len(entries) == steps * 4
    for i, entry in enumerate(entries):
        epoch_sizes = sizes[i * steps:(i + 1) * steps]
        assert entry["tape_nodes"] == sum(epoch_sizes) / steps
    assert stage2.history[0]["tape_nodes"] < stage1.history[0]["tape_nodes"]


def test_history_entries_record_the_pre_clip_norm_of_one_norm_pass_per_step(monkeypatch):
    norms = []
    norm = ad.global_grad_norm

    def recording_norm(params):
        norms.append(norm(params))
        return norms[-1]

    monkeypatch.setattr(ad, "global_grad_norm", recording_norm)
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=2, patience=5,
                                                                  clip_norm=0.5)
    stage1 = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    stage2 = train_selection_stage(config, stage1.model, train, dev)
    steps = len(make_batches(train, vocab, config.batch_size))
    entries = stage1.history + stage2.history
    assert len(norms) == steps * len(entries) == steps * 4
    for i, entry in enumerate(entries):
        epoch_norms = norms[i * steps:(i + 1) * steps]
        assert entry["grad_norm_mean"] == sum(epoch_norms) / steps
        assert entry["grad_norm_max"] == max(epoch_norms)
        clipped = [ad.clip_global_norm(n, config.clip_norm) < 1.0 for n in epoch_norms]
        assert entry["clip_rate"] == sum(clipped) / steps


def test_no_activation_of_a_step_is_alive_at_the_clip_or_the_optimizer_step(monkeypatch):
    # the attention weights of every decoder step and every pooling: no
    # gradient keeps them, unlike the output layer's input and softmax,
    # which ``decoder.out_w``'s gradient keeps as its factors by design
    weights = []
    checked = []
    attention_weights = ad.attention_weights
    norm = ad.global_grad_norm

    def recording_weights(*args):
        out = attention_weights(*args)
        weights.append(weakref.ref(out.data))
        return out

    def check_released():
        assert weights and all(ref() is None for ref in weights)
        checked.append(len(weights))

    def checking_norm(params):
        check_released()
        return norm(params)

    class CheckingAdam(ad.Adam):
        def step(self, scale=1.0):
            check_released()
            return super().step(scale)

    monkeypatch.setattr(ad, "attention_weights", recording_weights)
    monkeypatch.setattr(ad, "global_grad_norm", checking_norm)
    monkeypatch.setattr(training, "Adam", CheckingAdam)
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=1)
    train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    steps = len(make_batches(train, vocab, config.batch_size))
    assert len(checked) == 2 * steps


@pytest.mark.parametrize("fine_tune", [False, True])
def test_stage_one_shares_a_frozen_word_table_and_copies_a_trainable_one(fine_tune):
    config, train, dev, vocab, char_vocab, table = setup_training(
        max_epochs=1, fine_tune_embeddings=fine_tune)
    before = table.matrix.copy()
    emb = train_synthesis_stage(config, train, dev, vocab, char_vocab, table).model.embedding
    assert np.shares_memory(emb.data, table.matrix) is not fine_tune
    assert emb.data.flags.writeable is fine_tune
    if not fine_tune:
        with pytest.raises(ValueError, match="read-only"):
            emb.data += 1.0
    np.testing.assert_array_equal(table.matrix, before)


def test_stage_one_stops_after_patience_holding_its_epoch_zero_snapshot():
    # steps of 1e-13 move every weight but cannot lower the dev loss by the
    # 1e-9 an improvement needs
    config, train, dev, vocab, char_vocab, table = setup_training(
        max_epochs=10, patience=3, lr=1e-13)
    initial = build_model(config, vocab, char_vocab, table.matrix.copy(), config.seed)
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
    model = build_model(config, vocab, char_vocab, table.matrix.copy(), config.seed)
    before = param_fingerprints(model.parameters())
    result = train_selection_stage(config, model, train,
                                   _identical_options(dev, gold_index))
    assert [h["dev_accuracy"] for h in result.history] == [accuracy] * epochs
    assert result.best_epoch == 0 and result.best_metric == accuracy
    assert param_fingerprints(model.parameters()) == before


BIG = 2_000_000  # elements of the one parameter of the snapshot tests


def run_big_stage(dev_losses, batch_loss=None):
    """``_train_epochs`` over one trainable parameter of ``BIG`` float64
    elements, created inside the run, with the loss sum(0.5 p) unless
    ``batch_loss`` is given and a dev loss read from ``dev_losses`` in turn. Returns the parameter, the result, the
    fingerprint of the parameter at each dev pass and the traced peak."""
    config, train, _, vocab, _, _ = setup_training(max_epochs=3, patience=2)
    losses = iter(dev_losses)
    seen = []

    def run():
        param = ad.Parameter("big", np.random.default_rng(0).standard_normal(BIG))
        model = SimpleNamespace(vocab=vocab, trainable_parameters=lambda: [param])

        def dev_metric():
            seen.append(param_fingerprints([param])["big"])
            return next(losses)

        result = training._train_epochs(
            config, model, train, stage="big", seed=0,
            batch_loss=batch_loss or (lambda batch, rng: (
                ad.tensor_sum(ad.mul_const(param, 0.5)), {})),
            dev_metric=dev_metric, metric_name="dev_loss",
            improved=lambda loss, best: loss < best)
        return param, result

    (param, result), peak = traced_peak(run)
    return param, result, seen, peak


@pytest.mark.parametrize("dev_losses, best_epoch", [
    ([4.0, 3.0, 2.0, 1.0], 3),   # the last epoch is the best: nothing is read
    ([1.0, 2.0, 3.0], 0),        # patience runs out over epoch 0's values
    ([2.0, 1.0, 3.0, 4.0], 1),
], ids=["last_is_best", "epoch_zero_restored", "epoch_one_restored"])
def test_the_best_epoch_snapshot_holds_no_copy_of_the_parameters_in_memory(
        dev_losses, best_epoch):
    param, result, seen, peak = run_big_stage(dev_losses)
    assert result.best_epoch == best_epoch
    assert len(result.history) == len(dev_losses) - 1
    # bit for bit the values the best epoch's dev pass scored
    assert param_fingerprints([param])["big"] == seen[best_epoch]
    assert param.grad is None
    # live at the peak: the parameter, Adam's two moments, a step's grad and
    # its one activation (the 0.5 p product), five copies; an in-memory
    # snapshot would be a sixth
    copy = 8 * BIG
    assert peak < 5 * copy + copy // 4


@pytest.mark.parametrize("fails", [False, True], ids=["finishes", "raises"])
def test_a_stage_leaves_no_snapshot_in_the_temp_directory(tmp_path, monkeypatch, fails):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    during = []
    steps = 0

    def batch_loss(batch, rng):
        nonlocal steps
        steps += 1
        # the snapshot was written before the epoch's first step
        during.append(sorted(p.name for p in tmp_path.rglob("*")))
        if fails and steps == 2:
            raise RuntimeError("mid-epoch failure")
        return ad.tensor_sum(ad.Parameter("w", np.ones(3))), {}

    if fails:
        with pytest.raises(RuntimeError, match="mid-epoch failure"):
            run_big_stage([1.0, 2.0, 3.0], batch_loss=batch_loss)
    else:
        run_big_stage([1.0, 2.0, 3.0], batch_loss=batch_loss)
    assert during and all(len(names) == 2 and "best.ckpt" in names for names in during)
    assert list(tmp_path.iterdir()) == []


def test_a_failing_dev_batch_names_the_stage_epoch_and_batch(monkeypatch):
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=2)
    per_pass = len(make_batches(dev, vocab, config.batch_size))
    original = PipelineModel.stage_one_loss
    dev_batches = []

    def failing(self, batch, targets, rng=None):
        if rng is None:
            dev_batches.append(batch)
            # the first batch of epoch 1's dev pass
            if len(dev_batches) == per_pass + 1:
                raise ad.NonFiniteError("non-finite value from log")
        return original(self, batch, targets, rng)

    monkeypatch.setattr(PipelineModel, "stage_one_loss", failing)
    with pytest.raises(ad.NonFiniteError) as excinfo:
        train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    batch = dev_batches[-1]
    uids = ", ".join(inst.uid for inst in batch.instances[:3])
    more = ", ..." if batch.size > 3 else ""
    assert str(excinfo.value) == (f"synthesis epoch 1 dev pass: dev-loss batch 1 "
                                  f"(instances {uids}{more}): non-finite value from log")
    assert str(excinfo.value.__cause__.__cause__) == "non-finite value from log"


def test_config_json_with_retired_keys_at_their_fixed_values_still_loads(tmp_path):
    config, train, dev, vocab, char_vocab, table = setup_training()
    model = build_model(config, vocab, char_vocab, table.matrix.copy(), config.seed)
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


@pytest.mark.parametrize("key, value", [
    ("stage1_joint", False), ("foo", 1),
    # a value of the wrong type: an integer key takes neither a float nor a
    # bool, a number key no bool, a boolean key no integer
    ("hidden", 8.0), ("hidden", True), ("lr", False), ("fine_tune_embeddings", 1),
])
def test_bad_config_json_key_names_the_file_and_key(tmp_path, key, value):
    config, train, dev, vocab, char_vocab, table = setup_training()
    model = build_model(config, vocab, char_vocab, table.matrix.copy(), config.seed)
    out = save_model_dir(tmp_path / "model", model, config)
    payload = json.loads((out / "config.json").read_text())
    payload[key] = value
    (out / "config.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError) as excinfo:
        load_model_dir(out)
    message = str(excinfo.value)
    assert message.startswith(f"{out / 'config.json'}: ")
    assert repr(key) in message


@pytest.mark.parametrize("sidecar", ["config.json", "vocab.json"])
def test_a_sidecar_that_is_not_utf8_names_the_file(tmp_path, sidecar):
    config, train, dev, vocab, char_vocab, table = setup_training()
    model = build_model(config, vocab, char_vocab, table.matrix.copy(), config.seed)
    out = save_model_dir(tmp_path / "model", model, config)
    path = out / sidecar
    path.write_bytes(path.read_bytes().replace(b'"', b'"\xe9', 1))
    with pytest.raises(ValueError) as excinfo:
        load_model_dir(out)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert "utf-8" in str(excinfo.value)


def test_config_json_float_keys_take_integers():
    config = TrainConfig.from_payload({"lr": 1, "hidden": 8, "fine_tune_embeddings": True})
    assert config.lr == 1.0 and isinstance(config.lr, float)
    assert config.hidden == 8 and config.fine_tune_embeddings is True


def test_both_stages_reject_an_empty_dev_split():
    config, train, dev, vocab, char_vocab, table = setup_training()
    with pytest.raises(ValueError, match="empty dev set"):
        train_synthesis_stage(config, train, [], vocab, char_vocab, table)
    model = build_model(config, vocab, char_vocab, table.matrix.copy(), config.seed)
    with pytest.raises(ValueError, match="empty dev set"):
        train_selection_stage(config, model, train, [])


def test_oracle_spans_are_keyed_by_instance_not_uid():
    config, train, dev, *_ = setup_training()

    def own_span(inst):
        return oracle_span(inst.passage_tokens, inst.option_tokens[inst.gold_index],
                           config.max_span)

    clash = next(dataclasses.replace(d, uid=train[0].uid) for d in dev
                 if d.passage_tokens != train[0].passage_tokens
                 and own_span(d) != own_span(train[0]))
    spans = compute_oracle_spans(train + [clash], config.max_span)
    assert spans[train[0]] == own_span(train[0])
    assert spans[clash] == own_span(clash)


def run_selection_stage_with_spies(monkeypatch):
    """Three selection epochs on a stage-one model, recording each instance
    handed to ``generate`` and each (instance, answer) pair the stage
    scores. Returns the model, the train and dev instances, the generation
    counts, the scored pairs and the unwrapped ``generate``."""
    config, train, dev, vocab, char_vocab, table = setup_training(max_epochs=3,
                                                                  patience=5)
    model = train_synthesis_stage(config, train, dev, vocab, char_vocab, table).model
    generated, scored = Counter(), []
    generate = PipelineModel.generate

    def generate_spy(self, batch):
        generated.update(batch.instances)
        return generate(self, batch)

    def scoring_spy(original):
        def spy(self, batch, answers, *args, **kwargs):
            scored.extend(zip(batch.instances, answers))
            return original(self, batch, answers, *args, **kwargs)
        return spy

    monkeypatch.setattr(PipelineModel, "generate", generate_spy)
    for name in ("selection_stage_loss", "predict_batch"):
        monkeypatch.setattr(PipelineModel, name, scoring_spy(getattr(PipelineModel, name)))
    result = train_selection_stage(config, model, train, dev)
    assert len(result.history) == 3
    return model, train + dev, generated, scored, generate


def test_selection_stage_generates_each_instance_once(monkeypatch):
    _, instances, generated, scored, _ = run_selection_stage_with_spies(monkeypatch)
    assert generated == Counter(set(instances))
    assert {inst for inst, _ in scored} == set(instances)


def test_selection_stage_scores_the_answers_a_batch_of_one_generates(monkeypatch):
    model, _, _, scored, generate = run_selection_stage_with_spies(monkeypatch)
    for inst, answer in scored:
        alone = make_batches([inst], model.vocab, 1)[0]
        assert generate(model, alone)[0][0].token_ids == answer.token_ids


# ---------------------------------------------------------------------------
# cost in sequence length


def long_passage_setup(length, lexicon):
    """A hidden-16 model and one batch of 4 passages of ``length`` tokens,
    whose vocabularies, questions and options do not depend on ``length``."""
    rng = np.random.default_rng(5)
    words = lexicon[rng.integers(0, len(lexicon), size=(4, length))]
    instances = [Instance(uid=f"long-{b}", passage_tokens=tuple(words[b]),
                          question_tokens=tuple(lexicon[b:b + 4]),
                          option_tokens=tuple((lexicon[b + k], lexicon[k]) for k in range(4)),
                          gold_index=b % 4)
                 for b in range(4)]
    config = micro_config(hidden=16, dropout=0.1)
    vocab = Vocabulary.build([list(lexicon)], cap=config.vocab_cap)
    char_vocab = CharVocabulary.build([list(lexicon)])
    table = random_embeddings(vocab, config.embed_dim, seed=config.seed, trainable=True)
    model = build_model(config, vocab, char_vocab, table.matrix, seed=config.seed)
    batch = make_batches(instances, vocab, 4)[0]
    spans = compute_oracle_spans(instances, config.max_span)
    return model, batch, [spans[inst] for inst in batch.instances], instances


def test_a_step_and_an_eval_cost_linear_memory_and_fixed_tape_in_passage_length():
    # a superlinear op (an O(T^2) backward, a (T, T) temporary) shows as a
    # peak that more than doubles when T doubles; the test times nothing
    lexicon = np.array([f"w{i}{chr(97 + i % 26)}" for i in range(40)])
    nodes, train_peaks, eval_peaks = [], [], []
    for length in (100, 200, 400, 800):
        model, batch, spans, instances = long_passage_setup(length, lexicon)
        optimizer = ad.Adam(model.trainable_parameters(), lr=0.005)
        rng = np.random.default_rng(0)

        def step():
            trainable = model.trainable_parameters()
            ad.zero_grads(trainable)
            loss, _ = model.stage_one_loss(batch, spans, rng)
            ran = ad.backward(loss)
            optimizer.step(ad.clip_global_norm(ad.global_grad_norm(trainable), 10.0))
            return ran

        ran, peak = traced_peak(step)
        nodes.append(ran)
        train_peaks.append(peak)
        eval_peaks.append(traced_peak(lambda: evaluate(model, instances, 4))[1])
    assert nodes == [nodes[0]] * 4
    for peaks in (train_peaks, eval_peaks):
        ratios = [later / earlier for earlier, later in zip(peaks, peaks[1:])]
        assert max(ratios) <= 2.2, (peaks, ratios)
