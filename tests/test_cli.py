import json
import shutil

import numpy as np
import pytest

from genmatch import evaluation
from genmatch.checkpoint import read_checkpoint
from genmatch.cli import main
from genmatch.corpus import load_dataset_dir, make_batches

from test_corpus import BROKEN_RECORDS, SAMPLE


TOY_ARGS = ["--passages", "12", "--seed", "5"]
FAST_TRAIN = [
    "--set", "hidden=8", "--set", "embed_dim=8", "--set", "char_dim=2",
    "--set", "char_hidden=2", "--set", "dropout=0.0", "--set", "max_epochs=2",
    "--set", "patience=2", "--set", "fine_tune_embeddings=true", "--set", "seed=3",
]


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "toy"
    assert main(["gen-toy", "--out", str(root)] + TOY_ARGS) == 0
    return root


@pytest.fixture(scope="module")
def trained_dirs(tmp_path_factory, toy_dir):
    models = tmp_path_factory.mktemp("models")
    stage1 = models / "stage1"
    stage2 = models / "stage2"
    assert main(["train-synthesis", "--data", str(toy_dir), "--out", str(stage1)]
                + FAST_TRAIN) == 0
    assert main(["train-selection", "--data", str(toy_dir), "--stage1", str(stage1),
                 "--out", str(stage2)] + FAST_TRAIN) == 0
    return stage1, stage2


def test_gen_toy_writes_parseable_splits(toy_dir):
    splits = load_dataset_dir(toy_dir)
    assert set(splits) == {"train", "dev", "test"}
    assert all(splits.values())


def test_training_commands_write_model_dirs(trained_dirs):
    stage1, stage2 = trained_dirs
    for model_dir in (stage1, stage2):
        assert (model_dir / "model.ckpt").exists()
        assert (model_dir / "vocab.json").exists()
        assert (model_dir / "config.json").exists()
        assert (model_dir / "history.json").exists()


def test_eval_writes_report(trained_dirs, toy_dir, tmp_path, capsys):
    _, stage2 = trained_dirs
    report_path = tmp_path / "report.json"
    assert main(["eval", "--checkpoint", str(stage2), "--data", str(toy_dir),
                 "--split", "test", "--report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "overall" in out
    payload = json.loads(report_path.read_text())
    assert 0.0 <= payload["accuracy"] <= 1.0
    assert payload["meta"]["checkpoint_policy"] == "best-dev"
    assert payload["predictions"]


def test_baseline_commands(toy_dir, tmp_path, capsys):
    report_path = tmp_path / "rand.json"
    assert main(["baseline", "--kind", "random", "--data", str(toy_dir),
                 "--split", "test", "--seed", "11", "--report", str(report_path)]) == 0
    rand = json.loads(report_path.read_text())
    assert main(["baseline", "--kind", "sliding-window", "--data", str(toy_dir),
                 "--split", "test", "--window", "10"]) == 0
    out = capsys.readouterr().out
    assert "overall" in out
    assert rand["meta"]["kind"] == "random-baseline"


@pytest.mark.parametrize("window", ["0", "-3"])
def test_sliding_window_baseline_rejects_a_window_below_one(toy_dir, capsys, window):
    assert main(["baseline", "--kind", "sliding-window", "--data", str(toy_dir),
                 "--window", window]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == f"error: --window must be at least 1, got {window}"


@pytest.mark.parametrize("layout", ["empty_dir", "empty_test_split"])
def test_eval_and_baseline_on_a_split_with_no_records_name_the_directory_and_split(
        trained_dirs, tmp_path, capsys, layout):
    _, stage2 = trained_dirs
    data = tmp_path / "data"
    (data / "test" if layout == "empty_test_split" else data).mkdir(parents=True)
    for command in (["eval", "--checkpoint", str(stage2)], ["baseline", "--kind", "random"]):
        assert main(command + ["--data", str(data)]) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == f"error: {data}: split 'test' holds no records"


def test_predict_prints_letter_and_answer(trained_dirs, toy_dir, capsys):
    _, stage2 = trained_dirs
    record = sorted((toy_dir / "test").glob("*.json"))[0]
    assert main(["predict", "--checkpoint", str(stage2), "--input", str(record)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "\t" in l]
    assert lines
    for line in lines:
        uid, letter, answer = line.split("\t")
        assert letter in "ABCD"
        assert ":" in uid


def test_predict_batches_as_eval_does(trained_dirs, toy_dir, tmp_path, capsys, monkeypatch):
    # both commands take the batch size from the model's config, so a record
    # is predicted in the same batches either way
    sizes = []

    def spy(instances, vocab, batch_size, *rest):
        sizes.append(batch_size)
        return make_batches(instances, vocab, batch_size, *rest)

    stage1, _ = trained_dirs
    model = tmp_path / "batch2"
    assert main(["train-selection", "--data", str(toy_dir), "--stage1", str(stage1),
                 "--out", str(model), "--set", "batch_size=2"] + FAST_TRAIN) == 0
    assert json.loads((model / "config.json").read_text(encoding="utf-8"))["batch_size"] == 2
    record = sorted((toy_dir / "test").glob("*.json"))[0]
    data = tmp_path / "one"
    (data / "test").mkdir(parents=True)
    shutil.copy(record, data / "test" / record.name)
    report_path = tmp_path / "report.json"
    monkeypatch.setattr(evaluation, "make_batches", spy)
    assert main(["eval", "--checkpoint", str(model), "--data", str(data),
                 "--report", str(report_path)]) == 0
    predictions = json.loads(report_path.read_text(encoding="utf-8"))["predictions"]
    assert len(predictions) > 2
    capsys.readouterr()
    assert main(["predict", "--checkpoint", str(model), "--input", str(record)]) == 0
    printed = [tuple(line.split("\t")) for line in capsys.readouterr().out.splitlines()]
    assert printed == [(p["id"], "ABCD"[p["predicted"]], p["answer"]) for p in predictions]
    assert sizes == [2, 2]


@pytest.mark.parametrize("kind", sorted(BROKEN_RECORDS))
def test_broken_record_errors_name_the_file(trained_dirs, toy_dir, tmp_path, capsys, kind):
    _, stage2 = trained_dirs
    text, detail = BROKEN_RECORDS[kind]
    data = tmp_path / "data"
    shutil.copytree(toy_dir / "test", data / "test")
    broken = data / "test" / "zz-broken.json"
    broken.write_text(text)
    assert main(["eval", "--checkpoint", str(stage2), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}: ") and detail in err
    assert main(["predict", "--checkpoint", str(stage2), "--input", str(broken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}: ") and detail in err


def test_train_synthesis_input_errors_name_their_source(toy_dir, tmp_path, capsys):
    out = str(tmp_path / "model")
    data = tmp_path / "data"
    shutil.copytree(toy_dir, data)
    broken = data / "train" / "zz-broken.json"
    broken.write_text(json.dumps(dict(SAMPLE, article=7)))
    assert main(["train-synthesis", "--data", str(data), "--out", out] + FAST_TRAIN) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {broken}: ") and "field 'article' is not a str" in err
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("the " + " ".join(["0.5"] * 8) + "\n"
                       "the " + " ".join(["0.5"] * 7 + ["abc"]) + "\n")
    rc = main(["train-synthesis", "--data", str(toy_dir), "--out", out,
               "--embeddings", str(vectors)] + FAST_TRAIN)
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {vectors}:2: "
                                       "could not convert string to float: 'abc'\n")


@pytest.mark.parametrize("text, detail", [
    ('{"words": {"tokens": ["<pad>",\n', "Expecting"),
    ('{"chars": {"chars": ["<cpad>", "<cunk>"]}}\n', "missing key 'words'"),
    ('{"words": {"tokens": ["<pad>"]}}\n', "missing key 'chars'"),
], ids=["truncated", "no_words", "no_chars"])
def test_broken_vocab_json_error_names_the_file(trained_dirs, tmp_path, capsys, text, detail):
    _, stage2 = trained_dirs
    model_dir = tmp_path / "model"
    shutil.copytree(stage2, model_dir)
    (model_dir / "vocab.json").write_text(text)
    record = tmp_path / "record.json"
    record.write_text("{}")
    rc = main(["predict", "--checkpoint", str(model_dir), "--input", str(record)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model_dir / 'vocab.json'}: ")
    assert detail in err


def test_config_file_plus_set_overrides(tmp_path, toy_dir):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hidden = 8\nembed_dim = 8\nchar_dim = 2\nchar_hidden = 2\n"
                   "max_epochs = 1\ndropout = 0.0\nfine_tune_embeddings = true\n")
    out = tmp_path / "model"
    assert main(["train-synthesis", "--data", str(toy_dir), "--out", str(out),
                 "--config", str(cfg), "--set", "max_epochs=1"]) == 0
    saved = json.loads((out / "config.json").read_text())
    assert saved["hidden"] == 8 and saved["max_epochs"] == 1


def test_structural_drift_rejected(trained_dirs, toy_dir, tmp_path):
    stage1, _ = trained_dirs
    rc = main(["train-selection", "--data", str(toy_dir), "--stage1", str(stage1),
               "--out", str(tmp_path / "x"), "--set", "hidden=16"])
    assert rc == 1


def test_stage_two_rejects_changed_model_keys_and_takes_training_keys(
        trained_dirs, toy_dir, tmp_path, capsys):
    # keys that build the model are fixed by stage one; saving a changed one
    # would record a model that was never trained
    stage1, _ = trained_dirs
    # a value other than stage one's for each key, in the order the error names them
    changes = {"embed_dim": "4", "char_dim": "3", "char_hidden": "3", "hidden": "16",
               "dropout": "0.3", "max_span": "5", "max_decode_len": "2",
               "fine_tune_embeddings": "false", "precision": "float32", "vocab_cap": "9"}

    def rejected(keys):
        sets = [arg for key in keys for arg in ("--set", f"{key}={changes[key]}")]
        rc = main(["train-selection", "--data", str(toy_dir), "--stage1", str(stage1),
                   "--out", str(tmp_path / "x")] + sets)
        assert rc == 1
        assert not (tmp_path / "x").exists()
        return capsys.readouterr().err.splitlines()[-1]

    for key in changes:
        assert rejected([key]) == f"error: cannot change model keys after stage one: {key!r}"
    assert rejected(reversed(list(changes))) == (
        "error: cannot change model keys after stage one: "
        + ", ".join(repr(key) for key in changes))
    out = tmp_path / "model"
    assert main(["train-selection", "--data", str(toy_dir), "--stage1", str(stage1),
                 "--out", str(out), "--set", "lr=0.01", "--set", "max_epochs=1"]) == 0
    saved = json.loads((out / "config.json").read_text())
    assert saved["lr"] == 0.01 and saved["max_decode_len"] == 30


def test_config_file_lays_over_stage_one_config(trained_dirs, toy_dir, tmp_path):
    stage1, _ = trained_dirs
    cfg = tmp_path / "select.cfg"
    cfg.write_text("# selection only\nmax_epochs = 1\n")
    out = tmp_path / "model"
    assert main(["train-selection", "--data", str(toy_dir), "--stage1", str(stage1),
                 "--out", str(out), "--config", str(cfg)]) == 0
    saved = json.loads((out / "config.json").read_text())
    assert saved["max_epochs"] == 1 and saved["hidden"] == 8 and saved["seed"] == 3


def test_config_line_without_equals_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("hidden = 8\njust words\n")
    rc = main(["train-synthesis", "--data", str(tmp_path), "--out", str(tmp_path / "m"),
               "--config", str(cfg)])
    assert rc == 1
    assert f"{cfg}:2" in capsys.readouterr().err


def test_config_line_that_is_not_utf8_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"hidden = 8\nseed = 3\xff\n")
    rc = main(["train-synthesis", "--data", str(tmp_path), "--out", str(tmp_path / "m"),
               "--config", str(cfg)])
    assert rc == 1
    assert f"error: {cfg}:2: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["hiden = 8", "hidden = abc", "fine_tune_embeddings = maybe",
                                  "seed = -1"],
                         ids=["unknown_key", "bad_int", "bad_bool", "negative_seed"])
def test_bad_config_value_names_file_and_line(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# stage one\nhidden = 8\n{line}\n")
    rc = main(["train-synthesis", "--data", str(tmp_path), "--out", str(tmp_path / "m"),
               "--config", str(cfg)])
    assert rc == 1
    assert f"{cfg}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("item, detail", [
    ("hiden=8", "unknown config key 'hiden'"),
    ("hidden=abc", "needs an integer"),
    ("hidden", "expected key=value"),
    ("seed=-1", "config field seed must be non-negative"),
], ids=["unknown_key", "bad_int", "no_equals", "negative_seed"])
def test_bad_set_item_names_the_set_item(tmp_path, capsys, item, detail):
    rc = main(["train-synthesis", "--data", str(tmp_path), "--out", str(tmp_path / "m"),
               "--set", "max_epochs=1", "--set", item])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --set {item}: ") and detail in err


def test_float32_precision_run_in_process(toy_dir, tmp_path, capsys):
    # precision belongs to the model, so a float32 run can share the process
    # with the float64 tests
    out = tmp_path / "model32"
    assert main(["train-synthesis", "--data", str(toy_dir), "--out", str(out),
                 "--set", "precision=float32"] + FAST_TRAIN) == 0
    params = read_checkpoint(out / "model.ckpt")
    assert {a.dtype for a in params.values()} == {np.dtype(np.float32)}
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out), "--data", str(toy_dir)]) == 0
    assert "overall" in capsys.readouterr().out


def test_errors_exit_nonzero(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "none"),
                 "--data", str(tmp_path)]) == 1
    assert main(["baseline", "--kind", "random", "--data", "/nonexistent"]) == 1
    assert main(["train-synthesis", "--data", "/nonexistent",
                 "--out", str(tmp_path / "m")]) == 1


def test_a_diverging_step_names_stage_epoch_and_records(toy_dir, tmp_path, capsys):
    out = tmp_path / "model"
    rc = main(["train-synthesis", "--data", str(toy_dir), "--out", str(out)]
              + FAST_TRAIN + ["--set", "lr=1e6", "--set", "clip_norm=1e12"])
    assert rc == 1
    err = capsys.readouterr().err
    train = load_dataset_dir(toy_dir)["train"]
    assert err.startswith("error: synthesis epoch 1 step ")
    assert any(inst.uid in err for inst in train)
    assert err.rstrip().endswith("non-finite value from log")
    assert not out.exists()
