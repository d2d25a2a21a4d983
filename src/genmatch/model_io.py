"""Model directory layout: the parameter checkpoint plus the vocabulary and
config sidecars needed to rebuild the pipeline for evaluation.

    <dir>/model.ckpt    single-file parameter checkpoint
    <dir>/vocab.json    word + character vocabularies
    <dir>/config.json   the TrainConfig used to build the model
    <dir>/history.json  per-epoch training log (when training wrote the dir)

``load_model_dir`` builds the model over the checkpoint's arrays: each
parameter is allocated once, by the checkpoint reader, and taken by the
store without a copy (one cast when the config's precision differs from
the file's dtype). No initial value is drawn. Every error of the
checkpoint starts with its path: an unreadable file, or a parameter that is
missing, unexpected, non-finite or of another shape than the config and
vocabulary build.
"""

from __future__ import annotations

import json
from pathlib import Path

from .autodiff import NonFiniteError
from .checkpoint import read_checkpoint, write_checkpoint
from .corpus import CharVocabulary, Vocabulary
from .model import PipelineModel, build_model
from .training import TrainConfig

CHECKPOINT_NAME = "model.ckpt"


def save_model_dir(path, model: PipelineModel, config: TrainConfig,
                   history: dict | None = None) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    write_checkpoint(path / CHECKPOINT_NAME, model.parameters())
    vocab_payload = {"words": model.vocab.to_payload(),
                     "chars": model.char_vocab.to_payload()}
    (path / "vocab.json").write_text(json.dumps(vocab_payload) + "\n")
    (path / "config.json").write_text(json.dumps(config.to_payload(), indent=2,
                                                 sort_keys=True) + "\n")
    if history is not None:
        (path / "history.json").write_text(json.dumps(history, indent=2,
                                                      sort_keys=True) + "\n")
    return path


def resolve_model_dir(path) -> Path:
    """Accept either the directory or the checkpoint file inside it."""
    path = Path(path)
    if path.is_file():
        return path.parent
    return path


def load_model_dir(path) -> tuple[PipelineModel, TrainConfig]:
    path = resolve_model_dir(path)
    ckpt = path / CHECKPOINT_NAME
    if not ckpt.exists():
        raise FileNotFoundError(f"no checkpoint at {ckpt}")
    config_path = path / "config.json"
    try:
        config = TrainConfig.from_payload(
            json.loads(config_path.read_text(encoding="utf-8")))
    except ValueError as exc:
        raise ValueError(f"{config_path}: {exc}") from None
    vocab_path = path / "vocab.json"
    try:
        vocab_payload = json.loads(vocab_path.read_text(encoding="utf-8"))
        vocab = Vocabulary.from_payload(vocab_payload["words"])
        char_vocab = CharVocabulary.from_payload(vocab_payload["chars"])
    except KeyError as exc:
        raise ValueError(f"{vocab_path}: missing key {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{vocab_path}: {exc}") from None
    state = read_checkpoint(ckpt)
    try:
        model = build_model(config, vocab, char_vocab, None, config.seed, state)
    except (ValueError, NonFiniteError) as exc:
        raise type(exc)(f"{ckpt}: {exc}") from None
    return model, config
