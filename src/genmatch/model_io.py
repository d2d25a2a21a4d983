"""Model directory layout: the parameter checkpoint plus the vocabulary and
config sidecars needed to rebuild the pipeline for evaluation.

    <dir>/model.ckpt    single-file parameter checkpoint
    <dir>/vocab.json    word + character vocabularies
    <dir>/config.json   the TrainConfig used to build the model
    <dir>/history.json  per-epoch training log (when training wrote the dir)
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

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
        config = TrainConfig.from_payload(json.loads(config_path.read_text()))
    except ValueError as exc:
        raise ValueError(f"{config_path}: {exc}") from None
    vocab_payload = json.loads((path / "vocab.json").read_text())
    vocab = Vocabulary.from_payload(vocab_payload["words"])
    char_vocab = CharVocabulary.from_payload(vocab_payload["chars"])
    dims = config.dims(vocab, char_vocab)
    model = build_model(dims, vocab, char_vocab,
                        np.zeros((dims.vocab_size, dims.embed_dim)), seed=config.seed)
    model.store.load_state_dict(read_checkpoint(ckpt))
    return model, config
