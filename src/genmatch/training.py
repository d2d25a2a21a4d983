"""Two-stage training: synthesis (span + generation, distant supervision
from the correct option) and selection (bilinear matcher over generated
answers), with early stopping against a dev split and best-dev snapshots.

A fixed config and seed give a bit-identical trajectory: model init,
dropout, and batch shuffling all derive from one seed sequence, and
evaluation never consumes randomness.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, clip_global_norm, global_grad_norm
from .corpus import CharVocabulary, EmbeddingTable, Instance, Vocabulary, make_batches
from .evaluation import evaluate
from .extractor import oracle_span
from .model import ModelDims, PipelineModel, build_model

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Training hyperparameters. The defaults are the reference recipe:
    Adam at 0.005, L2 gradient clip 10, batches of 32, a 65k-word
    vocabulary with 300-dim embeddings, GRU hidden size 128, dropout 0.45
    on embeddings and encoder outputs, and at most 80 epochs."""

    lr: float = 0.005
    clip_norm: float = 10.0
    batch_size: int = 32
    vocab_cap: int = 65_000
    embed_dim: int = 300
    hidden: int = 128
    dropout: float = 0.45
    max_epochs: int = 80
    seed: int = 1234
    fine_tune_embeddings: bool = False
    max_span: int = 30
    max_decode_len: int = 30
    char_dim: int = 16
    char_hidden: int = 25
    patience: int = 5
    # dtype of the model's parameters and of every array its passes compute
    precision: str = "float64"

    def __post_init__(self):
        for name in ("lr", "clip_norm", "batch_size", "vocab_cap", "embed_dim",
                     "hidden", "max_epochs", "max_span", "max_decode_len",
                     "char_dim", "char_hidden", "patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.precision not in ("float64", "float32"):
            raise ValueError("precision must be float64 or float32")

    def dims(self, vocab: Vocabulary, char_vocab: CharVocabulary) -> ModelDims:
        return ModelDims(
            vocab_size=len(vocab), char_vocab_size=len(char_vocab),
            embed_dim=self.embed_dim, char_dim=self.char_dim,
            char_hidden=self.char_hidden, hidden=self.hidden, dropout=self.dropout,
            max_span=self.max_span, max_decode_len=self.max_decode_len,
            fine_tune_embeddings=self.fine_tune_embeddings,
            precision=self.precision,
        )

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "TrainConfig":
        """A saved config. A retired key is dropped when it holds the value
        now fixed in the code, so older model directories still load; any
        other value of it, and an unknown key, is an error naming the key."""
        values = {}
        for key, value in payload.items():
            if key not in _RETIRED_KEYS:
                values[key] = value
            elif value != _RETIRED_KEYS[key]:
                raise ValueError(f"config key {key!r} is retired; only "
                                 f"{_RETIRED_KEYS[key]!r} is supported, got {value!r}")
        return cls(**_coerce_fields(values))

    def with_overrides(self, overrides: dict[str, str]) -> "TrainConfig":
        values = dataclasses.asdict(self)
        values.update(_coerce_fields(overrides))
        return TrainConfig(**values)

    @classmethod
    def from_file(cls, path, base: "TrainConfig | None" = None) -> "TrainConfig":
        """Flat ``key=value`` text laid over ``base`` (default: the defaults);
        blank lines and ``#`` comments ignored. Each line is checked as it is
        read, so every error names ``<path>:<line>``."""
        config = base or cls()
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                if "=" not in stripped:
                    raise ValueError("expected key=value")
                key, value = (part.strip() for part in stripped.split("=", 1))
                config = config.with_overrides({key: value})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
        return config


_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}

# Keys that config.json files carried before each was fixed at its only
# used value (joint stage one, unit loss weights, a frozen matcher encoder,
# final-state option pooling, Adam's standard constants).
_RETIRED_KEYS = {"stage1_joint": True, "span_loss_weight": 1.0,
                 "synthesis_loss_weight": 1.0, "train_matcher_encoder": False,
                 "option_pooling": "final", "adam_beta1": 0.9, "adam_beta2": 0.999,
                 "adam_eps": 1e-8}


def _coerce_fields(raw: dict[str, str]) -> dict:
    coerced = {}
    for key, value in raw.items():
        if key not in _FIELD_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        kind = _FIELD_TYPES[key]
        if isinstance(value, str):
            if kind in ("int", int, "float", float):
                number, noun = (int, "an integer") if kind in ("int", int) else (float, "a number")
                try:
                    coerced[key] = number(value)
                except ValueError:
                    raise ValueError(f"config key {key!r} needs {noun}, got {value!r}") from None
            elif kind in ("bool", bool):
                lowered = value.lower()
                if lowered not in ("true", "false", "1", "0"):
                    raise ValueError(f"config key {key!r} needs a boolean, got {value!r}")
                coerced[key] = lowered in ("true", "1")
            else:
                coerced[key] = value
        else:
            coerced[key] = value
    return coerced


@dataclass
class StageResult:
    model: PipelineModel
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_metric: float = 0.0
    wall_time: float = 0.0
    max_post_clip_norm: float = 0.0

    def history_payload(self) -> dict:
        return {"history": self.history, "best_epoch": self.best_epoch,
                "best_metric": self.best_metric, "wall_time": self.wall_time,
                "max_post_clip_norm": self.max_post_clip_norm}


def _seed_streams(seed: int):
    children = np.random.SeedSequence(seed).spawn(3)
    return (np.random.default_rng(children[0]),   # dropout
            np.random.default_rng(children[1]))   # batch shuffling


def compute_oracle_spans(instances: list[Instance], max_span: int):
    """Distant-supervision targets: best bounded-F1 span against the gold
    option; None when the passage shares no token with it."""
    return {inst.uid: oracle_span(inst.passage_tokens,
                                  inst.option_tokens[inst.gold_index], max_span)
            for inst in instances}


def _dev_stage_one_loss(model: PipelineModel, dev: list[Instance], spans: dict,
                        config: TrainConfig) -> float:
    total, count = 0.0, 0
    for batch in make_batches(dev, model.vocab, config.batch_size):
        targets = [spans[i.uid] for i in batch.instances]
        loss, _ = model.stage_one_loss(batch, targets, rng=None)
        total += loss.item() * batch.size
        count += batch.size
    return total / count


def _train_epochs(config: TrainConfig, model: PipelineModel, train: list[Instance], *,
                  stage: str, seed: int, batch_loss, dev_metric, metric_name: str,
                  improved, finished=lambda best: False) -> StageResult:
    """The epoch loop both stages run over the model's trainable parameters.

    ``batch_loss(batch, rng)`` returns the loss tensor and a dict of loss
    parts whose epoch means join the history entry; ``dev_metric()`` scores
    the model on the dev split. An epoch's dev metric that is
    ``improved(metric, best)`` becomes the snapshot; after ``patience``
    epochs without one, or once ``finished(best)``, training stops and the
    best snapshot (epoch 0 when none improved) is restored.
    """
    dropout_rng, shuffle_rng = _seed_streams(seed)
    trainable = model.trainable_parameters()
    optimizer = Adam(trainable, lr=config.lr)
    result = StageResult(model=model)
    started = time.perf_counter()
    best = dev_metric()
    best_state = model.store.state_dict()
    best_epoch = 0
    since_best = 0
    for epoch in range(1, config.max_epochs + 1):
        epoch_seed = int(shuffle_rng.integers(2**31))
        sums: dict[str, float] = {}
        seen = steps = clipped = 0
        epoch_started = time.perf_counter()
        for batch in make_batches(train, model.vocab, config.batch_size, epoch_seed):
            model.zero_grads()
            loss, parts = batch_loss(batch, dropout_rng)
            ad.backward(loss)
            clipped += clip_global_norm(trainable, config.clip_norm) < 1.0
            result.max_post_clip_norm = max(result.max_post_clip_norm,
                                            global_grad_norm(trainable))
            optimizer.step()
            for key, value in {"train_loss": loss.item(), **parts}.items():
                sums[key] = sums.get(key, 0.0) + value * batch.size
            seen += batch.size
            steps += 1
        train_seconds = time.perf_counter() - epoch_started
        metric = dev_metric()
        entry = {"stage": stage, "epoch": epoch,
                 **{key: total / seen for key, total in sums.items()},
                 metric_name: metric, "clip_rate": clipped / steps,
                 "inst_per_s": seen / train_seconds}
        result.history.append(entry)
        log.info("%s epoch %d train %.4f %s %.4f",
                 stage, epoch, entry["train_loss"], metric_name, metric)
        if improved(metric, best):
            best, best_epoch, since_best = metric, epoch, 0
            best_state = model.store.state_dict()
        else:
            since_best += 1
            if since_best >= config.patience:
                break
        if finished(best):
            break
    model.store.load_state_dict(best_state)
    result.best_epoch, result.best_metric = best_epoch, best
    result.wall_time = time.perf_counter() - started
    return result


def train_synthesis_stage(config: TrainConfig, train: list[Instance],
                          dev: list[Instance], vocab: Vocabulary,
                          char_vocab: CharVocabulary,
                          embeddings: EmbeddingTable) -> StageResult:
    """Stage one: joint span + synthesis loss, gradient clip, Adam, dev-loss
    early stopping with patience, best-dev snapshot restored at the end."""
    if not train:
        raise ValueError("empty training set")
    model = build_model(config.dims(vocab, char_vocab), vocab, char_vocab,
                        embeddings.matrix.copy(), config.seed)
    spans = compute_oracle_spans(train + dev, config.max_span)

    def batch_loss(batch, rng):
        targets = [spans[i.uid] for i in batch.instances]
        loss, parts = model.stage_one_loss(batch, targets, rng=rng)
        return loss, {"span_loss": parts["span"], "synthesis_loss": parts["synthesis"]}

    return _train_epochs(config, model, train, stage="synthesis", seed=config.seed,
                         batch_loss=batch_loss,
                         dev_metric=lambda: _dev_stage_one_loss(model, dev, spans, config),
                         metric_name="dev_loss",
                         improved=lambda loss, best: loss < best - 1e-9)


def train_selection_stage(config: TrainConfig, model: PipelineModel,
                          train: list[Instance], dev: list[Instance]) -> StageResult:
    """Stage two: freeze the stage-one parameter set, then train the bilinear
    matcher on selection cross-entropy over freshly generated answers. The
    best-dev-accuracy snapshot wins; a perfect dev accuracy stops early."""
    if not train:
        raise ValueError("empty training set")
    model.freeze_for_selection_stage()
    return _train_epochs(config, model, train, stage="selection", seed=config.seed + 1,
                         batch_loss=lambda batch, rng: (
                             model.selection_stage_loss(batch, rng=rng)[0], {}),
                         dev_metric=lambda: evaluate(model, dev, config.batch_size).accuracy,
                         metric_name="dev_accuracy",
                         improved=lambda accuracy, best: accuracy > best + 1e-12,
                         finished=lambda best: best >= 1.0)
