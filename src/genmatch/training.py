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
    span_loss_weight: float = 1.0
    synthesis_loss_weight: float = 1.0
    stage1_joint: bool = True
    # Training the shared question/option encoder during the selection stage
    # drifts the extraction question pooling and degrades generation; the
    # matcher matrix alone is enough, so the encoder stays frozen by default.
    train_matcher_encoder: bool = False
    option_pooling: str = "final"
    # dtype of the model's parameters and of every array its passes compute
    precision: str = "float64"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

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
            option_pooling=self.option_pooling,
            fine_tune_embeddings=self.fine_tune_embeddings,
            precision=self.precision,
        )

    def to_payload(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "TrainConfig":
        return cls(**payload)

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
                        config: TrainConfig, span_w: float, syn_w: float) -> float:
    total, count = 0.0, 0
    for batch in make_batches(dev, model.vocab, config.batch_size):
        targets = [spans[i.uid] for i in batch.instances]
        loss, _ = model.stage_one_loss(batch, targets, rng=None,
                                       span_weight=span_w, synthesis_weight=syn_w)
        total += loss.item() * batch.size
        count += batch.size
    return total / count


def train_synthesis_stage(config: TrainConfig, train: list[Instance],
                          dev: list[Instance], vocab: Vocabulary,
                          char_vocab: CharVocabulary,
                          embeddings: EmbeddingTable) -> StageResult:
    """Stage one: joint span + synthesis loss (or two sequential phases when
    ``stage1_joint`` is off), gradient clip, Adam, dev-loss early stopping
    with patience, best-dev snapshot restored at the end."""
    if not train:
        raise ValueError("empty training set")
    model = build_model(config.dims(vocab, char_vocab), vocab, char_vocab,
                        embeddings.matrix.copy(), config.seed)
    spans = compute_oracle_spans(train + dev, config.max_span)
    phases = ([(config.span_loss_weight, config.synthesis_loss_weight)]
              if config.stage1_joint
              else [(config.span_loss_weight, 0.0), (0.0, config.synthesis_loss_weight)])

    dropout_rng, shuffle_rng = _seed_streams(config.seed)
    result = StageResult(model=model)
    started = time.perf_counter()
    trainable = model.trainable_parameters()
    for span_w, syn_w in phases:
        optimizer = Adam(trainable, lr=config.lr, beta1=config.adam_beta1,
                         beta2=config.adam_beta2, eps=config.adam_eps)
        best_loss = _dev_stage_one_loss(model, dev, spans, config, span_w, syn_w)
        best_state = model.store.state_dict()
        best_epoch = 0
        since_best = 0
        for epoch in range(1, config.max_epochs + 1):
            epoch_seed = int(shuffle_rng.integers(2**31))
            epoch_loss, span_sum, synthesis_sum, seen = 0.0, 0.0, 0.0, 0
            for batch in make_batches(train, vocab, config.batch_size, epoch_seed):
                targets = [spans[i.uid] for i in batch.instances]
                model.zero_grads()
                loss, parts = model.stage_one_loss(batch, targets, rng=dropout_rng,
                                                   span_weight=span_w, synthesis_weight=syn_w)
                ad.backward(loss)
                clip_global_norm(trainable, config.clip_norm)
                result.max_post_clip_norm = max(result.max_post_clip_norm,
                                                global_grad_norm(trainable))
                optimizer.step()
                epoch_loss += loss.item() * batch.size
                span_sum += parts["span"] * batch.size
                synthesis_sum += parts["synthesis"] * batch.size
                seen += batch.size
            dev_loss = _dev_stage_one_loss(model, dev, spans, config, span_w, syn_w)
            result.history.append({"stage": "synthesis", "epoch": epoch,
                                   "train_loss": epoch_loss / seen, "dev_loss": dev_loss,
                                   "span_loss": span_sum / seen,
                                   "synthesis_loss": synthesis_sum / seen,
                                   "span_weight": span_w, "synthesis_weight": syn_w})
            log.info("synthesis epoch %d train %.4f dev %.4f",
                     epoch, epoch_loss / seen, dev_loss)
            if dev_loss < best_loss - 1e-9:
                best_loss, best_epoch, since_best = dev_loss, epoch, 0
                best_state = model.store.state_dict()
            else:
                since_best += 1
                if since_best >= config.patience:
                    break
        model.store.load_state_dict(best_state)
        result.best_epoch, result.best_metric = best_epoch, best_loss
    result.wall_time = time.perf_counter() - started
    return result


def _dev_accuracy(model: PipelineModel, dev: list[Instance], batch_size: int) -> float:
    return evaluate(model, dev, batch_size).accuracy


def train_selection_stage(config: TrainConfig, model: PipelineModel,
                          train: list[Instance], dev: list[Instance]) -> StageResult:
    """Stage two: freeze the stage-one parameter set, then train the bilinear
    matcher (plus, by default, the shared question/option encoder) on
    selection cross-entropy over freshly generated answers. The best-dev-
    accuracy snapshot wins."""
    if not train:
        raise ValueError("empty training set")
    model.freeze_for_selection_stage(config.train_matcher_encoder)
    trainable = model.matcher_parameters(config.train_matcher_encoder)
    optimizer = Adam(trainable, lr=config.lr, beta1=config.adam_beta1,
                     beta2=config.adam_beta2, eps=config.adam_eps)
    dropout_rng, shuffle_rng = _seed_streams(config.seed + 1)

    result = StageResult(model=model)
    started = time.perf_counter()
    best_accuracy = _dev_accuracy(model, dev, config.batch_size)
    best_state = model.store.state_dict()
    best_epoch = 0
    since_best = 0
    for epoch in range(1, config.max_epochs + 1):
        epoch_seed = int(shuffle_rng.integers(2**31))
        epoch_loss, seen = 0.0, 0
        for batch in make_batches(train, model.vocab, config.batch_size, epoch_seed):
            model.zero_grads()
            loss, _ = model.selection_stage_loss(batch, rng=dropout_rng)
            ad.backward(loss)
            clip_global_norm(trainable, config.clip_norm)
            result.max_post_clip_norm = max(result.max_post_clip_norm,
                                            global_grad_norm(trainable))
            optimizer.step()
            epoch_loss += loss.item() * batch.size
            seen += batch.size
        accuracy = _dev_accuracy(model, dev, config.batch_size)
        result.history.append({"stage": "selection", "epoch": epoch,
                               "train_loss": epoch_loss / seen, "dev_accuracy": accuracy})
        log.info("selection epoch %d train %.4f dev acc %.4f",
                 epoch, epoch_loss / seen, accuracy)
        if accuracy > best_accuracy + 1e-12:
            best_accuracy, best_epoch, since_best = accuracy, epoch, 0
            best_state = model.store.state_dict()
        else:
            since_best += 1
            if since_best >= config.patience:
                break
        if best_accuracy >= 1.0:
            break
    model.store.load_state_dict(best_state)
    result.best_epoch, result.best_metric = best_epoch, best_accuracy
    result.wall_time = time.perf_counter() - started
    return result
