"""Two-stage training: synthesis (span + generation, distant supervision
from the correct option) and selection (bilinear matcher over generated
answers), with early stopping against a dev split. The best dev epoch's
trainable values wait in a checkpoint file in a temporary directory, not
in memory, and are read back when a later epoch is the last one trained.

A fixed config and seed give a bit-identical trajectory: model init,
dropout, and batch shuffling all derive from one seed sequence, and
evaluation never consumes randomness.
"""

from __future__ import annotations

import dataclasses
import logging
import tempfile
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, clip_global_norm
from .checkpoint import read_checkpoint, write_checkpoint
from .corpus import CharVocabulary, EmbeddingTable, Instance, Vocabulary, make_batches
from .evaluation import EvalReport, batch_answers, predict_records, raised_at
from .extractor import oracle_span
from .model import PipelineModel, build_model
from .synthesizer import GeneratedAnswer

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Training hyperparameters, and the one holder of the recipe: the model
    is built from this config, and no function below it defaults one of
    its values. The defaults are the reference recipe: Adam at 0.005, L2
    gradient clip 10, batches of 32, a 65k-word vocabulary with 300-dim
    embeddings, GRU hidden size 128, dropout 0.45 on embeddings and encoder
    outputs, and at most 80 epochs."""

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
        if self.seed < 0:
            raise ValueError("config field seed must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.precision not in ("float64", "float32"):
            raise ValueError("precision must be float64 or float32")

    def dims(self, vocab: Vocabulary, char_vocab: CharVocabulary) -> "TrainConfig":
        """This config: the model is built from it, sized by the vocabulary
        it is given. Kept, unused in the package, because the benchmark
        harness builds its models with ``build_model(config.dims(vocab,
        char_vocab), ...)``."""
        return self

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

    def with_lines(self, lines) -> "TrainConfig":
        """Flat ``key=value`` lines laid over this config, from (source, text)
        pairs; blank lines and ``#`` comments ignored. Each line is checked
        as it is read, so every error names the source of its line."""
        config = self
        for source, line in lines:
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            try:
                if "=" not in stripped:
                    raise ValueError("expected key=value")
                key, value = (part.strip() for part in stripped.split("=", 1))
                config = config.with_overrides({key: value})
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
        return config

    @classmethod
    def from_file(cls, path, base: "TrainConfig") -> "TrainConfig":
        """A UTF-8 config file laid over ``base``; every error names
        ``<path>:<line>``."""
        data = Path(path).read_bytes()
        try:
            lines = data.decode("utf-8").splitlines()
        except UnicodeDecodeError as exc:
            # the bad byte's line: the lines before it, plus the one it opens
            # or continues
            lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
            raise ValueError(f"{path}:{lineno}: not UTF-8: {exc.reason} at byte "
                             f"{exc.start}") from None
        return base.with_lines(
            (f"{path}:{lineno}", line) for lineno, line in enumerate(lines, start=1))


# The keys that fix the stage-one model: its shapes, precision and word
# table, its vocabulary's cap, and the dropout and caps its passes read.
# Stage two trains that model as built, so it cannot change them.
MODEL_KEYS = ("embed_dim", "char_dim", "char_hidden", "hidden", "dropout", "max_span",
              "max_decode_len", "fine_tune_embeddings", "precision", "vocab_cap")

# field name -> type name; annotations are postponed, so each type is a string
_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}
_TYPE_NOUNS = {"int": "an integer", "float": "a number", "bool": "a boolean",
               "str": "a string"}

# Keys that config.json files carried before each was fixed at its only
# used value (joint stage one, unit loss weights, a frozen matcher encoder,
# final-state option pooling, Adam's standard constants).
_RETIRED_KEYS = {"stage1_joint": True, "span_loss_weight": 1.0,
                 "synthesis_loss_weight": 1.0, "train_matcher_encoder": False,
                 "option_pooling": "final", "adam_beta1": 0.9, "adam_beta2": 0.999,
                 "adam_eps": 1e-8}


def _coerce_fields(raw: dict) -> dict:
    """Typed values for config keys, from ``key=value`` strings or from the
    typed values of a ``config.json``."""
    return {key: _coerce(key, value) for key, value in raw.items()}


def _coerce(key: str, value):
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    if isinstance(value, str):
        if kind == "str":
            return value
        if kind == "bool":
            lowered = value.lower()
            if lowered in ("true", "false", "1", "0"):
                return lowered in ("true", "1")
        else:
            try:
                return int(value) if kind == "int" else float(value)
            except ValueError:
                pass
    elif isinstance(value, bool):  # a bool is an int too, so it goes first
        if kind == "bool":
            return value
    elif kind == "int" and isinstance(value, int):
        return value
    elif kind == "float" and isinstance(value, (int, float)):
        return float(value)
    raise ValueError(f"config key {key!r} needs {_TYPE_NOUNS[kind]}, got {value!r}")


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
    children = np.random.SeedSequence(seed).spawn(2)
    return (np.random.default_rng(children[0]),   # dropout
            np.random.default_rng(children[1]))   # batch shuffling


def _check_splits(train: list[Instance], dev: list[Instance]) -> None:
    if not train:
        raise ValueError("empty training set")
    if not dev:
        raise ValueError("empty dev set")


def compute_oracle_spans(instances: list[Instance], max_span: int):
    """Distant-supervision targets: best bounded-F1 span against the gold
    option; None when the passage shares no token with it."""
    return {inst: oracle_span(inst.passage_tokens,
                              inst.option_tokens[inst.gold_index], max_span)
            for inst in instances}


def _dev_stage_one_loss(model: PipelineModel, dev: list[Instance], spans: dict,
                        config: TrainConfig) -> float:
    total, count = 0.0, 0
    for number, batch in enumerate(make_batches(dev, model.vocab, config.batch_size), 1):
        targets = [spans[i] for i in batch.instances]
        with raised_at(f"dev-loss batch {number}", batch), ad.no_grad():
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
    ``improved(metric, best)`` becomes the best; after ``patience`` epochs
    without one, or once ``finished(best)``, training stops and the
    trainable parameters hold the best epoch's values (epoch 0 when none
    improved). Frozen parameters cannot change, so only the trainable ones
    are kept: as a format-v1 checkpoint in a ``TemporaryDirectory`` (under
    ``tempfile.gettempdir()``), removed on every exit. It is written before
    an epoch trains over best values, so at most once per improvement, and
    read back, into fresh arrays, only when the last epoch trained is not
    the best; the optimizer's moments and the grads are dropped before the
    read, and every grad is None at the end. Each history entry records
    ``tape_nodes``, the mean number of op nodes per step's backward, and
    the mean and the largest pre-clip gradient norm of the epoch's steps
    (``grad_norm_mean``, ``grad_norm_max``), from the norm the clip reads,
    and the seconds its steps spent in the loss's forward, in ``backward``
    and in the norm, clip and Adam step (``forward_s``, ``backward_s``,
    ``optimizer_s``), each summed over the epoch.

    An error in a step or a dev pass is raised again with the stage and
    epoch (and the step and its batch's uids) in front of its message.
    """
    dropout_rng, shuffle_rng = _seed_streams(seed)
    trainable = model.trainable_parameters()
    optimizer = Adam(trainable, lr=config.lr)
    result = StageResult(model=model)

    def dev_pass(epoch):
        with raised_at(f"{stage} epoch {epoch} dev pass"):
            return dev_metric()

    started = time.perf_counter()
    best = dev_pass(0)
    best_epoch = 0
    since_best = 0
    best_is_current = True  # the trainable values are the best epoch's
    with tempfile.TemporaryDirectory(prefix="genmatch-") as scratch:
        snapshot = Path(scratch) / "best.ckpt"
        for epoch in range(1, config.max_epochs + 1):
            if best_is_current:
                write_checkpoint(snapshot, trainable)
                best_is_current = False
            epoch_seed = int(shuffle_rng.integers(2**31))
            sums: dict[str, float] = {}
            seen = steps = clipped = nodes = 0
            norm_sum = norm_max = forward_s = backward_s = optimizer_s = 0.0
            epoch_started = time.perf_counter()
            for batch in make_batches(train, model.vocab, config.batch_size, epoch_seed):
                ad.zero_grads(trainable)
                step_started = time.perf_counter()
                with raised_at(f"{stage} epoch {epoch} step {steps + 1}", batch):
                    loss, parts = batch_loss(batch, dropout_rng)
                    forward_done = time.perf_counter()
                    nodes += ad.backward(loss)
                    backward_done = time.perf_counter()
                    norm = ad.global_grad_norm(trainable)
                    scale = clip_global_norm(norm, config.clip_norm)
                    post_clip_norm = optimizer.step(scale)
                clipped += scale < 1.0
                norm_sum += norm
                norm_max = max(norm_max, norm)
                result.max_post_clip_norm = max(result.max_post_clip_norm, post_clip_norm)
                forward_s += forward_done - step_started
                backward_s += backward_done - forward_done
                optimizer_s += time.perf_counter() - backward_done
                for key, value in {"train_loss": loss.item(), **parts}.items():
                    sums[key] = sums.get(key, 0.0) + value * batch.size
                seen += batch.size
                steps += 1
            dev_started = time.perf_counter()
            train_seconds = dev_started - epoch_started
            metric = dev_pass(epoch)
            entry = {"stage": stage, "epoch": epoch,
                     **{key: total / seen for key, total in sums.items()},
                     metric_name: metric, "clip_rate": clipped / steps,
                     "grad_norm_mean": norm_sum / steps, "grad_norm_max": norm_max,
                     "tape_nodes": nodes / steps, "forward_s": forward_s,
                     "backward_s": backward_s, "optimizer_s": optimizer_s,
                     "inst_per_s": seen / train_seconds, "train_s": train_seconds,
                     "dev_s": time.perf_counter() - dev_started}
            result.history.append(entry)
            log.info("%s epoch %d train %.4f %s %.4f",
                     stage, epoch, entry["train_loss"], metric_name, metric)
            if improved(metric, best):
                best, best_epoch, since_best = metric, epoch, 0
                best_is_current = True
            else:
                since_best += 1
                if since_best >= config.patience:
                    break
            if finished(best):
                break
        # the last step's grad does not belong to the best values; dropping
        # the grads and the optimizer's moments before the read keeps them
        # out of the restore's peak
        del optimizer
        for p in trainable:
            p.grad = None
        if not best_is_current:
            state = read_checkpoint(snapshot)
            for p in trainable:
                p.data = state.pop(p.name)
    result.best_epoch, result.best_metric = best_epoch, best
    result.wall_time = time.perf_counter() - started
    return result


def train_synthesis_stage(config: TrainConfig, train: list[Instance],
                          dev: list[Instance], vocab: Vocabulary,
                          char_vocab: CharVocabulary,
                          embeddings: EmbeddingTable) -> StageResult:
    """Stage one: joint span + synthesis loss, gradient clip, Adam, dev-loss
    early stopping with patience, best-dev snapshot restored at the end.

    A word table that trains is copied; a frozen one is shared with
    ``embeddings`` as a read-only view, so a write to it raises."""
    _check_splits(train, dev)
    if config.fine_tune_embeddings:
        table = embeddings.matrix.copy()
    else:
        table = embeddings.matrix.view()
        table.flags.writeable = False
    model = build_model(config, vocab, char_vocab, table, config.seed)
    spans = compute_oracle_spans(train + dev, config.max_span)

    def batch_loss(batch, rng):
        targets = [spans[i] for i in batch.instances]
        return model.stage_one_loss(batch, targets, rng=rng)

    return _train_epochs(config, model, train, stage="synthesis", seed=config.seed,
                         batch_loss=batch_loss,
                         dev_metric=lambda: _dev_stage_one_loss(model, dev, spans, config),
                         metric_name="dev_loss",
                         improved=lambda loss, best: loss < best - 1e-9)


def train_selection_stage(config: TrainConfig, model: PipelineModel,
                          train: list[Instance], dev: list[Instance]) -> StageResult:
    """Stage two: freeze the stage-one parameter set, then train the bilinear
    matcher on selection cross-entropy over generated answers. The best-dev-
    accuracy snapshot wins; a perfect dev accuracy stops early.

    Each train and dev instance is generated once, in the first batch that
    holds it, and every later epoch and dev pass scores the stored answer:
    the generation weights stay frozen for the whole stage and generation
    draws no dropout. The stored answers are dropped with the stage."""
    _check_splits(train, dev)
    model.freeze_for_selection_stage()
    answers: dict[Instance, GeneratedAnswer] = {}

    def batch_loss(batch, rng):
        return model.selection_stage_loss(batch, batch_answers(model, batch, answers),
                                          rng=rng), {}

    def dev_accuracy():
        records = predict_records(model, dev, config.batch_size, answers)
        return EvalReport.from_records(records).accuracy

    return _train_epochs(config, model, train, stage="selection", seed=config.seed + 1,
                         batch_loss=batch_loss, dev_metric=dev_accuracy,
                         metric_name="dev_accuracy",
                         improved=lambda accuracy, best: accuracy > best + 1e-12,
                         finished=lambda best: best >= 1.0)
