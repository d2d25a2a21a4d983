"""The benchmark's three workloads.

Each workload has three parts:

* ``prepare``: generate the workload's inputs from the seed (not timed);
* ``setup``: the program's own set-up before the first timed phase (timed
  in ``setup_samples`` samples of ``setups_per_sample`` back-to-back calls,
  interleaved with the units, reported as the median per call);
* ``unit``: one timed unit of work, repeated for the run's length. A unit
  returns the instances it processed and the wall time of each timed phase,
  and the losses the package logged, for the correctness checks;
* ``check_run``: untimed checks after the timed units, if any.

Every call into genmatch goes through a module attribute (``training.train_
synthesis_stage``, never a name imported from it), so the traced run sees the
call at the same place the package's own callers do.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

import examgen

from genmatch import checkpoint, corpus, evaluation, model_io, training
from genmatch import model as model_mod

TOY_PASSAGES = 200
TOY_DIMS = dict(hidden=32, embed_dim=16, char_dim=8, char_hidden=8, dropout=0.1, lr=0.005,
                batch_size=32, patience=10, fine_tune_embeddings=True)
TOY_STAGE1_EPOCHS = 1
TOY_STAGE2_EPOCHS = 2

# exam-train batch: the measured peak RSS is 4.0 GB at B=8 and 5.7 GB at B=16 on
# an 8 GB machine, so the reference batch of 32 cannot run there.
EXAM_TRAIN_BATCH = 8
# Three steps per stage call, so that the per-call cost (building the model,
# the dev-loss passes, the state_dict snapshots) is a minority of a unit.
EXAM_TRAIN_INSTANCES = 24
EXAM_DEV_INSTANCES = 2
EXAM_EVAL_INSTANCES = 32
EXAM_EVAL_BATCH = 32


@dataclass
class UnitResult:
    phases: dict[str, tuple[int, float]] = field(default_factory=dict)  # name -> (instances, s)
    losses: list[float] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)  # eval reports, compared across units
    answers: list[str] = field(default_factory=list)  # exam-infer answer texts

    def add(self, phase: str, instances: int, seconds: float) -> None:
        n, s = self.phases.get(phase, (0, 0.0))
        self.phases[phase] = (n + instances, s + seconds)

    @property
    def instances(self) -> int:
        return sum(n for n, _ in self.phases.values())

    @property
    def seconds(self) -> float:
        return sum(s for _, s in self.phases.values())


class Tally:
    """Operations attempted and failed. A stage call, an eval batch or a
    check that raises or fails counts as one failed operation."""

    def __init__(self, log):
        self.attempted = 0
        self.failed = 0
        self.log = log

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log(f"check failed: {what}")
        return ok


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def eval_batches(instances, batch_size: int) -> int:
    return math.ceil(len(instances) / batch_size)


def check_report(tally: Tally, report, what: str) -> None:
    tally.check(report.recount() == report.accuracy,
                f"{what}: recount {report.recount()} != accuracy {report.accuracy}")


# ---------------------------------------------------------------------------


class Workload:
    setup_samples = 3
    setups_per_sample = 1

    def check_run(self, state, units: list[UnitResult], tally: Tally) -> dict:
        """Untimed checks after the timed units; returns text-only figures."""
        return {}


class ToyRecipe(Workload):
    """The acceptance recipe at its own dimensions: stage one, stage two for
    a fixed epoch count, then evaluation over all three splits."""

    name = "toy-recipe"
    # A set-up (0.1-0.25 s) writes and reads 200 small files, which varies
    # more than compute; a sample of five back-to-back set-ups lasts about a
    # second.
    setup_samples = 5
    setups_per_sample = 5

    def prepare(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self.setups = 0
        base = training.TrainConfig(**TOY_DIMS, seed=seed)
        self.stage1_config = base.with_overrides({"max_epochs": TOY_STAGE1_EPOCHS})
        self.stage2_config = base.with_overrides({"max_epochs": TOY_STAGE2_EPOCHS})

    def setup(self):
        self.setups += 1
        root = self.workdir / f"toy-{self.setups}"
        corpus.write_toy_dataset(root, TOY_PASSAGES, self.seed)
        splits = corpus.load_dataset_dir(root)
        cap = self.stage1_config.vocab_cap
        vocab = corpus.Vocabulary.build(corpus.instance_token_streams(splits["train"]), cap=cap)
        char_vocab = corpus.CharVocabulary.build(
            corpus.instance_token_streams(splits["train"], include_options=True))
        table = corpus.random_embeddings(vocab, self.stage1_config.embed_dim, seed=self.seed,
                                         trainable=True)
        return splits, vocab, char_vocab, table

    def check_setup(self, tally: Tally, state) -> None:
        splits = state[0]
        tally.check(all(splits.get(s) for s in ("train", "dev", "test")),
                    "toy dataset is missing a split")

    def unit(self, state, tally: Tally) -> UnitResult:
        splits, vocab, char_vocab, table = state
        train, dev = splits["train"], splits["dev"]
        out = UnitResult()
        tally.attempted += 1
        stage1, seconds = timed(training.train_synthesis_stage, self.stage1_config, train, dev,
                                vocab, char_vocab, table)
        out.add("stage1", len(train) * len(stage1.history), seconds)
        tally.attempted += 1
        stage2, seconds = timed(training.train_selection_stage, self.stage2_config,
                                stage1.model, train, dev)
        out.add("stage2", len(train) * len(stage2.history), seconds)
        for h in stage1.history:
            out.losses += [h["train_loss"], h["dev_loss"]]
        out.losses += [h["train_loss"] for h in stage2.history]
        tally.check(len(stage2.history) == TOY_STAGE2_EPOCHS,
                    f"stage two ran {len(stage2.history)} of {TOY_STAGE2_EPOCHS} epochs")
        for split in ("train", "dev", "test"):
            tally.attempted += eval_batches(splits[split], self.stage2_config.batch_size)
            report, seconds = timed(evaluation.evaluate, stage2.model, splits[split],
                                    self.stage2_config.batch_size)
            out.add("eval", len(splits[split]), seconds)
            check_report(tally, report, f"{split} report")
            out.outputs.append(report.to_json())
        return out


class ExamData(Workload):
    """Seeded exam-like records at the reference dimensions."""

    def make(self, seed: int, count: int, config) -> None:
        rng = np.random.default_rng(seed)
        self.lexicon = examgen.make_lexicon(rng)
        records = examgen.make_records(rng, self.lexicon, count, f"exam-{seed}")
        self.instances = [inst for rec in records for inst in corpus.parse_race_record(rec)]
        self.config = config

    def build_vocabularies(self, instances):
        streams = itertools.chain([self.lexicon], corpus.instance_token_streams(instances))
        vocab = corpus.Vocabulary.build(streams, cap=self.config.vocab_cap)
        char_streams = itertools.chain(
            [self.lexicon], corpus.instance_token_streams(instances, include_options=True))
        char_vocab = corpus.CharVocabulary.build(char_streams)
        table = corpus.random_embeddings(vocab, self.config.embed_dim, seed=self.config.seed,
                                         trainable=self.config.fine_tune_embeddings)
        return vocab, char_vocab, table


class ExamTrain(ExamData):
    """Stage one at the reference dimensions (batch 8) on 300-token passages."""

    name = "exam-train"
    setups_per_sample = 2

    def prepare(self, seed: int, workdir) -> None:
        config = training.TrainConfig(batch_size=EXAM_TRAIN_BATCH, max_epochs=1, seed=seed)
        self.make(seed, EXAM_TRAIN_INSTANCES + EXAM_DEV_INSTANCES, config)
        self.train = self.instances[:EXAM_TRAIN_INSTANCES]
        self.dev = self.instances[EXAM_TRAIN_INSTANCES:]

    def setup(self):
        return self.build_vocabularies(self.train)

    def check_setup(self, tally: Tally, state) -> None:
        vocab = state[0]
        expected = self.config.vocab_cap + len(corpus.RESERVED_TOKENS)
        tally.check(len(vocab) == expected, f"vocabulary has {len(vocab)} entries, not {expected}")

    def unit(self, state, tally: Tally) -> UnitResult:
        vocab, char_vocab, table = state
        out = UnitResult()
        tally.attempted += 1
        stage1, seconds = timed(training.train_synthesis_stage, self.config, self.train,
                                self.dev, vocab, char_vocab, table)
        out.add("stage1", len(self.train) * len(stage1.history), seconds)
        for h in stage1.history:
            out.losses += [h["train_loss"], h["dev_loss"]]
        tally.check(len(stage1.history) == 1, "stage one did not run exactly one epoch")
        return out


class ExamInfer(ExamData):
    """Forward-only evaluation of a fresh model loaded from its directory."""

    name = "exam-infer"

    def prepare(self, seed: int, workdir) -> None:
        self.make(seed, EXAM_EVAL_INSTANCES, training.TrainConfig(seed=seed))
        vocab, char_vocab, table = self.build_vocabularies(self.instances)
        fresh = model_mod.build_model(self.config.dims(vocab, char_vocab), vocab, char_vocab,
                                      table.matrix, seed)
        self.digests = checkpoint.param_fingerprints(fresh.parameters())
        self.model_dir = model_io.save_model_dir(workdir / "exam-model", fresh, self.config)
        self.loaded = None

    def setup(self):
        self.loaded = None  # release the previous copy before loading the next
        self.loaded = model_io.load_model_dir(self.model_dir)
        return self.loaded

    def check_setup(self, tally: Tally, state) -> None:
        tally.check(checkpoint.param_fingerprints(state[0].parameters()) == self.digests,
                    "save_model_dir/load_model_dir round trip is not bit-exact")

    def unit(self, state, tally: Tally) -> UnitResult:
        model, config = state
        out = UnitResult()
        tally.attempted += eval_batches(self.instances, EXAM_EVAL_BATCH)
        report, seconds = timed(evaluation.evaluate, model, self.instances, EXAM_EVAL_BATCH)
        out.add("eval", len(self.instances), seconds)
        check_report(tally, report, "exam report")
        out.answers = [record.answer_text for record in report.records]
        out.outputs.append(report.to_json())
        return out

    def check_run(self, state, units: list[UnitResult], tally: Tally) -> dict:
        """Decode the evaluated batches again and check every answer's decode
        length: between 1 and the cap, and ending in the end token when
        shorter than the cap; the reported answer is that decode's text."""
        model, config = state
        cap = config.max_decode_len
        lengths = []
        batches = corpus.make_batches(self.instances, model.vocab, EXAM_EVAL_BATCH)
        generated = [a for batch in batches for a in model.generate(batch)[0]]
        tally.check(len(generated) == len(units[0].answers),
                    f"{len(generated)} decodes for {len(units[0].answers)} answers")
        for k, (answer, reported) in enumerate(zip(generated, units[0].answers)):
            n = len(answer.token_ids)
            lengths.append(n)
            tally.check(1 <= n <= cap and (n == cap or answer.token_ids[-1] == corpus.EOS)
                        and answer.text == reported,
                        f"answer {k}: decode {answer.token_ids} of length {n} does not stop "
                        f"at the end token or the cap {cap}, or is not the reported {reported!r}")
        return {"decode_length_mean": (sum(lengths) / max(len(lengths), 1), "count")}


WORKLOADS = {w.name: w for w in (ToyRecipe, ExamTrain, ExamInfer)}
