"""Evaluation reports and the full-pipeline accuracy run.

Reports carry per-instance predictions so accuracy is always recountable,
serialize to stable JSON (no timestamps, sorted keys) so identical
predictions yield byte-identical reports, and render a small human table.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import autodiff as ad
from .corpus import Batch, Instance, make_batches
from .model import PipelineModel
from .synthesizer import GeneratedAnswer

# Reported full-data accuracies for this architecture and the Table-style
# baselines; they require the full exam corpus plus long training and are
# recorded as reference points only (not reproducible at desk scale).
PIPELINE_FULL_SCALE_ACCURACY = {"middle": 79.6, "high": 75.4, "overall": 77.3}
RANDOM_FULL_SCALE_ACCURACY = {"middle": 24.6, "high": 25.0, "overall": 24.9}
SLIDING_WINDOW_FULL_SCALE_ACCURACY = {"middle": 37.3, "high": 30.4, "overall": 32.2}

CHECKPOINT_POLICY = "best-dev"

# how many of a failing batch's instance uids its error message names
_UIDS_SHOWN = 3


@dataclass(frozen=True)
class PredictionRecord:
    uid: str
    predicted_index: int
    gold_index: int
    answer_text: str
    subset: str | None = None

    @property
    def correct(self) -> bool:
        return self.predicted_index == self.gold_index


@dataclass
class EvalReport:
    accuracy: float
    subset_accuracy: dict[str, float]
    records: list[PredictionRecord]
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: list[PredictionRecord], meta: dict | None = None) -> "EvalReport":
        if not records:
            raise ValueError("cannot build a report from zero predictions")
        correct = sum(r.correct for r in records)
        subsets: dict[str, list[PredictionRecord]] = {}
        for r in records:
            if r.subset is not None:
                subsets.setdefault(r.subset, []).append(r)
        subset_accuracy = {name: sum(r.correct for r in rs) / len(rs)
                           for name, rs in sorted(subsets.items())}
        return cls(accuracy=correct / len(records), subset_accuracy=subset_accuracy,
                   records=list(records), meta=dict(meta or {}))

    def recount(self) -> float:
        """Recompute accuracy from the prediction list (consistency check)."""
        return sum(r.correct for r in self.records) / len(self.records)

    def to_payload(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "subset_accuracy": self.subset_accuracy,
            "total": len(self.records),
            "correct": sum(r.correct for r in self.records),
            "meta": self.meta,
            "predictions": [
                {"id": r.uid, "predicted": r.predicted_index, "gold": r.gold_index,
                 "answer": r.answer_text, "subset": r.subset}
                for r in self.records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    def table(self) -> str:
        lines = []
        for key, value in sorted(self.meta.items()):
            lines.append(f"# {key}: {value}")
        lines.append(f"{'subset':<12} {'accuracy':>9} {'count':>7}")
        lines.append(f"{'overall':<12} {self.accuracy:>9.4f} {len(self.records):>7}")
        for name, acc in self.subset_accuracy.items():
            count = sum(1 for r in self.records if r.subset == name)
            lines.append(f"{name:<12} {acc:>9.4f} {count:>7}")
        return "\n".join(lines)


def standard_meta(kind: str, reference: dict, **extra) -> dict:
    meta = {"kind": kind, "checkpoint_policy": CHECKPOINT_POLICY,
            "full_scale_reference_accuracy": reference["overall"],
            "full_scale_reference_note": (
                "reported full-data accuracy "
                f"(middle {reference['middle']}, high {reference['high']}); "
                "not reproducible at desk scale")}
    meta.update(extra)
    return meta


@contextmanager
def raised_at(where: str, batch: Batch | None = None):
    """Raise a ``ValueError`` or ``NonFiniteError`` from the block again as
    its own type, chained from it, with ``where`` and the first uids of
    ``batch`` in front of its message. Any other exception, a subclass of
    those two included, passes through as it is."""
    try:
        yield
    except (ValueError, ad.NonFiniteError) as exc:
        if type(exc) not in (ValueError, ad.NonFiniteError):
            raise
        if batch is not None:
            more = ", ..." if batch.size > _UIDS_SHOWN else ""
            uids = ", ".join(inst.uid for inst in batch.instances[:_UIDS_SHOWN])
            where = f"{where} (instances {uids}{more})"
        raise type(exc)(f"{where}: {exc}") from exc


def batch_answers(model: PipelineModel, batch: Batch,
                  answers: dict[Instance, GeneratedAnswer]) -> list[GeneratedAnswer]:
    """The batch's generated answers, taken from ``answers`` (instance ->
    answer). A batch holding an instance not yet there is generated as a
    whole and its answers are stored. The stored answers hold only while
    the generation weights stay as they were."""
    if not all(inst in answers for inst in batch.instances):
        answers.update(zip(batch.instances, model.generate(batch)[0]))
    return [answers[inst] for inst in batch.instances]


def predict_records(model: PipelineModel, instances: list[Instance], batch_size: int,
                    answers: dict[Instance, GeneratedAnswer]) -> list[PredictionRecord]:
    """One prediction per instance, in input order, in batches of
    ``batch_size``; the generated answers come through ``answers`` as
    ``batch_answers`` gives them. An error in a batch names it."""
    records: list[PredictionRecord] = []
    for number, batch in enumerate(make_batches(instances, model.vocab, batch_size), 1):
        with raised_at(f"prediction batch {number}", batch):
            generated = batch_answers(model, batch, answers)
            chosen = model.predict_batch(batch, generated)
        records.extend(PredictionRecord(uid=inst.uid, predicted_index=int(pick),
                                        gold_index=inst.gold_index,
                                        answer_text=answer.text, subset=inst.subset)
                       for inst, pick, answer in zip(batch.instances, chosen, generated))
    return records


def evaluate(model: PipelineModel, instances: list[Instance],
             batch_size: int, meta: dict | None = None) -> EvalReport:
    """Deterministic full-pipeline evaluation (dropout off, input order kept)."""
    records = predict_records(model, instances, batch_size, {})
    base = standard_meta("pipeline", PIPELINE_FULL_SCALE_ACCURACY)
    base.update(meta or {})
    return EvalReport.from_records(records, meta=base)
