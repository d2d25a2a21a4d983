import json

import numpy as np
import pytest

from genmatch import autodiff as ad
from genmatch.evaluation import (
    CHECKPOINT_POLICY,
    EvalReport,
    PIPELINE_FULL_SCALE_ACCURACY,
    PredictionRecord,
    evaluate,
    standard_meta,
)

from helpers import build_micro_pipeline


def records_fixture():
    return [
        PredictionRecord("a:q0", 1, 1, "red", subset="middle"),
        PredictionRecord("a:q1", 0, 2, "blue", subset="middle"),
        PredictionRecord("b:q0", 3, 3, "green", subset="high"),
        PredictionRecord("c:q0", 2, 2, "pink"),
    ]


def test_accuracy_and_subsets_counted_exactly():
    report = EvalReport.from_records(records_fixture())
    assert report.accuracy == 0.75
    assert report.subset_accuracy == {"high": 1.0, "middle": 0.5}
    assert report.recount() == report.accuracy


def test_all_correct_gives_accuracy_one():
    records = [PredictionRecord(f"i{k}", 2, 2, "") for k in range(5)]
    assert EvalReport.from_records(records).accuracy == 1.0


def test_report_json_is_stable_and_parseable():
    report = EvalReport.from_records(records_fixture(), meta={"kind": "test"})
    payload = json.loads(report.to_json())
    assert payload["total"] == 4
    assert payload["correct"] == 3
    assert report.to_json() == EvalReport.from_records(records_fixture(),
                                                       meta={"kind": "test"}).to_json()


def test_empty_report_rejected():
    with pytest.raises(ValueError):
        EvalReport.from_records([])


def test_standard_meta_records_reference_and_policy():
    meta = standard_meta("pipeline", PIPELINE_FULL_SCALE_ACCURACY)
    assert meta["checkpoint_policy"] == CHECKPOINT_POLICY == "best-dev"
    assert meta["full_scale_reference_accuracy"] == 77.3
    assert "not reproducible at desk scale" in meta["full_scale_reference_note"]


def test_evaluate_runs_full_pipeline_and_is_deterministic():
    model, config, instances, _ = build_micro_pipeline(n_passages=2)
    first = evaluate(model, instances, batch_size=4)
    second = evaluate(model, instances, batch_size=4)
    assert first.to_json() == second.to_json()
    assert len(first.records) == len(instances)
    assert all(r.uid for r in first.records)
    assert first.meta["full_scale_reference_accuracy"] == 77.3


def test_evaluate_table_renders():
    model, _, instances, _ = build_micro_pipeline(n_passages=1)
    table = evaluate(model, instances, batch_size=4).table()
    assert "overall" in table and "accuracy" in table


@pytest.mark.parametrize("error, located", [
    (ad.NonFiniteError("non-finite value from log"), True),
    (ValueError("bad value"), True),
    (RuntimeError("other"), False),
    # a subclass is built from more than a message, so it passes through as it is
    (UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"), False),
], ids=["non_finite", "value", "runtime", "value_subclass"])
def test_a_failing_prediction_batch_names_itself(monkeypatch, error, located):
    model, _, instances, _ = build_micro_pipeline()
    original = model.predict_batch
    seen = []

    def failing(batch, answers):
        seen.append(batch)
        if len(seen) == 2:
            raise error
        return original(batch, answers)

    monkeypatch.setattr(model, "predict_batch", failing)
    with pytest.raises(type(error)) as excinfo:
        evaluate(model, instances, batch_size=2)
    if not located:
        assert excinfo.value is error
        return
    uids = ", ".join(inst.uid for inst in seen[1].instances)
    assert str(excinfo.value) == f"prediction batch 2 (instances {uids}): {error}"
    assert excinfo.value.__cause__ is error
