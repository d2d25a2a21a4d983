"""Non-neural reference points: random choice and a sliding-window
lexical-overlap scorer.

The sliding window scores each option by the best passage window's sum of
inverse-frequency weights over tokens shared with the question+option bag:
weight(token) = log(1 + P / count(token)) with P the passage length and
count the token's occurrences in the passage.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .corpus import NUM_OPTIONS, Instance
from .evaluation import (
    EvalReport,
    PredictionRecord,
    RANDOM_FULL_SCALE_ACCURACY,
    SLIDING_WINDOW_FULL_SCALE_ACCURACY,
    standard_meta,
)

DEFAULT_WINDOW = 10


def random_baseline(instances: list[Instance], seed: int) -> EvalReport:
    """Uniform choice among the 4 options, deterministic under the seed."""
    rng = np.random.default_rng(seed)
    records = [PredictionRecord(uid=inst.uid,
                                predicted_index=int(rng.integers(0, NUM_OPTIONS)),
                                gold_index=inst.gold_index, answer_text="",
                                subset=inst.subset)
               for inst in instances]
    meta = standard_meta("random-baseline", RANDOM_FULL_SCALE_ACCURACY, seed=seed)
    return EvalReport.from_records(records, meta=meta)


def window_score(passage: tuple[str, ...], bag: set[str], window: int) -> float:
    """Best window total of shared-token weights (whole passage if shorter)."""
    total_len = len(passage)
    counts = Counter(passage)
    weights = [math.log(1.0 + total_len / counts[tok]) if tok in bag else 0.0
               for tok in passage]
    width = min(window, total_len)
    return max(sum(weights[start:start + width])
               for start in range(total_len - width + 1))


def sliding_window_choice(instance: Instance, window: int) -> int:
    question = set(instance.question_tokens)
    scores = [window_score(instance.passage_tokens,
                           question | set(option), window)
              for option in instance.option_tokens]
    return int(np.argmax(scores))  # ties resolve to the lowest index


def sliding_window_baseline(instances: list[Instance], window: int) -> EvalReport:
    records = [PredictionRecord(uid=inst.uid,
                                predicted_index=sliding_window_choice(inst, window),
                                gold_index=inst.gold_index, answer_text="",
                                subset=inst.subset)
               for inst in instances]
    meta = standard_meta("sliding-window-baseline", SLIDING_WINDOW_FULL_SCALE_ACCURACY,
                         window=window)
    return EvalReport.from_records(records, meta=meta)
