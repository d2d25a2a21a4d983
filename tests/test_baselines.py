import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genmatch.baselines import (
    DEFAULT_WINDOW,
    random_baseline,
    sliding_window_baseline,
    sliding_window_choice,
    window_score,
)
from genmatch.corpus import Instance
from genmatch.evaluation import (
    RANDOM_FULL_SCALE_ACCURACY,
    SLIDING_WINDOW_FULL_SCALE_ACCURACY,
)

from helpers import toy_instances


def brute_window_score(passage, bag, window):
    total_len = len(passage)
    counts = Counter(passage)
    width = min(window, total_len)
    best = None
    for start in range(total_len - width + 1):
        score = 0.0
        for tok in passage[start:start + width]:
            if tok in bag:
                score += math.log(1.0 + total_len / counts[tok])
        best = score if best is None else max(best, score)
    return best


def test_full_scale_reference_constants():
    assert RANDOM_FULL_SCALE_ACCURACY == {"middle": 24.6, "high": 25.0, "overall": 24.9}
    assert SLIDING_WINDOW_FULL_SCALE_ACCURACY == {"middle": 37.3, "high": 30.4,
                                                  "overall": 32.2}


def test_random_baseline_seeded_determinism():
    insts = toy_instances(6)
    first = random_baseline(insts, seed=3)
    second = random_baseline(insts, seed=3)
    assert first.to_json() == second.to_json()
    assert first.meta["kind"] == "random-baseline"


def test_hand_computed_window_case():
    # passage of 5 tokens, window 2: the best window must cover both bag hits
    passage = ("a", "b", "c", "a", "d")
    bag = {"a", "d"}
    got = window_score(passage, bag, window=2)
    want = math.log(1 + 5 / 2) + math.log(1 + 5 / 1)  # window ("a", "d")
    assert got == pytest.approx(want)
    assert got == pytest.approx(brute_window_score(passage, bag, 2))


def test_disjoint_options_fall_back_to_first():
    inst = Instance(uid="x", passage_tokens=("p", "q", "r"),
                    question_tokens=("?",),
                    option_tokens=(("a",), ("b",), ("c",), ("d",)),
                    gold_index=1)
    assert sliding_window_choice(inst, DEFAULT_WINDOW) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=12),
       st.lists(st.sampled_from("abcde"), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=12))
def test_window_scores_match_brute_force(passage, bag_tokens, window):
    passage = tuple(passage)
    bag = set(bag_tokens)
    assert window_score(passage, bag, window) == pytest.approx(
        brute_window_score(passage, bag, window), abs=1e-12)


def test_sliding_window_beats_random_on_toy_data():
    insts = toy_instances(60, seed=5)
    sw = sliding_window_baseline(insts, DEFAULT_WINDOW)
    rand = random_baseline(insts, seed=5)
    assert sw.accuracy >= rand.accuracy + 0.20


def test_reports_recount_consistently():
    insts = toy_instances(10)
    report = sliding_window_baseline(insts, DEFAULT_WINDOW)
    assert report.accuracy == report.recount()
