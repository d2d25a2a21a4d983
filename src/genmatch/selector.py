"""Option selection by bilinear similarity.

The generated answer is re-encoded (with the shared question/option
encoder) into a fixed vector and scored against each option vector
through a learned square matrix: score(i) = a^T W z_i. The chosen option
is the argmax; training normalizes the scores with a softmax and uses
cross-entropy against the gold option.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Parameter, Tensor
from .corpus import NUM_OPTIONS


@dataclass
class OptionScores:
    """Raw bilinear scores and their softmax normalization, (B, 4) each."""

    scores: Tensor
    probabilities: Tensor


def init_bilinear(store: ParamStore, hidden: int) -> Parameter:
    """The matching matrix starts at zero, which makes every option equally
    likely before the selection stage trains it."""
    return store.create("select.w_att", np.zeros((2 * hidden, 2 * hidden)))


def bilinear_score(answer: Tensor, options_flat: Tensor, w_att: Parameter) -> OptionScores:
    """Score a (B, 2H) answer vector against (B*4, 2H) option vectors."""
    dim = w_att.data.shape[0]
    if answer.data.shape[1] != dim or options_flat.data.shape[1] != dim:
        raise ValueError("answer/option dimension does not match the matcher")
    batch = answer.data.shape[0]
    if options_flat.data.shape[0] != batch * NUM_OPTIONS:
        raise ValueError("expected 4 option vectors per instance")
    projected = ad.repeat_rows(ad.matmul(answer, w_att), NUM_OPTIONS)
    raw = ad.reshape(ad.sum_last(ad.mul(projected, options_flat)), (batch, NUM_OPTIONS))
    return OptionScores(scores=raw, probabilities=ad.softmax(raw))


def select_option(scores: OptionScores) -> np.ndarray:
    """Argmax per instance; ties go to the lowest index."""
    return np.argmax(scores.scores.data, axis=1)


def selection_loss(scores: OptionScores, gold: np.ndarray) -> Tensor:
    """Mean negative log-probability of the gold options."""
    gold = np.asarray(gold, dtype=np.int64)
    if gold.min() < 0 or gold.max() >= NUM_OPTIONS:
        raise ValueError("gold index out of range")
    logp = ad.log_softmax(scores.scores)
    return ad.neg(ad.mean(ad.take_per_row(logp, gold)))
