"""Seeded generator of exam-like reading-comprehension records.

The records follow the exam JSON schema that ``genmatch.corpus`` parses, so
the package receives them through its own loader. Word frequencies follow
a Zipf law over a lexicon of exactly ``LEXICON_SIZE`` random lowercase
words, and the lexicon itself is handed to ``Vocabulary.build`` as a
background stream so that the vocabulary reaches the 65k cap.

Every gold option is a contiguous copy of 2-6 passage tokens, so each
instance has an oracle span; the gold letter is uniform over A-D, so a
zero-initialised matcher scores chance rather than 100%.
"""

from __future__ import annotations

import string

import numpy as np

LEXICON_SIZE = 65_000
PASSAGE_TOKENS = 300
QUESTION_TOKENS = 12
OPTION_TOKENS = (2, 6)
WORD_LETTERS = (2, 10)
ZIPF_EXPONENT = 1.0

_LETTERS = np.array(list(string.ascii_lowercase))


def make_lexicon(rng: np.random.Generator, size: int = LEXICON_SIZE) -> list[str]:
    """``size`` distinct random words of 2-10 lowercase letters, in rank order."""
    words: dict[str, None] = {}
    while len(words) < size:
        need = size - len(words)
        lengths = rng.integers(WORD_LETTERS[0], WORD_LETTERS[1] + 1, size=need)
        letters = rng.integers(0, len(_LETTERS), size=int(lengths.sum()))
        pos = 0
        for n in lengths:
            words.setdefault("".join(_LETTERS[letters[pos:pos + n]]), None)
            pos += n
    return list(words)


def zipf_probabilities(size: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def make_records(rng: np.random.Generator, lexicon: list[str], count: int,
                 prefix: str) -> list[dict]:
    """``count`` one-question records with a 300-token passage each."""
    probs = zipf_probabilities(len(lexicon))
    words = np.array(lexicon)
    lo, hi = OPTION_TOKENS

    def draw(n: int) -> list[str]:
        return [str(w) for w in words[rng.choice(len(words), n, p=probs)]]

    records = []
    for k in range(count):
        passage = draw(PASSAGE_TOKENS)
        question = draw(QUESTION_TOKENS)
        gold_len = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(0, PASSAGE_TOKENS - gold_len + 1))
        gold = passage[start:start + gold_len]
        distractors = [draw(int(rng.integers(lo, hi + 1))) for _ in range(3)]
        gold_slot = int(rng.integers(0, 4))
        options = distractors[:gold_slot] + [gold] + distractors[gold_slot:]
        records.append({
            "article": " ".join(passage),
            "questions": [" ".join(question) + " ?"],
            "options": [[" ".join(opt) for opt in options]],
            "answers": ["ABCD"[gold_slot]],
            "id": f"{prefix}-{k:05d}",
        })
    return records
