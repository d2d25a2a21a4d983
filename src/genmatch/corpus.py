"""Corpus ingestion: exam-style JSON records, tokenization, vocabularies,
pretrained word vectors, padded batches, and a synthetic toy corpus.

A record is a JSON document with fields ``article`` (the passage string),
``questions`` (list of query strings, cloze queries contain a ``_``
placeholder), ``options`` (one list of exactly 4 strings per question),
``answers`` (gold letters A-D), and ``id``.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PAD, UNK, BOS, EOS = 0, 1, 2, 3
PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN = "<pad>", "<unk>", "<bos>", "<eos>"
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, BOS_TOKEN, EOS_TOKEN)

CHAR_PAD, CHAR_UNK = 0, 1

OPTION_LETTERS = "ABCD"  # an answer's letter, by option index
NUM_OPTIONS = len(OPTION_LETTERS)

_RECORD_FIELDS = ("article", "questions", "options", "answers", "id")
_PUNCT_RE = re.compile(r"([^\w\s])")


class MalformedRecord(ValueError):
    """A record is missing fields or violates the schema."""


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace, with punctuation split off into
    standalone tokens. Underscore counts as a word character, so a cloze
    placeholder ``_`` survives as its own token."""
    return _PUNCT_RE.sub(r" \1 ", text.lower()).split()


@dataclass(frozen=True)
class Instance:
    """One (passage, question, 4 options, gold label) unit."""

    uid: str
    passage_tokens: tuple[str, ...]
    question_tokens: tuple[str, ...]
    option_tokens: tuple[tuple[str, ...], ...]
    gold_index: int
    subset: str | None = None

    def __post_init__(self):
        if len(self.option_tokens) != NUM_OPTIONS:
            raise MalformedRecord(f"{self.uid}: expected {NUM_OPTIONS} options")
        if not 0 <= self.gold_index < NUM_OPTIONS:
            raise MalformedRecord(f"{self.uid}: gold index {self.gold_index} out of range")
        if not self.passage_tokens or not self.question_tokens:
            raise MalformedRecord(f"{self.uid}: empty passage or question")
        if any(not opt for opt in self.option_tokens):
            raise MalformedRecord(f"{self.uid}: empty option")


def parse_race_record(document: str | dict, subset: str | None = None) -> list[Instance]:
    """Parse one JSON record into one Instance per question.

    Gold letters map to indices by position in the alphabet.
    """
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise MalformedRecord(f"invalid JSON: {exc}") from exc
    else:
        doc = document
    for fieldname in _RECORD_FIELDS:
        if fieldname not in doc:
            raise MalformedRecord(f"missing field {fieldname!r}")
    doc_id = str(doc["id"])
    for fieldname, kind in (("article", str), ("questions", list), ("options", list),
                            ("answers", list)):
        if not isinstance(doc[fieldname], kind):
            raise MalformedRecord(f"{doc_id}: field {fieldname!r} is not a {kind.__name__}")
    questions, options, answers = doc["questions"], doc["options"], doc["answers"]
    if not (len(questions) == len(options) == len(answers)):
        raise MalformedRecord(f"{doc_id}: questions/options/answers lengths differ")
    passage = tuple(tokenize(doc["article"]))
    instances = []
    for k, (question, opts, answer) in enumerate(zip(questions, options, answers)):
        if not isinstance(opts, list) or len(opts) != NUM_OPTIONS:
            raise MalformedRecord(f"{doc_id}: question {k} needs exactly {NUM_OPTIONS} options")
        if not all(isinstance(text, str) for text in (question, *opts)):
            raise MalformedRecord(f"{doc_id}: question {k} or one of its options is not a string")
        if not isinstance(answer, str) or answer not in OPTION_LETTERS or len(answer) != 1:
            raise MalformedRecord(f"{doc_id}: question {k} has invalid answer {answer!r}")
        instances.append(Instance(
            uid=f"{doc_id}:q{k}",
            passage_tokens=passage,
            question_tokens=tuple(tokenize(question)),
            option_tokens=tuple(tuple(tokenize(o)) for o in opts),
            gold_index=OPTION_LETTERS.index(answer),
            subset=subset,
        ))
    return instances


# ---------------------------------------------------------------------------
# vocabularies


@dataclass
class Vocabulary:
    """Token-to-id map with reserved pad/unk/bos/eos entries.

    Content words are ranked by corpus frequency (ties broken
    lexicographically) and truncated to the cap; every unknown token
    resolves to the unk id.
    """

    tokens: list[str]
    index: dict[str, int] = field(repr=False, default=None)

    def __post_init__(self):
        if self.index is None:
            self.index = {tok: i for i, tok in enumerate(self.tokens)}

    @classmethod
    def build(cls, token_streams, cap: int) -> "Vocabulary":
        if cap < 1:
            raise ValueError("vocabulary cap must be >= 1")
        counts: Counter[str] = Counter()
        for stream in token_streams:
            counts.update(stream)
        if not counts:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        content = [tok for tok, _ in ranked[:cap]]
        return cls(tokens=list(RESERVED_TOKENS) + content)

    def ids(self, tokens) -> list[int]:
        get = self.index.get
        return [get(t, UNK) for t in tokens]

    def token_for(self, token_id: int) -> str:
        return self.tokens[token_id]

    def __len__(self) -> int:
        return len(self.tokens)

    def to_payload(self) -> dict:
        return {"tokens": self.tokens}

    @classmethod
    def from_payload(cls, payload: dict) -> "Vocabulary":
        return cls(tokens=list(payload["tokens"]))


@dataclass
class CharVocabulary:
    """Character-to-id map (sorted corpus characters after two reserved slots)."""

    chars: list[str]
    index: dict[str, int] = field(repr=False, default=None)

    def __post_init__(self):
        if self.index is None:
            self.index = {c: i for i, c in enumerate(self.chars)}

    @classmethod
    def build(cls, token_streams) -> "CharVocabulary":
        seen = set()
        for stream in token_streams:
            for token in stream:
                seen.update(token)
        return cls(chars=["<cpad>", "<cunk>"] + sorted(seen))

    def ids(self, token: str) -> list[int]:
        get = self.index.get
        return [get(c, CHAR_UNK) for c in token]

    def __len__(self) -> int:
        return len(self.chars)

    def to_payload(self) -> dict:
        return {"chars": self.chars}

    @classmethod
    def from_payload(cls, payload: dict) -> "CharVocabulary":
        return cls(chars=list(payload["chars"]))


def instance_token_streams(instances, include_options: bool = False):
    """Passage and question token streams (options excluded from frequency
    ranking; they still map through the shared vocabulary)."""
    for inst in instances:
        yield inst.passage_tokens
        yield inst.question_tokens
        if include_options:
            for opt in inst.option_tokens:
                yield opt


# ---------------------------------------------------------------------------
# pretrained word vectors


class EmbeddingFormatError(ValueError):
    """A vector file line does not have token + dim finite numeric values."""


@dataclass
class EmbeddingTable:
    """Word vectors for a vocabulary; rows not covered by the file are
    seeded uniform(-0.1, 0.1)."""

    matrix: np.ndarray
    pretrained: np.ndarray  # bool flag per row
    coverage: float
    trainable: bool


def random_embeddings(vocab: Vocabulary, dim: int, seed: int,
                      trainable: bool) -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-0.1, 0.1, size=(len(vocab), dim))
    return EmbeddingTable(matrix=matrix, pretrained=np.zeros(len(vocab), dtype=bool),
                          coverage=0.0, trainable=trainable)


def load_embeddings(path, vocab: Vocabulary, dim: int, seed: int,
                    trainable: bool) -> EmbeddingTable:
    """Read ``token v1 ... v<dim>`` lines, overlaying covered vocabulary rows
    onto a seeded random base so the result is deterministic. A covered
    row's values must be finite numbers; an error names ``<path>:<line>``."""
    table = random_embeddings(vocab, dim, seed, trainable=trainable)
    covered = table.pretrained
    with open(path, "rb") as fh:  # decoded line by line, so an error names its line
        for lineno, raw in enumerate(fh, start=1):
            try:
                parts = raw.decode("utf-8").split()
            except UnicodeDecodeError as exc:
                raise EmbeddingFormatError(f"{path}:{lineno}: {exc}") from None
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise EmbeddingFormatError(
                    f"{path}:{lineno}: expected {dim} values, got {len(values)}")
            idx = vocab.index.get(token)
            if idx is not None:
                try:
                    row = np.array([float(v) for v in values])
                except ValueError as exc:
                    raise EmbeddingFormatError(f"{path}:{lineno}: {exc}") from None
                finite = np.isfinite(row)
                if not finite.all():  # nan, inf, or a value past the float range
                    raise EmbeddingFormatError(
                        f"{path}:{lineno}: non-finite value {values[np.argmin(finite)]!r}")
                table.matrix[idx] = row
                covered[idx] = True
    table.coverage = float(covered.mean())
    return table


# ---------------------------------------------------------------------------
# batching


@dataclass
class Batch:
    """Padded id matrices, each with its bool mask, True at real tokens."""

    instances: tuple[Instance, ...]
    passage_ids: np.ndarray    # (B, P)
    passage_mask: np.ndarray
    question_ids: np.ndarray   # (B, Q)
    question_mask: np.ndarray
    option_ids: np.ndarray     # (B*4, K), instance-major
    option_mask: np.ndarray
    gold: np.ndarray           # (B,)

    @property
    def size(self) -> int:
        return len(self.instances)


def pad_block(sequences) -> tuple[np.ndarray, np.ndarray]:
    """Pad id lists into a (N, longest) int64 block (PAD = 0) and its bool
    mask, True at real tokens."""
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    held = np.arange(max(lengths)) < lengths[:, None]
    ids = np.zeros(held.shape, dtype=np.int64)
    ids[held] = np.fromiter(itertools.chain.from_iterable(sequences), dtype=np.int64,
                            count=int(lengths.sum()))
    return ids, held


def make_batch(instances, vocab: Vocabulary) -> Batch:
    instances = tuple(instances)
    p_ids, p_mask = pad_block([vocab.ids(i.passage_tokens) for i in instances])
    q_ids, q_mask = pad_block([vocab.ids(i.question_tokens) for i in instances])
    o_ids, o_mask = pad_block([vocab.ids(opt) for i in instances for opt in i.option_tokens])
    return Batch(
        instances=instances,
        passage_ids=p_ids, passage_mask=p_mask,
        question_ids=q_ids, question_mask=q_mask,
        option_ids=o_ids, option_mask=o_mask,
        gold=np.array([i.gold_index for i in instances], dtype=np.int64),
    )


def make_batches(instances, vocab: Vocabulary, batch_size: int,
                 shuffle_seed: int | None = None) -> list[Batch]:
    """Chunk instances into padded batches; the final partial batch is kept.
    Shuffling is deterministic under the seed; None keeps input order."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    items = list(instances)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(items))
        items = [items[i] for i in order]
    return [make_batch(items[i:i + batch_size], vocab)
            for i in range(0, len(items), batch_size)]


# ---------------------------------------------------------------------------
# synthetic toy corpus

TOY_NOUNS = [
    "cat", "dog", "fox", "owl", "bear", "wolf", "frog", "deer", "hawk", "mole",
    "lion", "seal", "crab", "swan", "toad", "hare", "crow", "duck", "goat", "fish",
    "mouse", "horse", "sheep", "snake", "eagle", "otter", "raven", "robin", "skunk",
    "moose", "bison", "camel", "llama", "gecko", "heron", "finch", "shark", "whale",
    "zebra", "panda",
]
TOY_COLORS = ["red", "blue", "green", "yellow", "purple", "orange", "brown",
              "black", "white", "pink"]


def generate_toy_corpus(num_passages: int, seed: int) -> list[dict]:
    """Emit color-fact records in the exam JSON schema.

    Each passage lists 3-6 facts ``the <noun> is <color> .`` with nouns and
    colors unique within the passage; each question asks for one noun's
    color (interrogative or cloze form) with 4 color options of which
    exactly one is correct, and the correct color always occurs verbatim
    in the passage.
    """
    rng = np.random.default_rng(seed)
    nouns = np.array(TOY_NOUNS)
    colors = np.array(TOY_COLORS)
    docs = []
    for i in range(num_passages):
        n_facts = int(rng.integers(3, 7))
        picked_nouns = [str(x) for x in rng.choice(nouns, size=n_facts, replace=False)]
        picked_colors = [str(x) for x in rng.choice(colors, size=n_facts, replace=False)]
        article = " ".join(f"the {noun} is {color} ." for noun, color
                           in zip(picked_nouns, picked_colors))
        questions, options, answers = [], [], []
        for noun, color in zip(picked_nouns, picked_colors):
            if rng.random() < 0.4:
                question = f"the {noun} is _ ."
            else:
                question = f"what color is the {noun} ?"
            distractors = [str(x) for x in rng.choice(
                np.array([c for c in TOY_COLORS if c != color]), size=3, replace=False)]
            opts = [color] + distractors
            order = rng.permutation(NUM_OPTIONS)
            opts = [opts[j] for j in order]
            questions.append(question)
            options.append(opts)
            answers.append(OPTION_LETTERS[opts.index(color)])
        docs.append({
            "article": article,
            "questions": questions,
            "options": options,
            "answers": answers,
            "id": f"toy-{seed}-{i:05d}",
        })
    return docs


def write_toy_dataset(out_dir, num_passages: int, seed: int,
                      train_frac: float = 0.8, dev_frac: float = 0.1) -> dict[str, int]:
    """Write a generated corpus into train/dev/test split directories."""
    docs = generate_toy_corpus(num_passages, seed)
    n_train = max(1, round(train_frac * len(docs)))
    n_dev = max(1, round(dev_frac * len(docs)))
    n_train = min(n_train, len(docs) - 2) if len(docs) >= 3 else n_train
    splits = {
        "train": docs[:n_train],
        "dev": docs[n_train:n_train + n_dev],
        "test": docs[n_train + n_dev:],
    }
    out_dir = Path(out_dir)
    counts = {}
    for split, split_docs in splits.items():
        split_dir = out_dir / split
        split_dir.mkdir(parents=True, exist_ok=True)
        for doc in split_docs:
            path = split_dir / f"{doc['id']}.json"
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        counts[split] = len(split_docs)
    return counts


def parse_record_file(path, subset: str | None = None) -> list[Instance]:
    """``parse_race_record`` on one file; its errors name the file."""
    try:
        return parse_race_record(Path(path).read_text(encoding="utf-8"), subset=subset)
    except (MalformedRecord, UnicodeDecodeError) as exc:
        raise MalformedRecord(f"{path}: {exc}") from exc


def load_split_dir(split_dir) -> list[Instance]:
    """Parse every record under a split directory (recursively, sorted paths).
    Path components named middle/high become the instance's subset label."""
    split_dir = Path(split_dir)
    paths = sorted(p for p in split_dir.rglob("*") if p.suffix in (".json", ".txt"))
    instances: list[Instance] = []
    for path in paths:
        parts = {part.lower() for part in path.relative_to(split_dir).parts[:-1]}
        subset = "middle" if "middle" in parts else ("high" if "high" in parts else None)
        instances.extend(parse_record_file(path, subset=subset))
    return instances


def load_dataset_dir(root) -> dict[str, list[Instance]]:
    """Load train/dev/test splits below ``root``; with no split layout the
    whole directory is treated as a single unnamed split."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset directory {root} does not exist")
    splits = {}
    for split in ("train", "dev", "test"):
        if (root / split).is_dir():
            splits[split] = load_split_dir(root / split)
    if not splits:
        splits["all"] = load_split_dir(root)
    return splits
