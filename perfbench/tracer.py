"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each genmatch module at the module
attribute where callers look them up: a function is replaced in every
genmatch module namespace that holds it (``genmatch.model.bigru_encode`` and
``genmatch.encoders.bigru_encode`` both), and a method is replaced on its
class. Per-op primitives (``gru_cell``, ``matmul``, ``_node`` and the rest of
the tape ops) are left alone, so a layer's self time includes the tape ops
it issues.

Each wrapped call records a span (name, start, end, parent span) in memory;
counts are recorded by hooks at the same boundaries. Hook work runs inside a
``trace.hook`` span, so it is charged to the tracer and not to the layer that
was running when the hook fired.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

HOOK_SPAN = "trace.hook"

# Modules whose public functions are wrapped, in layer order.
MODULES = ("corpus", "encoders", "attention", "extractor", "synthesizer", "selector",
           "model", "autodiff", "training", "evaluation", "checkpoint", "model_io")

# autodiff is mostly per-op primitives; only these functions are wrapped.
AUTODIFF_FUNCTIONS = ("backward", "zero_grads", "global_grad_norm", "clip_global_norm")

# Methods wrapped besides module-level functions ("Class.*": every public
# method). Other classes hold data accessors that record one or two tape
# ops, or per-token lookups, which count as per-op primitives.
METHODS = {
    "corpus": ("Vocabulary.build", "CharVocabulary.build"),
    "autodiff": ("Adam.step",),
    "model": ("PipelineModel.*",),
}

# Spans whose result is the loss that ``backward`` later differentiates.
LOSS_SPANS = ("model.PipelineModel.stage_one_loss", "model.PipelineModel.selection_stage_loss")
STAGE_SPANS = ("training.train_synthesis_stage", "training.train_selection_stage")
EVAL_SPAN = "evaluation.evaluate"


class Recorder:
    """In-memory spans plus counters. Single-threaded: spans nest strictly."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.last_loss_span = -1

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = self.clock()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        if self.names[index] in LOSS_SPANS:
            self.last_loss_span = index

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def enclosing(self, names) -> int:
        """Outermost open span whose name is in ``names``, or -1."""
        for index in self.stack:
            if self.names[index] in names:
                return index
        return -1

    def innermost(self, name: str) -> int:
        for index in reversed(self.stack):
            if self.names[index] == name:
                return index
        return -1

    def write(self, path) -> None:
        """Spans as JSON: a name table plus [name id, start, end, parent] rows."""
        table = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        rows = [[table[n], s, e, p] for n, s, e, p
                in zip(self.names, self.starts, self.ends, self.parents)]
        payload = {"names": list(table), "spans": rows, "counts": dict(self.counts)}
        Path(path).write_text(json.dumps(payload) + "\n")


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Per-name self time: each span's duration minus the part of its
    interval that its child spans cover."""
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            lo = max(starts[i], starts[parent])
            hi = min(ends[i], ends[parent])
            covered[parent] += max(0.0, hi - lo)
    totals: dict[str, float] = defaultdict(float)
    for i, name in enumerate(names):
        totals[name] += max(0.0, ends[i] - starts[i] - covered[i])
    return dict(totals)


def tape_nodes(loss) -> int:
    """Number of recorded op nodes reachable from ``loss`` through
    ``_parents`` (leaves and constants excluded, shared nodes counted once)."""
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


def _targets(short: str, module):
    """(span name, owner, attribute, original) for everything wrapped in one module."""
    found = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue
        if short == "autodiff" and attr not in AUTODIFF_FUNCTIONS:
            continue
        found.append((f"{short}.{attr}", module, attr, obj))
    for qual in METHODS.get(short, ()):
        cls_name, meth = qual.split(".")
        cls = getattr(module, cls_name)
        names = ([n for n, v in vars(cls).items() if not n.startswith("_") and inspect.isfunction(v)]
                 if meth == "*" else [meth])
        found += [(f"{short}.{cls_name}.{n}", cls, n, vars(cls)[n]) for n in names]
    return found


class Instrumentation:
    """Installs wrappers on the genmatch modules and removes them again."""

    def __init__(self, recorder: Recorder, hooks: dict | None = None):
        self.recorder = recorder
        self.hooks = hooks or {}
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        rec = self.recorder
        hook = self.hooks.get(name)

        def run_hook(stage, args, kwargs, result=None):
            index = rec.begin(HOOK_SPAN)
            try:
                hook(stage, args, kwargs, result)
            finally:
                rec.end(index)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                run_hook("pre", args, kwargs)
            index = rec.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(index)
            rec.counts[name + ".calls"] += 1
            if hook is not None:
                run_hook("post", args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("genmatch")
        namespaces = [importlib.import_module(f"genmatch.{name}") for name in MODULES]
        namespaces += [m for m in (getattr(package, n, None) for n in dir(package))
                       if inspect.ismodule(m) and m not in namespaces]
        for short, module in zip(MODULES, namespaces):
            for span_name, owner, attr, original in _targets(short, module):
                if inspect.isclass(owner):
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self._wrap(span_name, original.__func__))
                    else:
                        wrapped = self._wrap(span_name, original)
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                wrapped = self._wrap(span_name, original)
                for ns in namespaces:
                    if vars(ns).get(attr) is original:
                        self._undo.append((ns, attr, original))
                        setattr(ns, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


# ---------------------------------------------------------------------------
# counters recorded at the wrapped boundaries


class LayerCounters:
    """Hooks that record the per-layer counts and ratios of the traced run."""

    def __init__(self, recorder: Recorder):
        from genmatch import checkpoint, encoders, model
        self.rec = recorder
        # captured before wrapping, so fingerprinting is not traced as layer work
        self._fingerprints = checkpoint.param_fingerprints
        self._matcher = model.MATCHER_PARAM
        self.forward_spans: list[int] = []
        self._embed_scope = -1
        self._embed_seen: set = set()
        self._generated: dict[int, dict[str, tuple]] = {}
        self._embed_signature = inspect.signature(encoders.embed_with_chars)

    def hooks(self) -> dict:
        return {
            "autodiff.backward": self._backward,
            "autodiff.clip_global_norm": self._clip,
            "encoders.bigru_encode": self._bigru,
            "encoders.embed_with_chars": self._embed,
            "synthesizer.generate_answer": self._generated_answers,
            "model.PipelineModel.generate": self._generate,
            "checkpoint.read_checkpoint": self._read_checkpoint,
        }

    def _backward(self, stage, args, kwargs, result):
        if stage != "pre":
            return
        loss = args[0] if args else kwargs["loss"]
        source = self.rec.last_loss_span
        kind = self.rec.names[source] if source >= 0 else "other"
        self.rec.counts[f"tape_nodes.{kind}"] += tape_nodes(loss)
        self.rec.counts[f"backwards.{kind}"] += 1
        if source >= 0:
            self.forward_spans.append(source)
            self.rec.last_loss_span = -1

    def _clip(self, stage, args, kwargs, result):
        if stage == "post" and result < 1.0:
            self.rec.counts["autodiff.clip_global_norm.clipped"] += 1

    def _bigru(self, stage, args, kwargs, result):
        if stage == "pre":
            seq = args[0] if args else kwargs["seq"]
            self.rec.counts["encoders.bigru_encode.steps"] += 2 * seq.length

    def _embed(self, stage, args, kwargs, result):
        if stage != "pre":
            return
        bound = self._embed_signature.bind(*args, **kwargs).arguments
        ids, mask, surfaces = bound["ids"], bound["mask"], bound["surfaces"]
        rows, cols = (mask > 0).nonzero()
        counts = self.rec.counts
        counts["encoders.embed.positions"] += len(rows)
        counts["encoders.embed.distinct"] += len({surfaces[b][t] for b, t in zip(rows, cols)})
        scope = self.rec.innermost(LOSS_SPANS[0])
        if scope < 0:
            return
        if scope != self._embed_scope:
            self._embed_scope, self._embed_seen = scope, set()
        key = (ids.shape, ids.tobytes(), mask.tobytes())
        counts["encoders.embed.calls_in_loss"] += 1
        if key in self._embed_seen:
            counts["encoders.embed.repeats_in_loss"] += 1
        self._embed_seen.add(key)

    def _generated_answers(self, stage, args, kwargs, result):
        if stage == "post":
            self.rec.counts["synthesizer.answers"] += len(result)
            self.rec.counts["synthesizer.decode_steps"] += sum(len(a.token_ids) for a in result)

    def _generate(self, stage, args, kwargs, result):
        """A generation is a reuse when the same instance was already
        generated in the same training stage (or, outside training, the
        same evaluate call) under bit-identical generation weights."""
        if stage != "pre":
            return
        model, batch = args[0], (args[1] if len(args) > 1 else kwargs["batch"])
        scope = self.rec.enclosing(STAGE_SPANS)
        if scope < 0:
            scope = self.rec.innermost(EVAL_SPAN)
        weights = [p for p in model.parameters() if p.name != self._matcher]
        fingerprint = tuple(sorted(self._fingerprints(weights).items()))
        seen = self._generated.setdefault(scope, {})
        counts = self.rec.counts
        for inst in batch.instances:
            counts["model.generate.instances"] += 1
            if scope >= 0 and seen.get(inst.uid) == fingerprint:
                counts["model.generate.reused"] += 1
            seen[inst.uid] = fingerprint

    def _read_checkpoint(self, stage, args, kwargs, result):
        if stage == "pre":
            path = args[0] if args else kwargs["path"]
            self.rec.counts["checkpoint.read_bytes"] += Path(path).stat().st_size


# ---------------------------------------------------------------------------
# per-layer metrics

# metric name -> spans whose self times it sums
SELF_TIME_METRICS = {
    "autodiff.backward.self_s": ("autodiff.backward",),
    "autodiff.Adam.step.self_s": ("autodiff.Adam.step",),
    "autodiff.clip_global_norm.self_s": ("autodiff.clip_global_norm",),
    "autodiff.global_grad_norm.self_s": ("autodiff.global_grad_norm",),
    "autodiff.zero_grads.self_s": ("autodiff.zero_grads",),
    "encoders.embed_with_chars.self_s": ("encoders.embed_with_chars",),
    "encoders.char_embed_tokens.self_s": ("encoders.char_embed_tokens",),
    "encoders.embed_ids.self_s": ("encoders.embed_ids",),
    "encoders.bigru_encode.self_s": ("encoders.bigru_encode",),
    "encoders.encode_with_features.self_s": ("encoders.encode_with_features",),
    "attention.additive_attention.self_s": ("attention.additive_attention",),
    "attention.additive_attention_multi.self_s": ("attention.additive_attention_multi",),
    "extractor.pool_question.self_s": ("extractor.pool_question",),
    "extractor.predict_span.self_s": ("extractor.predict_span",),
    "extractor.feasible_span_argmax.self_s": ("extractor.feasible_span_argmax",),
    "extractor.span_loss.self_s": ("extractor.span_loss",),
    "extractor.oracle_span.self_s": ("extractor.oracle_span",),
    "synthesizer.synthesis_loss.self_s": ("synthesizer.synthesis_loss",),
    "synthesizer.generate_answer.self_s": ("synthesizer.generate_answer",),
    "synthesizer.decode_step.self_s": ("synthesizer.decode_step",),
    "synthesizer.initial_state.self_s": ("synthesizer.initial_state",),
    "selector.bilinear_score.self_s": ("selector.bilinear_score",),
    "selector.selection_loss.self_s": ("selector.selection_loss",),
    "model.build_model.self_s": ("model.build_model",),
    "model.encode_for_extraction.self_s": ("model.PipelineModel.encode_for_extraction",),
    "model.encode_for_synthesis.self_s": ("model.PipelineModel.encode_for_synthesis",),
    "model.stage_one_loss.self_s": ("model.PipelineModel.stage_one_loss",),
    "model.generate.self_s": ("model.PipelineModel.generate",),
    "model.score_options.self_s": ("model.PipelineModel.score_options",),
    "model.selection_stage_loss.self_s": ("model.PipelineModel.selection_stage_loss",),
    "model.predict_batch.self_s": ("model.PipelineModel.predict_batch",),
    "training.train_synthesis_stage.self_s": ("training.train_synthesis_stage",),
    "training.train_selection_stage.self_s": ("training.train_selection_stage",),
    "evaluation.evaluate.self_s": ("evaluation.evaluate",),
    "evaluation.predict_records.self_s": ("evaluation.predict_records",),
    "corpus.write_toy_dataset.self_s": ("corpus.write_toy_dataset",
                                        "corpus.generate_toy_corpus"),
    "corpus.load_dataset_dir.self_s": ("corpus.load_dataset_dir", "corpus.load_split_dir"),
    "corpus.parse_race_record.self_s": ("corpus.parse_race_record",),
    "corpus.tokenize.self_s": ("corpus.tokenize",),
    "corpus.make_batches.self_s": ("corpus.make_batches", "corpus.make_batch"),
    "corpus.vocab_build.self_s": ("corpus.Vocabulary.build", "corpus.CharVocabulary.build"),
    "corpus.random_embeddings.self_s": ("corpus.random_embeddings",),
    "model_io.load_model_dir.self_s": ("model_io.load_model_dir",),
    "checkpoint.read_checkpoint.self_s": ("checkpoint.read_checkpoint",),
}

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _hook_time_inside(rec: Recorder, index: int) -> float:
    """Hook span time nested anywhere below span ``index``."""
    total = 0.0
    for i in range(index + 1, len(rec.names)):
        if rec.starts[i] >= rec.ends[index]:
            break
        if rec.names[i] == HOOK_SPAN:
            total += rec.duration(i)
    return total


def layer_metrics(rec: Recorder, counters: LayerCounters) -> dict[str, tuple]:
    """Per-layer metrics of a traced pass (one set-up and one unit) as
    name -> (value, unit)."""
    selfs = self_times(rec.names, rec.starts, rec.ends, rec.parents)
    out = {metric: (sum(selfs.get(s, 0.0) for s in spans), "s")
           for metric, spans in SELF_TIME_METRICS.items()}
    c = rec.counts
    stage_one, selection = LOSS_SPANS
    forward_s = sum(rec.duration(i) - _hook_time_inside(rec, i) for i in counters.forward_spans)
    out.update({
        "autodiff.backward.calls": (c["autodiff.backward.calls"], "count"),
        "autodiff.tape_nodes_per_backward": (
            _ratio(c[f"tape_nodes.{stage_one}"], c[f"backwards.{stage_one}"]), "count"),
        "autodiff.selection_tape_nodes_per_backward": (
            _ratio(c[f"tape_nodes.{selection}"], c[f"backwards.{selection}"]), "count"),
        "autodiff.forward_s": (forward_s, "s"),
        "autodiff.backward_over_forward": (
            _ratio(selfs.get("autodiff.backward", 0.0), forward_s), "ratio"),
        "autodiff.clip_rate": (_ratio(c["autodiff.clip_global_norm.clipped"],
                                      c["autodiff.clip_global_norm.calls"]), "share"),
        "encoders.char_distinct_share": (_ratio(c["encoders.embed.distinct"],
                                                c["encoders.embed.positions"]), "share"),
        "encoders.embed_repeat_share": (_ratio(c["encoders.embed.repeats_in_loss"],
                                               c["encoders.embed.calls_in_loss"]), "share"),
        "encoders.bigru_encode.steps": (c["encoders.bigru_encode.steps"], "count"),
        "synthesizer.decode_steps_per_answer": (_ratio(c["synthesizer.decode_steps"],
                                                       c["synthesizer.answers"]), "count"),
        "model.generate.reuse_share": (_ratio(c["model.generate.reused"],
                                              c["model.generate.instances"]), "share"),
        "checkpoint.read_bytes": (c["checkpoint.read_bytes"], "B"),
    })
    return out
