"""Command-line surface.

Subcommands: gen-toy, train-synthesis, train-selection, eval, baseline,
predict. Training commands read a flat key=value config file; --set
overrides individual keys on top of it. Reports print as a table and can
be written as JSON with --report. Any error exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .baselines import DEFAULT_WINDOW, random_baseline, sliding_window_baseline
from .corpus import (
    OPTION_LETTERS,
    CharVocabulary,
    Vocabulary,
    instance_token_streams,
    load_dataset_dir,
    load_embeddings,
    parse_record_file,
    random_embeddings,
    write_toy_dataset,
)
from .evaluation import EvalReport, evaluate, predict_records
from .model_io import load_model_dir, save_model_dir
from .training import MODEL_KEYS, TrainConfig, train_selection_stage, train_synthesis_stage

log = logging.getLogger("genmatch")


def _config_from_args(args, base: TrainConfig | None = None) -> TrainConfig:
    """Defaults (or the stage-one config) <- config file <- --set overrides.
    A --set item is parsed as one config line, and its errors name it."""
    config = base or TrainConfig()
    if args.config:
        config = TrainConfig.from_file(args.config, base=config)
    return config.with_lines((f"--set {item}", item) for item in args.set or [])


def _require_splits(splits: dict, *names: str):
    for name in names:
        if name not in splits or not splits[name]:
            raise ValueError(f"dataset is missing a non-empty {name!r} split")


def _emit_report(report: EvalReport, report_path: str | None) -> None:
    print(report.table())
    if report_path:
        Path(report_path).write_text(report.to_json())
        log.info("wrote %s", report_path)


def _pick_split(data: str, requested: str):
    """The records of split ``requested`` of the dataset directory ``data``;
    an error names both when the split is missing or holds no records."""
    splits = load_dataset_dir(data)
    if requested in splits:
        instances = splits[requested]
    elif requested == "test" and "all" in splits:
        instances = splits["all"]
    else:
        raise ValueError(f"{data}: split {requested!r} not found (have {sorted(splits)})")
    if not instances:
        raise ValueError(f"{data}: split {requested!r} holds no records")
    return instances


def cmd_gen_toy(args) -> int:
    counts = write_toy_dataset(args.out, args.passages, args.seed,
                               train_frac=args.train_frac, dev_frac=args.dev_frac)
    print(json.dumps({"out": str(args.out), "passages": counts}, sort_keys=True))
    return 0


def cmd_train_synthesis(args) -> int:
    config = _config_from_args(args)
    splits = load_dataset_dir(args.data)
    _require_splits(splits, "train", "dev")
    train, dev = splits["train"], splits["dev"]
    vocab = Vocabulary.build(instance_token_streams(train), cap=config.vocab_cap)
    char_vocab = CharVocabulary.build(instance_token_streams(train, include_options=True))
    if args.embeddings:
        table = load_embeddings(args.embeddings, vocab, dim=config.embed_dim,
                                seed=config.seed, trainable=config.fine_tune_embeddings)
        log.info("pretrained vector coverage: %.1f%%", 100 * table.coverage)
    else:
        table = random_embeddings(vocab, config.embed_dim, seed=config.seed,
                                  trainable=config.fine_tune_embeddings)
    result = train_synthesis_stage(config, train, dev, vocab, char_vocab, table)
    save_model_dir(args.out, result.model, config,
                   history={"synthesis": result.history_payload()})
    print(json.dumps({"out": str(args.out), "epochs": len(result.history),
                      "best_dev_loss": result.best_metric,
                      "wall_time_s": round(result.wall_time, 2)}, sort_keys=True))
    return 0


def cmd_train_selection(args) -> int:
    model, stage1_config = load_model_dir(args.stage1)
    config = _config_from_args(args, base=stage1_config)
    changed = [key for key in MODEL_KEYS
               if getattr(config, key) != getattr(stage1_config, key)]
    if changed:
        raise ValueError("cannot change model keys after stage one: "
                         + ", ".join(repr(name) for name in changed))
    splits = load_dataset_dir(args.data)
    _require_splits(splits, "train", "dev")
    result = train_selection_stage(config, model, splits["train"], splits["dev"])
    save_model_dir(args.out, model, config,
                   history={"selection": result.history_payload()})
    print(json.dumps({"out": str(args.out), "epochs": len(result.history),
                      "best_dev_accuracy": result.best_metric,
                      "wall_time_s": round(result.wall_time, 2)}, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    instances = _pick_split(args.data, args.split)
    model, config = load_model_dir(args.checkpoint)
    report = evaluate(model, instances, config.batch_size,
                      meta={"split": args.split, "data": str(args.data)})
    _emit_report(report, args.report)
    return 0


def cmd_baseline(args) -> int:
    if args.kind == "sliding-window" and args.window < 1:
        raise ValueError(f"--window must be at least 1, got {args.window}")
    instances = _pick_split(args.data, args.split)
    if args.kind == "random":
        report = random_baseline(instances, seed=args.seed)
    else:
        report = sliding_window_baseline(instances, window=args.window)
    _emit_report(report, args.report)
    return 0


def cmd_predict(args) -> int:
    model, config = load_model_dir(args.checkpoint)
    for record in predict_records(model, parse_record_file(args.input), config.batch_size, {}):
        print(f"{record.uid}\t{OPTION_LETTERS[record.predicted_index]}\t{record.answer_text}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genmatch",
        description="Generate-then-match multiple-choice reading comprehension")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-toy", help="write a synthetic color-fact corpus")
    gen.add_argument("--out", required=True)
    gen.add_argument("--passages", type=int, default=200)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--train-frac", type=float, default=0.8)
    gen.add_argument("--dev-frac", type=float, default=0.1)
    gen.set_defaults(func=cmd_gen_toy)

    def training_args(p):
        p.add_argument("--data", required=True, help="dataset dir with train/dev splits")
        p.add_argument("--out", required=True, help="model output directory")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    ts = sub.add_parser("train-synthesis", help="stage one: span + generation")
    training_args(ts)
    ts.add_argument("--embeddings", help="pretrained word vector file")
    ts.set_defaults(func=cmd_train_synthesis)

    sel = sub.add_parser("train-selection", help="stage two: bilinear matcher")
    training_args(sel)
    sel.add_argument("--stage1", required=True, help="stage-one model directory")
    sel.set_defaults(func=cmd_train_selection)

    ev = sub.add_parser("eval", help="full-pipeline accuracy report")
    ev.add_argument("--checkpoint", required=True, help="model directory")
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", default="test")
    ev.add_argument("--report", help="write the JSON report here")
    ev.set_defaults(func=cmd_eval)

    base = sub.add_parser("baseline", help="random / sliding-window reference")
    base.add_argument("--kind", choices=("random", "sliding-window"), required=True)
    base.add_argument("--data", required=True)
    base.add_argument("--split", default="test")
    base.add_argument("--seed", type=int, default=0)
    base.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    base.add_argument("--report", help="write the JSON report here")
    base.set_defaults(func=cmd_baseline)

    pred = sub.add_parser("predict", help="per-question answer + option letter")
    pred.add_argument("--checkpoint", required=True)
    pred.add_argument("--input", required=True, help="one JSON record file")
    pred.set_defaults(func=cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean message, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
