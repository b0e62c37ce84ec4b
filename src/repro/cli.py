"""Command-line interface: train, evaluate, and recommend on CSV data.

Lets a user run the full pipeline on their own interaction logs without
writing Python::

    python -m repro generate-data --config beauty --out log.csv
    python -m repro train --data log.csv --model VSAN --out vsan.npz
    python -m repro evaluate --data log.csv --checkpoint vsan.npz
    python -m repro recommend --data log.csv --checkpoint vsan.npz --user 17

The CSV format is ``user,item,rating,timestamp`` (header optional);
preprocessing (ratings >= 4, 5-core) and the strong-generalization split
match the paper.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core import VSAN
from .data import (
    BEAUTY_LIKE,
    ML1M_LIKE,
    generate,
    prepare_corpus,
    read_interactions_csv,
    split_strong_generalization,
    split_weak_generalization,
    tiny_config,
    write_interactions_csv,
)
from .eval import evaluate_recommender, rank_items
from .models import SASRec, SVAE, Caser, GRU4Rec
from .nn import load_checkpoint, save_checkpoint
from .tensor.compile import programs_for
from .tensor.random import make_rng
from .train import Trainer, TrainerConfig

_MODEL_REGISTRY: dict[str, type] = {
    "VSAN": VSAN,
    "SASRec": SASRec,
    "GRU4Rec": GRU4Rec,
    "Caser": Caser,
    "SVAE": SVAE,
}

_DATA_CONFIGS = {
    "beauty": BEAUTY_LIKE,
    "ml1m": ML1M_LIKE,
    "tiny": tiny_config(),
}


def _load_split(args):
    log = read_interactions_csv(args.data)
    corpus = prepare_corpus(log, min_rating=args.min_rating,
                            core=args.core)
    if getattr(args, "protocol", "strong") == "weak":
        split = split_weak_generalization(corpus)
    else:
        split = split_strong_generalization(
            corpus, num_heldout=args.heldout, rng=make_rng(args.split_seed)
        )
    return corpus, split


def _build_model(name: str, num_items: int, args) -> object:
    cls = _MODEL_REGISTRY[name]
    kwargs = dict(
        num_items=num_items,
        max_length=args.max_length,
        dim=args.dim,
        dropout_rate=args.dropout,
        seed=args.seed,
    )
    if name == "VSAN":
        kwargs.update(h1=args.h1, h2=args.h2, k=args.k)
    if name == "SVAE":
        kwargs.update(k=args.k)
    return cls(**kwargs), kwargs


def cmd_generate_data(args) -> int:
    config = _DATA_CONFIGS[args.config]
    log = generate(config, seed=args.seed)
    write_interactions_csv(log, args.out)
    stats = log.statistics()
    print(f"wrote {args.out}: {stats.num_users} users, "
          f"{stats.num_items} items, {stats.num_interactions} interactions")
    return 0


def cmd_train(args) -> int:
    corpus, split = _load_split(args)
    model, config = _build_model(args.model, corpus.num_items, args)
    trainer_config = TrainerConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        patience=args.patience,
        eval_every=2,
        seed=args.seed,
        verbose=not args.quiet,
        trim_batches=not args.no_trim,
        bucket_by_length=args.bucket_by_length,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        keep_last=args.keep_last,
    )
    history = Trainer(trainer_config).fit(
        model, split.train, validation=split.validation,
        resume_from=args.resume,
    )
    if not args.quiet:
        programs = programs_for(model)
        lookups = programs.hits + programs.misses
        print(
            f"compiled: {len(programs)} programs, {programs.misses} traces, "
            f"hit ratio {programs.hits / lookups if lookups else 0.0:.3f}, "
            f"slab {programs.slab_bytes / 2**20:.1f} MB"
        )
    save_checkpoint(model, args.out, config=config)
    result = evaluate_recommender(model, split.test)
    print(f"saved {args.out} (best epoch {history.best_epoch})")
    print("test:", result)
    return 0


def cmd_evaluate(args) -> int:
    _, split = _load_split(args)
    model = load_checkpoint(args.checkpoint, registry=_MODEL_REGISTRY)
    result = evaluate_recommender(
        model, split.test, cutoffs=tuple(args.cutoffs)
    )
    print(json.dumps(result.as_percentages(), indent=2, sort_keys=True))
    return 0


def cmd_recommend(args) -> int:
    corpus, _ = _load_split(args)
    model = load_checkpoint(args.checkpoint, registry=_MODEL_REGISTRY)
    try:
        row = corpus.user_ids.index(args.user)
    except ValueError:
        print(f"error: user {args.user} not in the corpus", file=sys.stderr)
        return 1
    history = corpus.sequences[row]
    scores = model.score(history)
    ranked = rank_items(scores, args.top, exclude=history)
    inverse = corpus.index_to_item
    originals = [inverse[int(item)] for item in ranked]
    print(f"user {args.user}: history of {len(history)} items")
    print(f"top-{args.top} recommendations (original item ids): {originals}")
    return 0


def _add_data_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="interactions CSV")
    parser.add_argument("--min-rating", type=float, default=4.0)
    parser.add_argument("--core", type=int, default=5)
    parser.add_argument("--heldout", type=int, default=50,
                        help="held-out users per evaluation set")
    parser.add_argument("--split-seed", type=int, default=7)
    parser.add_argument(
        "--protocol", choices=("strong", "weak"), default="strong",
        help="strong = held-out users (the paper); weak = leave-one-out",
    )


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=sorted(_MODEL_REGISTRY),
                        default="VSAN")
    parser.add_argument("--max-length", type=int, default=50)
    parser.add_argument("--dim", type=int, default=48)
    parser.add_argument("--dropout", type=float, default=0.2)
    parser.add_argument("--h1", type=int, default=1)
    parser.add_argument("--h2", type=int, default=1)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate-data",
                              help="write a synthetic CSV log")
    gen.add_argument("--config", choices=sorted(_DATA_CONFIGS),
                     default="tiny")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate_data)

    train = commands.add_parser("train", help="train a model on a CSV log")
    _add_data_arguments(train)
    _add_model_arguments(train)
    train.add_argument("--epochs", type=int, default=40)
    train.add_argument("--batch-size", type=int, default=128)
    train.add_argument("--lr", type=float, default=0.001)
    train.add_argument("--patience", type=int, default=5)
    train.add_argument("--quiet", action="store_true")
    train.add_argument(
        "--no-trim", action="store_true",
        help="disable per-batch column trimming (on by default for the "
             "attention models; trimming is loss-exact)")
    train.add_argument(
        "--bucket-by-length", action=argparse.BooleanOptionalAction,
        default=True,
        help="build minibatches from power-of-two length buckets so "
             "trimming pays on long-tail corpora (on by default; "
             "--no-bucket-by-length restores the uniform shuffle for "
             "step-for-step comparable runs)")
    train.add_argument("--out", required=True, help="checkpoint path (.npz)")
    train.add_argument(
        "--checkpoint-dir", default=None,
        help="write full-state training checkpoints here (enables "
             "crash-safe resume via --resume)",
    )
    train.add_argument("--checkpoint-every", type=int, default=1,
                       help="checkpoint cadence in epochs")
    train.add_argument(
        "--keep-last", type=int, default=None,
        help="retain only the newest N checkpoints (default: keep all)",
    )
    train.add_argument(
        "--resume", default=None, metavar="CHECKPOINT",
        help="resume from a training checkpoint file, or from the newest "
             "checkpoint in a directory; restores weights, Adam moments, "
             "RNG streams, and the KL-annealing position",
    )
    train.set_defaults(func=cmd_train)

    evaluate = commands.add_parser("evaluate",
                                   help="evaluate a checkpoint")
    _add_data_arguments(evaluate)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--cutoffs", type=int, nargs="+",
                          default=[10, 20])
    evaluate.set_defaults(func=cmd_evaluate)

    recommend = commands.add_parser(
        "recommend", help="top-N recommendations for one user"
    )
    _add_data_arguments(recommend)
    recommend.add_argument("--checkpoint", required=True)
    recommend.add_argument("--user", type=int, required=True,
                           help="original user id from the CSV")
    recommend.add_argument("--top", type=int, default=10)
    recommend.set_defaults(func=cmd_recommend)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
