"""Command line front end.

Commands: synth, train, evaluate, sweep and ablate take a config file, an
output directory and an optional seed override; gradcheck takes an output
directory and a seed count. Artifacts land in the output directory, and those
of the config-driven commands embed the resolved config and seed. Exit codes:
0 success, 2 config error, 3 runtime error, any OSError included (with a JSON
error record on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import ConfigError, load_config, set_seed
from .data import DataError
from .gradcheck import DEFAULT_TOLERANCE
from . import workflows

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file (YAML or JSON)")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvfuse",
        description="Multi-view learning with missing-view robustness")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("synth", "generate a synthetic dataset (CSV files plus manifest)"),
        ("train", "train a model and write its snapshot and log"),
        ("evaluate", "evaluate missing-view scenarios on the validation data"),
        ("sweep", "sweep the fraction of samples missing the focus view"),
        ("ablate", "run the augmentation-by-level comparison grid"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name in ("evaluate", "sweep"):
            p.add_argument("--model", default=None,
                           help="directory holding a saved model.json/model.npz, "
                                "which must exist; not with eval.folds > 1 (default: "
                                "--out, which this config must have trained, or "
                                "trains there if absent)")

    p = sub.add_parser("gradcheck",
                       help="run the finite-difference gradient battery")
    p.add_argument("--out", required=True, help="output directory for gradcheck.json")
    p.add_argument("--gradcheck-seeds", type=int, default=20,
                   help="number of random seeds per case")
    return parser


def _load(args) -> "workflows.ExperimentConfig":
    cfg = load_config(args.config)
    if args.seed is not None:
        set_seed(cfg, args.seed)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gradcheck":
            results = workflows.run_gradcheck(args.out, seeds=args.gradcheck_seeds)
            worst = max(results.values())
            for name, err in sorted(results.items()):
                print(f"{name:20s} max relative error {err:.3e}")
            print(f"overall max {worst:.3e} (tolerance {DEFAULT_TOLERANCE:g})")
            return EXIT_OK if worst < DEFAULT_TOLERANCE else EXIT_RUNTIME

        cfg = _load(args)
        if args.command == "synth":
            manifest = workflows.run_synth(cfg, args.out)
            print(f"wrote {manifest}")
        elif args.command == "train":
            _, result = workflows.run_train(cfg, args.out)
            print(f"best epoch {result.best_epoch}, "
                  f"validation loss {result.best_val_loss:.6f}")
        elif args.command in ("evaluate", "sweep"):
            run = workflows.run_evaluate if args.command == "evaluate" else workflows.run_sweep
            for entry in run(cfg, args.out, model_dir=args.model).summary():
                print(f"{entry['scenario']:28s} {entry['metric']:14s} "
                      f"{entry['mean']:.4f} +/- {entry['std']:.4f}")
        elif args.command == "ablate":
            rows = workflows.run_ablate(cfg, args.out)
            keys = [k for k in rows[0] if k not in ("aug", "level")]
            print("aug,level," + ",".join(keys))
            for row in rows:
                print(f"{row['aug']},{row['level']}," +
                      ",".join(f"{row[k]:.4f}" for k in keys))
        return EXIT_OK
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
