"""Command-line front end.

    emlab stationary [flags]   construct a stationary state
    emlab evolve     [flags]   integrate a perturbation and log series.csv
    emlab lyapunov   [flags]   certify an energy series from a series.csv
    emlab lindecay   [flags]   measure linearized whole-space decay rates

Flags mirror config-file keys one to one (key ``grid_n`` is flag
``--grid-n``); values given on the command line override the file from
``--config``.  Exit status is 0 only when every in-run check passes.
"""
from __future__ import annotations

import argparse
import sys

from .config import KEY_SECTIONS, ExperimentConfig, parse_config
from .pipelines import run_experiment

# subcommand -> (config sections it reads, its own [run] keys)
_SUBCOMMANDS = {
    "stationary": (("model", "background", "grid", "stationary"), ("out", "report")),
    "evolve": (
        ("model", "background", "grid", "stationary", "integrator", "energy"), (),
    ),
    "lyapunov": ((), ("series", "report")),
    "lindecay": (("model", "lindecay", "fit"), ("out", "report")),
}
_GLOBAL_KEYS = ("out_dir", "seed", "threads")


def _add_key_flag(parser: argparse.ArgumentParser, key: str) -> None:
    spec = ExperimentConfig.__dataclass_fields__[key]
    default = f" (default {spec.default!r})" if spec.default != "" else ""
    parser.add_argument(
        f"--{key.replace('_', '-')}",
        dest=key,
        metavar="V",
        help=spec.metadata["help"] + default,
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI config file; flags override it")
    for key in _GLOBAL_KEYS:
        _add_key_flag(common, key)

    parser = argparse.ArgumentParser(
        prog="emlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True, metavar="subcommand")
    for name, (sections, run_keys) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, parents=[common], help=f"run the {name} pipeline")
        for key in (*(k for s in sections for k in KEY_SECTIONS[s]), *run_keys):
            _add_key_flag(sub, key)
    return parser


def _one_line(err: Exception) -> str:
    """The error text on one line (numpy's parse errors span several)."""
    parts = (part.strip() for part in str(err).splitlines())
    return "; ".join(part for part in parts if part)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key != "config" and value is not None
    }
    try:
        cfg = parse_config(args.config, overrides)
    except ValueError as err:
        print(f"emlab: {_one_line(err)}", file=sys.stderr)
        return 2

    try:
        manifest = run_experiment(cfg)
    except (ValueError, RuntimeError, OSError, MemoryError) as err:
        print(f"emlab: {cfg.command} run failed: {_one_line(err)}", file=sys.stderr)
        return 1

    for check, ok in manifest.checks.items():
        print(f"{check}: {'pass' if ok else 'FAIL'}")
    print(f"manifest: {cfg.out_dir}/manifest.json")
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    sys.exit(main())
