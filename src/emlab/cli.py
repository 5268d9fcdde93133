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
from dataclasses import fields

from .config import KEY_SECTIONS, ExperimentConfig, parse_config
from .pipelines import run_experiment

_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

# the help text of every flag, one per config key except command
_HELP = {
    "out_dir": "directory for outputs and the manifest",
    "seed": "RNG seed for initial perturbation noise",
    "threads": "FFT worker threads (1 = bit-reproducible serial)",
    "series": "series.csv produced by evolve",
    "out": "output path (stationary: <out-dir>/stationary.emxf; lindecay: <out-dir>/norms.csv)",
    "report": "JSON report path (default <out-dir>/<subcommand>.json; "
    "lindecay: <out-dir>/decay_fits.json)",
    "gamma": "adiabatic exponent, > 1",
    "profile": "background bump shape: gaussian or double-bump",
    "eps": "background bump amplitude, >= 0",
    "width": "background bump width",
    "grid_n": "grid points per axis, even and >= 8",
    "box_l": "periodic box side length",
    "tol": "fixed-point convergence tolerance",
    "init": "stationary+noise, stationary-exact, or custom",
    "init_snapshot": "snapshot path when init = custom",
    "amp": "perturbation amplitude for noise runs",
    "t_end": "final physical time",
    "cfl": "CFL number in (0, 1)",
    "cadence": "sampling interval; must divide t_end",
    "kappa1": "sigma-gradient coupling weight",
    "kappa2": "velocity-electric coupling weight",
    "kappa3": "curl coupling weight",
    "order": "derivative order of the energy functionals, >= 3",
    "fit_window": "'lo:hi' window for the field-norm power fits",
    "rho_fit_window": "'lo:hi' window for the density exponential fit",
    "t_grid": "'lo:hi:count' log-spaced times, or an explicit list",
    "family_width": "Gaussian width of the initial-data family",
    "radial_nodes": "quadrature nodes per radial panel",
    "theta_nodes": "polar quadrature nodes",
    "phi_nodes": "azimuthal quadrature nodes",
}

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
    default = f" (default {_DEFAULTS[key]!r})" if _DEFAULTS[key] != "" else ""
    parser.add_argument(
        f"--{key.replace('_', '-')}",
        dest=key,
        metavar="V",
        help=_HELP[key] + default,
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
    except (ValueError, RuntimeError, OSError) as err:
        print(f"emlab: {cfg.command} run failed: {_one_line(err)}", file=sys.stderr)
        return 1

    for check, ok in manifest.checks.items():
        print(f"{check}: {'pass' if ok else 'FAIL'}")
    print(f"manifest: {cfg.out_dir}/manifest.json")
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    sys.exit(main())
