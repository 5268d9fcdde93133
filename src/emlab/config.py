"""Typed experiment configuration with file and flag parsing.

A configuration is a flat set of uniquely named keys grouped into INI
sections.  Files use ``key = value`` syntax; command-line flags mirror the
keys one to one (``grid_n`` becomes ``--grid-n``) and override file values.
Every invariant is checked at parse time so a bad experiment fails before
any work starts, with the offending key named in the message.
"""
from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Mapping

import numpy as np

from .dynamics import MAX_CHUNK_STEPS, flat_wave_period
from .energy import EnergyWeights
from .grid import GridSpec
from .lindecay import QuadratureScheme, quadrature_tail_bound

__all__ = ["ExperimentConfig", "parse_config", "canonical_text", "config_hash", "KEY_SECTIONS"]

COMMANDS = ("stationary", "evolve", "lyapunov", "lindecay")
PROFILES = ("gaussian", "double-bump")
INIT_MODES = ("stationary+noise", "stationary-exact", "custom")


def _key(section: str, default: Any, help: str = "") -> Any:
    """A config key: its INI section and flag help ride on the field."""
    return field(default=default, metadata={"section": section, "help": help})


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated description of one experiment run; each field is a key."""

    command: str = _key("run", "stationary")
    out_dir: str = _key("run", "runs", "directory for outputs and the manifest")
    seed: int = _key("run", 0, "RNG seed for initial perturbation noise")
    threads: int = _key("run", 1, "FFT worker threads (1 = bit-reproducible serial)")
    series: str = _key("run", "", "series.csv produced by evolve")
    out: str = _key("run", "", "output path (stationary: <out-dir>/stationary.emxf; "
                    "lindecay: <out-dir>/norms.csv)")
    report: str = _key("run", "", "JSON report path (default <out-dir>/<subcommand>.json; "
                       "lindecay: <out-dir>/decay_fits.json)")

    gamma: float = _key("model", 5.0 / 3.0, "adiabatic exponent, > 1")

    profile: str = _key("background", "gaussian", "background bump shape: gaussian or double-bump")
    eps: float = _key("background", 0.05, "background bump amplitude, >= 0")
    width: float = _key("background", 1.0, "background bump width")

    grid_n: int = _key("grid", 48, "grid points per axis, even and >= 8")
    box_l: float = _key("grid", 40.0, "periodic box side length")

    tol: float = _key("stationary", 1e-10, "fixed-point convergence tolerance")

    init: str = _key("integrator", "stationary+noise",
                     "stationary+noise, stationary-exact, or custom")
    init_snapshot: str = _key("integrator", "", "snapshot path when init = custom")
    amp: float = _key("integrator", 1e-3, "perturbation amplitude for noise runs")
    t_end: float = _key("integrator", 40.0, "final physical time")
    cfl: float = _key(
        "integrator", 0.4,
        "CFL number in (0, 1); a step is at most cfl * dx / (max|v| + max|w(sigma) - 1|) "
        "and one period of the fastest flat wave",
    )
    cadence: float = _key("integrator", 0.5, "sampling interval; must divide t_end")

    kappa1: float = _key("energy", 0.1, "sigma-gradient coupling weight")
    kappa2: float = _key("energy", 0.005, "velocity-electric coupling weight")
    kappa3: float = _key("energy", 0.002, "curl coupling weight")
    order: int = _key("energy", 3, "derivative order of the energy functionals, >= 3")

    fit_window: str = _key("fit", "50:500", "'lo:hi' window for the field-norm power fits")
    rho_fit_window: str = _key("fit", "5:45", "'lo:hi' window for the density exponential fit")

    t_grid: str = _key("lindecay", "5:500:40",
                       "'lo:hi:count' log-spaced times, or an explicit list")
    family_width: float = _key("lindecay", 2.0, "Gaussian width of the initial-data family")
    # finer than QuadratureScheme's 16, which the module tests run at
    radial_nodes: int = _key("lindecay", 32, "quadrature nodes per radial panel")
    theta_nodes: int = _key("lindecay", QuadratureScheme.theta_nodes, "polar quadrature nodes")
    phi_nodes: int = _key("lindecay", QuadratureScheme.phi_nodes, "azimuthal quadrature nodes, >= 3")

    def __post_init__(self) -> None:
        req = _require
        req(self.command in COMMANDS, "command", f"must be one of {COMMANDS}", self.command)
        req(bool(self.out_dir), "out_dir", "must be a non-empty path", self.out_dir)
        for key in (f.name for f in fields(self) if f.type == "str"):
            text = getattr(self, key)  # refused where config.resolved.ini's reader would cut it
            req(text == text.strip() and "\n" not in text and "\r" not in text and not any(
                word[0] in "#;" for word in text.split()), key, "must not start or end with "
                "whitespace, hold a line break or a word that begins with # or ;", text)
        req(self.seed >= 0, "seed", "must be >= 0", self.seed)
        req(self.threads >= 1, "threads", "must be >= 1", self.threads)
        req(self.gamma > 1.0, "gamma", "must satisfy gamma > 1 (pressure law)", self.gamma)
        req(self.profile in PROFILES, "profile", f"must be one of {PROFILES}", self.profile)
        req(self.eps >= 0.0, "eps", "must be >= 0", self.eps)
        req(self.width > 0.0, "width", "must be positive", self.width)
        req(0.0 < _value(lambda: self.width**2) < math.inf, "width",
            "must have a finite nonzero width**2", self.width)
        req(self.family_width > 0.0, "family_width", "must be positive", self.family_width)
        req(
            self.grid_n >= 8 and self.grid_n % 2 == 0,
            "grid_n", "must be even and >= 8", self.grid_n,
        )
        req(self.box_l > 0.0, "box_l", "must be positive", self.box_l)
        req(self.tol > 0.0, "tol", "must be positive", self.tol)
        if self.command == "lyapunov":
            req(bool(self.series), "series", "is required by lyapunov: a series.csv path", "")
        req(self.init in INIT_MODES, "init", f"must be one of {INIT_MODES}", self.init)
        if self.init == "custom":
            req(bool(self.init_snapshot), "init_snapshot", "is required when init = custom", "")
        if self.init == "stationary+noise":
            req(self.amp > 0.0, "amp", "must be positive for a noise run", self.amp)
        req(self.t_end > 0.0, "t_end", "must be positive", self.t_end)
        req(0.0 < self.cfl < 1.0, "cfl", "must lie in (0, 1)", self.cfl)
        req(self.cadence > 0.0, "cadence", "must be positive", self.cadence)
        chunks = self.t_end / self.cadence
        req(
            math.isfinite(chunks),
            "cadence", f"must divide t_end = {self.t_end} into finitely many chunks", self.cadence,
        )
        req(
            abs(chunks - round(chunks)) < 1e-9 and round(chunks) >= 1,
            "cadence", f"must divide t_end = {self.t_end}", self.cadence,
        )
        # On the clock tau = sqrt(gamma) t a step is at most cfl * dx over the
        # remainder's speed max|v| + max|w - 1|, and at most one period of the
        # fastest flat wave.  A chunk is refused if more than MAX_CHUNK_STEPS
        # steps of the smaller of cfl * dx and that period would not fill it:
        # exact for the period, which no state lengthens, and conservative
        # for the CFL part, which takes the remainder's speed to be 1
        step = min(
            self.cfl * self.box_l / self.grid_n,
            flat_wave_period(GridSpec(self.grid_n, self.box_l), self.gamma),
        )
        req(
            self.cadence * math.sqrt(self.gamma) <= MAX_CHUNK_STEPS * step, "cadence",
            f"* sqrt(gamma) must not exceed {MAX_CHUNK_STEPS} * min(cfl * box_l / grid_n, "
            f"flat-wave period) = {MAX_CHUNK_STEPS * step:.6g}",
            self.cadence,
        )
        # constructing the dependent objects runs their own named checks
        try:
            self.energy_weights()
            r0 = self.quadrature().smallest_radius()
        except ValueError as err:
            raise ValueError(f"invalid config: {err}") from None
        # The family's squared envelope exp(-(w r)^2) is largest at the smallest
        # radial node; where it underflows there, every norm is 0 and no fit can be
        # made.  The report's tail bound must be finite.  (Float products give inf
        # or 0 quietly; float powers raise.)
        w = self.family_width
        req(math.exp(-(w * r0) * (w * r0)) > 0.0, "family_width", "must leave the envelope "
            f"exp(-(family_width * r)**2) nonzero at the smallest radial node r = {r0:.6g}", w)
        req(math.isfinite(_value(lambda: quadrature_tail_bound(w))), "family_width",
            "must keep quadrature_tail_bound(family_width) finite", w)
        self.fit_window_values()
        self.rho_fit_window_values()
        grid_t = self.time_grid()
        if self.command == "lindecay":
            for key, (lo, hi) in (
                ("fit_window", self.fit_window_values()),
                ("rho_fit_window", self.rho_fit_window_values()),
            ):
                inside = int(((grid_t >= lo) & (grid_t <= hi)).sum())
                req(
                    inside >= 10,
                    key, f"covers only {inside} t_grid samples; fits need >= 10",
                    getattr(self, key),
                )

    # ---- derived views -----------------------------------------------

    def energy_weights(self) -> EnergyWeights:
        return EnergyWeights(self.kappa1, self.kappa2, self.kappa3, self.order)

    def quadrature(self) -> QuadratureScheme:
        return QuadratureScheme(
            radial_nodes=self.radial_nodes,
            theta_nodes=self.theta_nodes,
            phi_nodes=self.phi_nodes,
        )

    def fit_window_values(self) -> tuple[float, float]:
        return _parse_window("fit_window", self.fit_window)

    def rho_fit_window_values(self) -> tuple[float, float]:
        return _parse_window("rho_fit_window", self.rho_fit_window)

    def time_grid(self) -> np.ndarray:
        """Expand t_grid: 'lo:hi:count' (log-spaced) or an explicit list."""
        text = self.t_grid
        parts = text.split(":")
        if len(parts) == 3:
            lo, hi = _as_float("t_grid", parts[0]), _as_float("t_grid", parts[1])
            count = _as_int("t_grid", parts[2])
            _require(0.0 < lo < hi, "t_grid", "needs 0 < lo < hi", text)
            _require(count >= 10, "t_grid", "needs count >= 10", text)
            return np.geomspace(lo, hi, count)
        values = np.array([_as_float("t_grid", p) for p in text.split(",")])
        _require(
            values.size >= 10 and (values > 0.0).all() and (np.diff(values) > 0.0).all(),
            "t_grid", "an explicit list needs >= 10 increasing positive times", text,
        )
        return values


_KEY_TO_SECTION = {f.name: f.metadata["section"] for f in fields(ExperimentConfig)}
# section -> keys, in field order, which is the canonical serialization order
KEY_SECTIONS: dict[str, tuple[str, ...]] = {
    section: tuple(k for k, home in _KEY_TO_SECTION.items() if home == section)
    for section in dict.fromkeys(_KEY_TO_SECTION.values())
}


def _require(ok: bool, key: str, constraint: str, value: object) -> None:
    if not ok:
        raise ValueError(f"invalid config: key {key} {constraint} (got {value!r})")


def _value(expr: Callable[[], float]) -> float:
    """expr(), or NaN, which every bound refuses, where Python's float arithmetic
    raises: a power out of range, or a division by a power that underflowed."""
    try:
        return expr()
    except (OverflowError, ZeroDivisionError):
        return math.nan


def _parse_window(key: str, text: str) -> tuple[float, float]:
    parts = text.split(":")
    _require(len(parts) == 2, key, "must look like 'lo:hi'", text)
    lo, hi = _as_float(key, parts[0]), _as_float(key, parts[1])
    _require(0.0 <= lo < hi, key, "needs 0 <= lo < hi", text)
    return lo, hi


def _as_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid config: key {key} expects a number, got {text!r}") from None
    _require(math.isfinite(value), key, "expects a finite number", text)
    return value


def _as_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid config: key {key} expects an integer, got {text!r}") from None


def _cast(key: str, text: str) -> object:
    kind = ExperimentConfig.__dataclass_fields__[key].type
    text = text.strip()
    if kind == "int":
        return _as_int(key, text)
    if kind == "float":
        return _as_float(key, text)
    return text


def parse_config(
    path: str | os.PathLike | None = None,
    overrides: Mapping[str, str] | None = None,
) -> ExperimentConfig:
    """Build a validated config from an optional file plus flag overrides.

    Unknown keys, keys in the wrong section, unparseable values, and
    invariant violations all raise ValueError naming the offender.
    """
    values: dict[str, object] = {}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as err:
            raise ValueError(f"cannot read config file {path}: {err}") from None
        except configparser.Error as err:
            raise ValueError(f"malformed config file {path}: {err}") from None
        for section in parser.sections():
            if section not in KEY_SECTIONS:
                raise ValueError(f"unknown config section [{section}] in {path}")
            for key, raw in parser.items(section):
                home = _KEY_TO_SECTION.get(key)
                if home is None:
                    raise ValueError(f"unknown config key {key!r} in section [{section}]")
                if home != section:
                    raise ValueError(f"config key {key!r} belongs in section [{home}]")
                values[key] = _cast(key, raw)
    for key, raw in (overrides or {}).items():
        if key not in _KEY_TO_SECTION:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _cast(key, str(raw))
    return ExperimentConfig(**values)


def canonical_text(cfg: ExperimentConfig) -> str:
    """Deterministic full serialization, which parse_config reads back to an
    equal config (numbers by repr, strings bare); hashing it identifies the run."""
    lines = []
    for section, keys in KEY_SECTIONS.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = getattr(cfg, key)
            lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}".rstrip())
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()

