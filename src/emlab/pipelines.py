"""Experiment pipelines: the work behind each CLI subcommand.

run_experiment prepares cfg.out_dir, runs the pipeline of cfg.command and
writes the one RunManifest of the run, whose checks, outputs and notes the
pipeline fills in; a run that raises leaves it with status "failed".
evolve_band is the loop that integrates evolve's state over its cadence
chunks.  All physics is deterministic; the seed only shapes initial
perturbation noise, so rerunning a config reproduces every CSV byte for
byte in serial mode.
"""
from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import __version__, dynamics
from .config import ExperimentConfig, canonical_text, config_hash
from .dynamics import (
    ELEC,
    MAG,
    MAX_CHUNK_STEPS,
    SCALAR,
    VEL,
    BandTail,
    FlatFlows,
    InadmissibleStateError,
    NonFiniteStateError,
    StepCollapseError,
    cfl_dt,
    compatible_perturbation,
    constraint_residuals,
    require_admissible,
    rhs_symmetric,
    w_of_sigma,
)
from .energy import energy_report, lyapunov_certify
from .grid import GridSpec, fft_workers
from .lindecay import decay_trajectory, fit_decay
from .snapshot import atomic_write, read_snapshot, write_snapshot
from .stationary import StationaryState, background_profile, picard_iterate, verify_smallness_bounds

__all__ = ["RunManifest", "emit_series", "emit_report", "evolve_band", "run_experiment"]

SERIES_COLUMNS = (
    "t",
    "energy_full",
    "dissipation_full",
    "energy_high",
    "dissipation_high",
    "int1",
    "int2",
    "int3",
    "gauss_e",
    "gauss_b",
    "norm_sigma",
    "norm_v",
    "norm_e",
    "norm_b",
)

# channel -> (fit kind, window key, target exponent, tolerance)
DECAY_TARGETS = {
    "rho": ("exponential", "rho", -0.5, 0.05),
    "u": ("power", "main", -1.25, 0.10),
    "e": ("power", "main", -1.25, 0.10),
    "b": ("power", "main", -0.75, 0.08),
    "grad_b": ("power", "main", -1.25, 0.10),
}


@dataclass
class RunManifest:
    """Reproducibility record written at the end of every run.

    status is "ok" for a run that finished (its checks may still fail) and
    "failed" for one that raised; error then holds the exception text.
    """

    command: str
    config_hash: str
    code_version: str
    wall_clock_s: float = 0.0
    checks: dict[str, bool] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "ok" and all(self.checks.values())

    def write(self, path: str | os.PathLike) -> None:
        payload = asdict(self)
        payload["passed"] = self.passed
        emit_report(path, payload)


def emit_series(path: str | os.PathLike, columns: tuple[str, ...], rows: list) -> None:
    """CSV with a fixed column order and 17-significant-digit floats."""
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row of width {len(row)} against {len(columns)} columns")
        lines.append(",".join("%.17g" % float(v) for v in row))
    try:
        atomic_write(path, [("\n".join(lines) + "\n").encode("utf-8")])
    except OSError as err:
        raise OSError(f"cannot write series {path}: {err}") from err


def _json_default(value):
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def _finite_or_none(value: float) -> float | None:
    """A float for a report, or None (JSON null) where it is not finite."""
    return float(value) if np.isfinite(value) else None


def emit_report(path: str | os.PathLike, payload: dict) -> None:
    """Strict JSON report with stable key order.

    NaN and infinities have no JSON spelling and raise ValueError; values
    that are legitimately not finite go in as None (null).
    """
    try:
        text = json.dumps(
            payload, indent=2, sort_keys=True, default=_json_default, allow_nan=False
        )
    except ValueError as err:
        raise ValueError(f"cannot write report {path}: {err}") from None
    try:
        atomic_write(path, [(text + "\n").encode("utf-8")])
    except OSError as err:
        raise OSError(f"cannot write report {path}: {err}") from err


def _solve_background(cfg: ExperimentConfig) -> tuple[GridSpec, np.ndarray, StationaryState]:
    grid = GridSpec(cfg.grid_n, cfg.box_l)
    n_b = background_profile(grid, cfg.profile, cfg.eps, cfg.width)
    state = picard_iterate(grid, n_b, cfg.gamma, tol=cfg.tol)
    return grid, n_b, state


SYMMETRIC_FIELDS = (
    "sigma", "v_x", "v_y", "v_z", "e_x", "e_y", "e_z", "b_x", "b_y", "b_z",
)


def _state_fields(state: np.ndarray) -> dict[str, np.ndarray]:
    return {name: state[i] for i, name in enumerate(SYMMETRIC_FIELDS)}


# ---- subcommand pipelines ---------------------------------------------


def _run_stationary(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    grid, n_b, state = _solve_background(cfg)

    # sweeps that moved nothing mean the trivial solution was already exact
    corrective = sum(1 for r in state.residual_history if r > 0.0)
    trivial = corrective == 0
    worst_factor = max(state.contraction_factors, default=0.0)
    report: dict[str, object] = {
        "iterations": corrective,
        "trivial_solution": trivial,
        "converged": state.converged,
        "contraction_factor": worst_factor,
        "elliptic_residual_l2": state.elliptic_residual_l2,
        "elliptic_residual_max": state.elliptic_residual_max,
        "curl_e_max": state.curl_e_max,
        "residual_history": state.residual_history,
    }
    if trivial:
        report["ratios"] = None
    else:
        report["ratios"] = verify_smallness_bounds(grid, n_b, state)

    snap_path = cfg.out or os.path.join(cfg.out_dir, "stationary.emxf")
    report_path = cfg.report or os.path.join(cfg.out_dir, "stationary.json")
    write_snapshot(snap_path, grid, state.fields())
    emit_report(report_path, report)

    manifest.checks = {
        "picard_converged": state.converged,
        "contracting": trivial or worst_factor < 1.0,
        "elliptic_residual_small": state.elliptic_residual_l2 <= 1e-6,
        "electric_field_curl_free": state.curl_e_max <= 1e-8,
    }
    manifest.outputs = [snap_path, report_path]
    manifest.notes = {"iterations": corrective, "trivial_solution": trivial}


# Bound on the band-limited Gauss defects.  The flow conserves them, so a
# custom init above it could only end with gauss_laws_transported failing.
GAUSS_TOL = 1e-6


def _custom_init(cfg: ExperimentConfig, grid: GridSpec, n_b: np.ndarray) -> np.ndarray:
    """The rfft stack of the symmetrized state a custom init snapshot holds,
    checked at load: finite, admissible and Gauss-compatible with n_b."""
    snap_grid, fields = read_snapshot(cfg.init_snapshot)
    if (snap_grid.n, snap_grid.box) != (grid.n, grid.box):
        raise ValueError(
            f"snapshot grid {snap_grid.n}/{snap_grid.box} does not match "
            f"configured grid {grid.n}/{grid.box}"
        )
    missing = [f for f in SYMMETRIC_FIELDS if f not in fields]
    if missing:
        raise ValueError(f"snapshot {cfg.init_snapshot} lacks fields {missing}")
    bad = [f for f in SYMMETRIC_FIELDS if not np.isfinite(fields[f]).all()]
    if bad:
        raise ValueError(f"snapshot {cfg.init_snapshot} holds non-finite values in {bad}")
    what = f"snapshot {cfg.init_snapshot} puts w(sigma)"
    require_admissible(w_of_sigma(fields["sigma"], cfg.gamma), what)
    state_hat = grid.transform(np.stack([fields[f] for f in SYMMETRIC_FIELDS]))
    res = constraint_residuals(grid, cfg.gamma, state_hat, n_b=n_b)
    for key in ("gauss_e_l2_band", "gauss_b_l2_band"):
        if res[key] > GAUSS_TOL:
            raise ValueError(
                f"snapshot {cfg.init_snapshot} breaks the Gauss laws against the "
                f"configured background: {key} = {res[key]:.6g} exceeds {GAUSS_TOL:g}"
            )
    return state_hat


def _chunk_count(t_end: float, cadence: float) -> int:
    """The number of cadence chunks that fill t_end, or ValueError."""
    for name, value in (("t_end", t_end), ("cadence", cadence)):
        if not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    n_chunks = int(round(t_end / cadence))
    if abs(n_chunks * cadence - t_end) > 1e-9 * t_end or n_chunks < 1:
        raise ValueError(f"cadence {cadence} does not divide t_end {t_end}")
    return n_chunks


def evolve_band(
    grid: GridSpec,
    gamma: float,
    y0_hat: np.ndarray,
    t_end: float,
    cadence: float,
    dt_cap: Callable[[np.ndarray], float],
    counters: dict,
) -> Iterator[tuple[float, np.ndarray]]:
    """The symmetrized flow from the rfft stack y0_hat, as emlab evolve runs it.

    Yields (tau, rfft stack) at tau = 0 and at each multiple of cadence up
    to t_end, all on the tau clock; dt_cap reads a stack before it is
    yielded, so the caller may write into it, and the flow drops it when
    resumed.  The flow carries the two-thirds band over what a BandTail of
    y0_hat fixes, lets the tail go before the last stack, and rebuilds the
    full stack once per cadence boundary.  Each chunk takes equal step_rk4
    steps over FlatFlows, landing on its end, no longer than dt_cap of the
    stack at its start nor than one flat-wave period; the tail's settle
    follows each step.  counters holds "steps", "rhs_calls" and "max_gauss_reset" (the
    largest in-band Gauss drift the reset removed) as the run goes.  On
    resuming after a stack whose step cap is NaN or not positive the flow
    raises NonFiniteStateError, and StepCollapseError where the chunk would
    need more than MAX_CHUNK_STEPS steps, before any of them is taken; a
    state that leaves w(sigma) > 0 raises InadmissibleStateError.  All
    three carry tau.
    """
    n_chunks = _chunk_count(t_end, cadence)
    tail = BandTail(grid, gamma, y0_hat)
    flows = FlatFlows(grid, gamma)
    counters.update(steps=0, rhs_calls=0, max_gauss_reset=0.0)

    def rhs(y_band: np.ndarray) -> np.ndarray:
        counters["rhs_calls"] += 1
        return rhs_symmetric(y_band, tail)

    y_band = tail.take(y0_hat)
    del y0_hat  # the tail holds its entries; the caller's stack may go
    y_hat = tail.full(y_band)
    for chunk in range(1, n_chunks + 1):
        cap = dt_cap(y_hat)  # before the yield: the caller may write into the stack
        yield (chunk - 1) * cadence, y_hat
        del y_hat  # held through the chunk, it would raise the flow's peak
        if not cap > 0.0:
            raise NonFiniteStateError((chunk - 1) * cadence, cap)
        cap = min(cap, flows.max_step)
        if cadence / cap > MAX_CHUNK_STEPS:
            raise StepCollapseError((chunk - 1) * cadence, cap)
        steps = max(1, int(np.ceil(cadence / cap - 1e-12)))
        h = cadence / steps
        try:
            for _ in range(steps):
                # through the module, so that a patched step_rk4 is the one taken
                y_band = tail.settle(dynamics.step_rk4(y_band, rhs, h, flows))
        except InadmissibleStateError as err:
            raise InadmissibleStateError(err.what, err.base_min, (chunk - 1) * cadence) from None
        counters["steps"] += steps
        counters["max_gauss_reset"] = tail.max_drift
        y_hat = tail.full(y_band)
    del tail, flows, y_band  # the flow is over: only its last stack is left
    yield n_chunks * cadence, y_hat


def _run_evolve(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    grid, n_b, state = _solve_background(cfg)
    # the symmetric system runs in rescaled time tau = sqrt(gamma) t;
    # outputs report physical t
    root_g = np.sqrt(cfg.gamma)
    # the base state (sigma_st, v = 0, E_st / sqrt(g), B = 0), as the rfft
    # coefficients the flow carries (see emlab.dynamics)
    base = np.zeros((10,) + grid.shape)
    base[SCALAR], base[ELEC] = state.sigma_st, state.e_st / root_g
    base_hat = grid.transform(base)
    # the energies weigh by sigma_st alone: the rest of the state, and the
    # full real stack, would only raise the run's peak RSS
    sigma_st = state.sigma_st
    del base, state
    # v and B~ vanish in the base: the samples subtract its sigma and E~ rows
    # alone.  (Taken before the initial state, these rows sit below it on the
    # heap; taken after, evolve-n48's peak RSS is 2.8 MB higher.)
    base_rows = base_hat[np.r_[SCALAR, ELEC]]

    if cfg.init == "stationary-exact":
        y0_hat = base_hat
    elif cfg.init == "stationary+noise":
        y0_hat = base_hat + grid.transform(compatible_perturbation(
            grid, cfg.gamma, sigma_st, cfg.amp, seed=cfg.seed
        ))
    else:
        y0_hat = _custom_init(cfg, grid, n_b)
    del base_hat

    weights = cfg.energy_weights()
    norm = lambda f_hat: np.sqrt(grid.spectral_l2_sq(f_hat))

    series_path = os.path.join(cfg.out_dir, "series.csv")
    rows = []
    max_v_norm = 0.0
    max_gauss = 0.0
    max_gauss_full = 0.0
    y_final = None
    # the flow's counters go straight into the notes, so a failed run keeps them
    notes = manifest.notes
    t_end, cadence = cfg.t_end * root_g, cfg.cadence * root_g
    samples = _chunk_count(t_end, cadence) + 1
    trajectory = evolve_band(
        grid, cfg.gamma, y0_hat, t_end, cadence,
        lambda y_hat: cfl_dt(grid, cfg.gamma, y_hat, cfg.cfl), notes,
    )
    del y0_hat  # the flow keeps its own copy
    try:
        # no stack outlives its sample; enumerate() would keep the last one
        # alive through the next chunk, in its cached result tuple
        for tau, pert_hat in trajectory:
            # the flow has read the stack's step cap: the state becomes the
            # perturbation in place, once its residuals are taken
            res = constraint_residuals(grid, cfg.gamma, pert_hat, n_b=n_b)
            if len(rows) + 1 == samples:
                y_final = pert_hat.copy()  # the last state, for state_final.emxf
            pert_hat[SCALAR] -= base_rows[0]
            pert_hat[ELEC] -= base_rows[1:]
            rep = energy_report(grid, pert_hat, sigma_st, cfg.gamma, weights)
            norm_v = norm(pert_hat[VEL])
            rows.append((
                tau / root_g,
                rep["energy_full"], rep["dissipation_full"],
                rep["energy_high"], rep["dissipation_high"],
                rep["int1"], rep["int2"], rep["int3"],
                res["gauss_e_l2_band"], res["gauss_b_l2_band"],
                norm(pert_hat[SCALAR]), norm_v,
                norm(pert_hat[ELEC]), norm(pert_hat[MAG]),
            ))
            max_v_norm = max(max_v_norm, norm_v)
            max_gauss = max(max_gauss, res["gauss_e_l2_band"], res["gauss_b_l2_band"])
            max_gauss_full = max(max_gauss_full, res["gauss_e_l2"], res["gauss_b_l2"])
            del pert_hat  # dead before the flow resumes for the next chunk
    except (NonFiniteStateError, StepCollapseError, InadmissibleStateError) as err:
        # the samples up to the failure explain the run from its out-dir
        emit_series(series_path, SERIES_COLUMNS, rows)
        if isinstance(err, NonFiniteStateError):
            raise NonFiniteStateError(err.t / root_g, err.bound / root_g) from None
        if isinstance(err, InadmissibleStateError):
            raise InadmissibleStateError(err.what, err.base_min, err.t / root_g) from None
        raise StepCollapseError(err.t / root_g, err.h / root_g) from None

    final_path = os.path.join(cfg.out_dir, "state_final.emxf")
    emit_series(series_path, SERIES_COLUMNS, rows)
    write_snapshot(final_path, grid, _state_fields(grid.inverse(y_final)))

    finite = all(np.isfinite(row).all() for row in np.asarray(rows))
    # the reset holds the in-band defect, so the drift it removed is bounded too
    manifest.checks = {
        "all_samples_finite": bool(finite),
        "gauss_laws_transported": max(max_gauss, notes["max_gauss_reset"]) <= GAUSS_TOL,
    }
    if cfg.init == "stationary-exact":
        manifest.checks["equilibrium_fixed"] = max_v_norm <= 1e-8 and max_gauss <= 1e-8
    manifest.outputs = [series_path, final_path]
    notes.update(
        samples=len(rows),
        max_norm_v=max_v_norm,
        max_gauss=max_gauss,
        max_gauss_full_spectrum=max_gauss_full,
    )


def _run_lyapunov(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    try:
        # an empty file only draws a warning from the parser, then an IndexError
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            data = np.genfromtxt(cfg.series, delimiter=",", names=True)
    except (OSError, ValueError, UserWarning) as err:
        raise ValueError(f"cannot read series {cfg.series}: {err}") from None
    needed = ("t", "energy_full", "dissipation_full", "energy_high", "dissipation_high")
    missing = [name for name in needed if name not in (data.dtype.names or ())]
    if missing:
        raise ValueError(f"series {cfg.series} lacks the columns {missing}")
    if data.shape == () or data.size < 2:
        raise ValueError(f"series {cfg.series} holds fewer than two samples")
    finite = np.isfinite(np.column_stack([data[name] for name in data.dtype.names]))
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        name = data.dtype.names[col]
        raise ValueError(
            f"series {cfg.series} holds a non-finite {name} = {data[name][row]} "
            f"in data row {row + 1}"
        )

    results = {}
    for label, e_col, d_col in (
        ("full", "energy_full", "dissipation_full"),
        ("high", "energy_high", "dissipation_high"),
    ):
        cert = lyapunov_certify(data["t"], data[e_col], data[d_col])
        # lambda is +inf (-inf) when no step dissipates: null in the report
        results[label] = {
            "lambda_best": _finite_or_none(cert.lambda_best),
            "lambda_strict": _finite_or_none(cert.lambda_strict),
            "tol_disc": cert.tol_disc,
            "violations": list(cert.violations),
            "certified": cert.certified,
        }

    report_path = cfg.report or os.path.join(cfg.out_dir, "lyapunov.json")
    emit_report(report_path, {"series": str(cfg.series), **results})
    manifest.checks = {
        "full_pair_certified": results["full"]["certified"],
        "high_pair_certified": results["high"]["certified"],
    }
    manifest.outputs = [report_path]
    manifest.notes = {"samples": int(data.size)}


def _run_lindecay(cfg: ExperimentConfig, manifest: RunManifest) -> None:
    times = cfg.time_grid()
    traj = decay_trajectory(cfg.family_width, cfg.gamma, times, cfg.quadrature())

    windows = {"main": cfg.fit_window_values(), "rho": cfg.rho_fit_window_values()}
    fits: dict[str, dict[str, object]] = {}
    for channel, (kind, window_key, target, tolerance) in DECAY_TARGETS.items():
        window = windows[window_key]
        fit = fit_decay(times, traj.norms[channel], window, target, tolerance, kind)
        fits[channel] = {**asdict(fit), "verdict": "pass" if fit.passed else "fail"}
        manifest.checks[f"fit_{channel}"] = bool(fit.passed)

    csv_path = cfg.out or os.path.join(cfg.out_dir, "norms.csv")
    report_path = cfg.report or os.path.join(cfg.out_dir, "decay_fits.json")
    channels = tuple(DECAY_TARGETS)
    rows = [
        (t, *(traj.norms[c][i] for c in channels)) for i, t in enumerate(times)
    ]
    emit_series(csv_path, ("t", *channels), rows)
    emit_report(report_path, {"quadrature_tail_bound": traj.tail_bound, "fits": fits})

    manifest.outputs = [csv_path, report_path]
    manifest.notes = {"samples": int(times.size), "tail_bound": traj.tail_bound}


_PIPELINES = {
    "stationary": _run_stationary,
    "evolve": _run_evolve,
    "lyapunov": _run_lyapunov,
    "lindecay": _run_lindecay,
}


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Prepare the out-dir, run the configured subcommand and write the manifest.

    A run that raises still leaves a manifest with status "failed", the
    error text and the elapsed wall time; the exception then propagates.
    """
    start = time.perf_counter()
    manifest = RunManifest(cfg.command, config_hash(cfg), __version__)
    manifest_path = os.path.join(cfg.out_dir, "manifest.json")
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        resolved = os.path.join(cfg.out_dir, "config.resolved.ini")
        atomic_write(resolved, [canonical_text(cfg).encode("utf-8")])
        with fft_workers(cfg.threads):
            _PIPELINES[cfg.command](cfg, manifest)
    except Exception as err:
        manifest.status, manifest.error = "failed", f"{type(err).__name__}: {err}"
        manifest.wall_clock_s = time.perf_counter() - start
        try:
            manifest.write(manifest_path)
        except OSError:
            pass  # the run's own error is the one to report
        raise
    manifest.wall_clock_s = time.perf_counter() - start
    manifest.write(manifest_path)
    return manifest
