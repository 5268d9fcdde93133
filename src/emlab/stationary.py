"""Stationary states over a nonconstant ion background.

The stationary balance for the damped isentropic plasma model reduces, via
the enthalpy potential Q = (gamma/(gamma-1)) (n^{gamma-1} - 1) and the
electrostatic relation E = -grad Q, to the screened elliptic problem

    (Laplacian - 1/gamma) Q = g(Q) - (n_b - 1),

with the superlinear remainder g defined below (g(0) = 0, g'(0) = 0).
Inverting the screened Laplacian with the negative Yukawa-type kernel
G_hat(xi) = -1/(|xi|^2 + 1/gamma) turns this into the fixed-point equation
Q = G * (g(Q) - (n_b - 1)), solved here by Picard iteration in the H^2
metric.  The kernel has mass integral(|G|) = gamma, so the iteration
contracts whenever gamma * sup|g'| < 1 along the iterates, which the
smallness gate on ||n_b - 1||_{H^2} guarantees in practice.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import density_from_potential, sigma_of_n
from .grid import GridSpec

__all__ = [
    "DivergenceError",
    "StationaryState",
    "background_profile",
    "g_nonlinearity",
    "picard_iterate",
    "verify_smallness_bounds",
    "yukawa_convolve",
]

# Picard refuses backgrounds with ||n_b - 1||_{H^2} above this,
SMALLNESS_GATE = 0.5
# and gives up after this many sweeps.
MAX_ITER = 200


class DivergenceError(RuntimeError):
    """The fixed-point iteration is expanding instead of contracting."""


def g_nonlinearity(x: np.ndarray | float, gamma: float) -> np.ndarray:
    """Superlinear remainder of the density map n(Q).

    g(x) = n(x) - x/gamma - 1, with n(Q) = ((gamma-1) Q / gamma + 1)^{1/(gamma-1)}.
    Identically zero for gamma = 2 (quadratic pressure), and g(0) = 0,
    g'(0) = 0 for every gamma > 1.
    """
    x = np.asarray(x, dtype=float)
    return density_from_potential(x, gamma) - x / gamma - 1.0


def yukawa_multiplier(grid: GridSpec, gamma: float) -> np.ndarray:
    """Spectral symbol -1/(|xi|^2 + 1/gamma) of the screened inverse."""
    return -1.0 / (grid.k_sq + 1.0 / gamma)


def yukawa_convolve(grid: GridSpec, f: np.ndarray, gamma: float) -> np.ndarray:
    """G * f for the negative screened kernel; (Laplacian - 1/gamma)(G*f) = f."""
    return grid.inverse(yukawa_multiplier(grid, gamma) * grid.transform(f))


def background_profile(grid: GridSpec, kind: str, eps: float, width: float = 1.0) -> np.ndarray:
    """Ion background n_b = 1 + eps * shape, centered in the box.

    kind "gaussian":    shape = exp(-r^2 / width^2)
    kind "double-bump": two such bumps offset by +-L/8 along the first axis
    """
    if width <= 0.0:
        raise ValueError(f"profile width must be positive, got {width}")
    if kind == "gaussian":
        shape = np.exp(-(grid.radius**2) / width**2)
    elif kind == "double-bump":
        c = 0.5 * grid.box
        off = grid.box / 8.0
        x = grid.x1d
        r2 = lambda x0: (
            (x[:, None, None] - x0) ** 2
            + (x[None, :, None] - c) ** 2
            + (x[None, None, :] - c) ** 2
        )
        shape = np.exp(-r2(c - off) / width**2) + np.exp(-r2(c + off) / width**2)
    else:
        raise ValueError(f"unknown background profile {kind!r}; use 'gaussian' or 'double-bump'")
    return 1.0 + eps * shape


@dataclass
class StationaryState:
    """Constructed stationary state plus convergence diagnostics."""

    potential: np.ndarray          # Q, (n, n, n)
    n_st: np.ndarray               # (n, n, n)
    sigma_st: np.ndarray           # symmetrized density perturbation, (n, n, n)
    e_st: np.ndarray               # (3, n, n, n)
    residual_history: list[float] = field(default_factory=list)
    contraction_factors: list[float] = field(default_factory=list)
    converged: bool = False
    elliptic_residual_l2: float = np.nan
    elliptic_residual_max: float = np.nan
    curl_e_max: float = np.nan

    def fields(self) -> dict[str, np.ndarray]:
        """Snapshot-ready view of the state."""
        return {
            "n_st": self.n_st,
            "sigma_st": self.sigma_st,
            "potential": self.potential,
            "e_st_x": self.e_st[0],
            "e_st_y": self.e_st[1],
            "e_st_z": self.e_st[2],
        }


def picard_iterate(
    grid: GridSpec,
    n_b: np.ndarray,
    gamma: float,
    tol: float = 1e-10,
) -> StationaryState:
    """Solve Q = G * (g(Q) - (n_b - 1)) by Picard iteration from Q = 0.

    Convergence is measured in the H^2 norm of successive differences.
    Raises ValueError when ||n_b - 1||_{H^2} exceeds the smallness gate,
    DivergenceError when two consecutive difference ratios reach 1, and
    InadmissibleStateError when an iterate leaves the range of n(Q).
    """
    if not gamma > 1.0:
        raise ValueError(f"adiabatic exponent must exceed 1, got {gamma}")
    source = np.asarray(n_b, dtype=float) - 1.0
    delta_in = grid.sobolev_norm(source, 2)
    if delta_in > SMALLNESS_GATE:
        raise ValueError(
            f"background too far from vacuum: ||n_b - 1||_H2 = {delta_in:.3g} "
            f"exceeds the contraction gate {SMALLNESS_GATE}; reduce the bump amplitude"
        )

    phi = np.zeros(grid.shape)
    residuals: list[float] = []
    factors: list[float] = []
    converged = False
    for _ in range(MAX_ITER):
        phi_next = yukawa_convolve(grid, g_nonlinearity(phi, gamma) - source, gamma)
        diff = grid.sobolev_norm(phi_next - phi, 2)
        residuals.append(diff)
        if len(residuals) >= 2 and residuals[-2] > 0.0:
            factors.append(diff / residuals[-2])
            if len(factors) >= 2 and factors[-1] >= 1.0 and factors[-2] >= 1.0:
                raise DivergenceError(
                    f"Picard iteration expanding: last contraction factors "
                    f"{factors[-2]:.3g}, {factors[-1]:.3g}"
                )
        phi = phi_next
        if diff < tol:
            converged = True
            break
    if not converged:
        raise RuntimeError(
            f"Picard iteration did not reach tol={tol:g} within {MAX_ITER} iterations "
            f"(last difference {residuals[-1]:.3g})"
        )

    q = phi
    n_st = density_from_potential(q, gamma)
    sigma_st = sigma_of_n(n_st, gamma)
    qh = grid.transform(q)
    e_hat = -grid.grad(qh)
    e_st = grid.inverse(e_hat)

    res = grid.inverse(grid.laplacian(qh)) - (n_st - np.asarray(n_b, dtype=float))
    curl_e = grid.inverse(grid.curl(e_hat))

    return StationaryState(
        potential=q,
        n_st=n_st,
        sigma_st=sigma_st,
        e_st=e_st,
        residual_history=residuals,
        contraction_factors=factors,
        converged=converged,
        elliptic_residual_l2=grid.l2_norm(res),
        elliptic_residual_max=float(np.abs(res).max()),
        curl_e_max=float(np.abs(curl_e).max()),
    )


def verify_smallness_bounds(
    grid: GridSpec, n_b: np.ndarray, state: StationaryState
) -> dict[str, float]:
    """Measured stability ratios of the constructed state.

    r1 = ||n_st - 1||_{H^2} / ||n_b - 1||_{H^2}
    r2 = ||E_st||_{H^1} / ||n_b - 1||_{H^2}
    """
    src = grid.sobolev_norm(np.asarray(n_b, float) - 1.0, 2)
    if src == 0.0:
        raise ValueError("background equals vacuum; smallness ratios are undefined")
    r1 = grid.sobolev_norm(state.n_st - 1.0, 2) / src
    r2 = grid.sobolev_norm(state.e_st, 1) / src
    return {"r1": r1, "r2": r2, "source_norm": src}
