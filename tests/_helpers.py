"""Shared helpers for the test suite."""
from __future__ import annotations

import numpy as np

from emlab import dynamics as dyn
from emlab.grid import GridSpec


def random_field(grid: GridSpec, seed: int, band: int | None = None, amp: float = 1.0) -> np.ndarray:
    """Random real field; if band is given, keep only modes with |index| <= band."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape)
    if band is not None:
        f = grid.inverse(grid.transform(f) * grid.band_mask(band))
    scale = np.abs(f).max()
    return amp * f / scale if scale > 0 else f


def gaussian_bump(grid: GridSpec, width: float, amp: float = 1.0) -> np.ndarray:
    """amp * exp(-|x - c|^2 / width^2) centered in the box."""
    return amp * np.exp(-(grid.radius**2) / width**2)


def tendency(grid: GridSpec, gamma: float, state_hat: np.ndarray) -> np.ndarray:
    """dynamics.rhs_symmetric of a full rfft stack, embedded in the full layout."""
    tail = dyn.BandTail(grid, state_hat)
    return tail.band.embed(dyn.rhs_symmetric(grid, gamma, tail.take(state_hat), tail))


def integrate_band(grid: GridSpec, gamma: float, y0_hat, t_end, dt_max, cadence=None):
    """integrate_fixed on the two-thirds band of the rfft stack y0_hat, as
    emlab evolve runs it; yields (tau, full rfft stack) at cadence points.

    dt_max is a constant or a callable on the full stack (e.g. cfl_dt).
    """
    tail = dyn.BandTail(grid, y0_hat)
    rhs = lambda y_band: dyn.rhs_symmetric(grid, gamma, y_band, tail)
    cap = (lambda y_band: dt_max(tail.full(y_band))) if callable(dt_max) else dt_max
    for tau, y_band in dyn.integrate_fixed(tail.take(y0_hat), rhs, t_end, cap, cadence):
        yield tau, tail.full(y_band)


def oracle_rhs_symmetric(grid: GridSpec, gamma: float, state_hat: np.ndarray) -> np.ndarray:
    """The full-layout symmetrized tendency: 14 fields inverse-transformed,
    9 products forward-transformed, tendency embedded with zeros off the
    two-thirds band.  A reference for dynamics.rhs_symmetric, which carries
    only the band and merges fields (curl v - B~, one density product).
    """
    sg = np.sqrt(gamma)
    div_v_hat = grid.div(state_hat[1:4])
    spec = np.empty((14,) + grid.spectral_shape, dtype=complex)
    spec[0:4] = state_hat[0:4]
    spec[4:7] = state_hat[7:10]
    spec[7:10] = grid.grad(state_hat[0])
    spec[10] = div_v_hat
    spec[11:14] = grid.curl(state_hat[1:4])
    phys = grid.inverse(spec)
    sigma, v, mag = phys[0], phys[1:4], phys[4:7]
    grad_sigma, div_v, omega = phys[7:10], phys[10], phys[11:14]
    w = dyn.w_of_sigma(sigma, gamma)

    prods = np.empty((9,) + grid.shape)
    prods[0] = (v * grad_sigma).sum(axis=0)
    prods[1] = sigma * div_v
    prods[2] = 0.5 * (v * v).sum(axis=0) + (w**2 - 1.0) / (gamma - 1.0)
    prods[3:6] = dyn._cross(v, omega - mag)
    prods[6:9] = dyn.n_of_sigma(sigma, gamma) * v

    band = grid.two_thirds
    ph = band.take(grid.transform(prods))
    sb = band.take(state_hat)
    out = np.empty_like(sb)
    out[0] = -ph[0] - 0.5 * (gamma - 1.0) * ph[1] - band.take(div_v_hat)
    out[1:4] = -band.grad(ph[2]) + ph[3:6] - (sb[4:7] + sb[1:4]) / sg
    out[4:7] = band.curl(sb[7:10]) / sg + ph[6:9] / sg
    out[7:10] = -band.curl(sb[4:7]) / sg
    # the longitudinal current matched to the density tendency
    n_prime = w ** ((3.0 - gamma) / (gamma - 1.0))
    s_hat = band.take(grid.transform(n_prime * grid.inverse(band.embed(out[0]))))
    out[4:7] += band.longitudinal(s_hat / -sg - band.div(out[4:7]))
    return band.embed(out)
