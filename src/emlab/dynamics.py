"""Nonlinear evolution of the damped plasma system in symmetrized variables.

The primitive fields (n, u, E, B) enter as symmetrized variables (sigma, v,
E~, B~) on the rescaled clock tau = sqrt(g) t, with g the adiabatic
exponent, sigma = 2/(g-1) (n^{(g-1)/2} - 1), v = u/sqrt(g), E~ = E/sqrt(g),
B~ = B/sqrt(g), and w(sigma) = (g-1)/2 sigma + 1:

    dtau sigma = -v.grad sigma - w(sigma) div v
    dtau v     = -v.grad v - w(sigma) grad sigma - E~/sqrt(g) - v x B~ - v/sqrt(g)
    dtau E~    =  curl B~ / sqrt(g) + (Phi(sigma) + sigma + 1) v / sqrt(g)
    dtau B~    = -curl E~ / sqrt(g)
    div E~ = (n_b - 1 - Phi(sigma) - sigma)/sqrt(g),  div B~ = 0

where Phi(sigma) = w(sigma)^{2/(g-1)} - sigma - 1 so that the density is
n = Phi(sigma) + sigma + 1.

Discretization notes.  The symmetrized system evolves spectrally on the
rfft coefficients of [scalar, vector, vector, vector], a complex stack of
shape (10, n, n, n//2+1) in the grid's "forward" normalization; cfl_dt,
constraint_residuals and energy.energy_report take that stack.  The
complete right-hand side is projected onto the two-thirds dealias band (a
Galerkin truncation), so the modes beyond the band never move: RK4
carries only the band coefficients, (10, 2b+1, 2b+1, b+1) with b = n // 3,
and a BandTail keeps the fixed off-band tail of the initial state, adds
its share to the inverse transform of every RHS call and rebuilds the
full stack where one is needed.  Pointwise cancellations --- in particular
the stationary balance grad h(n_st) = -E_st, whose out-of-band tail the
state carries --- are projected as a unit, so exact equilibria stay exact.
The acoustic gradient terms are written in gradient form, grad h(n) with
the enthalpy h(n) = g/(g-1) (n^{g-1} - 1), and w grad sigma = grad W(sigma)
with W(sigma) = (w^2 - 1)/(g - 1), which is what makes that balance hold
to roundoff on the grid.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .grid import GridSpec

__all__ = [
    "MAX_CHUNK_STEPS",
    "BandTail",
    "NonFiniteStateError",
    "StepCollapseError",
    "cfl_dt",
    "compatible_perturbation",
    "constraint_residuals",
    "integrate_fixed",
    "n_of_sigma",
    "phi_of_sigma",
    "rhs_symmetric",
    "sigma_of_n",
    "step_rk4",
    "to_symmetric",
]

SCALAR = 0
VEL = slice(1, 4)
ELEC = slice(4, 7)
MAG = slice(7, 10)


def phi_of_sigma(sigma: np.ndarray | float, gamma: float) -> np.ndarray:
    """Phi(sigma) = ((g-1)/2 sigma + 1)^{2/(g-1)} - sigma - 1.

    Vanishes identically for gamma = 3 and equals sigma^2/4 for gamma = 2.
    """
    s = np.asarray(sigma, dtype=float)
    w = 0.5 * (gamma - 1.0) * s + 1.0
    return w ** (2.0 / (gamma - 1.0)) - s - 1.0


def w_of_sigma(sigma: np.ndarray | float, gamma: float) -> np.ndarray:
    return 0.5 * (gamma - 1.0) * np.asarray(sigma, dtype=float) + 1.0


def n_of_sigma(sigma: np.ndarray | float, gamma: float) -> np.ndarray:
    return w_of_sigma(sigma, gamma) ** (2.0 / (gamma - 1.0))


def sigma_of_n(n: np.ndarray | float, gamma: float) -> np.ndarray:
    return 2.0 / (gamma - 1.0) * (np.asarray(n, dtype=float) ** (0.5 * (gamma - 1.0)) - 1.0)


def to_symmetric(state: np.ndarray, gamma: float) -> np.ndarray:
    """Primitive (n, u, E, B) -> symmetrized (sigma, v, E~, B~).

    The time axes differ: a symmetrized trajectory runs on tau = sqrt(g) t.
    """
    out = np.empty_like(state)
    out[SCALAR] = sigma_of_n(state[SCALAR], gamma)
    out[1:] = state[1:] / np.sqrt(gamma)
    return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


class BandTail:
    """The off-band part of a spectral state, fixed along the flow.

    rhs_symmetric's tendency vanishes outside the two-thirds band, so an
    integration carries only the band coefficients, take(state_hat), and
    this tail of the state it started from; full() rebuilds the whole rfft
    stack.  The tail's share of the RHS's batched inverse input (see
    _inverse_fields) is computed here, once per run.
    """

    def __init__(self, grid: GridSpec, state_hat: np.ndarray) -> None:
        self.band = grid.two_thirds
        self._state = state_hat.copy()
        # entries on the band are overwritten on every RHS call
        self.fields = _inverse_fields(grid, state_hat)

    def take(self, state_hat: np.ndarray) -> np.ndarray:
        """The band coefficients an integration carries."""
        return self.band.take(state_hat)

    def full(self, state_band: np.ndarray) -> np.ndarray:
        """The (10, n, n, n//2+1) stack: band coefficients over the fixed tail."""
        out = self._state.copy()
        out[(Ellipsis,) + self.band.index] = state_band
        return out


def _inverse_fields(ops, sh: np.ndarray) -> np.ndarray:
    """The 11 fields the products need in physical space, spectrally.

    sigma, v, grad sigma, div v and curl v - B~ (B~ enters the products only
    through v x (curl v - B~)), on the layout of ops: a GridSpec or a
    SpectralBand.  E~ enters only linearly and never leaves spectral space.
    """
    out = np.empty((11,) + sh.shape[1:], dtype=complex)
    out[0:4] = sh[0:4]
    out[4:7] = ops.grad(sh[SCALAR])
    out[7] = ops.div(sh[VEL])
    out[8:11] = ops.curl(sh[VEL]) - sh[MAG]
    return out


def rhs_symmetric(
    grid: GridSpec, gamma: float, state_band: np.ndarray, tail: BandTail
) -> np.ndarray:
    """Dealiased tendency of the symmetrized system on the tau clock.

    Takes the state's two-thirds band coefficients (tail.take of the full
    stack) and returns the tendency there; off the band it is zero, so the
    tail stays as it is.
    """
    sg = np.sqrt(gamma)
    band = tail.band
    sb = state_band

    # the tail's fields are fixed; the band's are scattered over them
    fields_band = _inverse_fields(band, sb)
    spec = tail.fields.copy()
    spec[(Ellipsis,) + band.index] = fields_band
    phys = grid.inverse(spec)
    sigma, v, grad_sigma, div_v, curl_v_b = (
        phys[SCALAR], phys[VEL], phys[4:7], phys[7], phys[8:11]
    )

    # pointwise products, then one batched forward transform
    prods = np.empty((8,) + grid.shape)
    # v . grad sigma + (w(sigma) - 1) div v; the linear div v stays spectral
    prods[0] = (v * grad_sigma).sum(axis=0) + 0.5 * (gamma - 1.0) * sigma * div_v
    prods[1] = 0.5 * (v * v).sum(axis=0) + (w_of_sigma(sigma, gamma) ** 2 - 1.0) / (gamma - 1.0)
    prods[2:5] = _cross(v, curl_v_b)                      # v x (curl v - B~)
    prods[5:8] = n_of_sigma(sigma, gamma) * v             # current n(sigma) v

    # The complete tendency is projected onto the two-thirds band (a
    # Galerkin truncation), so it is assembled on that sub-lattice alone.
    ph = band.take(grid.transform(prods))
    out = np.empty_like(sb)
    out[SCALAR] = -ph[0] - fields_band[7]
    out[VEL] = -band.grad(ph[1]) + ph[2:5] - (sb[ELEC] + sb[VEL]) / sg
    out[ELEC] = band.curl(sb[MAG]) / sg + ph[5:8] / sg
    out[MAG] = -band.curl(sb[ELEC]) / sg

    # The density advances through nonconservative products while the
    # current above is a separate dealiased product, so beyond quadratic
    # order their aliasing disagrees and div E~ would creep away from the
    # density.  Replace the longitudinal current with the one the density
    # tendency implies; afterwards the Gauss defect is a constant of the
    # semi-discrete motion on every representable mode.  (The mean mode
    # has no current to adjust, so total charge keeps whatever truncation
    # drift the density products produce.)
    n_prime = w_of_sigma(sigma, gamma) ** ((3.0 - gamma) / (gamma - 1.0))
    s_hat = band.take(grid.transform(n_prime * grid.inverse(band.embed(out[SCALAR]))))
    # the correction's divergence is minus the defect div E~ + s/sqrt(g)
    out[ELEC] += band.longitudinal(s_hat / -sg - band.div(out[ELEC]))
    return out


def constraint_residuals(
    grid: GridSpec,
    gamma: float,
    state_hat: np.ndarray,
    n_b: np.ndarray | float = 1.0,
) -> dict[str, float]:
    """L^2 and max norms of the divergence constraints, from spectral input.

    The defects of the symmetrized state, div E~ - (n_b - 1 - Phi(sigma) -
    sigma)/sqrt(g) and div B~, are the primitive div E - (n_b - n) and
    div B divided by sqrt(g).  Keys gauss_{e,b}_{l2,max} measure the whole
    spectrum; the same keys with suffix _band measure the defect projected
    onto the dealiased band the flow can represent.  The excluded tail
    measures spectral truncation of the pointwise nonlinearity, not
    failure of transport.
    """
    scalar = grid.inverse(state_hat[SCALAR])
    target = (np.asarray(n_b) - 1.0 - phi_of_sigma(scalar, gamma) - scalar) / np.sqrt(gamma)
    res_hat = grid.div(state_hat[ELEC]) - grid.transform(target)
    div_b_hat = grid.div(state_hat[MAG])
    defects = grid.inverse(
        np.stack([res_hat, div_b_hat, grid.dealias(res_hat), grid.dealias(div_b_hat)])
    )
    out = {}
    for suffix, (res, div_b) in (("", defects[0:2]), ("_band", defects[2:4])):
        out["gauss_e_l2" + suffix] = grid.l2_norm(res)
        out["gauss_e_max" + suffix] = float(np.abs(res).max())
        out["gauss_b_l2" + suffix] = grid.l2_norm(div_b)
        out["gauss_b_max" + suffix] = float(np.abs(div_b).max())
    return out


def cfl_dt(grid: GridSpec, gamma: float, state_hat: np.ndarray, cfl: float) -> float:
    """Largest admissible step: cfl * dx / (1 + max|v| + max w(sigma)).

    Takes the spectral state; only sigma and v are transformed back.
    """
    if not 0.0 < cfl < 1.0:
        raise ValueError(f"CFL number must lie in (0, 1), got {cfl}")
    sigma_v = grid.inverse(state_hat[0:4])
    speed = np.sqrt((sigma_v[VEL] ** 2).sum(axis=0)).max()
    c_max = 1.0 + speed + w_of_sigma(sigma_v[SCALAR], gamma).max()
    return float(cfl * grid.dx / c_max)


def step_rk4(y: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray], h: float) -> np.ndarray:
    """One classical Runge-Kutta step.

    The stages are summed into one running accumulator as they are made,
    so no more than one stage tendency is held at a time.
    """
    k = rhs(y)
    acc = y + (h / 6.0) * k
    for to_stage, weight in ((0.5 * h, h / 3.0), (0.5 * h, h / 3.0), (h, h / 6.0)):
        k = rhs(y + to_stage * k)
        acc += weight * k
    return acc


class NonFiniteStateError(ValueError):
    """The state stopped being finite; t is the last cadence time reached."""

    def __init__(self, t: float, bound: float) -> None:
        super().__init__(f"state non-finite at t={t:.12g} (step bound {bound})")
        self.t = t
        self.bound = bound


# A cadence chunk that needs more RK4 steps than this has a collapsed step
# size (a runaway CFL bound): no run of this laboratory gets near it.
MAX_CHUNK_STEPS = 1_000_000


class StepCollapseError(ValueError):
    """A cadence chunk needs more than MAX_CHUNK_STEPS steps of size h.

    t is the chunk's start time; max_speed, when the caller supplies it, is
    the largest |v| of the state there, the usual cause.
    """

    def __init__(self, t: float, h: float, max_speed: float | None = None) -> None:
        speed = "" if max_speed is None else f" (max |v| = {max_speed:.6g})"
        super().__init__(
            f"step size collapsed at t={t:.12g}: h = {h:.6g}{speed} would need "
            f"more than {MAX_CHUNK_STEPS} RK4 steps per cadence chunk"
        )
        self.t = t
        self.h = h
        self.max_speed = max_speed


def integrate_fixed(
    y0: np.ndarray,
    rhs: Callable[[np.ndarray], np.ndarray],
    t_end: float,
    dt_max: Callable[[np.ndarray], float] | float,
    cadence: float | None = None,
) -> Iterator[tuple[float, np.ndarray]]:
    """Fixed-step RK4 integration, yielding (t, state) at cadence boundaries.

    dt_max may be a constant or a callable recomputed from the state at each
    cadence chunk (e.g. a CFL bound); within a chunk the step is uniform and
    chosen to land exactly on the boundary.  Yields the initial state first.
    A step bound that is not finite and positive raises NonFiniteStateError,
    and one that would need more than MAX_CHUNK_STEPS steps in a chunk
    raises StepCollapseError before any of them is taken; both carry the
    time on this function's own clock.
    """
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if cadence is None:
        cadence = t_end
    n_chunks = int(round(t_end / cadence))
    if abs(n_chunks * cadence - t_end) > 1e-9 * t_end or n_chunks < 1:
        raise ValueError(f"cadence {cadence} does not divide t_end {t_end}")
    y = y0.copy()
    yield 0.0, y
    for chunk in range(1, n_chunks + 1):
        cap = dt_max(y) if callable(dt_max) else float(dt_max)
        if not 0.0 < cap < np.inf:
            raise NonFiniteStateError((chunk - 1) * cadence, cap)
        if cadence / cap > MAX_CHUNK_STEPS:
            raise StepCollapseError((chunk - 1) * cadence, cap)
        steps = max(1, int(np.ceil(cadence / cap - 1e-12)))
        h = cadence / steps
        for _ in range(steps):
            y = step_rk4(y, rhs, h)
        yield chunk * cadence, y


def _shaped_noise(grid: GridSpec, rng: np.random.Generator, env: np.ndarray) -> np.ndarray:
    """Centered noise under an envelope, band-limited after enveloping so the
    result is fully resolvable (no content beyond |index| = n // 3 - 1)."""
    keep = grid.band_mask(grid.n // 3 - 1)
    f = grid.inverse(keep * grid.transform(rng.standard_normal(grid.shape)))
    out = grid.inverse(keep * grid.transform(env * f))
    return out / np.abs(out).max()


def _noise_state(grid: GridSpec, amp: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The noise of a perturbation builder, drawn in one fixed order.

    Returns unit-peak scalar noise and a (10, n, n, n) stack holding
    amp-peak velocity noise and an amp-peak solenoidal magnetic field (the
    curl of a noise potential); the scalar and electric slots are left to
    the caller.  All noise sits under a centered Gaussian envelope of
    width L/6.
    """
    if amp <= 0.0:
        raise ValueError(f"perturbation amplitude must be positive, got {amp}")
    rng = np.random.default_rng(seed)
    env = np.exp(-(grid.radius**2) / (grid.box / 6.0) ** 2)
    scalar = _shaped_noise(grid, rng, env)
    pert = np.zeros((10,) + grid.shape)
    for c in range(3):
        pert[VEL][c] = amp * _shaped_noise(grid, rng, env)
    pot = np.stack([_shaped_noise(grid, rng, env) for _ in range(3)])
    mag = grid.inverse(grid.curl(grid.transform(pot)))
    pert[MAG] = amp * mag / np.abs(mag).max()
    return scalar, pert


def compatible_perturbation(
    grid: GridSpec,
    gamma: float,
    sigma_st: np.ndarray,
    amp: float,
    seed: int = 0,
) -> np.ndarray:
    """Random symmetrized perturbation consistent with both divergence laws.

    sigma and v are band-limited noise under a centered Gaussian envelope;
    B~ is the curl of such a noise potential (exactly solenoidal, zero mean);
    the electric field is purely longitudinal, solved spectrally so that the
    full nonlinear Gauss law holds for the total state (stationary plus
    perturbation).  A constant shift of sigma enforces the solvability
    condition that the induced charge integrates to zero on the box.
    """
    sigma, pert = _noise_state(grid, amp, seed)
    pert[SCALAR] = amp * sigma

    # shift sigma so the induced charge has zero mean (Newton on a scalar)
    c_shift = 0.0
    for _ in range(8):
        s_tot = sigma_st + pert[SCALAR] - c_shift
        charge = phi_of_sigma(s_tot, gamma) - phi_of_sigma(sigma_st, gamma) + pert[SCALAR] - c_shift
        mu = grid.integral(charge)
        dmu = -grid.integral(
            w_of_sigma(s_tot, gamma) ** ((3.0 - gamma) / (gamma - 1.0))
        )
        step = mu / dmu
        c_shift -= step
        if abs(step) < 1e-15 * max(1.0, abs(c_shift)):
            break
    pert[SCALAR] -= c_shift
    s_tot = sigma_st + pert[SCALAR]
    charge = phi_of_sigma(s_tot, gamma) - phi_of_sigma(sigma_st, gamma) + pert[SCALAR]

    # longitudinal electric field from div E = -charge/sqrt(gamma)
    pert[ELEC] = grid.inverse(grid.longitudinal(grid.transform(-charge / np.sqrt(gamma))))
    return pert
