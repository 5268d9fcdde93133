"""Nonlinear evolution of the damped plasma system in symmetrized variables.

The primitive fields (n, u, E, B) enter as symmetrized variables (sigma, v,
E~, B~) on the rescaled clock tau = sqrt(g) t, with g the adiabatic
exponent, sigma = 2/(g-1) (n^{(g-1)/2} - 1), v = u/sqrt(g), E~ = E/sqrt(g),
B~ = B/sqrt(g), and w(sigma) = (g-1)/2 sigma + 1:

    dtau sigma = -v.grad sigma - w(sigma) div v
    dtau v     = -v.grad v - w(sigma) grad sigma - E~/sqrt(g) - v x B~ - v/sqrt(g)
    dtau E~    =  curl B~ / sqrt(g) + (Phi(sigma) + sigma + 1) v / sqrt(g)
    dtau B~    = -curl E~ / sqrt(g)
    div E~ = (n_b - n(sigma))/sqrt(g),  div B~ = 0

with the density n(sigma) = w^{2/(g-1)} = Phi(sigma) + sigma + 1.  Every map of
the gamma-law lives in one block below; see require_admissible there.

Discretization notes.  The symmetrized system evolves spectrally on the
rfft coefficients of [scalar, vector, vector, vector], a complex stack of
shape (10, n, n, n//2+1) in the grid's "forward" normalization; cfl_dt,
constraint_residuals and energy.energy_report take that stack.  The
complete right-hand side is projected onto the two-thirds dealias band (a
Galerkin truncation), so the modes beyond the band never move: the
integrator carries only the band coefficients, (10, 2b+1, 2b+1, b+1) with
b = n // 3.  A BandTail holds what the flow fixes at its start: the
off-band tail of the initial state, which it adds to the inverse
transform of every RHS call and under which full() rebuilds the whole
stack, and the in-band Gauss defect.  Pointwise cancellations ---
in particular the stationary balance grad h(n_st) = -E_st, whose
out-of-band tail the state carries --- are projected as a unit, so exact
equilibria stay exact.  The acoustic gradient terms are written in
gradient form, grad h(n) with the enthalpy h(n) = g/(g-1) (n^{g-1} - 1),
and w grad sigma = grad W(sigma) with W(sigma) = (w^2 - 1)/(g - 1), which
is what makes that balance hold to roundoff on the grid.

Time stepping.  About the flat state the system is linear, and its waves,
light and sound, are what limit an explicit step.  FlatFlows solves that
linear part exactly, mode by mode, from lindecay's block decomposition of
the symbol, and step_rk4 takes it as the exponential integrator ETDRK4,
so cfl_dt bounds the step by the speed of the remainder alone: advection
and the departure of the sound speed w(sigma) from 1.  The remainder
still oscillates with the waves it rides on, so one period of the
fastest flat wave on the band (flat_wave_period) bounds the step for
accuracy whatever the state and the sampling cadence.  BandTail.settle
after each step holds the in-band Gauss defect at its initial value.
These are the parts; the loop that joins them over cadence chunks, the
one emlab evolve runs, is pipelines.evolve_band.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .grid import GridSpec, SpectralBand
from .lindecay import block_eig

__all__ = [
    "MAX_CHUNK_STEPS",
    "BandTail",
    "FlatFlows",
    "InadmissibleStateError",
    "NonFiniteStateError",
    "StepCollapseError",
    "cfl_dt",
    "compatible_perturbation",
    "constraint_residuals",
    "density_from_potential",
    "flat_wave_period",
    "n_of_sigma",
    "phi_of_sigma",
    "require_admissible",
    "rhs_symmetric",
    "sigma_of_n",
    "step_rk4",
]

SCALAR = 0
VEL = slice(1, 4)
ELEC = slice(4, 7)
MAG = slice(7, 10)


# ---- the pressure law: each power is of a base require_admissible passed ---

_STATE = "the state puts w(sigma) = (gamma-1)/2 sigma + 1"


def require_admissible(base: np.ndarray, what: str) -> np.ndarray:
    """base, checked positive, where its powers are real, or else
    InadmissibleStateError naming what and the minimum.  A NaN base passes:
    a NaN state is the non-finite check's to name, and nan ** p warns of
    nothing."""
    base_min = float(np.min(base))
    if base_min <= 0.0:
        raise InadmissibleStateError(what, base_min)
    return base


def w_of_sigma(sigma: np.ndarray | float, gamma: float) -> np.ndarray:
    """w(sigma) = (g-1)/2 sigma + 1, unchecked: the base of the powers in sigma."""
    return 0.5 * (gamma - 1.0) * np.asarray(sigma, dtype=float) + 1.0


def _n_of_w(w: np.ndarray, gamma: float) -> np.ndarray:
    return w ** (2.0 / (gamma - 1.0))  # n(sigma)


def _n_prime_of_w(w: np.ndarray, gamma: float) -> np.ndarray:
    return w ** ((3.0 - gamma) / (gamma - 1.0))  # n'(sigma)


def _potential_of_w(w: np.ndarray, gamma: float) -> np.ndarray:
    return (w ** 2 - 1.0) / (gamma - 1.0)  # W(sigma), with grad W = w grad sigma


def n_of_sigma(sigma: np.ndarray | float, gamma: float) -> np.ndarray:
    return _n_of_w(require_admissible(w_of_sigma(sigma, gamma), _STATE), gamma)


def phi_of_sigma(sigma: np.ndarray | float, gamma: float) -> np.ndarray:
    """Phi(sigma) = n(sigma) - sigma - 1: zero for gamma = 3, sigma^2/4 for gamma = 2."""
    s = np.asarray(sigma, dtype=float)
    return n_of_sigma(s, gamma) - s - 1.0


def sigma_of_n(n: np.ndarray | float, gamma: float) -> np.ndarray:
    return 2.0 / (gamma - 1.0) * (np.asarray(n, dtype=float) ** (0.5 * (gamma - 1.0)) - 1.0)


def density_from_potential(q: np.ndarray | float, gamma: float) -> np.ndarray:
    """n(Q) = ((g-1) Q / g + 1)^{1/(g-1)}, the inverse of the enthalpy Q = h(n)."""
    base = (gamma - 1.0) / gamma * np.asarray(q) + 1.0
    what = "the potential puts (gamma-1) Q / gamma + 1"
    return require_admissible(base, what) ** (1.0 / (gamma - 1.0))


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a x b over the first axis, written into out and returned."""
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=out[i])
        out[i] -= a[k] * b[j]
    return out


class BandTail:
    """What a band flow fixes at its start: its grid and gamma, the off-band
    part of its state and its in-band Gauss defect.

    rhs_symmetric's tendency vanishes outside the two-thirds band, so an
    integration carries only the band coefficients, take(state_hat), over
    this tail of the state it started from; full() rebuilds the whole rfft
    stack.  The tail's share of the RHS's batched inverse input (see
    _inverse_fields) is computed here, once per run.

    The RHS transports the Gauss defect div E~ + (n(sigma) - n_b)/sqrt(g)
    exactly on every band mode but the mean, but a long step drifts it by
    the integrator's error.  settle(), after each step, moves the band's
    longitudinal E~ so that the defect on k != 0 is its value at t = 0
    again, for one transform of sigma each way.  The defect is
    constraint_residuals', from the same _gauss_charge, with n_b = 0: the
    background is constant along the flow, so its part cancels from the
    drift.  max_drift is the largest drift removed, in the band L^2 norm.

    The band holds its k_z = 0 plane at both xi and -xi, where a real field
    has conjugates.  The RHS's products drop the plane's anti-Hermitian part,
    and the step, taking that term explicitly, grows it; so settle() ends by
    making the plane exactly Hermitian, (y(xi) + conj y(-xi))/2.
    """

    def __init__(self, grid: GridSpec, gamma: float, state_hat: np.ndarray) -> None:
        self.grid, self.gamma, self.band = grid, gamma, grid.two_thirds
        # full() overwrites every in-band entry, so the in-band sigma is
        # _defect's scratch
        self._state = state_hat.copy()
        # the RHS's inverse input: every call scatters the band's fields into
        # it, and the transform leaves its input as it is, so the off-band
        # entries keep the tail's fields
        self.fields = _inverse_fields(grid, state_hat)
        self._defect0 = self._defect(self.band.take(state_hat))
        self.max_drift = 0.0
        # on a full band axis, the index at position p is minus the one at (-p) mod (2b + 1)
        side = self.band.k_sq.shape[0]
        self._mirror = -np.arange(side) % side

    def take(self, state_hat: np.ndarray) -> np.ndarray:
        """The band coefficients an integration carries, in C order."""
        return np.ascontiguousarray(self.band.take(state_hat))

    def full(self, state_band: np.ndarray) -> np.ndarray:
        """The (10, n, n, n//2+1) stack: band coefficients over the fixed tail."""
        out = self._state.copy()
        out[(Ellipsis,) + self.band.index] = state_band
        return out

    def _defect(self, y_band: np.ndarray) -> np.ndarray:
        """div E~ + n(sigma)/sqrt(g) on the band (the defect up to n_b's part)."""
        sigma = self._state[SCALAR]
        sigma[self.band.index] = y_band[SCALAR]
        charge = self.band.take(_gauss_charge(self.grid, self.gamma, sigma, 0.0))
        return self.band.div(y_band[ELEC]) + charge

    def settle(self, y_band: np.ndarray) -> np.ndarray:
        """y_band, after a step, with its in-band Gauss defect reset and its
        k_z = 0 plane Hermitian, in place."""
        drift = self._defect0 - self._defect(y_band)
        drift[self.band.k_sq == 0.0] = 0.0  # no field carries the mean charge
        y_band[ELEC] += self.band.longitudinal(drift)
        self.max_drift = max(self.max_drift, math.sqrt(self.band.spectral_l2_sq(drift)))
        plane = y_band[..., 0]
        plane[...] = 0.5 * (plane + plane[:, self._mirror][:, :, self._mirror].conj())
        return y_band


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


def rhs_symmetric(state_band: np.ndarray, tail: BandTail) -> np.ndarray:
    """Dealiased tendency of the symmetrized system on the tau clock.

    Takes the state's two-thirds band coefficients (tail.take of the full
    stack) and returns the tendency there; off the band it is zero, so the
    tail stays as it is.  The grid and gamma are the tail's.
    """
    grid, gamma, band = tail.grid, tail.gamma, tail.band
    sg = np.sqrt(gamma)
    sb = state_band

    # the tail's fields are fixed; the band's are scattered over them
    fields_band = _inverse_fields(band, sb)
    tail.fields[(Ellipsis,) + band.index] = fields_band
    phys = grid.inverse(tail.fields)
    sigma, v, grad_sigma, div_v, curl_v_b = (
        phys[SCALAR], phys[VEL], phys[4:7], phys[7], phys[8:11]
    )

    # pointwise products, then one batched forward transform
    prods = np.empty((8,) + grid.shape)
    # a state whose products overflow is NaN in all but name: they are taken quietly,
    # and its tendency is NaN, for the non-finite check at the next cadence point
    with np.errstate(over="ignore", invalid="ignore"):
        # v . grad sigma + (w(sigma) - 1) div v; the linear div v stays spectral
        prods[0] = (v * grad_sigma).sum(axis=0) + 0.5 * (gamma - 1.0) * sigma * div_v
        w = w_of_sigma(sigma, gamma)  # W squares it: any sign does
        prods[1] = 0.5 * (v * v).sum(axis=0) + _potential_of_w(w, gamma)
        _cross(v, curl_v_b, prods[2:5])                   # v x (curl v - B~)
    if not np.isfinite(prods[:5]).all():
        return np.full_like(sb, np.nan)
    w = require_admissible(w, _STATE)  # every power of the law below is of this one w
    prods[5:8] = _n_of_w(w, gamma) * v                    # current n(sigma) v
    # n'(sigma), for the current correction below; the physical stack is
    # then dead, and freed before the forward transform
    n_prime = _n_prime_of_w(w, gamma)
    del phys, sigma, v, grad_sigma, div_v, curl_v_b, w

    # The complete tendency is projected onto the two-thirds band (a
    # Galerkin truncation), so it is assembled on that sub-lattice alone,
    # from the products' band entries.
    ph = grid.transform(prods, band)
    del prods
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
    s_hat = grid.transform(n_prime * grid.inverse(band.embed(out[SCALAR])), band)
    # the correction's divergence is minus the defect div E~ + s/sqrt(g)
    out[ELEC] += band.longitudinal(s_hat / -sg - band.div(out[ELEC]))
    return out


def _gauss_charge(
    grid: GridSpec, gamma: float, sigma_hat: np.ndarray, n_b: np.ndarray | float
) -> np.ndarray:
    """(n(sigma) - n_b)/sqrt(g) from sigma's rfft coefficients, spectrally: the
    Gauss defect is div E~ plus this charge.  One field goes each way."""
    density = n_of_sigma(grid.inverse(sigma_hat), gamma)
    return grid.transform(density - n_b) / np.sqrt(gamma)


def constraint_residuals(
    grid: GridSpec, gamma: float, state_hat: np.ndarray, n_b: np.ndarray | float = 1.0
) -> dict[str, float]:
    """L^2 norms of the divergence constraints, from spectral input.

    The defects of the symmetrized state, div E~ + (n(sigma) - n_b)/sqrt(g)
    and div B~, are the primitive div E - (n_b - n) and div B divided by
    sqrt(g).  Keys gauss_{e,b}_l2 measure the whole spectrum; the same keys
    with suffix _band measure the defect's part on the dealiased band the
    flow can represent, the part BandTail.settle holds.  The excluded tail
    measures spectral truncation of the pointwise nonlinearity, not failure
    of transport.  The norms come from the coefficients (Parseval), so a
    call transforms one field each way, for the charge.
    """
    band = grid.two_thirds
    e_defect = grid.div(state_hat[ELEC]) + _gauss_charge(grid, gamma, state_hat[SCALAR], n_b)
    out = {}
    for name, defect in (("gauss_e", e_defect), ("gauss_b", grid.div(state_hat[MAG]))):
        out[name + "_l2"] = math.sqrt(grid.spectral_l2_sq(defect))
        out[name + "_l2_band"] = math.sqrt(band.spectral_l2_sq(band.take(defect)))
    return out


def cfl_dt(grid: GridSpec, gamma: float, state_hat: np.ndarray, cfl: float) -> float:
    """Largest admissible step: cfl * dx / (max|v| + max|w(sigma) - 1|).

    step_rk4's flows solve the flat linear waves, light and sound, exactly,
    so only the remainder's speed bounds the step: advection, and the sound
    speed's departure from its flat value 1.  The bound is +inf where both
    vanish (a flat state) and NaN for a NaN state.  Takes the spectral
    state; only sigma and v are transformed back.
    """
    if not 0.0 < cfl < 1.0:
        raise ValueError(f"CFL number must lie in (0, 1), got {cfl}")
    sigma_v = grid.inverse(state_hat[0:4])
    speed = np.sqrt((sigma_v[VEL] ** 2).sum(axis=0)).max()
    speed += 0.5 * (gamma - 1.0) * np.abs(sigma_v[SCALAR]).max()
    return float(cfl * grid.dx / speed) if speed != 0.0 else np.inf


def flat_wave_period(grid: GridSpec, gamma: float) -> float:
    """One period of the fastest flat wave on grid's two-thirds band, on the tau clock.

    Both blocks' frequencies grow with the radius, so the fastest wave sits
    at the band's corner, integer index (b, b, b) with b = n // 3; the
    period is 2 pi over the largest |Im| of L's eigenvalues there, which are
    lindecay's lambda / sqrt(g).
    """
    b = grid.n // 3
    radius = 2.0 * np.pi / grid.box * np.sqrt(np.array([3 * b * b]))
    lam, _, _ = block_eig(radius, gamma)
    return float(2.0 * np.pi / np.abs(((1.0 / np.sqrt(gamma)) * lam).imag).max())


class FlatFlows:
    """The flat linear part of rhs_symmetric on the two-thirds band, solved exactly.

    About the flat state the tendency is L y, with L y = (-div v,
    -grad sigma - (E~ + v)/sqrt(g), (curl B~ + v)/sqrt(g), -curl E~/sqrt(g)).
    On the tau clock L is lindecay's symbol conjugated,
    L = D A(xi) D^{-1} / sqrt(g) with D = diag(1, I_9 / sqrt(g)), so
    f(h L) = D f((h/sqrt(g)) A(xi)) D^{-1}.  split() takes band coefficients
    to 13 eigen-coordinates per mode, where L is diagonal: rows 0-2 hold the
    longitudinal block (sigma, v . xi^, E~ . xi^), rows 3-11 the transverse
    rows (v_perp, E~_perp, xi^ x B~), eigenvector-major with one row per
    Cartesian component, and row 12 the constant B~ . xi^; join() maps
    back.  The weights step_rk4 gives the tendencies are functions of hL,
    tabulated per distinct radius for one step size at a time (at) and
    gathered to the modes at each use.

    max_step is flat_wave_period, one period of the fastest flat wave on
    the band.  The waves themselves are exact at any step, but the
    remainder they drive oscillates with them and is sampled once per
    stage, so a step should be no longer.
    """

    def __init__(self, grid: GridSpec, gamma: float) -> None:
        band = grid.two_thirds
        self.shape = (10,) + band.k_sq.shape
        k = band.k.reshape(3, -1)
        r = np.sqrt(band.k_sq.reshape(-1))
        hat = np.divide(k, r, out=np.zeros(k.shape), where=r > 0.0)
        hat[2, r == 0.0] = 1.0  # any direction: A(0) is isotropic
        self._hat = hat
        # distinct radii from the integer lattice, so equal shells share a radius
        dk = 2.0 * np.pi / grid.box
        index_sq = np.rint(band.k_sq.reshape(-1) / dk**2).astype(np.int64)
        squares, self._radius = np.unique(index_sq, return_inverse=True)
        self.radii = dk * np.sqrt(squares)
        self.gamma = gamma
        self.max_step = flat_wave_period(grid, gamma)
        self.h: float | None = None

    def at(self, h: float) -> "FlatFlows":
        """These flows with their weights tabulated for step size h."""
        if h != self.h:
            root_g = np.sqrt(self.gamma)
            lam, vecs, inv = block_eig(self.radii, self.gamma)
            # conjugate the longitudinal block by D
            vecs[0, :, 1:] /= root_g
            inv[0, :, :, 1:] *= root_g
            # per radius 3 longitudinal and 3 transverse rows, (10, 6, R)
            weights = _etd_weights(h, (h / root_g) * lam)
            self._weights = np.ascontiguousarray(
                np.concatenate([weights[:, 0], weights[:, 1]], axis=-1).transpose(0, 2, 1)
            )
            # B~ . xi^ is constant: its weights are those at z = 0
            self._weights_b = _etd_weights(h, np.zeros(1))[:, 0].real
            # (block, j, i, R): entry i, j of V or V^{-1}, gathered along the last axis
            self._vecs = np.ascontiguousarray(np.moveaxis(vecs, (1, 2, 3), (3, 2, 1)))
            self._inv = np.ascontiguousarray(np.moveaxis(inv, (1, 2, 3), (3, 2, 1)))
            self.h = h
        return self

    def weigh(self, row: int, f_hat: np.ndarray) -> np.ndarray:
        """Weight row times eigen-coordinates f_hat."""
        g = self._weights[row].take(self._radius, axis=-1)
        out = np.empty_like(f_hat)
        out[0:3] = g[0:3] * f_hat[0:3]
        out[3:12] = (g[3:6, None] * f_hat[3:12].reshape(3, 3, -1)).reshape(9, -1)
        out[12] = self._weights_b[row] * f_hat[12]
        return out

    def split(self, y: np.ndarray) -> np.ndarray:
        """Band coefficients (10, ...) -> eigen-coordinates (13, modes)."""
        y = y.reshape(10, -1)
        hat = self._hat
        vectors = y[1:10].reshape(3, 3, -1)
        # v, E~ and B~ along xi^
        along = np.einsum("fcq,cq->fq", vectors, hat)
        # the transverse rows (v_perp, E~_perp, xi^ x B~), one per component
        rows = np.empty_like(vectors)
        np.subtract(vectors[0:2], hat * along[0:2, None], out=rows[0:2])
        _cross(hat, vectors[2], rows[2])
        # w_i = sum_j V^{-1}_ij x_j over (sigma, v_l, E~_l), then over the rows
        w = np.empty((13, y.shape[1]), dtype=complex)
        g = self._inv[0].take(self._radius, axis=-1)
        w[0:3] = g[0] * y[SCALAR] + g[1] * along[0] + g[2] * along[1]
        g = self._inv[1].take(self._radius, axis=-1)
        trans = g[0][:, None] * rows[0] + g[1][:, None] * rows[1] + g[2][:, None] * rows[2]
        w[3:12] = trans.reshape(9, -1)
        w[12] = along[2]
        return w

    def join(self, w: np.ndarray) -> np.ndarray:
        """Eigen-coordinates (13, modes) -> band coefficients."""
        hat = self._hat
        # x_i = sum_j V_ij w_j, longitudinally and per transverse component
        g = self._vecs[0].take(self._radius, axis=-1)
        lon = g[0] * w[0] + g[1] * w[1] + g[2] * w[2]
        y = np.empty((10, w.shape[1]), dtype=complex)
        y[SCALAR] = lon[0]
        y[VEL] = hat * lon[1]
        y[ELEC] = hat * lon[2]
        y[MAG] = hat * w[12]
        g = self._vecs[1].take(self._radius, axis=-1)
        trans = w[3:12].reshape(3, 3, -1)
        # v_perp and E~_perp add to y; xi^ x B~ collects in row
        row = np.zeros_like(lon)
        for i, dest in ((0, y[VEL]), (1, y[ELEC]), (2, row)):
            for j in range(3):
                dest += g[j, i] * trans[j]
        # xi^ x (xi^ x B~) = -B~_perp
        y[MAG] -= _cross(hat, row, np.empty_like(row))
        return y.reshape(self.shape)


# The rows of the stage weights: a = y + A F(y), b = y + B0 F(y) + BA F(a),
# c = y + C0 F(y) + CA F(a) + CB F(b), y_1 = y + Y0 F(y) + ... + YC F(c)
_A, _B0, _BA, _C0, _CA, _CB, _Y0, _YA, _YB, _YC = range(10)


# Taylor terms of phi_k inside the unit disc; the first one dropped is below 1e-18
_PHI_TERMS = 20


def _phi_functions(z: np.ndarray) -> np.ndarray:
    """phi_0 .. phi_3 at complex z (at least 1-d), shape (4,) + z.shape.

    phi_0(z) = e^z and phi_{k+1}(z) = (phi_k(z) - 1/k!) / z, so
    phi_1(z) = (e^z - 1)/z, phi_2(z) = (e^z - 1 - z)/z^2 and
    phi_3(z) = (e^z - 1 - z - z^2/2)/z^3.  That recurrence cancels as
    z -> 0, so inside the unit disc the series phi_k(z) = sum_j z^j / (j + k)!
    is summed instead.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty((4,) + z.shape, dtype=complex)
    small = np.abs(z) < 1.0
    large = ~small
    out[0] = np.exp(z)
    for k in range(3):
        out[k + 1][large] = (out[k][large] - 1.0 / math.factorial(k)) / z[large]
    zs = z[small]
    for k in range(4):
        acc = np.full(zs.shape, 1.0 / math.factorial(_PHI_TERMS + k), dtype=complex)
        for j in range(_PHI_TERMS - 1, -1, -1):
            acc = acc * zs + 1.0 / math.factorial(j + k)
        out[k][small] = acc
    return out


def _etd_weights(h: float, z: np.ndarray) -> np.ndarray:
    """The stage weights of step_rk4 at z = h lambda (at least 1-d), shape (10,) + z.shape.

    With p = h/2 phi_1(z/2), d = e^{z/2} - 1 = z/2 phi_1(z/2) and the
    Cox-Matthews weights g_1 = h (phi_1 - 3 phi_2 + 4 phi_3),
    g_2 = h (2 phi_2 - 4 phi_3), g_3 = h (4 phi_3 - phi_2), eliminating
    N = F - lambda y from the stages leaves these.
    """
    _, phi1, phi2, phi3 = _phi_functions(z)
    phi_half = _phi_functions(0.5 * z)[1]
    p = 0.5 * h * phi_half
    d = 0.5 * z * phi_half
    g1 = h * (phi1 - 3.0 * phi2 + 4.0 * phi3)
    g2 = h * (2.0 * phi2 - 4.0 * phi3)
    g3 = h * (4.0 * phi3 - phi2)
    return np.stack([
        p,
        -d * p, p,
        d * p * (1.0 + 2.0 * d), -2.0 * d * p, 2.0 * p,
        g1 - g2 * d * (1.0 - d) - g3 * d * d * (1.0 + 2.0 * d),
        g2 * (1.0 - d) + 2.0 * g3 * d * d, g2 - 2.0 * g3 * d, g3,
    ])


def step_rk4(
    y: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray], h: float, flows: FlatFlows
) -> np.ndarray:
    """One fourth-order Runge-Kutta step of y' = rhs(y) = L y + N(y).

    y holds band coefficients (see BandTail); flows solve the flat linear
    part L exactly, and the step is the exponential integrator ETDRK4
    (Cox & Matthews, J. Comput. Phys. 176, 2002):

        a   = e^{hL/2} y + h/2 phi_1(hL/2) N(y)
        b   = e^{hL/2} y + h/2 phi_1(hL/2) N(a)
        c   = e^{hL/2} a + h/2 phi_1(hL/2) (2 N(b) - N(y))
        y_1 = e^{hL} y + h (f_1 N(y) + f_2 (N(a) + N(b)) + f_3 N(c))

    with f_1 = phi_1 - 3 phi_2 + 4 phi_3, f_2 = 2 phi_2 - 4 phi_3 and
    f_3 = 4 phi_3 - phi_2 of hL.  With N = rhs - L y substituted, each
    stage is y plus weighted tendencies (see _etd_weights), summed in the
    eigen-coordinates of L as the tendencies are made; so a state at rest
    stays at rest.
    """
    fl = flows.at(h)

    def stage(acc: np.ndarray) -> np.ndarray:
        out = fl.join(acc)  # a new array, no one else holds it
        out += y
        return out

    k0 = fl.split(rhs(y))
    a = stage(fl.weigh(_A, k0))
    ka = fl.split(rhs(a))
    del a
    b = stage(fl.weigh(_B0, k0) + fl.weigh(_BA, ka))
    c = fl.weigh(_C0, k0) + fl.weigh(_CA, ka)
    acc = fl.weigh(_Y0, k0) + fl.weigh(_YA, ka)
    del k0, ka
    kb = fl.split(rhs(b))
    del b
    c += fl.weigh(_CB, kb)
    c = stage(c)
    acc += fl.weigh(_YB, kb)
    del kb
    acc += fl.weigh(_YC, fl.split(rhs(c)))
    return stage(acc)


class NonFiniteStateError(ValueError):
    """The state stopped being finite; t is the last cadence time reached."""

    def __init__(self, t: float, bound: float) -> None:
        super().__init__(f"state non-finite at t={t:.12g} (step bound {bound})")
        self.t = t
        self.bound = bound


class InadmissibleStateError(ValueError):
    """A base of the pressure law's powers is not positive: what names it and
    base_min is its minimum; t is the last cadence time reached."""

    def __init__(self, what: str, base_min: float, t: float = 0.0) -> None:
        super().__init__(f"{what} outside the admissible range (> 0) at t={t:.12g}: "
                         f"its min is {base_min:.6g}")
        self.what, self.base_min, self.t = what, base_min, t


# A cadence chunk that needs more steps than this has a collapsed step size
# (a runaway CFL bound): no run of this laboratory gets near it.
MAX_CHUNK_STEPS = 1_000_000


class StepCollapseError(ValueError):
    """A cadence chunk needs more than MAX_CHUNK_STEPS steps of size h.

    t is the chunk's start time.  The config check refuses every chunk the
    flat-wave period could not fill, so in a run the CFL bound set h.
    """

    def __init__(self, t: float, h: float) -> None:
        super().__init__(
            f"step size collapsed at t={t:.12g}: h = {h:.6g} would need "
            f"more than {MAX_CHUNK_STEPS} steps per cadence chunk"
        )
        self.t = t
        self.h = h


def _shaped_noise(grid: GridSpec, rng: np.random.Generator, env: np.ndarray) -> np.ndarray:
    """Centered noise under an envelope, band-limited after enveloping so the
    result is fully resolvable (no content beyond |index| = n // 3 - 1)."""
    band = SpectralBand(grid, grid.n // 3 - 1)
    keep = lambda fh: band.embed(band.take(fh))
    f = grid.inverse(keep(grid.transform(rng.standard_normal(grid.shape))))
    out = grid.inverse(keep(grid.transform(env * f)))
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
    An amp that puts sigma_st + sigma outside the admissible range,
    w(sigma) <= 0 somewhere, raises InadmissibleStateError before any power
    of w.
    """
    sigma, pert = _noise_state(grid, amp, seed)
    pert[SCALAR] = amp * sigma
    what = f"noise of amp = {amp:g} puts w(sigma_st + sigma)"
    require_admissible(w_of_sigma(sigma_st + pert[SCALAR], gamma), what)

    # shift sigma so the induced charge has zero mean (Newton on a scalar)
    c_shift = 0.0
    for _ in range(8):
        s_tot = sigma_st + pert[SCALAR] - c_shift
        charge = phi_of_sigma(s_tot, gamma) - phi_of_sigma(sigma_st, gamma) + pert[SCALAR] - c_shift
        mu = grid.integral(charge)
        w_tot = require_admissible(w_of_sigma(s_tot, gamma), _STATE)
        dmu = -grid.integral(_n_prime_of_w(w_tot, gamma))
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
