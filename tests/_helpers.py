"""Shared helpers for the test suite, and the references the package is
checked against: the dense band mask, the symmetrization and its inverse,
a full-layout symmetrized tendency, classical RK4, the primitive system
and the Duhamel crosscheck of the shipped integrator; the dense 10 x 10
flat-state symbol, whose scipy expm is the reference flow for both
FlatFlows and the Duhamel crosscheck, with its constraint rows and a
spectrum scan; and for lindecay, the closed-form initial norms and the
closed-form flow on the Gauss-compatible subspace."""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from emlab import dynamics as dyn
from emlab.dynamics import ELEC, MAG, SCALAR, VEL
from emlab.grid import GridSpec
from emlab.lindecay import (
    _DIR_B,
    _DIR_E,
    _DIR_U,
    _RHO_AMP,
    _gaussian_moment,
    _transverse_generator,
)
from emlab.pipelines import evolve_band


def band_mask(grid: GridSpec, band: int) -> np.ndarray:
    """1.0 on the rfft modes with every |integer index| <= band, 0.0
    elsewhere: the dense reference for SpectralBand's sub-lattice."""
    index = np.abs(np.rint(np.fft.fftfreq(grid.n, d=1.0 / grid.n)).astype(int))
    half = np.arange(grid.n // 2 + 1)
    keep = (index[:, None, None] <= band) & (index[None, :, None] <= band) & (half <= band)
    return keep.astype(float)


def dealias(grid: GridSpec, fh: np.ndarray) -> np.ndarray:
    """The two-thirds-rule projection by the dense mask of band n // 3."""
    return band_mask(grid, grid.n // 3) * fh


def random_field(grid: GridSpec, seed: int, band: int | None = None, amp: float = 1.0) -> np.ndarray:
    """Random real field; if band is given, keep only modes with |index| <= band."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape)
    if band is not None:
        f = grid.inverse(grid.transform(f) * band_mask(grid, band))
    scale = np.abs(f).max()
    return amp * f / scale if scale > 0 else f


def to_symmetric(state: np.ndarray, gamma: float) -> np.ndarray:
    """Primitive (n, u, E, B) -> symmetrized (sigma, v, E~, B~).

    The time axes differ: a symmetrized trajectory runs on tau = sqrt(g) t.
    """
    out = np.empty_like(state)
    out[SCALAR] = dyn.sigma_of_n(state[SCALAR], gamma)
    out[1:] = state[1:] / np.sqrt(gamma)
    return out


def gaussian_bump(grid: GridSpec, width: float, amp: float = 1.0) -> np.ndarray:
    """amp * exp(-|x - c|^2 / width^2) centered in the box."""
    return amp * np.exp(-(grid.radius**2) / width**2)


def from_symmetric(state: np.ndarray, gamma: float) -> np.ndarray:
    """Symmetrized (sigma, v, E~, B~) -> primitive (n, u, E, B), the inverse
    of to_symmetric."""
    out = np.empty_like(state)
    out[SCALAR] = dyn.n_of_sigma(state[SCALAR], gamma)
    out[1:] = state[1:] * np.sqrt(gamma)
    return out


def tendency(grid: GridSpec, gamma: float, state_hat: np.ndarray) -> np.ndarray:
    """dynamics.rhs_symmetric of a full rfft stack, embedded in the full layout."""
    tail = dyn.BandTail(grid, gamma, state_hat)
    return tail.band.embed(dyn.rhs_symmetric(tail.take(state_hat), tail))


def rk4_step(y: np.ndarray, rhs, h: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step: the reference integrator."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_flow(y: np.ndarray, rhs, t_end: float, dt_max, cadence: float | None = None):
    """Classical RK4 yielding (t, y) at t = 0 and each cadence point, in equal
    steps per chunk no longer than dt_max, a constant or a callable on the
    state at the chunk's start."""
    cadence = t_end if cadence is None else cadence
    yield 0.0, y
    for chunk in range(1, int(round(t_end / cadence)) + 1):
        cap = dt_max(y) if callable(dt_max) else dt_max
        steps = max(1, int(np.ceil(cadence / cap - 1e-12)))
        for _ in range(steps):
            y = rk4_step(y, rhs, cadence / steps)
        yield chunk * cadence, y


def band_linear_rhs(band, gamma: float):
    """The flat linear part L of rhs_symmetric on band coefficients."""
    sg = np.sqrt(gamma)

    def rhs(y):
        out = np.empty_like(y)
        out[0] = -band.div(y[1:4])
        out[1:4] = -band.grad(y[0]) - (y[4:7] + y[1:4]) / sg
        out[4:7] = (band.curl(y[7:10]) + y[1:4]) / sg
        out[7:10] = -band.curl(y[4:7]) / sg
        return out

    return rhs


def band_frequencies(grid: GridSpec) -> np.ndarray:
    """The frequencies of the two-thirds band's modes, (modes, 3)."""
    return np.moveaxis(grid.two_thirds.k, 0, -1).reshape(-1, 3)


def _symmetrizer(gamma: float) -> np.ndarray:
    """The diagonal of D = diag(1, I_9 / sqrt(g)): symmetrized amplitudes are
    D times primitive ones, and on the tau clock the flat linear part of
    rhs_symmetric is L = D A(xi) D^{-1} / sqrt(g)."""
    return np.r_[1.0, np.full(9, 1.0 / np.sqrt(gamma))]


def flat_flow(grid: GridSpec, gamma: float, y0: np.ndarray, t: float) -> np.ndarray:
    """e^{t A(xi)} y0 for primitive amplitudes y0 (modes, 10) at the band
    frequencies, by the shipped integrator: one step_rk4 over FlatFlows
    with zero remainder and h = sqrt(g) t, on the symmetrized D y0."""
    d = _symmetrizer(gamma)
    flows = dyn.FlatFlows(grid, gamma)
    y = (y0 * d).T.reshape(flows.shape)
    out = dyn.step_rk4(y, band_linear_rhs(grid.two_thirds, gamma), np.sqrt(gamma) * t, flows)
    return out.reshape(10, -1).T / d


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
    prods[3:6] = np.cross(v, omega - mag, axis=0)
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


def rhs_primitive(grid: GridSpec, gamma: float, state: np.ndarray) -> np.ndarray:
    """Tendency of the primitive system on the physical clock, a reference
    for the symmetrized one emlab evolve runs:

        dt n = -div(n u)
        dt u = -u.grad u - grad h(n) - E - u x B - u,   h(n) = g/(g-1) (n^{g-1}-1)
        dt E =  curl B + n u
        dt B = -curl E
        div E = n_b - n,  div B = 0                     (g = adiabatic exponent)

    on real (10, n, n, n) arrays, dealiased on the full layout.
    """
    n = state[SCALAR]
    u = state[VEL]
    sh = grid.transform(state)
    omega = grid.inverse(grid.curl(sh[VEL]))

    ke_h = 0.5 * (u * u).sum(axis=0) + gamma / (gamma - 1.0) * (n ** (gamma - 1.0) - 1.0)
    prods = np.empty((7,) + grid.shape)
    prods[0] = ke_h
    prods[1:4] = np.cross(u, omega - state[MAG], axis=0)
    prods[4:7] = n * u
    ph = grid.transform(prods)

    out = np.empty_like(sh)
    out[SCALAR] = -grid.div(ph[4:7])
    out[VEL] = -grid.grad(ph[0]) + ph[1:4] - sh[ELEC] - sh[VEL]
    out[ELEC] = grid.curl(sh[MAG]) + ph[4:7]
    out[MAG] = -grid.curl(sh[ELEC])
    return grid.inverse(dealias(grid, out))


def linear_rhs_symmetric(
    grid: GridSpec,
    gamma: float,
    state: np.ndarray,
    damping: bool = True,
) -> np.ndarray:
    """Linearization of the symmetrized system at the constant equilibrium.

    With damping off, the remaining terms are antisymmetric and conserve
    (1/2) sum of squared L^2 norms.
    """
    sg = np.sqrt(gamma)
    sh = grid.transform(state)
    out = np.empty_like(sh)
    out[SCALAR] = -grid.div(sh[VEL])
    out[VEL] = -grid.grad(sh[SCALAR])
    out[ELEC] = grid.curl(sh[MAG]) / sg
    out[MAG] = -grid.curl(sh[ELEC]) / sg
    out[VEL] -= sh[ELEC] / sg
    out[ELEC] += sh[VEL] / sg
    if damping:
        out[VEL] -= sh[VEL] / sg
    return grid.inverse(out)


def nonlinear_sources(
    grid: GridSpec,
    gamma: float,
    pert: np.ndarray,
    rho_st: np.ndarray | float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quadratic-and-higher sources of the primitive perturbation system.

    For the perturbation (rho, u, E, B) about a stationary density 1 + rho_st:

        g1 = -div[(rho + rho_st) u]
        g2 = -u.grad u - u x B - g [(1+rho+rho_st)^{g-2} - 1] grad rho
             - g [(1+rho+rho_st)^{g-2} - (1+rho_st)^{g-2}] grad rho_st
        g3 = (rho + rho_st) u

    projected by the same dealias mask as the full tendencies.
    """
    rho = pert[SCALAR]
    u = pert[VEL]
    rho_st = np.asarray(rho_st, dtype=float)
    rho_tot = rho + rho_st

    uh = grid.transform(u)
    omega = grid.inverse(grid.curl(uh))
    grad_rho = grid.inverse(grid.grad(grid.transform(rho)))
    ke = 0.5 * (u * u).sum(axis=0)

    pres = gamma * ((1.0 + rho_tot) ** (gamma - 2.0) - 1.0) * grad_rho
    if np.ndim(rho_st) == 3:
        grad_rho_st = grid.inverse(grid.grad(grid.transform(rho_st)))
        pres = pres + gamma * (
            (1.0 + rho_tot) ** (gamma - 2.0) - (1.0 + rho_st) ** (gamma - 2.0)
        ) * grad_rho_st

    stack = np.empty((10,) + grid.shape)
    stack[0] = ke
    stack[1:4] = np.cross(u, omega - pert[MAG], axis=0) - pres
    stack[4:7] = rho_tot * u
    stack[7:10] = 0.0
    sh = grid.transform(stack)
    g2_hat = dealias(grid, -grid.grad(sh[0]) + sh[1:4])
    g13_hat = dealias(grid, sh[4:7])
    g3 = grid.inverse(g13_hat)
    g1 = grid.inverse(-grid.div(g13_hat))
    return g1, grid.inverse(g2_hat), g3


def compatible_perturbation_primitive(grid: GridSpec, amp: float, seed: int = 0) -> np.ndarray:
    """Random primitive perturbation (rho, u, E, B) about the constant state.

    rho is mean-zero band-limited noise under a centered Gaussian envelope,
    u is free noise of the same shape, B is the curl of a noise potential,
    and E is purely longitudinal with div E = -rho solved spectrally.  All
    components are fully resolvable (band-limited) on the grid.
    """
    rho, pert = dyn._noise_state(grid, amp, seed)
    rho -= rho.mean()
    pert[SCALAR] = amp * rho / np.abs(rho).max()
    pert[ELEC] = grid.inverse(grid.longitudinal(grid.transform(-pert[SCALAR])))
    return pert


def band_flow(
    grid: GridSpec, gamma: float, state: np.ndarray, t_end: float, dt: float | None = None
):
    """The primitive state run to t_end by emlab evolve's loop,
    pipelines.evolve_band, in one chunk: symmetrized, run over
    tau = sqrt(g) t in steps of at most sqrt(g) dt, and mapped back.
    Without dt the step is the one emlab evolve takes, cfl_dt at cfl 0.4."""
    tau_end = np.sqrt(gamma) * t_end
    y0_hat = grid.transform(to_symmetric(state, gamma))
    if dt is None:
        cap = lambda y: dyn.cfl_dt(grid, gamma, y, 0.4)
    else:
        cap = lambda y: np.sqrt(gamma) * dt
    *_, (_, y_hat) = evolve_band(grid, gamma, y0_hat, tau_end, tau_end, cap, {})
    return from_symmetric(grid.inverse(y_hat), gamma)


def primitive_flow(grid: GridSpec, gamma: float, state: np.ndarray, t_end: float, dt: float):
    """The same run by the primitive reference: rhs_primitive under classical RK4."""
    *_, (_, y) = rk4_flow(state, lambda s: rhs_primitive(grid, gamma, s), t_end, dt)
    return y


def duhamel_crosscheck(
    grid: GridSpec,
    gamma: float,
    amp: float,
    t_end: float,
    dt: float | None = None,
    base_state: np.ndarray | None = None,
    flow=band_flow,
) -> dict[str, float]:
    """Gap between the nonlinear run and flat-state linear propagation.

    Runs flow (by default the shipped integrator, at the step emlab evolve
    takes unless dt caps it) from (primitive base state) + a * (unit
    perturbation shape) and from the same shape at a/2, subtracts the
    linear solution of each perturbation, a times the mode-wise dense
    e^{tA} of the shape, and reports the L2 gaps and their ratio.  About
    the flat state the sources are quadratic, so gap(a/2)/gap(a) ~ 1/4; a
    nonflat base state injects an O(a * delta) linear-in-a mismatch and
    drags the ratio toward 1/2.
    """
    if base_state is None:
        base_state = np.zeros((10,) + grid.shape)
        base_state[SCALAR] = 1.0

    shape = compatible_perturbation_primitive(grid, amp=1.0)
    # mode-wise e^{tA} of the shape on the grid's (Nyquist-zeroed) frequencies
    xi = np.moveaxis(grid.k, 0, -1).reshape(-1, 3)
    y0 = grid.transform(shape).reshape(10, -1).T
    lin = grid.inverse(linear_flow(xi, y0, gamma, t_end).T.reshape((10,) + grid.spectral_shape))

    def gap(a: float) -> float:
        y = flow(grid, gamma, base_state + a * shape, t_end, dt)
        diff = (y - base_state) - a * lin
        return float(np.sqrt(sum(grid.l2_norm(diff[i]) ** 2 for i in range(10))))

    g_full, g_half = gap(amp), gap(0.5 * amp)
    return {"gap": g_full, "gap_half": g_half, "ratio": g_half / g_full if g_full > 0.0 else 0.0}


# ---------------------------------------------------------------------------
# the dense 10 x 10 flat-state symbol A(xi) on (rho, u, E, B)^, which the
# package only ever handles split into blocks


def _cross_matrix(xi: np.ndarray) -> np.ndarray:
    """Matrix X with X w = xi x w, batched over leading axes of xi (.., 3)."""
    z = np.zeros(xi.shape[:-1])
    x1, x2, x3 = xi[..., 0], xi[..., 1], xi[..., 2]
    return np.stack(
        [
            np.stack([z, -x3, x2], axis=-1),
            np.stack([x3, z, -x1], axis=-1),
            np.stack([-x2, x1, z], axis=-1),
        ],
        axis=-2,
    )


def symbol_matrix(xi: np.ndarray, gamma: float) -> np.ndarray:
    """Generator matrices A(xi), shape (..., 10, 10) complex; one for xi (3,)."""
    xi = np.asarray(xi, dtype=float)
    a = np.zeros(xi.shape[:-1] + (10, 10), dtype=complex)
    ix = 1j * xi
    a[..., 0, 1:4] = -ix
    a[..., 1:4, 0] = -gamma * ix
    a[..., 1:4, 1:4] = -np.eye(3)
    a[..., 1:4, 4:7] = -np.eye(3)
    a[..., 4:7, 1:4] = np.eye(3)
    cross = _cross_matrix(xi)
    a[..., 4:7, 7:10] = 1j * cross
    a[..., 7:10, 4:7] = -1j * cross
    return a


def linear_flow(xi: np.ndarray, y0: np.ndarray, gamma: float, t: float) -> np.ndarray:
    """e^{t A(xi)} y0 for amplitudes y0 (K, 10) at frequencies xi (K, 3),
    from scipy's dense expm of each node's symbol."""
    return (expm(symbol_matrix(xi, gamma) * t) @ y0[..., None])[..., 0]


def dense_band_flow(grid: GridSpec, gamma: float, y: np.ndarray, h: float) -> np.ndarray:
    """e^{hL} y for symmetrized band coefficients y (10, band shape) on the
    tau clock, by linear_flow: e^{hL} = D e^{(h / sqrt(g)) A} D^{-1}."""
    d = _symmetrizer(gamma)
    ref = linear_flow(band_frequencies(grid), y.reshape(10, -1).T / d, gamma, h / np.sqrt(gamma))
    return (ref * d).T.reshape(y.shape)


def constraint_matrix(xi: np.ndarray) -> np.ndarray:
    """Rows evaluating (i xi . E + rho, i xi . B), shape (..., 2, 10)."""
    xi = np.asarray(xi, dtype=float)
    c = np.zeros(xi.shape[:-1] + (2, 10), dtype=complex)
    c[..., 0, 0] = 1.0
    c[..., 0, 4:7] = 1j * xi
    c[..., 1, 7:10] = 1j * xi
    return c


def spectral_stability_report(
    gamma: float, n_samples: int = 1000, k_max: float = 30.0, seed: int = 0
) -> dict[str, float]:
    """Spectrum scan over random frequencies |xi| <= k_max.

    Checks that no eigenvalue has positive real part and fits the gap
    constant c in max Re(lambda | compatible) <= -c |xi|^2 / (1 + |xi|^2)
    on the constraint-consistent subspace.  Half the radii are drawn
    log-uniformly to probe the slow-mode regime near xi = 0.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_samples, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    n_log = n_samples // 2
    radii = np.concatenate(
        [
            np.exp(rng.uniform(np.log(1e-2), np.log(k_max), n_log)),
            k_max * rng.uniform(0.0, 1.0, n_samples - n_log) ** (1.0 / 3.0),
        ]
    )
    xi = dirs * radii[:, None]
    a = symbol_matrix(xi, gamma)
    eigs = np.linalg.eigvals(a)
    max_re_all = float(eigs.real.max())

    c = constraint_matrix(xi)
    # orthonormal basis of the compatible subspace: null space of the
    # 2x10 constraint matrix, via its right singular vectors
    _, _, vh = np.linalg.svd(c)
    q = np.conj(np.swapaxes(vh[:, 2:, :], -1, -2))  # (n, 10, 8)
    a_restr = np.einsum("nij,njk,nkl->nil", np.conj(np.swapaxes(q, -1, -2)), a, q)
    eigs_c = np.linalg.eigvals(a_restr)
    max_re_compat = eigs_c.real.max(axis=1)
    k2 = radii**2
    c_samples = -max_re_compat * (1.0 + k2) / k2
    return {
        "max_real_part": max_re_all,
        "max_real_part_compatible": float(max_re_compat.max()),
        "c_fit": float(c_samples.min()),
        "n_samples": float(n_samples),
        "k_max": float(k_max),
    }


def initial_norms_analytic(width: float) -> dict[str, float]:
    """Closed-form t = 0 norms of the family (Gaussian moment integrals)."""
    vu, ve, vb = (np.asarray(d) for d in (_DIR_U, _DIR_E, _DIR_B))
    m = lambda p: _gaussian_moment(p, width)
    out = {
        "rho": _RHO_AMP**2 * m(4),
        "u": float(vu @ vu) * m(0),
        "e": (2.0 / 3.0) * float(ve @ ve) * m(0) + _RHO_AMP**2 * m(2),
        "b": (2.0 / 3.0) * float(vb @ vb) * m(0),
        "grad_b": (2.0 / 3.0) * float(vb @ vb) * m(2),
    }
    return {k: float(np.sqrt(v)) for k, v in out.items()}


def compatible_flow(xi: np.ndarray, y0: np.ndarray, gamma: float, t: float) -> np.ndarray:
    """e^{t A(xi)} y0 for Gauss-compatible amplitudes y0 (K, 10) at nonzero
    frequencies xi (K, 3), node by node: the reference for the norms of
    lindecay.decay_trajectory, which drops both conserved defects.

    With the defect rho + i r E_l set to 0, rho = -i r E_l, and the
    longitudinal pair (u_l, E_l) = (u . xi^, E . xi^) is the damped
    oscillator x'' + x' + (1 + g r^2) x = 0, solved in closed form.  The
    transverse block on (u_perp, E_perp, xi^ x B) is diagonalized per node,
    and B . xi^ is carried unchanged.
    """
    r = np.sqrt((xi**2).sum(axis=1))
    hat = xi / r[:, None]
    u_l, e_l, b_l = (np.einsum("ki,ki->k", hat, y0[:, sl]) for sl in (VEL, ELEC, MAG))
    stiff = 1.0 + gamma * r**2
    omega = np.sqrt(stiff - 0.25)
    cos = np.exp(-0.5 * t) * np.cos(omega * t)
    sin = np.exp(-0.5 * t) * np.sin(omega * t) / omega
    u_t = (cos - 0.5 * sin) * u_l - stiff * sin * e_l
    e_t = sin * u_l + (cos + 0.5 * sin) * e_l

    trans = np.stack(
        [y0[:, VEL] - u_l[:, None] * hat, y0[:, ELEC] - e_l[:, None] * hat, np.cross(hat, y0[:, MAG])],
        axis=1,
    )
    lam, vecs = np.linalg.eig(_transverse_generator(r))
    trans = vecs @ (np.exp(lam * t)[..., None] * np.linalg.inv(vecs)) @ trans
    y = np.empty(y0.shape, dtype=complex)
    y[:, 0] = -1j * r * e_t
    y[:, VEL] = u_t[:, None] * hat + trans[:, 0]
    y[:, ELEC] = e_t[:, None] * hat + trans[:, 1]
    # xi^ x (xi^ x B) = -B_perp
    y[:, MAG] = b_l[:, None] * hat - np.cross(hat, trans[:, 2])
    return y
