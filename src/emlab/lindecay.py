"""Semi-analytic decay rates for the flat-state linearization.

Linearizing the damped plasma system about the constant state
(n, u, E, B) = (1, 0, 0, 0) and Fourier-transforming in space decouples
the dynamics frequency by frequency: the complex 10-vector
y = (rho, u, E, B)^ at frequency xi obeys y' = A(xi) y with

    rho' = -i xi . u
    u'   = -u - E - gamma i xi rho
    E'   =  i xi x B + u
    B'   = -i xi x E.

The flow conserves the Gauss functionals i xi . E + rho and i xi . B, so
the compatible subspace (both zero) is invariant.  Rotation equivariance
splits A(xi) exactly into blocks that depend on r = |xi| alone:

  longitudinal (rho, u . xi^, E . xi^): eigenvalue 0, whose mode is the
      conserved Gauss defect rho + i r E . xi^, and the damped oscillator
      pair -1/2 +- i sqrt(3/4 + gamma r^2);
  transverse (u_perp, E_perp, xi^ x B): two identical 3x3 blocks with
      characteristic polynomial lam^3 + lam^2 + (1 + r^2) lam + r^2, whose
      three roots are always distinct; the slow root behaves like
      -r^2 / (1 + r^2), so magnetic energy leaks out only diffusively;
  B . xi^: constant.

Both 3x3 blocks have distinct eigenvalues at every radius, so one
eigendecomposition per radius (block_eig) gives every flow this module
needs; emlab.dynamics builds its exponential integrator on it too.

The resulting whole-space L2 decay exponents (heat-kernel integrals of the
slow branch against the initial profile) are what this module measures:
rho ~ e^{-t/2}, u and E ~ (1+t)^{-5/4}, B ~ (1+t)^{-3/4},
grad B ~ (1+t)^{-5/4}, for initial data whose B profile is bounded and
nonvanishing at xi = 0 (Ueda & Kawashima, Methods Appl. Anal. 18 (2011);
Duan, J. Hyperbolic Differ. Equ. 8 (2011)).

The initial data are one such Gaussian family; only its envelope width
(the config's family_width) is set.  The frequency quadrature's radial
panels are fixed too, and only its node counts are set.

Whole-space norms are evaluated by quadrature over R^3 frequencies and
reported in the Fourier-side normalization ( integral |f^|^2 dxi )^{1/2};
physical-space norms differ by the constant (2 pi)^{-3/2}, which is
immaterial for exponents and ratios.  Because every block depends on r
alone, the angular part of each norm reduces to one Gram matrix of the
initial eigen-coordinates per radius; a time sample then costs O(radii),
not O(nodes), and no per-node propagator is built.  The norms are taken
on the Gauss-compatible subspace, where both conserved defects vanish, so
every channel decays at its own rate instead of flooring at the
roundoff of a defect.  All reductions run over fixed-shape arrays in a
fixed order, so results are bit-reproducible across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecayFit",
    "DecayTrajectory",
    "QuadratureScheme",
    "block_eig",
    "decay_trajectory",
    "fit_decay",
    "initial_modes",
]

RHO = slice(0, 1)
U = slice(1, 4)
E = slice(4, 7)
B = slice(7, 10)


# ---------------------------------------------------------------------------
# block flows


def _transverse_generator(r: np.ndarray) -> np.ndarray:
    """The transverse block on (u_perp, E_perp, xi^ x B), shape r.shape + (3, 3).

    Its discriminant -3 + 4 s - 20 s^2 - 4 s^3 (s = r^2) is negative, so its
    three roots never meet: its eigenvector matrix has condition number
    below 2.6 at r = 0 and on r in [1e-8, 1e8].
    """
    gen = np.zeros(np.shape(r) + (3, 3), dtype=complex)
    gen[..., 0, 0] = -1.0
    gen[..., 0, 1] = -1.0
    gen[..., 1, 0] = 1.0
    gen[..., 1, 2] = 1j * r
    gen[..., 2, 1] = 1j * r
    return gen


def _longitudinal_generator(r: np.ndarray, gamma: float) -> np.ndarray:
    """The longitudinal block on (rho, u . xi^, E . xi^), shape r.shape + (3, 3).

    Its eigenvalues are 0 (the conserved Gauss defect) and
    -1/2 +- i sqrt(3/4 + gamma r^2), distinct at every radius.
    """
    gen = np.zeros(np.shape(r) + (3, 3), dtype=complex)
    gen[..., 0, 1] = -1j * r
    gen[..., 1, 0] = -1j * gamma * r
    gen[..., 1, 1] = -1.0
    gen[..., 1, 2] = -1.0
    gen[..., 2, 1] = 1.0
    return gen


def block_eig(r: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of the longitudinal (0) and transverse (1) blocks at radii r.

    Block 0 acts on (rho, u . xi^, E . xi^), block 1 on the transverse rows
    (u_perp, E_perp, xi^ x B); B . xi^ is constant.  Returns the
    eigenvalues lam, shape (2, R, 3), the eigenvector matrices V and their
    inverses, shape (2, R, 3, 3), so that a block's generator is
    V diag(lam) V^{-1} and its flow V diag(e^{t lam}) V^{-1}.
    """
    r = np.asarray(r, dtype=float)
    gens = np.stack([_longitudinal_generator(r, gamma), _transverse_generator(r)])
    lam, vecs = np.linalg.eig(gens)
    return lam, vecs, np.linalg.inv(vecs)


# ---------------------------------------------------------------------------
# frequency quadrature


# radial panel edges _R_MAX * _PANEL_RATIO^{-(_PANELS-1) .. 0}, plus 0
_R_MAX = 24.0
_PANELS = 6
_PANEL_RATIO = 4.0
_EDGES = (0.0, *(_R_MAX * _PANEL_RATIO ** (-(_PANELS - 1 - j)) for j in range(_PANELS)))


@dataclass(frozen=True)
class QuadratureScheme:
    """Product quadrature for R^3 frequency integrals.

    Radial: composite Gauss-Legendre with radial_nodes per panel on six
    fixed geometric panels, edges 24 * 4^{-5 .. 0} (plus 0), refined toward
    the origin so heat-kernel integrands e^{-2 |xi|^2 t} stay resolved out to
    t ~ 1000.  Angular: Gauss-Legendre in cos(theta) times a uniform
    periodic rule in phi.  Nodes are laid out radius-major, so the
    directions of one radius form a contiguous run.  Every angular
    integrand of the norms has degree 2 in xi^: transverse rows enter as
    (P_perp a) . (P_perp b) = a . b - (a . xi^)(b . xi^), and xi^ x B reduces
    to that.  The default 2 x 4 rule is exact to degree 3: for x^a y^b z^c,
    the phi rule (exact to trigonometric degree phi_nodes - 1) returns 0
    when a + b is odd, and otherwise the cos(theta) factor has degree <= 3,
    which 2 Gauss-Legendre nodes integrate exactly.
    """

    radial_nodes: int = 16
    theta_nodes: int = 2
    phi_nodes: int = 4

    def __post_init__(self) -> None:
        for name in ("radial_nodes", "theta_nodes"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")
        if self.phi_nodes < 3:
            raise ValueError("phi_nodes must be >= 3 to integrate degree 2 in phi exactly")

    def radial_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes r_i > 0 and weights carrying the r^2 volume factor."""
        base_x, base_w = np.polynomial.legendre.leggauss(self.radial_nodes)
        nodes, weights = [], []
        for a, b in zip(_EDGES[:-1], _EDGES[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            r = mid + half * base_x
            nodes.append(r)
            weights.append(half * base_w * r**2)
        return np.concatenate(nodes), np.concatenate(weights)

    def smallest_radius(self) -> float:
        """radial_rule's smallest node, without the radial_nodes^2 eigenproblem
        that leggauss solves.  It is e_1 t, for the first panel edge e_1 and
        t = (1 - x) / 2 at the largest root x of the Legendre polynomial P_n.
        P_n = 2F1(-n, n + 1; 1; t), whose terms fall like (n^2 t)^k / k!^2, and
        n^2 t is about 1.45 at that root; so each Newton step from Tricomi's
        estimate sums about 20 terms, whatever n is."""
        n = self.radial_nodes
        # x ~ (1 - delta) cos(theta); 1 - cos(theta) taken without cancellation
        theta, delta = 3.0 * math.pi / (4 * n + 2), (n - 1) / (8.0 * n**3)
        t = math.sin(0.5 * theta) ** 2 + 0.5 * delta * math.cos(theta)
        for _ in range(20):
            p, t_dp, term = 1.0, 0.0, 1.0  # P_n(t), t P_n'(t), the k-th term
            for k in range(1, n + 1):
                term *= (k - 1 - n) * (n + k) / (k * k) * t
                p += term
                t_dp += k * term
                if abs(term) < 1e-17:
                    break
            step = p * t / t_dp
            t -= step
            if abs(step) <= 1e-16 * t:
                break
        return _EDGES[1] * t

    def nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Radii (R,), frequency nodes (K, 3) and positive weights (K,) with dxi measure."""
        r, wr = self.radial_rule()
        mu, wmu = np.polynomial.legendre.leggauss(self.theta_nodes)
        phi = 2.0 * np.pi * np.arange(self.phi_nodes) / self.phi_nodes
        wphi = 2.0 * np.pi / self.phi_nodes
        sin_theta = np.sqrt(1.0 - mu**2)
        # directions on the sphere, (theta_nodes, phi_nodes, 3)
        dirs = np.stack(
            [
                sin_theta[:, None] * np.cos(phi)[None, :],
                sin_theta[:, None] * np.sin(phi)[None, :],
                mu[:, None] * np.ones_like(phi)[None, :],
            ],
            axis=-1,
        )
        xi = r[:, None, None, None] * dirs[None, :, :, :]
        w = wr[:, None, None] * wmu[None, :, None] * wphi
        return r, xi.reshape(-1, 3), np.broadcast_to(
            w, (r.size, mu.size, phi.size)
        ).reshape(-1).copy()


# ---------------------------------------------------------------------------
# initial-data family


# Closed-form Fourier profiles for whole-space decay runs.  Every component
# shares the envelope g(xi) = exp(-width^2 |xi|^2 / 2): rho^ = _RHO_AMP |xi|^2 g
# (mean-zero), u^ = _DIR_U g, E^ = P_perp(xi) _DIR_E g plus the longitudinal
# part forced by the Gauss law, and B^ = P_perp(xi) _DIR_B g, bounded and
# nonvanishing at xi = 0: the profile behind the (1+t)^{-3/4} rate.
#
# The config's width 2.0 keeps the data low-frequency: fast transverse
# (light-wave) modes are damped only like e^{-t/(2|xi|^2)}, and their
# surviving high-|xi| hump decays as e^{-2 width sqrt(t)}, so a narrow
# envelope would pollute power-law fit windows starting at t ~ 50.
_RHO_AMP = 1.0
_DIR_U = (1.0, 0.7, -0.4)
_DIR_E = (0.3, -1.0, 0.6)
_DIR_B = (0.8, 0.25, -0.55)


def initial_modes(width: float, xi: np.ndarray) -> np.ndarray:
    """Evaluate the family of envelope width `width` at frequencies (K, 3) -> (K, 10)."""
    xi = np.asarray(xi, dtype=float).reshape(-1, 3)
    r2 = (xi**2).sum(axis=1)
    r = np.sqrt(r2)
    g = np.exp(-0.5 * width**2 * r2)
    # unit directions; at xi = 0 longitudinal content is set to zero below
    hat = np.divide(xi, r[:, None], out=np.zeros_like(xi), where=r[:, None] > 0)

    def transverse(v):
        v = np.asarray(v, dtype=float)
        return (v[None, :] - (hat @ v)[:, None] * hat) * g[:, None]

    y = np.zeros((xi.shape[0], 10), dtype=complex)
    y[:, RHO] = (_RHO_AMP * r2 * g)[:, None]
    y[:, U] = np.asarray(_DIR_U)[None, :] * g[:, None]
    # Gauss law i xi . E = -rho fixes the longitudinal electric part
    y[:, E] = transverse(_DIR_E) + 1j * _RHO_AMP * (r * g)[:, None] * hat
    y[:, B] = transverse(_DIR_B)
    return y


def _moment_gamma(p: float) -> float:
    """Gamma((p + 3) / 2) for an even power p >= 0.

    Gamma(a + 1) = a Gamma(a) from Gamma(3/2) = sqrt(pi) / 2 rounds Gamma(7/2)
    correctly, where math.gamma(3.5) is one ulp low.
    """
    if p < 0 or p % 2:
        raise ValueError(f"moment power must be even and >= 0, got {p}")
    g = 0.5 * math.sqrt(math.pi)
    for k in range(int(p) // 2):
        g *= 1.5 + k
    return g


def _gaussian_moment(p: float, width: float) -> float:
    """integral over R^3 of |xi|^p exp(-width^2 |xi|^2) dxi, p even."""
    return 2.0 * np.pi * _moment_gamma(p) / width ** (p + 3.0)


def _upper_gamma_q72(x: float) -> float:
    """Regularized upper incomplete gamma Q(7/2, x) for x >= 0.

    Closed form from Q(s + 1, x) = Q(s, x) + x^s e^{-x} / Gamma(s + 1) and
    Q(1/2, x) = erfc(sqrt x); every term is positive, so nothing cancels.
    """
    root = math.sqrt(x)
    poly = 1.0 + x * (2.0 / 3.0 + x * (4.0 / 15.0))
    return math.erfc(root) + math.exp(-x) * (2.0 / math.sqrt(math.pi)) * root * poly


def quadrature_tail_bound(width: float) -> float:
    """Upper estimate of the squared-norm mass beyond the last panel edge at t = 0.

    The propagator is power-bounded on the stable spectrum, so the t > 0
    tail inherits this estimate up to a moderate transient factor.
    """
    w2r2 = (width * _R_MAX) ** 2
    amps = [_RHO_AMP**2, *(float(np.dot(d, d)) for d in (_DIR_U, _DIR_E, _DIR_B))]
    # worst polynomial power across components is |xi|^4 (the rho profile);
    # its Gaussian moment beyond _R_MAX is the whole moment times Q(7/2, .)
    tail = _gaussian_moment(4.0, width) * _upper_gamma_q72(w2r2)
    return float(max(amps) * tail * (1.0 + _RHO_AMP**2))


# ---------------------------------------------------------------------------
# whole-space norms and trajectories


@dataclass
class DecayTrajectory:
    """Component norms of the propagated family on a time grid."""

    norms: dict[str, np.ndarray]
    tail_bound: float


_CHANNELS: tuple[tuple[str, str, int], ...] = (
    ("rho", "rho", 0),
    ("u", "u", 0),
    ("e", "e", 0),
    ("b", "b", 0),
    ("grad_b", "b", 1),
)


def _radial_densities(
    width: float, gamma: float, times: np.ndarray, scheme: QuadratureScheme
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Radii r_i and, per component, the weighted angular sums of |.|^2.

    densities[component][j, i] is sum over the directions at radius r_i
    of w |component(e^{t_j A} y0)|^2.  Both blocks of the propagator
    depend on r alone, so the direction sums collapse to one Gram matrix
    per radius and block: with G = V^{-1} (sum_dirs w v v^H) V^{-H} the
    Gram matrix of the eigen-coordinates of the initial block coordinates
    v, the propagated sums are the diagonal of (V D) G (V D)^H, where
    D = diag(e^{t lam}).

    The family is Gauss-compatible, so both conserved defects, the
    longitudinal lam = 0 mode and B . xi^, vanish analytically.  They are
    dropped, not carried at roundoff: a roundoff defect never decays, and
    it would floor rho near 4e-17 from t ~ 75 on.
    """
    r, xi, wq = scheme.nodes()
    lam, vecs, inv = block_eig(r, gamma)
    # block coordinates of the initial amplitudes: the longitudinal vector
    # (rho, u . xi^, E . xi^) and the transverse rows (u_perp, E_perp, xi^ x B);
    # every node lies off xi = 0
    y0 = initial_modes(width, xi)
    hat = xi / np.sqrt((xi**2).sum(axis=-1))[:, None]
    u_l, e_l = (np.einsum("...i,...i->...", hat, y0[..., sl]) for sl in (U, E))
    lon = np.stack([y0[..., 0], u_l, e_l], axis=-1)
    trans = np.stack([
        y0[..., U] - u_l[..., None] * hat,
        y0[..., E] - e_l[..., None] * hat,
        np.cross(hat, y0[..., B]),
    ], axis=-2)
    # nodes are radius-major: (radius, direction)
    w = wq.reshape(r.size, -1)
    lon = lon.reshape(w.shape + (3,))
    trans = trans.reshape(w.shape + (3, 3))
    grams = np.stack([
        np.einsum("rd,rda,rdb->rab", w, lon, lon.conj()),
        np.einsum("rd,rdak,rdbk->rab", w, trans, trans.conj()),
    ])
    # to eigen-coordinates; the defect mode has lam = 0, the oscillator
    # pair |lam|^2 = 1 + gamma r^2
    grams = inv @ grams @ inv.conj().swapaxes(-1, -2)
    keep = np.abs(lam[0]) > 0.5
    grams[0] *= keep[:, :, None] & keep[:, None, :]

    flows = vecs * np.exp(times[:, None, None, None] * lam)[..., None, :]
    d_lon, d_trans = np.einsum("tbrij,brjk,tbrik->btri", flows, grams, flows.conj()).real
    return r, {
        "rho": d_lon[..., 0],
        "u": d_lon[..., 1] + d_trans[..., 0],
        "e": d_lon[..., 2] + d_trans[..., 1],
        "b": d_trans[..., 2],
    }


def decay_trajectory(
    width: float,
    gamma: float,
    times: np.ndarray,
    scheme: QuadratureScheme = QuadratureScheme(),
) -> DecayTrajectory:
    """Propagate the family of envelope width `width` and record the channel norms.

    Channels: rho, u, e, b at derivative order 0 and grad_b (order 1).
    The family is evaluated once on the quadrature nodes and reduced to
    per-radius Gram matrices, so each time sample costs O(radii).
    """
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width}")
    times = np.asarray(times, dtype=float)
    r, dens = _radial_densities(width, gamma, times, scheme)
    norms = {
        name: np.sqrt(np.sum(r ** (2 * s) * dens[comp], axis=1)) for name, comp, s in _CHANNELS
    }
    return DecayTrajectory(norms, quadrature_tail_bound(width))


# ---------------------------------------------------------------------------
# exponent fitting


@dataclass
class DecayFit:
    """Least-squares decay law over a time window.

    kind "power": log y ~ intercept + exponent * log(1 + t);
    kind "exponential": log y ~ intercept + exponent * t (rate = -exponent).
    """

    exponent: float
    intercept: float
    window: tuple[float, float]
    residual: float
    n_samples: int
    kind: str
    target: float | None = None
    tolerance: float | None = None

    @property
    def passed(self) -> bool | None:
        if self.target is None or self.tolerance is None:
            return None
        return abs(self.exponent - self.target) <= self.tolerance


def fit_decay(
    times: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float],
    target: float | None = None,
    tolerance: float | None = None,
    kind: str = "power",
) -> DecayFit:
    """Fit a power law (vs log(1+t)) or exponential (vs t) on a window."""
    if kind not in ("power", "exponential"):
        raise ValueError(f"unknown fit kind {kind!r}")
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if mask.sum() < 10:
        raise ValueError(
            f"window [{lo}, {hi}] contains {int(mask.sum())} samples; need >= 10"
        )
    yw = y[mask]
    if not (yw > 0.0).all():
        raise ValueError("norms must be positive inside the fit window")
    x = np.log1p(t[mask]) if kind == "power" else t[mask]
    slope, intercept = np.polyfit(x, np.log(yw), 1)
    resid = float(np.abs(np.log(yw) - (intercept + slope * x)).max())
    return DecayFit(
        float(slope), float(intercept), (lo, hi), resid, int(mask.sum()), kind, target, tolerance
    )
