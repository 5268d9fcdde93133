"""Lyapunov energy and dissipation functionals for perturbations.

For a symmetrized perturbation (sigma, v, E, B) about a stationary state
with density weight n_st = 1 + sigma_st + Phi(sigma_st), the full-order
energy at derivative order N is

    E_N = sum_{|a| <= N} int n_st (|d^a sigma|^2 + |d^a v|^2) dx
          + ||[E, B]||_N^2
          + k1 * sum_{|a| <= N-1} <d^a v, grad d^a sigma>
          + k2 * sum_{|a| <= N-1} <d^a v, d^a E>
          - k3 * sum_{|a| <= N-2} <curl d^a E, d^a B>

with the high-order variant dropping the |a| = 0 block (and using
||grad [E, B]||_{N-1}^2).  The matching dissipations are

    D_N   = sum_{|a| <= N} int n_st |d^a v|^2 + ||sigma||_N^2
            + ||grad [E, B]||_{N-2}^2 + ||E||^2
    D_N^h = sum_{1 <= |a| <= N} int n_st |d^a v|^2 + ||grad sigma||_{N-1}^2
            + ||grad^2 [E, B]||_{N-3}^2 + ||grad E||^2

Note the regularity loss: D_N controls one derivative of [E, B] fewer than
E_N and misses the zero-order B block entirely, so dissipation never fully
dominates the energy and decay certification is genuinely nontrivial.

The cross ("interactive") terms carry small coupling weights k1, k2, k3
whose ordering 0 < k3 < k2 < k1 < 1 with k2^{3/2} < k3 keeps E_N equivalent
to the plain squared Sobolev norm of the perturbation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ELEC, MAG, SCALAR, VEL, n_of_sigma
from .grid import GridSpec

__all__ = [
    "CertificationResult",
    "EnergyWeights",
    "energy_report",
    "lyapunov_certify",
]


@dataclass(frozen=True)
class EnergyWeights:
    """Coupling weights and derivative order of the Lyapunov functional."""

    kappa1: float = 0.1
    kappa2: float = 0.005
    kappa3: float = 0.002
    order: int = 3

    def __post_init__(self) -> None:
        k1, k2, k3 = self.kappa1, self.kappa2, self.kappa3
        if not (0.0 < k3 < k2 < k1 < 1.0):
            raise ValueError(
                f"coupling weights must satisfy 0 < kappa3 < kappa2 < kappa1 < 1, "
                f"got kappa1={k1}, kappa2={k2}, kappa3={k3}"
            )
        if not k2**1.5 < k3:
            raise ValueError(
                f"coupling weights must satisfy kappa2^(3/2) < kappa3, "
                f"got kappa2^(3/2)={k2**1.5:.3g} >= kappa3={k3}"
            )
        if self.order < 3:
            raise ValueError(f"derivative order must be >= 3, got {self.order}")


def energy_report(
    grid: GridSpec,
    pert_hat: np.ndarray,
    sigma_st: np.ndarray | float,
    gamma: float,
    weights: EnergyWeights = EnergyWeights(),
) -> dict[str, float]:
    """All energy/dissipation functionals and cross terms of one snapshot.

    pert_hat is the perturbation's rfft coefficient stack, shape
    (10, n, n, n//2+1), as the spectral integrator carries it.
    """
    n = weights.order
    e_hat = pert_hat[ELEC]
    eb_hat = pert_hat[4:10]

    # the n_st-weighted sigma and v blocks, pointwise; every other term is a
    # Parseval sum.  The derivative sums are taken one field at a time, so
    # only one field's passes are live; v's components are added in the
    # order a sum over the component axis adds them.
    n_st = n_of_sigma(sigma_st, gamma)
    v_sq, v0_sq = grid.derivative_square_sum(pert_hat[1], n)
    for c in (2, 3):
        total, zero = grid.derivative_square_sum(pert_hat[c], n)
        v_sq += total
        v0_sq += zero
        del total, zero
    v_full = grid.integral(n_st * v_sq)
    v_zero = grid.integral(n_st * v0_sq)
    del v_sq, v0_sq
    total, zero = grid.derivative_square_sum(pert_hat[SCALAR], n)
    sv_full = grid.integral(n_st * total) + v_full
    sv_zero = grid.integral(n_st * zero) + v_zero
    del total, zero, n_st

    sob = grid.sobolev_multiplier
    ksq = grid.k_sq

    eb_n = grid.spectral_l2_sq(eb_hat, sob(n))
    grad_eb_nm1 = grid.spectral_l2_sq(eb_hat, sob(n - 1) * ksq)
    grad_eb_nm2 = grid.spectral_l2_sq(eb_hat, sob(n - 2) * ksq)
    grad2_eb_nm3 = grid.spectral_l2_sq(eb_hat, sob(n - 3) * ksq**2)
    sigma_n = grid.spectral_l2_sq(pert_hat[SCALAR], sob(n))
    grad_sigma_nm1 = grid.spectral_l2_sq(pert_hat[SCALAR], sob(n - 1) * ksq)
    e_zero = grid.spectral_l2_sq(e_hat)
    grad_e_zero = grid.spectral_l2_sq(e_hat, ksq)

    # each pair with its |alpha| = 0 contribution, to subtract for the
    # high-order variants; one derived vector field is live at a time
    int2 = grid.spectral_inner(pert_hat[VEL], e_hat, sob(n - 1))
    int2_zero = grid.spectral_inner(pert_hat[VEL], e_hat)
    grad_sigma_hat = grid.grad(pert_hat[SCALAR])
    int1 = grid.spectral_inner(pert_hat[VEL], grad_sigma_hat, sob(n - 1))
    int1_zero = grid.spectral_inner(pert_hat[VEL], grad_sigma_hat)
    del grad_sigma_hat
    curl_e_hat = grid.curl(e_hat)
    int3 = -grid.spectral_inner(curl_e_hat, pert_hat[MAG], sob(n - 2))
    int3_zero = -grid.spectral_inner(curl_e_hat, pert_hat[MAG])
    del curl_e_hat

    k1, k2, k3 = weights.kappa1, weights.kappa2, weights.kappa3
    cross_full = k1 * int1 + k2 * int2 + k3 * int3
    cross_high = (
        k1 * (int1 - int1_zero) + k2 * (int2 - int2_zero) + k3 * (int3 - int3_zero)
    )

    return {
        "energy_full": sv_full + eb_n + cross_full,
        "energy_high": (sv_full - sv_zero) + grad_eb_nm1 + cross_high,
        "dissipation_full": v_full + sigma_n + grad_eb_nm2 + e_zero,
        "dissipation_high": (v_full - v_zero) + grad_sigma_nm1 + grad2_eb_nm3 + grad_e_zero,
        "int1": int1,
        "int2": int2,
        "int3": int3,
    }


@dataclass
class CertificationResult:
    """Outcome of the discrete Lyapunov-inequality certification."""

    lambda_best: float
    violations: list[int]
    tol_disc: float
    lambda_strict: float

    @property
    def certified(self) -> bool:
        return self.lambda_best > 0.0 and not self.violations


def lyapunov_certify(
    times: np.ndarray, energies: np.ndarray, dissipations: np.ndarray
) -> CertificationResult:
    """Largest lambda with E(t_{k+1}) - E(t_k) <= -lambda dt D(t_k) + tol.

    tol = 10 dt^2 max_k D allows for the quadrature error of sampling a
    continuous dissipation integral at cadence dt.  Violations are steps
    whose energy increment exceeds tol outright (no lambda can fix them).
    A trajectory with no dissipation at all is vacuously certified with
    lambda_best = +inf.
    """
    t = np.asarray(times, dtype=float)
    e = np.asarray(energies, dtype=float)
    d = np.asarray(dissipations, dtype=float)
    if not (t.shape == e.shape == d.shape) or t.size < 2:
        raise ValueError("need equal-length time, energy, dissipation series with >= 2 points")
    steps = np.diff(t)
    dt = steps[0]
    if dt <= 0.0 or np.abs(steps - dt).max() > 1e-9 * max(dt, 1.0):
        raise ValueError("time series must be uniformly spaced and increasing")

    tol = 10.0 * dt**2 * float(d.max(initial=0.0))
    de = np.diff(e)
    d_at = d[:-1]
    violations = [int(k) for k in np.nonzero(de > tol)[0]]

    live = d_at > 0.0
    if not live.any():
        lam = np.inf if not violations else -np.inf
        return CertificationResult(lam, violations, tol, lam)
    lambda_best = float(((tol - de[live]) / (dt * d_at[live])).min())
    lambda_strict = float(((-de[live]) / (dt * d_at[live])).min())
    return CertificationResult(lambda_best, violations, tol, lambda_strict)
