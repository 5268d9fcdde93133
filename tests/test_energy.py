"""Oracle tests for the Lyapunov energy/dissipation functionals.

Single-mode states have closed-form functional values (frozen here by
hand); a second layer checks the production code against an independent
reference implementation built on numpy.fft with explicit loops.
"""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab.dynamics import (
    compatible_perturbation,
    phi_of_sigma,
    sigma_of_n,
)
from emlab.energy import (
    CertificationResult,
    EnergyWeights,
    energy_report,
    lyapunov_certify,
)
from emlab.grid import GridSpec
from emlab.pipelines import evolve_band
from emlab.stationary import background_profile, picard_iterate

from _helpers import random_field

GAMMA = 5.0 / 3.0


def zero_state(grid):
    return np.zeros((10,) + grid.shape)


class TestWeightsValidation:
    def test_defaults_are_admissible(self):
        w = EnergyWeights()
        assert w.kappa1 == 0.1 and w.kappa2 == 0.005 and w.kappa3 == 0.002
        assert w.kappa2**1.5 < w.kappa3

    def test_rejects_disordered_couplings(self):
        with pytest.raises(ValueError, match="kappa3 < kappa2 < kappa1"):
            EnergyWeights(kappa1=0.005, kappa2=0.1, kappa3=0.002)
        with pytest.raises(ValueError, match="kappa3 < kappa2 < kappa1"):
            EnergyWeights(kappa1=0.1, kappa2=0.005, kappa3=0.0)
        with pytest.raises(ValueError, match="kappa3 < kappa2 < kappa1"):
            EnergyWeights(kappa1=1.5, kappa2=0.005, kappa3=0.002)

    def test_rejects_kappa2_too_large_for_kappa3(self):
        # kappa2^(3/2) = 0.0894 > 0.05
        with pytest.raises(ValueError, match=r"kappa2\^\(3/2\)"):
            EnergyWeights(kappa1=0.5, kappa2=0.2, kappa3=0.05)

    def test_rejects_low_order(self):
        with pytest.raises(ValueError, match="order"):
            EnergyWeights(order=2)


class TestSingleModeOracles:
    """States with one Fourier mode; every functional known in closed form.

    S_m denotes 1 + k1^2 + ... + k1^(2m), the derivative-sum factor picked
    up by a field depending on a single coordinate through sin/cos(k1 x).
    """

    grid = GridSpec(n=16, box=10.0)
    k1 = 2.0 * np.pi / 10.0
    half = 10.0**3 / 2.0  # integral of sin^2 or cos^2 over the box

    def s_factor(self, m):
        return sum(self.k1 ** (2 * j) for j in range(m + 1))

    def x(self, axis):
        shape = [1, 1, 1]
        shape[axis] = self.grid.n
        return self.grid.x1d.reshape(shape) * np.ones(self.grid.shape)

    def test_scalar_only(self):
        a = 0.37
        pert = zero_state(self.grid)
        pert[0] = a * np.sin(self.k1 * self.x(0))
        rep = energy_report(self.grid, self.grid.transform(pert), 0.0, GAMMA)
        base = a**2 * self.half
        assert np.isclose(rep["energy_full"], base * self.s_factor(3), rtol=1e-12)
        assert np.isclose(rep["energy_high"], base * (self.s_factor(3) - 1.0), rtol=1e-12)
        assert np.isclose(rep["dissipation_full"], base * self.s_factor(3), rtol=1e-12)
        assert np.isclose(
            rep["dissipation_high"], base * self.k1**2 * self.s_factor(2), rtol=1e-12
        )
        assert rep["int1"] == rep["int2"] == rep["int3"] == 0.0

    def test_velocity_only(self):
        b = 0.81
        pert = zero_state(self.grid)
        pert[1] = b * np.cos(self.k1 * self.x(1))
        rep = energy_report(self.grid, self.grid.transform(pert), 0.0, GAMMA)
        base = b**2 * self.half
        assert np.isclose(rep["energy_full"], base * self.s_factor(3), rtol=1e-12)
        assert np.isclose(rep["dissipation_full"], base * self.s_factor(3), rtol=1e-12)
        assert np.isclose(
            rep["energy_high"], base * (self.s_factor(3) - 1.0), rtol=1e-12
        )
        assert np.isclose(
            rep["dissipation_high"], base * (self.s_factor(3) - 1.0), rtol=1e-12
        )

    def test_electric_only(self):
        c = 0.59
        pert = zero_state(self.grid)
        pert[5] = c * np.sin(self.k1 * self.x(0))
        rep = energy_report(self.grid, self.grid.transform(pert), 0.0, GAMMA)
        base = c**2 * self.half
        k2 = self.k1**2
        assert np.isclose(rep["energy_full"], base * self.s_factor(3), rtol=1e-12)
        assert np.isclose(rep["energy_high"], base * k2 * self.s_factor(2), rtol=1e-12)
        # field block of D_N: one derivative at order N-2, plus the L2 term
        assert np.isclose(
            rep["dissipation_full"], base * (k2 * self.s_factor(1) + 1.0), rtol=1e-12
        )
        assert np.isclose(
            rep["dissipation_high"], base * (k2**2 + k2), rtol=1e-12
        )

    def test_magnetic_only(self):
        d = 1.13
        pert = zero_state(self.grid)
        pert[9] = d * np.cos(self.k1 * self.x(0))
        rep = energy_report(self.grid, self.grid.transform(pert), 0.0, GAMMA)
        base = d**2 * self.half
        k2 = self.k1**2
        assert np.isclose(rep["energy_full"], base * self.s_factor(3), rtol=1e-12)
        assert np.isclose(rep["energy_high"], base * k2 * self.s_factor(2), rtol=1e-12)
        # B has no zero-order dissipation: only its gradient appears
        assert np.isclose(
            rep["dissipation_full"], base * k2 * self.s_factor(1), rtol=1e-12
        )
        assert np.isclose(rep["dissipation_high"], base * k2**2, rtol=1e-12)

    def test_velocity_pressure_cross_term(self):
        a, b = 0.4, 0.7
        pert = zero_state(self.grid)
        pert[0] = a * np.sin(self.k1 * self.x(0))
        pert[1] = b * np.cos(self.k1 * self.x(0))
        rep = energy_report(self.grid, self.grid.transform(pert), 0.0, GAMMA)
        int1_exact = a * b * self.k1 * self.half * self.s_factor(2)
        assert np.isclose(rep["int1"], int1_exact, rtol=1e-12)
        assert rep["int2"] == 0.0 and rep["int3"] == 0.0
        quad = (a**2 + b**2) * self.half * self.s_factor(3)
        w = EnergyWeights()
        assert np.isclose(rep["energy_full"], quad + w.kappa1 * int1_exact, rtol=1e-12)

    def test_velocity_electric_cross_term(self):
        b, c = 0.7, 0.3
        pert = zero_state(self.grid)
        pert[1] = b * np.cos(self.k1 * self.x(0))
        pert[4] = c * np.cos(self.k1 * self.x(0))
        rep = energy_report(self.grid, self.grid.transform(pert), 0.0, GAMMA)
        int2_exact = b * c * self.half * self.s_factor(2)
        assert np.isclose(rep["int2"], int2_exact, rtol=1e-12)
        w = EnergyWeights()
        quad = (b**2 + c**2) * self.half * self.s_factor(3)
        assert np.isclose(rep["energy_full"], quad + w.kappa2 * int2_exact, rtol=1e-12)

    def test_field_curl_cross_term(self):
        c, d = 0.45, 0.9
        pert = zero_state(self.grid)
        pert[5] = c * np.sin(self.k1 * self.x(0))   # E_2(x_1)
        pert[9] = d * np.cos(self.k1 * self.x(0))   # B_3(x_1)
        rep = energy_report(self.grid, self.grid.transform(pert), 0.0, GAMMA)
        # curl E = (0, 0, c k1 cos(k1 x1)), aligned with B_3
        int3_exact = -c * d * self.k1 * self.half * self.s_factor(1)
        assert np.isclose(rep["int3"], int3_exact, rtol=1e-12)
        w = EnergyWeights()
        quad = (c**2 + d**2) * self.half * self.s_factor(3)
        assert np.isclose(rep["energy_full"], quad + w.kappa3 * int3_exact, rtol=1e-12)

    def test_constant_background_scales_fluid_block(self):
        a = 0.37
        s = 0.2
        gamma = 2.0
        pert = zero_state(self.grid)
        pert[0] = a * np.sin(self.k1 * self.x(0))
        rep0 = energy_report(self.grid, self.grid.transform(pert), 0.0, gamma)
        reps = energy_report(self.grid, self.grid.transform(pert), s, gamma)
        # weight for gamma = 2 is 1 + s + s^2/4 = (1 + s/2)^2
        factor = (1.0 + s / 2.0) ** 2
        assert np.isclose(reps["energy_full"], factor * rep0["energy_full"], rtol=1e-12)
        assert np.isclose(
            reps["dissipation_full"] - a**2 * self.half * self.s_factor(3),
            rep0["dissipation_full"] - a**2 * self.half * self.s_factor(3),
            rtol=1e-12,
        )  # sigma H^N block of D_N is unweighted


def reference_report(grid, pert, weight, order, kappas):
    """Independent evaluation: numpy.fft derivatives, physical-space sums."""
    k1, k2, k3 = kappas
    kax = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    kx, ky, kz = np.meshgrid(kax, kax, kax, indexing="ij")
    hats = [np.fft.fftn(pert[i]) for i in range(10)]
    dx3 = grid.dx**3

    def deriv(i, alpha):
        sym = (1j * kx) ** alpha[0] * (1j * ky) ** alpha[1] * (1j * kz) ** alpha[2]
        return np.fft.ifftn(sym * hats[i]).real

    alphas = [
        a
        for a in itertools.product(range(order + 1), repeat=3)
        if sum(a) <= order
    ]

    def block(indices, m, w, lowest=0):
        tot = 0.0
        for a in alphas:
            if not lowest <= sum(a) <= m:
                continue
            for i in indices:
                d = deriv(i, a)
                tot += np.sum(w * d * d) * dx3
        return tot

    ones = np.ones(grid.shape)

    def cross1(m, lowest=0):
        tot = 0.0
        for a in alphas:
            if not lowest <= sum(a) <= m:
                continue
            for j in range(3):
                dv = deriv(1 + j, a)
                ds = deriv(0, tuple(a[i] + (i == j) for i in range(3)))
                tot += np.sum(dv * ds) * dx3
        return tot

    def cross2(m, lowest=0):
        tot = 0.0
        for a in alphas:
            if not lowest <= sum(a) <= m:
                continue
            for j in range(3):
                tot += np.sum(deriv(1 + j, a) * deriv(4 + j, a)) * dx3
        return tot

    def cross3(m, lowest=0):
        tot = 0.0
        inc = lambda a, i: tuple(a[j] + (j == i) for j in range(3))
        for a in alphas:
            if not lowest <= sum(a) <= m:
                continue
            curl = [
                deriv(6, inc(a, 1)) - deriv(5, inc(a, 2)),
                deriv(4, inc(a, 2)) - deriv(6, inc(a, 0)),
                deriv(5, inc(a, 0)) - deriv(4, inc(a, 1)),
            ]
            for j in range(3):
                tot += np.sum(curl[j] * deriv(7 + j, a)) * dx3
        return tot

    def grad_norm_sq(indices, m):
        tot = 0.0
        for a in alphas:
            if sum(a) > m:
                continue
            for i in indices:
                for j in range(3):
                    aj = tuple(a[q] + (q == j) for q in range(3))
                    d = deriv(i, aj)
                    tot += np.sum(d * d) * dx3
        return tot

    def grad2_norm_sq(indices, m):
        tot = 0.0
        for a in alphas:
            if sum(a) > m:
                continue
            for i in indices:
                for j in range(3):
                    for q in range(3):
                        aa = list(a)
                        aa[j] += 1
                        aa[q] += 1
                        d = deriv(i, tuple(aa))
                        tot += np.sum(d * d) * dx3
        return tot

    i1, i2, i3 = cross1(order - 1), cross2(order - 1), -cross3(order - 2)
    e_full = (
        block([0, 1, 2, 3], order, weight)
        + block([4, 5, 6, 7, 8, 9], order, ones)
        + k1 * i1
        + k2 * i2
        + k3 * i3
    )
    e_high = (
        block([0, 1, 2, 3], order, weight, lowest=1)
        + grad_norm_sq([4, 5, 6, 7, 8, 9], order - 1)
        + k1 * (i1 - cross1(0))
        + k2 * (i2 - cross2(0))
        + k3 * (-cross3(order - 2) + cross3(0))
    )
    d_full = (
        block([1, 2, 3], order, weight)
        + block([0], order, ones)
        + grad_norm_sq([4, 5, 6, 7, 8, 9], order - 2)
        + block([4, 5, 6], 0, ones)
    )
    d_high = (
        block([1, 2, 3], order, weight, lowest=1)
        + grad_norm_sq([0], order - 1)
        + grad2_norm_sq([4, 5, 6, 7, 8, 9], order - 3)
        + grad_norm_sq([4, 5, 6], 0)
    )
    return {
        "energy_full": e_full,
        "energy_high": e_high,
        "dissipation_full": d_full,
        "dissipation_high": d_high,
        "int1": i1,
        "int2": i2,
        "int3": i3,
    }


class TestIndependentReference:
    def test_random_state_flat_background(self):
        grid = GridSpec(n=12, box=7.0)
        pert = np.stack(
            [random_field(grid, seed=100 + i, band=3, amp=0.5) for i in range(10)]
        )
        w = EnergyWeights()
        rep = energy_report(grid, grid.transform(pert), 0.0, GAMMA, w)
        ref = reference_report(
            grid, pert, np.ones(grid.shape), w.order, (w.kappa1, w.kappa2, w.kappa3)
        )
        assert rep.keys() == ref.keys()  # the seven functionals, nothing more
        for key, val in ref.items():
            assert np.isclose(rep[key], val, rtol=1e-10, atol=1e-13), key

    def test_random_state_varying_background(self):
        grid = GridSpec(n=12, box=7.0)
        pert = np.stack(
            [random_field(grid, seed=200 + i, band=3, amp=0.3) for i in range(10)]
        )
        gamma = 1.4
        sigma_st = 0.1 * np.exp(-grid.radius**2)
        weight = 1.0 + sigma_st + phi_of_sigma(sigma_st, gamma)
        w = EnergyWeights(kappa1=0.2, kappa2=0.01, kappa3=0.004, order=3)
        rep = energy_report(grid, grid.transform(pert), sigma_st, gamma, w)
        ref = reference_report(grid, pert, weight, w.order, (0.2, 0.01, 0.004))
        for key, val in ref.items():
            assert np.isclose(rep[key], val, rtol=1e-10, atol=1e-13), key

    def test_random_state_varying_background_order5(self):
        grid = GridSpec(n=10, box=6.0)
        pert = np.stack(
            [random_field(grid, seed=300 + i, band=4, amp=0.3) for i in range(10)]
        )
        gamma = 1.4
        sigma_st = 0.2 * np.exp(-grid.radius**2 / 2.0)
        weight = 1.0 + sigma_st + phi_of_sigma(sigma_st, gamma)
        w = EnergyWeights(kappa1=0.2, kappa2=0.01, kappa3=0.004, order=5)
        rep = energy_report(grid, grid.transform(pert), sigma_st, gamma, w)
        ref = reference_report(grid, pert, weight, w.order, (0.2, 0.01, 0.004))
        for key, val in ref.items():
            assert np.isclose(rep[key], val, rtol=1e-10, atol=1e-13), key

    def test_weight_equals_stationary_density(self):
        grid = GridSpec(n=16, box=10.0)
        n_b = background_profile(grid, "gaussian", eps=0.05, width=1.5)
        state = picard_iterate(grid, n_b, gamma=GAMMA)
        sigma_st = sigma_of_n(state.n_st, GAMMA)
        weight = 1.0 + sigma_st + phi_of_sigma(sigma_st, GAMMA)
        assert np.max(np.abs(weight - state.n_st)) < 1e-13


class TestWorkingSet:
    def test_one_field_of_derivative_passes_is_live(self):
        # The traced peak of one call, bounded by array sizes: one field's
        # derivative passes (g1, g2 and g3, complex; f, total and zero,
        # real; each pass's old result is released before its next one),
        # the two v accumulators and n_st, plus 64 KiB for the wavenumber
        # rows and interpreter objects.  Taking sigma and v as one stack
        # needs about three times as much.
        grid = GridSpec(n=32, box=40.0)
        w = EnergyWeights(order=5)
        sigma_st = 0.05 * np.exp(-grid.radius**2 / 4.0)
        pert_hat = grid.transform(compatible_perturbation(grid, GAMMA, sigma_st, 1e-3, seed=3))
        energy_report(grid, pert_hat, sigma_st, GAMMA, w)  # fills the grid's cached multipliers
        tracemalloc.start()
        try:
            energy_report(grid, pert_hat, sigma_st, GAMMA, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        real = 8 * grid.n**3
        spectral = 16 * grid.n * grid.n * (grid.n // 2 + 1)
        passes = 3 * spectral + 3 * real
        assert peak <= passes + 2 * real + real + 2**16


class TestEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_ratio_within_frame_bounds(self, seed):
        grid = GridSpec(n=12, box=7.0)
        pert = np.stack(
            [random_field(grid, seed=seed * 13 + i, band=3, amp= 0.2) for i in range(10)]
        )
        sigma_st = 0.05 * np.exp(-grid.radius**2)
        pert_hat = grid.transform(pert)
        rep = energy_report(grid, pert_hat, sigma_st, GAMMA)
        sobolev_sq = grid.spectral_l2_sq(pert_hat, grid.sobolev_multiplier(EnergyWeights().order))
        assert 0.5 <= rep["energy_full"] / sobolev_sq <= 2.0


class TestCertification:
    def test_exact_exponential_series(self):
        lam, c, dt, e0 = 0.8, 2.5, 0.05, 3.0
        t = np.arange(60) * dt
        e = e0 * np.exp(-lam * t)
        d = c * e
        res = lyapunov_certify(t, e, d)
        strict_exact = (1.0 - np.exp(-lam * dt)) / (dt * c)
        assert np.isclose(res.lambda_strict, strict_exact, rtol=1e-12)
        # tolerance credit is largest where D is smallest, so the binding
        # step for lambda_best is the first one
        best_exact = strict_exact + res.tol_disc / (dt * c * e0)
        assert np.isclose(res.lambda_best, best_exact, rtol=1e-12)
        assert res.violations == []
        assert res.certified

    def test_detects_injected_bump(self):
        dt = 0.1
        t = np.arange(40) * dt
        e = 5.0 * np.exp(-0.5 * t)
        d = np.ones_like(e)
        e[20] = e[19] + 1.0  # energy jumps upward at step 19
        res = lyapunov_certify(t, e, d)
        assert 19 in res.violations
        assert res.lambda_best < 0.0
        assert not res.certified

    def test_zero_trajectory_is_vacuous(self):
        t = np.linspace(0.0, 1.0, 11)
        z = np.zeros_like(t)
        res = lyapunov_certify(t, z, z)
        assert res.lambda_best == np.inf
        assert res.violations == []
        assert res.certified

    def test_constant_energy_no_dissipation_is_vacuous(self):
        t = np.linspace(0.0, 1.0, 11)
        e = np.full_like(t, 2.0)
        res = lyapunov_certify(t, e, np.zeros_like(t))
        assert res.lambda_best == np.inf and res.violations == []

    def test_rejects_nonuniform_times(self):
        t = np.array([0.0, 0.1, 0.25])
        with pytest.raises(ValueError, match="uniformly spaced"):
            lyapunov_certify(t, t, t)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            lyapunov_certify(np.arange(3.0), np.arange(3.0), np.arange(4.0))


class TestTrajectorySmoke:
    def test_small_run_certifies_both_pairs(self):
        grid = GridSpec(n=16, box=10.0)
        n_b = background_profile(grid, "gaussian", eps=0.05, width=1.5)
        st_state = picard_iterate(grid, n_b, gamma=GAMMA)
        sigma_st = sigma_of_n(st_state.n_st, GAMMA)
        base = np.zeros((10,) + grid.shape)
        base[0] = sigma_st
        base[4:7] = st_state.e_st / np.sqrt(GAMMA)

        pert0 = compatible_perturbation(grid, GAMMA, sigma_st, amp=1e-3, seed=7)
        y0 = grid.transform(base + pert0)
        base_hat = grid.transform(base)

        times, e_f, d_f, e_h, d_h = [], [], [], [], []
        for tau, y in evolve_band(grid, GAMMA, y0, 2.0, 0.25, lambda y: 0.05, {}):
            rep = energy_report(grid, y - base_hat, sigma_st, GAMMA)
            times.append(tau)
            e_f.append(rep["energy_full"])
            d_f.append(rep["dissipation_full"])
            e_h.append(rep["energy_high"])
            d_h.append(rep["dissipation_high"])

        full = lyapunov_certify(np.array(times), np.array(e_f), np.array(d_f))
        high = lyapunov_certify(np.array(times), np.array(e_h), np.array(d_h))
        assert full.certified and full.lambda_best > 0.0
        assert high.certified and high.lambda_best > 0.0
        # strict (tolerance-free) rate should also be positive here
        assert full.lambda_strict > 0.0
