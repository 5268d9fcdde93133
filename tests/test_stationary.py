"""Stationary-state construction: kernel, nonlinearity, fixed point."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import emlab.stationary as stationary
from emlab.dynamics import InadmissibleStateError
from emlab.grid import GridSpec
from emlab.stationary import (
    DivergenceError,
    background_profile,
    g_nonlinearity,
    picard_iterate,
    verify_smallness_bounds,
    yukawa_convolve,
)

from _helpers import random_field


class TestNonlinearity:
    def test_vanishes_for_quadratic_pressure(self):
        x = np.linspace(-1.0, 3.0, 101)
        assert np.abs(g_nonlinearity(x, gamma=2.0)).max() < 1e-14

    def test_cubic_pressure_value(self):
        # gamma = 3, x = 3: (2/3*3 + 1)^{1/2} - 1 - 1 = sqrt(3) - 2
        assert g_nonlinearity(3.0, gamma=3.0) == pytest.approx(
            -0.2679491924311228, abs=1e-15
        )

    def test_zero_at_origin(self):
        for gamma in (1.4, 5.0 / 3.0, 2.0, 3.0):
            assert abs(g_nonlinearity(0.0, gamma)) < 1e-15

    def test_flat_at_origin(self):
        # g'(0) = 0: finite differences around 0 shrink quadratically
        for gamma in (1.4, 3.0):
            h = 1e-4
            slope = (g_nonlinearity(h, gamma) - g_nonlinearity(-h, gamma)) / (2 * h)
            assert abs(slope) < 1e-7

    def test_inadmissible_argument_raises(self):
        with pytest.raises(InadmissibleStateError, match="admissible"):
            g_nonlinearity(-2.0, gamma=3.0)


class TestKernel:
    def test_l1_norm_closed_form(self):
        # the kernel is negative, so its mass is minus its symbol at xi = 0
        g = GridSpec(n=8, box=5.0)
        for gamma in (1.4, 5.0 / 3.0, 2.0, 3.0):
            mass = -stationary.yukawa_multiplier(g, gamma)[0, 0, 0]
            assert mass == pytest.approx(gamma, rel=1e-15)

    def test_l1_norm_against_radial_quadrature(self):
        # integral |G| dx = int_0^inf r exp(-r/sqrt(gamma)) dr
        for gamma in (1.4, 5.0 / 3.0, 2.0, 3.0):
            val, _ = integrate.quad(
                lambda r: r * np.exp(-r / np.sqrt(gamma)), 0, np.inf
            )
            assert val == pytest.approx(gamma, rel=1e-9)

    def test_constant_field_maps_to_minus_gamma(self):
        g = GridSpec(n=16, box=9.0)
        for gamma in (1.4, 2.0, 3.0):
            out = yukawa_convolve(g, np.full(g.shape, 0.7), gamma)
            assert np.abs(out + gamma * 0.7).max() < 1e-12

    def test_screened_inverse_identity(self):
        # (Laplacian - 1/gamma)(G * f) = f for arbitrary grid data
        g = GridSpec(n=16, box=9.0)
        f = random_field(g, seed=21)
        gamma = 5.0 / 3.0
        conv = yukawa_convolve(g, f, gamma)
        back = g.inverse(g.laplacian(g.transform(conv))) - conv / gamma
        assert np.abs(back - f).max() < 1e-10

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_young_inequality_property(self, seed):
        g = GridSpec(n=8, box=5.0)
        gamma = 5.0 / 3.0
        f = random_field(g, seed=seed)
        assert g.l2_norm(yukawa_convolve(g, f, gamma)) <= gamma * g.l2_norm(f) + 1e-12

    def test_weighted_bound_with_grid_estimated_constant(self):
        # ||(1+r)^{k/2} (G*f)|| <= sqrt(C_k * gamma) ||(1+r)^{k/2} f|| where
        # C_k is the grid estimate of sup_x (1+|x|)^k (|G| * (1+|.|)^{-k})(x).
        # Soft check: the grid max samples the sup, so allow 10% headroom.
        g = GridSpec(n=32, box=20.0)
        gamma, k = 5.0 / 3.0, 2
        w = (1.0 + g.radius) ** k
        conv_winv = -yukawa_convolve(g, 1.0 / w, gamma)  # |G| * w^{-1}, kernel is negative
        c_k = float((w * conv_winv).max())
        bound = np.sqrt(c_k * gamma)
        rng = np.random.default_rng(7)
        for seed in range(5):
            f = random_field(g, seed=100 + seed)
            lhs = g.l2_norm(np.sqrt(w) * yukawa_convolve(g, f, gamma))
            rhs = g.l2_norm(np.sqrt(w) * f)
            assert lhs <= 1.1 * bound * rhs


class TestPicard:
    def test_vacuum_background_gives_zero(self):
        g = GridSpec(n=16, box=9.0)
        state = picard_iterate(g, np.ones(g.shape), gamma=5.0 / 3.0)
        assert state.converged
        assert len(state.residual_history) == 1
        assert np.abs(state.potential).max() == 0.0
        assert np.abs(state.n_st - 1.0).max() == 0.0
        assert np.abs(state.e_st).max() == 0.0

    def test_quadratic_pressure_converges_in_one_nontrivial_step(self):
        # gamma = 2 kills the nonlinearity, so Q = G * (1 - n_b) exactly
        g = GridSpec(n=16, box=9.0)
        n_b = background_profile(g, "gaussian", eps=0.02, width=1.5)
        state = picard_iterate(g, n_b, gamma=2.0)
        assert state.converged
        assert len(state.residual_history) == 2
        expect = yukawa_convolve(g, 1.0 - n_b, 2.0)
        assert np.abs(state.potential - expect).max() < 1e-14

    def test_moderate_background_diagnostics(self):
        g = GridSpec(n=16, box=10.0)
        n_b = background_profile(g, "gaussian", eps=0.05, width=1.5)
        state = picard_iterate(g, n_b, gamma=5.0 / 3.0)
        assert state.converged
        assert state.elliptic_residual_l2 <= 1e-8
        assert state.curl_e_max <= 1e-10
        assert max(state.contraction_factors) < 0.1
        # density mass balances the background on the periodic box
        assert g.integral(state.n_st - n_b) == pytest.approx(0.0, abs=1e-10)

    def test_double_bump_profile_converges(self):
        g = GridSpec(n=16, box=10.0)
        n_b = background_profile(g, "double-bump", eps=0.03, width=1.5)
        state = picard_iterate(g, n_b, gamma=1.4)
        assert state.converged
        assert state.elliptic_residual_l2 <= 1e-8

    def test_large_background_refused(self):
        g = GridSpec(n=16, box=10.0)
        n_b = background_profile(g, "gaussian", eps=0.8, width=2.0)
        with pytest.raises(ValueError, match="contraction gate"):
            picard_iterate(g, n_b, gamma=5.0 / 3.0)

    def test_divergence_detection(self, monkeypatch):
        # an expanding map must be reported after two expanding steps
        monkeypatch.setattr(stationary, "g_nonlinearity", lambda x, gamma: 5.0 * x)
        g = GridSpec(n=8, box=5.0)
        n_b = 1.0 + random_field(g, seed=3, band=1, amp=1e-3)
        with pytest.raises(DivergenceError, match="expanding"):
            picard_iterate(g, n_b, gamma=2.0)

    def test_smallness_ratios_stable_under_amplitude_halving(self):
        g = GridSpec(n=16, box=10.0)
        gamma = 5.0 / 3.0
        ratios = []
        for eps in (0.05, 0.025):
            n_b = background_profile(g, "gaussian", eps=eps, width=1.5)
            state = picard_iterate(g, n_b, gamma)
            r = verify_smallness_bounds(g, n_b, state)
            ratios.append((r["r1"], r["r2"]))
        for a, b in zip(*ratios):
            assert abs(a - b) / a < 0.10
