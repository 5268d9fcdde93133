"""Oracle tests for the linearized decay laboratory.

Eigenstructure oracles are closed-form (block characteristic polynomials
of the symbol); whole-space norms are checked against Gaussian moment
integrals; decay exponents against the slow-branch analysis.
"""
import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment
from scipy.special import gamma as scipy_gamma
from scipy.special import gammaincc

from emlab import dynamics as dyn
from emlab.dynamics import _phi_functions
from emlab.grid import GridSpec
from emlab.lindecay import (
    QuadratureScheme,
    block_eig,
    decay_trajectory,
    fit_decay,
    initial_modes,
    quadrature_tail_bound,
)
from emlab.lindecay import (
    _DIR_B,
    _DIR_E,
    _DIR_U,
    _R_MAX,
    _RHO_AMP,
    _gaussian_moment,
    _longitudinal_generator,
    _moment_gamma,
    _transverse_generator,
    _upper_gamma_q72,
)
from emlab.stationary import background_profile, picard_iterate

from _helpers import (
    band_frequencies,
    compatible_flow,
    constraint_matrix,
    duhamel_crosscheck,
    flat_flow,
    initial_norms_analytic,
    linear_flow,
    primitive_flow,
    spectral_stability_report,
    symbol_matrix,
)

GAMMA = 5.0 / 3.0
WIDTH = 2.0  # the config's family_width

# the default angular rule integrates the norms exactly (TestQuadrature);
# radial refinement is what convergence actually needs
FAST = QuadratureScheme()
FAST_FINE = QuadratureScheme(radial_nodes=32)


def channel_norms(width, t, scheme):
    """All five whole-space channel norms of the family at one time."""
    traj = decay_trajectory(width, GAMMA, [t], scheme)
    return {name: norm[0] for name, norm in traj.norms.items()}


def match_eigs(a, b):
    """Max pairing distance between two eigenvalue multisets."""
    cost = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    r, c = linear_sum_assignment(cost)
    return cost[r, c].max()


class TestSymbol:
    def test_trace_is_minus_three(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = symbol_matrix(rng.standard_normal(3) * 5, GAMMA)
            assert abs(np.trace(a) + 3.0) < 1e-14

    def test_zero_frequency_eigenvalues(self):
        eigs = np.linalg.eigvals(symbol_matrix(np.zeros(3), GAMMA))
        pair = [(-1.0 + 1j * np.sqrt(3.0)) / 2.0, (-1.0 - 1j * np.sqrt(3.0)) / 2.0]
        expected = np.array(pair * 3 + [0.0] * 4)
        assert match_eigs(eigs, expected) < 1e-12

    @pytest.mark.parametrize("k", [0.3, 1.7, 8.0])
    @pytest.mark.parametrize("gamma", [1.4, 5.0 / 3.0, 2.0])
    def test_characteristic_polynomial_blocks(self, k, gamma):
        # longitudinal cubic lam(lam^2 + lam + 1 + gamma k^2), transverse
        # cubic lam^3 + lam^2 + (k^2+1) lam + k^2 twice, plus one more
        # exact zero (solenoidal-violating longitudinal B)
        a = symbol_matrix(np.array([0.0, k, 0.0]), gamma)
        eigs = np.linalg.eigvals(a)
        lon = np.roots([1.0, 1.0, 1.0 + gamma * k**2, 0.0])
        tra = np.roots([1.0, 1.0, k**2 + 1.0, k**2])
        expected = np.concatenate([lon, tra, tra, [0.0]])
        assert match_eigs(eigs, expected) < 1e-12

    def test_two_exact_zero_eigenvalues_at_generic_frequency(self):
        eigs = np.linalg.eigvals(symbol_matrix(np.array([0.9, -1.4, 0.3]), GAMMA))
        assert np.sum(np.abs(eigs) < 1e-12) == 2

    def test_constraint_rows_annihilate_the_symbol(self):
        # d/dt (i xi.E + rho) = 0 and d/dt (i xi.B) = 0 as matrix algebra
        rng = np.random.default_rng(1)
        for _ in range(10):
            xi = rng.standard_normal(3) * 4
            prod = constraint_matrix(xi) @ symbol_matrix(xi, GAMMA)
            assert np.abs(prod).max() < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_spectrum_is_rotation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal(3) * rng.uniform(0.1, 10.0)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        e1 = np.linalg.eigvals(symbol_matrix(xi, GAMMA))
        e2 = np.linalg.eigvals(symbol_matrix(q @ xi, GAMMA))
        assert match_eigs(e1, e2) < 1e-10


class TestPropagation:
    # the flat flow e^{tA} as the shipped integrator applies it: one
    # zero-remainder step_rk4 over FlatFlows at the band frequencies of a grid

    @staticmethod
    def random_amplitudes(grid, seed):
        """Gauss-incompatible amplitudes (modes, 10) on the grid's band: they
        exercise every block, the conserved defect and B . xi^ included."""
        rng = np.random.default_rng(seed)
        shape = (band_frequencies(grid).shape[0], 10)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def test_time_zero_is_identity(self):
        grid = GridSpec(16, 10.0)
        y0 = self.random_amplitudes(grid, 2)
        assert np.abs(flat_flow(grid, GAMMA, y0, 0.0) - y0).max() < 1e-12

    def test_small_step_taylor_order(self):
        grid = GridSpec(16, 10.0)
        a = symbol_matrix(band_frequencies(grid), GAMMA)
        y0 = self.random_amplitudes(grid, 4)
        ay0 = (a @ y0[..., None])[..., 0]
        aay0 = (a @ ay0[..., None])[..., 0]
        hs = np.array([0.1, 0.05, 0.025, 0.0125])
        errs = [
            np.linalg.norm(flat_flow(grid, GAMMA, y0, h) - (y0 + h * ay0 + 0.5 * h**2 * aay0))
            for h in hs
        ]
        slopes = np.diff(np.log(errs)) / np.diff(np.log(hs))
        assert abs(slopes[-1] - 3.0) < 0.1

    def test_block_split_matches_dense_expm(self):
        # the band of GridSpec(48, 5.0) reaches |xi| = 34.8; the samples are
        # xi = 0, the first mode on each axis, the modes nearest |xi| = 30
        # and random ones
        grid = GridSpec(48, 5.0)
        xi = band_frequencies(grid)
        r = np.linalg.norm(xi, axis=1)
        rng = np.random.default_rng(8)
        dk = 2.0 * np.pi / grid.box
        axes = [int(np.flatnonzero(np.all(np.isclose(xi, dk * e), axis=1))[0]) for e in np.eye(3)]
        sample = np.concatenate([
            [int(np.argmin(r))], axes, np.argsort(np.abs(r - 30.0))[:4],
            rng.choice(len(xi), 6, replace=False),
        ])
        assert r[sample[0]] == 0.0 and abs(r[sample[4]] - 30.0) < 0.1
        y0 = self.random_amplitudes(grid, 8)
        for t in [0.0, 0.3, 5.0, 40.0, 400.0]:
            y = flat_flow(grid, GAMMA, y0, t)[sample]
            ref = linear_flow(xi[sample], y0[sample], GAMMA, t)
            err = np.linalg.norm(y - ref, axis=1)
            assert (err <= 1e-10 * np.linalg.norm(ref, axis=1)).all(), (t, err)

    def test_transverse_roots_stay_distinct(self):
        # at xi = r e_z the block (u_x, E_x, B_y) of the symbol is closed
        # and is the transverse block up to the sign of its third coordinate
        idx = [1, 4, 8]
        for r in np.linspace(0.0, 100.0, 41):
            a = symbol_matrix(np.array([0.0, 0.0, r]), GAMMA)
            rest = np.delete(np.arange(10), idx)
            assert np.abs(a[np.ix_(idx, rest)]).max() == 0.0
            assert np.abs(a[np.ix_(rest, idx)]).max() == 0.0
            p0, p1, p2, p3 = np.poly(a[np.ix_(idx, idx)]).real
            disc = 18 * p0 * p1 * p2 * p3 - 4 * p1**3 * p3 + p1**2 * p2**2 \
                - 4 * p0 * p2**3 - 27 * p0**2 * p3**2
            s = r**2
            closed = -3.0 + 4.0 * s - 20.0 * s**2 - 4.0 * s**3
            assert abs(disc - closed) <= 1e-9 * abs(closed)
        s = np.linspace(0.0, 100.0, 100_001) ** 2
        assert (-3.0 + 4.0 * s - 20.0 * s**2 - 4.0 * s**3 < 0.0).all()
        # distinct roots keep the eigenvector matrices well conditioned
        r = np.concatenate([[0.0], np.logspace(-8.0, 8.0, 20_001)])
        _, vecs = np.linalg.eig(_transverse_generator(r))
        assert np.linalg.cond(vecs).max() <= 10.0

    def test_grid_shells_match_dense_expm(self):
        # many band modes share a radius and so share one block flow; every
        # mode, xi = 0 included, is checked
        grid = GridSpec(16, 20.0)
        xi = band_frequencies(grid)
        flows = dyn.FlatFlows(grid, GAMMA)
        assert flows.radii.size < len(xi)
        assert np.allclose(flows.radii[flows._radius], np.linalg.norm(xi, axis=1),
                           rtol=1e-15, atol=0.0)
        y0 = self.random_amplitudes(grid, 9)
        for t in [0.0, 0.7, 5.0, 60.0]:
            y = flat_flow(grid, GAMMA, y0, t)
            ref = linear_flow(xi, y0, GAMMA, t)
            err = np.linalg.norm(y - ref, axis=1)
            assert (err <= 1e-10 * np.linalg.norm(ref, axis=1)).all(), (t, err.max())

    def test_constraints_invariant_to_late_times(self):
        grid = GridSpec(16, 10.0)
        xi = band_frequencies(grid)
        y0 = initial_modes(WIDTH, xi)
        c = constraint_matrix(xi)
        for t in [1.0, 10.0, 100.0, 1000.0]:
            yt = flat_flow(grid, GAMMA, y0, t)
            assert np.abs(c @ yt[..., None]).max() < 1e-10


class TestQuadrature:
    def test_default_node_count_and_positivity(self):
        r, xi, w = QuadratureScheme().nodes()
        assert r.shape == (96,)
        assert xi.shape == (96 * 2 * 4, 3)
        assert (w > 0.0).all()

    def test_default_directions_exact_to_degree_three(self):
        # per radius, sum w x^a y^b z^c / (w_r r^(a+b+c)) is the sphere
        # integral: 4 pi for 1, 4 pi / 3 for a square, 0 for any odd power
        scheme = QuadratureScheme()
        r, xi, w = scheme.nodes()
        _, wr = scheme.radial_rule()
        xi = xi.reshape(r.size, -1, 3) / r[:, None, None]
        w = w.reshape(r.size, -1) / wr[:, None]
        for a, b, c in itertools.product(range(4), repeat=3):
            if a + b + c > 3:
                continue
            if a % 2 or b % 2 or c % 2:
                exact = 0.0
            else:
                exact = 4.0 * np.pi / (3.0 if a + b + c == 2 else 1.0)
            got = (w * xi[..., 0] ** a * xi[..., 1] ** b * xi[..., 2] ** c).sum(axis=1)
            assert np.abs(got - exact).max() <= 1e-14, ((a, b, c), exact, got[:3])

    @pytest.mark.parametrize("width", [WIDTH, 1.3])
    def test_default_directions_match_a_fine_rule(self, width):
        # test_5's time grid, every channel against 16 x 32 directions
        times = np.unique(np.concatenate(
            [[0.0], np.linspace(5.0, 45.0, 17), np.geomspace(50.0, 500.0, 24)]
        ))
        coarse = decay_trajectory(width, GAMMA, times, QuadratureScheme())
        fine = decay_trajectory(width, GAMMA, times, QuadratureScheme(theta_nodes=16, phi_nodes=32))
        for name, ref in fine.norms.items():
            assert (np.abs(coarse.norms[name] - ref) <= 1e-13 * ref).all(), name

    @pytest.mark.parametrize("radial_nodes", [2, 3, 8, 16, 32, 64, 200, 1000])
    def test_smallest_radius_is_the_rules_smallest_node(self, radial_nodes):
        scheme = QuadratureScheme(radial_nodes=radial_nodes)
        r, _ = scheme.radial_rule()
        # radial_rule places a node to a few ulps of its panel, [0, 24 / 4^5]
        assert abs(scheme.smallest_radius() - r.min()) <= 4 * np.finfo(float).eps * 24.0 / 4**5

    def test_smallest_radius_needs_no_rule_of_that_size(self):
        # far past any rule leggauss could build, the Mehler-Heine limit: n theta
        # tends to j, the first zero of J_0, so t -> j^2 / (4 n^2) (Szego,
        # Orthogonal Polynomials, Theorem 8.1.1)
        j = 2.404825557695773
        n = 10**12
        got = QuadratureScheme(radial_nodes=n).smallest_radius()
        assert abs(got / (24.0 / 4**5 * j**2 / (4.0 * n**2)) - 1.0) < 1e-9

    def test_validation(self):
        for name in ("radial_nodes", "theta_nodes"):
            with pytest.raises(ValueError, match=f"{name} must be >= 2"):
                QuadratureScheme(**{name: 1})
        # 2 phi nodes miss cos^2 phi: the norms would be off by 4-16 %
        with pytest.raises(ValueError, match="phi_nodes must be >= 3"):
            QuadratureScheme(phi_nodes=2)

    def test_initial_norms_match_closed_form(self):
        for width in (WIDTH, 1.3):
            ana = initial_norms_analytic(width)
            quad = channel_norms(width, 0.0, FAST)
            for key in ("rho", "u", "e", "b", "grad_b"):
                assert abs(quad[key] - ana[key]) < 1e-8 * ana[key], (width, key)

    def test_radial_doubling_stability_fields(self):
        dbl = dataclasses.replace(FAST, radial_nodes=2 * FAST.radial_nodes)
        for t in [1.0, 1000.0]:
            a, b = channel_norms(WIDTH, t, FAST), channel_norms(WIDTH, t, dbl)
            for key in ("u", "e", "b", "grad_b"):
                assert abs(a[key] - b[key]) < 1e-6 * b[key], (key, t)

    def test_radial_doubling_stability_rho_early_times(self):
        # the rho integrand oscillates in |xi| with phase growing in t;
        # the refined radial rule certifies t <= 10
        dbl = dataclasses.replace(FAST_FINE, radial_nodes=2 * FAST_FINE.radial_nodes)
        for t in [1.0, 5.0, 10.0]:
            a = channel_norms(WIDTH, t, FAST_FINE)["rho"]
            b = channel_norms(WIDTH, t, dbl)["rho"]
            assert abs(a - b) < 1e-6 * b, t

    def test_gram_reduction_matches_per_node_sum(self):
        scheme = QuadratureScheme(radial_nodes=6, theta_nodes=4, phi_nodes=8)
        times = np.array([0.0, 0.3, 5.0, 40.0, 400.0])
        _, xi, w = scheme.nodes()
        r2 = (xi**2).sum(axis=1)
        for width in (WIDTH, 1.3):
            traj = decay_trajectory(width, GAMMA, times, scheme)
            y0 = initial_modes(width, xi)
            for j, t in enumerate(times):
                dens = np.abs(compatible_flow(xi, y0, GAMMA, t)) ** 2
                for name, sl, s in [
                    ("rho", slice(0, 1), 0), ("u", slice(1, 4), 0), ("e", slice(4, 7), 0),
                    ("b", slice(7, 10), 0), ("grad_b", slice(7, 10), 1),
                ]:
                    ref = np.sqrt(np.sum(w * r2**s * dens[:, sl].sum(axis=1)))
                    assert abs(traj.norms[name][j] - ref) <= 1e-12 * ref, (width, name, t)


class TestClosedForms:
    """The special-function values lindecay computes without scipy, against
    scipy.special."""

    def test_q72_matches_gammaincc(self):
        xs = np.concatenate([[0.0], np.logspace(-3.0, np.log10(600.0), 200)])
        for x in xs:
            ref = gammaincc(3.5, x)
            if ref >= 1e-300:
                assert abs(_upper_gamma_q72(float(x)) - ref) <= 1e-13 * ref, x

    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_half_integer_gamma_within_one_ulp(self, p):
        ref = scipy_gamma((p + 3.0) / 2.0)
        assert abs(_moment_gamma(p) - ref) <= np.spacing(ref)
        for width in (0.5, 1.0, 2.0):
            moment = 2.0 * np.pi * ref / width ** (p + 3.0)
            assert abs(_gaussian_moment(p, width) - moment) <= 1e-15 * moment

    def test_moment_gamma_refuses_odd_powers(self):
        with pytest.raises(ValueError, match="even"):
            _moment_gamma(1)

    @pytest.mark.parametrize("reach", [0.5, 1.0, 3.0, 6.0])
    def test_tail_bound_matches_scipy_formula(self, reach):
        # reach = width * r_max: x = reach^2 keeps gammaincc clear of underflow
        width = reach / _R_MAX
        x = (width * _R_MAX) ** 2
        amp = max(_RHO_AMP**2, *(float(np.dot(d, d)) for d in (_DIR_U, _DIR_E, _DIR_B)))
        ref = (
            amp * 2.0 * np.pi * scipy_gamma(3.5) * gammaincc(3.5, x)
            / width**7 * (1.0 + _RHO_AMP**2)
        )
        bound = quadrature_tail_bound(width)
        assert ref > 0.0
        assert abs(bound - ref) <= 1e-13 * ref


class TestFamily:
    def test_validation(self):
        for width in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="width must be positive"):
                decay_trajectory(width, GAMMA, [0.0])

    def test_built_modes_satisfy_constraints(self):
        # random frequencies, and the nodes decay_trajectory evaluates: the
        # radii of the module's and the config's default radial rules, times
        # the 8 directions of the angular rule
        rng = np.random.default_rng(7)
        nodes = [QuadratureScheme(radial_nodes=k).nodes()[1] for k in (16, 32)]
        xi = np.concatenate([rng.standard_normal((200, 3)) * 3, *nodes])
        for width in (WIDTH, 1.3):
            y = initial_modes(width, xi)
            gauss_e = np.einsum("ki,ki->k", 1j * xi, y[:, 4:7]) + y[:, 0]
            gauss_b = np.einsum("ki,ki->k", 1j * xi, y[:, 7:10])
            assert np.abs(gauss_e).max() < 1e-12
            assert np.abs(gauss_b).max() < 1e-12


class TestFitDecay:
    def test_exact_power_law(self):
        t = np.linspace(0.0, 400.0, 60)
        y = 7.0 * (1.0 + t) ** (-0.75)
        fit = fit_decay(t, y, (0.0, 400.0), target=-0.75, tolerance=0.01)
        assert abs(fit.exponent + 0.75) < 1e-12
        assert abs(fit.intercept - np.log(7.0)) < 1e-12
        assert fit.residual < 1e-12
        assert fit.passed

    def test_exact_exponential(self):
        t = np.linspace(0.0, 30.0, 40)
        y = 2.0 * np.exp(-0.5 * t)
        fit = fit_decay(t, y, (0.0, 30.0), kind="exponential")
        assert abs(fit.exponent + 0.5) < 1e-12

    def test_noise_robustness_monte_carlo(self):
        t = np.geomspace(50.0, 500.0, 24)
        y_true = 3.0 * (1.0 + t) ** (-1.25)
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            y = y_true * (1.0 + 0.01 * rng.standard_normal(t.size))
            fit = fit_decay(t, y, (50.0, 500.0))
            worst = max(worst, abs(fit.exponent + 1.25))
        assert worst <= 0.02

    def test_window_needs_ten_samples(self):
        t = np.linspace(0.0, 10.0, 30)
        with pytest.raises(ValueError, match=">= 10"):
            fit_decay(t, np.exp(-t), (9.0, 10.0))

    def test_rejects_nonpositive_values(self):
        t = np.linspace(0.0, 10.0, 20)
        y = np.exp(-t)
        y[5] = 0.0
        with pytest.raises(ValueError, match="positive"):
            fit_decay(t, y, (0.0, 10.0))

    def test_rejects_unknown_kind(self):
        t = np.linspace(0.0, 10.0, 20)
        with pytest.raises(ValueError, match="kind"):
            fit_decay(t, np.exp(-t), (0.0, 10.0), kind="loglog")

    def test_no_verdict_without_target(self):
        t = np.linspace(0.0, 10.0, 20)
        assert fit_decay(t, np.exp(-t), (0.0, 10.0)).passed is None


TIMES = np.unique(
    np.concatenate([[0.0, 20.0], np.linspace(5.0, 45.0, 17), np.geomspace(50.0, 500.0, 24)])
)


@pytest.fixture(scope="module")
def trajectory():
    return decay_trajectory(WIDTH, GAMMA, TIMES, FAST_FINE)


class TestDecayExponents:
    @pytest.mark.parametrize(
        "channel,target,tol",
        [("u", -1.25, 0.10), ("e", -1.25, 0.10), ("b", -0.75, 0.08), ("grad_b", -1.25, 0.10)],
    )
    def test_power_law_channels(self, trajectory, channel, target, tol):
        fit = fit_decay(
            TIMES, trajectory.norms[channel], (50.0, 500.0), target, tol
        )
        assert fit.passed, (channel, fit.exponent)
        assert fit.residual < 0.05

    def test_rho_exponential_rate(self, trajectory):
        fit = fit_decay(
            TIMES,
            trajectory.norms["rho"],
            (5.0, 45.0),
            target=-0.5,
            tolerance=0.05,
            kind="exponential",
        )
        assert fit.passed, fit.exponent

    def test_rho_keeps_its_rate_to_late_times(self, trajectory):
        # the norms drop the conserved Gauss defect, which roundoff would
        # otherwise hold at a floor of about 4e-17 from t ~ 75 on
        fit = fit_decay(
            TIMES,
            trajectory.norms["rho"],
            (50.0, 500.0),
            target=-0.5,
            tolerance=0.05,
            kind="exponential",
        )
        assert fit.passed, fit.exponent

    def test_rho_prefactor_bound_at_t20(self, trajectory):
        i20 = int(np.argmin(np.abs(TIMES - 20.0)))
        assert TIMES[i20] == 20.0
        r0 = trajectory.norms["rho"][0]
        assert trajectory.norms["rho"][i20] <= 1.1 * np.exp(-10.0) * r0

    def test_low_frequency_b_envelope_is_monotone(self):
        traj = decay_trajectory(
            3.0, GAMMA, np.linspace(0.0, 50.0, 26), FAST
        )
        assert (np.diff(traj.norms["b"]) < 0.0).all()

    def test_tail_bound_is_negligible(self, trajectory):
        assert trajectory.tail_bound < 1e-100


class TestStability:
    def test_spectrum_scan(self):
        rep = spectral_stability_report(GAMMA)
        assert rep["max_real_part"] <= 1e-12
        assert rep["max_real_part_compatible"] < 0.0
        assert rep["c_fit"] > 0.0

    def test_scan_is_deterministic(self):
        a = spectral_stability_report(GAMMA, n_samples=200, seed=11)
        b = spectral_stability_report(GAMMA, n_samples=200, seed=11)
        assert a == b


def phi_tables(r: np.ndarray, t: float):
    """V, V^{-1} and z = t lambda of both blocks at radii r, and the tables
    e^z, e^{z/2}, phi_1(z/2), phi_1(z), phi_2(z), phi_3(z) that FlatFlows
    builds its step weights from."""
    lam, vecs, inv = block_eig(r, GAMMA)
    z = t * lam
    whole, half = _phi_functions(z), _phi_functions(0.5 * z)
    return vecs, inv, z, (whole[0], half[0], half[1], whole[1], whole[2], whole[3])


def phi_reference(gen: np.ndarray, t: float) -> list[np.ndarray]:
    """e^{tG}, phi_1(tG), phi_2(tG), phi_3(tG) of a 3x3 block: the top row of
    expm of the augmented matrix [[tG, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0]."""
    aug = np.zeros((12, 12), dtype=complex)
    aug[0:3, 0:3] = t * gen
    for k in range(3):
        aug[3 * k:3 * k + 3, 3 * k + 3:3 * k + 6] = np.eye(3)
    top = expm(aug)[0:3]
    return [top[:, 3 * k:3 * k + 3] for k in range(4)]


class TestPhiTables:
    # the band edge of the N=48, L=40 grid, and of its corner mode
    edge = 16 * 2.0 * np.pi / 40.0

    @pytest.mark.parametrize("r", [0.0, 1e-6, edge, np.sqrt(3.0) * edge])
    @pytest.mark.parametrize("t", [0.5, 0.25])
    def test_tables_match_augmented_expm(self, r, t):
        # the longitudinal eigenvalue 0 and the slow transverse root
        # (about -r^2) sit at z = 0 here, where closed forms would cancel
        vecs, inv, z, tables = phi_tables(np.array([r]), t)
        gens = [_longitudinal_generator(np.array(r), GAMMA), _transverse_generator(np.array(r))]
        for block, gen in enumerate(gens):
            assert np.allclose(vecs[block, 0] @ np.diag(z[block, 0]) @ inv[block, 0], t * gen,
                               rtol=0.0, atol=1e-14 * max(1.0, r))
            exp, exp_half, phi_half, phi1, phi2, phi3 = (
                vecs[block, 0] @ np.diag(f[block, 0]) @ inv[block, 0] for f in tables
            )
            whole, half = phi_reference(gen, t), phi_reference(gen, 0.5 * t)
            for got, ref in zip((exp, phi1, phi2, phi3, exp_half, phi_half),
                                whole + half[0:2]):
                assert np.abs(got - ref).max() <= 1e-13, (block, r, t)

    def test_longitudinal_eigenvalues_closed_form(self):
        r = np.array([0.0, 0.3, 2.5])
        _, _, z, _ = phi_tables(r, 1.0)
        root = np.sqrt(0.75 + GAMMA * r**2)
        for k in range(r.size):
            assert match_eigs(z[0, k], [0.0, -0.5 + 1j * root[k], -0.5 - 1j * root[k]]) <= 1e-13

    def test_series_and_recurrence_agree_across_the_unit_circle(self):
        # the two evaluations meet at |z| = 1; both must be smooth there
        angles = np.linspace(0.0, 2.0 * np.pi, 13)
        inside = _phi_functions((1.0 - 1e-9) * np.exp(1j * angles))
        outside = _phi_functions((1.0 + 1e-9) * np.exp(1j * angles))
        assert np.abs(inside - outside).max() <= 1e-8
        # phi_k(0) = 1/k!, and far out the recurrence is the closed form
        assert np.array_equal(_phi_functions(np.zeros(1))[:, 0], [1.0, 1.0, 0.5, 1.0 / 6.0])
        z = np.array([-40.0 + 3.0j, 2.0j])
        closed = [np.exp(z), (np.exp(z) - 1) / z, (np.exp(z) - 1 - z) / z**2,
                  (np.exp(z) - 1 - z - z**2 / 2) / z**3]
        assert np.allclose(_phi_functions(z), closed, rtol=1e-14, atol=0.0)


class TestDuhamel:
    grid = GridSpec(n=16, box=20.0)

    def background_base(self):
        n_b = background_profile(self.grid, "gaussian", eps=0.05, width=1.5)
        state = picard_iterate(self.grid, n_b, gamma=GAMMA)
        base = np.zeros((10,) + self.grid.shape)
        base[0] = state.n_st
        base[4:7] = state.e_st
        return base

    def test_zero_amplitude_zero_gap(self):
        rep = duhamel_crosscheck(amp=0.0, t_end=1.0, gamma=GAMMA, grid=self.grid, dt=0.05)
        assert rep["gap"] == 0.0

    def test_flat_state_gap_scales_quadratically(self):
        rep = duhamel_crosscheck(amp=1e-4, t_end=2.0, gamma=GAMMA, grid=self.grid, dt=0.05)
        assert 0.2 <= rep["ratio"] <= 0.35

    def test_background_degrades_scaling(self):
        rep = duhamel_crosscheck(
            amp=1e-4, t_end=2.0, gamma=GAMMA, grid=self.grid, dt=0.05,
            base_state=self.background_base(),
        )
        assert rep["ratio"] > 0.35

    @pytest.mark.parametrize("background", [False, True], ids=["flat", "background"])
    def test_shipped_integrator_agrees_with_primitive_reference(self, background):
        # the band-state integrator on the tau clock and the primitive system
        # on the physical clock discretize one flow: same gaps, same ratio.
        # The shipped steps solve the linear waves exactly, so the RK4
        # reference runs at a quarter of the step, where its own time error
        # no longer shows in the gaps
        base = self.background_base() if background else None
        kw = dict(amp=1e-4, t_end=2.0, gamma=GAMMA, grid=self.grid, base_state=base)
        shipped = duhamel_crosscheck(**kw, dt=0.05)
        ref = duhamel_crosscheck(**kw, dt=0.0125, flow=primitive_flow)
        assert shipped["gap"] == pytest.approx(ref["gap"], rel=0.05)
        assert shipped["gap_half"] == pytest.approx(ref["gap_half"], rel=0.05)
        assert abs(shipped["ratio"] - ref["ratio"]) <= 2e-3


def test_lindecay_is_a_leaf_module():
    # lindecay needs numpy and math only: no grid, no integrator
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = "import sys, emlab.lindecay; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"emlab.dynamics", "emlab.grid"}, sorted(m for m in loaded if "emlab" in m)
