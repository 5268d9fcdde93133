"""Nonlinear evolution: symmetrization, tendencies, sources, time stepping."""
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emlab import dynamics as dyn
from emlab.energy import energy_report
from emlab.grid import GridSpec
from emlab.pipelines import evolve_band
from emlab.stationary import background_profile, picard_iterate

from _helpers import (
    band_linear_rhs, band_mask, compatible_perturbation_primitive, dealias, dense_band_flow,
    from_symmetric, linear_rhs_symmetric, nonlinear_sources, oracle_rhs_symmetric, random_field,
    rhs_primitive, rk4_flow, rk4_step, tendency, to_symmetric,
)

GAMMA = 5.0 / 3.0


def small_band_state(seed: int = 0):
    """A random band state of GridSpec(8, 5.0), with the grid, its FlatFlows
    and the flat linear part L of rhs_symmetric on it."""
    grid = GridSpec(n=8, box=5.0)
    flows = dyn.FlatFlows(grid, GAMMA)
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(flows.shape) + 1j * rng.standard_normal(flows.shape)
    return grid, flows, y, band_linear_rhs(grid.two_thirds, GAMMA)


def flat_state(grid):
    """The rfft stack of the flat equilibrium: sigma, v, E~ and B~ all zero."""
    return np.zeros((10,) + grid.spectral_shape, dtype=complex)


def linearized_primitive(grid, gamma, p):
    """Linear part of the primitive perturbation system (no sources)."""
    sh = grid.transform(p)
    out = np.empty_like(sh)
    out[0] = -grid.div(sh[1:4])
    out[1:4] = -sh[1:4] - sh[4:7] - gamma * grid.grad(sh[0])
    out[4:7] = grid.curl(sh[7:10]) + sh[1:4]
    out[7:10] = -grid.curl(sh[4:7])
    return grid.inverse(out)


@pytest.fixture(scope="module")
def equilibrium():
    grid = GridSpec(n=16, box=10.0)
    n_b = background_profile(grid, "gaussian", eps=0.05, width=1.5)
    state = picard_iterate(grid, n_b, GAMMA)
    prim = np.zeros((10,) + grid.shape)
    prim[0] = state.n_st
    prim[4:7] = state.e_st
    return grid, n_b, state, prim


class TestPointwiseMaps:
    def test_phi_vanishes_for_gamma_three(self):
        s = np.linspace(-0.9, 2.0, 101)
        assert np.abs(dyn.phi_of_sigma(s, gamma=3.0)).max() < 1e-14

    def test_phi_quadratic_for_gamma_two(self):
        s = np.linspace(-1.5, 2.0, 101)
        assert np.abs(dyn.phi_of_sigma(s, gamma=2.0) - s**2 / 4.0).max() < 1e-14

    def test_phi_zero_at_origin(self):
        for gamma in (1.4, GAMMA, 2.0, 3.0):
            assert abs(dyn.phi_of_sigma(0.0, gamma)) < 1e-15

    def test_density_identity(self):
        # n(sigma) = Phi(sigma) + sigma + 1
        s = np.linspace(-0.5, 0.5, 51)
        for gamma in (1.4, GAMMA, 2.0):
            lhs = dyn.n_of_sigma(s, gamma)
            rhs = dyn.phi_of_sigma(s, gamma) + s + 1.0
            assert np.abs(lhs - rhs).max() < 1e-14

    def test_cross_matches_numpy(self):
        rng = np.random.default_rng(3)
        # real x real into rows of a larger stack, as rhs_symmetric's products
        v, curl = rng.standard_normal((2, 3, 4, 4, 4))
        prods = np.zeros((8, 4, 4, 4))
        # real xi^ x complex rows, as FlatFlows' transverse rows
        hat = rng.standard_normal((3, 50))
        rows = rng.standard_normal((3, 50)) + 1j * rng.standard_normal((3, 50))
        out = np.empty((3, 50), dtype=complex)
        for a, b, dest in ((v, curl, prods[2:5]), (hat, rows, out)):
            assert dyn._cross(a, b, dest) is dest
            ref = np.cross(a, b, axis=0)
            assert np.abs(dest - ref).max() <= 1e-15 * np.abs(ref).max()
        assert not prods[[0, 1, 5, 6, 7]].any()

    def test_round_trip(self):
        grid = GridSpec(n=8, box=5.0)
        state = np.zeros((10,) + grid.shape)
        state[0] = 1.0 + 0.1 * random_field(grid, seed=1)
        state[1:] = 0.1 * np.stack([random_field(grid, seed=s) for s in range(2, 11)])
        back = from_symmetric(to_symmetric(state, GAMMA), GAMMA)
        assert np.abs(back - state).max() < 1e-12

    @given(
        seed=st.integers(0, 2**31 - 1),
        gamma=st.floats(1.1, 3.0, allow_nan=False),
        amp=st.floats(1e-6, 0.3, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed, gamma, amp):
        grid = GridSpec(n=8, box=5.0)
        state = np.zeros((10,) + grid.shape)
        state[0] = 1.0 + amp * random_field(grid, seed=seed)
        state[1:] = amp * random_field(grid, seed=seed + 1)
        back = from_symmetric(to_symmetric(state, gamma), gamma)
        assert np.abs(back - state).max() < 1e-12


class TestEquilibriumPreservation:
    def test_primitive_tendency_vanishes(self, equilibrium):
        grid, _, _, prim = equilibrium
        assert np.abs(rhs_primitive(grid, GAMMA, prim)).max() <= 1e-8

    def test_symmetric_tendency_vanishes(self, equilibrium):
        grid, _, _, prim = equilibrium
        sym = to_symmetric(prim, GAMMA)
        f_hat = tendency(grid, GAMMA, grid.transform(sym))
        assert np.abs(grid.inverse(f_hat)).max() <= 1e-8

    def test_short_run_keeps_velocity_at_zero(self, equilibrium):
        grid, n_b, _, prim = equilibrium
        sym = to_symmetric(prim, GAMMA)
        sup_u = 0.0
        y0 = grid.transform(sym)
        for t, y in evolve_band(grid, GAMMA, y0, 2.0, 1.0, lambda y: 0.1, {}):
            sup_u = max(sup_u, np.sqrt(GAMMA) * np.abs(grid.inverse(y[1:4])).max())
        assert sup_u <= 1e-10
        res = dyn.constraint_residuals(grid, GAMMA, y, n_b)
        assert res["gauss_e_l2"] <= 1e-8

    def test_gauss_residuals_at_equilibrium(self, equilibrium):
        grid, n_b, _, prim = equilibrium
        sym = to_symmetric(prim, GAMMA)
        res = dyn.constraint_residuals(grid, GAMMA, grid.transform(sym), n_b)
        # the symmetrized defect is the primitive one divided by sqrt(gamma)
        assert np.sqrt(GAMMA) * res["gauss_e_l2"] <= 1e-8
        assert res["gauss_b_l2"] == 0.0


class TestSources:
    def test_consistency_about_constant_state(self):
        # full tendency == linear part + sources, for resolvable data
        grid = GridSpec(n=16, box=10.0)
        pert = compatible_perturbation_primitive(grid, amp=1e-4, seed=2)
        total = pert.copy()
        total[0] += 1.0
        full = rhs_primitive(grid, GAMMA, total)
        g1, g2, g3 = nonlinear_sources(grid, GAMMA, pert, 0.0)
        lin = linearized_primitive(grid, GAMMA, pert)
        resid = full - lin
        resid[0] -= g1
        resid[1:4] -= g2
        resid[4:7] -= g3
        assert np.abs(resid).max() <= 1e-9

    def test_consistency_about_stationary_state(self, equilibrium):
        grid, _, state, _ = equilibrium
        pert = compatible_perturbation_primitive(grid, amp=1e-4, seed=3)
        rho_st = state.n_st - 1.0
        total = pert.copy()
        total[0] += 1.0 + rho_st
        total[4:7] += state.e_st
        full = rhs_primitive(grid, GAMMA, total)
        g1, g2, g3 = nonlinear_sources(grid, GAMMA, pert, rho_st)
        lin = linearized_primitive(grid, GAMMA, pert)
        resid = full - lin
        resid[0] -= g1
        resid[1:4] -= g2
        resid[4:7] -= g3
        assert np.abs(resid).max() <= 1e-9

    def test_quadratic_scaling_under_halving(self):
        grid = GridSpec(n=16, box=10.0)
        pert = compatible_perturbation_primitive(grid, amp=1e-3, seed=4)
        big = nonlinear_sources(grid, GAMMA, pert, 0.0)
        small = nonlinear_sources(grid, GAMMA, 0.5 * pert, 0.0)
        for a, b in zip(big, small):
            ratio = np.linalg.norm(b) / np.linalg.norm(a)
            assert ratio <= 0.3


class TestTimeStepping:
    def test_rk4_local_error_order(self):
        # y' = L y - y: the remainder commutes with L, so the flow is
        # e^{-h} e^{hL} y, and the local error should scale like h^5
        grid, flows, y, lin = small_band_state(seed=1)
        hs = np.array([0.1, 0.05, 0.025, 0.0125])
        errs = [
            np.abs(dyn.step_rk4(y, lambda z: lin(z) - z, h, flows)
                   - np.exp(-h) * dense_band_flow(grid, GAMMA, y, h)).max()
            for h in hs
        ]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(5.0, abs=0.2)

    def test_zero_tendency_keeps_state(self):
        _, flows, y, _ = small_band_state(seed=5)
        out = dyn.step_rk4(y, lambda z: np.zeros_like(z), 0.3, flows)
        assert np.array_equal(out, y)

    def test_transform_equivariance_of_one_step(self):
        # an exponential step of the symmetrized system by h equals the
        # symmetrized classical step of the primitive one by h/sqrt(gamma),
        # up to both steps' local errors
        grid = GridSpec(n=16, box=10.0)
        sym0 = dyn.compatible_perturbation(grid, GAMMA, np.zeros(grid.shape), amp=1e-4, seed=2)
        prim0 = from_symmetric(sym0, GAMMA)
        h = 1e-2
        y0 = grid.transform(sym0)
        tail = dyn.BandTail(grid, GAMMA, y0)
        rhs = lambda y: dyn.rhs_symmetric(y, tail)
        sym1 = grid.inverse(tail.full(
            dyn.step_rk4(tail.take(y0), rhs, h, dyn.FlatFlows(grid, GAMMA))
        ))
        prim1 = rk4_step(prim0, lambda y: rhs_primitive(grid, GAMMA, y), h / np.sqrt(GAMMA))
        assert np.abs(to_symmetric(prim1, GAMMA) - sym1).max() <= 1e-9

    @staticmethod
    def linear_band_flow(grid, y, damping, dt):
        """step_rk4 in steps of dt to t = 1 of linear_rhs_symmetric on the
        band coefficients of the physical state y; returns the energies of
        the band state before and after."""
        band = grid.two_thirds
        physical = lambda y_band: grid.inverse(band.embed(y_band))
        energy = lambda y_band: 0.5 * sum(grid.l2_norm(f) ** 2 for f in physical(y_band))
        rhs = lambda z: band.take(grid.transform(
            linear_rhs_symmetric(grid, GAMMA, physical(z), damping=damping)
        ))
        y0 = y1 = band.take(grid.transform(y))
        flows = dyn.FlatFlows(grid, GAMMA)
        steps = round(1.0 / dt)
        for _ in range(steps):
            y1 = dyn.step_rk4(y1, rhs, 1.0 / steps, flows)
        return energy(y0), energy(y1)

    def test_undamped_linear_flow_conserves_energy(self):
        grid = GridSpec(n=16, box=10.0)
        y = dyn.compatible_perturbation(grid, GAMMA, np.zeros(grid.shape), amp=1e-2, seed=5)
        e0, e1 = self.linear_band_flow(grid, y, damping=False, dt=0.005)
        assert abs(e1 - e0) / e0 <= 1e-8

    def test_damped_linear_flow_loses_energy(self):
        grid = GridSpec(n=8, box=5.0)
        y = dyn.compatible_perturbation(grid, GAMMA, np.zeros(grid.shape), amp=1e-2, seed=6)
        e0, e1 = self.linear_band_flow(grid, y, damping=True, dt=0.01)
        assert e1 < e0

    def test_cfl_formula_and_validation(self):
        grid = GridSpec(n=16, box=8.0)
        state = np.zeros((10,) + grid.shape)
        state[0] = 0.2
        state[1] = 0.3
        # the remainder's speed: max|v| + max|w(sigma) - 1|
        expect = 0.4 * grid.dx / (0.3 + 0.5 * (GAMMA - 1.0) * 0.2)
        state_hat = grid.transform(state)
        assert dyn.cfl_dt(grid, GAMMA, state_hat, 0.4) == pytest.approx(expect, rel=1e-12)
        with pytest.raises(ValueError, match="CFL"):
            dyn.cfl_dt(grid, GAMMA, state_hat, 1.5)

    def test_flat_state_has_no_step_bound(self):
        # nothing but the exactly solved linear waves moves: one step per
        # chunk, since the flat-wave period exceeds the cadence here
        grid, flows, _, _ = small_band_state(seed=8)
        flat = flat_state(grid)
        assert dyn.cfl_dt(grid, GAMMA, flat, 0.4) == np.inf
        assert flows.max_step > 0.5
        counters = {}
        out = list(evolve_band(
            grid, GAMMA, flat, 1.0, 0.5, lambda y: dyn.cfl_dt(grid, GAMMA, y, 0.4), counters
        ))
        assert [t for t, _ in out] == [0.0, 0.5, 1.0]
        assert counters["rhs_calls"] == 2 * 4
        assert not out[-1][1].any()
        flat[0, 1, 2, 3] = np.nan
        assert np.isnan(dyn.cfl_dt(grid, GAMMA, flat, 0.4))

    def test_integrate_cadence_must_divide_horizon(self):
        grid = GridSpec(n=8, box=5.0)
        for cadence in (0.3, 0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="cadence"):
                list(evolve_band(grid, GAMMA, flat_state(grid), 1.0, cadence, lambda y: 0.1, {}))

    def test_integrate_horizon_must_be_positive_and_finite(self):
        grid = GridSpec(n=8, box=5.0)
        for t_end in (0.0, -0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="t_end must be positive"):
                list(evolve_band(grid, GAMMA, flat_state(grid), t_end, 0.5, lambda y: 0.1, {}))

    def test_integrate_rejects_non_finite_state(self):
        grid = GridSpec(n=8, box=5.0)
        y = flat_state(grid)
        y[0, 1, 2, 1] = np.nan
        steps = evolve_band(grid, GAMMA, y, 1.0, 0.5, lambda z: dyn.cfl_dt(grid, GAMMA, z, 0.4), {})
        with pytest.raises(ValueError, match="state non-finite at t=0"):
            list(steps)

    def test_step_collapse_raised_from_the_plan(self):
        # a finite, admissible state with |v| = 1e12 gives a step bound of
        # about 1e-12: the plan for one chunk is refused before any step
        grid = GridSpec(n=16, box=20.0)
        y = np.zeros((10,) + grid.shape)
        y[1] = 1e12
        counters = {}
        steps = evolve_band(
            grid, GAMMA, grid.transform(y), 1.0, 0.5,
            lambda z: dyn.cfl_dt(grid, GAMMA, z, 0.9), counters,
        )
        assert next(steps)[0] == 0.0
        with pytest.raises(dyn.StepCollapseError, match="collapsed at t=0:") as info:
            next(steps)
        assert isinstance(info.value, ValueError)
        assert info.value.t == 0.0
        assert info.value.h == pytest.approx(0.9 * grid.dx / 1e12, rel=1e-12)
        assert counters["rhs_calls"] == 0

    def test_flat_wave_step_collapse_raised_from_the_plan(self):
        # with no CFL bound, the flat-wave period sets h; a chunk of more
        # than MAX_CHUNK_STEPS periods is refused before any step
        grid, flows, _, _ = small_band_state()
        counters = {}
        chunk = 1.5 * dyn.MAX_CHUNK_STEPS * flows.max_step
        steps = evolve_band(grid, GAMMA, flat_state(grid), chunk, chunk, lambda y: np.inf, counters)
        assert next(steps)[0] == 0.0
        with pytest.raises(dyn.StepCollapseError) as info:
            next(steps)
        assert info.value.h == flows.max_step
        assert counters["rhs_calls"] == 0

    def test_integrate_yields_cadence_points(self):
        # each chunk takes equal steps no longer than the cap, landing on its end
        grid = GridSpec(n=8, box=5.0)
        y0 = grid.transform(
            dyn.compatible_perturbation(grid, GAMMA, np.zeros(grid.shape), amp=1e-3, seed=7)
        )
        counters = {}
        out = list(evolve_band(grid, GAMMA, y0, 1.0, 0.25, lambda y: 0.024, counters))
        times = [t for t, _ in out]
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert counters["steps"] == 4 * 11
        assert counters["rhs_calls"] == 4 * counters["steps"]

    def test_flow_drops_the_initial_stack(self):
        # the tail keeps its own copy; a frame still holding the caller's
        # stack would carry a dead full-layout array through every step
        grid = GridSpec(n=8, box=5.0)
        y0 = grid.transform(
            dyn.compatible_perturbation(grid, GAMMA, np.zeros(grid.shape), amp=1e-3, seed=7)
        )
        expected = y0.copy()
        alive = weakref.ref(y0)
        steps = evolve_band(grid, GAMMA, y0, 0.5, 0.25, lambda y: 0.1, {})
        del y0
        tau, y = next(steps)
        assert tau == 0.0 and np.array_equal(y, expected)
        assert alive() is None

    def test_flow_drops_each_yielded_stack(self, monkeypatch):
        # the stack is the consumer's: once it drops it, the flow's steps
        # over the next chunk do not keep it alive
        grid = GridSpec(n=8, box=5.0)
        y0 = grid.transform(
            dyn.compatible_perturbation(grid, GAMMA, np.zeros(grid.shape), amp=1e-3, seed=7)
        )
        step, alive = dyn.step_rk4, []

        def watched(*args):
            alive.append(sample() is not None)
            return step(*args)

        monkeypatch.setattr(dyn, "step_rk4", watched)
        steps = evolve_band(grid, GAMMA, y0, 0.5, 0.25, lambda y: 0.1, {})
        _, y = next(steps)
        sample = weakref.ref(y)
        del y
        next(steps)
        assert alive == [False] * 3

    def test_step_is_exact_on_uniform_damping(self):
        # a longitudinal B~ is constant under L, so y' = L y - y is y' = -y
        # mode by mode, stepped with the weights of z = 0: classical RK4's;
        # 44 steps to t = 1, as four chunks of 0.25 under a cap of 0.024
        grid, flows, f, lin = small_band_state(seed=7)
        y0 = np.zeros_like(f)
        y0[7:10] = grid.two_thirds.grad(f[0])
        y0 /= np.abs(y0).max()
        assert np.abs(lin(y0)).max() <= 1e-15
        y = y0
        for _ in range(4 * 11):
            y = dyn.step_rk4(y, lambda z: lin(z) - z, 0.25 / 11, flows)
        assert np.abs(y - np.exp(-1.0) * y0).max() <= 1e-9


class TestPerturbationBuilders:
    def test_symmetric_builder_satisfies_gauss(self, equilibrium):
        grid, n_b, state, prim = equilibrium
        pert = dyn.compatible_perturbation(grid, GAMMA, state.sigma_st, amp=1e-3, seed=1)
        total = to_symmetric(prim, GAMMA) + pert
        res = dyn.constraint_residuals(grid, GAMMA, grid.transform(total), n_b)
        assert res["gauss_e_l2"] <= 1e-7
        assert res["gauss_b_l2"] <= 1e-12

    def test_primitive_builder_satisfies_gauss(self):
        grid = GridSpec(n=16, box=10.0)
        pert = compatible_perturbation_primitive(grid, amp=1e-3, seed=7)
        total = pert.copy()
        total[0] += 1.0
        sym = to_symmetric(total, GAMMA)
        res = dyn.constraint_residuals(grid, GAMMA, grid.transform(sym), 1.0)
        # the symmetrized defect is the primitive one divided by sqrt(gamma)
        assert np.sqrt(GAMMA) * res["gauss_e_l2"] <= 1e-12
        assert np.sqrt(GAMMA) * res["gauss_b_l2"] <= 1e-12

    def test_builder_amplitude_validation(self):
        grid = GridSpec(n=8, box=5.0)
        with pytest.raises(ValueError, match="amplitude"):
            dyn.compatible_perturbation(grid, GAMMA, np.zeros(grid.shape), amp=0.0)
        with pytest.raises(ValueError, match="amplitude"):
            compatible_perturbation_primitive(grid, amp=-1.0)

    def test_builder_is_deterministic(self):
        grid = GridSpec(n=8, box=5.0)
        a = compatible_perturbation_primitive(grid, amp=1e-3, seed=11)
        b = compatible_perturbation_primitive(grid, amp=1e-3, seed=11)
        assert np.array_equal(a, b)


class TestConstraintTransport:
    # d/dt of each Gauss defect along the semi-discrete flow, mode by mode

    def test_symmetric_gauss_rate_vanishes_off_mean(self, equilibrium):
        grid, _, state, prim = equilibrium
        y = to_symmetric(prim, GAMMA) + dyn.compatible_perturbation(
            grid, GAMMA, state.sigma_st, amp=1e-2, seed=9
        )
        fh = tendency(grid, GAMMA, grid.transform(y))
        f = grid.inverse(fh)
        n_prime = dyn.w_of_sigma(y[0], GAMMA) ** ((3.0 - GAMMA) / (GAMMA - 1.0))
        rate_e = grid.div(fh[4:7]) + dealias(
            grid, grid.transform(n_prime * f[0])
        ) / np.sqrt(GAMMA)
        rate_b = grid.div(fh[7:10])
        # the longitudinal current is matched to the density tendency, so
        # every mode that carries a current is transported exactly; the mean
        # mode keeps only the tiny truncation drift of the total charge
        assert abs(rate_e[0, 0, 0]) <= 1e-10
        rate_e[0, 0, 0] = 0.0
        assert np.sqrt(grid.spectral_l2_sq(rate_e)) <= 1e-13
        assert np.sqrt(grid.spectral_l2_sq(rate_b)) <= 1e-15

    def test_primitive_gauss_rate_vanishes(self, equilibrium):
        grid, _, _, prim = equilibrium
        total = prim + compatible_perturbation_primitive(grid, amp=1e-2, seed=10)
        f = rhs_primitive(grid, GAMMA, total)
        fh = grid.transform(f)
        rate = grid.div(fh[4:7]) + grid.transform(f[0])
        assert np.sqrt(grid.spectral_l2_sq(rate)) <= 1e-13

    def test_in_band_defect_constant_along_coarse_flow(self):
        # a marginally resolved background: the representable part of the
        # defect must stay put even where the truncation tail is large
        grid = GridSpec(n=32, box=40.0)
        n_b = background_profile(grid, "gaussian", eps=0.05, width=1.0)
        state = picard_iterate(grid, n_b, GAMMA)
        base = np.zeros((10,) + grid.shape)
        base[0] = state.sigma_st
        base[4:7] = state.e_st / np.sqrt(GAMMA)
        y0 = grid.transform(
            base + dyn.compatible_perturbation(grid, GAMMA, state.sigma_st, amp=1e-3, seed=3)
        )
        cap = lambda y: dyn.cfl_dt(grid, GAMMA, y, 0.4)
        tau_end = 2.5 * np.sqrt(GAMMA)
        worst_band = 0.0
        worst_full = 0.0
        counters = {}
        for _, y in evolve_band(grid, GAMMA, y0, tau_end, tau_end / 4, cap, counters):
            res = dyn.constraint_residuals(grid, GAMMA, y, n_b)
            worst_band = max(worst_band, res["gauss_e_l2_band"], res["gauss_b_l2_band"])
            worst_full = max(worst_full, res["gauss_e_l2"], res["gauss_b_l2"])
        assert worst_band <= 5e-9
        assert worst_band <= worst_full
        # the reset restores the defect after each step; the steps themselves
        # must transport it too, up to the drift of one exponential step
        # (1.5e-8 here)
        assert counters["steps"] == 4
        assert 0.0 < counters["max_gauss_reset"] <= 5e-8


def classical_cfl(grid, gamma, y_hat, cfl):
    """The step bound of explicit RK4, whose speed includes the flat waves."""
    phys = grid.inverse(y_hat[0:4])
    speed = np.sqrt((phys[1:4] ** 2).sum(axis=0)).max()
    return cfl * grid.dx / (1.0 + speed + dyn.w_of_sigma(phys[0], gamma).max())


class TestExponentialSteps:
    # step_rk4 over FlatFlows: ETDRK4 with the flat linear part solved exactly

    def test_eigen_coordinates_round_trip(self):
        grid = GridSpec(n=16, box=10.0)
        flows = dyn.FlatFlows(grid, GAMMA).at(0.4)
        rng = np.random.default_rng(1)
        y = rng.standard_normal(flows.shape) + 1j * rng.standard_normal(flows.shape)
        assert flows.split(y).shape == (13, y[0].size)
        assert np.abs(flows.join(flows.split(y)) - y).max() <= 1e-14 * np.abs(y).max()
        # 45 distinct radii carry the 726 band modes
        assert flows.radii.size == 45 and flows.radii[0] == 0.0

    @pytest.mark.parametrize("h", [0.3, 2.0])
    def test_zero_remainder_step_is_the_linear_flow(self, h):
        grid = GridSpec(n=16, box=10.0)
        band = grid.two_thirds
        flows = dyn.FlatFlows(grid, GAMMA)
        rng = np.random.default_rng(2)
        y = rng.standard_normal(flows.shape) + 1j * rng.standard_normal(flows.shape)
        out = dyn.step_rk4(y, band_linear_rhs(band, GAMMA), h, flows)
        ref = dense_band_flow(grid, GAMMA, y, h)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_tables_follow_the_step_size(self):
        grid = GridSpec(n=16, box=10.0)
        flows = dyn.FlatFlows(grid, GAMMA)
        y = np.random.default_rng(3).standard_normal(flows.shape) + 0j
        rhs = band_linear_rhs(grid.two_thirds, GAMMA)
        two_halves = dyn.step_rk4(dyn.step_rk4(y, rhs, 0.5, flows), rhs, 0.5, flows)
        assert flows.h == 0.5
        one = dyn.step_rk4(y, rhs, 1.0, flows)
        assert flows.h == 1.0
        assert np.abs(one - two_halves).max() <= 1e-12 * np.abs(one).max()

    def test_step_bound_is_one_period_of_the_fastest_flat_wave(self):
        # the sound wave at the band's largest radius is the fastest: on the
        # tau clock its angular frequency is sqrt(3/4 + g r^2) / sqrt(g)
        grid = GridSpec(n=16, box=10.0)
        flows = dyn.FlatFlows(grid, GAMMA)
        omega = np.sqrt(0.75 + GAMMA * flows.radii.max() ** 2) / np.sqrt(GAMMA)
        assert flows.max_step == pytest.approx(2.0 * np.pi / omega, rel=1e-12)
        # the band's corner, integer index (5, 5, 5), is its largest radius
        assert flows.radii[-1] == pytest.approx(2.0 * np.pi / 10.0 * np.sqrt(75.0), rel=1e-15)
        assert flows.max_step == dyn.flat_wave_period(grid, GAMMA)
        # a state with no step bound still takes equal steps no longer than that
        counters = {}
        tau_end = 2.5 * flows.max_step
        cap = lambda y: dyn.cfl_dt(grid, GAMMA, y, 0.4)
        list(evolve_band(grid, GAMMA, flat_state(grid), tau_end, tau_end, cap, counters))
        assert counters["rhs_calls"] == 4 * 3

    def test_stationary_state_stays_put(self, equilibrium):
        grid, _, _, prim = equilibrium
        y0 = grid.transform(to_symmetric(prim, GAMMA))
        tail = dyn.BandTail(grid, GAMMA, y0)
        y_band = tail.take(y0)
        rhs = lambda y: dyn.rhs_symmetric(y, tail)
        # one step of a whole cadence chunk, as evolve takes it
        out = dyn.step_rk4(y_band, rhs, 0.5 * np.sqrt(GAMMA), dyn.FlatFlows(grid, GAMMA))
        assert np.abs(out - y_band).max() <= 1e-10 * np.abs(y_band).max()

    def test_gauss_reset_holds_the_in_band_defect(self, equilibrium):
        grid, n_b, state, prim = equilibrium
        y0 = grid.transform(to_symmetric(prim, GAMMA) + dyn.compatible_perturbation(
            grid, GAMMA, state.sigma_st, amp=1e-2, seed=4
        ))
        tail = dyn.BandTail(grid, GAMMA, y0)
        rhs = lambda y: dyn.rhs_symmetric(y, tail)
        y = dyn.step_rk4(tail.take(y0), rhs, 2.0, dyn.FlatFlows(grid, GAMMA))

        def defect(y_band):
            sh = tail.full(y_band)
            target = (n_b - dyn.n_of_sigma(grid.inverse(sh[0]), GAMMA)) / np.sqrt(GAMMA)
            res = tail.band.take(grid.div(sh[4:7]) - grid.transform(target))
            res[tail.band.k_sq == 0.0] = 0.0
            return res

        drift = np.abs(defect(y) - defect(tail.take(y0))).max()
        assert drift > 1e-10  # a long step drifts the defect
        y = tail.settle(y)
        assert np.abs(defect(y) - defect(tail.take(y0))).max() <= 1e-6 * drift
        assert tail.max_drift > 0.0

    def test_one_step_per_chunk_beats_rk4_at_its_cfl_step(self, equilibrium):
        # against classical RK4 at an eighth of its CFL step, one exponential
        # step per chunk errs less on every series column than RK4 at the step
        grid, _, state, prim = equilibrium
        base = to_symmetric(prim, GAMMA)
        base_hat = grid.transform(base)
        y0 = grid.transform(base + dyn.compatible_perturbation(
            grid, GAMMA, state.sigma_st, amp=1e-3, seed=0
        ))
        tau_end, cadence = np.sqrt(GAMMA), 0.5 * np.sqrt(GAMMA)
        norm = lambda f: np.sqrt(grid.spectral_l2_sq(f))

        def series(samples):
            rows = []
            for _, y in samples:
                pert = y - base_hat
                rep = energy_report(grid, pert, state.sigma_st, GAMMA)
                rows.append([rep[k] for k in ("energy_full", "dissipation_full", "energy_high",
                                              "dissipation_high", "int1", "int2", "int3")]
                            + [norm(pert[0]), norm(pert[1:4]), norm(pert[4:7]), norm(pert[7:10])])
            return np.array(rows)

        def rk4(fraction):
            tail = dyn.BandTail(grid, GAMMA, y0)
            rhs = lambda y: dyn.rhs_symmetric(y, tail)
            cap = lambda y: fraction * classical_cfl(grid, GAMMA, tail.full(y), 0.4)
            steps = rk4_flow(tail.take(y0), rhs, tau_end, cap, cadence)
            return series((t, tail.full(y)) for t, y in steps)

        ref = rk4(1.0 / 8.0)
        cap = lambda y: dyn.cfl_dt(grid, GAMMA, y, 0.4)
        assert cap(y0) > cadence  # one exponential step per chunk
        etd = series(evolve_band(grid, GAMMA, y0, tau_end, cadence, cap, {}))
        err = lambda rows: (np.abs(rows - ref) / np.abs(ref))[1:].max(axis=0)
        assert (err(etd) <= err(rk4(1.0))).all(), (err(etd), err(rk4(1.0)))


def _old_residuals(grid, y, n_b, band_limited):
    """The two-pass Gauss defect norms, from the physical state."""
    sh = grid.transform(y)
    target = (n_b - 1.0 - dyn.phi_of_sigma(y[0], GAMMA) - y[0]) / np.sqrt(GAMMA)
    res_hat = grid.div(sh[4:7]) - grid.transform(target)
    div_b_hat = grid.div(sh[7:10])
    if band_limited:
        res_hat, div_b_hat = dealias(grid, res_hat), dealias(grid, div_b_hat)
    res, div_b = grid.inverse(res_hat), grid.inverse(div_b_hat)
    return {"gauss_e_l2": grid.l2_norm(res), "gauss_b_l2": grid.l2_norm(div_b)}


class TestSpectralState:
    # the integrator carries the two-thirds band; the off-band tail is fixed

    @pytest.fixture(scope="class")
    def rough_state(self, equilibrium):
        """Stationary state plus a compatible perturbation plus full-spectrum
        noise in E and B, so every mode is occupied and both defects are
        far above roundoff."""
        grid, _, state, prim = equilibrium
        y = to_symmetric(prim, GAMMA) + dyn.compatible_perturbation(
            grid, GAMMA, state.sigma_st, amp=1e-2, seed=12
        )
        for c in range(4, 10):
            y[c] += 1e-3 * random_field(grid, seed=40 + c)
        return y

    def test_tendency_vanishes_outside_the_band(self, equilibrium, rough_state):
        grid = equilibrium[0]
        f_hat = tendency(grid, GAMMA, grid.transform(rough_state))
        outside = band_mask(grid, grid.n // 3) == 0.0
        assert np.all(f_hat[:, outside] == 0.0)
        assert np.abs(f_hat[:, ~outside]).max() > 0.0

    def test_band_state_is_in_c_order(self, equilibrium, rough_state):
        # the band's gather puts the field axis innermost; the integrator's
        # state and every tendency made from it are in C order from the start
        grid = equilibrium[0]
        y = grid.transform(rough_state)
        tail = dyn.BandTail(grid, GAMMA, y)
        y_band = tail.take(y)
        assert not tail.band.take(y).flags.c_contiguous
        assert y_band.flags.c_contiguous
        assert np.array_equal(y_band, tail.band.take(y))
        assert dyn.rhs_symmetric(y_band, tail).flags.c_contiguous

    def test_out_of_band_tail_carried_unchanged(self, equilibrium, rough_state):
        # evolve_band rebuilds the full stack from the band the steps carry
        grid = equilibrium[0]
        y0 = grid.transform(rough_state)
        cap = lambda y: dyn.cfl_dt(grid, GAMMA, y, 0.4)
        *_, (_, y_end) = evolve_band(grid, GAMMA, y0, 0.5, 0.25, cap, {})
        outside = band_mask(grid, grid.n // 3) == 0.0
        # the noise occupies every E and B mode; sigma_st has its own tail
        assert np.abs(y0[4:10][:, outside]).min() > 0.0
        assert np.abs(y0[0][outside]).max() > 0.0
        assert np.array_equal(y_end[:, outside], y0[:, outside])
        assert not np.array_equal(y_end[:, ~outside], y0[:, ~outside])

    def test_settle_leaves_the_full_stack_as_it_was(self, equilibrium, rough_state):
        # settle scatters sigma into the tail's own in-band entries, which
        # full() overwrites: settling another state leaves full(y) as it was
        grid = equilibrium[0]
        y0 = grid.transform(rough_state)
        tail = dyn.BandTail(grid, GAMMA, y0)
        y = tail.take(y0)
        before = tail.full(y)
        other = tail.take(y0)
        other[0] *= 0.5
        tail.settle(other)
        assert tail.full(y).tobytes() == before.tobytes()

    def test_settle_holds_the_plane_hermitian(self, equilibrium, rough_state):
        # a real field's k_z = 0 coefficients at xi and -xi are conjugates;
        # after settle they are exactly, whatever anti-Hermitian part came in
        grid = equilibrium[0]
        y0 = grid.transform(rough_state)
        tail = dyn.BandTail(grid, GAMMA, y0)
        y = tail.take(y0)
        side = y.shape[1]
        mirror = -np.arange(side) % side
        kx = tail.band.k[0][:, 0, 0]
        assert np.array_equal(kx[mirror], -kx)
        flip = lambda plane: plane[:, mirror][:, :, mirror].conj()
        rng = np.random.default_rng(3)
        z = 1e-4 * (rng.standard_normal(y.shape[:3]) + 1j * rng.standard_normal(y.shape[:3]))
        y[..., 0] += z - flip(z)  # anti-Hermitian: flip gives minus it
        assert not np.array_equal(y[..., 0], flip(y[..., 0]))
        plane = tail.settle(y)[..., 0]
        assert np.array_equal(plane, flip(plane))

    def test_band_tendency_matches_full_layout_oracle(self, equilibrium, rough_state):
        grid = equilibrium[0]
        y = grid.transform(rough_state)
        tail = dyn.BandTail(grid, GAMMA, y)
        band = dyn.rhs_symmetric(tail.take(y), tail)
        ref = tail.take(oracle_rhs_symmetric(grid, GAMMA, y))
        assert band.shape == (10, 11, 11, 6)
        assert np.abs(band - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_band_steps_match_full_layout_oracle_steps(self, equilibrium, rough_state):
        grid = equilibrium[0]
        y0 = grid.transform(rough_state)
        # classical steps on both sides, so the explicit RK4 bound
        h = 0.5 * classical_cfl(grid, GAMMA, y0, 0.4)
        tail = dyn.BandTail(grid, GAMMA, y0)
        y_band, y_ref = tail.take(y0), y0
        for _ in range(3):
            y_band = rk4_step(y_band, lambda z: dyn.rhs_symmetric(z, tail), h)
            y_ref = rk4_step(y_ref, lambda z: oracle_rhs_symmetric(grid, GAMMA, z), h)
        y_end = tail.full(y_band)
        assert np.abs(y_end - y_ref).max() <= 1e-13 * np.abs(y_ref).max()
        # the steps moved the band by far more than the bound
        assert np.abs(y_end - y0).max() > 1e-6 * np.abs(y_ref).max()

    @staticmethod
    def count_transforms(monkeypatch):
        """Log the fields of every GridSpec transform, per direction."""
        counts = {"inverse": [], "transform": []}
        for name in counts:
            method = getattr(GridSpec, name)

            def counted(self, arr, *args, _method=method, _log=counts[name]):
                _log.append(int(np.prod(arr.shape[:-3])))
                return _method(self, arr, *args)

            monkeypatch.setattr(GridSpec, name, counted)
        return counts

    def test_fields_transformed_per_call(self, equilibrium, rough_state, monkeypatch):
        # 11 + 1 fields inverse-transformed and 8 + 1 forward per RHS call:
        # the product batches plus the Gauss correction's one field each way
        grid = equilibrium[0]
        y = grid.transform(rough_state)
        tail = dyn.BandTail(grid, GAMMA, y)
        y_band = tail.take(y)
        counts = self.count_transforms(monkeypatch)
        dyn.rhs_symmetric(y_band, tail)
        assert counts == {"inverse": [11, 1], "transform": [8, 1]}

    def test_fields_transformed_per_residual_call(self, equilibrium, rough_state, monkeypatch):
        # the norms come from the coefficients: only the charge needs sigma
        # back on the grid and the density forward again
        grid, n_b = equilibrium[0], equilibrium[1]
        y = grid.transform(rough_state)
        counts = self.count_transforms(monkeypatch)
        dyn.constraint_residuals(grid, GAMMA, y, n_b)
        assert counts == {"inverse": [1], "transform": [1]}

    def test_one_residual_call_reproduces_both_passes(self, equilibrium, rough_state):
        grid, n_b = equilibrium[0], equilibrium[1]
        res = dyn.constraint_residuals(grid, GAMMA, grid.transform(rough_state), n_b)
        assert set(res) == {"gauss_e_l2", "gauss_b_l2", "gauss_e_l2_band", "gauss_b_l2_band"}
        for suffix, band_limited in (("", False), ("_band", True)):
            old = _old_residuals(grid, rough_state, n_b, band_limited)
            for key, value in old.items():
                assert value > 1e-6, key + suffix
                assert res[key + suffix] == pytest.approx(value, rel=1e-12), key + suffix
        assert res["gauss_e_l2_band"] < res["gauss_e_l2"]

    def test_reset_holds_the_defect_the_band_keys_report(self, equilibrium, rough_state):
        # the tail's band defect, with n_b's part added, is the defect whose
        # L^2 norm gauss_e_l2_band reports, before and after a long step
        grid, n_b = equilibrium[0], equilibrium[1]
        y0 = grid.transform(rough_state)
        tail = dyn.BandTail(grid, GAMMA, y0)
        band = tail.band
        rhs = lambda y: dyn.rhs_symmetric(y, tail)
        y_step = dyn.step_rk4(tail.take(y0), rhs, 2.0, dyn.FlatFlows(grid, GAMMA))
        n_b_part = band.take(grid.transform(n_b)) / np.sqrt(GAMMA)
        weight = grid.box**3 * band.take(grid.mult)
        for y_band in (tail.take(y0), y_step):
            defect = tail._defect(y_band) - n_b_part
            norm = np.sqrt(np.sum(weight * np.abs(defect) ** 2))
            res = dyn.constraint_residuals(grid, GAMMA, tail.full(y_band), n_b)
            assert res["gauss_e_l2_band"] > 1e-6
            assert norm == pytest.approx(res["gauss_e_l2_band"], rel=1e-12)
