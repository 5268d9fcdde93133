"""End-to-end acceptance checks at production scale.

Nine checks, one per shipped guarantee, each printing a single summary
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
Tolerances here are the laboratory's external contract; they are not to
be loosened to keep a failing build green.
"""
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from emlab.config import parse_config
from emlab.dynamics import (
    ELEC,
    MAG,
    SCALAR,
    VEL,
    cfl_dt,
    compatible_perturbation,
    constraint_residuals,
)
from emlab.energy import EnergyWeights, energy_report, lyapunov_certify
from emlab.grid import GridSpec
from emlab.lindecay import (
    QuadratureScheme,
    decay_trajectory,
    fit_decay,
    initial_modes,
)
from emlab.pipelines import evolve_band, run_experiment
from emlab.snapshot import read_snapshot, write_snapshot
from emlab.stationary import (
    background_profile,
    picard_iterate,
    verify_smallness_bounds,
    yukawa_convolve,
)

from _helpers import (
    constraint_matrix,
    duhamel_crosscheck,
    linear_flow,
    spectral_stability_report,
    symbol_matrix,
)

GAMMA = 5.0 / 3.0
ROOT_G = np.sqrt(GAMMA)


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def equilibrium():
    grid = GridSpec(48, 40.0)
    n_b = background_profile(grid, "gaussian", 0.05)
    state = picard_iterate(grid, n_b, GAMMA)
    base = np.zeros((10,) + grid.shape)
    base[SCALAR] = state.sigma_st
    base[ELEC] = state.e_st / ROOT_G
    return grid, n_b, state, base


def vec_norm(grid, vec):
    return float(np.sqrt(sum(grid.l2_norm(vec[c]) ** 2 for c in range(3))))


def test_1_stationary_construction():
    start = time.perf_counter()
    grid = GridSpec(48, 40.0)
    ratios = {}
    states = {}
    for eps in (0.05, 0.025):
        n_b = background_profile(grid, "gaussian", eps)
        states[eps] = picard_iterate(grid, n_b, GAMMA)
        ratios[eps] = verify_smallness_bounds(grid, n_b, states[eps])
    st = states[0.05]
    factor = max(st.contraction_factors)
    drift = max(
        abs(ratios[0.025][key] - ratios[0.05][key]) / ratios[0.05][key]
        for key in ("r1", "r2")
    )
    elapsed = time.perf_counter() - start

    ok = (
        st.converged
        and factor < 0.1
        and st.elliptic_residual_l2 <= 1e-8
        and st.curl_e_max <= 1e-10
        and all(np.isfinite(list(r.values())).all() for r in ratios.values())
        and drift < 0.10
        and elapsed < 30.0
    )
    report(
        1, "stationary construction", ok,
        f"factor {factor:.1e}, elliptic {st.elliptic_residual_l2:.1e}, "
        f"curl {st.curl_e_max:.1e}, r1 {ratios[0.05]['r1']:.3f}, "
        f"r2 {ratios[0.05]['r2']:.3f}, drift {drift:.1%}, {elapsed:.1f}s",
    )
    assert st.converged
    assert factor < 0.1
    assert st.elliptic_residual_l2 <= 1e-8
    assert st.curl_e_max <= 1e-10
    assert drift < 0.10
    assert elapsed < 30.0


def test_2_yukawa_operator():
    grid = GridSpec(48, 40.0)
    const = np.abs(yukawa_convolve(grid, np.ones(grid.shape), GAMMA) + GAMMA).max()

    rng = np.random.default_rng(0)
    worst_young = 0.0
    for _ in range(200):
        f = rng.standard_normal(grid.shape)
        worst_young = max(
            worst_young, grid.l2_norm(yukawa_convolve(grid, f, GAMMA)) / grid.l2_norm(f)
        )

    worst_inv = 0.0
    for _ in range(10):
        f = rng.standard_normal(grid.shape)
        f /= grid.l2_norm(f)
        gf = yukawa_convolve(grid, f, GAMMA)
        back = grid.inverse(grid.laplacian(grid.transform(gf))) - gf / GAMMA
        worst_inv = max(worst_inv, grid.l2_norm(back - f))

    ok = const <= 1e-12 and worst_young <= GAMMA and worst_inv <= 1e-10
    report(
        2, "Yukawa operator", ok,
        f"|G*1 + gamma| {const:.1e}, young {worst_young:.3f} <= {GAMMA:.3f}, "
        f"inverse {worst_inv:.1e}",
    )
    assert const <= 1e-12
    assert worst_young <= GAMMA
    assert worst_inv <= 1e-10


def test_3_equilibrium_fixedness(equilibrium):
    grid, n_b, state, base = equilibrium
    cap = lambda y: cfl_dt(grid, GAMMA, y, 0.4)
    sup_u = 0.0
    sup_gauss = 0.0
    for _, y in evolve_band(grid, GAMMA, grid.transform(base), 10.0 * ROOT_G, ROOT_G, cap, {}):
        sup_u = max(sup_u, ROOT_G * vec_norm(grid, grid.inverse(y[VEL])))
        res = constraint_residuals(grid, GAMMA, y, n_b=n_b)
        sup_gauss = max(sup_gauss, res["gauss_e_l2"], res["gauss_b_l2"])

    ok = sup_u <= 1e-8 and sup_gauss <= 1e-8
    report(
        3, "equilibrium fixedness", ok,
        f"sup_t ||u|| {sup_u:.1e}, sup gauss {sup_gauss:.1e} over t <= 10",
    )
    assert sup_u <= 1e-8
    assert sup_gauss <= 1e-8


def test_4_lyapunov_certification(equilibrium):
    start = time.perf_counter()
    grid, n_b, state, base = equilibrium
    y0 = grid.transform(base + compatible_perturbation(grid, GAMMA, state.sigma_st, 1e-3, seed=0))
    base_hat = grid.transform(base)
    cap = lambda y: cfl_dt(grid, GAMMA, y, 0.4)

    taus, rows = [], []
    ratio_lo, ratio_hi = np.inf, -np.inf
    sobolev = grid.sobolev_multiplier(EnergyWeights().order)
    for tau, y in evolve_band(grid, GAMMA, y0, 40.0 * ROOT_G, 0.5 * ROOT_G, cap, {}):
        pert_hat = y - base_hat
        rep = energy_report(grid, pert_hat, state.sigma_st, GAMMA)
        taus.append(tau)
        rows.append((
            rep["energy_full"], rep["dissipation_full"],
            rep["energy_high"], rep["dissipation_high"],
        ))
        ratio = rep["energy_full"] / grid.spectral_l2_sq(pert_hat, sobolev)
        ratio_lo, ratio_hi = min(ratio_lo, ratio), max(ratio_hi, ratio)
    taus = np.array(taus)
    e_f, d_f, e_h, d_h = np.array(rows).T
    full = lyapunov_certify(taus, e_f, d_f)
    high = lyapunov_certify(taus, e_h, d_h)
    elapsed = time.perf_counter() - start

    ok = (
        full.lambda_best > 0.0 and not full.violations
        and high.lambda_best > 0.0 and not high.violations
        and 0.5 <= ratio_lo and ratio_hi <= 2.0
        and elapsed < 600.0
    )
    report(
        4, "Lyapunov certification", ok,
        f"lambda_best full {full.lambda_best:.3f} / high {high.lambda_best:.3f}, "
        f"violations {len(full.violations)}/{len(high.violations)}, "
        f"equivalence [{ratio_lo:.3f}, {ratio_hi:.3f}], {elapsed:.0f}s",
    )
    assert full.lambda_best > 0.0 and not full.violations
    assert high.lambda_best > 0.0 and not high.violations
    assert 0.5 <= ratio_lo and ratio_hi <= 2.0
    assert elapsed < 600.0


def test_5_linearized_decay_exponents():
    start = time.perf_counter()
    times = np.unique(np.concatenate(
        [[0.0], np.linspace(5.0, 45.0, 17), np.geomspace(50.0, 500.0, 24)]
    ))
    traj = decay_trajectory(2.0, GAMMA, times, QuadratureScheme(radial_nodes=32))
    fits = {
        name: fit_decay(times, traj.norms[name], (50.0, 500.0), target, tol)
        for name, target, tol in (
            ("u", -1.25, 0.10), ("e", -1.25, 0.10),
            ("b", -0.75, 0.08), ("grad_b", -1.25, 0.10),
        )
    }
    fits["rho"] = fit_decay(
        times, traj.norms["rho"], (5.0, 45.0), -0.5, 0.05, kind="exponential"
    )
    elapsed = time.perf_counter() - start

    ok = all(f.passed for f in fits.values()) and elapsed < 300.0
    detail = ", ".join(f"{k} {f.exponent:+.3f}" for k, f in fits.items())
    report(5, "linearized decay exponents", ok, f"{detail}, {elapsed:.0f}s")
    for name, fit in fits.items():
        assert fit.passed, (name, fit.exponent, fit.target)
    assert elapsed < 300.0


def test_6_symbol_structure():
    eigs = np.linalg.eigvals(symbol_matrix(np.zeros(3), GAMMA))
    pair = [(-1.0 + 1j * np.sqrt(3.0)) / 2.0, (-1.0 - 1j * np.sqrt(3.0)) / 2.0]
    expected = np.array(pair * 3 + [0.0] * 4)
    cost = np.abs(eigs[:, None] - expected[None, :])
    r, c = linear_sum_assignment(cost)
    zero_freq = cost[r, c].max()

    rng = np.random.default_rng(0)
    worst_con = 0.0
    for _ in range(5):
        xi = rng.standard_normal(3) * rng.uniform(0.1, 5.0)
        y0 = initial_modes(2.0, xi.reshape(1, 3))
        cmat = constraint_matrix(xi)
        for t in (0.0, 1.0, 10.0, 100.0, 1000.0):
            yt = linear_flow(xi.reshape(1, 3), y0, GAMMA, t)[0]
            worst_con = max(worst_con, float(np.abs(cmat @ yt).max()))

    scan = spectral_stability_report(GAMMA, n_samples=1000)

    ok = (
        zero_freq <= 1e-12
        and worst_con <= 1e-10
        and scan["max_real_part"] <= 1e-12
        and scan["c_fit"] > 0.0
    )
    report(
        6, "symbol structure", ok,
        f"zero-frequency eigs {zero_freq:.1e}, constraint drift {worst_con:.1e}, "
        f"max Re {scan['max_real_part']:.1e} over {int(scan['n_samples'])} samples, "
        f"compatible gap c {scan['c_fit']:.2e}",
    )
    assert zero_freq <= 1e-12
    assert worst_con <= 1e-10
    assert scan["max_real_part"] <= 1e-12
    assert scan["c_fit"] > 0.0


def test_7_duhamel_source_structure():
    grid = GridSpec(32, 40.0)
    # both runs take the step emlab evolve takes, cfl_dt at cfl 0.4
    flat = duhamel_crosscheck(amp=1e-4, t_end=5.0, gamma=GAMMA, grid=grid)

    n_b = background_profile(grid, "gaussian", 0.05, width=1.5)
    state = picard_iterate(grid, n_b, GAMMA)
    base = np.zeros((10,) + grid.shape)
    base[SCALAR] = state.n_st
    base[ELEC] = state.e_st
    degraded = duhamel_crosscheck(amp=1e-4, t_end=5.0, gamma=GAMMA, grid=grid, base_state=base)

    ok = 0.2 <= flat["ratio"] <= 0.35 and degraded["ratio"] > 0.35
    report(
        7, "Duhamel source structure", ok,
        f"flat-background halving ratio {flat['ratio']:.4f} in [0.2, 0.35], "
        f"nonconstant-background ratio {degraded['ratio']:.4f} > 0.35",
    )
    assert 0.2 <= flat["ratio"] <= 0.35
    assert degraded["ratio"] > 0.35


def test_8_nonlinear_decay_trend():
    grid = GridSpec(32, 40.0)
    n_b = background_profile(grid, "gaussian", 0.05)
    state = picard_iterate(grid, n_b, GAMMA)
    base = np.zeros((10,) + grid.shape)
    base[SCALAR] = state.sigma_st
    base[ELEC] = state.e_st / ROOT_G
    y0 = grid.transform(base + compatible_perturbation(grid, GAMMA, state.sigma_st, 1e-3, seed=0))
    base_hat = grid.transform(base)
    cap = lambda y: cfl_dt(grid, GAMMA, y, 0.4)

    ts, fluid, bmag = [], [], []
    for tau, y in evolve_band(grid, GAMMA, y0, 40.0 * ROOT_G, 0.5 * ROOT_G, cap, {}):
        p = grid.inverse(y - base_hat)
        ts.append(tau / ROOT_G)
        fluid.append(np.sqrt(grid.l2_norm(p[SCALAR]) ** 2 + vec_norm(grid, p[VEL]) ** 2))
        bmag.append(vec_norm(grid, p[MAG]))
    ts, fluid, bmag = map(np.array, (ts, fluid, bmag))

    # the box cannot hold frequencies below 2 pi / L, so decay saturates
    # near (L / 2 pi)^2; the magnetic norm bottoming out marks it empirically
    t_sat_theory = (grid.box / (2.0 * np.pi)) ** 2
    t_sat_measured = float(ts[int(np.argmin(bmag))])
    t_sat = min(t_sat_theory, t_sat_measured)
    window = (5.0, min(35.0, t_sat))
    fit_b = fit_decay(ts, bmag, window)
    fit_fluid = fit_decay(ts, fluid, window)

    ok = fit_b.exponent <= -0.5 and fit_fluid.exponent < fit_b.exponent
    report(
        8, "nonlinear decay trend", ok,
        f"B exponent {fit_b.exponent:+.3f} <= -0.5, fluid {fit_fluid.exponent:+.3f} "
        f"strictly faster, saturation at t ~ {t_sat:.1f} "
        f"(theory {t_sat_theory:.1f}, measured {t_sat_measured:.1f})",
    )
    assert fit_b.exponent <= -0.5
    assert fit_fluid.exponent < fit_b.exponent


def test_9_infrastructure(tmp_path):
    # serial determinism of the full pipeline
    digests = []
    for name in ("r1", "r2"):
        cfg = parse_config(overrides={
            "command": "evolve", "grid_n": "16", "box_l": "10",
            "t_end": "1", "cadence": "0.25", "out_dir": str(tmp_path / name),
        })
        run_experiment(cfg)
        digests.append((tmp_path / name / "series.csv").read_bytes())
    deterministic = digests[0] == digests[1]

    # snapshot round trip, bit for bit
    grid = GridSpec(16, 10.0)
    rng = np.random.default_rng(1)
    fields = {"a": rng.standard_normal(grid.shape), "b": rng.standard_normal(grid.shape)}
    write_snapshot(tmp_path / "snap.emxf", grid, fields)
    back_grid, back = read_snapshot(tmp_path / "snap.emxf")
    exact = (back_grid.n, back_grid.box) == (16, 10.0) and all(
        back[k].tobytes() == fields[k].tobytes() for k in fields
    )

    # every config invariant rejects with the offending key named
    rejected = 0
    bad_configs = [
        {"gamma": "0.9"},
        {"kappa2": "0.1", "kappa3": "0.2"},
        {"kappa1": "0.5", "kappa2": "0.2", "kappa3": "0.05"},
        {"cfl": "1.5"},
        {"grid_n": "15"},
        {"order": "2"},
        {"command": "plot"},
        {"init": "custom"},
        {"t_grid": "5:500:4"},
        {"fit_window": "500:50"},
        {"threads": "0"},
        {"nonsense_key": "1"},
    ]
    for overrides in bad_configs:
        with pytest.raises(ValueError):
            parse_config(overrides=overrides)
        rejected += 1

    ok = deterministic and exact and rejected == len(bad_configs)
    report(
        9, "infrastructure", ok,
        f"bit-identical series across reruns: {deterministic}, snapshot round "
        f"trip exact: {exact}, {rejected}/{len(bad_configs)} bad configs rejected",
    )
    assert deterministic
    assert exact
    assert rejected == len(bad_configs)
