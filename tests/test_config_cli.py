"""Configuration parsing, emitters, pipelines, and the CLI front end."""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from emlab import dynamics, pipelines
from emlab.cli import build_parser, main
from emlab.config import (
    KEY_SECTIONS, ExperimentConfig, canonical_text, config_hash, parse_config,
)
from emlab.dynamics import InadmissibleStateError
from emlab.grid import GridSpec
from emlab.pipelines import (
    SERIES_COLUMNS,
    SYMMETRIC_FIELDS,
    emit_report,
    emit_series,
    run_experiment,
)
from emlab.snapshot import read_snapshot, write_snapshot

SMALL = {"grid_n": "16", "box_l": "10", "tol": "1e-11"}
# a valid config with every string key away from its default; its "%" is read as is
EVERY_STRING_KEY = {
    "command": "lyapunov", "out_dir": "runs/b%1", "series": "runs/a/series.csv",
    "out": "runs/b/out.csv", "report": "runs/b/report.json", "profile": "double-bump",
    "init": "custom", "init_snapshot": "runs/a/state_final.emxf", "fit_window": "40:400",
    "rho_fit_window": "4:40", "t_grid": "2:200:30",
}


def _no_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(path):
    """Parse a report the way a strict JSON parser does: no NaN or Infinity."""
    return json.loads(path.read_text(), parse_constant=_no_constant)


def small_cfg(tmp_path, name, **extra):
    overrides = dict(SMALL)
    overrides["out_dir"] = str(tmp_path / name)
    overrides.update({k: str(v) for k, v in extra.items()})
    return parse_config(overrides=overrides)


def custom_snapshot(tmp_path, edit, grid=GridSpec(16, 10.0)):
    """Write a symmetrized snapshot of zeros after edit(fields, grid) ran on it."""
    fields = {f: np.zeros(grid.shape) for f in SYMMETRIC_FIELDS}
    edit(fields, grid)
    write_snapshot(tmp_path / "init.emxf", grid, fields)
    return tmp_path / "init.emxf"


def evolve_custom_argv(tmp_path, snap, *flags, box="10"):
    """emlab evolve from a custom snapshot on an N=16 grid, t_end 1, cadence 0.5."""
    return [
        "evolve", "--init", "custom", "--init-snapshot", str(snap),
        "--grid-n", "16", "--box-l", box, "--t-end", "1", "--cadence", "0.5",
        "--out-dir", str(tmp_path / "ev"), *flags,
    ]


def set_point(name, index, value):
    def edit(fields, grid):
        fields[name][index] = value
    return edit


def big_sheared_b(fields, grid):
    # 1e100 b_z(x) is solenoidal; it overflows within the first chunk
    fields["b_z"][:] = 1e100 * np.sin(2.0 * np.pi * grid.x1d / grid.box)[:, None, None]


def fast_v(fields, grid):
    fields["v_x"][:] = 1e12


class TestConfigValidation:
    def test_empty_config_gives_documented_defaults(self):
        cfg = parse_config()
        assert cfg.gamma == pytest.approx(5.0 / 3.0)
        assert cfg.grid_n == 48
        assert cfg.box_l == 40.0
        assert cfg.seed == 0

    def test_gamma_below_one_rejected_naming_constraint(self):
        with pytest.raises(ValueError, match="gamma.*> 1"):
            parse_config(overrides={"gamma": "0.9"})

    def test_weight_disorder_rejected_naming_constraint(self):
        with pytest.raises(ValueError, match="kappa3 < kappa2 < kappa1"):
            parse_config(overrides={"kappa2": "0.1", "kappa3": "0.2"})

    @pytest.mark.parametrize("bad", ["0", "1", "1.5", "-0.2"])
    def test_cfl_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match="cfl"):
            parse_config(overrides={"cfl": bad})

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValueError, match="unknown config key 'gama'"):
            parse_config(overrides={"gama": "2.0"})

    def test_non_numeric_value_rejected_by_key(self):
        with pytest.raises(ValueError, match="grid_n expects an integer"):
            parse_config(overrides={"grid_n": "many"})

    @pytest.mark.parametrize(
        "key,value,needle",
        [
            ("command", "plot", "command"),
            ("grid_n", "15", "even"),
            ("init", "custom", "init_snapshot"),
            ("cadence", "0.3", "divide"),
            ("t_grid", "5:500:4", "count >= 10"),
            ("fit_window", "500:50", "lo < hi"),
            ("seed", "-1", "seed"),
            ("threads", "0", "threads"),
            ("amp", "0", "amp"),
            ("order", "2", "order"),
            ("gamma", "inf", "gamma expects a finite number"),
            ("box_l", "inf", "box_l expects a finite number"),
            ("family_width", "nan", "family_width expects a finite number"),
            ("fit_window", "50:inf", "fit_window expects a finite number"),
        ],
    )
    def test_invariant_violations_rejected(self, key, value, needle):
        with pytest.raises(ValueError, match=needle):
            parse_config(overrides={key: value})

    def test_every_numeric_refusal_names_its_key(self):
        # each int and float key set alone to a negative, zero, one, non-finite
        # or non-numeric value: whatever is refused names the key that was set
        for key in (f.name for f in fields(ExperimentConfig) if f.type in ("int", "float")):
            for value in ("-1", "0", "1", "nan", "x"):
                try:
                    parse_config(overrides={key: value})
                except ValueError as err:
                    assert key in str(err), (key, value, str(err))

    def test_lindecay_windows_must_cover_the_time_grid(self):
        with pytest.raises(ValueError, match="rho_fit_window"):
            parse_config(overrides={"command": "lindecay", "t_grid": "50:500:16"})

    def test_chunk_bound_counts_flat_wave_periods(self):
        # a chunk may hold at most MAX_CHUNK_STEPS steps of the smaller of
        # cfl * dx and FlatFlows.max_step: a box far wider than its grid
        # resolves is limited by the period, grid 16 on box 10 by the CFL
        # part, 0.4 * 10 / 16 on tau
        from emlab.dynamics import MAX_CHUNK_STEPS, FlatFlows

        period = FlatFlows(GridSpec(8, 1000.0), 5.0 / 3.0).max_step
        for n, box, bound in ((8, 1000, MAX_CHUNK_STEPS * period), (16, 10, 250000)):
            longest = bound / np.sqrt(5.0 / 3.0)
            for factor, ok in ((0.99, True), (1.01, False)):
                cadence = repr(float(factor * longest))
                overrides = {"grid_n": str(n), "box_l": str(box), "t_end": cadence,
                             "cadence": cadence}
                if ok:
                    parse_config(overrides=overrides)
                else:
                    with pytest.raises(ValueError, match="cadence .* flat-wave period"):
                        parse_config(overrides=overrides)

    def test_unreadable_file_rejected_with_path(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read config file"):
            parse_config(tmp_path / "missing.ini")

    def test_file_sections_parsed_and_flags_override(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[model]\ngamma = 1.4\n\n[grid]\ngrid_n = 24\nbox_l = 20.0  # inline note\n"
        )
        cfg = parse_config(path, overrides={"gamma": "2.0"})
        assert cfg.gamma == 2.0
        assert cfg.grid_n == 24
        assert cfg.box_l == 20.0

    def test_unknown_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\ngamm = 1.4\n")
        with pytest.raises(ValueError, match="unknown config key 'gamm'"):
            parse_config(path)

    def test_known_key_in_wrong_section_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[model]\ngrid_n = 24\n")
        with pytest.raises(ValueError, match=r"belongs in section \[grid\]"):
            parse_config(path)

    def test_hash_is_stable_and_sensitive(self):
        a = parse_config()
        b = parse_config(overrides={"seed": "1"})
        assert config_hash(a) == config_hash(parse_config())
        assert config_hash(a) != config_hash(b)
        assert f"seed = {a.seed}" in canonical_text(a)

    def test_default_hash_is_pinned(self):
        # canonical_text is keyed by field order and section; a reordered or
        # re-homed key would change every run's identity
        assert config_hash(parse_config()) == (
            "721970f1c7a152295751f489cf23f0c6f0a550551dd4c606a381de82186d2fd1"
        )

    @pytest.mark.parametrize("overrides", [
        {"command": "stationary"},
        {"command": "evolve"},
        {"command": "lyapunov", "series": "ev/series.csv"},
        {"command": "lindecay"},
        EVERY_STRING_KEY,
    ], ids=["stationary", "evolve", "lyapunov", "lindecay", "every-string-key"])
    def test_canonical_text_parses_back_to_the_config(self, overrides, tmp_path):
        # config.resolved.ini is canonical_text: a run reruns from its out-dir
        cfg = parse_config(overrides=overrides)
        path = tmp_path / "config.resolved.ini"
        path.write_text(canonical_text(cfg))
        assert parse_config(path) == cfg

    @given(
        key=st.sampled_from(["out_dir", "series", "out", "report", "init_snapshot"]),
        text=st.text(st.sampled_from("a/.%=:[] #;\t\n\r\x0c\x85\u3000")) | st.text(),
    )
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_accepted_string_round_trips(self, key, text, tmp_path):
        # a string the reader would cut at a comment, a line break or its
        # whitespace is refused; every other one config.resolved.ini carries
        try:
            cfg = ExperimentConfig(**{key: text})
        except ValueError as err:
            assert key in str(err)
            return
        path = tmp_path / "config.resolved.ini"
        path.write_text(canonical_text(cfg), encoding="utf-8")
        assert parse_config(path) == cfg

    def test_every_string_key_is_set_away_from_its_default(self):
        strings = {f.name for f in fields(ExperimentConfig) if f.type == "str"}
        cfg = parse_config(overrides=EVERY_STRING_KEY)
        assert strings == set(EVERY_STRING_KEY)
        for f in fields(ExperimentConfig):
            if f.name in strings:
                assert getattr(cfg, f.name) != f.default, f.name

    def test_explicit_time_grid_list(self):
        times = ",".join(str(5.0 * k) for k in range(1, 13))
        cfg = parse_config(overrides={"t_grid": times})
        assert cfg.time_grid().size == 12
        with pytest.raises(ValueError, match="increasing"):
            parse_config(overrides={"t_grid": "3,2,1"})


class TestEmitters:
    def test_empty_trajectory_gives_header_only_csv(self, tmp_path):
        path = tmp_path / "series.csv"
        emit_series(path, ("t", "a"), [])
        assert path.read_text() == "t,a\n"

    def test_row_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            emit_series(tmp_path / "x.csv", ("t", "a"), [(1.0,)])

    def test_seventeen_digit_floats_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        values = [1.0 / 3.0, np.pi, 6.02214076e23, 2.0 ** -52]
        emit_series(path, ("a", "b", "c", "d"), [values])
        back = np.genfromtxt(path, delimiter=",", names=True)
        for name, v in zip(back.dtype.names, values):
            assert float(back[name]) == v

    def test_report_key_order_is_stable(self, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        emit_report(p1, {"beta": 1, "alpha": {"z": 0.5, "a": np.float64(2.0)}})
        emit_report(p2, {"alpha": {"a": np.float64(2.0), "z": 0.5}, "beta": 1})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64(-np.inf)])
    def test_report_rejects_non_finite_values(self, tmp_path, value):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError, match="cannot write report"):
            emit_report(path, {"notes": {"x": value}})
        assert not path.exists()

    def test_report_rejects_unknown_payload_types(self, tmp_path):
        with pytest.raises(TypeError, match="serialize"):
            emit_report(tmp_path / "r.json", {"grid": object()})


class TestStationaryPipeline:
    def test_run_writes_snapshot_report_manifest(self, tmp_path):
        cfg = small_cfg(tmp_path, "st")
        manifest = run_experiment(cfg)
        assert manifest.passed
        assert set(manifest.checks) == {
            "picard_converged",
            "contracting",
            "elliptic_residual_small",
            "electric_field_curl_free",
        }
        report = json.loads((tmp_path / "st" / "stationary.json").read_text())
        assert report["converged"] and report["iterations"] > 0
        assert 0.0 < report["contraction_factor"] < 1.0
        assert report["ratios"]["r1"] > 0.0

    def test_manifest_hash_matches_resolved_config(self, tmp_path):
        cfg = small_cfg(tmp_path, "st")
        run_experiment(cfg)
        stored = json.loads((tmp_path / "st" / "manifest.json").read_text())
        text = (tmp_path / "st" / "config.resolved.ini").read_text()
        assert stored["config_hash"] == hashlib.sha256(text.encode()).hexdigest()
        assert stored["config_hash"] == config_hash(cfg)
        assert stored["passed"] is True

    def test_trivial_background_records_zero_iterations(self, tmp_path):
        manifest = run_experiment(small_cfg(tmp_path, "st0", eps=0))
        assert manifest.passed
        report = json.loads((tmp_path / "st0" / "stationary.json").read_text())
        assert report["iterations"] == 0
        assert report["trivial_solution"] is True
        assert report["ratios"] is None

    def test_snapshot_round_trips_bit_exactly(self, tmp_path):
        cfg = small_cfg(tmp_path, "st")
        run_experiment(cfg)
        grid, fields = read_snapshot(tmp_path / "st" / "stationary.emxf")
        assert (grid.n, grid.box) == (16, 10.0)
        assert set(fields) >= {"n_st", "sigma_st", "e_st_x"}
        assert np.isfinite(fields["n_st"]).all()


class TestEvolvePipeline:
    def test_exact_equilibrium_records_fixedness(self, tmp_path):
        cfg = small_cfg(tmp_path, "eq", command="evolve", init="stationary-exact", t_end=2, cadence=0.5)
        manifest = run_experiment(cfg)
        assert manifest.checks["equilibrium_fixed"]
        assert manifest.passed
        # the gate uses the transported (representable) defect; the full
        # spectrum value, truncation tail included, rides along in the notes
        assert manifest.notes["max_gauss"] <= manifest.notes["max_gauss_full_spectrum"]

    def test_manifest_counts_steps_and_rhs_calls(self, tmp_path):
        # the step bound far exceeds a chunk here: one exponential step each
        cfg = small_cfg(tmp_path, "ev", command="evolve", t_end=1.5, cadence=0.5)
        manifest = run_experiment(cfg)
        notes = strict_json(tmp_path / "ev" / "manifest.json")["notes"]
        assert notes["steps"] == notes["samples"] - 1 == 3
        assert notes["rhs_calls"] == 4 * notes["steps"]
        # a step drifts the in-band defect a little; the reset takes it back
        assert 0.0 < notes["max_gauss_reset"] <= 1e-6
        assert manifest.checks["gauss_laws_transported"]

    def test_manifest_counters_of_the_band_loop(self, tmp_path):
        # the CI run at default box: four chunks of one step, four RHS calls each
        cfg = parse_config(overrides={
            "command": "evolve", "grid_n": "16", "t_end": "0.2", "order": "5",
            "cadence": "0.05", "out_dir": str(tmp_path / "ev"),
        })
        run_experiment(cfg)
        notes = strict_json(tmp_path / "ev" / "manifest.json")["notes"]
        assert (notes["steps"], notes["rhs_calls"]) == (4, 16)

    def test_flat_state_takes_one_step_per_chunk(self, tmp_path):
        # no flow but the exactly solved waves: cfl_dt is infinite, and the
        # accuracy bound, one period of the fastest flat wave, is a chunk and more
        out = tmp_path / "flat"
        code = main(["evolve", "--grid-n", "16", "--box-l", "10", "--eps", "0",
                     "--init", "stationary-exact", "--t-end", "1", "--out-dir", str(out)])
        assert code == 0
        manifest = strict_json(out / "manifest.json")
        assert manifest["checks"]["equilibrium_fixed"] is True
        assert manifest["notes"]["steps"] == manifest["notes"]["samples"] - 1 == 2
        assert manifest["notes"]["max_norm_v"] == 0.0

    def test_long_cadence_only_thins_the_samples(self, tmp_path):
        # cadence decides sampling, not accuracy: a chunk of 2 sqrt(g) is
        # longer than one period of the fastest flat wave (1.15 on this
        # grid), so it takes three steps, and the run matches the cadence
        # 0.5 run at their shared times
        series, notes = {}, {}
        for cadence in (0.5, 2.0):
            name = f"c{cadence}"
            cfg = small_cfg(tmp_path, name, command="evolve", t_end=4, cadence=cadence)
            manifest = run_experiment(cfg)
            assert manifest.passed
            notes[cadence] = manifest.notes
            series[cadence] = np.genfromtxt(tmp_path / name / "series.csv", delimiter=",", names=True)
        assert notes[0.5]["steps"] == 8 and notes[2.0]["steps"] == 6
        fine, coarse = series[0.5], series[2.0]
        shared = np.isin(fine["t"], coarse["t"])
        assert np.array_equal(fine["t"][shared], coarse["t"])
        for name in ("energy_full", "dissipation_full", "energy_high", "dissipation_high",
                     "norm_sigma", "norm_v", "norm_e", "norm_b"):
            ref = fine[name][shared]
            assert np.abs(coarse[name] - ref).max() <= 1e-4 * np.abs(ref).max(), name

    def test_long_box_ten_run_decays(self, tmp_path):
        # at cadence 1 the band's k_z = 0 plane, held at both xi and -xi,
        # grew an anti-Hermitian part unless settle held it Hermitian: this
        # run's energy rose from 0.05 at t = 28 to 3e10 at t = 40
        cfg = parse_config(overrides={
            "command": "evolve", "grid_n": "24", "box_l": "10", "t_end": "40",
            "cadence": "1", "out_dir": str(tmp_path / "ev"),
        })
        manifest = run_experiment(cfg)
        assert manifest.passed, (manifest.checks, manifest.notes)
        energy = np.genfromtxt(tmp_path / "ev" / "series.csv", delimiter=",", names=True)["energy_full"]
        assert energy[-1] < energy[0]

    def test_noise_run_is_bit_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = small_cfg(tmp_path, name, command="evolve", t_end=1, cadence=0.25, seed=5)
            run_experiment(cfg)
            outs.append(tmp_path / name)
        assert (outs[0] / "series.csv").read_bytes() == (outs[1] / "series.csv").read_bytes()
        assert (outs[0] / "state_final.emxf").read_bytes() == (
            outs[1] / "state_final.emxf"
        ).read_bytes()

    def test_series_columns_fixed_and_finite(self, tmp_path):
        cfg = small_cfg(tmp_path, "ev", command="evolve", t_end=1, cadence=0.25)
        run_experiment(cfg)
        path = tmp_path / "ev" / "series.csv"
        header = path.read_text().splitlines()[0]
        assert header == ",".join(SERIES_COLUMNS)
        data = np.genfromtxt(path, delimiter=",", names=True)
        assert data.size == 5
        assert np.isfinite(data["energy_full"]).all()
        assert data["t"][-1] == pytest.approx(1.0)
        manifest = json.loads((tmp_path / "ev" / "manifest.json").read_text())
        assert manifest["status"] == "ok" and manifest["error"] is None

    def test_no_sampled_stack_lives_through_a_chunk(self, tmp_path, monkeypatch):
        # once its sample is taken, a stack the flow yielded is garbage: the
        # run keeps the last one alone, for state_final.emxf, so none is held
        # while a chunk steps
        flow, step = pipelines.evolve_band, dynamics.step_rk4
        yielded, alive = [], []

        def watched_flow(*args):
            for tau, y_hat in flow(*args):
                yielded.append(weakref.ref(y_hat))
                yield tau, y_hat
                del y_hat

        def watched_step(*args):
            alive.append(sum(ref() is not None for ref in yielded))
            return step(*args)

        monkeypatch.setattr(pipelines, "evolve_band", watched_flow)
        monkeypatch.setattr(dynamics, "step_rk4", watched_step)
        cfg = small_cfg(tmp_path, "ev", command="evolve", t_end=1, cadence=0.5)
        assert run_experiment(cfg).passed
        assert len(yielded) == 3 and len(alive) >= 2
        assert max(alive) == 0

    def test_custom_init_resumes_from_snapshot(self, tmp_path):
        first = small_cfg(tmp_path, "leg", command="evolve", t_end=1, cadence=0.5)
        run_experiment(first)
        snap = tmp_path / "leg" / "state_final.emxf"
        resumed = small_cfg(
            tmp_path, "leg2", command="evolve", init="custom",
            init_snapshot=snap, t_end=1, cadence=0.5,
        )
        manifest = run_experiment(resumed)
        assert manifest.passed

    def test_custom_init_rejects_grid_mismatch(self, tmp_path):
        first = small_cfg(tmp_path, "leg", command="evolve", t_end=1, cadence=0.5)
        run_experiment(first)
        snap = tmp_path / "leg" / "state_final.emxf"
        other = small_cfg(
            tmp_path, "leg3", command="evolve", init="custom", init_snapshot=snap,
            t_end=1, cadence=0.5, box_l=12,
        )
        with pytest.raises(ValueError, match="does not match"):
            run_experiment(other)


class TestLyapunovPipeline:
    def test_certifies_a_real_series(self, tmp_path):
        run_experiment(small_cfg(tmp_path, "ev", command="evolve", t_end=2, cadence=0.25))
        series = tmp_path / "ev" / "series.csv"
        cfg = small_cfg(tmp_path, "ly", command="lyapunov", series=series)
        manifest = run_experiment(cfg)
        assert manifest.passed
        report = json.loads((tmp_path / "ly" / "lyapunov.json").read_text())
        for pair in ("full", "high"):
            assert report[pair]["certified"] is True
            assert report[pair]["lambda_best"] > 0.0
            assert report[pair]["violations"] == []

    def test_missing_series_key_rejected(self, tmp_path):
        # an invalid config, refused before a run could start
        with pytest.raises(ValueError, match="invalid config: key series is required by lyapunov"):
            small_cfg(tmp_path, "ly", command="lyapunov")

    def test_growing_energy_fails_certification(self, tmp_path):
        series = tmp_path / "bad.csv"
        rows = [
            (0.1 * k,) + (1.0 + 0.25 * k, 1.0) * 2 + (0.0,) * 9 for k in range(20)
        ]
        emit_series(series, SERIES_COLUMNS, rows)
        cfg = small_cfg(tmp_path, "ly", command="lyapunov", series=series)
        manifest = run_experiment(cfg)
        assert not manifest.passed

    def test_vacuous_certification_reports_null_lambda(self, tmp_path):
        # no step dissipates: lambda is +inf, which JSON spells null
        series = tmp_path / "flat.csv"
        rows = [(0.1 * k,) + (1.0, 0.0) * 2 + (0.0,) * 9 for k in range(5)]
        emit_series(series, SERIES_COLUMNS, rows)
        manifest = run_experiment(small_cfg(tmp_path, "ly", command="lyapunov", series=series))
        assert manifest.passed
        report = strict_json(tmp_path / "ly" / "lyapunov.json")
        for pair in ("full", "high"):
            assert report[pair]["lambda_best"] is None
            assert report[pair]["lambda_strict"] is None
            assert report[pair]["certified"] is True

    def test_header_only_series_rejected(self, tmp_path):
        series = tmp_path / "empty.csv"
        emit_series(series, SERIES_COLUMNS, [])
        cfg = small_cfg(tmp_path, "ly", command="lyapunov", series=series)
        with pytest.raises(ValueError, match="empty.csv"):
            run_experiment(cfg)


class TestLindecayPipeline:
    def test_fit_records_carry_target_tolerance_verdict(self, tmp_path):
        cfg = small_cfg(
            tmp_path, "ld", command="lindecay",
            radial_nodes=16,
        )
        manifest = run_experiment(cfg)
        assert manifest.passed
        report = json.loads((tmp_path / "ld" / "decay_fits.json").read_text())
        assert set(report["fits"]) == {"rho", "u", "e", "b", "grad_b"}
        for record in report["fits"].values():
            assert {"exponent", "target", "tolerance", "verdict", "window"} <= set(record)
            assert record["verdict"] == "pass"
        header = (tmp_path / "ld" / "norms.csv").read_text().splitlines()[0]
        assert header == "t,rho,u,e,b,grad_b"


class TestCli:
    def test_invalid_config_exits_two(self, capsys):
        assert main(["stationary", "--gamma", "0.9"]) == 2
        assert "gamma" in capsys.readouterr().err

    def test_stationary_roundtrip_exit_zero(self, tmp_path, capsys):
        code = main(
            ["stationary", "--grid-n", "16", "--box-l", "10", "--out-dir", str(tmp_path / "r")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "picard_converged: pass" in out
        assert (tmp_path / "r" / "manifest.json").exists()

    def test_failed_checks_exit_one(self, tmp_path, capsys):
        series = tmp_path / "bad.csv"
        rows = [
            (0.1 * k,) + (1.0 + 0.25 * k, 1.0) * 2 + (0.0,) * 9 for k in range(20)
        ]
        emit_series(series, SERIES_COLUMNS, rows)
        code = main(
            ["lyapunov", "--series", str(series), "--out-dir", str(tmp_path / "ly")]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_errors_exit_one_with_context(self, tmp_path, capsys):
        code = main(
            ["lyapunov", "--series", str(tmp_path / "nope.csv"),
             "--out-dir", str(tmp_path / "ly")]
        )
        assert code == 1
        assert "lyapunov run failed" in capsys.readouterr().err

    def test_failed_allocation_exits_one_with_one_line(self, tmp_path, capsys, monkeypatch):
        # a run too large for memory raises MemoryError deep in numpy
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr("emlab.pipelines.decay_trajectory", too_large)
        code = main(["lindecay", "--out-dir", str(tmp_path / "ld")])
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("emlab: "), captured.err
        assert "Unable to allocate" in lines[0]
        manifest = strict_json(tmp_path / "ld" / "manifest.json")
        assert manifest["status"] == "failed" and "MemoryError" in manifest["error"]

    def test_non_finite_custom_snapshot_exits_one_naming_field(self, tmp_path, capsys):
        snap = custom_snapshot(tmp_path, set_point("sigma", (3, 4, 5), np.nan))
        code = main(evolve_custom_argv(tmp_path, snap))
        assert code == 1
        err = capsys.readouterr().err
        assert "non-finite" in err and "sigma" in err
        # a run that raises still explains itself from its out-dir
        manifest = json.loads((tmp_path / "ev" / "manifest.json").read_text())
        assert manifest["status"] == "failed" and not manifest["passed"]
        assert "non-finite" in manifest["error"] and "sigma" in manifest["error"]
        assert manifest["wall_clock_s"] > 0.0

    def test_inadmissible_custom_sigma_exits_one_naming_field(self, tmp_path, capsys):
        # w(sigma) = (gamma - 1)/2 sigma + 1 <= 0 has no density
        snap = custom_snapshot(tmp_path, set_point("sigma", (3, 4, 5), -10.0))
        code = main(evolve_custom_argv(tmp_path, snap))
        assert code == 1
        err = capsys.readouterr().err
        assert "sigma" in err and "admissible" in err

    def test_non_finite_state_names_physical_time(self, tmp_path, capsys):
        # a huge sheared magnetic field overflows within the first chunk, so
        # the step bound of the second chunk is the first non-finite one; a
        # flat background (eps 0) makes the zero density Gauss-compatible
        snap = custom_snapshot(tmp_path, big_sheared_b)
        with np.errstate(all="ignore"):
            code = main(evolve_custom_argv(tmp_path, snap, "--eps", "0"))
        assert code == 1
        err = capsys.readouterr().err
        # the physical time series.csv would use, not tau = sqrt(gamma) t
        assert "state non-finite at t=0.5 " in err
        # the samples gathered before the failure are written, t = 0 first
        with open(tmp_path / "ev" / "series.csv") as fh:
            header = fh.readline().strip().split(",")
            first = [float(v) for v in fh.readline().split(",")]
        assert header == list(SERIES_COLUMNS)
        assert first[0] == 0.0 and np.isfinite(first).all()

    def test_overflowing_state_prints_no_warning(self, tmp_path):
        # numpy's default error handling, which TestExitCodes sets aside: the
        # products overflow quietly, and the one line names the NaN state
        snap = custom_snapshot(tmp_path, big_sheared_b)
        proc = fresh_python("-m", "emlab.cli", *evolve_custom_argv(tmp_path, snap, "--eps", "0"))
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("emlab: "), proc.stderr
        assert "state non-finite at t=0.5 " in lines[0]

    @pytest.mark.parametrize("amp", [2.5, 2.9])
    def test_flow_leaving_the_admissible_range_takes_no_power(self, amp, tmp_path):
        # the initial state is admissible, and the flow leaves the range in its
        # first chunk; a power of a negative w would raise FloatingPointError here
        cfg = small_cfg(tmp_path, "ev", command="evolve", amp=amp, t_end=1)
        with np.errstate(invalid="raise"), pytest.raises(InadmissibleStateError) as info:
            run_experiment(cfg)
        assert info.value.t == 0.0 and info.value.base_min < 0.0
        assert "admissible" in str(info.value) and "t=0:" in str(info.value)
        manifest = strict_json(tmp_path / "ev" / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["error"] == f"InadmissibleStateError: {info.value}"
        # the t = 0 sample, taken before the flow left the range, is written
        series = np.genfromtxt(tmp_path / "ev" / "series.csv", delimiter=",", names=True)
        assert np.atleast_1d(series["t"]).tolist() == [0.0]

    def test_non_finite_series_exits_one_naming_row_and_column(self, tmp_path, capsys):
        series = tmp_path / "nan.csv"
        rows = [(0.1 * k,) + (1.0 - 0.01 * k, 1.0) * 2 + (0.0,) * 9 for k in range(6)]
        rows[2] = (0.2, np.nan) + rows[2][2:]
        emit_series(series, SERIES_COLUMNS, rows)
        code = main(["lyapunov", "--series", str(series), "--out-dir", str(tmp_path / "ly")])
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("emlab: ")
        assert "Traceback" not in captured.err + captured.out
        assert "non-finite energy_full" in lines[0] and "data row 3" in lines[0]
        assert not (tmp_path / "ly" / "lyapunov.json").exists()
        manifest = strict_json(tmp_path / "ly" / "manifest.json")
        assert manifest["status"] == "failed" and "data row 3" in manifest["error"]

    def test_step_collapse_exits_one_naming_t_and_h(self, tmp_path, capsys, monkeypatch):
        grid = GridSpec(16, 20.0)
        snap = custom_snapshot(tmp_path, fast_v, grid)

        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr("emlab.dynamics.step_rk4", no_step)
        # a flat background (eps 0) makes the zero density Gauss-compatible
        code = main(evolve_custom_argv(tmp_path, snap, "--cfl", "0.9", "--eps", "0", box="20"))
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("emlab: ")
        assert "Traceback" not in captured.err + captured.out
        assert "step size collapsed at t=0:" in lines[0]
        h = float(lines[0].split("h = ")[1].split()[0])
        gamma = parse_config().gamma
        assert h == pytest.approx(0.9 * grid.dx / 1e12 / np.sqrt(gamma), rel=1e-5)
        manifest = strict_json(tmp_path / "ev" / "manifest.json")
        assert manifest["status"] == "failed" and "collapsed" in manifest["error"]
        # the failed manifest keeps the loop's counters: no step, no RHS call
        assert (manifest["notes"]["steps"], manifest["notes"]["rhs_calls"]) == (0, 0)
        # the t = 0 sample was taken before the failure and is kept
        assert len((tmp_path / "ev" / "series.csv").read_text().splitlines()) == 2

    def test_config_file_plus_flag_override(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[grid]\ngrid_n = 16\nbox_l = 10.0\n[background]\neps = 0.0\n")
        code = main(
            ["stationary", "--config", str(path), "--eps", "0.03",
             "--out-dir", str(tmp_path / "r")]
        )
        assert code == 0
        report = json.loads((tmp_path / "r" / "stationary.json").read_text())
        assert report["iterations"] > 0  # the override un-trivialized the run

    def test_help_documents_defaults(self):
        parser = build_parser()
        [sub_action] = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        text = sub_action.choices["stationary"].format_help()
        assert "--grid-n" in text and "default 48" in text
        assert "--out-dir" in text and "--seed" in text and "--threads" in text

    def test_flags_are_exactly_the_config_keys(self):
        parser = build_parser()
        [sub_action] = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        flags = {
            a.dest
            for sub in sub_action.choices.values()
            for a in sub._actions
            if a.dest not in ("help", "config")
        }
        assert flags == {f.name for f in fields(ExperimentConfig)} - {"command"}

    def test_every_key_declares_its_section_and_help(self):
        for f in fields(ExperimentConfig):
            assert f.metadata["section"] in KEY_SECTIONS, f.name
            assert f.name in KEY_SECTIONS[f.metadata["section"]]
            if f.name != "command":
                assert f.metadata["help"].strip(), f.name


def resumed_with_doubled_e_x(tmp_path, monkeypatch):
    # a state the flow produced, so Gauss-compatible until e_x is doubled
    assert main(["evolve", "--grid-n", "16", "--box-l", "10", "--t-end", "0.5",
                 "--cadence", "0.5", "--out-dir", str(tmp_path / "leg")]) == 0
    grid, fields = read_snapshot(tmp_path / "leg" / "state_final.emxf")
    fields["e_x"] = 2.0 * fields["e_x"]
    write_snapshot(tmp_path / "doubled.emxf", grid, fields)
    argv = evolve_custom_argv(tmp_path, tmp_path / "doubled.emxf")
    return argv, ["doubled.emxf", "Gauss", "gauss_e_l2_band", "exceeds 1e-06"]


def corrupt_emxf(tmp_path, monkeypatch):
    snap = custom_snapshot(tmp_path, lambda fields, grid: None)
    snap.write_bytes(snap.read_bytes()[:100])
    return evolve_custom_argv(tmp_path, snap), ["corrupt EMXF file"]


def picard_expanding(tmp_path, monkeypatch):
    # no background tried below the contraction gate diverges, so the
    # fixed-point map is made expanding, as in the stationary unit test
    monkeypatch.setattr("emlab.stationary.g_nonlinearity", lambda x, gamma: 5.0 * x)
    argv = ["stationary", "--grid-n", "8", "--box-l", "5", "--out-dir", str(tmp_path / "st")]
    return argv, ["Picard iteration expanding"]


def lyapunov_argv(tmp_path):
    return ["lyapunov", "--series", str(tmp_path / "series.csv"), "--out-dir", str(tmp_path / "ly")]


def malformed_series(tmp_path, monkeypatch):
    (tmp_path / "series.csv").write_text(",".join(SERIES_COLUMNS) + "\n0,1,2\n0.1,1,2,3\n")
    return lyapunov_argv(tmp_path), ["cannot read series"]


def non_finite_series(tmp_path, monkeypatch):
    rows = [(0.1 * k,) + (1.0 - 0.01 * k, 1.0) * 2 + (0.0,) * 9 for k in range(6)]
    rows[2] = (0.2, np.inf) + rows[2][2:]
    emit_series(tmp_path / "series.csv", SERIES_COLUMNS, rows)
    return lyapunov_argv(tmp_path), ["non-finite energy_full"]


def empty_series(tmp_path, monkeypatch):
    (tmp_path / "series.csv").write_bytes(b"")
    return lyapunov_argv(tmp_path), ["cannot read series", "series.csv", "Empty input file"]


def header_only_series(tmp_path, monkeypatch):
    emit_series(tmp_path / "series.csv", SERIES_COLUMNS, [])
    return lyapunov_argv(tmp_path), ["series.csv", "fewer than two samples"]


def series_missing_columns(tmp_path, monkeypatch):
    (tmp_path / "series.csv").write_text("t,energy_full\n0,1\n0.1,0.9\n0.2,0.8\n")
    return lyapunov_argv(tmp_path), ["series.csv", "dissipation_full", "energy_high"]


def off_scale_width(key, value, needle, *argv):
    """A width whose square, or whose family's envelope or tail bound, leaves the
    float range: refused before any work, not left to overflow later."""
    flag = "--" + key.replace("_", "-")
    return (
        lambda tmp, mp: ([*argv, flag, value, "--out-dir", str(tmp / "w")],
                         [f"key {key} ", needle]),
        2, False,
    )


# failure class -> (setup returning argv and needles of the message, exit status,
# whether a run started and so must leave a failed manifest)
FAILURES = {
    "corrupt-emxf": (corrupt_emxf, 1, True),
    "non-finite-init": (
        lambda tmp, mp: (evolve_custom_argv(
            tmp, custom_snapshot(tmp, set_point("v_y", (1, 2, 3), np.inf))), ["non-finite", "v_y"]),
        1, True,
    ),
    "inadmissible-init": (
        lambda tmp, mp: (evolve_custom_argv(
            tmp, custom_snapshot(tmp, set_point("sigma", (0, 0, 0), -3.0))), ["admissible"]),
        1, True,
    ),
    "gauss-incompatible-init": (resumed_with_doubled_e_x, 1, True),
    "cfl-collapse": (
        lambda tmp, mp: (evolve_custom_argv(
            tmp, custom_snapshot(tmp, fast_v), "--eps", "0"), ["step size collapsed"]),
        1, True,
    ),
    # a box far wider than its grid resolves: the flat-wave period, not the CFL
    # bound, would set h, and no step of that size could fill the chunk
    "flat-wave-collapse": (
        lambda tmp, mp: (["evolve", "--grid-n", "8", "--box-l", "1000", "--eps", "0",
                          "--t-end", "3e7", "--cadence", "3e7", "--out-dir", str(tmp / "ev")],
                         ["cadence", "must not exceed", "flat-wave period"]),
        2, False,
    ),
    "non-finite-state": (
        lambda tmp, mp: (evolve_custom_argv(
            tmp, custom_snapshot(tmp, big_sheared_b), "--eps", "0"), ["state non-finite"]),
        1, True,
    ),
    # the state is admissible at t = 0, and the flow's RHS refuses it in the
    # first chunk, before any power of w is taken of it
    "inadmissible-flow": (
        lambda tmp, mp: (["evolve", "--grid-n", "16", "--box-l", "10", "--amp", "2.5",
                          "--t-end", "1", "--out-dir", str(tmp / "ev")],
                         ["admissible", "t=0"]),
        1, True,
    ),
    # the noise builder refuses w(sigma_st + sigma) <= 0 before any power of it
    "inadmissible-noise": (
        lambda tmp, mp: (["evolve", "--grid-n", "16", "--box-l", "10", "--amp", "4",
                          "--t-end", "1", "--out-dir", str(tmp / "ev")],
                         ["admissible", "amp = 4"]),
        1, True,
    ),
    "picard-divergence": (picard_expanding, 1, True),
    "malformed-series": (malformed_series, 1, True),
    "non-finite-series": (non_finite_series, 1, True),
    "series-missing-columns": (series_missing_columns, 1, True),
    "empty-series": (empty_series, 1, True),
    "header-only-series": (header_only_series, 1, True),
    "missing-series": (
        lambda tmp, mp: (["lyapunov", "--out-dir", str(tmp / "ly")], ["series", "lyapunov"]),
        2, False,
    ),
    "impossible-config": (
        lambda tmp, mp: (["evolve", "--t-end", "1", "--cadence", "0.3",
                          "--out-dir", str(tmp / "ev")], ["cadence"]),
        2, False,
    ),
    "non-finite-config": (
        lambda tmp, mp: (["evolve", "--t-end", "inf", "--out-dir", str(tmp / "ev")],
                         ["t_end", "finite"]),
        2, False,
    ),
    "overflowing-chunk-count": (
        lambda tmp, mp: (["evolve", "--t-end", "1e300", "--cadence", "1e-300",
                          "--out-dir", str(tmp / "ev")], ["cadence", "finitely many chunks"]),
        2, False,
    ),
    # 2 phi nodes miss cos^2 phi, so the norms would be off by 4-16 %
    "coarse-angular-rule": (
        lambda tmp, mp: (["lindecay", "--phi-nodes", "2", "--out-dir", str(tmp / "ld")],
                         ["phi_nodes", ">= 3"]),
        2, False,
    ),
    "tiny-family-width": off_scale_width("family_width", "1e-300", "tail_bound", "lindecay"),
    "huge-family-width": off_scale_width("family_width", "1e300", "nonzero", "lindecay"),
    # a tail bound of inf would be written as a report that is not JSON
    "inf-tail-bound-family-width": off_scale_width(
        "family_width", "1e-44", "quadrature_tail_bound(family_width) finite", "lindecay"),
    # an envelope of 0 at every node would make every norm 0 and no fit possible
    "underflowing-envelope-family-width": off_scale_width(
        "family_width", "1e6", "nonzero at the smallest radial node", "lindecay"),
    "tiny-background-width": off_scale_width(
        "width", "1e-300", "finite nonzero", "stationary", "--grid-n", "16"),
    "huge-background-width": off_scale_width(
        "width", "1e300", "finite nonzero", "stationary", "--grid-n", "16"),
    # " #" would open an inline comment in config.resolved.ini, and a rerun
    # from it would write elsewhere
    "string-cut-by-comment": (
        lambda tmp, mp: (["evolve", "--out-dir", str(tmp / "a #b")], ["out_dir", "# or ;"]),
        2, False,
    ),
    # the CFL step of this run is normal; no step of it could fill such a chunk
    "chunk-past-step-cap": (
        lambda tmp, mp: (["evolve", "--grid-n", "16", "--box-l", "10", "--t-end", "1e300",
                          "--cadence", "1e280", "--out-dir", str(tmp / "ev")],
                         ["cadence", "must not exceed", "250000"]),
        2, False,
    ),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(FAILURES))
    def test_failure_exits_with_one_named_line(self, case, tmp_path, capsys, monkeypatch):
        setup, status, started = FAILURES[case]
        argv, needles = setup(tmp_path, monkeypatch)
        capsys.readouterr()
        # overflow warnings go through the warnings module, not the CLI's stderr
        with np.errstate(all="ignore"):
            code = main(argv)
        captured = capsys.readouterr()
        assert code == status
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("emlab: "), captured.err
        assert "Traceback" not in captured.err + captured.out
        for needle in needles:
            assert needle in lines[0]
        manifest_path = Path(argv[argv.index("--out-dir") + 1]) / "manifest.json"
        if started:
            manifest = strict_json(manifest_path)
            assert manifest["status"] == "failed" and not manifest["passed"]
            assert needles[0] in manifest["error"]
        else:
            assert not manifest_path.exists()


class TestThreadedAgreement:
    def test_parallel_outputs_are_the_serial_bytes(self, tmp_path):
        # a field's transform does not depend on the thread that takes it
        run_experiment(small_cfg(tmp_path, "s1", command="evolve", t_end=1, cadence=0.25, threads=1))
        run_experiment(small_cfg(tmp_path, "s4", command="evolve", t_end=1, cadence=0.25, threads=4))
        for name in ("series.csv", "state_final.emxf"):
            assert (tmp_path / "s1" / name).read_bytes() == (tmp_path / "s4" / name).read_bytes()


_IMPORT_PROBE = """
import sys
from emlab.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("scipy modules:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
sys.exit(code)
"""


def fresh_python(*args):
    """The finished `python args` in a fresh interpreter, with this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=300,
    )


def scipy_modules_loaded(*argv):
    """The scipy modules a fresh interpreter holds after emlab's CLI ran argv."""
    proc = fresh_python("-c", _IMPORT_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.splitlines()[-1]
    assert line.startswith("scipy modules:"), proc.stdout
    return set(line.split()[2:])


class TestLeanImports:
    """No subcommand loads scipy: the grid transforms are numpy's."""

    def test_cli_import_loads_no_scipy(self):
        assert scipy_modules_loaded() == set()

    def test_lindecay_runs_without_scipy(self, tmp_path):
        assert scipy_modules_loaded(
            "lindecay", "--radial-nodes", "8", "--threads", "2",
            "--out-dir", str(tmp_path / "ld"),
        ) == set()
        assert (tmp_path / "ld" / "decay_fits.json").exists()

    def test_lyapunov_runs_without_scipy(self, tmp_path):
        series = tmp_path / "decaying.csv"
        rows = [(0.1 * k,) + (np.exp(-0.1 * k),) * 4 + (0.0,) * 9 for k in range(20)]
        emit_series(series, SERIES_COLUMNS, rows)
        assert scipy_modules_loaded(
            "lyapunov", "--series", str(series), "--threads", "2",
            "--out-dir", str(tmp_path / "ly"),
        ) == set()
        assert (tmp_path / "ly" / "lyapunov.json").exists()

    def test_evolve_runs_without_scipy(self, tmp_path):
        for threads in ("1", "2"):
            out = tmp_path / f"ev{threads}"
            assert scipy_modules_loaded(
                "evolve", "--grid-n", "16", "--box-l", "10", "--t-end", "0.5",
                "--cadence", "0.25", "--threads", threads, "--out-dir", str(out),
            ) == set()
            assert (out / "state_final.emxf").exists()
