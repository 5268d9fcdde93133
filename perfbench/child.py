"""One pipeline invocation in a fresh interpreter, as the emlab CLI runs it.

    python3 child.py SPEC.json

SPEC names the config overrides, whether to stop after set-up, whether to
trace, and where to write the result.  The child records the monotonic
clock once emlab is imported and the config is validated (set-up done),
then calls ``emlab.pipelines.run_experiment``.  Its exit status is 0 only
when every manifest check passes, as for ``emlab.cli``.

With tracing on, the public functions at the layer boundaries are wrapped
from outside: each wrapper counts calls and accumulates total and self
time (total minus the time of wrapped calls nested inside it), and some
record work counts such as the number of fields an FFT call transforms.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    """Aggregated spans: per name, calls, total seconds and self seconds."""

    def __init__(self) -> None:
        self.spans: dict[str, dict[str, float]] = {}
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a timed wrapper; note hooks that are gone."""
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            self.missing.append(name)
            return
        span = self.spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                span["calls"] += 1
                span["s"] += elapsed
                span["self_s"] += elapsed - nested[0]
            if on_result is not None:
                on_result(self, args, result)
            return result

        setattr(owner, attr, traced)


def _fft_work(direction: str):
    def record(tracer: Tracer, args, result) -> None:
        # args = (grid, array); axes before the last three index the fields
        grid, arr = args[0], args[1]
        fields = 1
        for size in arr.shape[:-3]:
            fields *= size
        n = grid.n
        # computed from array sizes, not measured: per field a float64 grid in
        # (or out) and a complex128 half spectrum out (or in)
        tracer.count(f"grid.{direction}.fields", fields)
        tracer.count("grid.fft_bytes", fields * (8 * n**3 + 16 * n * n * (n // 2 + 1)))
    return record


def _propagator_built(tracer: Tracer, args, result) -> None:
    prop = args[0]
    tracer.count("lindecay.quadrature_nodes", len(prop.xi))
    tracer.count("lindecay.expm_fallback_nodes", len(prop.bad))


def _picard_done(tracer: Tracer, args, result) -> None:
    tracer.count("stationary.picard_sweeps", len(result.residual_history))


def _snapshot_written(tracer: Tracer, args, result) -> None:
    tracer.count("snapshot.write_snapshot.bytes", os.path.getsize(args[0]))


def install_tracer(tracer: Tracer) -> None:
    import emlab.dynamics
    import emlab.grid
    import emlab.lindecay
    import emlab.pipelines as pl

    grid_cls = emlab.grid.GridSpec
    tracer.wrap(grid_cls, "transform", "grid.transform", _fft_work("transform"))
    tracer.wrap(grid_cls, "inverse", "grid.inverse", _fft_work("inverse"))
    # the pipelines call these through their own module namespace
    for attr in ("rhs_symmetric", "cfl_dt", "constraint_residuals", "compatible_perturbation"):
        tracer.wrap(pl, attr, f"dynamics.{attr}")
    # integrate_fixed looks step_rk4 up in the dynamics module
    tracer.wrap(emlab.dynamics, "step_rk4", "dynamics.step_rk4")
    tracer.wrap(pl, "energy_report", "energy.energy_report")
    tracer.wrap(pl, "lyapunov_certify", "energy.lyapunov_certify")
    prop_cls = getattr(emlab.lindecay, "BatchPropagator", None)
    tracer.wrap(prop_cls, "__init__", "lindecay.propagator_build", _propagator_built)
    tracer.wrap(prop_cls, "apply", "lindecay.propagator_apply")
    tracer.wrap(pl, "decay_trajectory", "lindecay.decay_trajectory")
    tracer.wrap(pl, "picard_iterate", "stationary.picard_iterate", _picard_done)
    tracer.wrap(pl, "write_snapshot", "snapshot.write_snapshot", _snapshot_written)
    tracer.wrap(pl, "emit_series", "pipelines.emit_series")
    tracer.wrap(pl, "emit_report", "pipelines.emit_report")
    tracer.wrap(pl, "run_experiment", "pipelines.run_experiment")


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result: dict[str, object] = {}

    import emlab.config
    import emlab.pipelines

    src_dir = os.path.realpath(spec["src_dir"])
    if not os.path.realpath(emlab.__file__).startswith(src_dir + os.sep):
        print(f"child: imported emlab from {emlab.__file__}, not {src_dir}", file=sys.stderr)
        return 3
    parse_start = time.perf_counter()
    cfg = emlab.config.parse_config(None, spec["overrides"])
    result["config.parse_config.s"] = time.perf_counter() - parse_start
    # CLOCK_MONOTONIC is shared by all processes, so the parent can subtract
    result["ready_at"] = time.monotonic()

    passed = True
    if not spec["setup_only"]:
        tracer = Tracer() if spec["trace"] else None
        if tracer is not None:
            install_tracer(tracer)
        try:
            manifest = emlab.pipelines.run_experiment(cfg)
        except (ValueError, RuntimeError, OSError) as err:
            print(f"child: {cfg.command} run failed: {err}", file=sys.stderr)
            return 1
        passed = manifest.passed
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
            result["missing_hooks"] = tracer.missing
    if spec.get("report_env"):
        import numpy
        import scipy
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }

    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if passed else 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: child.py SPEC.json", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
