"""Outside-in benchmark of the emlab pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside a checkout that holds ``src/emlab``; the
program is pure Python, so there is nothing to build.  Each repetition of
a workload launches every pipeline step as ``python3 perfbench/child.py``,
a fresh interpreter that calls ``emlab.config.parse_config`` and
``emlab.pipelines.run_experiment`` as ``emlab.cli`` does.  A fresh process
per step keeps the process-wide propagator cache and the cached grid
multipliers of one repetition from speeding up the next.  Every step runs
with ``threads=1`` and BLAS/OpenMP pinned to one thread.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json: medians over the repetitions that fit in ``--seconds``.
With ``--trace 1`` it alternates untraced and traced repetitions and
reports the per-layer metrics, from wrappers that child.py installs
around the public functions at the layer boundaries.

Every repetition is gated: each step must exit 0, its manifest must pass
every check and hold the expected number of samples, and repetitions with
the same seed must write byte-identical outputs (serial runs are
bit-deterministic).  Human-readable lines come first on stdout; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs the same workloads at tiny sizes, to check
the gate and the metric names in seconds; its numbers are not comparable.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
OUT_DIR = BENCH_DIR / ".out"

THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
THREADS = 1
SETUP_PROBES = 2  # set-up-only launches before the first round, after a warm-up
CHILD_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Step:
    """One pipeline invocation: config overrides and the samples it must log."""

    overrides: dict
    samples: int


def _evolve(**keys) -> Step:
    samples = round(float(keys["t_end"]) / float(keys["cadence"])) + 1
    return Step({"command": "evolve", "out_dir": "ev", **keys}, samples)


def _evolve_n48(smoke: bool) -> list[Step]:
    n, t_end = (16, 0.5) if smoke else (48, 1.5)
    return [_evolve(grid_n=n, order=3, cadence=0.5, t_end=t_end)]


def _evolve_diag_n32(smoke: bool) -> list[Step]:
    n, t_end = (16, 0.2) if smoke else (32, 1.0)
    evolve = _evolve(grid_n=n, order=5, cadence=0.05, t_end=t_end)
    lyapunov = Step(
        {"command": "lyapunov", "series": "ev/series.csv", "out_dir": "ly"}, evolve.samples
    )
    return [evolve, lyapunov]


def _lindecay_default(smoke: bool) -> list[Step]:
    coarse = {"radial_nodes": 8, "theta_nodes": 4, "phi_nodes": 8} if smoke else {}
    # the default t_grid is 5:500:40
    return [Step({"command": "lindecay", "out_dir": "ld", **coarse}, 40)]


WORKLOADS = {
    "evolve-n48": _evolve_n48,
    "evolve-diag-n32": _evolve_diag_n32,
    "lindecay-default": _lindecay_default,
}

# wrapped spans whose call count is a per-layer metric ("<span>.calls")
SPAN_CALLS = (
    "grid.transform",
    "grid.inverse",
    "dynamics.rhs_symmetric",
    "dynamics.step_rk4",
    "dynamics.constraint_residuals",
    "dynamics.cfl_dt",
    "energy.energy_report",
    "lindecay.propagator_apply",
)
# wrapped spans whose total time is a per-layer metric ("<span>.s")
SPAN_TIMES = SPAN_CALLS + (
    "dynamics.compatible_perturbation",
    "energy.lyapunov_certify",
    "lindecay.propagator_build",
    "lindecay.decay_trajectory",
    "stationary.picard_iterate",
    "snapshot.write_snapshot",
    "pipelines.emit_series",
    "pipelines.emit_report",
)
# work counts recorded by the wrappers; they repeat exactly for a given code
COUNT_METRICS = (
    "grid.transform.fields",
    "grid.inverse.fields",
    "grid.fft_bytes",
    "lindecay.quadrature_nodes",
    "lindecay.expm_fallback_nodes",
    "stationary.picard_sweeps",
    "snapshot.write_snapshot.bytes",
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---- launching children ------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def launch(work: Path, label: str, spec: dict) -> dict:
    """Run child.py once; return wall, set-up, peak RSS, exit code, result."""
    spec_path = work / f"{label}.spec.json"
    result_path = work / f"{label}.result.json"
    spec = {**spec, "src_dir": str(SRC_DIR), "result_path": str(result_path)}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / f"{label}.stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path)],
            cwd=work,
            env=_child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    return {
        "wall_s": end - start,
        "setup_s": result["ready_at"] - start if result else None,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "result": result,
        "stderr": (work / f"{label}.stderr").read_text(errors="replace")[-2000:],
    }


def _overrides(step: Step, seed: int) -> dict[str, str]:
    keys = {**step.overrides, "seed": seed, "threads": THREADS}
    return {key: str(value) for key, value in keys.items()}


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def probe(steps: list[Step], seed: int, report_env: bool = False) -> dict:
    """Launch a child that stops once emlab is imported and the config validated."""
    work = _fresh_dir(OUT_DIR / "probe")
    spec = {"overrides": _overrides(steps[0], seed), "setup_only": True,
            "trace": False, "report_env": report_env}
    return launch(work, "probe", spec)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _gate(work: Path, step: Step, child: dict) -> tuple[list[str], dict[str, str]]:
    """Problems with one step's run, and the sha256 of each output it wrote."""
    command = step.overrides["command"]
    problems = [] if child["exit"] == 0 else [f"{command}: exit status {child['exit']}"]
    manifest_path = work / step.overrides["out_dir"] / "manifest.json"
    if child["result"] is None or not manifest_path.exists():
        return problems + [f"{command}: no manifest: {child['stderr'].strip()[-300:]}"], {}
    manifest = json.loads(manifest_path.read_text())
    problems += [f"{command}: check {name} failed"
                 for name, ok in manifest.get("checks", {}).items() if not ok]
    if not manifest.get("checks") or not manifest.get("passed"):
        problems.append(f"{command}: manifest not passed")
    samples = manifest.get("notes", {}).get("samples")
    if samples != step.samples:
        problems.append(f"{command}: {samples} samples, expected {step.samples}")
    hashes = {}
    for rel in manifest.get("outputs", []):
        path = work / rel
        if not path.is_file():
            problems.append(f"{command}: output {rel} missing")
            continue
        hashes[rel] = _sha256(path)
        if path.suffix == ".csv":
            rows = len(path.read_text().splitlines()) - 1
            if rows != step.samples:
                problems.append(f"{command}: {rel} has {rows} rows, expected {step.samples}")
    return problems, hashes


def repetition(steps: list[Step], seed: int, trace: bool) -> dict:
    """Run the workload's chain of steps once and gate its outputs."""
    work = _fresh_dir(OUT_DIR / "work")
    rep = {"trace": trace, "wall_s": 0.0, "setup_s": [], "peak_rss_mb": 0.0,
           "problems": [], "hashes": {}, "spans": {}, "counts": {},
           "parse_config_s": 0.0, "missing_hooks": []}
    for step in steps:
        label = step.overrides["command"]
        spec = {"overrides": _overrides(step, seed), "setup_only": False, "trace": trace}
        child = launch(work, label, spec)
        rep["wall_s"] += child["wall_s"]
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], child["peak_rss_mb"])
        problems, hashes = _gate(work, step, child)
        rep["problems"] += problems
        rep["hashes"].update(hashes)
        if child["setup_s"] is not None:
            rep["setup_s"].append(child["setup_s"])
        result = child["result"] or {}
        rep["parse_config_s"] += result.get("config.parse_config.s", 0.0)
        for name, span in result.get("spans", {}).items():
            total = rep["spans"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += span[key]
        for name, count in result.get("counts", {}).items():
            rep["counts"][name] = rep["counts"].get(name, 0) + count
        rep["missing_hooks"] += result.get("missing_hooks", [])
        if problems:
            break
    return rep


# ---- statistics and reporting ------------------------------------------


def summary(values: list[float]) -> tuple[float, float, float, int]:
    """Median, first and third quartile, sample count."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "thread_env": THREAD_ENV,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        **versions,
    }


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer values: medians over the traced repetitions."""
    def med(get) -> float:
        return statistics.median(get(rep) for rep in traced)

    def count(get) -> int:
        # counts repeat exactly for a given code; median_low keeps them whole
        return statistics.median_low(get(rep) for rep in traced)

    out: dict[str, float] = {}
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = count(lambda r: r["spans"].get(name, {}).get("calls", 0))
    for name in SPAN_TIMES:
        out[f"{name}.s"] = med(lambda r: r["spans"].get(name, {}).get("s", 0.0))
    for name in COUNT_METRICS:
        out[name] = count(lambda r: r["counts"].get(name, 0))
    out["pipelines.self_s"] = med(
        lambda r: r["spans"].get("pipelines.run_experiment", {}).get("self_s", 0.0))
    out["config.parse_config.s"] = med(lambda r: r["parse_config_s"])
    out["trace.wall_s"] = med(lambda r: r["wall_s"])
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(
        r["wall_s"] for r in untraced)
    return out


def layer_shares(traced: list[dict]) -> list[tuple[str, float, float]]:
    """(span, total share, self share) of the traced wall time, largest first."""
    shares: dict[str, list[tuple[float, float]]] = {}
    for rep in traced:
        for name, span in rep["spans"].items():
            if span["calls"]:
                shares.setdefault(name, []).append(
                    (span["s"] / rep["wall_s"], span["self_s"] / rep["wall_s"]))
    rows = [
        (name, statistics.median(t for t, _ in vals), statistics.median(o for _, o in vals))
        for name, vals in shares.items()
    ]
    return sorted(rows, key=lambda row: -row[1])


def load_metric_specs(trace: bool) -> list[dict]:
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {spec_path}: {err}") from None
    return spec["per_layer" if trace else "end_to_end"]


# ---- main --------------------------------------------------------------


def run(args: argparse.Namespace) -> int:
    if not (SRC_DIR / "emlab" / "__init__.py").is_file():
        raise BenchError(f"no emlab sources under {SRC_DIR}; run inside an emlab checkout")
    specs = load_metric_specs(bool(args.trace))
    steps = WORKLOADS[args.workload](args.smoke)
    OUT_DIR.mkdir(exist_ok=True)

    start = time.monotonic()
    # the first launch compiles bytecode and fills the file cache; not counted
    warm = probe(steps, args.seed, report_env=True)
    if warm["result"] is None:
        raise BenchError(f"cannot start the pipeline child: {warm['stderr'].strip()}")
    setup = [probe(steps, args.seed)["setup_s"] for _ in range(SETUP_PROBES)]
    untraced: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    while True:
        round_start = time.monotonic()
        # one more set-up sample per round spreads them over the whole run
        setup.append(probe(steps, args.seed)["setup_s"])
        untraced.append(repetition(steps, args.seed, trace=False))
        if args.trace:
            traced.append(repetition(steps, args.seed, trace=True))
        rounds.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(rounds) > args.seconds:
            break
    reps = untraced + traced
    setup += [s for rep in reps for s in rep["setup_s"]]
    setup = [s for s in setup if s is not None]

    failed = sum(1 for rep in reps if rep["problems"])
    distinct = {json.dumps(rep["hashes"], sort_keys=True) for rep in reps if not rep["problems"]}
    deterministic = len(distinct) <= 1
    env = environment(warm["result"].get("versions", {}))

    values: dict[str, float] = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    if args.trace:
        values = layer_metrics(traced, untraced)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    for key, value in env.items():
        print(f"env {key}: {value}")
    for i, rep in enumerate(reps):
        status = "ok" if not rep["problems"] else "FAIL " + "; ".join(rep["problems"])
        print(f"rep {i} {'traced' if rep['trace'] else 'untraced'}: wall {rep['wall_s']:.3f} s,"
              f" peak rss {rep['peak_rss_mb']:.1f} MB, {status}")
    print(f"failed_frac: {failed / len(reps):.3f} ({failed} of {len(reps)} repetitions)")
    print(f"outputs byte-identical across repetitions: {'yes' if deterministic else 'NO'}")
    for rel, digest in sorted(reps[0]["hashes"].items()):
        print(f"sha256 {rel} {digest}")
    for name, samples in (
        ("wall_s", [r["wall_s"] for r in untraced]),
        ("setup_s", setup),
        ("peak_rss_mb", [r["peak_rss_mb"] for r in untraced]),
    ):
        med, q1, q3, n = summary(samples)
        print(f"{name}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} n {n}")
    if args.trace:
        wall = values["trace.wall_s"]
        print(f"layer shares of the traced wall time ({wall:.3f} s; total, self):")
        for name, total, own in layer_shares(traced):
            print(f"  {name:34s} {100 * total:6.2f} % {100 * own:6.2f} %")
        covered = statistics.median(
            r["spans"].get("pipelines.run_experiment", {}).get("s", 0.0) for r in traced)
        print(f"  {'(uncovered) pipelines.self_s':34s} {100 * values['pipelines.self_s'] / wall:6.2f} %")
        print(f"  {'(outside run_experiment)':34s} {100 * (wall - covered) / wall:6.2f} %")
        missing = sorted({m for r in traced for m in r["missing_hooks"]})
        if missing:
            print(f"layers not hooked (absent in this code): {', '.join(missing)}")

    try:
        metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    except KeyError as err:
        raise BenchError(f"BENCHMARK.json names metric {err} that the benchmark does not compute") from None
    detail = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "env": env, "setup_s": setup, "repetitions": reps, "values": values}
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    shutil.rmtree(OUT_DIR / "work", ignore_errors=True)
    shutil.rmtree(OUT_DIR / "probe", ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to exercise the gate and metric names quickly")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # a terminated benchmark still kills and reaps its child (see launch)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
