"""cahm benchmark: seeded workloads through `cahm.cli.main`, end-to-end or traced.

    python3 bench/run.py --workload figures --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload chain-spectrum --seed 1 --seconds 50 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 0

Closed loop, one client: a single process runs the workload's ops back to
back in whole passes, as many as fit in --seconds (at least MIN_PASSES), the
way a designer scripts a parameter sweep.  Every op's artifacts are checked
outside the timed region; an op fails if it raises, returns a non-zero exit
code or fails its check.  `--trace 0` reports end-to-end metrics, scaled to
a reference host speed measured by a calibration kernel timed between ops;
`--trace 1` alternates untraced and traced passes and reports per-layer
metrics.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from math import inf
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_FILE = BENCH_DIR / "reference" / "figures.json"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, layer_totals  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 7
# Trace rows (of 101) spot-checked against an independent eigensolve.
SPOT_ROWS = (0, 50, 100)
# The eigh probe repeats while it has taken less than this many seconds.
PROBE_BUDGET_S = 2.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A shared host's CPU speed drifts by 10-20% over minutes, and every timing
# drifts with it.  The calibration kernel is timed between ops all through an
# untraced run (at most every CAL_INTERVAL_S), and the run's timings are
# reported scaled by (reference time / median time) of the kernel parts that
# slow like the workload's ops do: seconds on a host where those parts take
# their CAL_REF_S, about the reference machine's speed.
CAL_REF_S = {"loop": 0.017, "eigh": 0.009}
# Python-level code gained up to 40% in the host's fast phases, numpy-level
# eigensolver work about half that; the figures ops are Python-level.
CAL_PARTS = {
    "figures": ("loop", "eigh"),
    "chain-spectrum": ("eigh",),
    "array-evolve": ("eigh",),
}
CAL_INTERVAL_S = 0.25
CAL_EIGH_DIM = 160

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "slow_op_s": "s",
    "top_dim_op_s": "s",
    "peak_rss_mb": "MiB",
}
# Self time of each traced layer, per traced pass.
SELF_TIME_LAYERS = (
    "target_models.build_chain_h",
    "numerics.eig_hermitian",
    "rydberg_models.build_rydberg_h",
    "evolution.trace",
    "evolution.simulator_trace",
    "evolution.state_probabilities",
    "evolution.compare",
    "evolution.EvolutionTrace.to_csv_text",
    "matching.match_six_atom",
    "matching.fit_time_rescale",
    "matching.solve_three_atom_newton",
    "trotter.apply_circuit",
    "trotter.sample_shots",
    "cli.main",
)
CALL_COUNT_LAYERS = (
    "target_models.build_chain_h",
    "numerics.eig_hermitian",
    "rydberg_models.build_rydberg_h",
    "trotter.apply_circuit",
    "trotter.sample_shots",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS}
    units.update({f"{layer}.calls": "count" for layer in CALL_COUNT_LAYERS})
    units.update(
        {
            "numerics.Spectrum.validate_s": "s",
            "numerics.eigh_probe_s": "s",
            "numerics.eig_overhead_ratio": "ratio",
            "numerics.degenerate_cols": "count",
            "numerics.degenerate_col_frac": "frac",
            "numerics.max_cluster": "count",
            "evolution.trace.amplitudes": "count",
            "evolution.trace.ns_per_amplitude": "ns",
            "evolution.EvolutionTrace.to_csv_text.bytes": "B",
            "cli.artifact_bytes": "B",
            "trace_overhead_frac": "frac",
        }
    )
    units.update({f"{name}.errors": "count" for name, _, _ in LAYERS})
    return units


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    thread_env = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    set_threads = next((v for v in thread_env.values() if v), None)
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_thread_env": thread_env,
        # OpenBLAS starts one thread per available core unless told otherwise.
        "blas_threads": int(set_threads) if set_threads else nproc,
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def set_up(workload: str, seed: int, small: bool, work_dir: Path) -> list[workloads.Op]:
    """Import cahm, write the configs and run the untimed warm-up ops."""
    import cahm.cli

    specs, warm = workloads.generate(workload, seed, small)
    ops = workloads.materialize(specs, work_dir)
    for op in workloads.materialize(warm, work_dir):
        code = cahm.cli.main(list(op.argv))
        if code != 0:
            raise RuntimeError(f"warm-up op {op.spec.name} exited with {code}")
    return ops


def setup_samples(args) -> list[float]:
    """Wall time of SETUP_SAMPLES fresh processes that only set up."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(perf_counter() - t0)
    return samples


class Checker:
    """Per-op correctness check; expensive references are computed once per op."""

    def __init__(self):
        self.references = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
        self._cache: dict[str, object] = {}

    def __call__(self, op: workloads.Op) -> str | None:
        spec = op.spec
        if spec.check == "reference":
            if spec.name not in self.references:
                return "no recorded reference"
            return checks.check_reference(op.out_dir, self.references[spec.name])
        if spec.check == "sane":
            return checks.check_sane(op.out_dir)
        if spec.check == "chain":
            if spec.name not in self._cache:
                self._cache[spec.name] = np.linalg.eigvalsh(checks.chain_matrix(spec.config["target"]))
            return checks.check_chain(op.out_dir, self._cache[spec.name])
        if spec.name not in self._cache:
            self._cache[spec.name] = checks.ArraySpotCheck(spec.config, SPOT_ROWS)
        return self._cache[spec.name](op.out_dir)


class Calibrator:
    """Times a fixed kernel of numpy and Python work, no `cahm` code: a
    Python-level loop ("loop") and three small eigensolves ("eigh").
    """

    def __init__(self, parts: tuple[str, ...]):
        a = np.random.default_rng(0).standard_normal((CAL_EIGH_DIM, CAL_EIGH_DIM))
        self._matrix = a + a.T
        self.parts = parts
        self.samples: list[dict[str, float]] = []
        self._last = -inf
        self._kernel()
        self._kernel()

    def _kernel(self) -> dict[str, float]:
        t0 = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        t1 = perf_counter()
        for _ in range(3):
            np.linalg.eigh(self._matrix)
        return {"loop": t1 - t0, "eigh": perf_counter() - t1}

    def between_ops(self) -> None:
        if perf_counter() - self._last >= CAL_INTERVAL_S:
            self.samples.append(self._kernel())
            self._last = perf_counter()

    def median_s(self, parts: tuple[str, ...]) -> float:
        return median(sum(s[p] for p in parts) for s in self.samples)

    def factor(self) -> float:
        """Multiplier that turns this run's seconds into reference-host seconds."""
        return sum(CAL_REF_S[p] for p in self.parts) / self.median_s(self.parts)


class Runner:
    def __init__(self, ops: list[workloads.Op], checker: Checker):
        import cahm.cli

        self.cli = cahm.cli
        self.ops = ops
        self.checker = checker
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, tracer=None, pass_index: int = 0, calibrator=None) -> tuple[list[float], int]:
        """Run every op once; returns (latencies, artifact bytes written)."""
        latencies = []
        artifact_bytes = 0
        for i, op in enumerate(self.ops):
            if calibrator is not None:
                calibrator.between_ops()
            if tracer is not None:
                tracer.op_id = f"{pass_index}:{i}:{op.spec.name}"
            error = None
            t0 = perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except Exception as exc:  # an op that raises is a failed op, not a crash
                error = f"raised {exc!r}"
            latencies.append(perf_counter() - t0)
            self.attempted += 1
            if error is None and code != 0:
                error = f"exit code {code}"
            if error is None:
                error = self.checker(op)
            if error is not None:
                self.failures.append(f"{op.spec.name}: {error}")
            artifact_bytes += sum(p.stat().st_size for p in op.out_dir.iterdir())
        return latencies, artifact_bytes


class Deadline:
    """Whole passes only: another starts if, at the last pass's pace, it ends in time."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = self.last = perf_counter()
        self.lap_s = 0.0

    def lap(self) -> None:
        now = perf_counter()
        self.lap_s, self.last = now - self.last, now

    def another_fits(self) -> bool:
        return self.last + self.lap_s - self.start <= self.seconds


def tail_percentile(n: int) -> float:
    """Highest percentile (<= 90) with at least 10 samples beyond it, but at least the 75th.

    Below 40 samples no percentile from the 75th up has 10 samples beyond it.
    The floor keeps the percentile from sliding towards the median, where a
    workload whose ops come in two sizes would jump between them when the
    number of passes in a run changes by one.
    """
    return min(90.0, max(75.0, 100.0 * (1.0 - 10.0 / n)))


def measure_untraced(runner: Runner, seconds: float, calibrator: Calibrator) -> tuple[dict, dict]:
    """Timings in measured seconds; `run` scales them by the calibrator's factor."""
    passes = []
    deadline = Deadline(seconds)
    while len(passes) < MIN_PASSES or deadline.another_fits():
        passes.append(runner.run_pass(calibrator=calibrator)[0])
        deadline.lap()
    pooled = [x for p in passes for x in p]
    per_op = {
        op.spec.name: median(p[i] for p in passes) for i, op in enumerate(runner.ops)
    }
    top_dim = max(op.spec.dim for op in runner.ops)
    top = [per_op[op.spec.name] for op in runner.ops if op.spec.dim == top_dim]
    q = tail_percentile(len(pooled))
    metrics = {
        "wall_s": median(sum(p) for p in passes),
        "op_p50_s": float(np.percentile(pooled, 50)),
        # Per-op medians, not pooled samples: a pooled tail follows the host's
        # noise bursts, which moved it by up to 35% between runs of one commit.
        "slow_op_s": float(np.percentile(list(per_op.values()), 90)),
        "top_dim_op_s": sum(top) / len(top),
    }
    info = {
        "pass_walls_s": [sum(p) for p in passes],
        "op_latencies_s": passes,
        "passes": len(passes),
        "op_samples": len(pooled),
        "tail_percentile": q,
        "op_tail_s": float(np.percentile(pooled, q)),
        "top_dim": top_dim,
        "top_dim_ops": len(top),
        "per_op_median_s": per_op,
    }
    return metrics, info


def eigh_probe(eig_inputs) -> float:
    """Median over repeats of bare numpy eigh time on the traced pass's matrices."""
    hs = [0.5 * (m + m.conj().T) for m, _ in eig_inputs]
    totals = []
    while len(totals) < 3 and sum(totals) < PROBE_BUDGET_S:
        t = 0.0
        for h in hs:
            t0 = perf_counter()
            np.linalg.eigh(h)
            t += perf_counter() - t0
        totals.append(t)
    return median(totals)


def cluster_sizes(eigenvalues: np.ndarray, rtol: float) -> np.ndarray:
    """Sizes of runs of eigenvalues whose neighbouring gaps are <= rtol * spectral radius."""
    w = np.asarray(eigenvalues)
    scale = max(abs(float(w[0])), abs(float(w[-1])), np.finfo(float).tiny)
    breaks = np.flatnonzero(np.diff(w) > rtol * scale) + 1
    return np.diff(np.concatenate([[0], breaks, [w.size]]))


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    from cahm.numerics import DEGENERACY_RTOL

    tracer = Tracer()
    untraced, traced, traced_bytes = [], [], []
    deadline = Deadline(seconds)
    while not traced or deadline.another_fits():
        untraced.append(sum(runner.run_pass()[0]))
        tracer.eig_inputs.clear()
        tracer.install()
        try:
            latencies, written = runner.run_pass(tracer, len(traced))
        finally:
            tracer.uninstall()
        traced.append(sum(latencies))
        traced_bytes.append(written)
        deadline.lap()

    n = len(traced)
    totals = layer_totals(tracer.spans)

    def layer(name: str, stat: str) -> float:
        return totals[name][stat] / n if name in totals else 0.0

    probe = eigh_probe(tracer.eig_inputs)
    sizes = [cluster_sizes(w, DEGENERACY_RTOL) for _, w in tracer.eig_inputs]
    degenerate = int(sum(s[s > 1].sum() for s in sizes))
    columns = int(sum(s.sum() for s in sizes))
    amplitudes = tracer.counts["evolution.trace.amplitudes"] / n
    metrics = {f"{name}.self_s": layer(name, "self_s") for name in SELF_TIME_LAYERS}
    metrics.update({f"{name}.calls": layer(name, "calls") for name in CALL_COUNT_LAYERS})
    metrics.update(
        {
            "numerics.Spectrum.validate_s": layer("numerics.Spectrum.validate", "self_s"),
            "numerics.eigh_probe_s": probe,
            "numerics.eig_overhead_ratio": layer("numerics.eig_hermitian", "incl_s") / probe,
            "numerics.degenerate_cols": degenerate,
            "numerics.degenerate_col_frac": degenerate / columns,
            "numerics.max_cluster": int(max(s.max() for s in sizes)),
            "evolution.trace.amplitudes": amplitudes,
            "evolution.trace.ns_per_amplitude": (
                1e9 * layer("evolution.trace", "self_s") / amplitudes if amplitudes else 0.0
            ),
            "evolution.EvolutionTrace.to_csv_text.bytes": (
                tracer.counts["evolution.EvolutionTrace.to_csv_text.bytes"] / n
            ),
            "cli.artifact_bytes": median(traced_bytes),
            "trace_overhead_frac": median(traced) / median(untraced) - 1.0,
        }
    )
    metrics.update({f"{name}.errors": tracer.errors[name] for name, _, _ in LAYERS})

    shares = {name: t["self_s"] / sum(traced) for name, t in totals.items()}
    info = {
        "untraced_passes": len(untraced),
        "traced_passes": n,
        "traced_wall_s": median(traced),
        "untraced_wall_s": median(untraced),
        "self_time_share": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, t0, t1, parent, op_id in tracer.spans:
            fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "op": op_id}) + "\n")
    return metrics, info


def run(args) -> int:
    if not (SRC / "cahm" / "__init__.py").is_file():
        print(f"error: cahm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    small = args.size == "small"
    work_dir = BENCH_DIR / "_work" / str(os.getpid())
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, small, work_dir)
            return 0
        env = environment(args.seed)
        samples = [] if args.trace else setup_samples(args)
        ops = set_up(args.workload, args.seed, small, work_dir)
        runner = Runner(ops, Checker())
        results_dir = BENCH_DIR / "_results"
        results_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            values, info = measure_traced(runner, args.seconds, results_dir / f"{stem}-spans.jsonl")
            units = per_layer_units()
        else:
            calibrator = Calibrator(CAL_PARTS[args.workload])
            measured, info = measure_untraced(runner, args.seconds, calibrator)
            measured["setup_s"] = median(samples)
            factor = calibrator.factor()
            values = {name: v * factor for name, v in measured.items()}
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            info["setup_samples_s"] = samples
            info["measured_s"] = measured
            info["calibration"] = {
                "parts": calibrator.parts,
                "ref_s": CAL_REF_S,
                "median_s": {p: calibrator.median_s((p,)) for p in CAL_REF_S},
                "samples": len(calibrator.samples),
                "factor": factor,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = len(runner.failures)
    info["error_rate"] = failed / runner.attempted
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"workload": args.workload, "env": env, "info": info, **result}, indent=1),
        encoding="utf-8",
    )
    for line in runner.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps({k: v for k, v in info.items() if k not in ("per_op_median_s", "op_latencies_s")}))
    print(f"{args.workload}: attempted {runner.attempted}, failed {failed}, error_rate {info['error_rate']:.6g}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process, one after another."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--size", args.size,
        ]
        code = subprocess.run(cmd).returncode
        status = status or code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="small keeps ops of dim <= 256 (for the self-test)",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
