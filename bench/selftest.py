"""Self-test of the benchmark at its smallest size.

    python3 bench/selftest.py

Checks that the same seed regenerates identical configs and a different
seed changes them; that every workload, untraced and traced, emits exactly
the metrics BENCHMARK.json names, each finite and with its unit, with no
failed op; and that the benchmark exits non-zero without a result when the
cahm sources are missing.  Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

from run import BENCH_DIR, ROOT, SRC

import workloads

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _configs(workload: str, seed: int) -> str:
    ops, warm = workloads.generate(workload, seed)
    return json.dumps([asdict(op) for op in ops + warm], sort_keys=True)


def check_seeding(errors: list[str]) -> None:
    for workload in workloads.WORKLOADS:
        if _configs(workload, 7) != _configs(workload, 7):
            errors.append(f"{workload}: seed 7 does not regenerate identical configs")
        if _configs(workload, 7) == _configs(workload, 8):
            errors.append(f"{workload}: seeds 7 and 8 give identical configs")


def _run(cwd, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--seed", "1", "--seconds", "0", "--size", "small", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_metrics(errors: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            where = f"{workload} --trace {trace}"
            proc = _run(ROOT, "--workload", workload, "--trace", trace)
            if proc.returncode != 0:
                errors.append(f"{where}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                errors.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["attempted"] < 1 or result["failed"] != 0 or result["correct"] is not True:
                errors.append(f"{where}: attempted {result['attempted']}, failed {result['failed']}")
            units = {m["name"]: m["unit"] for m in listed}
            if set(result["metrics"]) != set(units):
                missing = sorted(set(units) - set(result["metrics"]))
                extra = sorted(set(result["metrics"]) - set(units))
                errors.append(f"{where}: missing metrics {missing}, unlisted metrics {extra}")
            for name, m in result["metrics"].items():
                if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
                    errors.append(f"{where}: {name} is not a finite number: {m.get('value')!r}")
                if not m.get("unit") or m["unit"] != units.get(name, m["unit"]):
                    errors.append(f"{where}: {name} has unit {m.get('unit')!r}")


def check_without_sources(errors: list[str]) -> None:
    """A directory with only BENCHMARK.json and bench/ must fail without a result."""
    bare = BENCH_DIR / "_work" / f"selftest-{os.getpid()}"
    try:
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "figures", "--trace", "0")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("benchmark without cahm sources did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    sys.path.insert(0, str(SRC))
    errors: list[str] = []
    check_seeding(errors)
    check_without_sources(errors)
    check_metrics(errors)
    for line in errors:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
