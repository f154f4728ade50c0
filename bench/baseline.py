"""Re-measure the layer-by-layer baseline table of ROADMAP item 1.

    python3 bench/baseline.py

Prints a markdown table: the median of REPEATS timings of each row (one
timing for the rows that take over ten seconds).  The complete-basis trace
row is split with the benchmark's tracer into the eigensolve and the rest.
Takes about a minute and a half on a 2-core machine.
"""

from __future__ import annotations

import os
import shutil
import sys
from statistics import median
from time import perf_counter

import numpy as np

from run import BENCH_DIR, SRC

import workloads

REPEATS = 3


def timed(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        samples.append(perf_counter() - t0)
    return median(samples)


def ladder(rows: int):
    from cahm.rydberg_models import AtomGeometry, RydbergParams

    ys = [float(rows - 1 - r) for r in range(rows)]
    positions = np.array([[0.0, y] for y in ys] + [[1.5, y] for y in ys])
    return AtomGeometry(positions, 20.0), RydbergParams(omega=1.0, delta=1.0)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import cahm.cli
    from cahm.evolution import complete_basis_finals, trace
    from cahm.numerics import StateVector, eig_hermitian
    from cahm.rydberg_models import build_rydberg_h
    from cahm.target_models import SPIN1, TargetCouplings, build_chain_h

    from tracer import Tracer, layer_totals

    c = TargetCouplings(u=1.0, x=0.5, y=0.2)
    rows = []
    rows.append(("`build_chain_h`, 6 links", timed(lambda: build_chain_h(c, SPIN1, 6))))
    t0 = perf_counter()
    h7 = build_chain_h(c, SPIN1, 7)
    rows.append(("`build_chain_h`, 7 links", perf_counter() - t0))
    rows.append(("`eig_hermitian`, dim 2187", timed(lambda: eig_hermitian(h7), 1)))
    rows.append(("`eigh`, dim 2187", timed(lambda: np.linalg.eigh(h7.matrix), 1)))
    del h7
    for n_rows in (5, 6):
        geom, params = ladder(n_rows)
        rows.append((f"`build_rydberg_h`, {2 * n_rows} atoms", timed(lambda: build_rydberg_h(geom, params))))

    h10 = build_rydberg_h(*ladder(5))
    finals = complete_basis_finals(1024)
    psi0 = StateVector.basis(1024, 0b1000000001)
    times = np.linspace(0.0, 10.0, 101)
    tracer = Tracer()
    tracer.install()
    try:
        total = timed(lambda: trace(h10, psi0, finals, times))
    finally:
        tracer.uninstall()
    totals = layer_totals(tracer.spans)
    eig = totals["numerics.eig_hermitian"]["incl_s"] / REPEATS
    rows.append(("complete-basis `trace`, dim 1024, 101 times", total))
    rows.append(("... of which `eig_hermitian`", eig))

    work_dir = BENCH_DIR / "_work" / f"baseline-{os.getpid()}"
    try:
        specs, _ = workloads.generate("figures", seed=0)
        ops = {op.spec.name: op for op in workloads.materialize(specs, work_dir)}
        for op in ops.values():
            cahm.cli.main(list(op.argv))  # warm-up
        for label, names in (
            ("fig3/fig4 presets", ("fig3-top", "fig3-bottom", "fig4")),
            ("fig7 presets", ("fig7-top", "fig7-bottom")),
            ("fig8 preset", ("fig8",)),
            ("`match six-atom`", ("match-six-atom",)),
        ):
            each = [timed(lambda op=ops[n]: cahm.cli.main(list(op.argv)), 5) for n in names]
            rows.append((label, median(each)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("| workload | time |")
    print("| --- | --- |")
    for label, seconds in rows:
        value = f"{seconds:.2f} s" if seconds >= 1 else f"{seconds * 1000:.1f} ms"
        print(f"| {label} | {value} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
