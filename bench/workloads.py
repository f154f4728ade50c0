"""Seeded op lists for the three benchmark workloads.

An op is one `cahm` command-line call.  `generate(workload, seed)` is a pure
function of its arguments and returns the op specs, configs included, so the
same seed always gives byte-identical configs.  `materialize` writes the
configs to disk and turns each spec into `cahm.cli.main` arguments.

* figures: the seven built-in presets, one `match` per kind and the one- and
  two-spin spectra, each verbatim and once more with every energy scaled by
  a seeded factor in [0.95, 1.05] (and a redrawn trotter seed).  Dims <= 64;
  many small Python-level ops.
* chain-spectrum: `spectrum` of open target chains at
  (m_max, links) in CHAIN_RUNGS (dims 81..625), with Y = 0, whose decoupled
  links give large degenerate clusters, and (above the smallest rung) once
  more with generic seeded couplings.  Hamiltonian build plus eigensolve
  dominate.
* array-evolve: complete-basis `evolve` of custom 2x3, 2x4 and 2x5 mirrored
  Rydberg ladders (dims 64, 256 and 1024), exactly mirrored and (above the
  smallest ladder) jittered.  The eigensolve is LAPACK-bound and the trace
  has many finals and few times.

Each of the last two runs an odd number of ops per pass, so the pooled
median latency falls inside one op's samples instead of halfway across the
gap between two op sizes, where it would take the noise of both.
BENCHMARK.json lists figures and chain-spectrum; array-evolve runs by name
only, because its run-to-run spread on the reference machine came too
close to the bound (see bench/README.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("figures", "chain-spectrum", "array-evolve")

# (m_max, n_links).  The dim-729 rungs (1, 6) and (4, 3) (about 15 s
# together) and the 7-link rung (dim 2187, ~26 s) are left out so that a pass
# takes about 5 s and a 50 s run pools about ten samples of every op.
CHAIN_RUNGS = ((1, 4), (1, 5), (2, 3), (2, 4), (3, 3))
CHAIN_X_OVER_U = 0.9
CHAIN_Y_OVER_U = 0.3
# Rows per column of the mirrored array ladders (two columns each).
ARRAY_ROWS = (3, 4, 5)
# Rungs and ladders kept by the self-test's small size.
SMALL_MAX_DIM = 256

FIGURE_PRESETS = ("fig3-top", "fig3-bottom", "fig4", "fig7-top", "fig7-bottom", "fig8", "fig10")
FIGURE_MATCHES = {
    "two-atom": {"kind": "two-atom", "U": 1.0, "X": 0.5},
    "three-atom-newton": {
        # Targets consistent with (omega, delta, delta0, v0) = (1, 15, 2.534, 30);
        # Newton starts 1% away.
        "kind": "three-atom-newton",
        "U": 5.12169,
        "X": 0.07421,
        "unknowns": ["omega", "delta", "delta0"],
        "fixed": {"v0": 30.0},
        "guess": {"omega": 1.01, "delta": 14.9, "delta0": 2.56},
    },
    "three-atom-approx": {"kind": "three-atom-approx", "omega": 1.0, "delta": 15.0},
    "four-atom": {"kind": "four-atom", "U": 1.0, "X": 1.2, "Y": 0.2, "v0": 64.0},
    "six-atom": {
        "kind": "six-atom",
        "U": 1.0,
        "X": 1.2,
        "Y": 0.2,
        "omega": 1.0,
        "delta": 15.0,
        "v0": 30.0,
    },
}
FIGURE_SPECTRA = {
    "one-spin": {"kind": "one-spin", "U": 1.0, "X": 0.5},
    "two-spin": {"kind": "two-spin", "U": 1.0, "X": 1.2, "Y": 0.2},
}
# Hilbert-space dimension of each simulator kind / target kind.
_SIM_DIM = {"two-atom": 4, "three-atom": 8, "four-atom": 16, "six-atom": 64}
_TARGET_DIM = {"one-spin": 3, "two-spin": 9}
_MATCH_DIM = {
    "two-atom": 4,
    "three-atom-newton": 8,
    "three-atom-approx": 8,
    "four-atom": 16,
    "six-atom": 64,
}
# Payload keys that carry an energy; a seeded copy scales them all by one
# factor, which rescales time and keeps target and simulator matched.
ENERGY_KEYS = frozenset({"U", "X", "Y", "omega", "delta", "delta0", "v0", "v1", "v2_override"})


@dataclass(frozen=True)
class OpSpec:
    """One op: a cahm mode plus either a preset name or a config object."""

    name: str
    mode: str
    dim: int
    check: str  # "reference", "sane", "chain" or "array"
    preset: str | None = None
    config: dict | None = None


@dataclass(frozen=True)
class Op:
    spec: OpSpec
    argv: tuple[str, ...]
    out_dir: Path


def _scaled(obj, factor: float):
    if isinstance(obj, dict):
        return {
            k: (v * factor if k in ENERGY_KEYS and isinstance(v, float) else _scaled(v, factor))
            for k, v in obj.items()
        }
    return obj


def _figures(rng: np.random.Generator) -> tuple[list[OpSpec], list[OpSpec]]:
    from cahm.cli import preset_config

    verbatim: list[OpSpec] = []
    seeded: list[OpSpec] = []
    for name in FIGURE_PRESETS:
        cfg = preset_config(name)
        if cfg.mode == "trotter":
            dim = 4
        else:
            dim = _SIM_DIM[cfg.payload["simulator"]["kind"]]
        verbatim.append(OpSpec(name, cfg.mode, dim, "reference", preset=name))
        payload = _scaled(cfg.payload, float(rng.uniform(0.95, 1.05)))
        config = {"mode": cfg.mode, **payload}
        if cfg.seed is not None:
            config["seed"] = int(rng.integers(0, 2**31))
        seeded.append(OpSpec(f"{name}-seeded", cfg.mode, dim, "sane", config=config))
    for kind, spec in FIGURE_MATCHES.items():
        dim = _MATCH_DIM[kind]
        verbatim.append(
            OpSpec(f"match-{kind}", "match", dim, "reference", config={"mode": "match", "match": spec})
        )
        scaled = _scaled(spec, float(rng.uniform(0.95, 1.05)))
        seeded.append(
            OpSpec(f"match-{kind}-seeded", "match", dim, "sane", config={"mode": "match", "match": scaled})
        )
    for kind, spec in FIGURE_SPECTRA.items():
        dim = _TARGET_DIM[kind]
        verbatim.append(
            OpSpec(f"spectrum-{kind}", "spectrum", dim, "reference", config={"mode": "spectrum", "target": spec})
        )
        scaled = _scaled(spec, float(rng.uniform(0.95, 1.05)))
        seeded.append(
            OpSpec(f"spectrum-{kind}-seeded", "spectrum", dim, "sane", config={"mode": "spectrum", "target": scaled})
        )
    return verbatim, seeded


def _chain_couplings(rng: np.random.Generator, y_over_u: float) -> tuple[float, float, float]:
    """U in [0.5, 1.5]; X and Y fixed multiples of U within a 2% seeded jitter.

    The number of near-degenerate eigenvalue pairs, and with it the cost of
    eig_hermitian, depends on X/U (tunnelling splittings between high-|m|
    states scale as (X/U)^|m|), so free X/U would make a pass cost up to 2x
    more on one seed than another.  The ratios keep X in [0.3, 1.5] and Y in
    [0.1, 0.5].
    """
    u = rng.uniform(0.5, 1.5)
    x = u * CHAIN_X_OVER_U * rng.uniform(0.98, 1.02)
    y = u * y_over_u * rng.uniform(0.98, 1.02)
    return u, x, y


def _chain(rng: np.random.Generator, small: bool) -> list[OpSpec]:
    ops = []
    for rung, (m_max, n_links) in enumerate(CHAIN_RUNGS):
        dim = (2 * m_max + 1) ** n_links
        # Draw for every rung so the small size shares the full size's values.
        generic = _chain_couplings(rng, CHAIN_Y_OVER_U)
        decoupled = _chain_couplings(rng, 0.0)
        if small and dim > SMALL_MAX_DIM:
            continue
        variants = [("generic", generic), ("y0", decoupled)]
        for tag, (u, x, y) in variants[rung == 0 :]:
            target = {
                "kind": "chain",
                "U": float(u),
                "X": float(x),
                "Y": float(y),
                "m_max": m_max,
                "n_links": n_links,
                "boundary": "open",
            }
            ops.append(
                OpSpec(
                    f"chain-m{m_max}-n{n_links}-{tag}",
                    "spectrum",
                    dim,
                    "chain",
                    config={"mode": "spectrum", "target": target},
                )
            )
    return ops


def _independent_bitstring(rows: int, rng: np.random.Generator) -> str:
    """Random nonempty excitation pattern with no in-column or facing neighbours excited."""
    n = 2 * rows
    while True:
        bits = [0] * n
        for atom in rng.permutation(n):
            col, row = divmod(int(atom), rows)
            neighbours = [col * rows + r for r in (row - 1, row + 1) if 0 <= r < rows]
            neighbours.append((1 - col) * rows + row)
            if rng.random() < 0.5 and not any(bits[j] for j in neighbours):
                bits[atom] = 1
        if any(bits):
            return "".join(map(str, bits))


def _array(rng: np.random.Generator, small: bool) -> list[OpSpec]:
    ops = []
    for ladder, rows in enumerate(ARRAY_ROWS):
        # Column spacings below ~1.5 add accidental near-degeneracies whose
        # count, and the eigensolve cost with it, swings with the seed; above
        # it under 1% of columns are in clusters.
        a_s = float(rng.uniform(1.55, 1.8))
        delta = float(rng.uniform(0.5, 1.5))
        initial = _independent_bitstring(rows, rng)
        jitter = rng.normal(0.0, 0.03, size=(2 * rows, 2))
        dim = 1 << (2 * rows)
        if small and dim > SMALL_MAX_DIM:
            continue
        ys = [float(rows - 1 - r) for r in range(rows)]
        exact = np.array([[0.0, y] for y in ys] + [[a_s, y] for y in ys])
        variants = [("mirror", exact), ("jitter", exact + jitter)]
        for tag, positions in variants[: 1 if ladder == 0 else 2]:
            simulator = {
                "kind": "custom",
                "positions": positions.tolist(),
                "scale": 20.0,
                "omega": 1.0,
                "delta": delta,
                "delta0": 0.0,
                "delta0_atoms": [],
                "overrides": {},
            }
            config = {
                "mode": "evolve",
                "simulator": simulator,
                "initial": initial,
                "times": {"start": 0.0, "stop": 10.0, "num": 101},
            }
            ops.append(OpSpec(f"array-2x{rows}-{tag}", "evolve", dim, "array", config=config))
    return ops


def generate(workload: str, seed: int, small: bool = False) -> tuple[list[OpSpec], list[OpSpec]]:
    """(ops of one pass, untimed warm-up ops) for a workload and seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "figures":
        verbatim, seeded = _figures(rng)
        # Every mode has its own first-call cost, so warm up on all verbatim ops.
        return verbatim + seeded, verbatim
    if workload == "chain-spectrum":
        ops = _chain(rng, small)
    elif workload == "array-evolve":
        ops = _array(rng, small)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    # The first op and the first at a larger size carry the first-call costs.
    return ops, ops[:2]


def materialize(specs: list[OpSpec], work_dir: Path) -> list[Op]:
    """Write each spec's config under work_dir and build its cahm arguments."""
    ops = []
    for spec in specs:
        out_dir = work_dir / "out" / spec.name
        if spec.preset is not None:
            source = ["--preset", spec.preset]
        else:
            path = work_dir / "configs" / f"{spec.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(spec.config, sort_keys=True), encoding="utf-8")
            source = ["--config", str(path)]
        ops.append(Op(spec, (spec.mode, *source, "--out", str(out_dir)), out_dir))
    return ops
