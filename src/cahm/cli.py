"""Command-line entry point: presets, config-driven runs, CSV/JSON artifacts.

Every run writes the requested data files plus a manifest.json recording all
resolved parameters (including derived couplings, rho and the time-rescale
factor), so each artifact can be re-created without external context.
Re-running the same preset or config produces byte-identical outputs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import (
    EvolutionTrace,
    basis_trace,
    compare,
    one_spin_finals,
    state_probabilities,
    trace,
    two_spin_finals,
)
from .matching import (
    MatchingError,
    NewtonProblem,
    SingularDenominatorError,
    approx_three_atom_match,
    match_four_atom,
    match_six_atom,
    match_two_atom,
    solve_three_atom_newton,
)
from .numerics import (
    StateVector,
    bitstring_labels,
    capped_dim,
    eig_hermitian,
    symmetry_sectors,
)
from .rydberg_models import (
    AtomGeometry,
    RydbergParams,
    SimulatorSystem,
    four_atom_system,
    six_atom_system,
    three_atom_system,
    two_atom_system,
)
from .target_models import (
    SPIN1,
    SpinTruncation,
    TargetCouplings,
    analytic_one_spin,
    chain_symmetries,
    chain_terms,
    perturbative_one_spin,
)
from .trotter import apply_circuit, sample_shots, trotter_step_h2r

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

MODES = ("spectrum", "match", "evolve", "compare", "trotter")

# Cap on the points of every time grid (`num` of times and sim_times, and the
# t_max/dt + 1 Trotter steps); the presets use 1001.
MAX_TIMES = 10_001


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


@dataclass
class ExperimentConfig:
    mode: str
    payload: dict
    out_dir: Path
    seed: int | None = None
    preset: str | None = None


_PRESETS: dict[str, dict] = {
    "fig3-top": {
        "mode": "compare",
        "description": "one spin, U=1 X=0.5 target vs two-atom array "
        "(Omega=-0.5, Delta=-0.5, V0=64|Omega|=32)",
        "payload": {
            "target": {"kind": "one-spin", "U": 1.0, "X": 0.5},
            "simulator": {"kind": "two-atom", "omega": -0.5, "delta": -0.5, "v0": 32.0},
            "initial": "m=1",
            "times": {"start": 0.0, "stop": 10.0, "num": 1001},
        },
    },
    "fig3-bottom": {
        "mode": "compare",
        "description": "one spin, U=1 X=1.5 target vs two-atom array "
        "(Omega=-1.5, Delta=-0.5, V0=64|Omega|=96)",
        "payload": {
            "target": {"kind": "one-spin", "U": 1.0, "X": 1.5},
            "simulator": {"kind": "two-atom", "omega": -1.5, "delta": -0.5, "v0": 96.0},
            "initial": "m=1",
            "times": {"start": 0.0, "stop": 10.0, "num": 1001},
        },
    },
    "fig4": {
        "mode": "compare",
        "description": "one spin, U=0.064 X=0.067 target vs three-atom array "
        "(Omega=1, Delta=15, Delta0=0, V0=30)",
        "payload": {
            "target": {"kind": "one-spin", "U": 0.064, "X": 0.067},
            "simulator": {
                "kind": "three-atom",
                "omega": 1.0,
                "delta": 15.0,
                "delta0": 0.0,
                "v0": 30.0,
            },
            "initial": "m=1",
            "times": {"start": 0.0, "stop": 100.0, "num": 1001},
        },
    },
    "fig7-top": {
        "mode": "compare",
        "description": "two spins, U=1 X=1.2 Y=0.2 target vs four-atom ladder "
        "(Omega=-1.2, Delta=-0.6, V0=64, V1=0.2) with ideal V2=-0.2 override",
        "payload": {
            "target": {"kind": "two-spin", "U": 1.0, "X": 1.2, "Y": 0.2},
            "simulator": {
                "kind": "four-atom",
                "omega": -1.2,
                "delta": -0.6,
                "v0": 64.0,
                "v1": 0.2,
                "v2_override": -0.2,
            },
            "initial": "00",
            "times": {"start": 0.0, "stop": 10.0, "num": 1001},
        },
    },
    "fig7-bottom": {
        "mode": "compare",
        "description": "two spins, U=1 X=1.2 Y=0.2 target vs four-atom ladder "
        "(Omega=-1.2, Delta=-0.6, V0=64, V1=0.2) with the geometric V2=0.13",
        "payload": {
            "target": {"kind": "two-spin", "U": 1.0, "X": 1.2, "Y": 0.2},
            "simulator": {
                "kind": "four-atom",
                "omega": -1.2,
                "delta": -0.6,
                "v0": 64.0,
                "v1": 0.2,
            },
            "initial": "00",
            "times": {"start": 0.0, "stop": 10.0, "num": 1001},
        },
    },
    "fig8": {
        "mode": "compare",
        "description": "two spins, U=1 X=1.2 Y=0.2 target vs six-atom ladder "
        "(Omega=1, Delta=15, V0=30, rho=0.326) with time rescale K=0.05464",
        "payload": {
            "target": {"kind": "two-spin", "U": 1.0, "X": 1.2, "Y": 0.2},
            "simulator": {
                "kind": "six-atom",
                "omega": 1.0,
                "delta": 15.0,
                "v0": 30.0,
                "rho": 0.326,
            },
            "initial": "00",
            "times": {"start": 0.0, "stop": 5.464, "num": 1001},
            "sim_times": {"start": 0.0, "stop": 100.0, "num": 1001},
            "rescale_k": 0.05464,
        },
    },
    "fig10": {
        "mode": "trotter",
        "description": "Trotterized two-atom evolution (Omega=-1.5, Delta=-0.5, "
        "V0=10, dt=0.1=1/V0) vs exact, sampled with 1000 shots per time",
        "payload": {
            "omega": -1.5,
            "delta": -0.5,
            "v0": 10.0,
            "dt": 0.1,
            "t_max": 3.0,
            "shots": 1000,
        },
        "seed": 2718,
    },
}


def presets() -> list[str]:
    """Names of the built-in figure-reproduction presets."""
    return list(_PRESETS)


def preset_description(name: str) -> str:
    return _PRESETS[name]["description"]


def preset_config(name: str, out_dir="out", seed: int | None = None) -> ExperimentConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(_PRESETS)}")
    entry = _PRESETS[name]
    return ExperimentConfig(
        mode=entry["mode"],
        payload=json.loads(json.dumps(entry["payload"])),
        out_dir=Path(out_dir),
        seed=seed if seed is not None else entry.get("seed"),
        preset=name,
    )


def _typed(value, kinds, name: str):
    """`value` read as a finite float, an int or an instance of `kinds`.

    A value of another type raises a ConfigError naming the field `name`.
    """
    if kinds is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"field {name} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:
            raise ConfigError(f"field {name} must be a finite float, got {value!r}")
        return float(value)
    if kinds is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"field {name} must be an integer, got {value!r}")
        return value
    if not isinstance(value, kinds):
        raise ConfigError(f"field {name} has the wrong type: {value!r}")
    return value


def _require(obj: dict, key: str, kinds, ctx: str):
    if key not in obj:
        raise ConfigError(f"missing field {ctx}.{key}")
    return _typed(obj[key], kinds, f"{ctx}.{key}")


def _optional(obj: dict, key: str, kinds, ctx: str, default):
    """`_require` for a field that may be absent or null, which gives `default`."""
    return default if obj.get(key) is None else _require(obj, key, kinds, ctx)


def _entries(values, kinds, name: str):
    """Every entry of a JSON list or object read by `_typed`, named name[k] or name.key."""
    if isinstance(values, dict):
        return {k: _typed(v, kinds, f"{name}.{k}") for k, v in values.items()}
    return [_typed(v, kinds, f"{name}[{k}]") for k, v in enumerate(values)]


def _time_grid(obj: dict, ctx: str) -> np.ndarray:
    start = _require(obj, "start", float, ctx)
    stop = _require(obj, "stop", float, ctx)
    num = _require(obj, "num", int, ctx)
    if num < 2 or stop <= start:
        raise ConfigError(f"field {ctx} must satisfy stop > start and num >= 2")
    if num > MAX_TIMES:
        raise ConfigError(f"field {ctx}.num = {num} is above the cap of {MAX_TIMES} time points")
    return np.linspace(start, stop, num)


# Coupling fields read by each target kind and each match kind.
_COUPLING_FIELDS = {
    "one-spin": "UX",
    "two-spin": "UXY",
    "chain": "UXY",
    "two-atom": "UX",
    "three-atom-newton": "UX",
    "four-atom": "UXY",
    "six-atom": "UXY",
}


def _couplings(spec: dict, ctx: str, kind: str) -> TargetCouplings:
    """TargetCouplings from the U/X/Y fields of `kind`; chains also read `boundary`."""
    values = [_require(spec, name, float, ctx) for name in _COUPLING_FIELDS[kind]]
    boundary = _optional(spec, "boundary", str, ctx, "open") if kind == "chain" else "open"
    return TargetCouplings(*values, boundary=boundary)


def _build_target(spec: dict):
    """Return (sparse chain terms, labeled finals, couplings, resolved params).

    One-spin and two-spin targets are spin-1 chains of one and two links
    without end terms, as `build_h1t` and `build_h2t` build them.
    """
    ctx = "target"
    kind = _require(spec, "kind", str, ctx)
    if kind not in ("one-spin", "two-spin", "chain"):
        raise ConfigError(f"field {ctx}.kind has unknown value {kind!r}")
    c = _couplings(spec, ctx, kind)
    resolved = {name: getattr(c, name.lower()) for name in _COUPLING_FIELDS[kind]}
    if kind == "one-spin":
        return chain_terms(c, SPIN1, 1, end_terms=False), one_spin_finals(), c, resolved
    if kind == "two-spin":
        return chain_terms(c, SPIN1, 2, end_terms=False), two_spin_finals(), c, resolved
    trunc = SpinTruncation(_require(spec, "m_max", int, ctx))
    n_links = _require(spec, "n_links", int, ctx)
    resolved.update(m_max=trunc.m_max, n_links=n_links, boundary=c.boundary)
    return chain_terms(c, trunc, n_links, end_terms=c.boundary == "open"), [], c, resolved


def _labelled_target(spec: dict):
    """`_build_target` for the modes that start from a labelled state."""
    if spec.get("kind") == "chain":
        raise ConfigError(
            "field payload.target.kind 'chain' has no labelled states: chain targets run in "
            "spectrum mode only"
        )
    return _build_target(spec)


def _target_symmetries(kind: str, resolved: dict):
    """C and link reflection of a target: one-spin and two-spin are spin-1 chains."""
    if kind == "chain":
        return chain_symmetries(SpinTruncation(resolved["m_max"]), resolved["n_links"])
    return chain_symmetries(SPIN1, 1 if kind == "one-spin" else 2)


def _build_simulator(spec: dict):
    """Return (SimulatorSystem, resolved params dict)."""
    ctx = "simulator"
    kind = _require(spec, "kind", str, ctx)
    if kind == "two-atom":
        system = two_atom_system(
            _require(spec, "omega", float, ctx),
            _require(spec, "delta", float, ctx),
            _require(spec, "v0", float, ctx),
        )
    elif kind == "three-atom":
        system = three_atom_system(
            _require(spec, "omega", float, ctx),
            _require(spec, "delta", float, ctx),
            _require(spec, "delta0", float, ctx),
            _require(spec, "v0", float, ctx),
        )
    elif kind == "four-atom":
        v0 = _require(spec, "v0", float, ctx)
        if "rho" in spec:
            rho = _require(spec, "rho", float, ctx)
        else:
            v1 = _require(spec, "v1", float, ctx)
            if v0 == 0:
                raise ConfigError(f"field {ctx}.v0 must be nonzero to derive rho from {ctx}.v1")
            if not 0 < v1 / v0 < 1:
                raise ConfigError(f"field {ctx}.v1 must give 0 < v1/v0 < 1, got {v1 / v0!r}")
            rho = (v1 / v0) ** (1.0 / 6.0)
        system = four_atom_system(
            _require(spec, "omega", float, ctx),
            _require(spec, "delta", float, ctx),
            v0,
            rho,
            v2_override=_optional(spec, "v2_override", float, ctx, None),
        )
    elif kind == "six-atom":
        system = six_atom_system(
            _require(spec, "omega", float, ctx),
            _require(spec, "delta", float, ctx),
            _require(spec, "v0", float, ctx),
            _require(spec, "rho", float, ctx),
            delta0=_optional(spec, "delta0", float, ctx, 0.0),
            include_middle_pair=_optional(spec, "include_middle_pair", bool, ctx, True),
        )
    elif kind == "custom":
        system = _custom_layout(spec, ctx)
    else:
        raise ConfigError(f"field {ctx}.kind has unknown value {kind!r}")
    p = system.params
    resolved = {**spec, **{k: float(v) for k, v in system.derived.items()}}
    resolved.update(omega=p.omega, delta=p.delta, delta0=p.delta0)
    return system, resolved


def _custom_layout(spec: dict, ctx: str) -> SimulatorSystem:
    """A custom layout without spin map, each field read by name before any atom is placed.

    The fields are those `_geometry_json` writes into every array manifest.
    """
    positions = _require(spec, "positions", list, ctx)
    capped_dim(2, len(positions), "number of positions")
    rows = []
    for k, row in enumerate(positions):
        if not isinstance(row, list) or len(row) != 2:
            raise ConfigError(f"field {ctx}.positions[{k}] must be an [x, y] pair, got {row!r}")
        rows.append(_entries(row, float, f"{ctx}.positions[{k}]"))
    scale, omega, delta = (_require(spec, key, float, ctx) for key in ("scale", "omega", "delta"))
    atoms = _optional(spec, "delta0_atoms", list, ctx, [])
    overrides = _optional(spec, "overrides", dict, ctx, {})
    pairs = {}
    for key, v in _entries(overrides, float, f"{ctx}.overrides").items():
        pair = re.fullmatch(r"(\d+)-(\d+)", key)
        if pair is None:
            raise ConfigError(f"field {ctx}.overrides key {key!r} must read 'i-j'")
        pairs[(int(pair[1]), int(pair[2]))] = v
    params = RydbergParams(
        omega=omega,
        delta=delta,
        delta0=_optional(spec, "delta0", float, ctx, 0.0),
        delta0_atoms=tuple(_entries(atoms, int, f"{ctx}.delta0_atoms")),
        pair_overrides=pairs,
    )
    return SimulatorSystem(AtomGeometry(rows, scale), params, spin_map=None, mirror=())


def _geometry_json(system: SimulatorSystem) -> dict:
    """The `custom` simulator fields of an array: positions, scale, drive and overrides."""
    geom, params = system.geometry, system.params
    return {
        "positions": [[float(x), float(y)] for x, y in geom.positions],
        "scale": float(geom.interaction_scale),
        "omega": float(params.omega),
        "delta": float(params.delta),
        "delta0": float(params.delta0),
        "delta0_atoms": list(params.delta0_atoms),
        "overrides": {
            f"{i}-{j}": float(v) for (i, j), v in (params.pair_overrides or {}).items()
        },
    }


def _initial_state(finals, initial: str) -> StateVector:
    """The labeled state named by the `initial` field."""
    states = dict(finals)
    if initial not in states:
        raise ConfigError(f"field initial: {initial!r} is not one of {list(states)}")
    return states[initial]


def _numpy_scalar(value):
    """The Python value of a numpy scalar, for json.dumps; anything else is not JSON."""
    for kind, python in ((np.bool_, bool), (np.floating, float), (np.integer, int)):
        if isinstance(value, kind):
            return python(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, default=_numpy_scalar)
    path.write_text(text + "\n", encoding="utf-8")


def _write_text(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_manifest(cfg: ExperimentConfig, parameters: dict, outputs: list[str]) -> None:
    manifest = {
        "tool": "cahm",
        "version": __version__,
        "mode": cfg.mode,
        "preset": cfg.preset,
        "seed": cfg.seed,
        "parameters": parameters,
        "outputs": outputs,
    }
    _write_json(cfg.out_dir / "manifest.json", manifest)


def _run_spectrum(cfg: ExperimentConfig) -> int:
    target = _require(cfg.payload, "target", dict, "payload")
    terms, _, c, resolved = _build_target(target)
    # One eigensolve per symmetry sector; the sectors' union is the spectrum of H.
    sectors = symmetry_sectors(terms, _target_symmetries(target["kind"], resolved))
    eigenvalues = np.sort(np.concatenate([eig_hermitian(b).eigenvalues for b in sectors]))
    out = {"eigenvalues": [float(w) for w in eigenvalues]}
    if target["kind"] == "one-spin":
        out["analytic"] = analytic_one_spin(c).to_json_obj()
        if c.u != 0:
            out["perturbative"] = perturbative_one_spin(c).to_json_obj()
    _write_json(cfg.out_dir / "spectrum.json", out)
    _write_manifest(cfg, {"target": resolved}, ["spectrum.json"])
    return EXIT_OK


def _run_match(cfg: ExperimentConfig) -> int:
    spec = _require(cfg.payload, "match", dict, "payload")
    kind = _require(spec, "kind", str, "payload.match")
    ctx = "payload.match"
    if kind == "two-atom":
        report = match_two_atom(
            _couplings(spec, ctx, kind),
            blockade_ratio=_optional(spec, "blockade_ratio", float, ctx, 64.0),
        )
    elif kind == "three-atom-newton":
        unknowns = _require(spec, "unknowns", list, ctx)
        guess = _optional(spec, "guess", dict, ctx, None)
        equations = _optional(spec, "equations", list, ctx, [1, 2, 3])
        problem = NewtonProblem(
            targets=_couplings(spec, ctx, kind),
            unknowns=tuple(_entries(unknowns, str, f"{ctx}.unknowns")),
            fixed=_entries(_require(spec, "fixed", dict, ctx), float, f"{ctx}.fixed"),
            initial_guess=None if guess is None else _entries(guess, float, f"{ctx}.guess"),
            equations=tuple(_entries(equations, int, f"{ctx}.equations")),
        )
        report = solve_three_atom_newton(problem)
    elif kind == "three-atom-approx":
        report = approx_three_atom_match(
            _require(spec, "omega", float, ctx), _require(spec, "delta", float, ctx)
        )
    elif kind == "four-atom":
        report = match_four_atom(_couplings(spec, ctx, kind), _require(spec, "v0", float, ctx))
    elif kind == "six-atom":
        report = match_six_atom(
            _couplings(spec, ctx, kind),
            _require(spec, "omega", float, ctx),
            _require(spec, "delta", float, ctx),
            _require(spec, "v0", float, ctx),
            rho_hint=_optional(spec, "rho_hint", float, ctx, None),
            include_middle_pair=_optional(spec, "include_middle_pair", bool, ctx, True),
        )
    else:
        raise ConfigError(f"field {ctx}.kind has unknown value {kind!r}")
    _write_json(cfg.out_dir / "match_report.json", report.to_json_obj())
    _write_manifest(cfg, {"match": spec}, ["match_report.json"])
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def _run_evolve(cfg: ExperimentConfig) -> int:
    payload = cfg.payload
    times = _time_grid(_require(payload, "times", dict, "payload"), "payload.times")
    initial = _require(payload, "initial", str, "payload")
    resolved: dict = {"initial": initial, "times": payload["times"]}
    if "target" in payload:
        target = _require(payload, "target", dict, "payload")
        h, finals, _, resolved["target"] = _labelled_target(target)
        tr = trace(h, _initial_state(finals, initial), finals, times)
    elif "simulator" in payload:
        spec = _require(payload, "simulator", dict, "payload")
        system, resolved["simulator"] = _build_simulator(spec)
        if system.spin_map is None:
            # Custom layout: the initial state is a |g>/|r> bitstring and the
            # trace covers the complete product basis.
            n = system.geometry.n_atoms
            labels = bitstring_labels(1 << n)
            if initial not in labels:
                raise ConfigError(f"field initial: custom simulators take a bitstring of {n} atoms")
            psi0 = StateVector.basis(len(labels), labels.index(initial))
            probs = state_probabilities(system.hamiltonian(), psi0, times)
            tr = EvolutionTrace(times, dict(zip(labels, probs)))
        else:
            tr = system.spin_trace(_initial_state(system.spin_finals(), initial), times)
        resolved["geometry"] = _geometry_json(system)
    else:
        raise ConfigError("missing field payload.target or payload.simulator")
    _write_text(cfg.out_dir / "trace.csv", tr.to_csv_text())
    _write_manifest(cfg, resolved, ["trace.csv"])
    return EXIT_OK


def _run_compare(cfg: ExperimentConfig) -> int:
    payload = cfg.payload
    times = _time_grid(_require(payload, "times", dict, "payload"), "payload.times")
    sim_grid = _optional(payload, "sim_times", dict, "payload", None)
    sim_times = times if sim_grid is None else _time_grid(sim_grid, "payload.sim_times")
    initial = _require(payload, "initial", str, "payload")
    rescale_k = _optional(payload, "rescale_k", float, "payload", None)

    target_spec = _require(payload, "target", dict, "payload")
    sim_spec = _require(payload, "simulator", dict, "payload")
    h, finals, _, target_params = _labelled_target(target_spec)
    system, sim_params = _build_simulator(sim_spec)
    if system.spin_map is None:
        raise ConfigError("field payload.simulator: custom simulators run in evolve mode only")
    if h.dim != len(system.spin_map.indices):
        raise ConfigError(
            f"fields payload.target.kind ({target_spec['kind']!r}) and payload.simulator.kind "
            f"({sim_spec['kind']!r}) encode different numbers of spins: spin bases of "
            f"{h.dim} and {len(system.spin_map.indices)} states"
        )
    psi0 = _initial_state(finals, initial)
    target_trace = trace(h, psi0, finals, times)
    sim_trace = system.spin_trace(psi0, sim_times)

    comparison = compare(target_trace, sim_trace, rescale_k=rescale_k)
    _write_text(cfg.out_dir / "target.csv", target_trace.to_csv_text())
    _write_text(cfg.out_dir / "simulator.csv", sim_trace.to_csv_text())
    _write_json(cfg.out_dir / "comparison.json", comparison.to_json_obj())
    resolved = {
        "target": target_params,
        "simulator": sim_params,
        "initial": initial,
        "times": payload["times"],
        "sim_times": payload["times"] if sim_grid is None else sim_grid,
        "rescale_k": rescale_k,
        "geometry": _geometry_json(system),
    }
    _write_manifest(cfg, resolved, ["target.csv", "simulator.csv", "comparison.json"])
    return EXIT_OK


def _run_trotter(cfg: ExperimentConfig) -> int:
    payload = cfg.payload
    ctx = "payload"
    omega = _require(payload, "omega", float, ctx)
    delta = _require(payload, "delta", float, ctx)
    v0 = _require(payload, "v0", float, ctx)
    # Default step 1/V0: large blockade energies need correspondingly small steps.
    if "dt" in payload:
        dt = _require(payload, "dt", float, ctx)
    elif v0 != 0:
        dt = 1.0 / abs(v0)
    else:
        raise ConfigError("field payload.dt is required when v0 = 0")
    t_max = _require(payload, "t_max", float, ctx)
    shots = _require(payload, "shots", int, ctx)
    if dt <= 0 or t_max < 0:
        raise ConfigError("field payload.dt must be positive and payload.t_max nonnegative")
    n_steps = round(min(t_max / dt, MAX_TIMES))
    if n_steps + 1 > MAX_TIMES:
        raise ConfigError(
            f"fields payload.t_max / payload.dt give more than the cap of {MAX_TIMES} time points"
        )
    seed = cfg.seed if cfg.seed is not None else 0

    system = two_atom_system(omega, delta, v0)
    times = np.arange(n_steps + 1) * dt
    finals = one_spin_finals()
    psi0 = _initial_state(finals, "m=1")
    exact = system.spin_trace(psi0, times)
    psi = system.embed(psi0)

    step = trotter_step_h2r(omega, delta, v0, dt)
    labels = bitstring_labels(psi.dim)
    states, frequencies, counts_log = [], [], []
    for k in range(n_steps + 1):
        if k > 0:
            psi = apply_circuit(step, psi)
        result = sample_shots(psi, shots, seed + k)
        states.append(psi.amplitudes)
        frequencies.append([result.frequency(label) for label in labels])
        counts_log.append({"t": float(times[k]), "seed": seed + k, "counts": result.counts})

    # The two-atom encoding maps every spin state to one basis state.
    physical = system.spin_map.indices
    observables = {label: b for (label, _), b in zip(finals, physical)}
    runs = {
        "exact": exact,
        "trotter": basis_trace(times, np.abs(np.array(states).T) ** 2, observables, physical),
        "shots": basis_trace(times, np.array(frequencies).T, observables, physical),
    }
    columns = {
        f"{label}:{run}": tr.series[label] for label in exact.labels for run, tr in runs.items()
    }
    _write_text(cfg.out_dir / "trotter.csv", EvolutionTrace(times, columns).to_csv_text())
    _write_json(
        cfg.out_dir / "counts.json",
        {"shots": shots, "base_seed": seed, "per_time": counts_log},
    )
    resolved = {
        "omega": omega,
        "delta": delta,
        "v0": v0,
        "dt": dt,
        "t_max": t_max,
        "shots": shots,
        "base_seed": seed,
        "steps_per_time_unit": 1.0 / dt,
        "circuit_step": step.to_json_obj(),
    }
    _write_manifest(cfg, resolved, ["trotter.csv", "counts.json"])
    return EXIT_OK


_RUNNERS = {
    "spectrum": _run_spectrum,
    "match": _run_match,
    "evolve": _run_evolve,
    "compare": _run_compare,
    "trotter": _run_trotter,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes artifacts into cfg.out_dir."""
    if cfg.mode not in _RUNNERS:
        raise ConfigError(f"unknown mode {cfg.mode!r}; expected one of {', '.join(MODES)}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg.mode](cfg)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError("config file must contain a JSON object")
    return obj


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The `cahm` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="cahm",
        description="Analog-simulator design toolkit for spin-truncated gauge-Higgs chains.",
    )
    sub = parser.add_subparsers(dest="mode")
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} experiment")
        p.add_argument("--preset", help="built-in preset name")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="override the sampling seed")
        p.add_argument(
            "--list-presets", action="store_true", help="list available presets and exit"
        )
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.mode is None:
        parser.print_help()
        return EXIT_CONFIG

    if getattr(args, "list_presets", False):
        for name in presets():
            print(f"{name}: {preset_description(name)}")
        return EXIT_OK

    try:
        if args.preset:
            cfg = preset_config(args.preset, out_dir=args.out, seed=args.seed)
            if cfg.mode != args.mode:
                raise ConfigError(
                    f"preset {args.preset!r} runs in mode {cfg.mode!r}, not {args.mode!r}"
                )
        elif args.config:
            obj = _load_config_file(args.config)
            mode = obj.get("mode", args.mode)
            if mode != args.mode:
                raise ConfigError(f"config mode {mode!r} does not match subcommand {args.mode!r}")
            payload = {k: v for k, v in obj.items() if k not in ("mode", "seed")}
            seed = args.seed
            if seed is None:
                seed = _optional(obj, "seed", int, "config", None)
            cfg = ExperimentConfig(
                mode=args.mode, payload=payload, out_dir=Path(args.out), seed=seed
            )
        else:
            raise ConfigError("either --preset or --config is required")
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MatchingError, SingularDenominatorError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # Domain validation (couplings, geometry, solver setup) rejects the
        # configured values.
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
