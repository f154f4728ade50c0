"""Command-line entry point: presets, config-driven runs, CSV/JSON artifacts.

Every run writes the requested data files plus a manifest.json recording all
resolved parameters (including derived couplings, rho and the time-rescale
factor), so each artifact can be re-created without external context.
Re-running the same preset or config produces byte-identical outputs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import (
    EvolutionTrace,
    basis_trace,
    compare,
    simulator_trace,
    spin_finals,
    state_probabilities,
    trace,
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
    build_chain_h,
    build_h1t,
    build_h2t,
    chain_symmetries,
    perturbative_one_spin,
)
from .trotter import apply_circuit, sample_shots, trotter_step

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Cap on the points of every time grid (`num` of times and sim_times, and the
# t_max/dt + 1 Trotter steps); the presets use 1001.
MAX_TIMES = 10_001


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


@dataclasses.dataclass
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


@contextlib.contextmanager
def _set_by(fields: str):
    """A ValueError inside, such as an overflow, becomes a ConfigError naming `fields`."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{exc} (set by {fields})") from None


def _only(obj: dict, ctx: str, fields) -> None:
    """Refuse a field of `obj` that its reader does not read, naming it ctx.key."""
    for key in obj:
        if key not in fields:
            raise ConfigError(f"unknown field {ctx}.{key}; {ctx} reads {', '.join(fields)}")


def _fields(obj: dict, ctx: str, table: dict) -> dict:
    """The fields of `obj` read by `table`, in its order, after refusing a field it lacks."""
    _only(obj, ctx, table)
    return {
        name: _optional(obj, name, rule[0], ctx, rule[1])
        if isinstance(rule, tuple)
        else _require(obj, name, rule, ctx)
        for name, rule in table.items()
    }


def _time_grid(obj: dict, ctx: str) -> np.ndarray:
    start, stop, num = _fields(obj, ctx, {"start": float, "stop": float, "num": int}).values()
    if num < 2 or stop <= start:
        raise ConfigError(f"field {ctx} must satisfy stop > start and num >= 2")
    if not stop - start <= sys.float_info.max:
        raise ConfigError(f"field {ctx} must have a finite stop - start, got {stop - start!r}")
    if num > MAX_TIMES:
        raise ConfigError(f"field {ctx}.num = {num} is above the cap of {MAX_TIMES} time points")
    return np.linspace(start, stop, num)


# The fields of each kind of config block, in reading order: `name: type` for a
# required field, `name: (type, default)` for one that may be absent or null.
# `_MODES` holds the payload fields of each mode in the same form.
_TARGETS = {
    "one-spin": {"U": float, "X": float},
    "two-spin": {"U": float, "X": float, "Y": float},
    "chain": {"U": float, "X": float, "Y": float, "boundary": (str, "open"),
              "m_max": int, "n_links": int},
}
_SIMULATORS = {
    "two-atom": {"omega": float, "delta": float, "v0": float},
    "three-atom": {"omega": float, "delta": float, "delta0": float, "v0": float},
    "four-atom": {"omega": float, "delta": float, "v0": float, "rho": (float, None),
                  "v1": (float, None), "v2_override": (float, None)},
    "six-atom": {"omega": float, "delta": float, "v0": float, "rho": float,
                 "delta0": (float, 0.0), "include_middle_pair": (bool, True)},
    "custom": {"positions": list, "scale": float, "omega": float, "delta": float,
               "delta0": (float, 0.0), "delta0_atoms": (list, ()), "overrides": (dict, {})},
}
_MATCHES = {
    "two-atom": {"U": float, "X": float, "blockade_ratio": (float, 64.0)},
    "three-atom-newton": {"U": float, "X": float, "unknowns": list, "fixed": dict,
                          "guess": (dict, None), "equations": (list, (1, 2, 3))},
    "three-atom-approx": {"omega": float, "delta": float},
    "four-atom": {"U": float, "X": float, "Y": float, "v0": float},
    "six-atom": {"U": float, "X": float, "Y": float, "omega": float, "delta": float,
                 "v0": float, "rho_hint": (float, None), "include_middle_pair": (bool, True)},
}


def _block(spec: dict, ctx: str, kinds: dict) -> tuple[str, dict]:
    """The kind of the config block `spec` and its fields, read by the table `kinds`."""
    kind = _require(spec, "kind", str, ctx)
    if kind not in kinds:
        raise ConfigError(f"field {ctx}.kind has unknown value {kind!r}")
    fields = _fields(spec, ctx, {"kind": str, **kinds[kind]})
    return fields.pop("kind"), fields


def _take_couplings(fields: dict) -> TargetCouplings:
    """TargetCouplings of the read U, X and, where read, Y and boundary, taken out of `fields`."""
    return TargetCouplings(
        fields.pop("U"), fields.pop("X"), fields.pop("Y", 0.0), fields.pop("boundary", "open")
    )


def _build_target(spec: dict):
    """Return (Hamiltonian, (truncation, link count), couplings, resolved params).

    One- and two-spin targets are spin-1 chains of one and two links.
    """
    ctx = "payload.target"
    kind, resolved = _block(spec, ctx, _TARGETS)
    with _set_by(f"{ctx}.boundary"):
        c = _take_couplings(dict(resolved))
    if kind == "one-spin":
        return build_h1t(c), (SPIN1, 1), c, resolved
    if kind == "two-spin":
        return build_h2t(c), (SPIN1, 2), c, resolved
    with _set_by(f"{ctx}.m_max"):
        trunc = SpinTruncation(resolved["m_max"])
    n_links = resolved["n_links"]
    if n_links < 1:
        raise ConfigError(f"field {ctx}.n_links must be >= 1, got {n_links}")
    with _set_by(f"{ctx}.m_max and {ctx}.n_links"):
        capped_dim(trunc.dim, n_links, "n_links")
    return build_chain_h(c, trunc, n_links), (trunc, n_links), c, resolved


def _labelled_target(spec: dict):
    """(Hamiltonian, labeled states, resolved params) for the modes that start from a state."""
    if spec.get("kind") == "chain":
        raise ConfigError(
            "field payload.target.kind 'chain' has no labelled states: chain targets run in "
            "spectrum mode only"
        )
    h, _, _, resolved = _build_target(spec)
    return h, spin_finals(h.dim), resolved


_SYSTEMS = {"two-atom": two_atom_system, "three-atom": three_atom_system,
            "four-atom": four_atom_system, "six-atom": six_atom_system}


def _build_simulator(spec: dict):
    """Return (SimulatorSystem, resolved params dict)."""
    ctx = "payload.simulator"
    kind, fields = _block(spec, ctx, _SIMULATORS)
    if kind == "four-atom":
        # rho sets the column spacing, or else v1 does, which is then required.
        v1, v0 = fields.pop("v1"), fields["v0"]
        if fields["rho"] is not None and v1 is not None:
            raise ConfigError(f"fields {ctx}.rho and {ctx}.v1 both set the column spacing")
        if fields["rho"] is None:
            if v1 is None:
                raise ConfigError(f"missing field {ctx}.v1")
            if v0 == 0:
                raise ConfigError(f"field {ctx}.v0 must be nonzero to derive rho from {ctx}.v1")
            if not 0 < v1 / v0 < 1:
                raise ConfigError(f"field {ctx}.v1 must give 0 < v1/v0 < 1, got {v1 / v0!r}")
            fields["rho"] = (v1 / v0) ** (1.0 / 6.0)
    if "rho" in fields and not 0 < fields["rho"] < 1:
        raise ConfigError(f"field {ctx}.rho must lie in (0, 1), got {fields['rho']!r}")
    system = _custom_layout(ctx, **fields) if kind == "custom" else _SYSTEMS[kind](**fields)
    p = system.params
    resolved = {**spec, **{k: float(v) for k, v in system.derived.items()}}
    resolved.update(omega=p.omega, delta=p.delta, delta0=p.delta0)
    return system, resolved


def _custom_layout(
    ctx: str, positions, scale, omega, delta, delta0, delta0_atoms, overrides
) -> SimulatorSystem:
    """A custom layout without spin map, from its read fields; no atom is placed above the cap.

    The fields are those `_geometry_json` writes into every array manifest.
    """
    capped_dim(2, len(positions), "number of positions")
    rows = []
    for k, row in enumerate(positions):
        if not isinstance(row, list) or len(row) != 2:
            raise ConfigError(f"field {ctx}.positions[{k}] must be an [x, y] pair, got {row!r}")
        rows.append(_entries(row, float, f"{ctx}.positions[{k}]"))
    pairs = {}
    for key, v in _entries(overrides, float, f"{ctx}.overrides").items():
        pair = re.fullmatch(r"(\d+)-(\d+)", key)
        if pair is None:
            raise ConfigError(f"field {ctx}.overrides key {key!r} must read 'i-j'")
        pairs[(int(pair[1]), int(pair[2]))] = v
    delta0_atoms = tuple(_entries(delta0_atoms, int, f"{ctx}.delta0_atoms"))
    with _set_by(f"{ctx}.positions"):
        geometry = AtomGeometry(rows, scale)
    # A pair too close to interact finitely is refused here, not once the Hamiltonian is built.
    with _set_by(f"{ctx}.positions and {ctx}.scale"):
        geometry.couplings()
    # `build_rydberg_h` refuses an atom outside the array too, but only once it runs.
    atoms = {"delta0_atoms": delta0_atoms, "overrides": [i for pair in pairs for i in pair]}
    for name, indices in atoms.items():
        for i in indices:
            if not 0 <= i < len(rows):
                raise ConfigError(f"field {ctx}.{name}: atom {i} outside 0..{len(rows) - 1}")
    with _set_by(f"{ctx}.overrides"):
        params = RydbergParams(omega, delta, delta0, delta0_atoms, pair_overrides=pairs)
    return SimulatorSystem(geometry, params, spin_map=None, mirror=())


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
        raise ConfigError(f"field payload.initial: {initial!r} is not one of {list(states)}")
    return states[initial]


def _plain(value):
    """A dataclass instance as `dataclasses.asdict`, a numpy scalar as its Python value.

    The `default` of json.dumps; anything else is not JSON.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    for kind, python in ((np.bool_, bool), (np.floating, float), (np.integer, int)):
        if isinstance(value, kind):
            return python(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _write_json(path: Path, obj) -> None:
    """`obj` as JSON text; a non-finite float raises a ValueError, as JSON has none."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_plain, allow_nan=False)
    _write_text(path, text + "\n")


# The OSErrors that a bad --out causes; any other (a full disk, say) propagates.
_OUT_ERRORS = (IsADirectoryError, NotADirectoryError, FileExistsError, PermissionError)


def _write_text(path: Path, text: str) -> None:
    """Write `text` as UTF-8 to `path`, over an existing file in place.

    The file is opened without truncation and cut at the end of the new text,
    which gives the bytes of a fresh write and keeps the inode. A rewrite that
    truncates first costs about ten times as much on ext4, which flushes a
    file truncated to zero and written again as it is closed; writing in place
    gives that flush up, so a rewrite cut short can leave the old run's tail
    behind the new bytes. `run` deletes the manifest before any artifact is
    written and writes it last, so such a directory has no manifest.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    except _OUT_ERRORS as exc:
        raise ConfigError(f"option --out: cannot write {str(path)!r}: {exc.strerror}") from None
    with open(fd, "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


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


def _run_spectrum(cfg: ExperimentConfig, target) -> int:
    h, chain, c, resolved = _build_target(target)
    # One eigenvalue solve per symmetry sector; the sectors' union is the spectrum of H.
    sectors = symmetry_sectors(h, chain_symmetries(*chain))
    blocks = [eig_hermitian(b, eigvals_only=True).eigenvalues for b in sectors]
    eigenvalues = np.sort(np.concatenate(blocks))
    out = {"eigenvalues": eigenvalues.tolist()}
    if target["kind"] == "one-spin":
        out["analytic"] = analytic_one_spin(c)
        if c.u != 0:
            out["perturbative"] = perturbative_one_spin(c)
    with _set_by("payload.target"):
        _write_json(cfg.out_dir / "spectrum.json", out)
    _write_manifest(cfg, {"target": resolved}, ["spectrum.json"])
    return EXIT_OK


def _run_match(cfg: ExperimentConfig, match) -> int:
    ctx = "payload.match"
    kind, f = _block(match, ctx, _MATCHES)
    # Every kind but three-atom-approx matches the target couplings U, X and Y.
    c = None if kind == "three-atom-approx" else _take_couplings(f)
    if kind == "two-atom":
        report = match_two_atom(c, **f)
    elif kind == "three-atom-newton":
        guess = f["guess"]
        problem = NewtonProblem(
            targets=c,
            unknowns=tuple(_entries(f["unknowns"], str, f"{ctx}.unknowns")),
            fixed=_entries(f["fixed"], float, f"{ctx}.fixed"),
            initial_guess=None if guess is None else _entries(guess, float, f"{ctx}.guess"),
            equations=tuple(_entries(f["equations"], int, f"{ctx}.equations")),
        )
        report = solve_three_atom_newton(problem)
    elif kind == "three-atom-approx":
        report = approx_three_atom_match(**f)
    elif kind == "four-atom":
        report = match_four_atom(c, **f)
    else:
        report = match_six_atom(c, **f)
    with _set_by(ctx):
        _write_json(cfg.out_dir / "match_report.json", report)
    _write_manifest(cfg, {"match": match}, ["match_report.json"])
    return EXIT_OK if report.converged else EXIT_NUMERICAL


def _run_evolve(cfg: ExperimentConfig, times, initial, target, simulator) -> int:
    grid = _time_grid(times, "payload.times")
    resolved: dict = {"initial": initial, "times": times}
    if (target is None) == (simulator is None):
        raise ConfigError(
            "evolve takes exactly one of the fields payload.target and payload.simulator"
        )
    if target is not None:
        h, finals, resolved["target"] = _labelled_target(target)
        with _set_by("payload.times and payload.target"):
            tr = trace(h, _initial_state(finals, initial), finals, grid)
    else:
        system, resolved["simulator"] = _build_simulator(simulator)
        if system.spin_map is None:
            # Custom layout: the initial state is a |g>/|r> bitstring and the
            # trace covers the complete product basis.
            n = system.geometry.n_atoms
            labels = bitstring_labels(1 << n)
            if initial not in labels:
                raise ConfigError(
                    f"field payload.initial: custom simulators take a bitstring of {n} atoms"
                )
            psi0 = StateVector.basis(len(labels), labels.index(initial))
            with _set_by("payload.times and payload.simulator"):
                probs = state_probabilities(system.hamiltonian(), psi0, grid)
            tr = EvolutionTrace(grid, dict(zip(labels, probs)))
        else:
            psi0 = _initial_state(spin_finals(len(system.spin_map.indices)), initial)
            with _set_by("payload.times and payload.simulator"):
                tr = simulator_trace(system, psi0, grid)
        resolved["geometry"] = _geometry_json(system)
    _write_text(cfg.out_dir / "trace.csv", tr.to_csv_text())
    _write_manifest(cfg, resolved, ["trace.csv"])
    return EXIT_OK


def _run_compare(
    cfg: ExperimentConfig, times, sim_times, initial, rescale_k, target, simulator
) -> int:
    grid = _time_grid(times, "payload.times")
    sim_grid = grid if sim_times is None else _time_grid(sim_times, "payload.sim_times")
    h, finals, target_params = _labelled_target(target)
    system, sim_params = _build_simulator(simulator)
    if system.spin_map is None:
        raise ConfigError("field payload.simulator: custom simulators run in evolve mode only")
    if h.dim != len(system.spin_map.indices):
        raise ConfigError(
            f"fields payload.target.kind ({target['kind']!r}) and payload.simulator.kind "
            f"({simulator['kind']!r}) encode different numbers of spins: spin bases of "
            f"{h.dim} and {len(system.spin_map.indices)} states"
        )
    psi0 = _initial_state(finals, initial)
    with _set_by("payload.times and payload.target"):
        target_trace = trace(h, psi0, finals, grid)
    with _set_by(f"payload.{'times' if sim_times is None else 'sim_times'} and payload.simulator"):
        sim_trace = simulator_trace(system, psi0, sim_grid)
    with _set_by("payload.rescale_k, payload.times and payload.sim_times"):
        comparison = compare(target_trace, sim_trace, rescale_k=rescale_k)
    _write_text(cfg.out_dir / "target.csv", target_trace.to_csv_text())
    _write_text(cfg.out_dir / "simulator.csv", sim_trace.to_csv_text())
    _write_json(cfg.out_dir / "comparison.json", comparison)
    resolved = {
        "target": target_params,
        "simulator": sim_params,
        "initial": initial,
        "times": times,
        "sim_times": times if sim_times is None else sim_times,
        "rescale_k": rescale_k,
        "geometry": _geometry_json(system),
    }
    _write_manifest(cfg, resolved, ["target.csv", "simulator.csv", "comparison.json"])
    return EXIT_OK


def _run_trotter(cfg: ExperimentConfig, omega, delta, v0, dt, t_max, shots) -> int:
    # Default step 1/V0: large blockade energies need correspondingly small steps.
    if dt is None:
        dt = 1.0 / abs(v0) if v0 else math.inf
        if dt == math.inf:
            raise ConfigError(
                f"field payload.dt is required when the default step 1/|payload.v0| is not "
                f"finite, got v0 = {v0!r}"
            )
    if dt <= 0 or t_max < 0:
        raise ConfigError("field payload.dt must be positive and payload.t_max nonnegative")
    if 1.0 / dt == math.inf:
        raise ConfigError(f"field payload.dt = {dt!r} puts 1/dt beyond the float range")
    n_steps = round(min(t_max / dt, MAX_TIMES))
    if n_steps + 1 > MAX_TIMES:
        raise ConfigError(
            f"fields payload.t_max / payload.dt give more than the cap of {MAX_TIMES} time points"
        )
    seed = cfg.seed if cfg.seed is not None else 0

    system = two_atom_system(omega, delta, v0)
    times = np.arange(n_steps + 1) * dt
    finals = spin_finals(len(system.spin_map.indices))
    psi0 = _initial_state(finals, "m=1")
    with _set_by("payload.omega, payload.delta, payload.v0, payload.dt and payload.t_max"):
        exact = simulator_trace(system, psi0, times)
        step = trotter_step(system.geometry, system.params, dt)
    psi = system.embed(psi0)
    labels = bitstring_labels(psi.dim)
    states, frequencies, counts_log = [], [], []
    for k in range(n_steps + 1):
        if k > 0:
            psi = apply_circuit(step, psi)
        with _set_by("payload.shots"):
            counts = sample_shots(psi, shots, seed + k).tolist()
        states.append(psi.amplitudes)
        frequencies.append([n / shots for n in counts])
        seen = {label: n for label, n in zip(labels, counts) if n > 0}
        counts_log.append({"t": float(times[k]), "seed": seed + k, "counts": seen})

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
        "circuit_step": [{"gate": g.kind, "q": g.qubits, "angle": g.angle} for g in step.gates],
    }
    _write_manifest(cfg, resolved, ["trotter.csv", "counts.json"])
    return EXIT_OK


# Each mode's runner and payload fields, in the form of the block tables; the
# runner takes the read fields as keyword arguments.
_MODES = {
    "spectrum": (_run_spectrum, {"target": dict}),
    "match": (_run_match, {"match": dict}),
    "evolve": (_run_evolve, {"times": dict, "initial": str, "target": (dict, None),
                             "simulator": (dict, None)}),
    "compare": (_run_compare, {"times": dict, "sim_times": (dict, None), "initial": str,
                               "rescale_k": (float, None), "target": dict, "simulator": dict}),
    "trotter": (_run_trotter, {"omega": float, "delta": float, "v0": float,
                               "dt": (float, None), "t_max": float, "shots": int}),
}
MODES = tuple(_MODES)


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; writes artifacts into cfg.out_dir."""
    if cfg.mode not in _MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}; expected one of {', '.join(MODES)}")
    runner, table = _MODES[cfg.mode]
    fields = _fields(cfg.payload, "payload", table)
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        # A rerun that stops partway leaves no manifest, so it cannot pass for a whole run.
        (cfg.out_dir / "manifest.json").unlink(missing_ok=True)
    except _OUT_ERRORS as exc:
        raise ConfigError(
            f"option --out: cannot use the directory {str(cfg.out_dir)!r}: {exc.strerror}"
        ) from None
    return runner(cfg, **fields)


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file {path!r} not found")
    except OSError as exc:
        raise ConfigError(f"option --config: cannot read {path!r}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}")
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"option --config: cannot read {path!r}: {exc}") from None
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
        if cfg.seed is not None and cfg.seed < 0:
            source = "option --seed" if args.seed is not None else "field config.seed"
            raise ConfigError(f"{source} must be nonnegative, got {cfg.seed}")
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
