"""Print the sha256 of every artifact that the built-in presets write.

Each preset runs through `cahm.cli.main` into a temporary directory, and so
do the `spectrum` configs of the paper's one- and two-spin figures and of four
chains, two of them solved again at other couplings (`SPECTRA`), one `match`
config of each kind, three more six-atom matches and a `three-atom-newton`
match from the default start (`MATCHES`), one `three-atom-newton` match per
reason that the solve stops short (`NEWTON_STOPS`), seven `evolve` configs
(`EVOLVES`) and a `trotter` config without `dt` (`TROTTER_DEFAULT_DT`); one line
`<sha256>  <run>/<file>` is printed per artifact, sorted, so that the output
of two checkouts can be compared with `diff`.  The `NEWTON_STOPS` runs must
exit 3 (numerical failure) and every other run 0; any other exit code stops
the tool.
Uses the `cahm` on the import path:

    PYTHONPATH=src python tools/preset_hashes.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from cahm.cli import main, preset_config, presets

# No preset runs `spectrum`; these are the one- and two-spin spectra of the paper's
# figures, a three-link m_max = 2 chain, open and closed into a ring, and two
# `chain-spectrum` benchmark sizes: the five-link spin-1 chain at Y = 0, whose
# sectors hold large degenerate clusters, and the dim-625 four-link m_max = 2 chain.
# The ring and the dim-625 chain are each solved once more at other couplings, right
# after the first solve of their structure, so that a solve on a kept structure is hashed.
CHAIN = {"kind": "chain", "m_max": 2, "n_links": 3, "U": 1.0, "X": 0.9, "Y": 0.3}
SPECTRA = {
    "spectrum-one-spin": {"kind": "one-spin", "U": 1.0, "X": 0.5},
    "spectrum-two-spin": {"kind": "two-spin", "U": 1.0, "X": 1.2, "Y": 0.2},
    "spectrum-chain-open": CHAIN,
    "spectrum-chain-periodic": {**CHAIN, "boundary": "periodic"},
    "spectrum-chain-periodic-recoupled": {
        **CHAIN, "boundary": "periodic", "U": 1.3, "X": -0.7, "Y": 0.45
    },
    "spectrum-chain-y0": {**CHAIN, "m_max": 1, "n_links": 5, "Y": 0.0},
    "spectrum-chain-dim625": {**CHAIN, "n_links": 4},
    "spectrum-chain-dim625-recoupled": {**CHAIN, "n_links": 4, "U": 0.8, "X": 1.1, "Y": 0.05},
}

# No preset runs `match`; these are the `figures` benchmark's configs, one per kind,
# three more six-atom matches whose K fits read other traces: Y = 0, no middle
# pair, and a `rho_hint`, and a Newton solve without a guess, whose default start
# delta = -U/2, delta0 = U/2 sits on the delta + delta0 = 0 pole and must be nudged off it.
MATCHES = {
    "two-atom": {"kind": "two-atom", "U": 1.0, "X": 0.5},
    "three-atom-newton": {
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
SIX_ATOM = MATCHES["six-atom"]
MATCHES.update({
    "six-atom-y0": {**SIX_ATOM, "Y": 0.0},
    "six-atom-no-middle-pair": {**SIX_ATOM, "include_middle_pair": False},
    "six-atom-rho-hint": {**SIX_ATOM, "rho_hint": 0.33},
    "three-atom-newton-default-start": {
        "kind": "three-atom-newton",
        "U": 5.12169,
        "X": 0.07421,
        "unknowns": ["delta", "delta0"],
        "fixed": {"v0": 30.0, "omega": 1.0},
        "equations": [1, 2],
    },
})


# The Newton solve's non-converged reports, one per reason it stops, each at
# U = 1 and X = 0.5: the run writes its report and exits 3.
NEWTON_STOP = {"kind": "three-atom-newton", "U": 1.0, "X": 0.5}
NEWTON_STOPS = {
    "singular-jacobian": {
        "unknowns": ["omega"],
        "fixed": {"delta": 1.0, "delta0": 1.0, "v0": 0.0},
        "guess": {"omega": 1.0},
        "equations": [1],
    },
    "line-search": {
        "unknowns": ["omega"],
        "fixed": {"delta": 1.0, "delta0": 1.0, "v0": 15.0},
        "guess": {"omega": 1.0},
        "equations": [2],
    },
    "not-evaluable": {
        "unknowns": ["omega"],
        "fixed": {"delta": 0.0, "delta0": 1.0, "v0": 30.0},
        "equations": [1],
    },
    "differentiation-pole": {
        "unknowns": ["delta"],
        "fixed": {"omega": 1.0, "delta0": 1.0, "v0": 30.0},
        "guess": {"delta": 1e-6},
        "equations": [1],
    },
    "no-convergence": {
        "unknowns": ["omega", "delta0"],
        "fixed": {"delta": 30.0, "v0": 0.5},
        "guess": {"omega": -2.0, "delta0": -15.0},
        "equations": [3, 2],
    },
}


# No preset runs `evolve`: a one-spin and a two-spin target, a one-spin and a
# two-spin named array, a four-atom array spaced by `rho` with its `v2_override`,
# a six-atom array without its middle pair, and a `custom` array with delta0
# atoms and an override, the fields that every array manifest records.
EVOLVE_TIMES = {"start": 0.0, "stop": 2.0, "num": 21}
EVOLVES = {
    "evolve-one-spin": {
        "target": {"kind": "one-spin", "U": 0.064, "X": 0.067},
        "initial": "m=1",
    },
    "evolve-two-spin": {
        "target": {"kind": "two-spin", "U": 1.0, "X": 1.2, "Y": 0.2},
        "initial": "00",
    },
    "evolve-three-atom": {
        "simulator": {"kind": "three-atom", "omega": 1.0, "delta": 15.0, "delta0": 0.4, "v0": 30.0},
        "initial": "m=1",
    },
    "evolve-six-atom": {
        "simulator": {
            "kind": "six-atom",
            "omega": 1.0,
            "delta": 15.0,
            "v0": 30.0,
            "rho": 0.326,
            "delta0": 0.4,
        },
        "initial": "00",
    },
    "evolve-four-atom-rho": {
        "simulator": {
            "kind": "four-atom",
            "omega": -1.2,
            "delta": -0.6,
            "v0": 64.0,
            "rho": 0.382,
            "v2_override": -0.2,
        },
        "initial": "00",
    },
    "evolve-six-atom-truncated": {
        "simulator": {
            "kind": "six-atom",
            "omega": 1.0,
            "delta": 15.0,
            "v0": 30.0,
            "rho": 0.326,
            "include_middle_pair": False,
        },
        "initial": "00",
    },
    "evolve-custom": {
        "simulator": {
            "kind": "custom",
            "positions": [[0.0, 2.0], [0.0, 1.0], [0.0, 0.0], [3.0, 2.0], [3.0, 1.0], [3.0, 0.0]],
            "scale": 30.0,
            "omega": 1.0,
            "delta": 15.0,
            "delta0": 0.4,
            "delta0_atoms": [1, 4],
            "overrides": {"1-4": 0.0},
        },
        "initial": "010010",
    },
}


# The fig10 preset sets dt; this `trotter` config takes the default step 1/|v0| = 1/12.
TROTTER_DEFAULT_DT = {"omega": -1.5, "delta": -0.5, "v0": 12.0, "t_max": 1.0, "shots": 200}


# Every run that is not a preset, by name: its config file as a JSON object.
CONFIGS = {name: {"mode": "spectrum", "target": t} for name, t in SPECTRA.items()}
CONFIGS.update({f"match-{k}": {"mode": "match", "match": m} for k, m in MATCHES.items()})
STOPPED = {f"match-newton-{k}": {"mode": "match", "match": {**NEWTON_STOP, **m}}
           for k, m in NEWTON_STOPS.items()}
CONFIGS.update(STOPPED)
CONFIGS.update({k: {"mode": "evolve", "times": EVOLVE_TIMES, **e} for k, e in EVOLVES.items()})
CONFIGS["trotter-default-dt"] = {"mode": "trotter", **TROTTER_DEFAULT_DT}


def run_argvs(config_dir: Path) -> dict[str, list[str]]:
    """`cahm.cli.main` arguments, without --out, of every preset and every run of CONFIGS.

    The config files are written into `config_dir`.
    """
    runs = {name: [preset_config(name).mode, "--preset", name] for name in presets()}
    for name, obj in CONFIGS.items():
        config = config_dir / f"{name}.json"
        config.write_text(json.dumps(obj), encoding="utf-8")
        runs[name] = [obj["mode"], "--config", str(config)]
    return runs


def preset_hashes() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in run_argvs(Path(tmp)).items():
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                code = main([*argv, "--out", str(out)])
            expected = 3 if name in STOPPED else 0
            if code != expected:
                raise SystemExit(f"{name} exited {code}, not {expected}")
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {name}/{path.name}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


if __name__ == "__main__":
    sys.stdout.write("".join(line + "\n" for line in preset_hashes()))
