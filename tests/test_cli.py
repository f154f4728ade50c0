import errno
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cahm
from cahm import StateVector
from cahm.cli import (
    _MATCHES,
    _MODES,
    _SIMULATORS,
    _TARGETS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    MAX_TIMES,
    ConfigError,
    main,
    preset_config,
    presets,
    run,
)

from helpers import EIGENVALUE_MUTATIONS, corrupting_eigvalsh, jsonable_text

EXPECTED_PRESETS = ["fig3-top", "fig3-bottom", "fig4", "fig7-top", "fig7-bottom", "fig8", "fig10"]


def test_preset_list():
    assert presets() == EXPECTED_PRESETS


def _load_tool(name: str):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


preset_hashes = _load_tool("preset_hashes")


@pytest.mark.parametrize("name", [*presets(), *preset_hashes.CONFIGS])
def test_preset_reruns_byte_identically(tmp_path, name):
    """A run over longer junk at every artifact path writes the bytes of a fresh run."""
    argv = preset_hashes.run_argvs(tmp_path)[name]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([*argv, "--out", str(out1)]) == EXIT_OK
    files = sorted(p.name for p in out1.iterdir())
    assert "manifest.json" in files
    out2.mkdir()
    for file in files:
        size = (out1 / file).stat().st_size
        (out2 / file).write_bytes(b"junk\r\n" * (size // 6 + 10))
    assert main([*argv, "--out", str(out2)]) == EXIT_OK
    assert files == sorted(p.name for p in out2.iterdir())
    for file in files:
        assert (out1 / file).read_bytes() == (out2 / file).read_bytes(), file


def test_write_text_overwrites_in_place(tmp_path):
    from cahm.cli import _write_text

    text = "t,m=1\n0,1\n0.5,0.25\n"
    data = text.encode("utf-8")
    paths = {
        "longer": b"stale " * 20,
        "same-length": b"x" * len(data),
        "shorter": b"s",
        "missing": None,
        "hard-linked": b"linked " * 10,
    }
    for name, old in paths.items():
        if old is not None:
            (tmp_path / name).write_bytes(old)
    os.link(tmp_path / "hard-linked", tmp_path / "link")
    inodes = {name: os.stat(tmp_path / name).st_ino for name, old in paths.items() if old}
    for name in paths:
        _write_text(tmp_path / name, text)
        assert (tmp_path / name).read_bytes() == data, name
    assert (tmp_path / "link").read_bytes() == data
    assert inodes == {name: os.stat(tmp_path / name).st_ino for name in inodes}


@pytest.mark.parametrize("name", presets())
def test_json_artifacts_equal_the_jsonable_oracle(tmp_path, monkeypatch, name):
    from cahm import cli

    written, write_json = [], cli._write_json

    def recording(path, obj):
        write_json(path, obj)
        written.append((path, obj))

    monkeypatch.setattr(cli, "_write_json", recording)
    assert main([preset_config(name).mode, "--preset", name, "--out", str(tmp_path)]) == EXIT_OK
    assert sorted(path.name for path, _ in written) == sorted(
        p.name for p in tmp_path.glob("*.json")
    )
    for path, obj in written:
        assert path.read_text(encoding="utf-8") == jsonable_text(obj)


def test_json_numpy_scalars_equal_the_jsonable_oracle(tmp_path):
    from cahm.cli import _write_json

    obj = {
        "float32": np.float32(0.1),
        "float64": np.float64(1 / 3),
        "int64": np.int64(-(2**62)),
        "uint8": np.uint8(200),
        "bools": [np.bool_(True), np.bool_(False), True],
        "tuple": (np.float32(-0.0), np.int64(7)),
        "nested": {"b": np.float32(1e38), "a": [np.int64(1), {"x": np.bool_(True)}]},
        "dataclass": [
            cahm.TraceComparison(np.float64(0.5), 0.25, {"m=1": {"rms": np.float32(0.25)}},
                                 (0.0, np.float64(2.0))),
            cahm.OneSpinSpectrum(-1.0, np.float64(1.0), 0.5, 0.0),
        ],
    }
    _write_json(tmp_path / "a.json", obj)
    assert (tmp_path / "a.json").read_text(encoding="utf-8") == jsonable_text(obj)
    with pytest.raises(TypeError, match="complex128"):
        _write_json(tmp_path / "b.json", {"z": np.complex128(1j)})
    # JSON has no inf or NaN: each of these raises and writes no file.
    non_finite = [np.float32(np.inf), -math.inf, math.nan, cahm.OneSpinSpectrum(-math.inf, 0, 0, 0)]
    for value in non_finite:
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(tmp_path / "c.json", {"nested": [value]})
        assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("name", [*presets(), *preset_hashes.CONFIGS])
def test_json_artifacts_parse_without_non_finite_constants(tmp_path, name):
    def refuse(constant):
        raise AssertionError(f"{name} writes {constant}")

    argv = preset_hashes.run_argvs(tmp_path)[name]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK
    paths = sorted((tmp_path / "out").glob("*.json"))
    assert "manifest.json" in [p.name for p in paths]
    for path in paths:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


def test_fig3_top_run(tmp_path):
    assert main(["compare", "--preset", "fig3-top", "--out", str(tmp_path)]) == EXIT_OK
    header = (tmp_path / "target.csv").read_text().splitlines()[0]
    assert header == "t,m=1,m=0,m=-1"
    sim_header = (tmp_path / "simulator.csv").read_text().splitlines()[0]
    assert sim_header == "t,m=1,m=0,m=-1,leakage"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool"] == "cahm"
    assert manifest["preset"] == "fig3-top"
    assert manifest["parameters"]["simulator"]["v0"] == 32.0
    assert sorted(manifest["outputs"]) == ["comparison.json", "simulator.csv", "target.csv"]
    comparison = json.loads((tmp_path / "comparison.json").read_text())
    assert comparison["max_abs_dev"] <= 0.02


def test_fig4_manifest_records_parameters(tmp_path):
    assert main(["compare", "--preset", "fig4", "--out", str(tmp_path)]) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    params = manifest["parameters"]
    assert params["target"] == {"U": 0.064, "X": 0.067}
    sim = params["simulator"]
    assert (sim["omega"], sim["delta"], sim["v0"]) == (1.0, 15.0, 30.0)


def test_fig7_manifests_record_v2_modes(tmp_path):
    top, bottom = tmp_path / "top", tmp_path / "bottom"
    assert main(["compare", "--preset", "fig7-top", "--out", str(top)]) == EXIT_OK
    assert main(["compare", "--preset", "fig7-bottom", "--out", str(bottom)]) == EXIT_OK
    sim_top = json.loads((top / "manifest.json").read_text())["parameters"]["simulator"]
    assert sim_top["v2_override"] == -0.2
    assert sim_top["v2"] == -0.2
    assert abs(sim_top["v2_geometric"] - 0.1328) < 1e-3
    sim_bottom = json.loads((bottom / "manifest.json").read_text())["parameters"]["simulator"]
    assert "v2_override" not in sim_bottom
    assert abs(sim_bottom["v2"] - 0.1328) < 1e-3


def test_fig8_run(tmp_path):
    assert main(["compare", "--preset", "fig8", "--out", str(tmp_path)]) == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["parameters"]["rescale_k"] == 0.05464
    sim = manifest["parameters"]["simulator"]
    assert sim["rho"] == 0.326
    assert {"v1", "v2", "v3"} <= set(sim)
    comparison = json.loads((tmp_path / "comparison.json").read_text())
    assert comparison["max_abs_dev"] <= 0.1


def test_fig10_run(tmp_path):
    assert main(["trotter", "--preset", "fig10", "--out", str(tmp_path)]) == EXIT_OK
    counts = json.loads((tmp_path / "counts.json").read_text())
    assert counts["shots"] == 1000
    assert all(sum(entry["counts"].values()) == 1000 for entry in counts["per_time"])
    header = (tmp_path / "trotter.csv").read_text().splitlines()[0]
    assert header.startswith("t,m=1:exact,m=1:trotter,m=1:shots")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 2718
    assert manifest["parameters"]["dt"] == 0.1


def test_fig10_spin_columns_and_leakage_sum_to_one(tmp_path):
    assert main(["trotter", "--preset", "fig10", "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "trotter.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert len(rows) == 31
    for run in ("exact", "trotter", "shots"):
        parts = [header.index(f"{label}:{run}") for label in ("m=1", "m=0", "m=-1", "leakage")]
        assert np.max(np.abs(rows[:, parts].sum(axis=1) - 1.0)) <= 1e-9


def test_seed_flag_overrides_preset(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["trotter", "--preset", "fig10", "--out", str(out1), "--seed", "1"]) == EXIT_OK
    assert main(["trotter", "--preset", "fig10", "--out", str(out2)]) == EXIT_OK
    assert (out1 / "counts.json").read_bytes() != (out2 / "counts.json").read_bytes()
    assert json.loads((out1 / "manifest.json").read_text())["seed"] == 1


def test_negative_seed_exits_2_naming_its_source(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["trotter", "--preset", "fig10", "--seed", "-5", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: option --seed must be nonnegative, got -5\n"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -3, "target": {"kind": "one-spin", "U": 1.0, "X": 0.5}}))
    assert main(["spectrum", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: field config.seed must be nonnegative, got -3\n"
    assert not out.exists()


def test_error_paths(tmp_path):
    assert main(["compare", "--preset", "nope", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["evolve", "--preset", "fig3-top", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["compare", "--out", str(tmp_path)]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text('{"target": {"kind": "one-spin", "U": 1.0}}')
    assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_config_error_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"target": {"kind": "one-spin", "U": 1.0}}))
    code = main(["spectrum", "--config", str(bad), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "target.X" in err


def test_unreadable_config_exits_2_naming_the_flag(tmp_path, capsys):
    code = main(["spectrum", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b'{"target": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", b"\xff\xfe{}"],
    ids=["nested-100000-deep", "not-utf-8"],
)
def test_config_the_json_decoder_cannot_read_exits_2_naming_the_flag(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    code = main(["spectrum", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: option --config: cannot read {str(config)!r}: ")
    assert err.count("\n") == 1


def test_out_naming_a_file_exits_2_naming_the_flag(tmp_path, capsys):
    (tmp_path / "file").write_text("x")
    for out in (tmp_path / "file", tmp_path / "file" / "sub"):
        assert main(["compare", "--preset", "fig3-top", "--out", str(out)]) == EXIT_CONFIG
        assert "--out" in capsys.readouterr().err
    assert (tmp_path / "file").read_text() == "x"


def test_artifact_path_that_is_a_directory_exits_2_naming_the_flag(tmp_path, capsys):
    (tmp_path / "target.csv").mkdir()
    assert main(["compare", "--preset", "fig3-top", "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "--out" in err and "target.csv" in err
    assert not (tmp_path / "manifest.json").exists()


def test_rerun_cut_short_leaves_no_manifest(tmp_path, monkeypatch):
    from cahm import cli

    argv = ["compare", "--preset", "fig3-top", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    write_text = cli._write_text

    def disk_full_after_first_write(path, text):
        write_text(path, text)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_write_text", disk_full_after_first_write)
    with pytest.raises(OSError) as exc:
        main(argv)
    assert exc.value.errno == errno.ENOSPC
    assert (tmp_path / "target.csv").exists()
    assert not (tmp_path / "manifest.json").exists()


def test_spectrum_config_run(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mode": "spectrum", "target": {"kind": "one-spin", "U": 1.0, "X": 0.5}}))
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    out = json.loads((tmp_path / "spectrum.json").read_text())
    assert "eigenvalues" in out
    assert abs(out["eigenvalues"][0] - (1 - np.sqrt(3)) / 4) < 1e-12
    assert abs(out["analytic"]["eminus"] - 0.5) < 1e-15


def test_chain_spectrum_run(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "spectrum",
                "target": {"kind": "chain", "U": 1.0, "X": 0.3, "Y": 0.2, "m_max": 1, "n_links": 2},
            }
        )
    )
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    out = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(out["eigenvalues"]) == 9


def test_match_config_run(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(
        json.dumps({"mode": "match", "match": {"kind": "two-atom", "U": 1.0, "X": 0.5}})
    )
    assert main(["match", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "match_report.json").read_text())
    assert report["simulator_params"] == {"omega": -0.5, "delta": -0.5, "v0": 32.0}
    assert report["converged"] is True


def test_match_invalid_parameters_exit_code(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "match",
                "match": {"kind": "four-atom", "U": 1.0, "X": 1.2, "Y": 100.0, "v0": 64.0},
            }
        )
    )
    assert main(["match", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG


@pytest.mark.parametrize("y", [0.0, 0.2])
def test_six_atom_match_at_zero_omega_names_it(tmp_path, capsys, y):
    match = {**MATCH_CONFIGS["six-atom"], "Y": y, "omega": 0.0}
    assert _run_config(tmp_path, {"mode": "match", "match": match}) == EXIT_CONFIG
    assert "omega" in capsys.readouterr().err


def test_four_atom_match_at_y_equal_v0_names_both(tmp_path, capsys):
    match = {**MATCH_CONFIGS["four-atom"], "Y": 64.0}
    assert _run_config(tmp_path, {"mode": "match", "match": match}) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Y = 64.0" in err and "V0 = 64.0" in err


def test_match_numerical_failure_exit_code(tmp_path):
    cfg = tmp_path / "m.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "match",
                "match": {
                    "kind": "six-atom",
                    "U": 1.0,
                    "X": 0.0,
                    "Y": 400.0,
                    "omega": 1.0,
                    "delta": 15.0,
                    "v0": 30.0,
                },
            }
        )
    )
    assert main(["match", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_NUMERICAL


def test_evolve_simulator_run(tmp_path):
    cfg = tmp_path / "e.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "evolve",
                "simulator": {"kind": "two-atom", "omega": -0.5, "delta": -0.5, "v0": 32.0},
                "initial": "m=1",
                "times": {"start": 0.0, "stop": 5.0, "num": 51},
            }
        )
    )
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,m=1,m=0,m=-1,leakage"
    assert len(lines) == 52
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "geometry" in manifest["parameters"]
    assert manifest["parameters"]["geometry"]["omega"] == -0.5


def test_evolve_custom_simulator(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "mode": "evolve",
                "simulator": {
                    "kind": "custom",
                    "positions": [[0.0, 1.0], [0.0, 0.0]],
                    "scale": 32.0,
                    "omega": -0.5,
                    "delta": -0.5,
                    "delta0": 0.0,
                    "delta0_atoms": [],
                    "overrides": {},
                },
                "initial": "10",
                "times": {"start": 0.0, "stop": 2.0, "num": 21},
            }
        )
    )
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "t,00,01,10,11"
    bad = json.loads(cfg.read_text())
    bad["initial"] = "2"
    cfg.write_text(json.dumps(bad))
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_CONFIG


def _cli_in_fresh_process(*argv):
    """`python -m cahm.cli argv` in a new interpreter, with this checkout's cahm."""
    src = str(Path(cahm.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "cahm.cli", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize(
    "mode,name,preset_seed", [("trotter", "fig10", 2718), ("compare", "fig3-top", None)]
)
def test_seed_flag_does_not_leak_into_the_next_call(tmp_path, mode, name, preset_seed):
    seeded, unseeded, fresh = tmp_path / "seeded", tmp_path / "unseeded", tmp_path / "fresh"
    assert main([mode, "--preset", name, "--out", str(seeded), "--seed", "7"]) == EXIT_OK
    assert main([mode, "--preset", name, "--out", str(unseeded)]) == EXIT_OK
    assert json.loads((seeded / "manifest.json").read_text())["seed"] == 7
    assert json.loads((unseeded / "manifest.json").read_text())["seed"] == preset_seed
    assert _cli_in_fresh_process(mode, "--preset", name, "--out", str(fresh)).returncode == EXIT_OK
    files = sorted(p.name for p in fresh.iterdir())
    assert files == sorted(p.name for p in unseeded.iterdir())
    for file in files:
        assert (unseeded / file).read_bytes() == (fresh / file).read_bytes()


def test_bare_cahm_prints_help_and_exits_2_on_every_call(capsys):
    assert main([]) == EXIT_CONFIG
    first = capsys.readouterr()
    assert first.out.startswith("usage: cahm")
    assert main([]) == EXIT_CONFIG
    assert capsys.readouterr() == first


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--help"], EXIT_OK),
        (["compare", "--help"], EXIT_OK),
        (["compare", "--bogus"], EXIT_CONFIG),
        (["paint"], EXIT_CONFIG),
        (["trotter", "--seed", "x"], EXIT_CONFIG),
    ],
)
def test_argparse_exits_repeat_identically(capsys, argv, code):
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert (outputs[0].out if code == EXIT_OK else outputs[0].err).startswith("usage: cahm")


def test_module_entry_point_lists_presets():
    proc = _cli_in_fresh_process("compare", "--list-presets")
    assert proc.returncode == EXIT_OK
    assert "fig8" in proc.stdout


def test_console_entry_point(tmp_path):
    cahm = shutil.which("cahm")
    if cahm is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [cahm, "compare", "--list-presets"], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_OK
    assert "fig8" in proc.stdout


def test_run_rejects_unknown_mode(tmp_path):
    from cahm.cli import ExperimentConfig

    with pytest.raises(ConfigError):
        run(ExperimentConfig(mode="paint", payload={}, out_dir=tmp_path))


def test_preset_config_payload_is_copied():
    a = preset_config("fig3-top")
    a.payload["target"]["U"] = 99.0
    b = preset_config("fig3-top")
    assert b.payload["target"]["U"] == 1.0


FOUR_ATOM_COMPARE = {
    "mode": "compare",
    "target": {"kind": "two-spin", "U": 1.0, "X": 1.2, "Y": 0.2},
    "simulator": {"kind": "four-atom", "omega": -1.2, "delta": -0.6, "v0": 64.0, "v1": 0.2},
    "initial": "00",
    "times": {"start": 0.0, "stop": 1.0, "num": 11},
}


def _run_config(tmp_path, config):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return main([config["mode"], "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_four_atom_negative_v1_over_v0_names_field(tmp_path, capsys):
    config = json.loads(json.dumps(FOUR_ATOM_COMPARE))
    config["simulator"]["v1"] = -0.2
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert "simulator.v1" in capsys.readouterr().err


def _four_atom_compare(**spacing) -> dict:
    """FOUR_ATOM_COMPARE with the column spacing fields `spacing` in place of its v1."""
    config = json.loads(json.dumps(FOUR_ATOM_COMPARE))
    del config["simulator"]["v1"]
    config["simulator"].update(spacing)
    return config


@pytest.mark.parametrize(
    "spacing,message",
    [
        ({"rho": 0.5, "v1": 0.2},
         "fields payload.simulator.rho and payload.simulator.v1 both set the column spacing"),
        ({}, "missing field payload.simulator.v1"),
        ({"rho": None, "v1": None}, "missing field payload.simulator.v1"),
    ],
    ids=["both", "neither", "both-null"],
)
def test_four_atom_spacing_needs_exactly_one_field(tmp_path, capsys, spacing, message):
    assert _run_config(tmp_path, _four_atom_compare(**spacing)) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_compare_with_mismatched_spin_counts_names_both_kinds(tmp_path, capsys):
    one_spin = {"kind": "one-spin", "U": 1.0, "X": 0.5}
    two_atom = {"kind": "two-atom", "omega": -0.5, "delta": -0.5, "v0": 32.0}
    for config in (
        _with_field(_with_field(FOUR_ATOM_COMPARE, ("target",), one_spin), ("initial",), "m=1"),
        _with_field(FOUR_ATOM_COMPARE, ("simulator",), two_atom),
    ):
        assert _run_config(tmp_path, config) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "payload.target.kind" in err and "payload.simulator.kind" in err
        assert "initial" not in err


CHAIN_TARGET = {"kind": "chain", "U": 1.0, "X": 1.2, "Y": 0.2, "m_max": 1, "n_links": 2}


@pytest.mark.parametrize("mode", ["evolve", "compare"])
def test_chain_target_outside_spectrum_mode_names_the_kind(tmp_path, capsys, mode):
    config = _with_field(FOUR_ATOM_COMPARE, ("target",), CHAIN_TARGET)
    if mode == "evolve":
        del config["simulator"]
    config["mode"] = mode
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "payload.target.kind" in err and "spectrum mode only" in err
    assert "initial" not in err


@pytest.mark.parametrize(
    "target",
    [
        {"kind": "one-spin", "U": 1.0, "X": 0.5},
        {"kind": "two-spin", "U": 1.0, "X": 1.2, "Y": 0.2},
        CHAIN_TARGET,
        {**CHAIN_TARGET, "m_max": 2, "n_links": 3, "Y": 0.0},
        {**CHAIN_TARGET, "n_links": 4, "boundary": "periodic"},
    ],
    ids=["one-spin", "two-spin", "chain", "chain-y0", "chain-periodic"],
)
def test_spectrum_equals_the_full_matrix_spectrum(tmp_path, target):
    from cahm.cli import _build_target
    from cahm.numerics import eig_hermitian

    assert _run_config(tmp_path, {"mode": "spectrum", "target": target}) == EXIT_OK
    out = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    h = _build_target(target)[0]
    full = eig_hermitian(h).eigenvalues
    assert len(out["eigenvalues"]) == h.dim
    assert np.max(np.abs(np.array(out["eigenvalues"]) - full)) <= 1e-12 * np.linalg.norm(h.matrix)


@pytest.mark.parametrize(
    "target",
    [
        {"kind": "one-spin", "U": 1.1, "X": 0.7},
        {"kind": "two-spin", "U": 1.1, "X": 0.7, "Y": 0.3},
        {**CHAIN_TARGET, "m_max": 2, "n_links": 3},
        {**CHAIN_TARGET, "m_max": 2, "n_links": 3, "boundary": "periodic"},
    ],
    ids=["one-spin", "two-spin", "chain", "chain-periodic"],
)
def test_target_terms_are_the_builders_matrices(target):
    from cahm.cli import _build_target

    terms, _, c, _ = _build_target(target)
    builder = {
        "one-spin": lambda: cahm.build_h1t(c),
        "two-spin": lambda: cahm.build_h2t(c),
        "chain": lambda: cahm.build_chain_h(c, cahm.SpinTruncation(2), 3),
    }[target["kind"]]
    assert np.array_equal(terms.matrix, builder().matrix)


def test_seven_link_chain_spectrum_without_the_dense_matrix(tmp_path):
    from cahm.target_models import chain_terms

    target = {**CHAIN_TARGET, "X": 0.9, "Y": 0.3, "n_links": 7}
    tracemalloc.start()
    try:
        assert _run_config(tmp_path, {"mode": "spectrum", "target": target}) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    w = np.array(json.loads((tmp_path / "out" / "spectrum.json").read_text())["eigenvalues"])
    assert w.size == 2187
    terms = chain_terms(cahm.TargetCouplings(1.0, 0.9, 0.3), cahm.SPIN1, 7, end_terms=True)
    trace_h = terms.values[terms.rows == terms.cols].sum()
    frobenius_sq = np.sum(terms.values**2)
    assert abs(w.sum() - trace_h) <= 1e-10 * abs(trace_h)
    assert abs(np.sum(w**2) - frobenius_sq) <= 1e-10 * frobenius_sq
    # Less than one dense 2187 x 2187 float64 matrix.
    assert peak < 2187**2 * 8


def _record_checks(monkeypatch):
    """The dim of every SparseHermitian validated from now on, in order."""
    from cahm.numerics import SparseHermitian

    dims, post_init = [], SparseHermitian.__post_init__
    monkeypatch.setattr(
        SparseHermitian, "__post_init__", lambda op: dims.append(op.dim) or post_init(op)
    )
    return dims


def test_built_hamiltonians_are_validated_once(tmp_path, monkeypatch):
    """Chains and arrays are checked once, as their sparse terms: one check per build."""
    from cahm import rydberg_models, target_models

    builds = []
    for module, name in ((target_models, "chain_terms"), (rydberg_models, "build_rydberg_h")):
        build = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, build=build, **k: builds.append(build) or build(*a, **k)
        )
    checks = _record_checks(monkeypatch)
    for mode, preset in (("compare", "fig8"), ("trotter", "fig10")):
        assert main([mode, "--preset", preset, "--out", str(tmp_path / preset)]) == EXIT_OK
    custom = {
        "kind": "custom",
        "positions": [[0.0, 0.0], [0.0, 1.0], [1.3, 0.4]],
        "scale": 8.0,
        "omega": 1.0,
        "delta": 2.0,
    }
    config = {
        "mode": "evolve",
        "simulator": custom,
        "initial": "100",
        "times": {"start": 0.0, "stop": 2.0, "num": 21},
    }
    assert _run_config(tmp_path, config) == EXIT_OK
    assert {b.__name__ for b in builds} == {"chain_terms", "build_rydberg_h"}
    assert len(checks) == len(builds)


def test_spectrum_validates_its_sector_blocks(tmp_path, monkeypatch):
    checks = _record_checks(monkeypatch)
    config = {"mode": "spectrum", "target": {**CHAIN_TARGET, "n_links": 3}}
    assert _run_config(tmp_path, config) == EXIT_OK
    # The chain's terms, then one check per C/P sector block; the blocks tile the dim-27 space.
    assert checks[0] == 27
    assert len(checks) > 2
    assert sum(checks[1:]) == 27


OVERFLOWING_CONFIGS = {
    "spectrum": (
        {"mode": "spectrum", "target": {"kind": "two-spin", "U": 1e308, "X": 0.5, "Y": 1e308}},
        "couplings U = 1e+308 and Y = 1e+308",
    ),
    "evolve": (
        {
            "mode": "evolve",
            "simulator": {"kind": "two-atom", "omega": 1e308, "delta": -1e308, "v0": 1e308},
            "initial": "m=1",
            "times": {"start": 0.0, "stop": 1.0, "num": 3},
        },
        "delta = -1e+308, delta0 = 0.0 and the pair energies",
    ),
    "trotter": (
        {"mode": "trotter", "omega": 1e308, "delta": 1e308, "v0": 1e308, "t_max": 0.0, "shots": 10},
        "delta = 1e+308, delta0 = 0.0 and the pair energies",
    ),
}


@pytest.mark.parametrize("mode", list(OVERFLOWING_CONFIGS))
def test_overflowing_couplings_exit_2_naming_them(tmp_path, capsys, mode):
    config, fields = OVERFLOWING_CONFIGS[mode]
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert fields in err and "beyond the float range" in err


@pytest.mark.parametrize(
    "corruption", ["shifted eigenvalue", "nan eigenvalue", "negated and reversed"]
)
def test_corrupted_sector_eigenvalues_fail_closed(tmp_path, capsys, monkeypatch, corruption):
    mutate, _ = EIGENVALUE_MUTATIONS[corruption]
    monkeypatch.setattr(np.linalg, "eigvalsh", corrupting_eigvalsh(mutate))
    # Every sector of this chain has tr H != 0, so negating and reversing moves sum w.
    config = {"mode": "spectrum", "target": {**CHAIN_TARGET, "n_links": 3}}
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert "moment contract" in capsys.readouterr().err
    assert not (tmp_path / "out" / "spectrum.json").exists()


def test_spectrum_solves_for_eigenvalues_only(tmp_path, monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", lambda h: pytest.fail("eigh called"))
    config = {"mode": "spectrum", "target": {**CHAIN_TARGET, "n_links": 3}}
    assert _run_config(tmp_path, config) == EXIT_OK


def test_four_atom_zero_v0_names_field(tmp_path, capsys):
    config = json.loads(json.dumps(FOUR_ATOM_COMPARE))
    config["simulator"]["v0"] = 0.0
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert "simulator.v0" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["positions", "scale", "omega", "delta"])
def test_custom_simulator_missing_field_names_it(tmp_path, capsys, missing):
    simulator = {
        "kind": "custom",
        "positions": [[0.0, 1.0], [0.0, 0.0]],
        "scale": 32.0,
        "omega": -0.5,
        "delta": -0.5,
    }
    del simulator[missing]
    config = {
        "mode": "evolve",
        "simulator": simulator,
        "initial": "10",
        "times": {"start": 0.0, "stop": 1.0, "num": 11},
    }
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert f"simulator.{missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field,value",
    [
        ("delta0", "a"),
        ("overrides", {"0_1": 1.0}),
        ("overrides", {"0-1": "a"}),
        ("overrides", [1.0]),
        ("delta0_atoms", ["x"]),
        ("delta0_atoms", 1),
    ],
    ids=["delta0", "override-key", "override-value", "overrides-list", "atom", "atoms-int"],
)
def test_custom_simulator_bad_field_names_it(tmp_path, capsys, field, value):
    config = {
        "mode": "evolve",
        "simulator": {
            "kind": "custom",
            "positions": [[0.0, 1.0], [0.0, 0.0]],
            "scale": 32.0,
            "omega": -0.5,
            "delta": -0.5,
            field: value,
        },
        "initial": "10",
        "times": {"start": 0.0, "stop": 1.0, "num": 11},
    }
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert f"simulator.{field}" in capsys.readouterr().err


def test_custom_simulator_positions_capped_before_geometry(tmp_path, capsys, monkeypatch):
    from cahm.rydberg_models import AtomGeometry

    def unreachable(self):
        raise AssertionError("the geometry of an over-cap layout was built")

    monkeypatch.setattr(AtomGeometry, "__post_init__", unreachable)
    config = {
        "mode": "evolve",
        "simulator": {
            "kind": "custom",
            "positions": [[float(k), 0.0] for k in range(5000)],
            "scale": 32.0,
            "omega": -0.5,
            "delta": -0.5,
        },
        "initial": "0" * 5000,
        "times": {"start": 0.0, "stop": 1.0, "num": 11},
    }
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert "number of positions" in capsys.readouterr().err


# One config per match kind that sets each optional field.
MATCH_CONFIGS = {
    "two-atom": {"kind": "two-atom", "U": 1.0, "X": 0.5, "blockade_ratio": 64.0},
    "three-atom-newton": {
        "kind": "three-atom-newton",
        "U": 5.12169,
        "X": 0.07421,
        "unknowns": ["omega", "delta", "delta0"],
        "fixed": {"v0": 30.0},
        "guess": {"omega": 1.01, "delta": 14.9, "delta0": 2.56},
        "equations": [1, 2, 3],
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
        "rho_hint": 0.33,
        "include_middle_pair": True,
    },
}



SIX_ATOM_COMPARE = {
    "mode": "compare",
    "target": {"kind": "two-spin", "U": 1.0, "X": 1.2, "Y": 0.2},
    "simulator": {"kind": "six-atom", "omega": 1.0, "delta": 15.0, "v0": 30.0, "rho": 0.326},
    "initial": "00",
    "times": {"start": 0.0, "stop": 1.0, "num": 11},
}
CUSTOM_EVOLVE = {
    "mode": "evolve",
    "simulator": {
        "kind": "custom",
        "positions": [[0.0, 1.0], [0.0, 0.0]],
        "scale": 32.0,
        "omega": -0.5,
        "delta": -0.5,
    },
    "initial": "10",
    "times": {"start": 0.0, "stop": 1.0, "num": 11},
}


ONE_SPIN_EVOLVE = {
    "mode": "evolve",
    "target": {"kind": "one-spin", "U": 1.0, "X": 0.5},
    "initial": "m=1",
    "times": {"start": 0.0, "stop": 1.0, "num": 11},
}


# A time grid whose stop - start overflows to inf.
OVERFLOWING_SPAN = {"start": -1e308, "stop": 1e308, "num": 3}


def _with_field(config: dict, path: tuple, value) -> dict:
    out = json.loads(json.dumps(config))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@pytest.mark.parametrize(
    "config,path,value,name",
    [
        ({"mode": "match", "match": MATCH_CONFIGS["six-atom"]}, ("match", "rho_hint"), "a",
         "match.rho_hint"),
        ({"mode": "match", "match": MATCH_CONFIGS["six-atom"]}, ("match", "include_middle_pair"),
         1, "match.include_middle_pair"),
        ({"mode": "match", "match": MATCH_CONFIGS["two-atom"]}, ("match", "blockade_ratio"), "a",
         "match.blockade_ratio"),
        ({"mode": "match", "match": MATCH_CONFIGS["three-atom-newton"]}, ("match", "equations"),
         5, "match.equations"),
        ({"mode": "match", "match": MATCH_CONFIGS["three-atom-newton"]}, ("match", "guess"),
         [1, 2], "match.guess"),
        ({"mode": "match", "match": MATCH_CONFIGS["three-atom-newton"]},
         ("match", "fixed", "v0"), "a", "match.fixed.v0"),
        ({"mode": "match", "match": MATCH_CONFIGS["three-atom-newton"]}, ("match", "unknowns"),
         [["omega"]], "match.unknowns[0]"),
        (FOUR_ATOM_COMPARE, ("simulator", "v2_override"), [1], "simulator.v2_override"),
        (FOUR_ATOM_COMPARE, ("sim_times",), 5, "payload.sim_times"),
        (FOUR_ATOM_COMPARE, ("rescale_k",), "a", "payload.rescale_k"),
        (SIX_ATOM_COMPARE, ("simulator", "delta0"), "a", "simulator.delta0"),
        (SIX_ATOM_COMPARE, ("simulator", "include_middle_pair"), "no",
         "simulator.include_middle_pair"),
        (CUSTOM_EVOLVE, ("simulator", "positions"), [["a", 0.0], [0.0, 0.0]],
         "simulator.positions[0]"),
        (CUSTOM_EVOLVE, ("simulator", "positions"), [[0.0, 1.0, 2.0], [0.0, 0.0]],
         "simulator.positions[0]"),
        (CUSTOM_EVOLVE, ("simulator", "positions"), [[0.0, 1.0], 3.0],
         "simulator.positions[1]"),
        (CUSTOM_EVOLVE, ("simulator", "omega"), 10**400, "simulator.omega"),
        (CUSTOM_EVOLVE, ("times", "stop"), float("inf"), "payload.times.stop"),
        (CUSTOM_EVOLVE, ("times",), OVERFLOWING_SPAN,
         "field payload.times must have a finite stop - start, got inf"),
        (FOUR_ATOM_COMPARE, ("sim_times",), OVERFLOWING_SPAN,
         "field payload.sim_times must have a finite stop - start, got inf"),
        ({"mode": "trotter", "omega": -1.5, "delta": -0.5, "v0": 10.0, "t_max": 0.5, "shots": 10},
         ("shots",), 0, "shots must lie in 1..9223372036854775807, got 0 (set by payload.shots)"),
        (FOUR_ATOM_COMPARE, ("initial",), "x",
         "field payload.initial: 'x' is not one of ['00', 'S']"),
        (ONE_SPIN_EVOLVE, ("initial",), "x",
         "field payload.initial: 'x' is not one of ['m=1', 'm=0', 'm=-1']"),
        (CUSTOM_EVOLVE, ("initial",), "2",
         "field payload.initial: custom simulators take a bitstring of 2 atoms"),
        (CUSTOM_EVOLVE, ("simulator", "positions"), [],
         "(0,) (set by payload.simulator.positions)"),
        (CUSTOM_EVOLVE, ("simulator", "positions"), [[0.0, 1.0], [0.0, 1.0]],
         "atoms 0 and 1 coincide (set by payload.simulator.positions)"),
        (CUSTOM_EVOLVE, ("simulator", "positions"), [[0.0, 1e-60], [0.0, 0.0]],
         "pair distance 1e-60 gives an infinite interaction at scale 32.0 "
         "(set by payload.simulator.positions and payload.simulator.scale)"),
        (CUSTOM_EVOLVE, ("simulator", "delta0_atoms"), [5],
         "field payload.simulator.delta0_atoms: atom 5 outside 0..1"),
        (CUSTOM_EVOLVE, ("simulator", "overrides"), {"0-7": 1.0},
         "field payload.simulator.overrides: atom 7 outside 0..1"),
        (FOUR_ATOM_COMPARE, ("simulator",), {"kind": "four-atom", "omega": -1.2, "delta": -0.6,
                                             "v0": 64.0, "rho": 0.0},
         "field payload.simulator.rho must lie in (0, 1), got 0.0"),
        (FOUR_ATOM_COMPARE, ("simulator",), {"kind": "four-atom", "omega": -1.2, "delta": -0.6,
                                             "v0": 64.0, "rho": 1.5},
         "field payload.simulator.rho must lie in (0, 1), got 1.5"),
        (SIX_ATOM_COMPARE, ("simulator", "rho"), 0.0,
         "field payload.simulator.rho must lie in (0, 1), got 0.0"),
        (SIX_ATOM_COMPARE, ("simulator", "rho"), 1.5,
         "field payload.simulator.rho must lie in (0, 1), got 1.5"),
        ({"mode": "spectrum", "target": CHAIN_TARGET}, ("target", "m_max"), 0,
         "(set by payload.target.m_max)"),
        ({"mode": "spectrum", "target": CHAIN_TARGET}, ("target", "n_links"), 0,
         "field payload.target.n_links must be >= 1, got 0"),
        ({"mode": "spectrum", "target": CHAIN_TARGET}, ("target", "n_links"), 20,
         "n_links = 20 gives dimension 3**20, above the supported maximum 4096 "
         "(set by payload.target.m_max and payload.target.n_links)"),
        ({"mode": "spectrum", "target": CHAIN_TARGET}, ("target", "boundary"), "x",
         "(set by payload.target.boundary)"),
        ({"mode": "match", "match": MATCH_CONFIGS["two-atom"]}, ("match",),
         {"kind": "two-atom", "U": 1e308, "X": 1e308},
         "not JSON compliant: -inf (set by payload.match)"),
        ({"mode": "match", "match": MATCH_CONFIGS["four-atom"]}, ("match",),
         {"kind": "four-atom", "U": 1e308, "X": 1.0, "Y": 1e308, "v0": 1.7e308},
         "not JSON compliant: -inf (set by payload.match)"),
        ({"mode": "spectrum", "target": CHAIN_TARGET}, ("target",),
         {"kind": "one-spin", "U": 1e308, "X": 1e308},
         "not JSON compliant: -inf (set by payload.target)"),
        ({"mode": "trotter", "omega": 1, "delta": 1, "v0": 10, "t_max": 0, "shots": 10}, ("dt",),
         1e-320, "field payload.dt = 1e-320 puts 1/dt beyond the float range"),
        ({"mode": "trotter", "omega": 1, "delta": 1, "t_max": 1, "shots": 10}, ("v0",), 1e-310,
         "field payload.dt is required when the default step 1/|payload.v0| is not finite"),
    ],
    ids=[
        "rho_hint", "match-middle-pair", "blockade_ratio", "equations", "guess", "fixed",
        "unknowns", "v2_override", "sim_times", "rescale_k", "six-atom-delta0",
        "simulator-middle-pair", "position-entry", "position-ragged", "position-row",
        "huge-int", "infinite", "times-span", "sim-times-span", "shots", "compare-initial",
        "evolve-target-initial", "evolve-custom-initial", "no-positions", "coinciding-positions",
        "infinite-interaction",
        "delta0-atom-outside", "override-outside", "four-atom-rho-0", "four-atom-rho-1.5",
        "six-atom-rho-0", "six-atom-rho-1.5", "chain-m_max",
        "chain-n_links", "chain-dimension-cap", "chain-boundary", "match-two-atom-inf",
        "match-four-atom-inf",
        "spectrum-one-spin-inf", "trotter-tiny-dt", "trotter-tiny-v0",
    ],
)
def test_bad_field_value_names_it(tmp_path, capsys, config, path, value, name):
    assert _run_config(tmp_path, _with_field(config, path, value)) == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "config",
    [
        {**ONE_SPIN_EVOLVE, "simulator": {"kind": "two-atom", "omega": -0.5, "delta": -0.5,
                                          "v0": 32.0}},
        {k: v for k, v in ONE_SPIN_EVOLVE.items() if k != "target"},
    ],
    ids=["both", "neither"],
)
def test_evolve_takes_exactly_one_of_target_and_simulator(tmp_path, capsys, config):
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "payload.target" in err and "payload.simulator" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "config,name",
    [
        (_with_field(SIX_ATOM_COMPARE, ("simulator", "delta_0"), 0.4),
         "payload.simulator.delta_0"),
        (_with_field(preset_config("fig8").payload | {"mode": "compare"}, ("rescale",), 0.05),
         "payload.rescale"),
        (_with_field(FOUR_ATOM_COMPARE, ("simulator", "rho"), 0.5), "payload.simulator.rho"),
        (_with_field(FOUR_ATOM_COMPARE, ("target", "Z"), 0.1), "payload.target.Z"),
        (_with_field(FOUR_ATOM_COMPARE, ("times", "step"), 0.1), "payload.times.step"),
        (_with_field(FOUR_ATOM_COMPARE, ("sim_times",), {"start": 0.0, "stop": 1.0, "num": 11,
                                                         "end": 2.0}), "payload.sim_times.end"),
        (_with_field(ONE_SPIN_EVOLVE, ("target", "Y"), 0.2), "payload.target.Y"),
        (_with_field(ONE_SPIN_EVOLVE, ("rescale_k",), 1.0), "payload.rescale_k"),
        (_with_field(CUSTOM_EVOLVE, ("simulator", "mirror"), []), "payload.simulator.mirror"),
        (_with_field({"mode": "spectrum", "target": CHAIN_TARGET}, ("target", "m"), 1),
         "payload.target.m"),
        (_with_field({"mode": "spectrum", "target": CHAIN_TARGET}, ("initial",), "m=1"),
         "payload.initial"),
        (_with_field({"mode": "match", "match": MATCH_CONFIGS["four-atom"]}, ("match", "rho"),
                     0.3), "payload.match.rho"),
        (_with_field({"mode": "match", "match": MATCH_CONFIGS["two-atom"]}, ("match", "Y"), 0.2),
         "payload.match.Y"),
        (_with_field(preset_config("fig10").payload | {"mode": "trotter"}, ("seeds",), 1),
         "payload.seeds"),
    ],
    ids=[
        "six-atom-delta_0", "compare-rescale", "four-atom-rho-and-v1", "target", "times",
        "sim_times", "one-spin-target-Y", "evolve-rescale_k", "custom", "chain-target",
        "spectrum-payload", "match-four-atom", "match-two-atom-Y", "trotter-payload",
    ],
)
def test_unread_field_names_it(tmp_path, capsys, config, name):
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out" / "manifest.json").exists()


# Each config block's mode and field table, and a value of each type the tables read.
BLOCK_TABLES = {
    "target": ("spectrum", _TARGETS),
    "simulator": ("evolve", _SIMULATORS),
    "match": ("match", _MATCHES),
}
TYPE_EXAMPLES = {float: 1.0, int: 1, str: "x", bool: True, list: [], dict: {}}


def _required_fields_config(block: str, kind: str) -> dict:
    """A config whose `block` of `kind` gives each required field an example of its type."""
    mode, table = BLOCK_TABLES[block]
    spec = {"kind": kind}
    spec.update({k: TYPE_EXAMPLES[t] for k, t in table[kind].items() if not isinstance(t, tuple)})
    config = {"mode": mode, block: spec}
    if mode == "evolve":
        config.update(initial="0", times={"start": 0.0, "stop": 1.0, "num": 2})
    return config


@pytest.mark.parametrize(
    "block,kind,name",
    [
        (block, kind, name)
        for block, (_, table) in BLOCK_TABLES.items()
        for kind, fields in table.items()
        for name, rule in fields.items()
        if not isinstance(rule, tuple)
    ],
)
def test_a_block_without_a_required_field_names_it(tmp_path, capsys, block, kind, name):
    config = _required_fields_config(block, kind)
    del config[block][name]
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: missing field payload.{block}.{name}\n"


@pytest.mark.parametrize(
    "block,kind",
    [(block, kind) for block, (_, table) in BLOCK_TABLES.items() for kind in table],
)
def test_a_block_with_an_unread_field_names_it(tmp_path, capsys, block, kind):
    config = _with_field(_required_fields_config(block, kind), (block, "unread"), 1.0)
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: unknown field payload.{block}.unread; payload.{block} reads kind, "
    )


def _required_payload_config(mode: str) -> dict:
    """A `mode` config that gives each required payload field an example of its type."""
    table = _MODES[mode][1]
    config = {k: TYPE_EXAMPLES[t] for k, t in table.items() if not isinstance(t, tuple)}
    return {"mode": mode, **config}


def _kept_manifest(tmp_path) -> Path:
    """The manifest of an earlier run in the config's --out, which a payload fault keeps."""
    manifest = tmp_path / "out" / "manifest.json"
    manifest.parent.mkdir()
    manifest.write_text("{}\n")
    return manifest


@pytest.mark.parametrize(
    "mode,name",
    [
        (mode, name)
        for mode, (_, table) in _MODES.items()
        for name, rule in table.items()
        if not isinstance(rule, tuple)
    ],
)
def test_a_payload_without_a_required_field_names_it(tmp_path, capsys, mode, name):
    config = _required_payload_config(mode)
    del config[name]
    manifest = _kept_manifest(tmp_path)
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: missing field payload.{name}\n"
    assert manifest.read_text() == "{}\n"


@pytest.mark.parametrize("mode", list(_MODES))
def test_a_payload_with_an_unread_field_names_it(tmp_path, capsys, mode):
    config = {**_required_payload_config(mode), "unread": 1.0}
    manifest = _kept_manifest(tmp_path)
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: unknown field payload.unread; payload reads {', '.join(_MODES[mode][1])}\n"
    )
    assert manifest.read_text() == "{}\n"


def test_six_atom_match_with_an_overflowing_k_fit_names_its_fields(tmp_path, capsys):
    config = {"mode": "match", "match": {**MATCH_CONFIGS["six-atom"], "X": 1e308}}
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "K max|w| max|t| is not finite" in err
    assert "U = 1.0, X = 1e+308, Y = 0.2, omega = 1.0 and delta = 15.0" in err
    assert "Warning" not in err


@pytest.mark.parametrize(
    "path,value,message",
    [
        (("rescale_k",), -1.0, "rescale factor must be positive"),
        (("rescale_k",), 0.0, "rescale factor must be positive"),
        (("sim_times",), {"start": 200.0, "stop": 300.0, "num": 1001}, "overlaps 0 of the"),
        (("rescale_k",), 1e-6, "overlaps 1 of the"),
    ],
    ids=["negative-k", "zero-k", "sim-times-apart", "one-point-overlap"],
)
def test_compare_rescale_errors_name_their_fields(tmp_path, capsys, path, value, message):
    fig8 = preset_config("fig8").payload | {"mode": "compare"}
    assert _run_config(tmp_path, _with_field(fig8, path, value)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert message in err
    assert "(set by payload.rescale_k, payload.times and payload.sim_times)" in err
    assert not (tmp_path / "out" / "comparison.json").exists()


@pytest.mark.parametrize("hint", [0.01, 0.0, 1.5, -1.0])
def test_rho_hint_with_an_empty_bracket_names_it(tmp_path, capsys, hint):
    config = {"mode": "match", "match": MATCH_CONFIGS["six-atom"]}
    assert _run_config(tmp_path, _with_field(config, ("match", "rho_hint"), hint)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"rho_hint = {hint!r} leaves an empty rho bracket" in err


def test_rho_hint_bracket_without_the_minimum_is_a_numerical_failure(tmp_path, capsys):
    # [0.84, 0.98] is a valid bracket, but the tuned rho lies far below it.
    config = {"mode": "match", "match": MATCH_CONFIGS["six-atom"]}
    assert _run_config(tmp_path, _with_field(config, ("match", "rho_hint"), 1.2)) == EXIT_NUMERICAL
    assert "pinned at the bracket edge" in capsys.readouterr().err


def test_repeated_override_pair_names_the_field(tmp_path, capsys):
    overrides = {"0-1": 1.0, "1-0": 2.0}
    config = _with_field(CUSTOM_EVOLVE, ("simulator", "overrides"), overrides)
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "repeats the pair (0, 1)" in err and "simulator.overrides" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize(
    "config,path,value",
    [
        (CUSTOM_EVOLVE, ("times", "num"), MAX_TIMES + 1),
        (FOUR_ATOM_COMPARE, ("sim_times",), {"start": 0.0, "stop": 1.0, "num": 10**9}),
        (
            {"mode": "trotter", "omega": -1.5, "delta": -0.5, "v0": 10.0, "t_max": 3.0,
             "shots": 10},
            ("dt",),
            1e-9,
        ),
        (
            {"mode": "trotter", "omega": -1.5, "delta": -0.5, "v0": 10.0, "t_max": 1e300,
             "shots": 10},
            ("dt",),
            1e-300,
        ),
    ],
    ids=["times", "sim_times", "trotter-steps", "trotter-overflow"],
)
def test_time_points_capped_before_allocating(tmp_path, capsys, monkeypatch, config, path, value):
    def guarded(allocate):
        def call(*args, **kwargs):
            size = args[2] if allocate is np.linspace else args[0]
            assert size <= MAX_TIMES, f"asked for {size} time points"
            return allocate(*args, **kwargs)

        return call

    monkeypatch.setattr(np, "linspace", guarded(np.linspace))
    monkeypatch.setattr(np, "arange", guarded(np.arange))
    assert _run_config(tmp_path, _with_field(config, path, value)) == EXIT_CONFIG
    assert "time points" in capsys.readouterr().err


def test_far_apart_atoms_give_a_finite_hamiltonian(tmp_path):
    far = _with_field(CUSTOM_EVOLVE, ("simulator", "positions"), [[1e100, 0.0], [0.0, 0.0]])
    assert _run_config(tmp_path, far) == EXIT_OK
    thin = _with_field(SIX_ATOM_COMPARE, ("simulator", "rho"), 1e-80)
    assert _run_config(tmp_path, thin) == EXIT_OK


@pytest.mark.parametrize(
    "config",
    [
        {"mode": "trotter", "omega": 1e308, "delta": -0.5, "v0": 10.0, "dt": 0.1, "t_max": 3.0,
         "shots": 10},
        {
            "mode": "spectrum",
            "target": {"kind": "chain", "U": 1e308, "X": 1e308, "Y": 0.2, "m_max": 1, "n_links": 2},
        },
    ],
    ids=["trotter-omega", "chain-u-x"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_hamiltonian_fails_closed(tmp_path, config):
    assert _run_config(tmp_path, config) in (EXIT_CONFIG, EXIT_NUMERICAL)
    written = [p for p in (tmp_path / "out").rglob("*") if p.is_file()]
    assert all("NaN" not in p.read_text() for p in written)


def test_overflowing_trotter_prints_only_the_config_error(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mode": "trotter", "omega": 1e308, "delta": -0.5, "v0": 10.0,
                               "dt": 0.1, "t_max": 3.0, "shots": 10}))
    proc = _cli_in_fresh_process("trotter", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("config error: phases exp(-i w t) overflow")
    assert proc.stderr.count("\n") == 1


TROTTER_FIELDS = "payload.omega, payload.delta, payload.v0, payload.dt and payload.t_max"
OVERFLOW_TIMES = {"start": 0.0, "stop": 100.0, "num": 11}


@pytest.mark.parametrize(
    "config,message,fields",
    [
        ({"mode": "trotter", "omega": 1e300, "delta": 1.0, "v0": 1.0, "dt": 1e10, "t_max": 0.0,
          "shots": 10}, "gate angle must be finite", TROTTER_FIELDS),
        ({"mode": "trotter", "omega": 1.0, "delta": 1e307, "v0": 1.0, "dt": 100.0, "t_max": 100.0,
          "shots": 10}, "phases exp(-i w t) overflow", TROTTER_FIELDS),
        ({"mode": "evolve", "initial": "m=1", "times": OVERFLOW_TIMES,
          "simulator": {"kind": "two-atom", "omega": -0.5, "delta": 1e307, "v0": 32.0}},
         "phases exp(-i w t) overflow", "payload.times and payload.simulator"),
        ({"mode": "evolve", "initial": "m=1", "times": OVERFLOW_TIMES,
          "target": {"kind": "one-spin", "U": 1e307, "X": 0.5}},
         "phases exp(-i w t) overflow", "payload.times and payload.target"),
        (_with_field(_with_field(CUSTOM_EVOLVE, ("simulator", "delta"), 1e307), ("times",),
                     OVERFLOW_TIMES), "phases exp(-i w t) overflow",
         "payload.times and payload.simulator"),
        ({**_with_field(SIX_ATOM_COMPARE, ("simulator", "delta"), 1e306),
          "sim_times": OVERFLOW_TIMES},
         "phases exp(-i w t) overflow", "payload.sim_times and payload.simulator"),
    ],
    ids=["trotter-angle", "trotter-phases", "evolve-two-atom", "evolve-one-spin", "evolve-custom",
         "compare-sim-times"],
)
def test_overflowing_propagation_names_its_fields(tmp_path, capsys, config, message, fields):
    assert _run_config(tmp_path, config) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}")
    assert err.rstrip("\n").endswith(f"(set by {fields})")
    assert err.count("\n") == 1


TROTTER_WITHOUT_DT = {"mode": "trotter", "omega": -1.5, "delta": -0.5, "v0": 10.0, "t_max": 0.5,
                      "shots": 10}
TWO_ATOM_EVOLVE = {
    "mode": "evolve",
    "simulator": {"kind": "two-atom", "omega": -0.5, "delta": -0.5, "v0": 32.0},
    "initial": "m=1",
    "times": {"start": 0.0, "stop": 1.0, "num": 11},
}


@pytest.mark.parametrize(
    "config,path,outputs",
    [
        (CUSTOM_EVOLVE, ("simulator", "delta0"), ["trace.csv"]),
        (CUSTOM_EVOLVE, ("simulator", "delta0_atoms"), ["trace.csv"]),
        (CUSTOM_EVOLVE, ("simulator", "overrides"), ["trace.csv"]),
        (SIX_ATOM_COMPARE, ("simulator", "delta0"), ["simulator.csv"]),
        (SIX_ATOM_COMPARE, ("simulator", "include_middle_pair"), ["simulator.csv"]),
        (FOUR_ATOM_COMPARE, ("simulator", "rho"), ["simulator.csv"]),
        (_four_atom_compare(rho=0.5), ("simulator", "v1"), ["simulator.csv"]),
        (TROTTER_WITHOUT_DT, ("dt",), ["trotter.csv", "counts.json", "manifest.json"]),
        (TWO_ATOM_EVOLVE, ("target",), ["trace.csv", "manifest.json"]),
    ],
    ids=["custom-delta0", "custom-atoms", "custom-overrides", "six-delta0", "six-middle-pair",
         "four-rho", "four-v1", "trotter-dt", "evolve-target"],
)
def test_null_optional_field_reads_as_absent(tmp_path, config, path, outputs):
    absent, null = tmp_path / "absent", tmp_path / "null"
    absent.mkdir()
    null.mkdir()
    assert _run_config(absent, config) == EXIT_OK
    assert _run_config(null, _with_field(config, path, None)) == EXIT_OK
    for output in outputs:
        assert (null / "out" / output).read_bytes() == (absent / "out" / output).read_bytes()


def test_custom_evolve_matches_the_complete_basis_trace(tmp_path):
    from cahm.evolution import complete_basis_finals, trace
    from cahm.rydberg_models import AtomGeometry, RydbergParams, build_rydberg_h

    rng = np.random.default_rng(8)
    simulator = {
        "kind": "custom",
        "positions": rng.uniform(0.0, 3.0, size=(8, 2)).tolist(),
        "scale": 20.0,
        "omega": 1.0,
        "delta": 0.7,
        "delta0": 1.3,
        "delta0_atoms": [1, 6],
        "overrides": {"0-7": -0.4, "5-2": 0.9},
    }
    config = {
        "mode": "evolve",
        "simulator": simulator,
        "initial": "10010010",
        "times": {"start": 0.0, "stop": 4.0, "num": 41},
    }
    assert _run_config(tmp_path, config) == EXIT_OK
    geom = AtomGeometry(simulator["positions"], 20.0)
    params = RydbergParams(
        omega=1.0,
        delta=0.7,
        delta0=1.3,
        delta0_atoms=(1, 6),
        pair_overrides={(0, 7): -0.4, (5, 2): 0.9},
    )
    psi0 = StateVector.basis(256, 0b10010010)
    expected = trace(
        build_rydberg_h(geom, params), psi0, complete_basis_finals(256), np.linspace(0.0, 4.0, 41)
    )
    assert (tmp_path / "out" / "trace.csv").read_text() == expected.to_csv_text()



COMPARE_PRESETS = [name for name in EXPECTED_PRESETS if preset_config(name).mode == "compare"]


@pytest.mark.parametrize("name", [*COMPARE_PRESETS, "six-atom-no-middle-pair"])
def test_manifest_geometry_round_trips_through_custom_evolve(tmp_path, name):
    from cahm.cli import _build_simulator
    from cahm.evolution import complete_basis_finals, trace
    from cahm.numerics import bitstring_labels

    if name in COMPARE_PRESETS:
        payload = preset_config(name).payload
        assert main(["compare", "--preset", name, "--out", str(tmp_path / "out")]) == EXIT_OK
    else:
        payload = _with_field(SIX_ATOM_COMPARE, ("simulator", "include_middle_pair"), False)
        assert _run_config(tmp_path, payload) == EXIT_OK
    geometry = json.loads((tmp_path / "out" / "manifest.json").read_text())["parameters"]["geometry"]
    if name == "six-atom-no-middle-pair":
        assert geometry["overrides"] == {"1-4": 0.0}

    # Evolve the encoded m = 1 (or (1, 1)) state of the preset's own array.
    system = _build_simulator(payload["simulator"])[0]
    start = system.spin_map.indices[0]
    dim = 1 << system.geometry.n_atoms
    evolve = {
        "mode": "evolve",
        "simulator": {"kind": "custom", **geometry},
        "initial": bitstring_labels(dim)[start],
        "times": {"start": 0.0, "stop": 2.0, "num": 21},
    }
    round_trip = tmp_path / "round-trip"
    round_trip.mkdir()
    assert _run_config(round_trip, evolve) == EXIT_OK
    manifest = json.loads((round_trip / "out" / "manifest.json").read_text())
    assert manifest["parameters"]["geometry"] == geometry
    expected = trace(
        system.hamiltonian(),
        StateVector.basis(dim, start),
        complete_basis_finals(dim),
        np.linspace(0.0, 2.0, 21),
    )
    assert (round_trip / "out" / "trace.csv").read_bytes() == expected.to_csv_text().encode()


BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_verbatim_figures_ops_match_the_recorded_reference(tmp_path, monkeypatch):
    # The benchmark's seven presets, five match kinds and two spectra, checked
    # against bench/reference/figures.json as the benchmark run checks them.
    monkeypatch.syspath_prepend(str(BENCH))
    import checks
    import workloads

    reference = json.loads((BENCH / "reference" / "figures.json").read_text(encoding="utf-8"))
    ops, _ = workloads.generate("figures", 0)
    verbatim = [spec for spec in ops if spec.check == "reference"]
    assert sorted(spec.name for spec in verbatim) == sorted(reference)
    failures = {}
    for op in workloads.materialize(verbatim, tmp_path):
        code = main(list(op.argv))
        if code != EXIT_OK:
            failures[op.spec.name] = f"exit code {code}"
        elif bad := checks.check_reference(op.out_dir, reference[op.spec.name]):
            failures[op.spec.name] = bad
    assert failures == {}
