"""Derandomized fuzz test of the CLI: one field of a valid payload replaced by
an arbitrary JSON value must give an exit code, never an uncaught exception."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")  # an optional test dependency
from hypothesis import given, settings
from hypothesis import strategies as st

from cahm.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, preset_config, presets

from test_cli import MATCH_CONFIGS, _run_config, _with_field

# Examples per payload; a few seconds in all, so the suite stays fast.
FUZZ_EXAMPLES = 20

# Payloads perturbed besides every preset and MATCH_CONFIGS: spectrum and evolve
# configs, the custom one setting each optional layout field.
OTHER_CONFIGS = {
    "spectrum-one-spin": {"mode": "spectrum", "target": {"kind": "one-spin", "U": 1.0, "X": 0.5}},
    "spectrum-chain": {
        "mode": "spectrum",
        "target": {
            "kind": "chain",
            "U": 1.0,
            "X": 0.3,
            "Y": 0.2,
            "m_max": 1,
            "n_links": 2,
            "boundary": "open",
        },
    },
    "evolve-two-spin": {
        "mode": "evolve",
        "target": {"kind": "two-spin", "U": 1.0, "X": 1.2, "Y": 0.2},
        "initial": "00",
        "times": {"start": 0.0, "stop": 1.0, "num": 11},
    },
    "evolve-custom": {
        "mode": "evolve",
        "simulator": {
            "kind": "custom",
            "positions": [[0.0, 1.0], [0.0, 0.0], [1.5, 0.5]],
            "scale": 32.0,
            "omega": -0.5,
            "delta": -0.5,
            "delta0": 0.3,
            "delta0_atoms": [1],
            "overrides": {"0-2": 0.1},
        },
        "initial": "100",
        "times": {"start": 0.0, "stop": 1.0, "num": 11},
    },
}


def _fuzz_configs() -> dict:
    configs = {}
    for name in presets():
        cfg = preset_config(name)
        seed = {} if cfg.seed is None else {"seed": cfg.seed}
        configs[name] = {"mode": cfg.mode, **cfg.payload, **seed}
    for kind, spec in MATCH_CONFIGS.items():
        configs[f"match-{kind}"] = {"mode": "match", "match": spec}
    configs.update(OTHER_CONFIGS)
    return configs


def _field_paths(obj: dict, prefix=()):
    for key, value in obj.items():
        if key == "mode":
            continue
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@pytest.mark.parametrize("name", list(_fuzz_configs()))
@settings(max_examples=FUZZ_EXAMPLES, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_any_one_bad_field_exits_with_a_code(name, data):
    config = _fuzz_configs()[name]
    path = data.draw(st.sampled_from(sorted(_field_paths(config))), label="field")
    config = _with_field(config, path, data.draw(JSON_VALUES, label="value"))
    with tempfile.TemporaryDirectory() as work:
        code = _run_config(Path(work), config)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
