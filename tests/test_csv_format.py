"""EvolutionTrace.to_csv_text against the per-value oracle: row-block edges,
wide and narrow tables, every preset's CSVs, and the peak memory of formatting."""

import tracemalloc

import numpy as np
import pytest

from cahm import EvolutionTrace
from cahm.cli import EXIT_OK, main, preset_config, presets
from cahm.evolution import _CSV_BLOCK_VALUES

from helpers import per_value_csv_text

# Probabilities at the edges of the series range and of %g's notation switch.
EDGE_VALUES = (
    0.0,
    -0.0,
    5e-324,
    1e-4,
    9.99999999999e-5,
    1.0 - 2.0**-53,
    1.0,
    -1e-12,
    1.0 + 1e-9,
)


def assert_same_csv(text, expected):
    """Equality that reports the first differing line, not a diff of the whole text."""
    if text != expected:
        got, want = text.split("\n"), expected.split("\n")
        for k, (a, b) in enumerate(zip(got, want)):
            if a != b:
                pytest.fail(f"line {k} differs: {a!r} != {b!r}")
        pytest.fail(f"{len(got)} lines != {len(want)} lines")


def random_trace(rng, n_rows, n_series):
    times = np.sort(rng.uniform(0.0, 50.0, n_rows))
    times[-2:] = 1e12, 1e13
    series = {}
    for i in range(n_series):
        values = rng.uniform(0.0, 1.0, n_rows)
        picks = rng.random(n_rows) < 0.2
        values[picks] = rng.choice(EDGE_VALUES, int(picks.sum()))
        series[f"s{i}"] = values
    return EvolutionTrace(times, series)


@pytest.mark.parametrize("edge", [-1, 0, 1])
@pytest.mark.parametrize("n_series", [0, 1, 4096])
def test_csv_rows_across_block_edges_equal_the_oracle(n_series, edge):
    n_rows = _CSV_BLOCK_VALUES // (n_series + 1) + edge
    tr = random_trace(np.random.default_rng(n_series), n_rows, n_series)
    text = tr.to_csv_text()
    assert_same_csv(text, per_value_csv_text(tr))
    assert text.count("\n") == n_rows + 1


@pytest.mark.parametrize("name", presets())
def test_preset_csvs_equal_the_oracle(tmp_path, monkeypatch, name):
    written = []
    to_csv_text = EvolutionTrace.to_csv_text

    def recording(self):
        text = to_csv_text(self)
        written.append((self, text))
        return text

    monkeypatch.setattr(EvolutionTrace, "to_csv_text", recording)
    assert main([preset_config(name).mode, "--preset", name, "--out", str(tmp_path)]) == EXIT_OK
    files = sorted(p.read_text(encoding="utf-8") for p in tmp_path.glob("*.csv"))
    assert files and len(files) == len(written)
    for file, text in zip(files, sorted(text for _, text in written)):
        assert_same_csv(file, text)
    for tr, text in written:
        assert_same_csv(text, per_value_csv_text(tr))


def test_csv_formatting_peak_memory():
    # 101 times x 4096 series: formatting holds the row strings and the joined
    # text, plus one block of Python floats.
    tr = random_trace(np.random.default_rng(0), 101, 4096)
    tracemalloc.start()
    try:
        text = tr.to_csv_text()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * len(text)
