"""Derandomized property test: the row-template CSV of any valid trace is
byte-identical to the per-value `str.format` oracle."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # an optional test dependency
from hypothesis import given, settings
from hypothesis import strategies as st

from cahm import EvolutionTrace

from helpers import per_value_csv_text
from test_csv_format import EDGE_VALUES, assert_same_csv

VALUES = st.one_of(
    st.floats(-1e-12, 1.0 + 1e-9, allow_nan=False),
    st.sampled_from(EDGE_VALUES),
)
TIMES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from((0.0, -0.0, 1e-4, 9.99999999999e-5, 1e12, 1e13)),
)


@st.composite
def traces(draw):
    n_rows = draw(st.integers(1, 30), label="rows")
    n_series = draw(st.integers(0, 5), label="series")
    times = np.sort(draw(st.lists(TIMES, min_size=n_rows, max_size=n_rows), label="times"))
    series = {
        f"s{i}": draw(st.lists(VALUES, min_size=n_rows, max_size=n_rows), label=f"s{i}")
        for i in range(n_series)
    }
    return EvolutionTrace(times, series)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(tr=traces())
def test_csv_text_equals_the_per_value_oracle(tr):
    assert_same_csv(tr.to_csv_text(), per_value_csv_text(tr))
