"""Eigenvalues-only `eig_hermitian` agrees with the full decomposition.

The moment contract of `eigvals_only` checks sum w and sum w^2, not each
eigenvalue, so the eigenvalues of the full path, whose residual checks every
eigenpair, are the oracle: on random real and complex Hermitian matrices and
on every symmetry sector of the benchmark's chains, the two agree within
1e-12 ||H||_F.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # an optional test dependency
from hypothesis import given, settings
from hypothesis import strategies as st

from cahm import eig_hermitian
from cahm.cli import _build_target
from cahm.numerics import symmetry_sectors
from cahm.target_models import chain_symmetries

from helpers import random_hermitian, sparse_from_dense

# The `chain-spectrum` rungs (m_max, n_links), at its X/U and Y/U; the first rung runs at Y = 0 only.
CHAIN_RUNGS = ((1, 4), (1, 5), (2, 3), (2, 4), (3, 3))
CHAINS = [
    (m_max, n_links, y)
    for rung, (m_max, n_links) in enumerate(CHAIN_RUNGS)
    for y in ((0.3, 0.0) if rung else (0.0,))
]


def _eigenvalue_gap(op) -> float:
    """max|w - w_full| / ||H||_F between the eigenvalues-only and the full path."""
    only = eig_hermitian(op, eigvals_only=True).eigenvalues
    full = eig_hermitian(op).eigenvalues
    return float(np.max(np.abs(only - full))) / np.linalg.norm(op.matrix)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(dim=st.integers(1, 64), complex_entries=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_eigenvalues_only_agree_with_the_full_path(dim, complex_entries, seed):
    h = random_hermitian(np.random.default_rng(seed), dim)
    assert _eigenvalue_gap(sparse_from_dense(h if complex_entries else h.real)) <= 1e-12


@pytest.mark.parametrize("m_max, n_links, y", CHAINS)
def test_benchmark_chain_sectors_agree_with_the_full_path(m_max, n_links, y):
    target = {"kind": "chain", "U": 1.0, "X": 0.9, "Y": y, "m_max": m_max, "n_links": n_links}
    terms, chain, _, _ = _build_target(target)
    for block in symmetry_sectors(terms, chain_symmetries(*chain)):
        assert _eigenvalue_gap(block) <= 1e-12
