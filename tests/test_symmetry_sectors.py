"""Symmetry sectors: blocks of H under commuting involutive index permutations."""

from dataclasses import replace

import numpy as np
import pytest

from cahm import AtomGeometry, ContractViolationError, SparseHermitian, StateVector, eig_hermitian
from cahm.numerics import symmetry_sectors
from cahm.rydberg_models import atom_permutation, six_atom_system
from cahm.target_models import (
    SPIN1,
    SpinTruncation,
    TargetCouplings,
    build_chain_h,
    chain_symmetries,
)

from helpers import (
    accumulated_sector_blocks,
    dense_sector_bases,
    preset_systems,
    random_hermitian,
    sparse_from_dense,
)

# Every (m_max, n_links) whose chain has dim <= 729.
CHAIN_SIZES = [(m, n) for m in range(1, 6) for n in range(1, 7) if (2 * m + 1) ** n <= 729]


@pytest.mark.parametrize("m_max,n_links", CHAIN_SIZES)
def test_merged_sector_spectrum_equals_the_full_spectrum(m_max, n_links):
    rng = np.random.default_rng(10 * m_max + n_links)
    trunc = SpinTruncation(m_max)
    symmetries = chain_symmetries(trunc, n_links)
    u, x, y = rng.uniform(0.5, 1.5), rng.uniform(-1.5, 1.5), rng.uniform(-1.0, 1.0)
    # At Y = 0 the open and the periodic chain are one Hamiltonian.
    for couplings in (
        TargetCouplings(u, x, 0.0),
        TargetCouplings(u, x, y, "open"),
        TargetCouplings(u, x, y, "periodic"),
    ):
        op = build_chain_h(couplings, trunc, n_links)
        full = eig_hermitian(op).eigenvalues
        blocks = symmetry_sectors(op, symmetries)
        merged = np.sort(np.concatenate([eig_hermitian(b).eigenvalues for b in blocks]))
        assert merged.shape == full.shape
        assert np.max(np.abs(merged - full)) <= 1e-12 * np.linalg.norm(op.matrix)


@pytest.mark.parametrize("name,system", list(preset_systems().items()))
def test_array_mirror_sectors_merge_to_the_full_spectrum(name, system):
    op = system.hamiltonian()
    blocks = symmetry_sectors(op, [atom_permutation(system.mirror)])
    assert len(blocks) == 2
    merged = np.sort(np.concatenate([eig_hermitian(b).eigenvalues for b in blocks]))
    full = eig_hermitian(op).eigenvalues
    assert merged.shape == full.shape
    assert np.max(np.abs(merged - full)) <= 1e-12 * np.linalg.norm(op.matrix)


def test_a_sector_without_stored_entries_is_a_zero_block():
    # Only H[2, 2] is stored; the odd sector of the swap 0 <-> 1 reads none of it.
    op = SparseHermitian(3, np.array([2]), np.array([2]), np.array([1.0]))
    even, odd = symmetry_sectors(op, [np.array([1, 0, 2])])
    assert np.array_equal(even.matrix, [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(odd.matrix, [[0.0]])


def test_a_jittered_ladder_has_no_mirror_sectors():
    system = six_atom_system(1.0, 15.0, 30.0, 0.326)
    geom = system.geometry
    jitter = np.random.default_rng(9).normal(scale=1e-3, size=geom.positions.shape)
    positions = geom.positions + jitter
    jittered = replace(system, geometry=AtomGeometry(positions, geom.interaction_scale))
    with pytest.raises(ContractViolationError, match="does not commute"):
        symmetry_sectors(jittered.hamiltonian(), [atom_permutation(system.mirror)])


def _symmetrized(h, symmetries):
    """The average of g H g over the group the symmetries generate."""
    for g in symmetries:
        h = 0.5 * (h + h[np.ix_(g, g)])
    return h


def _oracle_cases():
    for m_max, n_links, boundary, y in [
        (1, 1, "open", 0.2),
        (1, 3, "open", 0.4),
        (1, 4, "open", 0.0),
        (2, 3, "periodic", 0.3),
    ]:
        trunc = SpinTruncation(m_max)
        c = TargetCouplings(1.1, 0.8, y, boundary)
        yield build_chain_h(c, trunc, n_links).matrix, chain_symmetries(trunc, n_links)
    # Complex Hermitian matrices on b = 4 i + j, averaged over i -> 2 - i (which fixes
    # i = 1) and j -> 3 - j, separately and together.
    rng = np.random.default_rng(29)
    i, j = np.divmod(np.arange(12), 4)
    flip_i, flip_j = 4 * (2 - i) + j, 4 * i + (3 - j)
    for symmetries in [(flip_i,), (flip_i, flip_j), (flip_j, flip_i)]:
        yield _symmetrized(random_hermitian(rng, 12), symmetries), symmetries


@pytest.mark.parametrize("case", range(7))
def test_blocks_equal_the_dense_change_of_basis(case):
    h, symmetries = list(_oracle_cases())[case]
    blocks = symmetry_sectors(sparse_from_dense(h), symmetries)
    bases = dense_sector_bases(h.shape[0], symmetries)
    assert [b.dim for b in blocks] == [q.shape[1] for q in bases]
    q = np.hstack(bases)
    assert q.shape == h.shape
    assert np.max(np.abs(q.T @ q - np.eye(h.shape[0]))) <= 1e-14
    rotated = q.T @ h @ q
    expected = np.zeros_like(rotated)
    start = 0
    for block in blocks:
        stop = start + block.dim
        expected[start:stop, start:stop] = block.matrix
        start = stop
    assert np.max(np.abs(rotated - expected)) <= 1e-13 * np.max(np.abs(h))


def _bitwise_cases():
    # Every chain of m_max 1-3 up to the `chain-spectrum` benchmark's largest, dim 625:
    # open at its X/U and Y/U and at Y = 0, and periodic.
    for m_max, max_links in ((1, 5), (2, 4), (3, 3)):
        trunc = SpinTruncation(m_max)
        for n_links in range(1, max_links + 1):
            symmetries = chain_symmetries(trunc, n_links)
            for y in (0.3, 0.0):
                op = build_chain_h(TargetCouplings(1.0, 0.9, y), trunc, n_links)
                yield f"chain-m{m_max}-n{n_links}-y{y}", op, symmetries
            op = build_chain_h(TargetCouplings(1.0, 0.9, 0.3, "periodic"), trunc, n_links)
            yield f"chain-m{m_max}-n{n_links}-y0.3-periodic", op, symmetries
    for name, system in preset_systems().items():
        yield name, system.hamiltonian(), [atom_permutation(system.mirror)]
    # Generic entries, whose sums and quotients round differently in another order or form.
    for k, (h, symmetries) in enumerate(_oracle_cases()):
        yield f"oracle-{k}", sparse_from_dense(h), symmetries
        if np.iscomplexobj(h):
            yield f"oracle-{k}-real", sparse_from_dense(h.real), symmetries


BITWISE_CASES = {name: (op, symmetries) for name, op, symmetries in _bitwise_cases()}


@pytest.mark.parametrize("name", list(BITWISE_CASES))
def test_blocks_are_the_dense_accumulation_bit_for_bit(name):
    """Each block's matrix is the dense element-by-element sum, to the last bit.

    The reference sums chi(g) H[r_a, g r_b] into a zero block over the group
    elements in order, from the full matrix, so it also adds the zeros of
    unstored entries; those leave every sum unchanged.  Each block stores
    its diagonal and every entry that a stored entry of H reaches, in order.
    """
    op, symmetries = BITWISE_CASES[name]
    h = op.matrix
    stored = np.zeros(h.shape, dtype=bool)
    stored[op.rows, op.cols] = True
    blocks = symmetry_sectors(op, symmetries)
    expected = accumulated_sector_blocks(h, symmetries, stored)
    assert len(blocks) == len(expected)
    for block, (want, pattern) in zip(blocks, expected):
        assert block.matrix.dtype == want.dtype
        assert block.matrix.tobytes() == want.tobytes()
        rows, cols = np.nonzero(pattern)
        assert np.array_equal(block.rows, rows) and np.array_equal(block.cols, cols)
    # The reference itself is the change of basis to the sector bases.
    q = np.hstack(dense_sector_bases(op.dim, symmetries))
    rotated = q.T @ h @ q
    start = 0
    for want, _ in expected:
        stop = start + want.shape[0]
        assert np.max(np.abs(rotated[start:stop, start:stop] - want)) <= 1e-13 * np.max(np.abs(h))
        start = stop


def test_real_input_gives_real_blocks():
    op = sparse_from_dense(build_chain_h(TargetCouplings(1.0, 0.7, 0.3), SPIN1, 3).matrix)
    assert all(b.matrix.dtype == np.float64 for b in symmetry_sectors(op, chain_symmetries(SPIN1, 3)))


def _chain_matrix():
    return build_chain_h(TargetCouplings(1.0, 0.7, 0.3), SPIN1, 2).matrix


def _chain_op():
    return sparse_from_dense(_chain_matrix())


@pytest.mark.parametrize(
    "symmetries,message",
    [
        ([np.array([0, 0, 2, 3, 4, 5, 6, 7, 8])], "not a permutation"),
        ([np.arange(8)], "not a permutation"),
        ([np.arange(9.0)], "not a permutation"),
        ([np.arange(9).reshape(3, 3)], "not a permutation"),
        ([np.array([1, 2, 0, 3, 4, 5, 6, 7, 8])], "not an involution"),
        ([np.array([1, 0, 2, 3, 4, 5, 6, 7, 8]), np.array([0, 2, 1, 3, 4, 5, 6, 7, 8])],
         "do not commute"),
        ([np.array([1, 0, 2, 3, 4, 5, 6, 7, 8])], "does not commute"),
    ],
    ids=["repeated-index", "short", "float", "2d", "three-cycle", "generators", "h"],
)
def test_invalid_symmetries_fail_closed(symmetries, message):
    with pytest.raises(ContractViolationError, match=message):
        symmetry_sectors(_chain_op(), symmetries)


def test_a_broken_declared_symmetry_fails_closed():
    symmetries = chain_symmetries(SPIN1, 2)
    h = _chain_matrix()
    scale = np.max(np.abs(h))
    # |1,0> and its C image |-1,0> (indices 1 and 7) move together: C holds, P breaks.
    for shift, fails in ((1e-9, True), (1e-13, False)):
        broken = h.copy()
        broken[[1, 7], [1, 7]] += shift * scale
        if fails:
            with pytest.raises(ContractViolationError, match="does not commute with symmetry 1"):
                symmetry_sectors(sparse_from_dense(broken), symmetries)
        else:
            # Within HERMITICITY_RTOL * max|H| the sectors still form.
            blocks = symmetry_sectors(sparse_from_dense(broken), symmetries)
            assert sum(b.dim for b in blocks) == 9


@pytest.mark.parametrize("symmetries", [(), (np.arange(9),)], ids=["none", "identity"])
def test_a_trivial_group_gives_the_whole_operator(symmetries):
    (block,) = symmetry_sectors(_chain_op(), symmetries)
    assert np.array_equal(block.matrix, _chain_matrix())


@pytest.mark.parametrize("symmetry", ["C", "P"])
@pytest.mark.parametrize("m_max", [1, 2])
def test_evolution_from_an_even_state_stays_even(m_max, symmetry):
    trunc = SpinTruncation(m_max)
    h = build_chain_h(TargetCouplings(1.0, 0.8, 0.35), trunc, 3)
    g = dict(zip("CP", chain_symmetries(trunc, 3)))[symmetry]
    rng = np.random.default_rng(m_max)
    x = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    psi0 = StateVector.normalized(x + x[g])
    amplitudes = eig_hermitian(h).propagate(psi0, [0.0, 0.3, 1.7, 6.0, 25.0])
    assert np.max(np.abs(amplitudes[g] - amplitudes)) <= 1e-12
