import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cahm import (
    ContractViolationError,
    StateVector,
    build_h1t,
    build_h2t,
    eig_hermitian,
)
from cahm.evolution import simulator_trace, trace
from cahm.numerics import (
    DEGENERACY_RTOL,
    HERMITICITY_RTOL,
    MAX_DIM,
    SparseHermitian,
    Spectrum,
    _matmul,
    _max_abs,
    _uniform_phases,
    basis_digits,
    bitstring_labels,
    site_strides,
)
from cahm.rydberg_models import (
    AtomGeometry,
    RydbergParams,
    atom_permutation,
    build_rydberg_h,
    ladder_geometry,
)
from cahm.target_models import (
    SPIN1,
    SpinTruncation,
    TargetCouplings,
    build_chain_h,
)
from cahm.trotter import Circuit

from helpers import (
    EIGENVALUE_MUTATIONS,
    clustered_hermitian,
    corrupting_eigvalsh,
    direct_amplitudes,
    expm_taylor,
    op_lz,
    op_ux,
    preset_systems,
    random_hermitian,
    sparse_from_dense,
)


def test_eig_diagonal():
    s = eig_hermitian(sparse_from_dense(np.diag([1.0, 0.0, -1.0]).astype(complex)))
    assert np.allclose(s.eigenvalues, [-1.0, 0.0, 1.0])


def test_eig_even_block_closed_form():
    # 2x2 charge-even block at U=1, X=0.5: eigenvalues (1 -+ sqrt(3))/4.
    u, x = 1.0, 0.5
    block = np.array([[0.0, -x / np.sqrt(2)], [-x / np.sqrt(2), u / 2]], dtype=complex)
    s = eig_hermitian(sparse_from_dense(block))
    expected = [(1 - np.sqrt(3)) / 4, (1 + np.sqrt(3)) / 4]
    assert np.allclose(s.eigenvalues, expected, atol=1e-14)


def test_eig_identity_degenerate():
    s = eig_hermitian(sparse_from_dense(np.eye(3, dtype=complex)))
    assert np.allclose(s.eigenvalues, [1.0, 1.0, 1.0])
    assert np.allclose(s.eigenvectors.conj().T @ s.eigenvectors, np.eye(3), atol=1e-14)


def test_eig_deterministic_and_orientation_stable():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 12)
    # Force a degenerate cluster: H -> H with two equal eigenvalues.
    w, v = np.linalg.eigh(h)
    w[3] = w[4] = 0.5
    h = sparse_from_dense(v @ np.diag(w) @ v.conj().T)
    s1 = eig_hermitian(h)
    s2 = eig_hermitian(h)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def _clusters(w):
    """(start, stop) of each run of eigenvalues closer than the degeneracy tolerance."""
    tol = DEGENERACY_RTOL * max(abs(w[0]), abs(w[-1]))
    edges = [0, *(np.flatnonzero(np.diff(w) > tol) + 1).tolist(), w.size]
    return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b - a > 1]


CLUSTER_CASES = [(16, (2, 5)), (64, (2, 3, 4, 8)), (256, (2, 3, 4, 5, 6, 7, 8))]


def _reorienting_eigh(rng):
    """numpy's eigh, then each degenerate cluster rotated at random and every column re-signed.

    Real vectors get a random orthogonal rotation and random signs, complex
    ones a random unitary rotation and random phases.
    """
    eigh = np.linalg.eigh

    def reoriented(m):
        w, v = eigh(m)
        real = not np.iscomplexobj(v)
        for a, b in _clusters(w):
            g = rng.normal(size=(b - a, b - a))
            if not real:
                g = g + 1j * rng.normal(size=g.shape)
            v[:, a:b] = v[:, a:b] @ np.linalg.qr(g)[0]
        if real:
            return w, v * rng.choice([-1.0, 1.0], size=w.size)
        return w, v * np.exp(2j * np.pi * rng.uniform(size=w.size))

    return reoriented


def _orientation_cases():
    cases = {
        f"clustered-{dim}": clustered_hermitian(np.random.default_rng(dim), dim, sizes)
        for dim, sizes in CLUSTER_CASES
    }
    for m_max, n_links in [(1, 2), (1, 4), (2, 2), (2, 3)]:
        h = build_chain_h(TargetCouplings(u=1.0, x=0.9, y=0.0), SpinTruncation(m_max), n_links)
        cases[f"chain-y0-m{m_max}-n{n_links}"] = h.matrix
    return cases


class _TwoSpinsIn:
    """An array as `simulator_trace` reads it: `op`, with two spins on 9 spread basis states."""

    def __init__(self, op):
        self.op = op
        self.spin_map = SimpleNamespace(indices=tuple(range(0, op.dim, op.dim // 9))[:9])

    def hamiltonian(self):
        return self.op

    def embed(self, state):
        out = np.zeros(self.op.dim, dtype=np.complex128)
        out[list(self.spin_map.indices)] = state.amplitudes
        return StateVector(out)


def _orientation_sensitive_outputs(op, rng):
    """Spectrum.propagate, trace and simulator_trace of `op` from fixed random states."""
    dim = op.dim

    def state(n=dim):
        return StateVector.normalized(rng.normal(size=n) + 1j * rng.normal(size=n))

    psi0, times = state(), np.linspace(0.0, 5.0, 6)
    finals = [("basis", StateVector.basis(dim, dim // 2)), ("random", state())]
    return [
        eig_hermitian(op).propagate(psi0, times),
        *trace(op, psi0, finals, times).series.values(),
        *simulator_trace(_TwoSpinsIn(op), state(9), times).series.values(),
    ]


ORIENTATION_CASES = _orientation_cases()


@pytest.mark.parametrize("m", list(ORIENTATION_CASES.values()), ids=list(ORIENTATION_CASES))
def test_outputs_do_not_depend_on_the_eigenvector_orientation(monkeypatch, m):
    op = sparse_from_dense(m)
    w = np.linalg.eigh(m)[0]
    assert max(b - a for a, b in _clusters(w)) > 1  # every case has a degenerate cluster
    expected = _orientation_sensitive_outputs(op, np.random.default_rng(1))
    monkeypatch.setattr(np.linalg, "eigh", _reorienting_eigh(np.random.default_rng(2)))
    got = _orientation_sensitive_outputs(op, np.random.default_rng(1))
    for a, b in zip(got, expected):
        assert np.max(np.abs(a - b)) <= 1e-12


def _hermitian_matrix(dim, kind):
    """A random exactly Hermitian matrix of `kind`."""
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim))
    if kind == "complex":
        a = a + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("dim", [2, 9, 64, 127, 128, 129, 300, 625])
def test_tiled_hermiticity_check_rejects_one_perturbed_entry(dim, kind):
    # Every dim, small or large, is checked through the mirror lookup of its entries.
    h = _hermitian_matrix(dim, kind)
    sparse_from_dense(h)
    inside = 0.1 * HERMITICITY_RTOL * np.max(np.abs(h))
    last = dim - 1
    # The first and an early entry, both sides of 127/128 where the dim has them, and the last row.
    for i, j in [(0, 0), (3, 50), (127, 128), (128, 127), (127, 127), (128, 128), (0, 128),
                 (128, 0), (127, last), (last, 127), (last, 0), (last, last - 1)]:
        if max(i, j) >= dim:
            continue
        for unit in (1.0, 1j) if kind == "complex" else (1.0,):
            if i == j and unit == 1.0:
                continue  # a real change on the diagonal keeps H Hermitian
            bad = h.copy()
            bad[i, j] += 1e-9 * unit
            with pytest.raises(ContractViolationError, match="not Hermitian"):
                sparse_from_dense(bad)
            bad[i, j] = h[i, j] + inside * unit
            sparse_from_dense(bad)


@pytest.mark.parametrize("kind", ["random", "signed", "zeros", "negative-zeros", "complex"])
def test_max_abs_is_bitwise_np_max_abs(kind):
    rng = np.random.default_rng(3)
    for shape in [(1,), (7,), (5, 5), (64, 33)]:
        m = {
            "random": rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, size=shape),
            "signed": -rng.uniform(0.0, 1.0, size=shape),
            "zeros": np.zeros(shape),
            "negative-zeros": np.full(shape, -0.0),
            "complex": rng.normal(size=shape) + 1j * rng.normal(size=shape),
        }[kind]
        assert _max_abs(m).hex() == float(np.max(np.abs(m))).hex()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_spectrum_orthonormality_check_forms_no_identity(dtype):
    dim = 2048
    rng = np.random.default_rng(1)
    # A signed (or phased) permutation: orthonormal, and cheap to build.
    v = np.zeros((dim, dim), dtype=dtype)
    units = rng.choice([-1.0, 1.0], size=dim)
    if dtype == np.complex128:
        units = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=dim))
    v[rng.permutation(dim), np.arange(dim)] = units
    w = np.arange(dim, dtype=np.float64)
    tracemalloc.start()
    try:
        Spectrum(w, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The copy of v that Spectrum keeps, the Gram matrix and one |.| temporary.
    assert peak <= 3.1 * dim * dim * v.itemsize


def test_spectrum_orthonormality_check_reads_the_diagonal_and_off_diagonal():
    v = np.eye(3)
    for i, j in ((0, 0), (0, 2)):
        bad = v.copy()
        bad[i, j] += 1e-9
        with pytest.raises(ContractViolationError, match="not orthonormal"):
            Spectrum(np.arange(3.0), bad)
    Spectrum(np.arange(3.0), v + 1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eig_rejects_an_overflowing_decomposition():
    # Eigenvalues 0 and 2e308: the top one overflows, so the contract fails closed.
    with pytest.raises(ContractViolationError, match="not finite"):
        eig_hermitian(sparse_from_dense(np.full((2, 2), 1e308, dtype=complex)))
    # Entries at the edge of the float range with finite eigenvalues still pass.
    for m in (np.diag([1e308, -1e308]), np.array([[0.0, 1e308], [1e308, 0.0]])):
        s = eig_hermitian(sparse_from_dense(m.astype(complex)))
        assert np.array_equal(np.abs(s.eigenvalues), [1e308, 1e308])


def test_eig_rejects_non_hermitian():
    with pytest.raises(ContractViolationError, match="not Hermitian"):
        sparse_from_dense(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_spectral_reconstruction_and_residuals():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8, 16, 33, 64):
        h = random_hermitian(rng, dim, scale=2.0)
        s = eig_hermitian(sparse_from_dense(h))
        rebuilt = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - h) <= 1e-9 * np.linalg.norm(h)
        residual = np.max(np.linalg.norm(h @ s.eigenvectors - s.eigenvectors * s.eigenvalues, axis=0))
        assert residual <= 1e-9 * np.linalg.norm(h)
        gram = s.eigenvectors.conj().T @ s.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10


def _evolved(h, t, psi):
    """Amplitudes of exp(-iHt) psi from the one spectral propagator."""
    return eig_hermitian(h).propagate(psi, [t])[:, 0]


def test_evolve_t0_and_diagonal_phase():
    h = sparse_from_dense(np.diag([0.3, -1.2, 2.0]).astype(complex))
    psi0 = StateVector.normalized([1.0, 1.0j, -0.5])
    assert np.allclose(_evolved(h, 0.0, psi0), psi0.amplitudes, atol=1e-14)
    basis1 = StateVector.basis(3, 1)
    out = _evolved(h, 2.5, basis1)
    assert abs(out[1] - np.exp(-1j * (-1.2) * 2.5)) < 1e-12
    assert abs(np.abs(out[1]) ** 2 - 1.0) < 1e-12


def test_evolve_matches_taylor_expm_oracle():
    rng = np.random.default_rng(23)
    h1t = build_h1t(TargetCouplings(u=1.0, x=0.5))
    cases = [h1t.matrix] + [random_hermitian(rng, d) for d in (2, 3, 4, 8, 9, 16)]
    for m in cases:
        h = sparse_from_dense(m)
        psi0 = StateVector.normalized(rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim))
        for t in (0.7, np.pi):
            expected = expm_taylor(-1j * m * t) @ psi0.amplitudes
            got = _evolved(h, t, psi0)
            assert np.max(np.abs(got - expected)) <= 1e-9


def test_evolve_unitarity_random():
    rng = np.random.default_rng(31)
    for dim in (2, 5, 16, 33, 64):
        h = sparse_from_dense(random_hermitian(rng, dim, scale=1.5))
        psi = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        for _ in range(3):
            t = rng.uniform(0.0, 10.0)
            out = _evolved(h, t, psi)
            assert abs(np.sum(np.abs(out) ** 2) - 1.0) <= 1e-10


def test_evolve_composition():
    rng = np.random.default_rng(43)
    for dim in (3, 8, 16):
        h = sparse_from_dense(random_hermitian(rng, dim))
        psi = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        t1, t2 = rng.uniform(0, 5, size=2)
        once = _evolved(h, t1 + t2, psi)
        twice = _evolved(h, t2, StateVector(_evolved(h, t1, psi)))
        assert np.max(np.abs(once - twice)) <= 1e-9


def test_evolve_dimension_mismatch():
    h = sparse_from_dense(np.eye(3, dtype=complex))
    with pytest.raises(ContractViolationError):
        _evolved(h, 1.0, StateVector.basis(4, 0))


def test_one_dimension_cap_rejects_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the dimension cap")

    atoms = AtomGeometry(np.column_stack([np.arange(13.0), np.zeros(13)]), 1.0)
    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(ValueError, match="positions"):
        build_rydberg_h(atoms, RydbergParams(omega=1.0, delta=0.0))
    with pytest.raises(ValueError, match="n_qubits"):
        Circuit(n_qubits=13, gates=())
    with pytest.raises(ValueError, match="n_links"):
        build_chain_h(TargetCouplings(u=1.0, x=0.5, y=0.2), SPIN1, 8)


def test_basis_digits_put_site_zero_first():
    digits = basis_digits(3, 2, "n")
    assert digits.tolist() == [[a, b] for a in range(3) for b in range(3)]
    assert np.array_equal(digits @ site_strides(3, 2), np.arange(9))
    assert np.array_equal(basis_digits(2, 12, "n") @ site_strides(2, 12), np.arange(MAX_DIM))
    assert bitstring_labels(5) == ("000", "001", "010", "011", "100")
    assert bitstring_labels(1) == ("0",)


def test_basis_digits_capped_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the dimension cap")

    monkeypatch.setattr(np, "arange", no_allocation)
    with pytest.raises(ValueError, match="sites"):
        basis_digits(2, 13, "sites")
    with pytest.raises(ValueError, match="number of bits"):
        bitstring_labels(MAX_DIM + 1)
    with pytest.raises(ValueError, match="permutation length"):
        atom_permutation(range(13))


def test_statevector_contracts():
    with pytest.raises(ContractViolationError):
        StateVector(np.array([1.0, 1.0], dtype=complex))
    v = StateVector.normalized([3.0, 4.0])
    assert abs(np.sum(np.abs(v.amplitudes) ** 2) - 1.0) < 1e-15
    with pytest.raises(ContractViolationError):
        StateVector.basis(3, 5)


def _builder_outputs():
    c = TargetCouplings(u=1.0, x=0.9, y=0.3)
    ops = {
        "build_chain_h": build_chain_h(c, SpinTruncation(2), 3),
        "build_h1t": build_h1t(c),
        "build_h2t": build_h2t(c),
    }
    for name, system in preset_systems().items():
        ops[f"build_rydberg_h[{name}]"] = build_rydberg_h(system.geometry, system.params)
    for trunc in (SPIN1, SpinTruncation(3)):
        ops[f"op_lz[{trunc.m_max}]"] = op_lz(trunc)
        ops[f"op_ux[{trunc.m_max}]"] = op_ux(trunc)
    return ops


@pytest.mark.parametrize("name,op", list(_builder_outputs().items()))
def test_builders_return_read_only_real_matrices(name, op):
    assert op.matrix.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[0, 0] = 1.0


def _assert_real_path_matches_the_complex_path(m):
    """eig_hermitian of real m against eig_hermitian of the same matrix as complex."""
    real = eig_hermitian(sparse_from_dense(m))
    cplx = eig_hermitian(sparse_from_dense(m.astype(complex)))
    assert real.eigenvectors.dtype == np.float64
    assert cplx.eigenvectors.dtype == np.complex128
    norm = np.linalg.norm(m, 2)
    assert np.max(np.abs(real.eigenvalues - cplx.eigenvalues)) <= 1e-12 * norm
    dim = m.shape[0]
    rng = np.random.default_rng(dim)
    psi0 = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    finals = [StateVector.basis(dim, dim // 3)]
    finals.append(StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim)))
    times = np.linspace(0.0, 5.0 / norm, 11)
    for rows in (None, finals):
        p_real = np.abs(real.propagate(psi0, times, rows)) ** 2
        p_cplx = np.abs(cplx.propagate(psi0, times, rows)) ** 2
        assert np.max(np.abs(p_real - p_cplx)) <= 1e-12


CHAIN_RUNGS = [(1, 4), (1, 5), (2, 3), (2, 4), (3, 3)]


@pytest.mark.parametrize("y", [0.0, 0.3])
@pytest.mark.parametrize("m_max,n_links", CHAIN_RUNGS)
def test_real_chain_spectra_match_the_complex_path(m_max, n_links, y):
    h = build_chain_h(TargetCouplings(u=1.0, x=0.9, y=y), SpinTruncation(m_max), n_links)
    _assert_real_path_matches_the_complex_path(h.matrix)


@pytest.mark.parametrize("name,system", list(preset_systems().items()))
def test_real_simulator_spectra_match_the_complex_path(name, system):
    _assert_real_path_matches_the_complex_path(system.hamiltonian().matrix)


def test_complex_hermitian_stays_complex_and_keeps_its_contracts():
    h = clustered_hermitian(np.random.default_rng(5), 64, (2, 3))
    assert np.max(np.abs(h.imag)) > 0.1  # a Hermitian diagonal is real: off-diagonal parts
    op = sparse_from_dense(h)
    assert op.matrix.dtype == np.complex128
    s = eig_hermitian(op)
    assert s.eigenvectors.dtype == np.complex128
    v, w = s.eigenvectors, s.eigenvalues
    assert np.max(np.linalg.norm(h @ v - v * w, axis=0)) <= 1e-9 * np.linalg.norm(h)
    assert np.max(np.abs(v.conj().T @ v - np.eye(64))) <= 1e-10
    psi0 = StateVector.basis(64, 7)
    probabilities = np.abs(s.propagate(psi0, [0.0, 1.0, 2.0])) ** 2
    assert np.max(np.abs(probabilities.sum(axis=0) - 1.0)) <= 1e-12


@pytest.mark.parametrize("shape", [(1, 1), (9, 1), (64, 3), (625, 40), (2048, 2)])
def test_real_times_complex_product_matches_the_complex_product(shape):
    d, k = shape
    rng = np.random.default_rng(d)
    a = np.linalg.qr(rng.normal(size=(d, d)))[0]
    b = (rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))) / np.sqrt(2 * d)
    for left in (a, a.T):
        got = _matmul(left, b)
        assert got.dtype == np.complex128 and got.shape == (d, k)
        assert np.max(np.abs(got - left.astype(complex) @ b)) <= 1e-15
    assert np.array_equal(_matmul(a, np.asfortranarray(b)), _matmul(a, b))


def _corrupt_a_column(w, v, cluster):
    v[:, 0] = v[:, 0] + 1e-6 * v[:, -1]


def _swap_two_eigenvalues(w, v, cluster):
    w[[0, -1]] = w[[-1, 0]]


def _skew_a_degenerate_pair(w, v, cluster):
    a = cluster[0]
    v[:, a + 1] = (v[:, a] + v[:, a + 1]) / np.sqrt(2.0)


MUTATIONS = {
    "corrupted column": (_corrupt_a_column, "residual"),
    "swapped eigenvalues": (_swap_two_eigenvalues, "residual"),
    "non-orthogonal degenerate pair": (_skew_a_degenerate_pair, "orthonormal"),
}


def _mutation_targets():
    chain = build_chain_h(TargetCouplings(u=1.0, x=0.9), SPIN1, 4).matrix
    return {
        "real chain": chain,
        "complex chain": chain.astype(complex),
        "complex Hermitian": clustered_hermitian(np.random.default_rng(9), 64, (3,)),
    }


@pytest.mark.parametrize("target", list(_mutation_targets()))
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_eig_contracts_reject_a_corrupted_decomposition(monkeypatch, target, mutation):
    m = _mutation_targets()[target]
    op = sparse_from_dense(m)
    assert op.matrix.dtype == m.dtype
    eig_hermitian(op)  # the intact decomposition passes
    mutate, message = MUTATIONS[mutation]
    eigh = np.linalg.eigh

    def corrupted_eigh(matrix):
        w, v = eigh(matrix)
        mutate(w, v, _clusters(w)[0])
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", corrupted_eigh)
    with pytest.raises(ContractViolationError, match=message):
        eig_hermitian(op)


@pytest.mark.parametrize("target", list(_mutation_targets()))
@pytest.mark.parametrize("mutation", list(EIGENVALUE_MUTATIONS))
def test_eigvals_only_contract_rejects_corrupted_eigenvalues(monkeypatch, target, mutation):
    op = sparse_from_dense(_mutation_targets()[target])
    assert np.trace(op.matrix).real != 0.0  # else negating and reversing keeps both moments
    spec = eig_hermitian(op, eigvals_only=True)
    assert spec.eigenvectors is None
    assert np.max(np.abs(spec.eigenvalues - eig_hermitian(op).eigenvalues)) <= 1e-12
    mutate, message = EIGENVALUE_MUTATIONS[mutation]
    monkeypatch.setattr(np.linalg, "eigvalsh", corrupting_eigvalsh(mutate))
    with pytest.raises(ContractViolationError, match=message):
        eig_hermitian(op, eigvals_only=True)


def test_eigvals_only_contract_reads_tr_h_from_an_operator_without_a_diagonal(monkeypatch):
    # A ring of six hops stores no diagonal entry: tr H = 0 is the empty sum.
    hops = np.arange(6)
    rows, cols = np.concatenate([hops, (hops + 1) % 6]), np.concatenate([(hops + 1) % 6, hops])
    op = SparseHermitian(6, rows, cols, np.full(12, 0.5))
    assert not np.any(op.rows == op.cols)
    spec = eig_hermitian(op, eigvals_only=True)
    assert np.max(np.abs(spec.eigenvalues - eig_hermitian(op).eigenvalues)) <= 1e-12

    def absolute_values(w, h):
        # |w| in ascending order keeps sum w^2 = ||H||_F^2; only tr H = 0 tells,
        # against sum |w| = 4 = 8 max|H|.
        w[:] = np.sort(np.abs(w))

    monkeypatch.setattr(np.linalg, "eigvalsh", corrupting_eigvalsh(absolute_values))
    with pytest.raises(ContractViolationError, match=r"\|sum w - tr H\| = 8\.000e\+00 and"):
        eig_hermitian(op, eigvals_only=True)


def test_a_spectrum_of_eigenvalues_only_cannot_propagate():
    spec = eig_hermitian(build_h1t(TargetCouplings(u=1.0, x=0.5)), eigvals_only=True)
    with pytest.raises(ContractViolationError, match="eigenvalues only"):
        spec.propagate(StateVector.basis(3, 0), [0.0, 1.0])


def _fsum_frobenius_norm(m):
    """||m||_F from the exactly rounded sum of the squares of m / max|m|."""
    scale = float(np.max(np.abs(m)))
    x = (m / scale).ravel()
    return scale * np.sqrt(math.fsum(np.concatenate([x.real**2, x.imag**2])))


def _frobenius_norm_seen_by_eig_hermitian(monkeypatch, op, f):
    """(f_w, |f_w - ||H||_F|) in units of max|H|, with ||H||_F as `eig_hermitian` takes it.

    eigvalsh is made to return zeros and f max|H|, whose root sum of squares in
    units of max|H| is f_w, and a negative tolerance makes the moment contract
    fail and report |f_w - ||H||_F|.
    """
    unit = _max_abs(op.values)
    w = np.zeros(op.dim)
    w[-1] = f * unit
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda matrix: w.copy())
    monkeypatch.setattr("cahm.numerics.RESIDUAL_RTOL", -1.0)
    with pytest.raises(ContractViolationError, match="moment contract") as failure:
        eig_hermitian(op, eigvals_only=True)
    deviation = re.search(r"\|sqrt\(sum w\^2\) - \|\|H\|\|_F\| = (\S+) ", str(failure.value))
    return float(np.linalg.norm(w / unit)), float(deviation.group(1))


@pytest.mark.parametrize("dim", [1, 2, 9, 64, 127, 128, 129, 300, 1024])
@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
def test_frobenius_norm_is_taken_without_a_scaled_copy(monkeypatch, dim, scale):
    # ||H||_F is summed from the stored entries, with no scaled copy of the matrix.
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim))
    for m in (scale * (a + a.T), scale * random_hermitian(rng, dim)):
        op = sparse_from_dense(m)
        f = _fsum_frobenius_norm(m) / _max_abs(op.values)
        f_w, deviation = _frobenius_norm_seen_by_eig_hermitian(monkeypatch, op, f)
        # Measured within 1 ulp of the exactly rounded sum at every dim here.
        assert abs(f_w - f) + deviation <= 4 * np.spacing(f)


def test_frobenius_norm_forms_no_full_size_temporary():
    # Peaks of eig_hermitian in units of the matrix, on a dim-1024 operator that
    # stores every entry and on a 9-atom array (dim 512).  The moments are read
    # from the entries before the matrix is formed, so the eigenvalues-only path
    # holds the matrix alone (1.004x and 1.009x measured); the full path 4.009x and 4.034x.
    a = np.random.default_rng(0).normal(size=(1024, 1024))
    nine_atoms = ladder_geometry(3, 3, 1.0, 1.0 / 0.326, 30.0)
    for op in (sparse_from_dense(a + a.T), build_rydberg_h(nine_atoms, RydbergParams(1.0, 15.0))):
        size = op.dim * op.dim * op.values.itemsize
        for eigvals_only, bound in ((True, 1.05), (False, 4.05)):
            tracemalloc.start()
            try:
                eig_hermitian(op, eigvals_only=eigvals_only)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * size, (op.dim, eigvals_only, peak / size)


def _scaled_spectra(rng, wt_max, t_max):
    """Real and complex spectra of dims 1 to 64, scaled so that max|w| * t_max = wt_max."""
    for dim in (1, 2, 5, 17, 64):
        a = rng.normal(size=(dim, dim))
        for m in (a + a.T, random_hermitian(rng, dim)):
            w_max = float(np.max(np.abs(np.linalg.eigvalsh(m))))
            yield eig_hermitian(sparse_from_dense(m * (wt_max / (w_max * t_max))))


@pytest.mark.parametrize("n", [1, 2, 3, 31, 1000, 1001, 1025])
@pytest.mark.parametrize("t0", [0.0, -3.7, 12.5])
def test_propagate_equals_the_direct_formula(n, t0):
    """Factorised phases agree with one exponential per eigenvalue and time.

    On a uniform grid propagate reads t_{mB+k} as T_m + kh, which differs from
    the grid's own time by about one ulp of t, so the phases differ by about
    eps |w t| (at most 1.8 eps |w t| measured over |w t| from 1 to 1e4).  The
    amplitudes agree within 1e-12, or 4 eps max|w t| above |w t| = 1.1e3.
    Grids whose phases are not factorised (one time, zero span, non-uniform)
    give the direct formula bit for bit.
    """
    rng = np.random.default_rng(n)
    ascending = np.linspace(t0, t0 + 40.0, n)
    factorised = [ascending, ascending[::-1]] if n > 1 else []
    direct = [np.full(n, t0)] if n > 1 else [ascending]
    if n > 2:
        bumped = ascending.copy()
        bumped[n // 2] += 1e-9
        direct += [bumped, t0 + np.geomspace(0.1, 40.0, n)]
    for grid in factorised:
        assert _uniform_phases(grid) is not None
    for grid in direct[1:]:
        assert _uniform_phases(grid) is None
    t_max = max(abs(t0), abs(t0 + 40.0))
    for wt_max in (1.0, 1e4):
        tol = max(1e-12, 4 * np.finfo(float).eps * wt_max)
        for spec in _scaled_spectra(rng, wt_max, t_max):
            dim = spec.dim
            psi0 = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
            finals = [StateVector.basis(dim, dim // 2)]
            finals.append(StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim)))
            for rows in (None, finals):
                for grid in factorised:
                    got = spec.propagate(psi0, grid, rows)
                    assert np.max(np.abs(got - direct_amplitudes(spec, psi0, grid, rows))) <= tol
                for grid in direct:
                    got = spec.propagate(psi0, grid, rows)
                    assert np.array_equal(got, direct_amplitudes(spec, psi0, grid, rows))


def test_a_grid_jittered_above_rounding_is_propagated_at_its_own_times():
    """A grid off uniform by more than rounding gets no factorised phases.

    Read at its uniform places, a 1001-point grid on [0, 40] jittered by up to
    0.4e-12 * 40, inside the former band of 1e-12 |span|, got amplitude errors
    of 1.8e-9 at max|w t| = 1e4.
    """
    rng = np.random.default_rng(16)
    grid = np.linspace(0.0, 40.0, 1001)
    jittered = grid + rng.uniform(-1.0, 1.0, size=grid.size) * 0.4e-12 * 40.0
    assert _uniform_phases(grid) is not None
    assert _uniform_phases(jittered) is None
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    m = a + a.conj().T
    m *= 1e4 / (np.max(np.abs(np.linalg.eigvalsh(m))) * 40.0)
    spec = eig_hermitian(sparse_from_dense(m))
    psi0 = StateVector.normalized(rng.normal(size=16) + 1j * rng.normal(size=16))
    got = spec.propagate(psi0, jittered)
    assert np.max(np.abs(got - direct_amplitudes(spec, psi0, jittered))) <= 1e-12


def test_linspace_and_arange_grids_are_uniform_within_the_band():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 10002))
        t0 = rng.choice([0.0, 1.0]) * rng.normal() * 10.0 ** rng.uniform(-3, 3)
        span = rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-3, 3)
        assert _uniform_phases(np.linspace(t0, t0 + span, n)) is not None
        assert _uniform_phases(t0 + np.arange(n) * (span / (n - 1))) is not None


def test_propagate_takes_dim_m_plus_b_exponentials_on_a_uniform_grid(monkeypatch):
    a = np.random.default_rng(4).normal(size=(64, 64))
    spec = eig_hermitian(sparse_from_dense(a + a.T))
    psi0 = StateVector.basis(64, 0)
    exp, sizes = np.exp, []
    monkeypatch.setattr(np, "exp", lambda x: sizes.append(np.size(x)) or exp(x))
    spec.propagate(psi0, np.linspace(0.0, 100.0, 1001))
    assert sum(sizes) == 64 * (32 + 32)  # B = ceil(sqrt(1001)) = 32, M = ceil(1001 / 32) = 32
    sizes.clear()
    spec.propagate(psi0, np.geomspace(0.1, 100.0, 1001))
    assert sum(sizes) == 64 * 1001


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("target", list(_mutation_targets()))
def test_eig_contracts_hold_at_the_ends_of_the_float_range(monkeypatch, target):
    m = _mutation_targets()[target]
    # The residual is taken in units of max|H|: near 1e300 its squares do not
    # overflow, so a sound decomposition passes, and near 1e-300 they do not
    # underflow to 0, so every corruption is still caught.
    w = eig_hermitian(sparse_from_dense(m)).eigenvalues
    ops = [sparse_from_dense(scale * m) for scale in (1e300, 1e-300)]
    for scale, op in zip((1e300, 1e-300), ops):
        assert np.max(np.abs(eig_hermitian(op).eigenvalues / scale - w)) <= 1e-12
    eigh = np.linalg.eigh
    for mutate, message in MUTATIONS.values():

        def corrupted_eigh(matrix, mutate=mutate):
            w, v = eigh(matrix)
            mutate(w, v, _clusters(w)[0])
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", corrupted_eigh)
        for op in ops:
            with pytest.raises(ContractViolationError, match=message):
                eig_hermitian(op)
    # The moments are taken in units of max|H| too: sound eigenvalues pass at
    # both ends, and every corruption is still caught there.
    for scale, op in zip((1e300, 1e-300), ops):
        assert np.max(np.abs(eig_hermitian(op, eigvals_only=True).eigenvalues / scale - w)) <= 1e-12
    for mutate, message in EIGENVALUE_MUTATIONS.values():
        monkeypatch.setattr(np.linalg, "eigvalsh", corrupting_eigvalsh(mutate))
        for op in ops:
            with pytest.raises(ContractViolationError, match=message):
                eig_hermitian(op, eigvals_only=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_propagate_refuses_overflowing_phases_before_any_exponential(monkeypatch):
    spec = eig_hermitian(sparse_from_dense(np.diag([-1e300, 0.0, 1e300])))
    psi0 = StateVector.basis(3, 0)
    assert np.isfinite(spec.propagate(psi0, [0.0, 1.0])).all()
    monkeypatch.setattr(np, "exp", lambda x: pytest.fail("exp called"))
    for times in ([0.0, 1e9], [np.inf], [np.nan], np.linspace(0.0, 1e9, 5)):
        with pytest.raises(ContractViolationError, match=r"max\|w\| max\|t\|"):
            spec.propagate(psi0, times)


def _sparse_entries(dim, dtype, rng):
    """Shuffled (rows, cols, values) of a random Hermitian matrix with about 20% nonzeros.

    The last diagonal entry is always kept, so that even dim 2 stores an entry.
    """
    h = random_hermitian(rng, dim)
    h = h.real if dtype == np.float64 else h
    drop = rng.random((dim, dim)) < 0.8
    drop[-1, -1] = False
    h[drop] = 0.0
    h = np.triu(h) + np.triu(h, 1).conj().T
    rows, cols = np.nonzero(h)
    order = rng.permutation(rows.size)
    return h, rows[order], cols[order], h[rows, cols][order]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_sparse_hermitian_dense_is_the_stored_entries(dtype):
    rng = np.random.default_rng(8)
    h, rows, cols, values = _sparse_entries(40, dtype, rng)
    op = SparseHermitian(40, rows, cols, values)
    assert op.values.dtype == dtype
    keys = op.rows * 40 + op.cols
    assert np.all(np.diff(keys) > 0)
    assert np.array_equal(op.values, h[op.rows, op.cols])
    assert op.matrix.dtype == dtype
    assert np.array_equal(op.matrix, h)
    assert not op.matrix.flags.writeable


def _bad_sparse_cases():
    r, c, v = np.array([0, 1, 1]), np.array([1, 0, 1]), np.array([2.0, 2.0, 1.0])
    yield "dim-zero", (0, r, c, v), "dimension"
    yield "dim-above-cap", (MAX_DIM + 1, r, c, v), "dimension"
    yield "float-index", (2, r.astype(float), c, v), "integer rows and cols"
    yield "lengths", (2, r, c[:2], v), "one nonzero length"
    yield "empty", (2, r[:0], c[:0], v[:0]), "one nonzero length"
    yield "2d", (2, r[None], c[None], v[None]), "1d arrays"
    yield "negative-index", (2, np.array([0, -1, 1]), c, v), "outside 0..1"
    yield "index-at-dim", (2, r, np.array([1, 0, 2]), v), "outside 0..1"
    yield "repeated-key", (2, np.array([0, 1, 0]), np.array([1, 0, 1]), v), "repeat"
    yield "nan", (2, r, c, np.array([2.0, 2.0, np.nan])), "finite"
    yield "inf", (2, r, c, np.array([np.inf, 2.0, 1.0])), "finite"
    yield "mirror-value", (2, r, c, np.array([2.0, 2.0 + 1e-9, 1.0])), "not Hermitian"
    yield "mirror-missing", (2, r[:1], c[:1], v[:1]), "not Hermitian"
    yield "mirror-not-conjugate", (2, r, c, np.array([2.0 + 1j, 2.0 + 1j, 1.0])), "not Hermitian"
    yield "diagonal-imaginary", (2, r, c, np.array([2.0, 2.0, 1.0 + 1e-9j])), "not Hermitian"


@pytest.mark.parametrize("case", list(_bad_sparse_cases()), ids=lambda case: case[0])
def test_sparse_hermitian_rejects_bad_entries(case):
    _, args, message = case
    with pytest.raises(ContractViolationError, match=message):
        SparseHermitian(*args)


@pytest.mark.parametrize("dim", [2, 64, 128, 129])
def test_sparse_checks_agree_on_both_sides_of_the_dense_mirror_check(dim):
    # Small and large dims alike read the mirrors by lookup.
    rng = np.random.default_rng(dim)
    for dtype in (np.float64, np.complex128):
        h, rows, cols, values = _sparse_entries(dim, dtype, rng)
        op = SparseHermitian(dim, rows, cols, values)
        assert np.all(np.diff(op.rows * dim + op.cols) > 0)
        assert np.array_equal(op.matrix, h)
    for _, (_, r, c, v), message in _bad_sparse_cases():
        if message in ("repeat", "finite", "not Hermitian"):
            with pytest.raises(ContractViolationError, match=message):
                SparseHermitian(dim, r + dim - 2, c + dim - 2, v)


def test_sparse_hermiticity_is_relative_to_max_abs():
    r, c = np.array([0, 1, 1]), np.array([1, 0, 1])
    for scale in (1e-200, 1.0, 1e200):
        inside = np.array([2.0, 2.0 * (1 + 1e-13), 1.0]) * scale
        assert np.array_equal(SparseHermitian(2, r, c, inside).matrix, [[0, inside[0]], inside[1:]])
        with pytest.raises(ContractViolationError, match="not Hermitian"):
            SparseHermitian(2, r, c, np.array([2.0, 2.0 * (1 + 1e-11), 1.0]) * scale)
    # A zero operator stored as explicit zeros is Hermitian.
    assert not SparseHermitian(2, r[:1], c[:1], np.zeros(1)).matrix.any()
