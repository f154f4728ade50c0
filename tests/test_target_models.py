import json

import numpy as np
import pytest

from cahm import (
    SPIN1,
    ContractViolationError,
    SparseHermitian,
    SpinTruncation,
    TargetCouplings,
    analytic_one_spin,
    build_chain_h,
    build_h1t,
    build_h2t,
    eig_hermitian,
    perturbative_one_spin,
    target_models,
)
from cahm.cli import main
from cahm.numerics import symmetry_sectors
from cahm.target_models import chain_symmetries, chain_terms

from helpers import dense_chain_h, kron_chain_h, op_charge_conjugation, op_lz, op_ux


def test_op_lz_values():
    assert np.array_equal(np.diag(op_lz(SPIN1).matrix).real, [1.0, 0.0, -1.0])
    assert np.array_equal(
        np.diag(op_lz(SpinTruncation(2)).matrix).real, [2.0, 1.0, 0.0, -1.0, -2.0]
    )


def test_charge_conjugation_algebra():
    for m_max in (1, 2, 3):
        trunc = SpinTruncation(m_max)
        c = op_charge_conjugation(trunc)
        lz = op_lz(trunc).matrix
        ux = op_ux(trunc).matrix
        assert np.array_equal(c @ c, np.eye(trunc.dim, dtype=complex))
        assert np.array_equal(c @ lz @ c, -lz)
        assert np.array_equal(c @ ux @ c, ux)
    # C|1> = |-1> for spin-1 (descending basis).
    c1 = op_charge_conjugation(SPIN1)
    assert np.array_equal(c1 @ np.array([1, 0, 0], dtype=complex), [0, 0, 1])


def test_op_ux_actions():
    ux = op_ux(SPIN1).matrix
    ket0 = np.array([0, 1, 0], dtype=complex)
    plus = np.array([1, 0, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, 0, -1], dtype=complex) / np.sqrt(2)
    assert np.allclose(ux @ ket0, plus / np.sqrt(2), atol=1e-15)
    assert np.allclose(ux @ minus, 0.0, atol=1e-15)
    # Spin-1 special case: Ux = Lx / sqrt(2) with the standard spin-1 Lx.
    lx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    assert np.allclose(ux, lx / np.sqrt(2), atol=1e-15)


def test_h1t_examples():
    h = build_h1t(TargetCouplings(u=1.0, x=0.0))
    assert np.allclose(sorted(np.diag(h.matrix).real), [0.0, 0.5, 0.5])
    s = eig_hermitian(build_h1t(TargetCouplings(u=1.0, x=0.5)))
    assert abs(s.eigenvalues[0] - (1 - np.sqrt(3)) / 4) < 1e-12


def test_h1t_charge_odd_level():
    # The charge-odd state stays at U/2 for any X.
    c_op = op_charge_conjugation(SPIN1)
    for x in (0.0, 0.3, 1.5, -2.2):
        h = build_h1t(TargetCouplings(u=1.4, x=x))
        s = eig_hermitian(h)
        assert np.min(np.abs(s.eigenvalues - 0.7)) < 1e-12
        if x == 0.0:
            continue  # the U/2 level is degenerate; no unique odd eigenvector
        parities = [
            np.real(s.eigenvectors[:, k].conj() @ c_op @ s.eigenvectors[:, k]) for k in range(3)
        ]
        odd = int(np.argmin(parities))
        assert abs(s.eigenvalues[odd] - 0.7) < 1e-12
        assert parities[odd] < -0.99
        # That eigenvector is annihilated by Ux.
        assert np.max(np.abs(op_ux(SPIN1).matrix @ s.eigenvectors[:, odd])) <= 1e-14


def test_analytic_one_spin_values():
    s = analytic_one_spin(TargetCouplings(u=1.0, x=0.5))
    assert abs(s.e0 - (1 - np.sqrt(3)) / 4) < 1e-15
    assert abs(s.eplus - (1 + np.sqrt(3)) / 4) < 1e-15
    assert s.eminus == 0.5
    # X = U makes E0 = -U/2 exactly, so tan(phi) = 1/sqrt(2).
    s = analytic_one_spin(TargetCouplings(u=1.0, x=1.0))
    assert abs(np.tan(s.phi) - 1 / np.sqrt(2)) < 1e-15
    s = analytic_one_spin(TargetCouplings(u=1.0, x=0.0))
    assert (s.e0, s.eplus, s.phi) == (0.0, 0.5, 0.0)


def test_analytic_matches_diagonalization():
    rng = np.random.default_rng(5)
    for _ in range(100):
        u = rng.choice([-1, 1]) * rng.uniform(0.2, 2.0)
        x = rng.choice([-1, 1]) * rng.uniform(0.1, 2.0)
        s = analytic_one_spin(TargetCouplings(u=u, x=x))
        evals = eig_hermitian(build_h1t(TargetCouplings(u=u, x=x))).eigenvalues
        assert np.max(np.abs(evals - sorted([s.e0, s.eminus, s.eplus]))) <= 1e-12


def test_perturbative_one_spin():
    p = perturbative_one_spin(TargetCouplings(u=1.0, x=0.1))
    assert abs(p.e0 + 0.01) < 1e-15
    assert abs(p.phi - np.sqrt(2) * 0.1) < 1e-15
    p0 = perturbative_one_spin(TargetCouplings(u=1.0, x=0.0))
    assert (p0.e0, p0.eplus, p0.phi) == (0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        perturbative_one_spin(TargetCouplings(u=0.0, x=0.1))


def test_perturbative_error_is_fourth_order():
    # Error against the closed form shrinks ~16x when X halves (X/U <= 0.05).
    u = 1.0
    for x in (0.05, 0.04):
        err = abs(
            perturbative_one_spin(TargetCouplings(u=u, x=x)).e0
            - analytic_one_spin(TargetCouplings(u=u, x=x)).e0
        )
        err_half = abs(
            perturbative_one_spin(TargetCouplings(u=u, x=x / 2)).e0
            - analytic_one_spin(TargetCouplings(u=u, x=x / 2)).e0
        )
        ratio = err / err_half
        assert abs(ratio - 16.0) <= 0.2 * 16.0


def test_h2t_diagonal_and_symmetry():
    c = TargetCouplings(u=1.0, x=0.0, y=0.2)
    h = build_h2t(c).matrix
    idx_1m1 = 3 * 0 + 2
    idx_00 = 3 * 1 + 1
    assert h[idx_1m1, idx_1m1] == 1.0 + 2 * 0.2
    assert h[idx_00, idx_00] == 0.0
    c_op = op_charge_conjugation(SPIN1)
    cc = np.kron(c_op, c_op)
    h = build_h2t(TargetCouplings(u=1.1, x=0.7, y=0.3)).matrix
    assert np.max(np.abs(cc @ h - h @ cc)) <= 1e-14


def test_chain_single_link_open():
    c = TargetCouplings(u=1.3, x=0.7, y=0.4)
    h = build_chain_h(c, SPIN1, 1).matrix
    lz = op_lz(SPIN1).matrix
    expected = (0.5 * c.u + c.y) * (lz @ lz) - c.x * op_ux(SPIN1).matrix
    assert np.allclose(h, expected, atol=1e-15)


def test_chain_two_links_diagonal_and_h2t_relation():
    c = TargetCouplings(u=1.3, x=0.0, y=0.4)
    h = build_chain_h(c, SPIN1, 2).matrix
    # |1,1>: U-term gives U, charge terms give (Y/2)(1 + 0 + 1) = Y.
    assert abs(h[0, 0] - (c.u + c.y)) < 1e-14
    lz = op_lz(SPIN1).matrix
    lz2 = lz @ lz
    boundary = 0.5 * c.y * (np.kron(lz2, np.eye(3)) + np.kron(np.eye(3), lz2))
    assert np.allclose(h, build_h2t(c).matrix + boundary, atol=1e-14)


def test_chain_charge_conjugation_all_sizes():
    rng = np.random.default_rng(17)
    for trunc, max_links in ((SPIN1, 4), (SpinTruncation(2), 3)):
        c_site = op_charge_conjugation(trunc)
        for n in range(1, max_links + 1):
            c = TargetCouplings(
                u=rng.uniform(-2, 2), x=rng.uniform(-2, 2), y=rng.uniform(-2, 2)
            )
            h = build_chain_h(c, trunc, n).matrix
            c_global = np.ones((1, 1), dtype=complex)
            for _ in range(n):
                c_global = np.kron(c_global, c_site)
            assert np.max(np.abs(c_global @ h - h @ c_global)) <= 1e-14


def _permutation_matrix(perm):
    """The basis permutation sending |b> to |perm[b]>."""
    m = np.zeros((len(perm), len(perm)))
    m[perm, np.arange(len(perm))] = 1.0
    return m


@pytest.mark.parametrize("m_max", [1, 2])
@pytest.mark.parametrize("n_links", [1, 2, 3])
def test_chain_symmetries_are_c_and_the_link_reflection(m_max, n_links):
    trunc = SpinTruncation(m_max)
    symmetries = chain_symmetries(trunc, n_links)
    assert len(symmetries) == (1 if n_links == 1 else 2)
    c_global = np.ones((1, 1))
    for _ in range(n_links):
        c_global = np.kron(c_global, op_charge_conjugation(trunc).real)
    assert np.array_equal(_permutation_matrix(symmetries[0]), c_global)
    if n_links > 1:
        # P sends |m_1, ..., m_N> to |m_N, ..., m_1>, digit by digit.
        d = trunc.dim
        for b, image in enumerate(symmetries[1]):
            digits = [(b // d**k) % d for k in range(n_links)]  # least significant first
            assert image == sum(digit * d**k for k, digit in enumerate(reversed(digits)))
    for boundary in ("open", "periodic"):
        h = build_chain_h(TargetCouplings(1.1, 0.7, 0.4, boundary), trunc, n_links).matrix
        for g in symmetries:
            assert np.array_equal(h[np.ix_(g, g)], h)


def test_chain_periodic_ring():
    c = TargetCouplings(u=1.0, x=0.5, y=0.3, boundary="periodic")
    h = build_chain_h(c, SPIN1, 3).matrix
    c_site = op_charge_conjugation(SPIN1)
    c_global = np.kron(np.kron(c_site, c_site), c_site)
    assert np.max(np.abs(c_global @ h - h @ c_global)) <= 1e-14


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("m_max,n_links", [(1, 3), (2, 3), (3, 2)])
def test_chain_matches_kron_reference(m_max, n_links, boundary):
    rng = np.random.default_rng(100 * m_max + n_links)
    trunc = SpinTruncation(m_max)
    for _ in range(3):
        u, x, y = rng.uniform(-2, 2, size=3)
        c = TargetCouplings(u=u, x=x, y=y, boundary=boundary)
        h = build_chain_h(c, trunc, n_links).matrix
        assert np.max(np.abs(h - kron_chain_h(c, trunc, n_links))) <= 1e-12


def test_h2t_is_the_kron_chain_without_end_terms():
    rng = np.random.default_rng(5)
    for _ in range(5):
        u, x, y = rng.uniform(-2, 2, size=3)
        c = TargetCouplings(u=u, x=x, y=y)
        assert np.array_equal(build_h2t(c).matrix, kron_chain_h(c, SPIN1, 2, end_terms=False))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
@pytest.mark.parametrize("end_terms", [False, True])
@pytest.mark.parametrize("m_max,n_links", [(1, 1), (1, 2), (1, 4), (2, 3), (3, 2), (5, 1)])
def test_chain_terms_are_the_dense_chain_bit_for_bit(m_max, n_links, boundary, end_terms):
    rng = np.random.default_rng(10 * m_max + n_links)
    trunc = SpinTruncation(m_max)
    for u, x, y in [rng.uniform(-2, 2, size=3), (-1.0, 0.0, 0.0), (1.0, -0.0, -0.5)]:
        c = TargetCouplings(u=u, x=x, y=y, boundary=boundary)
        terms = chain_terms(c, trunc, n_links, end_terms)
        want = dense_chain_h(c, trunc, n_links, end_terms)
        got = terms.matrix
        # Same bits, the sign of zero included.
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        # The full diagonal plus two entries per lowering pair of each link.
        dim = trunc.dim**n_links
        digits = (np.arange(dim)[:, None] // trunc.dim ** np.arange(n_links)) % trunc.dim
        assert terms.values.size == dim + 2 * np.count_nonzero(digits < trunc.dim - 1)


def test_chain_dimension_guard():
    with pytest.raises(ValueError):
        build_chain_h(TargetCouplings(u=1, x=0, y=0), SpinTruncation(2), 6)
    with pytest.raises(ValueError):
        build_chain_h(TargetCouplings(u=1, x=0, y=0), SPIN1, 0)
    with pytest.raises(ValueError, match="n_links"):
        chain_terms(TargetCouplings(u=1, x=0, y=0), SPIN1, 0, end_terms=False)


def test_truncation_guards():
    with pytest.raises(ValueError):
        SpinTruncation(0)
    with pytest.raises(ValueError):
        SpinTruncation(6)
    with pytest.raises(ValueError):
        TargetCouplings(u=1.0, x=0.0, boundary="twisted")


# Kept chain structures: one pattern and sector plan per (truncation, links, boundary,
# end terms), every value checked on every call.


def _fresh(op):
    """The operator of op's entries and values, built and checked without a kept pattern."""
    return SparseHermitian(op.dim, np.array(op.rows), np.array(op.cols), np.array(op.values))


def _message(build) -> str:
    with pytest.raises(ContractViolationError) as error:
        build()
    return str(error.value)


def test_values_on_a_kept_pattern_meet_the_constructors_checks():
    op = build_chain_h(TargetCouplings(1.0, 0.8, 0.3), SpinTruncation(2), 3)
    assert build_chain_h(TargetCouplings(1.1, 0.5, 0.2), SpinTruncation(2), 3).pattern is op.pattern
    scale = np.max(np.abs(op.values))
    off = np.flatnonzero(op.rows != op.cols)[7]
    for bad in (np.nan, np.inf, -np.inf):
        values = op.values.copy()
        values[off] = bad
        kept = _message(lambda: SparseHermitian.from_pattern(op.pattern, values))
        assert kept == "matrix entries must be finite"
        assert kept == _message(lambda: SparseHermitian(op.dim, op.rows, op.cols, values))
    # One entry moved without its mirror: above 1e-11 max|H| refused, below 1e-12 kept.
    for shift, refused in ((2e-11, True), (5e-13, False)):
        values = op.values.copy()
        values[off] += shift * scale
        if refused:
            kept = _message(lambda: SparseHermitian.from_pattern(op.pattern, values))
            assert kept.startswith("matrix is not Hermitian: max|H - H^dagger| = ")
            assert kept == _message(lambda: SparseHermitian(op.dim, op.rows, op.cols, values))
        else:
            on_pattern = SparseHermitian.from_pattern(op.pattern, values)
            assert on_pattern.matrix.tobytes() == _fresh(on_pattern).matrix.tobytes()
    # A value of the wrong count or shape is refused as the constructor refuses it.
    for values in (op.values[:-1], op.values[:, None]):
        kept = _message(lambda: SparseHermitian.from_pattern(op.pattern, values))
        assert kept == _message(lambda: SparseHermitian(op.dim, op.rows, op.cols, values))


def test_values_that_break_p_fail_on_a_kept_sector_plan():
    symmetries = chain_symmetries(SPIN1, 2)
    op = build_chain_h(TargetCouplings(1.0, 0.7, 0.3), SPIN1, 2)
    symmetry_sectors(op, symmetries)
    plan = op.pattern.sectors
    scale = np.max(np.abs(op.values))
    # |1,0> and its C image |-1,0> (indices 1 and 7) move together: C holds, P breaks.
    diagonal = np.flatnonzero(op.rows == op.cols)
    for shift, refused in ((1e-9, True), (1e-13, False)):
        values = op.values.copy()
        values[diagonal[[1, 7]]] += shift * scale
        broken = SparseHermitian.from_pattern(op.pattern, values)
        if refused:
            kept = _message(lambda: symmetry_sectors(broken, symmetries))
            assert kept.startswith("H does not commute with symmetry 1: max|gHg - H| = ")
            assert kept == _message(lambda: symmetry_sectors(_fresh(broken), symmetries))
        else:
            blocks = symmetry_sectors(broken, symmetries)
            fresh = symmetry_sectors(_fresh(broken), symmetries)
            assert [b.matrix.tobytes() for b in blocks] == [b.matrix.tobytes() for b in fresh]
        assert broken.pattern.sectors is plan


def test_a_sector_plan_is_kept_for_identical_symmetries_only():
    op = build_chain_h(TargetCouplings(1.0, 0.7, 0.3), SPIN1, 3)
    c, p = chain_symmetries(SPIN1, 3)
    symmetry_sectors(op, (c, p))
    plan = op.pattern.sectors
    symmetry_sectors(op, (c.copy(), p.copy()))
    assert op.pattern.sectors is plan
    # Other symmetries, or the same entries as another dtype, are planned and checked anew.
    for other in ((c,), (p, c), (c.astype(np.int32), p)):
        symmetry_sectors(op, other)
        assert op.pattern.sectors is not plan
        plan = op.pattern.sectors
    # The bytes of a kept plan's symmetries, read as floats, are not a permutation.
    symmetry_sectors(op, (c, p))
    with pytest.raises(ContractViolationError, match="symmetry 0 is not a permutation"):
        symmetry_sectors(op, (c.view(np.float64), p))


def _kept_arrays(op):
    structure = target_models._chain_structure(SPIN1, 3, "open", True)
    plan = op.pattern.sectors
    yield from (structure.m_squared, structure.charge, *chain_symmetries(SPIN1, 3))
    for pattern in (op.pattern, *(sector[-1] for sector in plan.sectors)):
        yield from (pattern.rows, pattern.cols, pattern.keys, pattern.by_col)
        yield from (pattern.mirror, pattern.hit, pattern.diagonal)
        if pattern.order is not None:
            yield pattern.order
    for pos, hit in plan.images:
        yield from (pos, hit)
    yield from (plan.take, plan.element, plan.position)
    for chi, on, norms, _ in plan.sectors:
        yield from (chi, on, norms)


def test_kept_arrays_are_read_only_and_values_are_not_shared():
    a = build_chain_h(TargetCouplings(1.0, 0.7, 0.3), SPIN1, 3)
    b = build_chain_h(TargetCouplings(0.4, -0.2, 0.9), SPIN1, 3)
    symmetries = chain_symmetries(SPIN1, 3)
    blocks = symmetry_sectors(a, symmetries)
    assert a.pattern is b.pattern and a.rows is b.rows
    assert chain_symmetries(SPIN1, 3) is symmetries and len(symmetries) == 2
    assert np.array_equal(a.pattern.diagonal, np.flatnonzero(a.rows == a.cols))
    assert not np.shares_memory(a.values, b.values)
    assert not np.array_equal(a.values, b.values)
    kept = list(_kept_arrays(a))
    assert a.pattern.order is not None and len(kept) > 20
    for array in [*kept, a.values, b.values]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]

    # Writable copies of the kept permutations name the same plan, which refuses
    # a copy that is no longer an involution and stays kept.
    plan = a.pattern.sectors
    copies = [g.copy() for g in symmetries]
    again = symmetry_sectors(a, copies)
    assert a.pattern.sectors is plan
    assert [x.values.tobytes() for x in again] == [x.values.tobytes() for x in blocks]
    copies[0][[0, 1]] = copies[0][[1, 0]]
    with pytest.raises(ContractViolationError, match="symmetry 0 is not an involution"):
        symmetry_sectors(a, copies)
    symmetry_sectors(a, symmetries)
    assert a.pattern.sectors is plan

    # The permutations of CHAIN_CACHE_SIZE (truncation, links) pairs are kept;
    # one more evicts the oldest, which is built anew.
    target_models.chain_symmetries.cache_clear()
    sizes = [(m, n) for m in (1, 2) for n in (1, 2, 3, 4)]
    assert len(sizes) == target_models.CHAIN_CACHE_SIZE
    held = [chain_symmetries(SpinTruncation(m), n) for m, n in sizes]
    chain_symmetries(SPIN1, 5)
    assert target_models.chain_symmetries.cache_info().currsize == len(sizes)
    assert chain_symmetries(SpinTruncation(1), 2) is held[1]
    rebuilt = chain_symmetries(SpinTruncation(1), 1)
    assert rebuilt is not held[0] and rebuilt[0].tobytes() == held[0][0].tobytes()


def test_the_structure_cache_keeps_the_last_structures_used():
    target_models._chain_structure.cache_clear()
    c = TargetCouplings(1.0, 0.7, 0.3)
    # CHAIN_CACHE_SIZE distinct structures, then one more.
    sizes = [(m, n) for m in (1, 2) for n in (1, 2, 3, 4)]
    assert len(sizes) == target_models.CHAIN_CACHE_SIZE
    ops = [build_chain_h(c, SpinTruncation(m), n) for m, n in sizes]
    assert target_models._chain_structure.cache_info().currsize == len(sizes)
    build_chain_h(c, SPIN1, 5)
    assert target_models._chain_structure.cache_info().currsize == len(sizes)
    # The second is still kept; the first, the oldest, was evicted and is built anew.
    assert build_chain_h(c, SpinTruncation(1), 2).pattern is ops[1].pattern
    rebuilt = build_chain_h(c, SpinTruncation(1), 1)
    assert rebuilt.pattern is not ops[0].pattern
    assert rebuilt.matrix.tobytes() == ops[0].matrix.tobytes()


def test_a_chain_above_the_dimension_cap_adds_no_structure(tmp_path, capsys):
    before = target_models._chain_structure.cache_info().currsize
    with pytest.raises(ValueError, match="n_links = 20 gives dimension 3\\*\\*20"):
        build_chain_h(TargetCouplings(1.0, 0.7, 0.3), SPIN1, 20)
    config = tmp_path / "config.json"
    target = {"kind": "chain", "m_max": 1, "n_links": 20, "U": 1.0, "X": 0.7, "Y": 0.3}
    config.write_text(json.dumps({"mode": "spectrum", "target": target}))
    assert main(["spectrum", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "n_links = 20 gives dimension 3**20" in capsys.readouterr().err
    assert target_models._chain_structure.cache_info().currsize == before
