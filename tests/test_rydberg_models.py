import itertools
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from cahm import (
    AtomGeometry,
    RydbergParams,
    SimulatorSystem,
    SpinAtomMap,
    StateVector,
    build_rydberg_h,
    ladder_geometry,
    ladder_system,
    pair_interaction,
    spin_finals,
)
from cahm.evolution import simulator_trace, state_probabilities
from cahm.numerics import ContractViolationError, symmetry_sectors
from cahm.rydberg_models import array_couplings, atom_permutation, ladder_cross_couplings
from helpers import (
    closed_form_cross_couplings,
    loop_couplings,
    loop_permutation_matrix,
    loop_rydberg_h,
    op_charge_conjugation,
    preset_systems,
)

# Complete-basis probability series must sum to 1 within this tolerance.
COMPLETENESS_ATOL = 1e-9


def test_pair_interaction_power_law():
    v0 = pair_interaction(32.0, 1.0)
    assert pair_interaction(32.0, 2.0) == v0 / 64.0
    assert abs(pair_interaction(32.0, 10.0) - v0 / 1e6) < 1e-18
    with pytest.raises(ValueError):
        pair_interaction(1.0, 0.0)
    # Beyond the float range of r^6: no interaction, or an infinite one rejected.
    assert pair_interaction(32.0, 1e100) == 0.0
    for r in (1e-60, 1e-55):
        with pytest.raises(ValueError, match="infinite"):
            pair_interaction(32.0, r)


@pytest.mark.parametrize("n_atoms", [1, 2, 6, 12])
def test_couplings_equal_the_per_pair_reference(n_atoms):
    rng = np.random.default_rng(n_atoms)
    geoms = [AtomGeometry(rng.uniform(-3.0, 3.0, size=(n_atoms, 2)), 30.0) for _ in range(3)]
    # Pairs beyond the float range of r^6 do not interact.
    geoms.append(AtomGeometry(1e60 * np.arange(2.0 * n_atoms).reshape(n_atoms, 2), 30.0))
    for geom in geoms:
        got, want = geom.couplings(), loop_couplings(geom)
        assert list(got) == list(want)
        assert np.array_equal(list(got.values()), list(want.values()))
    # A pair so close that V is not finite is still rejected.
    with pytest.raises(ValueError, match="infinite"):
        AtomGeometry(np.array([[0.0, 0.0], [0.0, 1e-60]]), 30.0).couplings()


def test_pair_interaction_diagonal_distance():
    # Distance sqrt(1 + rho^2)/rho in units of the rung spacing gives the
    # one-row-apart cross coupling V0 (rho/sqrt(1+rho^2))^6.
    v0, rho = 5.0, 0.4
    r = np.sqrt(1 + rho**2) / rho
    expected = v0 * (rho / np.sqrt(1 + rho**2)) ** 6
    assert abs(pair_interaction(v0, r) - expected) < 1e-15


def test_two_atom_diagonal_energies():
    system = ladder_system(2, 1, omega=0.0, delta=-0.5, v0=32.0)
    diag = np.diag(system.hamiltonian().matrix).real
    # Basis order |gg>, |gr>, |rg>, |rr>.
    assert np.allclose(diag, [0.0, 0.5, 0.5, 1.0 + 32.0])


def test_three_atom_diagonal_energies_all_states():
    rng = np.random.default_rng(3)
    for _ in range(5):
        delta, delta0, v0 = rng.uniform(-5, 20, size=3)
        system = ladder_system(3, 1, v0, 0.0, delta, delta0)
        h = system.hamiltonian().matrix
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
        for b in range(8):
            bits = [(b >> (2 - i)) & 1 for i in range(3)]
            expected = -delta * sum(bits) - delta0 * bits[1]
            expected += v0 * (bits[0] * bits[1] + bits[1] * bits[2])
            expected += v0 / 64.0 * bits[0] * bits[2]
            assert abs(h[b, b].real - expected) < 1e-12
    # Named auxiliary states at (delta, delta0, v0).
    system = ladder_system(3, 1, 30.0, 0.0, 1.25, 0.5)
    diag = np.diag(system.hamiltonian().matrix).real
    assert abs(diag[0b101] - (-2 * 1.25 + 30.0 / 64.0)) < 1e-12
    assert abs(diag[0b111] - (-3 * 1.25 - 0.5 + 2 * 30.0 + 30.0 / 64.0)) < 1e-12


def test_rydberg_h_hermitian_and_offdiagonal():
    system = ladder_system(2, 1, omega=-0.5, delta=-0.5, v0=32.0)
    h = system.hamiltonian().matrix
    assert np.max(np.abs(h - h.conj().T)) <= 1e-14
    assert h[0b00, 0b10] == -0.25
    assert h[0b01, 0b11] == -0.25


def test_geometry_constructors():
    assert abs(ladder_geometry(2, 1, 1.0, 1.0, 32.0).couplings()[(0, 1)] - 32.0) < 1e-12
    c3 = ladder_geometry(3, 1, 1.0, 1.0, 30.0).couplings()
    assert abs(c3[(0, 1)] - 30.0) < 1e-12
    assert abs(c3[(0, 2)] - 30.0 / 64.0) < 1e-15
    doubled = ladder_geometry(3, 1, 2.0, 1.0, 30.0).couplings()
    for pair in c3:
        assert abs(doubled[pair] - c3[pair] / 64.0) < 1e-15


def test_mirrored_ladder_couplings():
    # rho = (Y/V0)^(1/6) with Y=0.2, V0=64 and the derived V1, V2.
    v0, y = 64.0, 0.2
    rho = (y / v0) ** (1.0 / 6.0)
    assert abs(rho - 0.3823622) < 1e-6
    geom = ladder_geometry(2, 2, 1.0, 1.0 / rho, v0)
    c = geom.couplings()
    assert abs(c[(0, 2)] - y) < 1e-14  # facing pair V1 = Y by construction
    v2_expected = v0 * (rho / np.sqrt(1 + rho**2)) ** 6
    assert abs(c[(0, 3)] - v2_expected) < 1e-14
    assert abs(v2_expected - 0.1328152) < 1e-6

    rho3, v03 = 0.326, 30.0
    geom3 = ladder_geometry(3, 2, 1.0, 1.0 / rho3, v03)
    c3 = geom3.couplings()
    assert abs(c3[(0, 3)] - v03 * rho3**6) < 1e-12
    assert abs(c3[(0, 3)] - 0.036013) < 5e-6
    v3_expected = v03 * (rho3 / np.sqrt(1 + 4 * rho3**2)) ** 6
    assert abs(c3[(0, 5)] - v3_expected) < 1e-14
    # The facing middle atoms interact with the full facing strength V1.
    assert abs(c3[(1, 4)] - c3[(0, 3)]) < 1e-14


@pytest.mark.parametrize("a_r,a_s", [(1.0, 1.0), (1.0, 1.0 / 0.326), (0.7, 1.0 / 0.3823622)])
def test_ladder_geometry_places_the_hand_written_arrays(a_r, a_s):
    # The arrays of the former vertical-pair, three-in-line and two-column builders.
    hand_written = {
        (2, 1): [[0.0, a_r], [0.0, 0.0]],
        (3, 1): [[0.0, 2 * a_r], [0.0, a_r], [0.0, 0.0]],
        (2, 2): [[0.0, a_r * 1], [0.0, a_r * 0], [a_s, a_r * 1], [a_s, a_r * 0]],
        (3, 2): [[0.0, a_r * 2], [0.0, a_r * 1], [0.0, a_r * 0],
                 [a_s, a_r * 2], [a_s, a_r * 1], [a_s, a_r * 0]],
    }
    for (rows, columns), positions in hand_written.items():
        got = ladder_geometry(rows, columns, a_r, a_s, 30.0).positions
        assert got.tobytes() == np.array(positions).tobytes()
    with pytest.raises(ValueError, match="positive"):
        ladder_geometry(2, 2, 1.0, 0.0, 30.0)
    with pytest.raises(ValueError, match="columns must be at least 1, got 0"):
        ladder_geometry(2, 0, 1.0, 1.0, 1.0)


def test_factories_derive_the_former_mirrors_and_delta0_atoms():
    cases = [
        (ladder_system(2, 1, 32.0, -0.5, -0.5), (1, 0), ()),
        (ladder_system(3, 1, 30.0, 1.0, 15.0, 0.7), (2, 1, 0), (1,)),
        (ladder_system(2, 2, 64.0, -1.2, -0.6, rho=0.38), (1, 0, 3, 2), ()),
        (ladder_system(3, 2, 30.0, 1.0, 15.0, rho=0.326), (2, 1, 0, 5, 4, 3), (1, 4)),
    ]
    for system, mirror, delta0_atoms in cases:
        assert system.mirror == mirror
        assert system.params.delta0_atoms == delta0_atoms


@pytest.mark.parametrize("columns", [1, 2, 3])
@pytest.mark.parametrize("rows", [2, 3])
def test_every_ladder_commutes_with_its_derived_mirror(rows, columns):
    system = ladder_system(rows, columns, 30.0, 1.0, 15.0, 2.5, rho=0.326 if columns > 1 else None)
    assert len(system.params.delta0_atoms) == (columns if rows == 3 else 0)
    assert system.spin_map == SpinAtomMap(rows, columns)
    blocks = symmetry_sectors(system.hamiltonian(), [atom_permutation(system.mirror)])
    assert sum(b.dim for b in blocks) == 2**system.geometry.n_atoms
    # A delta0 on a top atom breaks the mirror.
    tilted = replace(system, params=replace(system.params, delta0_atoms=(0,)))
    with pytest.raises(ContractViolationError, match="does not commute"):
        symmetry_sectors(tilted.hamiltonian(), [atom_permutation(system.mirror)])


# The derived keys of each named kind, also under the overrides that its config fields set.
SIX_ATOM_KEYS = {"v0", "v0_far", "rho", "v1", "v2", "v3", "middle_pair"}
NAMED_KEYS = {
    "two-atom": (2, 1, None, {"v0"}),
    "three-atom": (3, 1, None, {"v0", "v0_far"}),
    "four-atom": (2, 2, None, {"v0", "rho", "v1", "v2"}),
    "four-atom-v2-override": (
        2, 2, {(0, 3): -0.2, (1, 2): -0.2}, {"v0", "rho", "v1", "v2", "v2_geometric"}
    ),
    "six-atom": (3, 2, None, SIX_ATOM_KEYS),
    "six-atom-truncated": (3, 2, {(1, 4): 0.0}, SIX_ATOM_KEYS),
}


def test_derived_couplings_are_the_array_couplings_at_their_row_offsets():
    for name, (rows, columns, overrides, keys) in NAMED_KEYS.items():
        rho = 0.326 if columns > 1 else None
        system = ladder_system(rows, columns, 30.0, 1.0, 15.0, rho=rho, overrides=overrides)
        assert set(system.derived) == keys, name
    for rows, columns in itertools.product((2, 3), (1, 2, 3)):
        rho = 0.326 if columns > 1 else None
        # The atom pair of each derived coupling: its row offsets within a column and to column 1.
        pairs = {"v0": (0, 1), "v0_far": (0, 2)} if rows == 3 else {"v0": (0, 1)}
        override_sets = [None, {(1, 0): 25.0}]
        if columns > 1:
            pairs |= {f"v{k + 1}": (0, rows + k) for k in range(rows)}
            # Both diagonals one row apart; the facing pair of row 1 cut, and V1 replaced.
            override_sets += [
                {(0, rows + 1): -0.2, (1, rows): -0.2},
                {(1, rows + 1): 0.0, (rows, 0): 0.1},
            ]
        for overrides in override_sets:
            system = ladder_system(rows, columns, 30.0, 1.0, 15.0, rho=rho, overrides=overrides)
            couplings = array_couplings(system.geometry, system.params)
            geometric, replaced = system.geometry.couplings(), system.params.pair_overrides or {}
            expected = {n: couplings[p] for n, p in pairs.items()}
            expected |= {f"{n}_geometric": geometric[p] for n, p in pairs.items() if p in replaced}
            if columns > 1:
                expected["rho"] = rho
            if rows == 3 and columns > 1:
                expected["middle_pair"] = couplings[(1, 4)]
            assert system.derived == expected, (rows, columns, overrides)


def test_ladder_coupling_ordering():
    for rho in np.linspace(0.05, 0.95, 10):
        cc = ladder_cross_couplings(30.0, float(rho), 3)
        assert cc["v1"] > cc["v2"] > cc["v3"] > 0.0


def test_ladder_cross_couplings_equal_their_closed_forms_bit_for_bit():
    def bits(couplings):
        return {name: struct.pack("<d", v) for name, v in couplings.items()}

    rng = np.random.default_rng(3303)
    # Seeded draws of rho in [0, 1) and V0 of either sign over six decades, plus
    # the edges of rho (zero, subnormal, fig7's, the six-atom fig8 point, below 1).
    rhos = rng.uniform(0.0, 1.0, 10_000)
    v0s = rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-3.0, 3.0, 10_000)
    draws = list(zip(rhos.tolist(), v0s.tolist()))
    edges = [0.0, -0.0, 5e-324, 1e-160, (0.2 / 64.0) ** (1.0 / 6.0), 0.326, math.nextafter(1.0, 0)]
    draws += itertools.product(edges, [0.0, 1e-3, 30.0, 64.0, 1e300])
    for rho, v0 in draws:
        for rows in (2, 3):
            expected = closed_form_cross_couplings(v0, rho, rows)
            assert bits(ladder_cross_couplings(v0, rho, rows)) == bits(expected)
    # At rho = 0 every V_k is V0 * 0.0; the closed forms' +0.0 for V2 and V3 differs from it
    # only for V0 < 0, which no match passes at rho = 0 (the four-atom match refuses V0 <= 0,
    # the six-atom rho bracket starts at 0.02).
    assert bits(ladder_cross_couplings(-30.0, 0.0, 3)) == bits({"v1": -0.0, "v2": -0.0, "v3": -0.0})


def test_mirror_commutes_with_hamiltonian():
    systems = [
        ladder_system(2, 1, 32.0, -0.5, -0.5),
        ladder_system(3, 1, 30.0, 1.0, 15.0, 0.7),
        ladder_system(2, 2, 64.0, -1.2, -0.6, rho=0.38),
        ladder_system(3, 2, 30.0, 1.0, 15.0, 0.4, rho=0.326),
    ]
    for system in systems:
        h = system.hamiltonian().matrix
        m = loop_permutation_matrix(system.mirror)
        assert np.max(np.abs(m @ h - h @ m)) <= 1e-14


def test_pair_overrides_reproduce_geometry_bitwise():
    geom = ladder_geometry(2, 2, 1.0, 2.5, 64.0)
    base = build_rydberg_h(geom, RydbergParams(omega=-1.2, delta=-0.6))
    overridden = build_rydberg_h(
        geom, RydbergParams(omega=-1.2, delta=-0.6, pair_overrides=geom.couplings())
    )
    assert np.array_equal(base.matrix, overridden.matrix)


def test_pair_override_given_twice_is_refused():
    with pytest.raises(ValueError, match=r"\(1, 0\) repeats the pair \(0, 1\)"):
        RydbergParams(omega=1.0, delta=1.0, pair_overrides={(0, 1): 1.0, (1, 0): 2.0})


def test_four_atom_override_changes_only_v2_pairs():
    overrides = {(0, 3): -0.2, (1, 2): -0.2}
    system = ladder_system(2, 2, 64.0, -1.2, -0.6, rho=0.382, overrides=overrides)
    h = system.hamiltonian().matrix
    # |rggr> has both same-m atoms (0, 3) excited: energy 2*0.6 + v2_override.
    idx = 0b1001
    assert abs(h[idx, idx].real - (1.2 - 0.2)) < 1e-12
    assert system.derived["v2"] == -0.2
    assert system.derived["v2_geometric"] > 0


def test_spin_maps_and_embedding():
    # Spin-basis order m = 1, 0, -1.
    assert SpinAtomMap(2, 1).indices == (0b10, 0b00, 0b01)
    assert SpinAtomMap(3, 1).indices == (0b100, 0b010, 0b001)

    embedded = ladder_system(3, 1, 30.0, 1.0, 15.0, 0.0).embed(StateVector.basis(3, 0))
    assert embedded.amplitudes[0b100] == 1.0
    plus = StateVector.normalized([1.0, 0.0, 1.0])
    out = ladder_system(2, 1, 32.0, -0.5, -0.5).embed(plus)
    assert abs(out.amplitudes[0b10] - 1 / np.sqrt(2)) < 1e-15
    assert abs(out.amplitudes[0b01] - 1 / np.sqrt(2)) < 1e-15
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) < 1e-12


def test_two_spin_map_indices():
    # Two-spin states (m_left, m_right) in the order (1, 1), (1, 0), ..., (-1, -1);
    # the mirrored right column carries the pattern of -m_right.
    pair = SpinAtomMap(2, 2)
    assert pair.n_atoms == 4
    assert pair.indices[4] == 0b0000  # (0, 0)
    assert pair.indices[0] == 0b1001  # (1, 1)
    assert pair.indices[2] == 0b1010  # (1, -1)
    pair6 = SpinAtomMap(3, 2)
    assert pair6.n_atoms == 6
    assert pair6.indices[4] == 0b010010  # (0, 0)
    assert pair6.indices[1] == 0b100010  # (1, 0)
    assert pair6.indices[3] == 0b010001  # (0, 1)
    s_embedded = ladder_system(2, 2, 64.0, -1.2, -0.6, rho=0.38).embed(dict(spin_finals(9))["S"])
    support = {i for i, a in enumerate(s_embedded.amplitudes) if abs(a) > 0}
    assert support == {0b0001, 0b0010, 0b0100, 0b1000}


def test_ladder_spin_map_equals_the_column_loop():
    # Column k reads the one-column pattern of m, or of -m when k is odd, up to the
    # 3**7 = 2187-state spin basis under the 4096 cap; the map is injective and in range.
    for rows in (2, 3):
        column = dict(zip((1, 0, -1), SpinAtomMap(rows, 1).indices))
        for n_spins in range(1, 8):
            spin_map = SpinAtomMap(rows, n_spins)
            expected = []
            for ms in itertools.product((1, 0, -1), repeat=n_spins):
                index = 0
                for k, m in enumerate(ms):
                    index = (index << rows) | column[-m if k % 2 else m]
                expected.append(index)
            assert spin_map.indices == tuple(expected)
            assert spin_map.n_atoms == rows * n_spins
            assert len(set(spin_map.indices)) == len(spin_map.indices)
            assert min(spin_map.indices) >= 0
            assert max(spin_map.indices) < 2**spin_map.n_atoms
    with pytest.raises(ValueError):
        SpinAtomMap(4, 1)
    with pytest.raises(ValueError, match="n_spins must be at least 1, got 0"):
        SpinAtomMap(2, 0)
    with pytest.raises(ValueError, match=r"n_spins = 8 gives dimension 3\*\*8"):
        SpinAtomMap(2, 8)


def test_embed_rejects_unmapped_support():
    two = ladder_system(2, 1, 32.0, -0.5, -0.5)
    with pytest.raises(ValueError, match="state dimension 4 does not match the 3-state"):
        two.embed(StateVector.basis(4, 0))
    # A spin map or mirror that does not fit the geometry is refused when the system is
    # built, not later by a propagation whose state does not match H.
    six = ladder_system(3, 2, 30.0, 1.0, 15.0, rho=0.326)
    for spin_map, mirror in [(two.spin_map, two.mirror), (two.spin_map, six.mirror)]:
        with pytest.raises(ValueError, match="a 2-atom spin map on a 6-atom geometry"):
            SimulatorSystem(six.geometry, six.params, spin_map, mirror)
    for mirror in [two.mirror, (0, 1, 2, 3, 4, 4), (0, 1, 2, 3, 4, 6)]:
        with pytest.raises(ValueError, match=r"is not a permutation of the 6 atoms"):
            SimulatorSystem(six.geometry, six.params, six.spin_map, mirror)
    with pytest.raises(ValueError, match=r"mirror \(0, 0\) is not a permutation of the 2 atoms"):
        SimulatorSystem(two.geometry, two.params, two.spin_map, (0, 0))
    assert SimulatorSystem(six.geometry, six.params, None, ()).spin_map is None


def test_mirror_permutation_matches_charge_conjugation():
    # The vertical flip of every column acts on the encoded spins as C on each spin.
    systems = [
        ladder_system(2, 1, 32.0, -0.5, -0.5),
        ladder_system(3, 1, 30.0, 1.0, 15.0, 0.7),
        ladder_system(2, 2, 64.0, -1.2, -0.6, rho=0.38),
        ladder_system(3, 2, 30.0, 1.0, 15.0, rho=0.326),
    ]
    c = op_charge_conjugation()
    for system in systems:
        m = loop_permutation_matrix(system.mirror)
        n_states = len(system.spin_map.indices)
        c_all = c if n_states == 3 else np.kron(c, c)
        for k in range(n_states):
            psi = StateVector.basis(n_states, k)
            conjugated = system.embed(StateVector(c_all @ psi.amplitudes))
            assert np.array_equal(m @ system.embed(psi).amplitudes, conjugated.amplitudes)


def test_geometry_validation():
    with pytest.raises(ValueError):
        AtomGeometry(np.array([[0.0, 0.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(ValueError):
        ladder_geometry(4, 2, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        ladder_system(2, 2, 64.0, 1.0, 1.0, rho=1.5)


def test_coinciding_atoms_match_the_pairwise_reference():
    # Small integer grids (and a signed zero) force coincidences; the sorted
    # check must agree with the pairwise loop and name a coinciding pair.
    rng = np.random.default_rng(5)
    layouts = [rng.integers(0, 3, size=(n, 2)).astype(float) for n in range(1, 9) for _ in range(6)]
    layouts.append(np.array([[0.0, 1.0], [-0.0, 1.0]]))
    for p in layouts:
        pairs = [
            (i, j)
            for i in range(len(p))
            for j in range(i + 1, len(p))
            if np.hypot(*(p[i] - p[j])) == 0.0
        ]
        if not pairs:
            assert AtomGeometry(p, 1.0).n_atoms == len(p)
            continue
        with pytest.raises(ValueError, match="coincide") as err:
            AtomGeometry(p, 1.0)
        named = re.search(r"atoms (\d+) and (\d+)", str(err.value)).groups()
        assert tuple(map(int, named)) in pairs


@pytest.mark.parametrize("name,system", list(preset_systems().items()))
def test_preset_hamiltonians_equal_the_loop_reference_bitwise(name, system):
    h = system.hamiltonian().matrix
    assert h.dtype == np.float64
    assert h.tobytes() == loop_rydberg_h(system.geometry, system.params).tobytes()


@pytest.mark.parametrize("n_atoms", range(1, 11))
def test_custom_hamiltonians_equal_the_loop_reference_bitwise(n_atoms):
    rng = np.random.default_rng(100 + n_atoms)
    for _ in range(3):
        geom = AtomGeometry(rng.uniform(-3.0, 3.0, size=(n_atoms, 2)), rng.uniform(1.0, 50.0))
        extra = rng.integers(0, n_atoms, size=rng.integers(0, 4))
        # Sorted keys: a pair drawn twice keeps its last value instead of being refused.
        pairs = [
            tuple(sorted(rng.choice(n_atoms, size=2, replace=False).tolist()))
            for _ in range(n_atoms // 2)
        ]
        params = RydbergParams(
            omega=rng.uniform(-2.0, 2.0),
            delta=rng.uniform(-5.0, 20.0),
            delta0=rng.uniform(-3.0, 3.0),
            # A repeated delta0 atom is refused: each atom drawn is kept once, in draw order.
            delta0_atoms=tuple(dict.fromkeys(int(i) for i in extra)),
            pair_overrides={pair: rng.uniform(-1.0, 1.0) for pair in pairs},
        )
        # Omega = -0.0 as well: the drive entries keep the loop's sign of zero.
        for p in (params, replace(params, omega=-0.0)):
            h = build_rydberg_h(geom, p).matrix
            assert h.dtype == np.float64
            assert h.tobytes() == loop_rydberg_h(geom, p).tobytes()


def test_atom_permutations_equal_the_loop_reference():
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            g = atom_permutation(perm)
            assert g.dtype.kind == "i"
            m = np.zeros((g.size, g.size))
            m[g, np.arange(g.size)] = 1.0
            assert np.array_equal(m, loop_permutation_matrix(perm))


@pytest.mark.parametrize("name,system", list(preset_systems().items()))
def test_encoded_probabilities_plus_leakage_sum_to_one(name, system):
    indices = list(system.spin_map.indices)
    times = np.linspace(0.0, 50.0, 501)
    rng = np.random.default_rng(len(indices))
    for _ in range(3):
        spin = StateVector.normalized(
            rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
        )
        tr = simulator_trace(system, spin, times)
        probs = state_probabilities(system.hamiltonian(), system.embed(spin), times)
        encoded = probs[indices].sum(axis=0)
        assert np.max(np.abs(encoded + tr.series["leakage"] - 1.0)) <= COMPLETENESS_ATOL
        if len(indices) == 3:
            m_total = tr.series["m=1"] + tr.series["m=0"] + tr.series["m=-1"]
            assert np.max(np.abs(m_total + tr.series["leakage"] - 1.0)) <= COMPLETENESS_ATOL
