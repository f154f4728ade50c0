import itertools
import json

import numpy as np
import pytest

from cahm import (
    AtomGeometry,
    Circuit,
    Gate,
    RydbergParams,
    StateVector,
    apply_circuit,
    eig_hermitian,
    ladder_system,
    sample_shots,
)
from cahm.cli import main
from cahm.evolution import simulator_trace, spin_finals
from cahm.numerics import basis_digits
from cahm.trotter import _apply_single, p_matrix, rx_matrix, trotter_step

from helpers import (
    apply_steps,
    circuit_unitary,
    preset_systems,
    tensordot_apply_single,
    two_atom_step,
)

FIG10 = {"omega": -1.5, "delta": -0.5, "v0": 10.0}


def _fig10_pieces():
    system = ladder_system(2, 1, **FIG10)
    psi0 = system.embed(StateVector.basis(3, 0))
    obs = [(label, system.embed(state)) for label, state in spin_finals(3)]
    return system, psi0, obs


def _trotter_probs(psi0, obs, dt, t):
    psi = apply_steps(two_atom_step(**FIG10, dt=dt), psi0, int(round(t / dt)))
    return {label: float(np.abs(st.amplitudes.conj() @ psi.amplitudes) ** 2) for label, st in obs}


def test_gate_matrices_closed_forms():
    lam, phi = 0.7, -1.3
    rx = rx_matrix(lam)
    assert abs(rx[0, 0] - np.cos(lam / 2)) < 1e-15
    assert abs(rx[0, 1] + 1j * np.sin(lam / 2)) < 1e-15
    p = p_matrix(phi)
    assert p[0, 0] == 1.0 and abs(p[1, 1] - np.exp(1j * phi)) < 1e-15
    for m in (rx, p):
        assert np.max(np.abs(m.conj().T @ m - np.eye(2))) <= 1e-14
    # A lone CP phases only |11> and leaves the other basis states untouched.
    cp = Circuit(2, (Gate("CP", (0, 1), phi),))
    for b in range(4):
        out = apply_circuit(cp, StateVector.basis(4, b)).amplitudes
        expected = np.exp(1j * phi) if b == 0b11 else 1.0
        assert out[b] == expected and np.count_nonzero(out) == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_gates_match_the_tensordot_and_mask_oracles(n):
    rng = np.random.default_rng(n)
    state = StateVector.normalized(rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
    state = state.amplitudes
    worst = 0.0
    for q in range(n):
        # RX and P are symmetric; a general matrix also catches a transposed gate.
        general = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for m in (rx_matrix(rng.uniform(-7.0, 7.0)), p_matrix(rng.uniform(-7.0, 7.0)), general):
            got = _apply_single(state, m, q, n)
            assert got.shape == state.shape and got.dtype == np.complex128
            worst = max(worst, float(np.max(np.abs(got - tensordot_apply_single(state, m, q, n)))))
    # Measured at most 2.5e-16 over n = 1..12 (1.1e-16 for RX and P alone).
    assert worst <= 1e-15
    if n > 1:
        bits = basis_digits(2, n, "n")
        for i, j in itertools.permutations(range(n), 2):
            got = apply_circuit(Circuit(n, (Gate("CP", (i, j), 0.7),)), StateVector(state))
            want = state.copy()
            want[(bits[:, i] & bits[:, j]).astype(bool)] *= np.exp(0.7j)
            assert np.array_equal(got.amplitudes, want)


def test_gate_and_circuit_validation():
    with pytest.raises(ValueError):
        Gate("RY", (0,), 1.0)
    with pytest.raises(ValueError):
        Gate("CP", (1, 1), 1.0)
    with pytest.raises(ValueError):
        Circuit(2, (Gate("RX", (4,), 1.0),))


def test_step_identity_limit():
    norms = []
    for dt in (1e-3, 5e-4):
        u = circuit_unitary(two_atom_step(**FIG10, dt=dt))
        norms.append(np.linalg.norm(u - np.eye(4), 2))
    assert norms[0] < 0.05
    assert abs(norms[0] / norms[1] - 2.0) < 0.2  # shrinks linearly with dt


def test_diagonal_sector_exact_at_omega_zero():
    dt, delta, v0 = 0.1, -0.5, 10.0
    step = two_atom_step(0.0, delta, v0, dt)
    psi_rg = StateVector.basis(4, 0b10)
    out = apply_circuit(step, psi_rg)
    assert abs(out.amplitudes[0b10] - np.exp(1j * delta * dt)) <= 1e-15
    # Repeated steps stay exact for all t: all terms commute.
    out = apply_steps(step, psi_rg, 50)
    assert abs(out.amplitudes[0b10] - np.exp(1j * delta * dt * 50)) <= 1e-12
    assert abs(np.abs(out.amplitudes[0b10]) ** 2 - 1.0) <= 1e-12


def test_one_step_error_quadratic():
    system, _, _ = _fig10_pieces()
    spec = eig_hermitian(system.hamiltonian())
    errors = {}
    for dt in (0.05, 0.1, 0.2):
        u_exact = spec.eigenvectors @ np.diag(np.exp(-1j * spec.eigenvalues * dt)) @ spec.eigenvectors.conj().T
        u_trot = circuit_unitary(two_atom_step(**FIG10, dt=dt))
        errors[dt] = np.linalg.norm(u_trot - u_exact, 2)
    # Second-order-per-step: error grows ~4x per dt doubling.
    assert 3.0 <= errors[0.1] / errors[0.05] <= 4.8
    assert 3.0 <= errors[0.2] / errors[0.1] <= 4.8


def test_apply_circuit_basics():
    psi = StateVector.normalized([1.0, 2.0j, -1.0, 0.5])
    empty = Circuit(2, ())
    assert np.array_equal(apply_circuit(empty, psi).amplitudes, psi.amplitudes)
    pi_pulse = Circuit(1, (Gate("RX", (0,), np.pi),))
    out = apply_circuit(pi_pulse, StateVector.basis(2, 0))
    assert abs(out.amplitudes[1] + 1j) <= 1e-15
    assert abs(np.abs(out.amplitudes[1]) ** 2 - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        apply_circuit(pi_pulse, StateVector.basis(4, 0))


def test_apply_circuit_norm_preserved():
    rng = np.random.default_rng(19)
    # Two coupled pairs: V0 within each pair, V1 facing, V2 across the diagonals.
    couplings = {(0, 1): 64.0, (2, 3): 64.0, (0, 2): 0.2, (1, 3): 0.2, (0, 3): 0.13, (1, 2): 0.13}
    geom = AtomGeometry([[0.0, 1.0], [0.0, 0.0], [3.0, 1.0], [3.0, 0.0]], 64.0)
    step = trotter_step(geom, RydbergParams(-1.2, -0.6, pair_overrides=couplings), 0.05)
    psi = StateVector.normalized(rng.normal(size=16) + 1j * rng.normal(size=16))
    out = apply_steps(step, psi, 40)
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) <= 1e-10


@pytest.mark.parametrize("n_qubits", range(1, 7))
def test_apply_circuit_keeps_the_norm_over_random_trotter_steps(n_qubits):
    rng = np.random.default_rng(n_qubits)
    dim = 1 << n_qubits
    psi = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    pairs = [(i, j) for i in range(n_qubits) for j in range(i + 1, n_qubits)]
    for _ in range(20):
        # Geometric couplings on a jittered line, each pair overridden with probability 0.7.
        x = np.arange(n_qubits) + rng.uniform(-0.2, 0.2, n_qubits)
        geom = AtomGeometry(np.column_stack([x, np.zeros(n_qubits)]), rng.uniform(-80.0, 80.0))
        params = RydbergParams(
            omega=rng.uniform(-3.0, 3.0),
            delta=rng.uniform(-5.0, 5.0),
            delta0=rng.uniform(-5.0, 5.0),
            delta0_atoms=np.flatnonzero(rng.random(n_qubits) < 0.5),
            pair_overrides={p: rng.uniform(-80.0, 80.0) for p in pairs if rng.random() < 0.7},
        )
        step = trotter_step(geom, params, rng.uniform(0.01, 0.5))
        for _ in range(5):
            psi = apply_circuit(step, psi)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12


@pytest.mark.parametrize("name,system", list(preset_systems().items()))
def test_p_and_cp_layers_are_the_diagonal_of_the_array(name, system):
    """The digital route's diagonal layers equal exp(-i dt diag H) of the analog array."""
    diagonal = np.diag(system.hamiltonian().matrix)
    n = system.geometry.n_atoms
    for dt in (0.01, 0.1, 0.7):
        step = trotter_step(system.geometry, system.params, dt)
        assert [g.kind for g in step.gates[:n]] == ["RX"] * n
        layers = Circuit(step.n_qubits, tuple(g for g in step.gates if g.kind != "RX"))
        expected = np.diag(np.exp(-1j * dt * diagonal))
        assert np.max(np.abs(circuit_unitary(layers) - expected)) <= 1e-12


def test_trotter_step_checks_the_atom_indices():
    system = ladder_system(2, 1, **FIG10)
    for params in (
        RydbergParams(1.0, 0.5, delta0=0.1, delta0_atoms=(2,)),
        RydbergParams(1.0, 0.5, pair_overrides={(0, 2): 1.0}),
    ):
        with pytest.raises(ValueError, match="outside 0..1"):
            trotter_step(system.geometry, params, 0.1)
    with pytest.raises(ValueError, match="dt must be positive"):
        trotter_step(system.geometry, system.params, 0.0)


def test_trotter_vs_exact_fig10():
    system, psi0, obs = _fig10_pieces()
    exact = simulator_trace(system, StateVector.basis(3, 0), [1.0])
    probs = _trotter_probs(psi0, obs, 0.1, 1.0)
    for label, p in probs.items():
        assert abs(p - exact.series[label][0]) <= 0.05


def test_trotter_error_scaling_on_window():
    system, psi0, obs = _fig10_pieces()
    times = np.arange(1, 21) * 0.1
    exact = simulator_trace(system, StateVector.basis(3, 0), times)

    def max_dev(dt):
        worst = 0.0
        for k, t in enumerate(times):
            probs = _trotter_probs(psi0, obs, dt, t)
            for label, p in probs.items():
                worst = max(worst, abs(p - exact.series[label][k]))
        return worst

    d_coarse, d_fine = max_dev(0.1), max_dev(0.05)
    # Probability deviations on this configuration shrink at least linearly
    # with dt; measured ~4x per halving (return probabilities are even in the
    # leading product-formula error for this real Hamiltonian).
    assert d_fine <= 0.55 * d_coarse
    assert 0.1 <= d_fine / d_coarse


# Basis index of each spin state in the two-atom encoding: |r g> = 10, |g g> = 00, |g r> = 01.
SPIN_INDEX = {"m=1": 0b10, "m=0": 0b00, "m=-1": 0b01}


def test_sample_shots_basis_state():
    counts = sample_shots(StateVector.basis(4, 2), 1000, 7)
    assert counts.tolist() == [0, 0, 1000, 0]
    assert counts[2] / 1000 == 1.0


def test_sample_shots_counts_fit_numpy_integers():
    psi = StateVector.basis(3, 1)
    assert sample_shots(psi, 2**63 - 1, 7).tolist() == [0, 2**63 - 1, 0]
    for shots in (0, 2**63):
        with pytest.raises(ValueError, match="shots"):
            sample_shots(psi, shots, 7)


def test_sample_shots_uniform_within_5_sigma():
    psi = StateVector.normalized(np.ones(4))
    counts = sample_shots(psi, 1000, 20240811)
    sigma = np.sqrt(1000 * 0.25 * 0.75)
    assert counts.shape == (4,)
    assert np.all(np.abs(counts - 250) <= 5 * sigma)
    assert counts.sum() == 1000


def test_sample_shots_deterministic():
    psi = StateVector.normalized([1.0, 0.5j, -0.25, 0.1])
    a = sample_shots(psi, 1000, 42)
    b = sample_shots(psi, 1000, 42)
    assert np.array_equal(a, b)
    c = sample_shots(psi, 1000, 43)
    assert not np.array_equal(c, a)


def test_shot_frequencies_converge():
    system, psi0, obs = _fig10_pieces()
    probs = _trotter_probs(psi0, obs, 0.1, 1.0)
    psi = apply_steps(two_atom_step(**FIG10, dt=0.1), psi0, 10)
    counts = sample_shots(psi, 100_000, 5)
    for label, b in SPIN_INDEX.items():
        assert abs(counts[b] / 100_000 - probs[label]) <= 0.01


def test_circuit_json_round_trip(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**FIG10, "dt": 0.1, "t_max": 0.2, "shots": 10}))
    assert main(["trotter", "--config", str(config), "--out", str(tmp_path)]) == 0
    gates = json.loads((tmp_path / "manifest.json").read_text())["parameters"]["circuit_step"]
    assert gates[0] == {"gate": "RX", "q": [0], "angle": -0.15000000000000002}
    # The manifest's circuit_step holds every gate field.
    rebuilt = Circuit(2, tuple(Gate(d["gate"], tuple(d["q"]), d["angle"]) for d in gates))
    assert rebuilt == two_atom_step(**FIG10, dt=0.1)
