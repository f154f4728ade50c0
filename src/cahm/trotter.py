"""Qubit circuits for Trotterized array evolution, with seeded shot sampling.

One first-order step for the driven blockaded pair is
exp(-i dt H) ~ RX(Omega dt) on each qubit, then P(Delta dt) on each qubit,
then CP(-V0 dt) on the interacting pair, where RX(l) = exp(-i l X / 2),
P(phi) = diag(1, e^{i phi}) and CP(phi) = diag(1, 1, 1, e^{i phi}).
Qubit 0 is the most significant bit of the statevector index; |g> = 0,
|r> = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import StateVector, bitstring_labels, capped_dim

GATE_KINDS = ("RX", "P", "CP")
# numpy's multinomial draw counts in 64-bit integers.
MAX_SHOTS = 2**63 - 1


def rx_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def p_matrix(angle: float) -> np.ndarray:
    return np.array([[1.0, 0.0], [0.0, np.exp(1j * angle)]], dtype=np.complex128)


@dataclass(frozen=True)
class Gate:
    """A single RX / P / CP gate acting on one or two qubits."""

    kind: str
    qubits: tuple[int, ...]
    angle: float

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        qubits = tuple(int(q) for q in self.qubits)
        object.__setattr__(self, "qubits", qubits)
        expected = 2 if self.kind == "CP" else 1
        if len(qubits) != expected or len(set(qubits)) != expected:
            raise ValueError(f"{self.kind} acts on {expected} distinct qubit(s), got {qubits}")
        if not math.isfinite(self.angle):
            raise ValueError("gate angle must be finite")


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on 2**n_qubits <= MAX_DIM amplitudes."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        capped_dim(2, self.n_qubits, "n_qubits")
        gates = tuple(self.gates)
        for g in gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"gate qubit {q} outside 0..{self.n_qubits - 1}")
        object.__setattr__(self, "gates", gates)

    def to_json_obj(self) -> list:
        return [
            {"gate": g.kind, "q": list(g.qubits), "angle": float(g.angle)} for g in self.gates
        ]


def trotter_step(
    n_qubits: int,
    omega: float,
    dt: float,
    detunings,
    pair_couplings: dict,
) -> Circuit:
    """One first-order step for a driven array: RX layer, P layer, CP layer.

    detunings: per-qubit detuning (the P angle is detuning * dt);
    pair_couplings: {(i, j): V} producing CP(-V * dt) on each listed pair.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    detunings = list(detunings)
    if len(detunings) != n_qubits:
        raise ValueError("need one detuning per qubit")
    gates = [Gate("RX", (q,), omega * dt) for q in range(n_qubits)]
    gates += [Gate("P", (q,), detunings[q] * dt) for q in range(n_qubits)]
    gates += [Gate("CP", (min(i, j), max(i, j)), -v * dt) for (i, j), v in pair_couplings.items()]
    return Circuit(n_qubits=n_qubits, gates=tuple(gates))


def trotter_step_h2r(omega: float, delta: float, v0: float, dt: float) -> Circuit:
    """One step for the two-atom Hamiltonian (both qubits detuned by Delta)."""
    return trotter_step(2, omega, dt, [delta, delta], {(0, 1): v0})


def _apply_single(state: np.ndarray, m: np.ndarray, q: int, n: int) -> np.ndarray:
    """The one-qubit gate m on qubit q: one matmul over the (2**q, 2, 2**(n-1-q)) view."""
    if q == n - 1:  # one (2**(n-1), 2) @ (2, 2) product, not 2**(n-1) products of one column
        return (state.reshape(-1, 2) @ m.T).reshape(-1)
    return (m @ state.reshape(1 << q, 2, -1)).reshape(-1)


def apply_circuit(circuit: Circuit, psi0: StateVector) -> StateVector:
    """Sequential statevector application of every gate."""
    n = circuit.n_qubits
    if psi0.dim != 1 << n:
        raise ValueError(f"state dimension {psi0.dim} does not match {n} qubits")
    state = psi0.amplitudes.copy()
    for g in circuit.gates:
        if g.kind == "CP":
            # Diagonal gate: phase the amplitudes with both qubits excited, through a view.
            i, j = sorted(g.qubits)
            state.reshape(1 << i, 2, 1 << (j - i - 1), 2, -1)[:, 1, :, 1] *= np.exp(1j * g.angle)
        else:
            gate = rx_matrix if g.kind == "RX" else p_matrix
            state = _apply_single(state, gate(g.angle), g.qubits[0], n)
    return StateVector(state)


@dataclass(frozen=True)
class ShotResult:
    """Measurement counts per bitstring from a seeded multinomial draw."""

    counts: dict
    shots: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts must sum to the number of shots")

    def frequency(self, bitstring: str) -> float:
        return self.counts.get(bitstring, 0) / self.shots


def sample_shots(psi: StateVector, shots: int, seed: int) -> ShotResult:
    """Multinomial sampling of |amplitude|^2.

    Uses numpy's PCG64 generator seeded with `seed`; identical
    (psi, shots, seed) always reproduce identical counts.
    """
    if not 0 < shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in 1..{MAX_SHOTS}, got {shots}")
    probs = np.abs(psi.amplitudes) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(shots, probs)
    counts = {label: int(k) for label, k in zip(bitstring_labels(psi.dim), draws) if k > 0}
    return ShotResult(counts=counts, shots=shots)
