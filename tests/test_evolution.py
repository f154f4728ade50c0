import json

import numpy as np
import pytest

from cahm import (
    EvolutionTrace,
    StateVector,
    TargetCouplings,
    build_h1t,
    build_h2t,
    compare,
    ladder_system,
    spin_finals,
    trace,
)
from cahm.evolution import (
    complete_basis_finals,
    simulator_trace,
    state_probabilities,
)
from cahm.rydberg_models import SimulatorSystem
from cahm.target_models import SPIN1

from helpers import op_charge_conjugation, one_spin_rabi_oracle, random_hermitian, sparse_from_dense


def test_trace_t0_and_eigenstate():
    h = build_h1t(TargetCouplings(u=1.0, x=0.0))
    psi0 = StateVector.basis(3, 0)
    tr = trace(h, psi0, spin_finals(3), np.linspace(0, 10, 11))
    assert tr.series["m=1"][0] == 1.0
    assert np.allclose(tr.series["m=1"], 1.0, atol=1e-12)
    assert np.allclose(tr.series["m=0"], 0.0, atol=1e-12)


def test_trace_matches_rabi_closed_form():
    u, x = 1.0, 0.5
    times = np.linspace(0, 10, 501)
    tr = trace(build_h1t(TargetCouplings(u=u, x=x)), StateVector.basis(3, 0), spin_finals(3), times)
    oracle = one_spin_rabi_oracle(u, x, times)
    for label in ("m=1", "m=0", "m=-1"):
        assert np.max(np.abs(tr.series[label] - oracle[label])) <= 1e-9


def test_trace_dim_mismatch():
    h = build_h1t(TargetCouplings(u=1.0, x=0.5))
    with pytest.raises(ValueError):
        trace(h, StateVector.basis(4, 0), spin_finals(3), [0.0, 1.0])
    with pytest.raises(ValueError):
        trace(h, StateVector.basis(3, 0), [("bad", StateVector.basis(4, 0))], [0.0])


def test_symmetric_state():
    s = dict(spin_finals(9))["S"]
    assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) < 1e-15
    assert s.amplitudes[4] == 0.0  # orthogonal to |0,0>
    c_op = op_charge_conjugation(SPIN1)
    cc = np.kron(c_op, c_op)
    assert np.allclose(cc @ s.amplitudes, s.amplitudes, atol=1e-15)


def test_complete_basis_normalization():
    # Complete-basis traces sum to 1 at every time for target and simulators.
    times = np.linspace(0, 10, 101)
    h1 = build_h1t(TargetCouplings(u=1.0, x=0.5))
    tr = trace(h1, StateVector.basis(3, 0), complete_basis_finals(3), times)
    total = np.sum(list(tr.series.values()), axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-9

    system = ladder_system(2, 1, 32.0, -0.5, -0.5)
    tr2 = trace(
        system.hamiltonian(),
        system.embed(StateVector.basis(3, 0)),
        complete_basis_finals(4),
        times,
    )
    total2 = np.sum(list(tr2.series.values()), axis=0)
    assert np.max(np.abs(total2 - 1.0)) <= 1e-9


def _peak_leakage(system, times):
    return float(np.max(simulator_trace(system, StateVector.basis(3, 0), times).series["leakage"]))


def test_blockade_leakage_two_atom():
    times = np.linspace(0, 10, 1001)
    leak = _peak_leakage(ladder_system(2, 1, 32.0, -0.5, -0.5), times)
    assert leak < 0.02
    assert _peak_leakage(ladder_system(2, 1, 64.0, -0.5, -0.5), times) < leak


def test_blockade_leakage_omega_zero():
    assert _peak_leakage(ladder_system(2, 1, 32.0, 0.0, -0.5), np.linspace(0, 10, 51)) == 0.0


def test_simulator_trace_leakage_column():
    system = ladder_system(2, 1, 32.0, -0.5, -0.5)
    tr = simulator_trace(system, StateVector.basis(3, 0), np.linspace(0, 10, 101))
    spin_total = tr.series["m=1"] + tr.series["m=0"] + tr.series["m=-1"]
    assert np.max(np.abs(spin_total + tr.series["leakage"] - 1.0)) <= 1e-9


def test_simulator_trace_diagonalizes_once(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(h):
        calls.append(h.shape)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    system = ladder_system(2, 1, 32.0, -0.5, -0.5)
    simulator_trace(system, StateVector.basis(3, 0), np.linspace(0, 10, 11))
    assert calls == [(4, 4)]


def test_compare_identical_and_errors():
    h = build_h1t(TargetCouplings(u=1.0, x=0.5))
    times = np.linspace(0, 10, 101)
    tr = trace(h, StateVector.basis(3, 0), spin_finals(3), times)
    result = compare(tr, tr)
    assert result.max_abs_dev == 0.0
    assert result.rms == 0.0
    assert result.time_window == (0.0, 10.0)
    other = trace(h, StateVector.basis(3, 0), [("something", StateVector.basis(3, 1))], times)
    with pytest.raises(ValueError):
        compare(tr, other)
    with pytest.raises(ValueError):
        compare(tr, tr, rescale_k=-1.0)


def test_compare_refuses_an_overlap_of_one_target_time():
    h = build_h1t(TargetCouplings(u=1.0, x=0.5))
    tr = trace(h, StateVector.basis(3, 0), spin_finals(3), np.linspace(0, 10, 101))
    with pytest.raises(ValueError, match="overlaps 1 of the target times"):
        compare(tr, tr, rescale_k=1e-6)
    with pytest.raises(ValueError, match="overlaps 0 of the target times"):
        compare(tr, type(tr)(times=tr.times + 20.0, series=tr.series))


@pytest.mark.parametrize("n_states", [2, 27])
def test_spin_finals_refuses_other_basis_sizes(n_states):
    with pytest.raises(ValueError, match=f"got {n_states}"):
        spin_finals(n_states)


def test_compare_rescale_round_trip():
    # A slowed-down copy of the same dynamics compared under the true K only
    # differs by linear-interpolation error.
    h = build_h1t(TargetCouplings(u=1.0, x=0.5))
    psi0 = StateVector.basis(3, 0)
    k = 0.5
    target_tr = trace(h, psi0, spin_finals(3), np.linspace(0, 10, 1001))
    sim_times = np.linspace(0, 20, 1001)
    sim_tr = trace(h, psi0, spin_finals(3), k * sim_times)
    sim_tr_stretched = type(sim_tr)(times=sim_times, series=sim_tr.series)
    result = compare(target_tr, sim_tr_stretched, rescale_k=k)
    assert result.max_abs_dev <= 1e-3


def test_mirror_initial_state_identity():
    h = build_h1t(TargetCouplings(u=1.0, x=0.7))
    times = np.linspace(0, 10, 101)
    from_up = trace(h, StateVector.basis(3, 0), [("m=1", StateVector.basis(3, 0))], times)
    from_down = trace(h, StateVector.basis(3, 2), [("m=-1", StateVector.basis(3, 2))], times)
    assert np.max(np.abs(from_up.series["m=1"] - from_down.series["m=-1"])) <= 1e-12


def test_time_reversal_probabilities():
    h = build_h1t(TargetCouplings(u=1.0, x=0.7))
    h_neg = sparse_from_dense(-h.matrix)
    times = np.linspace(0, 10, 101)
    forward = trace(h, StateVector.basis(3, 0), spin_finals(3), times)
    backward = trace(h_neg, StateVector.basis(3, 0), spin_finals(3), times)
    for label in forward.series:
        assert np.max(np.abs(forward.series[label] - backward.series[label])) <= 1e-12


def test_two_atom_fidelity_invariant():
    times = np.linspace(0, 10, 1001)
    target_tr = trace(
        build_h1t(TargetCouplings(u=1.0, x=0.5)),
        StateVector.basis(3, 0),
        spin_finals(3),
        times,
    )
    sim_tr = simulator_trace(ladder_system(2, 1, 32.0, -0.5, -0.5), StateVector.basis(3, 0), times)
    assert compare(target_tr, sim_tr).max_abs_dev <= 0.02


def test_csv_and_json_serialization():
    from cahm.cli import _json

    h = build_h1t(TargetCouplings(u=1.0, x=0.5))
    tr = trace(h, StateVector.basis(3, 0), spin_finals(3), np.linspace(0, 1, 5))
    text = tr.to_csv_text()
    lines = text.split("\n")
    assert lines[0] == "t,m=1,m=0,m=-1"
    assert len(lines) == 7  # header + 5 rows + trailing newline
    assert text.endswith("\n")
    cobj = json.loads(_json(compare(tr, tr)))
    assert cobj == {
        "max_abs_dev": 0.0,
        "per_label": {label: {"max_abs_dev": 0.0, "rms": 0.0} for label in tr.labels},
        "rms": 0.0,
        "time_window": [0.0, 1.0],
    }


def test_two_spin_finals_shapes():
    finals = spin_finals(9)
    assert finals[0][0] == "00"
    assert finals[0][1].amplitudes[4] == 1.0
    h2 = build_h2t(TargetCouplings(u=1.0, x=1.2, y=0.2))
    tr = trace(h2, StateVector.basis(9, 4), finals, np.linspace(0, 3, 31))
    assert abs(tr.series["00"][0] - 1.0) < 1e-12
    assert tr.series["S"][0] < 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trace_rejects_non_finite_series_by_label(bad):
    with pytest.raises(ValueError, match="series 'a' has non-finite entries"):
        EvolutionTrace(np.array([0.0, 1.0]), {"ok": [0.0, 1.0], "a": [bad, 0.5]})


def test_trace_range_check_keeps_its_bounds():
    EvolutionTrace(np.array([0.0, 1.0]), {"a": [-1e-12, 1.0 + 1e-9]})
    for v in (-2e-12, 1.0 + 2e-9):
        with pytest.raises(ValueError, match="series 'a' has entries outside"):
            EvolutionTrace(np.array([0.0, 1.0]), {"a": [0.5, v]})


@pytest.mark.parametrize("dim", [1, 2, 9, 27, 64])
def test_state_probabilities_columns_sum_to_one(dim):
    rng = np.random.default_rng(dim)
    a = rng.normal(size=(dim, dim))
    uniform = np.linspace(-3.7, 96.3, 1001)
    non_uniform = np.sort(rng.uniform(-3.7, 96.3, 257))
    for m in (a + a.T, random_hermitian(rng, dim, scale=2.0)):
        op = sparse_from_dense(m)
        psi0 = StateVector.normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        for times in (uniform, non_uniform):
            p = state_probabilities(op, psi0, times)
            assert p.shape == (dim, times.size)
            assert np.max(np.abs(p.sum(axis=0) - 1.0)) <= 1e-12


def test_an_array_without_spin_map_refuses_spin_states():
    pair = ladder_system(2, 1, 32.0, -0.5, -0.5)
    custom = SimulatorSystem(pair.geometry, pair.params, spin_map=None, mirror=())
    psi0 = StateVector.basis(3, 0)
    with pytest.raises(ValueError, match="encodes no spins"):
        custom.embed(psi0)
    with pytest.raises(ValueError, match="encodes no spins"):
        simulator_trace(custom, psi0, np.linspace(0.0, 1.0, 11))
