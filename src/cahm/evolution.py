"""Transition-probability traces, time rescaling and agreement scoring.

A trace holds P_f(t) = |<f| exp(-iHt) |psi0>|^2 for a set of labeled final
states on an ascending time grid.  Traces from a target chain and from a
simulator array share labels, so they can be compared directly or after a
multiplicative rescaling of the simulator time axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Operator,
    StateVector,
    basis_digits,
    bitstring_labels,
    eig_hermitian,
    overlaps,
)
from .target_models import SPIN1

# Complete-basis probability series must sum to 1 within this tolerance.
COMPLETENESS_ATOL = 1e-9
# Significant digits of every CSV value.
CSV_DIGITS = 12
# Values formatted per block of CSV rows.
_CSV_BLOCK_VALUES = 2**15


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled times and labeled transition probabilities."""

    times: np.ndarray
    series: dict

    def __post_init__(self):
        t = np.array(self.times, dtype=np.float64)
        if t.ndim != 1 or t.size == 0 or not np.all(np.isfinite(t)):
            raise ValueError("times must be a finite 1d array")
        if np.any(np.diff(t) < 0):
            raise ValueError("times must be ascending")
        clean = {}
        for label, values in self.series.items():
            v = np.array(values, dtype=np.float64)
            if v.shape != t.shape:
                raise ValueError(f"series {label!r} length does not match the time grid")
            # Written so that NaN, which fails every comparison, fails the check too.
            if not (np.all(v >= -1e-12) and np.all(v <= 1.0 + 1e-9)):
                if not np.all(np.isfinite(v)):
                    raise ValueError(f"series {label!r} has non-finite entries")
                raise ValueError(f"series {label!r} has entries outside [0, 1]")
            v.setflags(write=False)
            clean[str(label)] = v
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "series", clean)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.series)

    def to_csv_text(self) -> str:
        """CSV with header t,label1,label2,...; CSV_DIGITS significant digits, LF endings.

        Each block of about _CSV_BLOCK_VALUES values is one `%` of the row
        template "%.12g,...,%.12g" plus a line feed, repeated once per row;
        `%.12g` formats a float exactly as "{:.12g}".format does.  The Python
        floats of the whole table never exist at once.
        """
        columns = [self.times, *self.series.values()]
        row = ",".join([f"%.{CSV_DIGITS}g"] * len(columns)) + "\n"
        rows_per_block = max(1, _CSV_BLOCK_VALUES // len(columns))
        parts = [",".join(["t", *self.series]) + "\n"]
        for start in range(0, self.times.size, rows_per_block):
            block = np.column_stack([c[start : start + rows_per_block] for c in columns])
            parts.append((row * len(block)) % tuple(block.ravel().tolist()))
        return "".join(parts)


@dataclass(frozen=True)
class TraceComparison:
    """Deviation summary between two traces on their common grid."""

    max_abs_dev: float
    rms: float
    per_label: dict = field(default_factory=dict)
    time_window: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.max_abs_dev < 0 or self.rms < 0:
            raise ValueError("deviations must be nonnegative")
        if self.rms > self.max_abs_dev + 1e-12:
            raise ValueError("rms cannot exceed the maximum deviation")

    def to_json_obj(self) -> dict:
        return {
            "max_abs_dev": float(self.max_abs_dev),
            "rms": float(self.rms),
            "per_label": {
                label: {k: float(x) for k, x in d.items()} for label, d in self.per_label.items()
            },
            "time_window": [float(self.time_window[0]), float(self.time_window[1])],
        }


def trace(
    op: Operator,
    psi0: StateVector,
    finals: list[tuple[str, StateVector]],
    times,
) -> EvolutionTrace:
    """Transition probabilities |<f|U(t)|psi0>|^2 for each labeled final state."""
    probs = np.abs(eig_hermitian(op).propagate(psi0, times, [f for _, f in finals])) ** 2
    series = {label: probs[i] for i, (label, _) in enumerate(finals)}
    return EvolutionTrace(times=times, series=series)


def state_probabilities(op: Operator, psi0: StateVector, times) -> np.ndarray:
    """Full basis-state probability matrix |psi_b(t)|^2 with shape (dim, n_times)."""
    return np.abs(eig_hermitian(op).propagate(psi0, times)) ** 2


def simulator_trace(
    op: Operator,
    psi0: StateVector,
    observables: list[tuple[str, StateVector]],
    physical_indices,
    times,
) -> EvolutionTrace:
    """Observable probabilities plus a 'leakage' series.

    Leakage aggregates the probability on every basis state outside
    `physical_indices` (the encoded spin subspace).
    """
    amplitudes = eig_hermitian(op).propagate(psi0, times)
    probs = np.abs(overlaps([f for _, f in observables], amplitudes)) ** 2
    series = {label: probs[i] for i, (label, _) in enumerate(observables)}
    return _with_leakage(times, series, np.abs(amplitudes) ** 2, physical_indices)


def basis_trace(
    times,
    basis_probs: np.ndarray,
    observables: dict[str, int],
    physical_indices,
) -> EvolutionTrace:
    """Probabilities of labeled basis states plus the 'leakage' series of `simulator_trace`.

    `basis_probs` has one row per basis state and one column per time (for
    instance a statevector's |amplitudes|^2 or measured shot frequencies);
    `observables` maps each label to its basis index.
    """
    series = {label: basis_probs[b] for label, b in observables.items()}
    return _with_leakage(times, series, basis_probs, physical_indices)


def _with_leakage(times, series: dict, basis_probs, physical_indices) -> EvolutionTrace:
    series["leakage"] = np.delete(basis_probs, list(physical_indices), axis=0).sum(axis=0)
    return EvolutionTrace(times=times, series=series)


def complete_basis_finals(dim: int) -> list[tuple[str, StateVector]]:
    """One final state per basis vector, labeled by its index as a bitstring."""
    return [(label, StateVector.basis(dim, b)) for b, label in enumerate(bitstring_labels(dim))]


def one_spin_finals() -> list[tuple[str, StateVector]]:
    """The three m-basis states of a single spin-1, labeled m=1, m=0, m=-1."""
    return [(f"m={m}", StateVector.basis(3, i)) for i, m in enumerate((1, 0, -1))]


def symmetric_state_two_spin() -> StateVector:
    """(|0,1> + |0,-1> + |1,0> + |-1,0>) / 2 in the 9-state two-spin basis."""
    m = SPIN1.m_values()[basis_digits(3, 2, "two spins")]
    return StateVector(0.5 * (np.abs(m).sum(axis=1) == 1))


def two_spin_finals() -> list[tuple[str, StateVector]]:
    """|0,0> and the symmetric one-excitation combination, labeled 00 and S."""
    return [("00", StateVector.basis(9, 4)), ("S", symmetric_state_two_spin())]


def compare(
    target: EvolutionTrace,
    sim: EvolutionTrace,
    rescale_k: float | None = None,
) -> TraceComparison:
    """Deviations between shared labels, optionally rescaling the simulator time.

    With a rescale factor K the simulator series are read at t/K (linear
    interpolation on the simulator grid); target times whose rescaled image
    falls outside the simulator grid are dropped.
    """
    labels = [label for label in target.series if label in sim.series]
    if not labels:
        raise ValueError("traces share no labels")
    k = 1.0 if rescale_k is None else float(rescale_k)
    if not k > 0:
        raise ValueError(f"rescale factor must be positive, got {rescale_k!r}")

    source = target.times / k
    lo, hi = sim.times[0], sim.times[-1]
    span = max(hi - lo, 1.0)
    mask = (source >= lo - 1e-12 * span) & (source <= hi + 1e-12 * span)
    if not np.any(mask):
        raise ValueError("no overlap between the target grid and the rescaled simulator grid")
    common_t = target.times[mask]
    source = np.clip(source[mask], lo, hi)

    per_label = {}
    devs = []
    for label in labels:
        sim_vals = np.interp(source, sim.times, sim.series[label])
        d = np.abs(target.series[label][mask] - sim_vals)
        per_label[label] = {
            "max_abs_dev": float(np.max(d)),
            "rms": float(np.sqrt(np.mean(d**2))),
        }
        devs.append(d)
    all_d = np.concatenate(devs)
    return TraceComparison(
        max_abs_dev=float(np.max(all_d)),
        rms=float(np.sqrt(np.mean(all_d**2))),
        per_label=per_label,
        time_window=(float(common_t[0]), float(common_t[-1])),
    )
