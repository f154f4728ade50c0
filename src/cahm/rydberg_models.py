"""Rydberg-array Hamiltonians from atom geometry.

Atoms are two-level systems |g>, |r> at fixed 2D positions with repulsive
1/r^6 pair interactions

    H = (Omega/2) sum_i (|g_i><r_i| + |r_i><g_i|) - Delta sum_i n_i
        - Delta0 sum_{i in designated} n_i + sum_{i<j} V_ij n_i n_j.

The 2^n product basis is the bit table of `numerics.basis_digits` (atom 0 is
the most significant bit) with |g> = 0 and |r> = 1.  Every named array is
one `ladder_system`: columns of two or three atoms, each holding one encoded
spin-1, with odd columns mirrored, so that reflecting every column realizes
charge conjugation (spin sign flip) geometrically.  Its derived couplings are
those of `array_couplings`, overrides applied, read by row offset: v0 and
v0_far within a column, v1..v{rows} from atom 0 to the next column, and the
middle pair.  Its spin map, `SpinAtomMap(rows, n_spins)`, follows from the
rows and the number of columns: it lists the product-basis index of every
spin-basis state in the digit order of `basis_digits(3, n_spins)`, that is
m = 1, 0, -1 with the left spin most significant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import SparseHermitian, StateVector, basis_digits, site_strides

# The excited-atom bits of m = 1, 0, -1 in a column of 2 or 3 atoms (top atom first).
_COLUMN_PATTERNS = {2: (0b10, 0b00, 0b01), 3: (0b100, 0b010, 0b001)}


def pair_interaction(scale: float, r: float) -> float:
    """Van der Waals pair energy scale / r^6; `scale` is the energy at unit distance.

    A pair whose r^6 overflows does not interact; a pair so close that the
    energy is not finite is rejected.
    """
    if not r > 0:
        raise ValueError(f"pair distance must be positive, got {r!r}")
    try:
        r6 = r**6
    except OverflowError:
        return 0.0
    v = scale / r6 if r6 > 0.0 else math.inf
    if not math.isfinite(v):
        raise ValueError(f"pair distance {r!r} gives an infinite interaction at scale {scale!r}")
    return v


@dataclass(frozen=True)
class AtomGeometry:
    """Fixed 2D atom positions plus the interaction energy at unit distance."""

    positions: np.ndarray
    interaction_scale: float

    def __post_init__(self):
        p = np.array(self.positions, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 1:
            raise ValueError(f"positions must be an (n, 2) array, got shape {p.shape}")
        if not np.all(np.isfinite(p)) or not math.isfinite(self.interaction_scale):
            raise ValueError("positions and interaction scale must be finite")
        # Coinciding atoms are neighbors once the rows are sorted.
        order = np.lexsort(p.T[::-1])
        same = np.all(p[order[1:]] == p[order[:-1]], axis=1)
        if same.any():
            k = int(np.argmax(same))
            i, j = sorted(order[k : k + 2])
            raise ValueError(f"atoms {i} and {j} coincide")
        p.setflags(write=False)
        object.__setattr__(self, "positions", p)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def couplings(self) -> dict[tuple[int, int], float]:
        """Geometry-derived V_ij for every pair i < j, in ascending (i, j).

        The distances come from one array; each r^6 stays Python's pow, since
        numpy's power rounds some r^6 differently.
        """
        d = self.positions[:, None, :] - self.positions[None, :, :]
        r = np.hypot(d[..., 0], d[..., 1]).tolist()
        return {
            (i, j): pair_interaction(self.interaction_scale, r[i][j])
            for i, j in itertools.combinations(range(self.n_atoms), 2)
        }


@dataclass(frozen=True)
class RydbergParams:
    """Drive and detuning parameters; pair_overrides replace geometric V_ij."""

    omega: float
    delta: float
    delta0: float = 0.0
    delta0_atoms: tuple[int, ...] = ()
    pair_overrides: dict[tuple[int, int], float] | None = None

    def __post_init__(self):
        for name in ("omega", "delta", "delta0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        atoms = tuple(int(i) for i in self.delta0_atoms)
        if len(set(atoms)) != len(atoms):
            raise ValueError(f"delta0 atoms {atoms} repeat an atom")
        object.__setattr__(self, "delta0_atoms", atoms)
        if self.pair_overrides is not None:
            normalized = {}
            for (i, j), v in self.pair_overrides.items():
                if i == j:
                    raise ValueError(f"pair override ({i}, {j}) is not a pair")
                if not math.isfinite(v):
                    raise ValueError(f"pair override ({i}, {j}) must be finite")
                pair = (min(i, j), max(i, j))
                if pair in normalized:
                    raise ValueError(f"pair override ({i}, {j}) repeats the pair {pair}")
                normalized[pair] = float(v)
            object.__setattr__(self, "pair_overrides", normalized)


def array_couplings(geom: AtomGeometry, params: RydbergParams) -> dict[tuple[int, int], float]:
    """V_ij of every pair i < j in ascending (i, j): the geometry's, replaced by the overrides.

    Raises ValueError when a delta0 atom or an overridden pair lies outside the array.
    """
    n = geom.n_atoms
    for i in params.delta0_atoms:
        if not 0 <= i < n:
            raise ValueError(f"delta0 atom index {i} outside 0..{n - 1}")
    overrides = params.pair_overrides or {}
    for i, j in overrides:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"pair override ({i}, {j}) outside 0..{n - 1}")
    return geom.couplings() | overrides


def build_rydberg_h(geom: AtomGeometry, params: RydbergParams) -> SparseHermitian:
    """The 2^n array as its terms: the bit-table diagonal and each atom's flip b <-> b ^ bit.

    A diagonal beyond the float range raises a ValueError naming delta,
    delta0 and the pair energies.
    """
    n = geom.n_atoms
    bits = basis_digits(2, n, "number of positions")
    couplings = array_couplings(geom, params)

    n_excited = bits.sum(axis=1, dtype=np.float64)
    n_extra = bits[:, list(params.delta0_atoms)].sum(axis=1, dtype=np.float64)
    excited = bits.T.astype(bool)
    # An overflow is refused below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        energy = -params.delta * n_excited - params.delta0 * n_extra
        # One masked add per pair, in `couplings` order, so each state sums its
        # pair energies in the same order (a reordered sum moves the last bits).
        for (i, j), v in couplings.items():
            np.add(energy, v, out=energy, where=excited[i] & excited[j])
    if not np.isfinite(energy).all():
        raise ValueError(
            f"delta = {params.delta!r}, delta0 = {params.delta0!r} and the pair energies "
            "give diagonal energies beyond the float range"
        )
    index = np.arange(len(bits))
    cols = np.concatenate([index, *(index ^ stride for stride in site_strides(2, n))])
    # 0.0 + Omega/2: at Omega = -0.0 the drive entries are +0.0, as in a matrix summed by terms.
    values = np.concatenate([energy, np.full(n * len(bits), 0.0 + 0.5 * params.omega)])
    return SparseHermitian(len(bits), np.tile(index, n + 1), cols, values)


def ladder_geometry(rows: int, columns: int, a_r: float, a_s: float, scale: float) -> AtomGeometry:
    """Vertical columns of `rows` atoms, spacing a_r within and a_s across.

    Atom c*rows + r (row r counted from the top) sits at (c a_s, a_r (rows-1-r)).
    In-column neighbors couple by V0 = scale/a_r^6; neighboring columns couple
    by the `ladder_cross_couplings` of rho = a_r/a_s.
    """
    if rows not in _COLUMN_PATTERNS:
        raise ValueError(f"rows must be 2 or 3, got {rows!r}")
    if columns < 1:
        raise ValueError(f"columns must be at least 1, got {columns!r}")
    if not (a_r > 0 and a_s > 0):
        raise ValueError("a_r and a_s must be positive")
    positions = [[c * a_s, a_r * (rows - 1 - r)] for c in range(columns) for r in range(rows)]
    return AtomGeometry(np.array(positions), scale)


def ladder_cross_couplings(v0: float, rho: float, rows: int) -> dict[str, float]:
    """Cross-column couplings of a mirrored ladder as functions of rho = a_r/a_s.

    v{k+1} = V0 (rho/sqrt(1+k^2 rho^2))^6 couples neighboring columns' atoms k rows apart.
    """
    if not 0 <= rho < 1:
        raise ValueError(f"rho must lie in [0, 1), got {rho!r}")
    return {f"v{k + 1}": v0 * (rho / math.sqrt(1.0 + k * k * rho**2)) ** 6 for k in range(rows)}


@dataclass(frozen=True)
class SpinAtomMap:
    """Map of n_spins encoded spins on columns of `rows` atoms, spin k in column k.

    `indices[k]` is the atom-basis index of spin-basis state k, in the digit
    order of `basis_digits(3, n_spins)`.  Odd columns are vertically mirrored,
    so m there has the bit pattern of -m.
    """

    rows: int
    n_spins: int
    indices: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.rows not in _COLUMN_PATTERNS:
            raise ValueError(f"rows must be 2 or 3, got {self.rows!r}")
        if self.n_spins < 1:
            raise ValueError(f"n_spins must be at least 1, got {self.n_spins!r}")
        digits = basis_digits(3, self.n_spins, "n_spins")
        digits[:, 1::2] = 2 - digits[:, 1::2]  # digit d is m = 1 - d, and 2 - d is -m
        strides = site_strides(2**self.rows, self.n_spins)
        indices = np.array(_COLUMN_PATTERNS[self.rows])[digits] @ strides
        object.__setattr__(self, "indices", tuple(indices.tolist()))

    @property
    def n_atoms(self) -> int:
        return self.rows * self.n_spins


def atom_permutation(perm) -> np.ndarray:
    """Index permutation (as `chain_symmetries` gives) moving atom i's excitation to perm[i]."""
    perm = [int(p) for p in perm]
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"{tuple(perm)} is not a permutation of 0..{n - 1}")
    return basis_digits(2, n, "permutation length")[:, np.argsort(perm)] @ site_strides(2, n)


@dataclass(frozen=True)
class SimulatorSystem:
    """A ready-to-run array: geometry, drive parameters, spin map and mirror.

    A ladder's spin map is `SpinAtomMap(rows, columns)`; a custom array encodes
    no spins: its spin map is None and its mirror ().  A spin map or a mirror
    that does not fit the geometry's atoms is refused.
    """

    geometry: AtomGeometry
    params: RydbergParams
    spin_map: SpinAtomMap | None
    mirror: tuple[int, ...]
    derived: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.geometry.n_atoms
        if self.spin_map is not None and self.spin_map.n_atoms != n:
            raise ValueError(f"a {self.spin_map.n_atoms}-atom spin map on a {n}-atom geometry")
        if self.mirror and sorted(self.mirror) != list(range(n)):
            raise ValueError(f"mirror {self.mirror} is not a permutation of the {n} atoms")

    def hamiltonian(self) -> SparseHermitian:
        return build_rydberg_h(self.geometry, self.params)

    def embed(self, state: StateVector) -> StateVector:
        """The spin-basis `state` copied onto the mapped product-basis indices."""
        if self.spin_map is None:
            raise ValueError("this array encodes no spins: its spin map is None")
        indices = self.spin_map.indices
        if state.dim != len(indices):
            raise ValueError(
                f"state dimension {state.dim} does not match the {len(indices)}-state spin basis"
            )
        out = np.zeros(1 << self.spin_map.n_atoms, dtype=np.complex128)
        out[list(indices)] = state.amplitudes
        return StateVector(out)


def ladder_system(
    rows: int,
    columns: int,
    v0: float,
    omega: float,
    delta: float,
    delta0: float = 0.0,
    rho: float | None = None,
    overrides: dict[tuple[int, int], float] | None = None,
) -> SimulatorSystem:
    """`columns` mirrored columns of `rows` atoms, one encoded spin each, at a_r = 1, a_s = 1/rho.

    In-column neighbors couple by v0; rho = a_r/a_s in (0, 1) is given exactly
    when there are two or more columns, and `overrides` replace geometric V_ij.
    The spin map, the mirror (every column reversed) and the delta0 atoms (the
    middle atom of every three-atom column) follow from rows and columns.
    `derived` reads `array_couplings` by row offset: v0 and v0_far within a
    column (offsets 1 and 2), rho and v1..v{rows} from atom 0 to column 1
    (offsets 0..rows-1), v{k}_geometric for each of these an override replaced,
    and middle_pair, the facing pair of row 1, on three rows.
    """
    if (rho is None) != (columns < 2):
        raise ValueError(f"rho spaces two or more columns, got rho = {rho!r} for {columns} columns")
    if rho is not None and not 0 < rho < 1:
        raise ValueError(f"rho must lie in (0, 1), got {rho!r}")
    geometry = ladder_geometry(rows, columns, 1.0, 1.0 if rho is None else 1.0 / rho, v0)
    cols = [range(c * rows, (c + 1) * rows) for c in range(columns)]
    params = RydbergParams(
        omega, delta, delta0, tuple(col[1] for col in cols if rows == 3), overrides
    )
    couplings = array_couplings(geometry, params)
    offsets = {"v0": (0, 1), "v0_far": (0, 2)} if rows == 3 else {"v0": (0, 1)}
    if columns > 1:
        offsets |= {f"v{k + 1}": (0, rows + k) for k in range(rows)}
    geometric, replaced = geometry.couplings(), params.pair_overrides or {}
    derived = {name: couplings[p] for name, p in offsets.items()}
    derived |= {f"{name}_geometric": geometric[p] for name, p in offsets.items() if p in replaced}
    if columns > 1:
        derived["rho"] = rho
        if rows == 3:
            derived["middle_pair"] = couplings[(1, 4)]
    return SimulatorSystem(
        geometry=geometry,
        params=params,
        spin_map=SpinAtomMap(rows, columns),
        mirror=tuple(i for col in cols for i in reversed(col)),
        derived=derived,
    )
