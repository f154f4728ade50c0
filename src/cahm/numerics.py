"""Dense linear algebra for small real symmetric or complex Hermitian systems.

Every operator in this package is an explicit dense matrix (dim <= 4096).
This module provides the shared primitives: validated Hermitian operators
and state vectors, a contract-checked Hermitian eigendecomposition, spectral
time evolution exp(-iHt) and the digit layout of product bases.  Operators
and eigenvectors keep their input's kind: real input stays float64, so a real
symmetric H is diagonalised in real arithmetic, and complex input is
complex128.  State vectors are always complex.  All values are immutable
after construction and every operation is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Relative tolerance for H == H^dagger, scaled by max|H|.
HERMITICITY_RTOL = 1e-12
# Absolute tolerance on |sum |a_i|^2 - 1| for state vectors.
NORM_ATOL = 1e-10
# Eigenvalue gaps below DEGENERACY_RTOL * spectral_radius are treated as
# degenerate, where eigenvectors have no orientation of their own.
DEGENERACY_RTOL = 1e-12
# Orthonormality tolerance for eigenvector matrices.
ORTHO_ATOL = 1e-10
# Per-vector eigen-residual tolerance, relative to the Frobenius norm of H.
RESIDUAL_RTOL = 1e-9

# The one cap on every Hilbert-space dimension the package builds.
MAX_DIM = 4096
# Edge of the square tiles over which Hermiticity is checked; a tile and its
# mirror stay in cache.
_HERMITICITY_TILE = 128


class ContractViolationError(ValueError):
    """An input or result violates a documented invariant."""


def _real_or_complex(entries) -> np.ndarray:
    """A copy of `entries` as float64, or as complex128 when their dtype is complex."""
    m = np.array(entries)
    return m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)


def _as_square_matrix(entries) -> np.ndarray:
    m = _real_or_complex(entries)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ContractViolationError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise ContractViolationError(f"dimension {m.shape[0]} outside 1..{MAX_DIM}")
    if not np.isfinite(m).all():
        raise ContractViolationError("matrix entries must be finite")
    return m


def _hermiticity_deviation(m: np.ndarray) -> float:
    """max|H - H^dagger| of a square matrix, with no full-size temporary.

    Each tile of the upper triangle is compared with its mirror tile.  The
    entries (i, j) and (j, i) of H - H^dagger deviate by the same magnitude,
    so the tiles together cover every entry and give the full maximum exactly.
    """
    deviation, b = 0.0, _HERMITICITY_TILE
    for i in range(0, m.shape[0], b):
        for j in range(i, m.shape[0], b):
            tile = m[i : i + b, j : j + b] - m[j : j + b, i : i + b].conj().T
            deviation = max(deviation, float(np.max(np.abs(tile))))
    return deviation


@dataclass(frozen=True)
class HermitianOperator:
    """Dense matrix H with H = H^dagger within HERMITICITY_RTOL * max|H|.

    The matrix is float64 (real symmetric) for real input and complex128 for
    complex input.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square_matrix(self.matrix)
        scale = float(np.max(np.abs(m)))
        deviation = _hermiticity_deviation(m)
        if scale > 0.0 and deviation > HERMITICITY_RTOL * scale:
            raise ContractViolationError(
                f"matrix is not Hermitian: max|H - H^dagger| = {deviation:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * max|H| = {HERMITICITY_RTOL * scale:.3e}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector with sum |a_i|^2 = 1 within NORM_ATOL."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=np.complex128)
        if a.ndim != 1 or a.size == 0:
            raise ContractViolationError(f"expected a 1d amplitude vector, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ContractViolationError("amplitudes must be finite")
        norm_sq = float(np.sum(np.abs(a) ** 2))
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ContractViolationError(
                f"state not normalized: sum |a_i|^2 = {norm_sq!r} differs from 1 "
                f"by more than {NORM_ATOL:.0e}"
            )
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @staticmethod
    def basis(dim: int, index: int) -> "StateVector":
        """Computational basis state |index> in a dim-dimensional space."""
        if not 0 <= index < dim:
            raise ContractViolationError(f"basis index {index} outside 0..{dim - 1}")
        a = np.zeros(dim, dtype=np.complex128)
        a[index] = 1.0
        return StateVector(a)

    @staticmethod
    def normalized(amplitudes) -> "StateVector":
        """Rescale an arbitrary nonzero amplitude vector to unit norm."""
        a = np.asarray(amplitudes, dtype=np.complex128)
        n = float(np.linalg.norm(a))
        if n == 0.0 or not np.isfinite(n):
            raise ContractViolationError("cannot normalize a zero or non-finite vector")
        return StateVector(a / n)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (real, ascending) and orthonormal eigenvector columns.

    The eigenvectors are float64 for real input and complex128 for complex input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=np.float64)
        v = _real_or_complex(self.eigenvectors)
        if w.ndim != 1 or v.ndim != 2 or v.shape != (w.size, w.size):
            raise ContractViolationError("inconsistent spectrum shapes")
        # A gap between eigenvalues near the float range overflows to +-inf, keeping its sign.
        with np.errstate(over="ignore"):
            descending = np.any(np.diff(w) < -1e-12 * max(1.0, float(np.max(np.abs(w)))))
        if descending:
            raise ContractViolationError("eigenvalues must be ascending")
        gram = v.conj().T @ v
        if float(np.max(np.abs(gram - np.eye(w.size)))) > ORTHO_ATOL:
            raise ContractViolationError("eigenvector columns are not orthonormal")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def propagate(self, psi0: StateVector, times, finals=None) -> np.ndarray:
        """Amplitudes <f| exp(-iHt) |psi0>, shape (rows, len(times)).

        One row per basis state when `finals` is None, or one per state in
        `finals`: its `overlaps` with the basis amplitudes, so a basis final
        reads exactly its row of the complete basis.
        """
        if any(s.dim != self.dim for s in [psi0, *(finals or ())]):
            raise ContractViolationError(f"state dimension does not match H ({self.dim})")
        v = self.eigenvectors
        c = _matmul(v.conj().T, psi0.amplitudes[:, None])
        phases = np.exp(-1j * np.outer(self.eigenvalues, np.asarray(times, dtype=np.float64)))
        amplitudes = _matmul(v, phases * c)
        return amplitudes if finals is None else overlaps(finals, amplitudes)


def overlaps(states, amplitudes: np.ndarray) -> np.ndarray:
    """<f|a> for each state f in `states` (rows) and each amplitude column a.

    A basis state reads exactly its row of `amplitudes`.
    """
    return np.array([f.amplitudes for f in states]).conj() @ amplitudes


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2d arrays; a real `a` times a complex `b` is one real product.

    A C-contiguous complex (n, k) array viewed as float64 is (n, 2k) with the
    real and imaginary parts in alternate columns, so the product is formed
    without upcasting `a` to complex.
    """
    if np.iscomplexobj(a) or not np.iscomplexobj(b):
        return a @ b
    return (a @ np.ascontiguousarray(b).view(np.float64)).view(np.complex128)


def capped_dim(base: int, n: int, field: str) -> int:
    """base**n, or a ValueError naming `field` when that exceeds MAX_DIM.

    A large n is rejected before the power is formed (base >= 2).
    """
    if n > MAX_DIM.bit_length() or base**n > MAX_DIM:
        raise ValueError(
            f"{field} = {n} gives dimension {base}**{n}, above the supported maximum {MAX_DIM}"
        )
    return base**n


def basis_digits(base: int, n: int, field: str) -> np.ndarray:
    """(base**n, n) digits of every basis index, site 0 most significant; capped first."""
    return (np.arange(capped_dim(base, n, field))[:, None] // site_strides(base, n)) % base


def site_strides(base: int, n: int) -> np.ndarray:
    """Index step of each site's digit, base**(n - 1 - i): `digits @ strides` is the index."""
    return base ** np.arange(n - 1, -1, -1)


def bitstring_labels(dim: int) -> tuple[str, ...]:
    """Bitstring labels of the basis indices 0..dim-1, all of one width."""
    digits = basis_digits(2, max(1, (dim - 1).bit_length()), "number of bits")
    return tuple("".join(map(str, row)) for row in digits[:dim].tolist())


def eig_hermitian(op: HermitianOperator) -> Spectrum:
    """Full eigendecomposition of a Hermitian operator, real when the operator is.

    The eigenvalues ascend, and the eigenvectors are `numpy.linalg.eigh`'s as
    LAPACK returns them: inside a degenerate eigenspace, and in each column's
    sign or phase, their orientation is the solver's.  Nothing reads it:
    exp(-iHt) is the same for every orthonormal basis of each eigenspace, and
    a column's phase cancels between V and V^dagger in propagation.

    Raises ContractViolationError when an eigenvalue, ||H|| or the
    eigen-residual is not finite, or the residual exceeds
    RESIDUAL_RTOL * ||H||.
    """
    # HermitianOperator validated the matrix once; eigh reads one triangle of it.
    h = op.matrix
    w, v = np.linalg.eigh(h)

    # A decomposition that overflows fails closed below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        # ||H||_F scaled by max|H| first, so entries near the float range do not overflow.
        h_max = float(np.max(np.abs(h)))
        h_norm = h_max * float(np.linalg.norm(h / h_max)) if h_max > 0.0 else 0.0
        residual = float(np.max(np.linalg.norm(h @ v - v * w, axis=0)))
    if not (np.all(np.isfinite(w)) and np.isfinite(h_norm) and np.isfinite(residual)):
        raise ContractViolationError(
            "eigendecomposition is not finite: an eigenvalue, ||H|| or the residual "
            "overflowed"
        )
    if h_norm > 0.0 and residual > RESIDUAL_RTOL * h_norm:
        raise ContractViolationError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * ||H|| = {RESIDUAL_RTOL * h_norm:.3e}"
        )
    return Spectrum(w, v)


def symmetry_sectors(op: HermitianOperator, symmetries) -> list[HermitianOperator]:
    """Blocks of `op` in the joint eigenspaces of commuting involutive index permutations.

    Each symmetry is an integer array g whose entry b is the index of g|b>,
    with g(g(b)) = b.  The generators span an abelian group G; each sign
    choice per generator is a character chi of G.  Sector chi has one basis
    state per orbit whose stabiliser chi leaves at +1,

        |r, chi> = sum_g chi(g) |g r> / sqrt(|G| |Stab_r|),

    with r the smallest index of its orbit, in ascending r.  Because H
    commutes with G, its block is

        <r_a, chi|H|r_b, chi> = sum_g chi(g) H[r_a, g r_b] / sqrt(|Stab_a| |Stab_b|),

    read from |G| gathers of H without forming a change of basis.  Blocks
    follow the characters (+1 before -1 for each generator, the first
    generator varying slowest); empty sectors are dropped.  The union of the
    blocks' spectra is the spectrum of `op`.

    Raises ContractViolationError unless every symmetry is an involutive
    permutation of range(dim), the symmetries commute pairwise, H commutes
    with each within HERMITICITY_RTOL * max|H| and the sector dimensions sum
    to dim.
    """
    h, dim = op.matrix, op.dim
    identity = np.arange(dim)
    generators = [np.asarray(g) for g in symmetries]
    for k, g in enumerate(generators):
        if not (
            g.shape == (dim,)
            and np.issubdtype(g.dtype, np.integer)
            and np.array_equal(np.sort(g), identity)
        ):
            raise ContractViolationError(f"symmetry {k} is not a permutation of range({dim})")
        if not np.array_equal(g[g], identity):
            raise ContractViolationError(f"symmetry {k} is not an involution")
        for j, f in enumerate(generators[:k]):
            if not np.array_equal(g[f], f[g]):
                raise ContractViolationError(f"symmetries {j} and {k} do not commute")
    # max|gHg - H| per symmetry, compared as H[g a, b] against H[a, g b] over
    # row blocks of about 2**15 entries, so the gathered copies stay in cache.
    # An exact symmetry gives exact zeros; a difference that overflows is a violation.
    deviations = np.zeros(len(generators))
    rows = max(1, 2**15 // dim)
    with np.errstate(over="ignore"):
        for start in range(0, dim, rows):
            part = slice(start, start + rows)
            for k, g in enumerate(generators):
                part_dev = np.max(np.abs(h[g[part]] - h[part][:, g]))
                deviations[k] = max(deviations[k], part_dev)
    scale = float(np.max(np.abs(h)))
    for k, deviation in enumerate(deviations):
        if not deviation <= HERMITICITY_RTOL * scale:
            raise ContractViolationError(
                f"H does not commute with symmetry {k}: max|gHg - H| = {deviation:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * max|H| = {HERMITICITY_RTOL * scale:.3e}"
            )

    # The group elements as permutations: element i applies generator j when bit j of i is set.
    elements = [identity]
    for g in generators:
        elements += [e[g] for e in elements]
    images = np.array(elements)
    exponents = (np.arange(len(images))[:, None] >> np.arange(len(generators))) & 1
    reps = np.flatnonzero(images.min(axis=0) == identity)
    fixed = images[:, reps] == reps
    stab = fixed.sum(axis=0)
    # H[r_a, g r_b] for every element g and pair of orbits, flattened to (|G|, orbits**2).
    h_reps = h[reps]
    gathered = np.array([h_reps[:, g[reps]].ravel() for g in images])

    blocks, total = [], 0
    for signs in itertools.product((1.0, -1.0), repeat=len(generators)):
        chi = np.prod(np.array(signs) ** exponents, axis=1)
        keep = ~np.any(fixed & (chi[:, None] < 0.0), axis=0)
        if not keep.any():
            continue
        s = stab[keep]
        # A block entry that overflows fails HermitianOperator's finiteness check.
        with np.errstate(over="ignore"):
            block = (chi @ gathered).reshape(reps.size, reps.size)[np.ix_(keep, keep)]
        blocks.append(HermitianOperator(block / np.sqrt(np.outer(s, s))))
        total += s.size
    if total != dim:
        raise ContractViolationError(f"sector dimensions sum to {total}, not {dim}")
    return blocks
