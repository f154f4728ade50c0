"""Linear algebra for small real symmetric or complex Hermitian systems.

Every operator, from a built Hamiltonian to a symmetry-sector block, is the
list of its nonzero entries (`SparseHermitian`, dim <= 4096), validated once
when constructed.  The module also holds state vectors, a contract-checked
eigendecomposition, spectral time evolution exp(-iHt), symmetry sectors and
the digit layout of product bases.  Operators and eigenvectors keep their
input's kind: real stays float64, so a real symmetric H is diagonalised in
real arithmetic; complex is complex128, as state vectors always are.  All
values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import itertools
import math
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
# A time grid within this many ulps of max|t| of t0 + h * arange(n) is uniform.
UNIFORM_GRID_ULPS = 4

# The one cap on every Hilbert-space dimension the package builds.
MAX_DIM = 4096


class ContractViolationError(ValueError):
    """An input or result violates a documented invariant."""


def _real_or_complex(entries) -> np.ndarray:
    """A copy of `entries` as float64, or as complex128 when their dtype is complex."""
    m = np.array(entries)
    return m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)


def _max_abs(m: np.ndarray) -> float:
    """max|m|, not finite when an entry is not, with no full-size |m| temporary when m is real.

    The value is bit for bit np.max(np.abs(m)); abs() turns a -0.0 maximum of
    an all-zero array into the 0.0 that np.abs gives.
    """
    if np.iscomplexobj(m):
        return float(np.max(np.abs(m)))
    return abs(max(float(m.max()), -float(m.min())))


@dataclass(frozen=True)
class SparseHermitian:
    """H from its stored entries H[rows[k], cols[k]] = values[k]; every other entry is 0.

    The (row, col) keys are unique and kept in ascending order of
    row * dim + col.  H = H^dagger within HERMITICITY_RTOL * max|H| over the
    stored entries, an entry whose mirror is not stored counting against a
    mirror of 0.  Values are float64 for real input and complex128 for complex
    input.  `matrix` is the read-only dim x dim array.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.dim, (int, np.integer)) and 1 <= self.dim <= MAX_DIM):
            raise ContractViolationError(f"dimension {self.dim!r} outside 1..{MAX_DIM}")
        object.__setattr__(self, "dim", int(self.dim))
        rows, cols, v = np.asarray(self.rows), np.asarray(self.cols), _real_or_complex(self.values)
        if not (
            v.ndim == 1
            and v.size > 0
            and rows.shape == cols.shape == v.shape
            and rows.dtype.kind in "iu"
            and cols.dtype.kind in "iu"
        ):
            raise ContractViolationError(
                "expected integer rows and cols and values as 1d arrays of one nonzero length"
            )
        # One call checks the index range and forms the keys row * dim + col.
        try:
            keys = np.ravel_multi_index((rows, cols), (self.dim, self.dim))
        except ValueError:
            raise ContractViolationError(f"entry indices outside 0..{self.dim - 1}") from None
        # max|H| is not finite exactly when an entry is not.
        scale = _max_abs(v)
        if not math.isfinite(scale):
            raise ContractViolationError("matrix entries must be finite")
        order = np.argsort(keys, kind="stable")
        keys, v = keys[order], v[order]
        if (keys[1:] == keys[:-1]).any():
            raise ContractViolationError("entries repeat a (row, col) key")
        rows, cols = np.divmod(keys, self.dim)
        for name, a in (("rows", rows), ("cols", cols), ("values", v)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        with np.errstate(over="ignore"):
            deviation = _max_abs(v - self._at(cols, rows).conj())
        if scale > 0.0 and deviation > HERMITICITY_RTOL * scale:
            raise ContractViolationError(
                f"matrix is not Hermitian: max|H - H^dagger| = {deviation:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * max|H| = {HERMITICITY_RTOL * scale:.3e}"
            )

    def _at(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """H[rows[k], cols[k]] for each k: the stored value, or 0 where none is stored."""
        stored = self.rows * self.dim + self.cols
        keys = rows * self.dim + cols
        pos = np.minimum(np.searchsorted(stored, keys), stored.size - 1)
        return np.where(stored[pos] == keys, self.values[pos], 0.0)

    @property
    def matrix(self) -> np.ndarray:
        """The dim x dim array of the stored entries, zero elsewhere; formed at each read."""
        m = np.zeros((self.dim, self.dim), dtype=self.values.dtype)
        m[self.rows, self.cols] = self.values
        m.setflags(write=False)
        return m


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
    """Eigenvalues (real, ascending) and orthonormal eigenvector columns, or None.

    The eigenvectors are float64 for real input and complex128 for complex
    input.  A spectrum of eigenvalues only (`eigenvectors` None) cannot propagate.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=np.float64)
        v = None if self.eigenvectors is None else _real_or_complex(self.eigenvectors)
        if w.ndim != 1 or (v is not None and v.shape != (w.size, w.size)):
            raise ContractViolationError("inconsistent spectrum shapes")
        # A gap between eigenvalues near the float range overflows to +-inf, keeping its sign.
        with np.errstate(over="ignore"):
            descending = np.any(np.diff(w) < -1e-12 * _max_abs(w))
        if descending:
            raise ContractViolationError("eigenvalues must be ascending")
        if v is not None:
            gram = v.conj().T @ v
            # max|V^dagger V - I| with the identity subtracted in place: no dim x dim eye.
            gram.flat[:: w.size + 1] -= 1.0
            if _max_abs(gram) > ORTHO_ATOL:
                raise ContractViolationError("eigenvector columns are not orthonormal")
            v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def propagate(self, psi0: StateVector, times, finals=None) -> np.ndarray:
        """Amplitudes <f| exp(-iHt) |psi0>, shape (rows, len(times)).

        One row per basis state when `finals` is None, or one per state in
        `finals`: its `overlaps` with the basis amplitudes, so a basis final
        reads exactly its row of the complete basis.  On a uniform grid of
        n > 1 distinct times the phases are factorised (`_uniform_phases`),
        which reads each time at its place t0 + kh on the grid.  A spectrum
        without eigenvectors, or a non-finite max|w| max|t|, raises
        ContractViolationError before any exponential.
        """
        v = self.eigenvectors
        if v is None:
            raise ContractViolationError("a spectrum of eigenvalues only cannot propagate")
        if any(s.dim != self.dim for s in [psi0, *(finals or ())]):
            raise ContractViolationError(f"state dimension does not match H ({self.dim})")
        c = _matmul(v.conj().T, psi0.amplitudes[:, None])
        t = np.asarray(times, dtype=np.float64).ravel()
        # A product of Python floats: one that overflows is inf, with no numpy warning.
        if not math.isfinite(_max_abs(self.eigenvalues) * float(np.max(np.abs(t), initial=0))):
            raise ContractViolationError("phases exp(-i w t) overflow: max|w| max|t| is not finite")
        phases = _uniform_phases(t) if t.size > 1 and t[0] != t[-1] else None
        if phases is None:
            phased = np.exp(-1j * np.outer(self.eigenvalues, t)) * c
        else:
            outer, inner = phases(self.eigenvalues)
            phased = ((outer * c)[:, :, None] * inner[:, None, :]).reshape(self.dim, -1)
        amplitudes = _matmul(v, phased)[:, : t.size]
        return amplitudes if finals is None else overlaps(finals, amplitudes)


def _uniform_phases(times: np.ndarray):
    """w -> (exp(-i w T_m), exp(-i w tau_k)) on a uniform 1d grid of n >= 1 times; else None.

    A grid is uniform within UNIFORM_GRID_ULPS ulps of max|t| of t0 + h * arange(n),
    as linspace and t0 + arange(n) * dt grids are, so reading a time at its place only rounds it.
    With B = ceil(sqrt(n)) and M = ceil(n / B), t_{mB+k} = T_m + tau_k for
    T_m = t0 + mBh and tau_k = kh, so exp(-i w_j t_{mB+k}) is outer[j, m] *
    inner[j, k]: len(w) (M + B) exponentials instead of len(w) n.  The product
    has MB >= n columns; the caller drops those past the last time.
    """
    n = times.size
    # A non-finite or overflowing grid fails the comparison: it is not uniform.
    with np.errstate(over="ignore", invalid="ignore"):
        span = float(times[-1] - times[0])
        h = span / (n - 1) if n > 1 else 0.0
        deviation = float(np.max(np.abs(times - (times[0] + h * np.arange(n)))))
    if not deviation <= UNIFORM_GRID_ULPS * np.spacing(float(np.max(np.abs(times)))):
        return None
    b = math.isqrt(n - 1) + 1
    outer_t = times[0] + h * b * np.arange(-(-n // b))
    inner_t = h * np.arange(b)
    return lambda w: (np.exp(-1j * np.outer(w, outer_t)), np.exp(-1j * np.outer(w, inner_t)))


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


def eig_hermitian(op: SparseHermitian, *, eigvals_only: bool = False) -> Spectrum:
    """Eigendecomposition of a Hermitian operator, real when the operator is.

    The eigenvalues ascend, and the eigenvectors are `numpy.linalg.eigh`'s as
    LAPACK returns them: inside a degenerate eigenspace, and in each column's
    sign or phase, their orientation is the solver's.  Nothing reads it:
    exp(-iHt) is the same for every orthonormal basis of each eigenspace, and
    a column's phase cancels between V and V^dagger in propagation.

    Raises ContractViolationError unless the eigen-residual
    max_k ||H v_k - w_k v_k|| is finite and within RESIDUAL_RTOL * ||H||_F,
    both taken in units of max|H|.  max|H|, ||H||_F and tr H are read from the
    stored entries, before the matrix is formed.

    With `eigvals_only`, `numpy.linalg.eigvalsh` gives the eigenvalues and the
    Spectrum has no eigenvectors.  They must then be finite, ascending and
    meet two moment identities, sum w = tr H and sum w^2 = ||H||_F^2 (as
    |sqrt(sum w^2) - ||H||_F|), each within RESIDUAL_RTOL * ||H||_F in units
    of max|H|.  That costs O(entries) against the residual's O(dim^3), but it
    checks the sum and the sum of squares, not each eigenvalue: errors that
    keep both, such as two eigenvalues moved together by the same amount in
    opposite directions about their mean, pass.  The full residual stays the
    oracle that tests compare the eigenvalues against.
    """
    # ||H||_F, tr H and each check in units of max|H|: their squares neither
    # overflow nor underflow at the ends of the float range.  ||H||_F sums the
    # squares of one scaled copy of the entries, real and imaginary parts side
    # by side, taken in place; the copy is dropped before the matrix is formed,
    # so that the two are never held at once.
    unit = _max_abs(op.values) or 1.0
    squares = (op.values / unit).view(np.float64)
    h_norm = math.sqrt(float(np.sum(np.square(squares, out=squares))))
    del squares
    h_trace = float(np.sum(op.values.real[op.rows == op.cols] / unit))
    tolerance = RESIDUAL_RTOL * h_norm
    # The operator validated its entries once; eigh and eigvalsh read one triangle of the matrix.
    h = op.matrix
    if eigvals_only:
        w = np.linalg.eigvalsh(h)
        # Eigenvalues that overflow fail closed below, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = w / unit
            trace_dev = abs(float(np.sum(scaled)) - h_trace)
            norm_dev = abs(float(np.linalg.norm(scaled)) - h_norm)
        # A non-finite eigenvalue makes a deviation NaN or inf, which fails the comparison.
        if not (trace_dev <= tolerance and norm_dev <= tolerance):
            raise ContractViolationError(
                f"eigenvalues fail the moment contract: |sum w - tr H| = {trace_dev:.3e} and "
                f"|sqrt(sum w^2) - ||H||_F| = {norm_dev:.3e} must be finite and within "
                f"{RESIDUAL_RTOL:.0e} * ||H||_F = {tolerance:.3e}, all in units of max|H|"
            )
        return Spectrum(w, None)

    w, v = np.linalg.eigh(h)
    # A decomposition that overflows fails closed below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.linalg.norm((h @ v - v * w) / unit, axis=0)))
    # An eigenvalue that is not finite makes the residual so too; NaN fails the comparison.
    if not residual <= tolerance:
        raise ContractViolationError(
            f"eigendecomposition residual {residual:.3e} is not finite or exceeds "
            f"{RESIDUAL_RTOL:.0e} * ||H|| = {tolerance:.3e}, both in units of max|H|"
        )
    return Spectrum(w, v)


def symmetry_sectors(op: SparseHermitian, symmetries) -> list[SparseHermitian]:
    """Blocks of `op` in the joint eigenspaces of commuting involutive index permutations.

    Each symmetry is an integer array g whose entry b is the index of g|b>,
    with g(g(b)) = b.  The generators span an abelian group G; each sign
    choice per generator is a character chi of G.  Sector chi has one basis
    state per orbit whose stabiliser chi leaves at +1,

        |r, chi> = sum_g chi(g) |g r> / sqrt(|G| |Stab_r|),

    with r the smallest index of its orbit, in ascending r.  Because H
    commutes with G, its block is

        <r_a, chi|H|r_b, chi> = sum_g chi(g) H[r_a, g r_b] / sqrt(|Stab_a| |Stab_b|),

    accumulated, element by element of G, from the stored entries (r_a, c)
    whose c lies in the orbit of r_b.  No matrix is formed: each block is the
    `SparseHermitian` of those sums, its diagonal always stored.  Blocks
    follow the characters (+1 before -1 for each generator, the first
    generator varying slowest); empty sectors are dropped.  The union of the
    blocks' spectra is the spectrum of `op`.

    Raises ContractViolationError unless every symmetry is an involutive
    permutation of range(dim), the symmetries commute pairwise, H commutes
    with each within HERMITICITY_RTOL * max|H| and the sector dimensions sum
    to dim.
    """
    dim = op.dim
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
    # max|gHg - H| per symmetry, as H[g r, g c] against each stored H[r, c].  An
    # unstored entry whose image is stored is the image of that image (g is an
    # involution), so this is the maximum over the whole matrix.  An exact
    # symmetry gives exact zeros; a difference that overflows is a violation.
    scale = _max_abs(op.values)
    for k, g in enumerate(generators):
        with np.errstate(over="ignore"):
            deviation = _max_abs(op._at(g[op.rows], g[op.cols]) - op.values)
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
    # Orbit number of each representative index, -1 for every other index.
    orbit = np.full(dim, -1)
    orbit[reps] = np.arange(reps.size)
    # The stored entries (r_a, g r_b) as (a, b, value) of each element g, one
    # element after another: since g is an involution, entry (r_a, c) belongs
    # to r_b = g c.  For one g the entries land on distinct (a, b).
    in_rep_row = orbit[op.rows] >= 0
    a, c, v = orbit[op.rows[in_rep_row]], op.cols[in_rep_row], op.values[in_rep_row]
    b = orbit[images[:, c]]
    element, term = np.nonzero(b >= 0)
    a, b, v = a[term], b[element, term], v[term]

    blocks, total = [], 0
    for signs in itertools.product((1.0, -1.0), repeat=len(generators)):
        chi = np.prod(np.array(signs) ** exponents, axis=1)
        keep = ~np.any(fixed & (chi[:, None] < 0.0), axis=0)
        if not keep.any():
            continue
        s = stab[keep]
        # Row of each kept orbit in the block, -1 for the orbits chi drops.
        slot = np.where(keep, np.cumsum(keep) - 1, -1)
        n = s.size
        sa, sb = slot[a], slot[b]
        on = (sa >= 0) & (sb >= 0)
        # A 0.0 diagonal first, so that every block has an entry, then the
        # entries in element order: bincount sums each (a, b) in that order from 0.0.
        keys = np.concatenate([np.arange(n) * (n + 1), sa[on] * n + sb[on]])
        values = np.concatenate([np.zeros(n, v.dtype), chi[element[on]] * v[on]])
        keys, position = np.unique(keys, return_inverse=True)
        summed = np.bincount(position, values.real, keys.size).astype(v.dtype)
        if np.iscomplexobj(v):
            summed.imag = np.bincount(position, values.imag, keys.size)
        rows, cols = np.divmod(keys, n)
        # A sum that overflows fails SparseHermitian's finiteness check.
        blocks.append(SparseHermitian(n, rows, cols, summed / np.sqrt(s[rows] * s[cols])))
        total += n
    if total != dim:
        raise ContractViolationError(f"sector dimensions sum to {total}, not {dim}")
    return blocks
