"""Linear algebra for small real symmetric or complex Hermitian systems.

Every operator, from a built Hamiltonian to a symmetry-sector block, is the
list of its nonzero entries (`SparseHermitian`, dim <= 4096), validated when
constructed: its keys once, as a `SparsePattern` that operators of one
structure share, and its values on every construction.  The module also holds state vectors, a contract-checked
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
from dataclasses import dataclass, field

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


_SHAPE_MESSAGE = "expected integer rows and cols and values as 1d arrays of one nonzero length"


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SparsePattern:
    """The validated (row, col) keys of a `SparseHermitian`, shared by every operator on them.

    Built once from entries given in any order, it checks their structure:
    a dimension in 1..MAX_DIM, integer rows and cols as 1d arrays of one
    nonzero length, indices in range and no (row, col) key twice.  It keeps,
    read-only and as int32 (bool for masks), what the value checks read
    (`ndarray.take` gathers by an int32 index as fast as by an intp one,
    where plain indexing converts the index first):

    - `rows` and `cols`, in ascending order of their keys row * dim + col,
      and those `keys`;
    - `order`, the stable sort that puts the given entries in that order,
      or None when they arrived strictly ascending;
    - `by_col`, the entries stably sorted by column, which is ascending
      order of their mirror keys col * dim + row;
    - `mirror` and `hit`: the position of each `by_col` entry's mirror and
      whether that mirror is stored;
    - `diagonal`, the positions of the diagonal entries, in ascending row.

    `sectors` holds the plan of the last `symmetry_sectors` call on the
    pattern, which depends on the keys and the symmetries only.
    """

    def __init__(self, dim, rows, cols):
        if not (isinstance(dim, (int, np.integer)) and 1 <= dim <= MAX_DIM):
            raise ContractViolationError(f"dimension {dim!r} outside 1..{MAX_DIM}")
        self.dim = dim = int(dim)
        rows, cols = np.asarray(rows), np.asarray(cols)
        if not (
            rows.ndim == 1
            and rows.size > 0
            and rows.shape == cols.shape
            and rows.dtype.kind in "iu"
            and cols.dtype.kind in "iu"
        ):
            raise ContractViolationError(_SHAPE_MESSAGE)
        # One call checks the index range and forms the keys row * dim + col.
        try:
            keys = np.ravel_multi_index((rows, cols), (dim, dim))
        except ValueError:
            raise ContractViolationError(f"entry indices outside 0..{dim - 1}") from None
        self.order = None
        # Strictly ascending keys are sorted and unique as they stand.
        if not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            if (keys[1:] == keys[:-1]).any():
                raise ContractViolationError("entries repeat a (row, col) key")
            self.order = _read_only(order.astype(np.int32))
        # Keys lie below MAX_DIM**2 < 2**31.
        self.keys = _read_only(keys.astype(np.int32))
        rows, cols = np.divmod(self.keys, dim)
        self.rows, self.cols = _read_only(rows), _read_only(cols)
        # The row-major entries stably sorted by column are in ascending order of
        # their mirror keys col * dim + row, so one search of sorted needles finds
        # each mirror.  Columns lie below MAX_DIM, so they sort as uint16 (a radix sort).
        by_col = np.argsort(cols.astype(np.uint16), kind="stable")
        self.by_col = _read_only(by_col.astype(np.int32))
        self.mirror, self.hit = self.find(cols[by_col], rows[by_col])
        self.diagonal = _read_only(np.flatnonzero(rows == cols).astype(np.int32))
        self.sectors = None

    @property
    def size(self) -> int:
        return self.keys.size

    def find(self, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position, stored) of each (rows[k], cols[k]) among the keys, read-only.

        Where the entry is not stored, its position is that of another entry.
        """
        # In int64: row * dim + col of a narrow integer dtype such as uint8 would wrap.
        keys = np.asarray(rows).astype(np.int64) * self.dim + cols
        pos = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        return _read_only(pos.astype(np.int32)), _read_only(self.keys[pos] == keys)


@dataclass(frozen=True)
class SparseHermitian:
    """H from its stored entries H[rows[k], cols[k]] = values[k]; every other entry is 0.

    The (row, col) keys are unique and kept in ascending order of
    row * dim + col.  H = H^dagger within HERMITICITY_RTOL * max|H| over the
    stored entries, an entry whose mirror is not stored counting against a
    mirror of 0.  Values are float64 for real input and complex128 for complex
    input.  `matrix` is the read-only dim x dim array.

    The keys are checked once, as the operator's `pattern`; `from_pattern`
    puts new values on a pattern without checking it again.  Both
    constructors check every value by one function, `_hold`.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    pattern: SparsePattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pattern = SparsePattern(self.dim, self.rows, self.cols)
        v = _real_or_complex(self.values)
        if pattern.order is not None and v.shape == pattern.order.shape:
            v = v.take(pattern.order)
        self._hold(pattern, v)

    @classmethod
    def from_pattern(cls, pattern: SparsePattern, values) -> "SparseHermitian":
        """The operator of `pattern`'s entries with `values`, given in their stored order."""
        op = object.__new__(cls)
        op._hold(pattern, _real_or_complex(values))
        return op

    def _hold(self, pattern: SparsePattern, v: np.ndarray) -> None:
        """Check the values `v` of `pattern`'s stored entries, then hold both, read-only.

        `v` is the caller's own copy: one value per entry, finite, and H = H^dagger
        within HERMITICITY_RTOL * max|H| through the pattern's mirror positions.
        """
        if v.shape != (pattern.size,):
            raise ContractViolationError(_SHAPE_MESSAGE)
        # max|H| is not finite exactly when an entry is not.
        scale = _max_abs(v)
        if not math.isfinite(scale):
            raise ContractViolationError("matrix entries must be finite")
        with np.errstate(over="ignore"):
            mirrors = np.where(pattern.hit, v.take(pattern.mirror), 0.0)
            deviation = _max_abs(v.take(pattern.by_col) - mirrors.conj())
        if scale > 0.0 and deviation > HERMITICITY_RTOL * scale:
            raise ContractViolationError(
                f"matrix is not Hermitian: max|H - H^dagger| = {deviation:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * max|H| = {HERMITICITY_RTOL * scale:.3e}"
            )
        v.setflags(write=False)
        for name, a in (
            ("dim", pattern.dim),
            ("rows", pattern.rows),
            ("cols", pattern.cols),
            ("values", v),
            ("pattern", pattern),
        ):
            object.__setattr__(self, name, a)

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
        reads exactly its row of the complete basis.  When the finals are
        zero outside at least two but not all basis rows, only those rows of
        V are multiplied out and the others stay 0, which `overlaps` adds as
        exact zeros.  The rows keep the bits of the full product where BLAS
        computes a row of a few-row product as it does in the full one:
        OpenBLAS 0.3.31 (Haswell) does so for complex spectra and for the
        six-atom match's grid, but a real dim-64 product can differ by an ulp
        in its last columns when their count is not a multiple of four.  On
        a uniform grid of n > 1 distinct times the phases are factorised
        (`_uniform_phases`), which reads each time at its place t0 + kh on
        the grid.  A spectrum without eigenvectors, or a non-finite
        max|w| max|t|, raises ContractViolationError before any exponential.
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
        if finals is None:
            return _matmul(v, phased)[:, : t.size]
        rows = np.flatnonzero(np.any([f.amplitudes for f in finals], axis=0))
        # numpy hands a one-row product to gemv, whose sums are not gemm's.
        if 1 < rows.size < self.dim:
            amplitudes = np.zeros((self.dim, t.size), dtype=np.complex128)
            amplitudes[rows] = _matmul(v[rows], phased)[:, : t.size]
        else:
            amplitudes = _matmul(v, phased)[:, : t.size]
        return overlaps(finals, amplitudes)


def _uniform_phases(times: np.ndarray):
    """w -> (exp(-i w T_m), exp(-i w tau_k)) on a uniform 1d grid of n >= 1 times; else None.

    A grid is uniform within UNIFORM_GRID_ULPS ulps of max|t| of t0 + h * arange(n),
    as linspace and t0 + arange(n) * dt grids are, so reading a time at its place only rounds it.
    With B = ceil(sqrt(n)) and M = ceil(n / B), t_{mB+k} = T_m + tau_k for
    T_m = t0 + mBh and tau_k = kh, so exp(-i w_j t_{mB+k}) is outer[j, m] *
    inner[j, k]: len(w) (M + B) exponentials instead of len(w) n, taken by one
    exp over both grids side by side and returned as two views.  The product
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
    m = -(-n // b)
    grid = np.concatenate([times[0] + h * b * np.arange(m), h * np.arange(b)])

    def phases(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.exp(-1j * np.outer(w, grid))
        return z[:, :m], z[:, m:]

    return phases


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
    # overflow nor underflow at the ends of the float range.  ||H||_F is one
    # dot product of a scaled copy of the entries (vdot conjugates the first
    # factor of a complex one); the copy is dropped before the matrix is
    # formed, so that the two are never held at once.
    unit = _max_abs(op.values) or 1.0
    scaled = op.values / unit
    h_norm = math.sqrt(float(np.vdot(scaled, scaled).real))
    del scaled
    h_trace = float(np.sum(op.values.real.take(op.pattern.diagonal) / unit))
    tolerance = RESIDUAL_RTOL * h_norm
    # The operator validated its entries once; eigh and eigvalsh read one triangle of the matrix.
    h = op.matrix
    if eigvals_only:
        w = np.linalg.eigvalsh(h)
        # Eigenvalues that overflow fail closed below, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = w / unit
            trace_dev = abs(float(np.sum(scaled)) - h_trace)
            norm_dev = abs(math.sqrt(float(np.dot(scaled, scaled))) - h_norm)
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
    to dim.  Everything that depends on the keys and the symmetries alone,
    their checks included, is planned once and kept on `op.pattern` for the
    next call with identical symmetries (dtype, shape and entries); the
    checks of the values, and every block's, run on every call.
    """
    generators = [np.asarray(g) for g in symmetries]
    key = tuple((g.dtype.str, g.shape, g.tobytes()) for g in generators)
    plan = op.pattern.sectors
    if plan is None or plan.key != key:
        plan = op.pattern.sectors = _plan_sectors(op.pattern, generators, key)
    # max|gHg - H| per symmetry, as H[g r, g c] against each stored H[r, c].  An
    # unstored entry whose image is stored is the image of that image (g is an
    # involution), so this is the maximum over the whole matrix.  An exact
    # symmetry gives exact zeros; a difference that overflows is a violation.
    v = op.values
    scale = _max_abs(v)
    for k, (pos, hit) in enumerate(plan.images):
        with np.errstate(over="ignore"):
            deviation = _max_abs(np.where(hit, v.take(pos), 0.0) - v)
        if not deviation <= HERMITICITY_RTOL * scale:
            raise ContractViolationError(
                f"H does not commute with symmetry {k}: max|gHg - H| = {deviation:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * max|H| = {HERMITICITY_RTOL * scale:.3e}"
            )
    # bincount sums each key's terms in element order from 0.0.
    v = v.take(plan.take)
    blocks = []
    for chi, on, norms, pattern in plan.sectors:
        values = chi.take(plan.element) * v
        summed = np.bincount(plan.position, values.real, plan.n_keys).astype(v.dtype)
        if np.iscomplexobj(v):
            summed.imag = np.bincount(plan.position, values.imag, plan.n_keys)
        # A sum that overflows fails SparseHermitian's finiteness check.
        blocks.append(SparseHermitian.from_pattern(pattern, summed[on] / norms))
    return blocks


@dataclass(frozen=True)
class _SectorPlan:
    """What `symmetry_sectors` reads of one pattern under one set of symmetries.

    `key` names the symmetries; `images` holds, per symmetry g, the position
    of each stored entry's image (g r, g c) and whether it is stored.  Term t
    of the block sums is the value at `take[t]`, moved by group element
    `element[t]` onto key `position[t]` of the `n_keys` keys that every sector
    shares.  Each nonempty sector is (its character chi(g) per element, the
    mask of the shared keys it keeps, the norms sqrt(|Stab_a| |Stab_b|) of
    those keys, its block's pattern).
    """

    key: tuple
    images: tuple
    take: np.ndarray
    element: np.ndarray
    position: np.ndarray
    n_keys: int
    sectors: tuple


def _plan_sectors(pattern: SparsePattern, generators: list, key: tuple) -> _SectorPlan:
    """Check the symmetries of `symmetry_sectors` against `pattern` and plan its sums."""
    dim = pattern.dim
    identity = np.arange(dim)
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
    images_of_entries = tuple(pattern.find(g[pattern.rows], g[pattern.cols]) for g in generators)

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
    in_rep_row = np.flatnonzero(orbit[pattern.rows] >= 0)
    a, c = orbit[pattern.rows[in_rep_row]], pattern.cols[in_rep_row]
    b = orbit[images[:, c]]
    element, term = np.nonzero(b >= 0)
    a, b = a[term], b[element, term]

    # The keys of every sector's block entries, sorted once: the 0.0 diagonal
    # of every orbit, so that every block has an entry, and every term.  A
    # sector keeps the keys both of whose orbits it keeps, still in ascending order.
    n_orbits = reps.size
    keys, position = np.unique(
        np.concatenate([np.arange(n_orbits) * (n_orbits + 1), a * n_orbits + b]),
        return_inverse=True,
    )
    key_a, key_b = np.divmod(keys, n_orbits)

    sectors, total = [], 0
    for signs in itertools.product((1.0, -1.0), repeat=len(generators)):
        chi = np.prod(np.array(signs) ** exponents, axis=1)
        keep = ~np.any(fixed & (chi[:, None] < 0.0), axis=0)
        if not keep.any():
            continue
        on = keep[key_a] & keep[key_b]
        ka, kb = key_a[on], key_b[on]
        # Row of each kept orbit in the block.
        slot = np.cumsum(keep) - 1
        n = int(np.count_nonzero(keep))
        norms = np.sqrt(stab[ka] * stab[kb])
        block = SparsePattern(n, slot[ka], slot[kb])
        sectors.append((_read_only(chi), _read_only(on), _read_only(norms), block))
        total += n
    if total != dim:
        raise ContractViolationError(f"sector dimensions sum to {total}, not {dim}")
    return _SectorPlan(
        key,
        images_of_entries,
        _read_only(in_rep_row[term].astype(np.int32)),
        _read_only(element.astype(np.int32)),
        _read_only(position[n_orbits:].astype(np.int32)),
        keys.size,
        tuple(sectors),
    )
