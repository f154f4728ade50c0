"""Shared test oracles, independent of the library's computation paths."""

import dataclasses
import itertools
import json

import numpy as np

from cahm import StateVector, TargetCouplings, apply_circuit, six_atom_system, two_atom_system
from cahm.evolution import CSV_DIGITS
from cahm.matching import K_SCAN_POINTS, K_TOL, _golden_min
from cahm.numerics import SparseHermitian, _matmul, eig_hermitian, overlaps
from cahm.numerics import basis_digits, site_strides
from cahm.target_models import SPIN1
from cahm.trotter import trotter_step


def expm_taylor(a, tol=1e-16, max_terms=80):
    """Matrix exponential by scaling-and-squaring a plain Taylor series."""
    a = np.asarray(a, dtype=np.complex128)
    norm = np.linalg.norm(a, np.inf)
    squarings = 0
    while norm / (2**squarings) > 0.5:
        squarings += 1
    b = a / (2**squarings)
    term = np.eye(a.shape[0], dtype=np.complex128)
    total = term.copy()
    for k in range(1, max_terms):
        term = term @ b / k
        total += term
        if np.linalg.norm(term, np.inf) < tol * max(1.0, np.linalg.norm(total, np.inf)):
            break
    for _ in range(squarings):
        total = total @ total
    return total


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def one_spin_rabi_oracle(u, x, times):
    """Closed-form |<m|U(t)|m=1>|^2 assembled from the analytic level formulas."""
    times = np.asarray(times, dtype=np.float64)
    root = np.sqrt(u * u + 8.0 * x * x)
    e0, eplus, eminus = 0.25 * (u - root), 0.25 * (u + root), 0.5 * u
    phi = 0.0 if x == 0 else np.arctan(-np.sqrt(2.0) * e0 / x)
    s, c = np.sin(phi), np.cos(phi)
    even = 0.5 * (s * s * np.exp(-1j * e0 * times) + c * c * np.exp(-1j * eplus * times))
    odd = 0.5 * np.exp(-1j * eminus * times)
    p1 = np.abs(even + odd) ** 2
    pm1 = np.abs(even - odd) ** 2
    p0 = 0.5 * (s * c) ** 2 * np.abs(np.exp(-1j * e0 * times) - np.exp(-1j * eplus * times)) ** 2
    return {"m=1": p1, "m=0": p0, "m=-1": pm1}


def consistent_three_atom_point(rng):
    """Random (omega, delta, delta0, v0, u, x) with all three residuals zero.

    For fixed (omega, delta, v0) the mixing and repulsion conditions pin
    x/u and x^2/u; consistency with the splitting condition is a scalar
    equation in delta0, solved here by bisection.
    """
    sqrt2 = np.sqrt(2.0)
    for _ in range(200):
        omega = rng.uniform(0.6, 1.4)
        delta = rng.uniform(10.0, 20.0)
        v0 = delta * rng.uniform(1.8, 2.2)

        def parts(d0):
            a = 0.5 * omega**2 * (1.0 / (delta - v0 / 64.0) - 1.0 / delta)
            b = omega**2 / (2.0 * sqrt2 * d0) * (1.0 / delta + 1.0 / (v0 - delta - d0))
            c = 0.25 * omega**2 * (
                1.0 / (delta + d0) + 2.0 / (v0 - delta) - 1.0 / (v0 - delta - d0)
            )
            return a, b, c

        def gap(d0):
            a, b, c = parts(d0)
            return a + a / b**2 - d0 - c

        lo, hi = 0.2, 8.0
        if gap(lo) * gap(hi) > 0:
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(lo) * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        d0 = 0.5 * (lo + hi)
        a, b, _ = parts(d0)
        c_part = parts(d0)[2]
        u = 2.0 * (d0 + c_part - a)
        x = u * b / sqrt2
        if abs(u) < 1e-3:
            continue
        return omega, delta, d0, v0, u, x
    raise RuntimeError("no consistent three-atom point found")


def fig7_target_couplings():
    return TargetCouplings(u=1.0, x=1.2, y=0.2)


def dense_chain_h(c, trunc, n_links, end_terms):
    """Chain matrix written entry by entry into a dense array, as the builders once did."""
    d = trunc.dim
    digits = basis_digits(d, n_links, "n_links")
    index = np.arange(len(digits))
    m = trunc.m_values()[digits]
    neighbors = np.roll(m, -1, axis=1) - m if c.boundary == "periodic" else np.diff(m, axis=1)
    charge = (neighbors**2).sum(axis=1)
    if end_terms:
        charge += m[:, 0] ** 2 + m[:, -1] ** 2
    h = np.diag(0.5 * c.u * (m**2).sum(axis=1) + 0.5 * c.y * charge)
    for i, stride in enumerate(site_strides(d, n_links)):
        lower = index[digits[:, i] < d - 1]
        h[lower, lower + stride] = -0.5 * c.x
        h[lower + stride, lower] = -0.5 * c.x
    return h


def op_lz(trunc=SPIN1):
    """Diagonal angular momentum diag(m_max, ..., -m_max)."""
    index = np.arange(trunc.dim)
    return SparseHermitian(trunc.dim, index, index, trunc.m_values())


def op_ux(trunc=SPIN1):
    """Truncated raising/lowering average (U+ + U-)/2: 1/2 on adjacent-m entries."""
    lower = np.arange(trunc.dim - 1)
    rows, cols = np.concatenate([lower, lower + 1]), np.concatenate([lower + 1, lower])
    return SparseHermitian(trunc.dim, rows, cols, np.full(rows.size, 0.5))


def op_charge_conjugation(trunc=SPIN1):
    """Unitary C with C|m> = |-m>: the anti-diagonal permutation, C^2 = 1."""
    return np.fliplr(np.eye(trunc.dim, dtype=np.complex128)).copy()


def kron_chain_h(c, trunc, n_links, end_terms=True):
    """Chain Hamiltonian summed term by term from Kronecker site operators.

    Periodic couplings close the neighbor terms into a ring; open ones add
    the end terms (Y/2)[(Lz_1)^2 + (Lz_N)^2] when `end_terms` is set.
    """
    d = trunc.dim

    def site(opmat, i):
        out = np.ones((1, 1), dtype=np.complex128)
        for j in range(n_links):
            out = np.kron(out, opmat if j == i else np.eye(d, dtype=np.complex128))
        return out

    lz_i = [site(op_lz(trunc).matrix, i) for i in range(n_links)]
    total = np.zeros((d**n_links, d**n_links), dtype=np.complex128)
    for i in range(n_links):
        total += 0.5 * c.u * (lz_i[i] @ lz_i[i])
        total -= c.x * site(op_ux(trunc).matrix, i)
    if c.boundary == "open":
        for i in range(n_links - 1):
            diff = lz_i[i + 1] - lz_i[i]
            total += 0.5 * c.y * (diff @ diff)
        if end_terms:
            total += 0.5 * c.y * (lz_i[0] @ lz_i[0])
            total += 0.5 * c.y * (lz_i[-1] @ lz_i[-1])
    else:
        for i in range(n_links):
            diff = lz_i[(i + 1) % n_links] - lz_i[i]
            total += 0.5 * c.y * (diff @ diff)
    return total


def loop_couplings(geom):
    """V_ij pair by pair, each distance from its own np.hypot: the reference for `couplings()`."""
    from cahm.rydberg_models import pair_interaction

    couplings = {}
    for i in range(geom.n_atoms):
        for j in range(i + 1, geom.n_atoms):
            d = geom.positions[i] - geom.positions[j]
            couplings[(i, j)] = pair_interaction(geom.interaction_scale, float(np.hypot(d[0], d[1])))
    return couplings


def loop_rydberg_h(geom, params):
    """Real array Hamiltonian summed state by state over the 2^n basis (atom 0 most significant)."""
    n = geom.n_atoms
    dim = 1 << n
    couplings = loop_couplings(geom)
    couplings.update(params.pair_overrides or {})
    h = np.zeros((dim, dim))
    extra = set(params.delta0_atoms)
    for b in range(dim):
        bits = [(b >> (n - 1 - i)) & 1 for i in range(n)]
        energy = -params.delta * sum(bits) - params.delta0 * sum(bits[i] for i in extra)
        for (i, j), v in couplings.items():
            if bits[i] and bits[j]:
                energy += v
        h[b, b] = energy
        for i in range(n):
            h[b, b ^ (1 << (n - 1 - i))] += 0.5 * params.omega
    return h


def preset_systems():
    """The simulator of every preset, plus the six-atom ladder without its middle pair."""
    from cahm.cli import _build_simulator, preset_config, presets

    systems = {}
    for name in presets():
        payload = preset_config(name).payload
        if "simulator" in payload:
            systems[name] = _build_simulator(payload["simulator"])[0]
        else:
            systems[name] = two_atom_system(payload["omega"], payload["delta"], payload["v0"])
    systems["six-atom-truncated"] = six_atom_system(
        1.0, 15.0, 30.0, 0.326, include_middle_pair=False
    )
    systems["six-atom-delta0"] = six_atom_system(1.0, 15.0, 30.0, 0.326, delta0=2.5)
    return systems


def loop_permutation_matrix(perm):
    """Basis permutation built state by state: atom i's excitation moves to atom perm[i]."""
    n = len(perm)
    dim = 1 << n
    m = np.zeros((dim, dim))
    for b in range(dim):
        b2 = 0
        for i in range(n):
            if (b >> (n - 1 - i)) & 1:
                b2 |= 1 << (n - 1 - perm[i])
        m[b2, b] = 1.0
    return m


def clustered_hermitian(rng, dim, cluster_sizes):
    """Random complex Hermitian with one exactly repeated eigenvalue per cluster size.

    The eigenbasis is a Haar-like random unitary, so no symmetry makes two
    projector columns tie exactly.  The result is exactly Hermitian.
    """
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    w = np.sort(rng.uniform(-1.0, 1.0, size=dim))
    start = 0
    for size in cluster_sizes:
        start += int(rng.integers(1, 4))
        w[start : start + size] = w[start]
        start += size
    h = (q * w) @ q.conj().T
    return 0.5 * h + 0.5 * h.conj().T


def tensordot_apply_single(state, m, q, n):
    """One-qubit gate m on qubit q of an n-qubit state, by tensordot over the qubit's axis."""
    psi = np.tensordot(m, state.reshape([2] * n), axes=([1], [q]))
    return np.moveaxis(psi, 0, q).reshape(-1)


def jsonable(value):
    """`value` with every dataclass, numpy scalar, tuple and dict key walked into plain JSON types.

    A dataclass instance becomes the dict of its fields, read one by one.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def jsonable_text(obj):
    """JSON artifact text of `obj`, formed from the `jsonable` walk; JSON has no inf or NaN."""
    return json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


def apply_steps(step, psi, n_steps):
    """`step` applied n_steps times by `apply_circuit`, one step at a time as `cahm trotter` does."""
    for _ in range(n_steps):
        psi = apply_circuit(step, psi)
    return psi


def two_atom_step(omega, delta, v0, dt):
    """The `trotter_step` of `two_atom_system(omega, delta, v0)`, which `cahm trotter` runs."""
    system = two_atom_system(omega, delta, v0)
    return trotter_step(system.geometry, system.params, dt)


def circuit_unitary(circuit):
    """Unitary of a circuit, column k being `apply_circuit` on basis state k."""
    dim = 1 << circuit.n_qubits
    columns = [apply_circuit(circuit, StateVector.basis(dim, k)).amplitudes for k in range(dim)]
    return np.column_stack(columns)


def sparse_from_dense(h):
    """SparseHermitian holding the nonzero entries of a dense matrix."""
    h = np.asarray(h)
    rows, cols = np.nonzero(h)
    return SparseHermitian(h.shape[0], rows, cols, h[rows, cols])


def _sector_columns(dim, symmetries, signs):
    """sum_g chi(g) e_{g r} for each orbit minimum r in ascending order, unnormalized.

    chi is the character with sign signs[j] on generator j; g runs over all
    2**k products of the generators.  A column that sums to zero (its
    stabiliser kills chi) is dropped.
    """
    columns = []
    for r in range(dim):
        v = np.zeros(dim)
        images = []
        for bits in itertools.product((0, 1), repeat=len(symmetries)):
            b, chi = r, 1
            for g, s, bit in zip(symmetries, signs, bits):
                if bit:
                    b, chi = int(g[b]), chi * s
            images.append(b)
            v[b] += chi
        if min(images) == r and np.any(v):
            columns.append(v)
    return columns


def dense_sector_bases(dim, symmetries):
    """Orthonormal basis (dim x n_chi) of each symmetry sector, built vector by vector.

    Characters run as in `symmetry_sectors` (+1 before -1 per generator, the
    first generator slowest); each column is a `_sector_columns` column,
    normalized, and empty sectors are dropped.
    """
    bases = []
    for signs in itertools.product((1, -1), repeat=len(symmetries)):
        columns = _sector_columns(dim, symmetries, signs)
        if columns:
            bases.append(np.column_stack([v / np.linalg.norm(v) for v in columns]))
    return bases


def accumulated_sector_blocks(h, symmetries, stored):
    """(block, pattern) of each sector of the dense matrix h, summed element by element of the group.

    The sectors are those of `dense_sector_bases`: r_a is the smallest index
    of column a's support and |Stab_a| is 2**k over the support's size.
    Entry (a, b) is sum_g chi(g) h[r_a, g r_b], added into 0.0 over the
    elements g in order (element i applies generator j when bit j of i is
    set), then divided by sqrt(|Stab_a| |Stab_b|).  The pattern marks the
    diagonal and every (a, b) that some (r_a, g r_b) marked in the boolean
    matrix `stored` reaches: the entries a split of the stored entries keeps.
    """
    k, dim = len(symmetries), h.shape[0]
    elements = []
    for i in range(2**k):
        bits = [(i >> j) & 1 for j in range(k)]
        g = np.arange(dim)
        for gen, bit in zip(symmetries, bits):
            if bit:
                g = np.asarray(gen)[g]
        elements.append((bits, g))
    blocks = []
    for signs in itertools.product((1, -1), repeat=k):
        columns = _sector_columns(dim, symmetries, signs)
        if not columns:
            continue
        reps = np.array([np.flatnonzero(v)[0] for v in columns])
        stab = np.array([2**k // np.count_nonzero(v) for v in columns])
        block = np.zeros((reps.size, reps.size), dtype=h.dtype)
        pattern = np.eye(reps.size, dtype=bool)
        for bits, g in elements:
            chi = float(np.prod([s for s, bit in zip(signs, bits) if bit]))
            block += chi * h[np.ix_(reps, g[reps])]
            pattern |= stored[np.ix_(reps, g[reps])]
        blocks.append((block / np.sqrt(np.outer(stab, stab)), pattern))
    return blocks


def lookup_mirror_deviation(dim, rows, cols, values):
    """max|H - H^dagger| over the stored entries, each mirror found by one unsorted search.

    The entries are sorted by row * dim + col first; a mirror that is not
    stored counts as 0.  This is the check `SparseHermitian` made before it
    searched for the mirrors in sorted order.
    """
    stored = np.asarray(rows) * dim + np.asarray(cols)
    order = np.argsort(stored, kind="stable")
    stored, values = stored[order], np.asarray(values)[order]
    rows, cols = np.divmod(stored, dim)
    mirrors = cols * dim + rows
    pos = np.minimum(np.searchsorted(stored, mirrors), stored.size - 1)
    found = np.where(stored[pos] == mirrors, values[pos], 0.0)
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(values - found.conj())))


def per_value_csv_text(trace):
    """EvolutionTrace CSV built one `str.format` call per value."""
    fmt = f"{{:.{CSV_DIGITS}g}}"
    lines = [",".join(["t", *trace.series])]
    for k, t in enumerate(trace.times):
        row = [fmt.format(t)] + [fmt.format(v[k]) for v in trace.series.values()]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def direct_amplitudes(spec, psi0, times, finals=None):
    """`Spectrum.propagate` with one exponential per eigenvalue and time.

    This is the direct formula V diag(exp(-i w t)) V^dagger psi0, bit for bit
    what `propagate` computes on a grid whose phases it does not factorise.
    """
    v = spec.eigenvectors
    c = _matmul(v.conj().T, psi0.amplitudes[:, None])
    phases = np.exp(-1j * np.outer(spec.eigenvalues, np.asarray(times, dtype=np.float64)))
    amplitudes = _matmul(v, phases * c)
    return amplitudes if finals is None else overlaps(finals, amplitudes)


def propagate_fit_time_rescale(target_op, psi0, finals, sim_trace, bracket):
    """`fit_time_rescale` with one `direct_amplitudes` call per objective value."""
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError(f"invalid bracket {bracket!r}")
    used = [(label, f) for label, f in finals if label in sim_trace.series]
    if not used:
        raise ValueError("no shared labels between the finals and the simulator trace")
    spec = eig_hermitian(target_op)
    used_finals = [f for _, f in used]
    sim_vals = np.vstack([sim_trace.series[label] for label, _ in used])

    def rms(k: float) -> float:
        probs = np.abs(direct_amplitudes(spec, psi0, k * sim_trace.times, used_finals)) ** 2
        return float(np.sqrt(np.mean((probs - sim_vals) ** 2)))

    ks = np.linspace(lo, hi, K_SCAN_POINTS)
    values = [rms(float(k)) for k in ks]
    best = int(np.argmin(values))
    a = float(ks[max(best - 1, 0)])
    b = float(ks[min(best + 1, K_SCAN_POINTS - 1)])
    k_opt = _golden_min(rms, a, b, K_TOL)
    return k_opt, rms(k_opt)


# Eigenvalue corruptions for the moment contract of `eig_hermitian(..., eigvals_only=True)`,
# each with the message that must reject it.
def _shift_the_largest_eigenvalue(w, h):
    w[-1] += 1e-6 * np.max(np.abs(h))


def _nan_eigenvalue(w, h):
    w[0] = np.nan


def _negate_and_reverse(w, h):
    w[:] = -w[::-1]


def _spread_the_extremes(w, h):
    # Keeps sum w, and the order; only sum w^2 = ||H||_F^2 can tell.
    w[[0, -1]] += 1e-6 * np.max(np.abs(h)) * np.array([-1.0, 1.0])


def _swap_the_extremes(w, h):
    w[[0, -1]] = w[[-1, 0]]


EIGENVALUE_MUTATIONS = {
    "shifted eigenvalue": (_shift_the_largest_eigenvalue, "moment contract"),
    "nan eigenvalue": (_nan_eigenvalue, "moment contract"),
    "negated and reversed": (_negate_and_reverse, "moment contract"),
    "spread extremes": (_spread_the_extremes, "moment contract"),
    "swapped extremes": (_swap_the_extremes, "ascending"),
}


def corrupting_eigvalsh(mutate, eigvalsh=np.linalg.eigvalsh):
    """numpy's eigvalsh, then `mutate(w, matrix)` on its eigenvalues in place."""

    def corrupted(matrix):
        w = eigvalsh(matrix)
        mutate(w, matrix)
        return w

    return corrupted
