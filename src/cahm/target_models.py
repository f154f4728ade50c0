"""Truncated quantum-rotor operators and target Hamiltonians.

Each link carries angular-momentum values m = m_max .. -m_max; the basis is
ordered by descending m (|m_max> first) and, for several links, the leftmost
site is the most significant factor of the tensor product.  The target
Hamiltonian for N links is

    H = (U/2) sum_i (Lz_i)^2 + (Y/2) sum_i' (Lz_{i+1} - Lz_i)^2 - X sum_i Ux_i

where the primed sum adds the boundary terms (Lz_1)^2 + (Lz_N)^2 for open
boundary conditions.  Ux = (U+ + U-)/2 with U+-|m> = |m +- 1> and
U+-|+-m_max> = 0; for spin-1, Ux = Lx / sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .numerics import SparseHermitian, SparsePattern, basis_digits, site_strides


@dataclass(frozen=True)
class SpinTruncation:
    """Angular-momentum cutoff |m| <= m_max; link dimension 2*m_max + 1."""

    m_max: int

    def __post_init__(self):
        if not isinstance(self.m_max, int) or not 1 <= self.m_max <= 5:
            raise ValueError(f"m_max must be an integer in 1..5, got {self.m_max!r}")

    @property
    def dim(self) -> int:
        return 2 * self.m_max + 1

    def m_values(self) -> np.ndarray:
        """m quantum numbers in basis order (descending)."""
        return np.arange(self.m_max, -self.m_max - 1, -1, dtype=np.float64)


SPIN1 = SpinTruncation(1)


@dataclass(frozen=True)
class TargetCouplings:
    """Electric (U), current (X) and charge (Y) couplings of the target chain.

    Signs are unrestricted and carry physics: U, X and Y inherit the signs of
    the underlying inverse gauge coupling and hopping strengths.
    """

    u: float
    x: float
    y: float = 0.0
    boundary: str = "open"

    def __post_init__(self):
        for name in ("u", "x", "y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coupling {name} must be finite")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"boundary must be 'open' or 'periodic', got {self.boundary!r}")


@dataclass(frozen=True)
class OneSpinSpectrum:
    """Spin-1 energies E0 <= E+ plus the charge-odd level E- = U/2 and mixing angle."""

    e0: float
    eplus: float
    eminus: float
    phi: float

    def __post_init__(self):
        if self.e0 > self.eplus + 1e-12 * max(1.0, abs(self.eplus)):
            raise ValueError("one-spin spectrum requires E0 <= E+")


# Chain structures that `chain_terms` keeps, least recently used first out: one
# takes 0.3 MiB at dim 625 and 2 MiB at dim 3125, its sector plan included.
# `chain_symmetries` keeps as many (truncation, links) pairs' permutations.
CHAIN_CACHE_SIZE = 8


@lru_cache(maxsize=CHAIN_CACHE_SIZE, typed=True)
def chain_symmetries(trunc: SpinTruncation, n_links: int) -> tuple[np.ndarray, ...]:
    """Charge conjugation C and link reflection P of every chain, as index permutations.

    Entry b of each array is the basis index of the image of |b>.  C maps m to
    -m on every link, which in the descending-m digit layout reverses the
    index; P reverses the order of the links.  Open chains (with or without
    end terms) and periodic rings commute with both.  At one link P is the
    identity and is left out.  The arrays are read-only and kept for the
    last CHAIN_CACHE_SIZE (truncation, links) pairs asked for.
    """
    digits = basis_digits(trunc.dim, n_links, "n_links")
    permutations = [np.arange(len(digits))[::-1].copy()]
    if n_links > 1:
        permutations.append(digits[:, ::-1] @ site_strides(trunc.dim, n_links))
    for g in permutations:
        g.setflags(write=False)
    return tuple(permutations)


@dataclass(frozen=True)
class _ChainStructure:
    """What a chain's terms share at every coupling, read-only.

    `m_squared` is sum_i m_i^2 and `charge` the Y term's sum of squares, per
    basis index; the validated `pattern` stores every diagonal entry, and
    its other entries are the hops.
    """

    m_squared: np.ndarray
    charge: np.ndarray
    pattern: SparsePattern


@lru_cache(maxsize=CHAIN_CACHE_SIZE, typed=True)
def _chain_structure(
    trunc: SpinTruncation, n_links: int, boundary: str, end_terms: bool
) -> _ChainStructure:
    """The structure of the N-link chain: its tables and its pattern, built and checked once."""
    d = trunc.dim
    digits = basis_digits(d, n_links, "n_links")
    index = np.arange(len(digits))
    m = trunc.m_values()[digits]
    neighbors = np.roll(m, -1, axis=1) - m if boundary == "periodic" else np.diff(m, axis=1)
    charge = (neighbors**2).sum(axis=1)
    if end_terms:
        charge += m[:, 0] ** 2 + m[:, -1] ** 2
    rows, cols = [index], [index]
    for i, stride in enumerate(site_strides(d, n_links)):
        lower = index[digits[:, i] < d - 1]
        rows += [lower, lower + stride]
        cols += [lower + stride, lower]
    pattern = SparsePattern(len(index), np.concatenate(rows), np.concatenate(cols))
    tables = (m**2).sum(axis=1), charge
    for a in tables:
        a.setflags(write=False)
    return _ChainStructure(*tables, pattern)


def chain_terms(
    c: TargetCouplings, trunc: SpinTruncation, n_links: int, end_terms: bool
) -> SparseHermitian:
    """N-link chain as its nonzero terms, from the mixed-radix digits of the basis index.

    The diagonal is (U/2) sum m_i^2 + (Y/2) charge, where charge sums the
    neighbor differences (closed into a ring for periodic couplings) plus,
    with `end_terms`, m_1^2 + m_N^2.  Ux_i links index b to b + d^(N-1-i)
    wherever link i can still lower m: the pairs (b, b + stride) and
    (b + stride, b) at -X/2.  Every chain builder returns this form.  A
    diagonal beyond the float range raises a ValueError naming U and Y.

    Everything but the values depends on (truncation, n_links, boundary,
    end_terms) alone: the last CHAIN_CACHE_SIZE of those structures are
    kept, and each call computes its values and checks them as
    `SparseHermitian` does.
    """
    if n_links < 1:
        raise ValueError(f"n_links must be >= 1, got {n_links}")
    s = _chain_structure(trunc, n_links, c.boundary, end_terms)
    # An overflow is refused below, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = 0.5 * c.u * s.m_squared + 0.5 * c.y * s.charge
    if not np.isfinite(diagonal).all():
        raise ValueError(
            f"couplings U = {c.u!r} and Y = {c.y!r} give diagonal energies beyond the float range"
        )
    values = np.full(s.pattern.size, -0.5 * c.x)
    values[s.pattern.diagonal] = diagonal
    return SparseHermitian.from_pattern(s.pattern, values)


def build_h1t(c: TargetCouplings, trunc: SpinTruncation = SPIN1) -> SparseHermitian:
    """One-spin target Hamiltonian (U/2) Lz^2 - X Ux."""
    return chain_terms(c, trunc, 1, end_terms=False)


def analytic_one_spin(c: TargetCouplings) -> OneSpinSpectrum:
    """Closed-form spin-1 spectrum of (U/2) Lz^2 - X Ux.

    The charge-even block in the {|0>, |+>} basis gives
        E0 = (U - sqrt(U^2 + 8 X^2)) / 4,   E+ = (U + sqrt(U^2 + 8 X^2)) / 4,
    the charge-odd state |-> = (|1> - |-1>)/sqrt(2) stays at E- = U/2 for any X,
    and the ground-state mixing angle obeys tan(phi) = -sqrt(2) E0 / X
    (phi = 0 at X = 0 by convention, phi in (-pi/2, pi/2]).
    """
    root = math.sqrt(c.u * c.u + 8.0 * c.x * c.x)
    e0 = 0.25 * (c.u - root)
    eplus = 0.25 * (c.u + root)
    phi = 0.0 if c.x == 0.0 else math.atan(-math.sqrt(2.0) * e0 / c.x)
    return OneSpinSpectrum(e0=e0, eplus=eplus, eminus=0.5 * c.u, phi=phi)


def perturbative_one_spin(c: TargetCouplings) -> OneSpinSpectrum:
    """Second-order expansion in X: E0 = -X^2/U, E+ = U/2 + X^2/U, phi = sqrt(2) X/U."""
    if c.u == 0.0:
        raise ValueError("perturbative expansion requires U != 0")
    shift = c.x * c.x / c.u
    return OneSpinSpectrum(
        e0=-shift,
        eplus=0.5 * c.u + shift,
        eminus=0.5 * c.u,
        phi=math.sqrt(2.0) * c.x / c.u,
    )


def build_h2t(c: TargetCouplings) -> SparseHermitian:
    """Two coupled spin-1 sites: H1T (x) 1 + 1 (x) H1T + (Y/2)(Lz_L - Lz_R)^2.

    No boundary Lz^2 terms are included here; `build_chain_h` with two links
    and open boundaries adds them.
    """
    return chain_terms(replace(c, boundary="open"), SPIN1, 2, end_terms=False)


def build_chain_h(c: TargetCouplings, trunc: SpinTruncation, n_links: int) -> SparseHermitian:
    """Full N-link chain Hamiltonian.

    Open boundaries include the end terms (Y/2)[(Lz_1)^2 + (Lz_N)^2] on top of
    the nearest-neighbor charge terms.  Periodic mode closes a plain
    nearest-neighbor ring instead (experimental: the compactified boundary
    charges are not otherwise specified).
    """
    return chain_terms(c, trunc, n_links, end_terms=c.boundary == "open")
