"""Target <-> simulator parameter matching for the 2/3/4/6-atom arrays.

The two-atom match is exact in closed form.  The three-atom match solves the
second-order perturbative conditions, either with a damped Newton iteration
or through the degenerate-level shortcut at V0 = 2 Delta.  The four-atom
match is exact in closed form up to a sign obstruction on the same-m
coupling, and the six-atom match tunes the ladder aspect ratio rho and a
time-rescale factor K numerically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .evolution import spin_finals, trace
from .numerics import (
    DEGENERACY_RTOL,
    UNIFORM_GRID_ULPS,
    ContractViolationError,
    SparseHermitian,
    StateVector,
    _uniform_phases,
    eig_hermitian,
    overlaps,
)
from .rydberg_models import (
    atom_permutation,
    ladder_cross_couplings,
    ladder_system,
)
from .target_models import TargetCouplings, analytic_one_spin, build_h2t

_SQRT2 = math.sqrt(2.0)
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

PARAM_NAMES = ("omega", "delta", "delta0", "v0")

# Newton stops once every residual is within NEWTON_TOL; a golden-section
# search takes at most GOLDEN_MAX_ITER steps.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 100
GOLDEN_MAX_ITER = 300
# The time-rescale fit scans K_SCAN_POINTS over the bracket, then refines
# by golden section to K_TOL.
K_SCAN_POINTS = 41
K_TOL = 1e-9
# The six-atom match fits K on linspace(0, SIX_ATOM_T_MAX, SIX_ATOM_N_TIMES).
SIX_ATOM_T_MAX = 100.0
SIX_ATOM_N_TIMES = 1001


class SingularDenominatorError(ZeroDivisionError):
    """A perturbative energy denominator is (numerically) zero."""


class MatchingError(RuntimeError):
    """A matching procedure cannot produce a usable result."""


def _overflow_as_matching_error(match):
    """Report a float overflow or a plain zero division inside `match` as a MatchingError.

    The perturbative conditions square energies and divide by their products,
    so parameters near the ends of the float range overflow Python floats.
    """

    @functools.wraps(match)
    def checked(*args, **kwargs):
        try:
            return match(*args, **kwargs)
        except SingularDenominatorError:
            raise
        except (OverflowError, ZeroDivisionError) as exc:
            raise MatchingError(
                f"{match.__name__}: the parameters leave the float range ({exc})"
            ) from exc

    return checked


@dataclass
class MatchReport:
    """Resolved simulator parameters plus the residuals of the match conditions."""

    simulator_params: dict
    residuals: dict
    predicted: dict | None = None
    time_rescale_k: float | None = None
    notes: tuple[str, ...] = ()
    converged: bool = True

    def __post_init__(self):
        for name, value in self.residuals.items():
            if not math.isfinite(value):
                raise ValueError(f"residual {name!r} is not finite")
        if self.time_rescale_k is not None and not self.time_rescale_k > 0:
            raise ValueError("time rescale factor must be positive")
        self.notes = tuple(self.notes)


def _golden_min(f, a: float, b: float, tol: float) -> float:
    """Golden-section minimum of a unimodal function on [a, b]."""
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def match_two_atom(c: TargetCouplings, blockade_ratio: float = 64.0) -> MatchReport:
    """Exact one-spin match on the blockaded pair.

    Delta = -U/2 reproduces the m = 0 <-> m = +-1 splitting, Omega = -X makes
    the drive act as the target current term on the encoded states, and
    V0 = blockade_ratio * |Omega| (or blockade_ratio * |U|/2 when X = 0)
    suppresses the doubly excited state.  The match is exact up to leakage
    into that state.
    """
    if not blockade_ratio > 0:
        raise ValueError("blockade_ratio must be positive")
    omega = -c.x
    delta = -0.5 * c.u
    v0 = blockade_ratio * abs(omega) if c.x != 0.0 else blockade_ratio * abs(c.u) / 2.0
    notes = ["exact on the encoded spin; residual error is doubly-excited-state leakage ~ Omega^2/V0"]
    if c.x == 0.0:
        notes.append("X = 0: no drive, dynamics stays diagonal")
    return MatchReport(
        simulator_params={"omega": omega, "delta": delta, "v0": v0},
        residuals={"splitting": 0.0, "drive": 0.0},
        predicted=asdict(analytic_one_spin(c)),
        notes=tuple(notes),
    )


def _check_denominator(name: str, value: float, scale: float) -> None:
    if abs(value) <= 1e-12 * scale:
        raise SingularDenominatorError(f"denominator {name} = {value!r} is singular")


def three_atom_residuals(
    omega: float,
    delta: float,
    delta0: float,
    v0: float,
    c: TargetCouplings,
) -> tuple[float, float, float]:
    """Residuals of the three second-order matching conditions.

    r1: level repulsion reproducing X^2/U,
    r2: splitting U/2 + X^2/U against Delta0 plus its second-order shifts,
    r3: mixing angle sqrt(2) X/U against its second-order expression.
    At Omega = 0 all second-order terms vanish identically.

    Note the r3 tension: the target mixing is first order in X while the
    simulator only mixes at second order in Omega, so X and Omega cannot be
    proportional at small drive.  The condition is used exactly as written.
    """
    if c.u == 0.0:
        raise ValueError("matching requires U != 0")
    if omega != 0.0:
        scale = max(1.0, abs(delta), abs(delta0), abs(v0))
        _check_denominator("delta", delta, scale)
        _check_denominator("delta - v0/64", delta - v0 / 64.0, scale)
        _check_denominator("delta0", delta0, scale)
        _check_denominator("delta + delta0", delta + delta0, scale)
        _check_denominator("v0 - delta", v0 - delta, scale)
        _check_denominator("v0 - delta - delta0", v0 - delta - delta0, scale)
        pt1 = 0.5 * omega**2 * (1.0 / (delta - v0 / 64.0) - 1.0 / delta)
        pt2 = 0.25 * omega**2 * (
            1.0 / (delta + delta0) + 2.0 / (v0 - delta) - 1.0 / (v0 - delta - delta0)
        )
        pt3 = omega**2 / (2.0 * _SQRT2 * delta0) * (1.0 / delta + 1.0 / (v0 - delta - delta0))
    else:
        pt1 = pt2 = pt3 = 0.0
    r1 = c.x**2 / c.u - pt1
    r2 = 0.5 * c.u + c.x**2 / c.u - delta0 - pt2
    r3 = _SQRT2 * c.x / c.u - pt3
    return (r1, r2, r3)


@dataclass(frozen=True)
class NewtonProblem:
    """Which of (omega, delta, delta0, v0) to solve for, and against which equations."""

    targets: TargetCouplings
    unknowns: tuple[str, ...]
    fixed: dict
    initial_guess: dict | None = None
    equations: tuple[int, ...] = (1, 2, 3)

    def __post_init__(self):
        unknowns = tuple(self.unknowns)
        object.__setattr__(self, "unknowns", unknowns)
        object.__setattr__(self, "equations", tuple(self.equations))
        for field, values in (("unknowns", unknowns), ("equations", self.equations)):
            if len(set(values)) != len(values):
                raise ValueError(f"{field} must not repeat, got {values!r}")
        if set(unknowns) & set(self.fixed):
            raise ValueError("a parameter cannot be both unknown and fixed")
        if set(unknowns) | set(self.fixed) != set(PARAM_NAMES):
            raise ValueError(f"unknowns + fixed must cover exactly {PARAM_NAMES}")
        if not 1 <= len(unknowns) <= 3:
            raise ValueError("between 1 and 3 unknowns are supported")
        if len(self.equations) != len(unknowns):
            raise ValueError("need as many equations as unknowns")
        if any(e not in (1, 2, 3) for e in self.equations):
            raise ValueError("equations are numbered 1..3")
        if self.initial_guess is None:
            if "v0" in unknowns:
                raise ValueError("an initial_guess is required when v0 is an unknown")
        elif set(self.initial_guess) != set(unknowns):
            raise ValueError(f"initial_guess must give exactly the unknowns {unknowns}")


def _damped_newton(residuals, x: np.ndarray, r: np.ndarray) -> tuple:
    """Damped Newton iteration from x, whose residuals are r, to max|r| <= NEWTON_TOL.

    Jacobian by central finite differences (step 1e-6 * max(1, |x|)); each step
    is halved (at most 20 times) until the residual norm decreases.  Returns
    (x, r, failure): failure is None on convergence, else why the iteration
    stopped, with x and r its last iterate.
    """
    for _ in range(NEWTON_MAX_ITER):
        if float(np.max(np.abs(r))) <= NEWTON_TOL:
            return x, r, None
        jac = np.zeros((len(r), len(x)))
        for j in range(len(x)):
            step = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += step
            xm[j] -= step
            try:
                jac[:, j] = (residuals(xp) - residuals(xm)) / (2.0 * step)
            except SingularDenominatorError as exc:
                return x, r, f"singular denominator while differentiating: {exc}"
        try:
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            return x, r, "singular Jacobian"
        lam, base_norm = 1.0, float(np.linalg.norm(r))
        for _ in range(21):
            try:
                r_new = residuals(x + lam * dx)
                if float(np.linalg.norm(r_new)) < base_norm:
                    x, r = x + lam * dx, r_new
                    break
            except SingularDenominatorError:
                pass
            lam *= 0.5
        else:
            return x, r, "line search failed to reduce the residual norm"
    if float(np.max(np.abs(r))) > NEWTON_TOL:
        return x, r, f"no convergence within {NEWTON_MAX_ITER} iterations"
    return x, r, None


@_overflow_as_matching_error
def solve_three_atom_newton(prob: NewtonProblem) -> MatchReport:
    """Solve the selected matching equations for the unknowns by `_damped_newton`.

    The start is the initial guess, else omega = -X, delta = -U/2 and
    delta0 = U/2.  Returns a non-converged report, the reason in its notes,
    instead of raising when the residuals are not evaluable at the start or
    the iteration stops short.
    """
    c = prob.targets
    notes: list[str] = []

    def params_at(x: np.ndarray) -> dict:
        return {**prob.fixed, **{name: float(v) for name, v in zip(prob.unknowns, x)}}

    def residuals(x: np.ndarray) -> np.ndarray:
        p = params_at(x)
        full = three_atom_residuals(p["omega"], p["delta"], p["delta0"], p["v0"], c)
        return np.array([full[e - 1] for e in prob.equations], dtype=np.float64)

    if prob.initial_guess is not None:
        x = np.array([float(prob.initial_guess[name]) for name in prob.unknowns])
    else:
        default = {"omega": -c.x, "delta": -0.5 * c.u, "delta0": 0.5 * c.u}
        x = np.array([default[name] for name in prob.unknowns])
        # The textbook starting point delta = -U/2, delta0 = U/2 sits exactly on
        # the delta + delta0 = 0 pole; nudge deterministically until evaluable.
        for attempt in range(1, 11):
            try:
                residuals(x)
                break
            except SingularDenominatorError:
                for i, name in enumerate(prob.unknowns):
                    if name == "delta0":
                        x[i] *= 1.0 + 0.004 * attempt
                    elif name == "delta":
                        x[i] *= 1.0 - 0.003 * attempt
        else:
            notes.append("default initial guess could not avoid singular denominators")

    try:
        r = residuals(x)
    except SingularDenominatorError as exc:
        r, failure = None, f"residuals not evaluable at the initial guess: {exc}"
    else:
        x, r, failure = _damped_newton(residuals, x, r)
    params = params_at(x)
    predicted = None
    if failure is not None:
        notes.append(failure)
    else:
        try:
            target = analytic_one_spin(c)
            predicted = {
                **_exact_gaps(params["omega"], params["delta"], params["delta0"], params["v0"]),
                "gap_plus_target": target.eplus - target.e0,
                "gap_minus_target": target.eminus - target.e0,
            }
        except (ValueError, np.linalg.LinAlgError, MatchingError):
            notes.append("predicted spectrum unavailable at the solution parameters")
    return MatchReport(
        simulator_params=params,
        residuals={} if r is None else {f"r{e}": float(v) for e, v in zip(prob.equations, r)},
        predicted=predicted,
        notes=tuple(notes),
        converged=failure is None,
    )


def degenerate_matrix_m(delta: float, v0: float, drop_far_coupling: bool = False) -> np.ndarray:
    """Second-order energy matrix of the degenerate {|0>, |+>} pair at Delta0 = 0.

    The physical energies are -Delta - (Omega^2/4) * eigenvalues(M).  With
    `drop_far_coupling` the weak outer-pair interaction V0/64 is neglected.
    """
    scale = max(1.0, abs(delta), abs(v0))
    _check_denominator("delta", delta, scale)
    _check_denominator("v0 - delta", v0 - delta, scale)
    far = 0.0 if drop_far_coupling else v0 / 64.0
    _check_denominator("delta - v0/64", delta - far, scale)
    m01 = _SQRT2 / delta + _SQRT2 / (v0 - delta)
    return np.array(
        [
            [1.0 / delta + 2.0 / (v0 - delta), m01],
            [m01, 2.0 / delta + 1.0 / (v0 - delta) - 2.0 / (delta - far)],
        ]
    )


def three_atom_low_sector(omega: float, delta: float, delta0: float, v0: float) -> dict:
    """Exact energies of the three-atom eigenstates carrying the encoded spin.

    Out of the eight eigenstates, the three with the largest weight on the
    encoded subspace are selected; the mirror-odd one is E-, the mirror-even
    ones are E0 (lower) and E+ (upper).

    Raises MatchingError when a selected level is degenerate with a
    neighbour (within DEGENERACY_RTOL * spectral radius): its weight and
    parity would then depend on the solver's choice of basis in the eigenspace.
    """
    system = ladder_system(3, 1, v0, omega, delta, delta0)
    spec = eig_hermitian(system.hamiltonian())
    weight = np.sum(np.abs(spec.eigenvectors[list(system.spin_map.indices), :]) ** 2, axis=0)
    picked = sorted(np.argsort(-weight, kind="stable")[:3])
    w = spec.eigenvalues
    gaps = np.diff(w)
    tol = DEGENERACY_RTOL * max(abs(w[0]), abs(w[-1]))
    for k in picked:
        if np.min(gaps[max(k - 1, 0) : k + 1]) <= tol:
            raise MatchingError(
                f"three-atom level {k} (E = {w[k]:.6g}) is degenerate with a neighbour, "
                "so its encoded weight and mirror parity are not defined"
            )
    v, mirror = spec.eigenvectors, atom_permutation(system.mirror)
    parity = [float(v[mirror, k] @ v[:, k]) for k in picked]
    odd_pos = int(np.argmin(parity))
    eminus = float(spec.eigenvalues[picked[odd_pos]])
    even = [float(spec.eigenvalues[k]) for i, k in enumerate(picked) if i != odd_pos]
    return {
        "e0": min(even),
        "eplus": max(even),
        "eminus": eminus,
        "parities": tuple(parity),
        "weights": tuple(float(weight[k]) for k in picked),
    }


def _exact_gaps(omega: float, delta: float, delta0: float, v0: float) -> dict:
    """Exact gaps E+ - E0 and E- - E0 of the three-atom levels carrying the encoded spin."""
    s = three_atom_low_sector(omega, delta, delta0, v0)
    return {"gap_plus": s["eplus"] - s["e0"], "gap_minus": s["eminus"] - s["e0"]}


@_overflow_as_matching_error
def approx_three_atom_match(omega: float, delta: float) -> MatchReport:
    """Degenerate-level match at Delta0 = 0, V0 = 2 Delta.

    Dropping the V0/64 coupling, the second-order energy matrix has
    eigenvalues 5/Delta and -1/Delta, giving level gaps
    E+ - E0 = (3/2) Omega^2/Delta and E- - E0 = Omega^2/Delta and a mixing
    angle tan(phi) = 1/sqrt(2).  That reproduces a target with X = U at the
    scale U = Omega^2/Delta.
    """
    if delta == 0.0:
        raise ValueError("delta must be nonzero")
    v0 = 2.0 * delta
    u_pred = omega**2 / delta
    predicted = {
        "u": u_pred,
        "x": u_pred,
        "tan_phi": 1.0 / _SQRT2,
        "gap_ratio_design": 1.5,
    }
    residuals = {}
    notes = ["scale match: U = Omega^2/Delta, accurate near X/U = 1"]
    if omega != 0.0:
        gaps = _exact_gaps(omega, delta, 0.0, v0)
        ratio = gaps["gap_plus"] / gaps["gap_minus"]
        predicted.update({**gaps, "gap_ratio": ratio})
        residuals["gap_ratio"] = ratio - 1.5
    else:
        notes.append("Omega = 0: encoded levels stay degenerate")
    return MatchReport(
        simulator_params={"omega": omega, "delta": delta, "delta0": 0.0, "v0": v0},
        residuals=residuals,
        predicted=predicted,
        notes=tuple(notes),
    )


def match_four_atom(c: TargetCouplings, v0: float) -> MatchReport:
    """Closed-form two-spin match on the 2x2 ladder.

    Delta = -(U+Y)/2 and Omega = -X are exact; rho = (Y/V0)^(1/6) makes the
    facing coupling V1 = Y exact, but the same-m condition wants V2 = -Y while
    any 1/r^6 geometry yields a positive V2.
    """
    if c.y < 0:
        raise ValueError("the four-atom construction requires Y >= 0")
    if not v0 > 0:
        raise ValueError("v0 must be positive")
    if c.y >= v0:
        raise ValueError(f"Y = {c.y} >= V0 = {v0} puts rho >= 1: the geometry degenerates")
    delta = -0.5 * (c.u + c.y)
    omega = -c.x
    notes = []
    if c.y == 0.0:
        rho = 0.0
        v1 = v2 = 0.0
        notes.append("Y = 0: columns decouple into two independent two-atom matches")
    else:
        rho = (c.y / v0) ** (1.0 / 6.0)
        cc = ladder_cross_couplings(v0, rho, 2)
        v1, v2 = cc["v1"], cc["v2"]
        notes.append(
            "V2 sign unrealizable: the target needs V2 = -Y but the geometric "
            f"coupling is +{v2:.6g}; override the same-m pairs for an ideal match"
        )
    return MatchReport(
        simulator_params={
            "omega": omega,
            "delta": delta,
            "v0": v0,
            "rho": rho,
            "v1": v1,
            "v2_geometric": v2,
            "v2_ideal": -c.y,
        },
        residuals={
            "delta_condition": 0.0,
            "v1_condition": v1 - c.y,
            "v2_condition": v2 - (-c.y),
        },
        predicted=asdict(analytic_one_spin(c)),
        notes=tuple(notes),
    )


def fit_time_rescale(
    target_op: SparseHermitian,
    psi0: StateVector,
    finals: list[tuple[str, StateVector]],
    sim_trace,
    bracket: tuple[float, float],
) -> tuple[float, float]:
    """K minimizing the RMS between target(K * t_sim) and the simulator trace.

    The target is evaluated exactly at the rescaled simulator times, so no
    interpolation enters the objective.  It is diagonalised once into the
    coefficients A[f, j] = <f|v_j><v_j|psi0>, and each K reads its amplitudes
    as (outer * A_f) @ inner, with the phases factorised over the uniform grid
    as in `Spectrum.propagate`: a ValueError naming `sim_trace.times` refuses
    any other grid, and a non-finite hi max|w| max|t| raises
    ContractViolationError before any exponential.  A deterministic coarse
    scan over the bracket seeds a golden-section refinement.  Returns (K, rms at K).
    """
    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError(f"invalid bracket {bracket!r}")
    used = [(label, f) for label, f in finals if label in sim_trace.series]
    if not used:
        raise ValueError("no shared labels between the finals and the simulator trace")
    phases = _uniform_phases(sim_trace.times)
    if phases is None:
        raise ValueError(f"sim_trace.times are not uniform to {UNIFORM_GRID_ULPS} ulps of max|t|")
    spec = eig_hermitian(target_op)
    if any(s.dim != spec.dim for s in [psi0, *(f for _, f in used)]):
        raise ContractViolationError(f"state dimension does not match H ({spec.dim})")
    # A product of Python floats: one that overflows is inf, with no numpy warning.
    w_max, t_max = float(np.max(np.abs(spec.eigenvalues))), float(np.max(np.abs(sim_trace.times)))
    if not math.isfinite(hi * w_max * t_max):
        raise ContractViolationError(
            "phases exp(-i K w t) overflow: K max|w| max|t| is not finite at the bracket's upper K"
        )
    v = spec.eigenvectors
    coeffs = overlaps([f for _, f in used], v) * (v.conj().T @ psi0.amplitudes)
    sim_vals = np.vstack([sim_trace.series[label] for label, _ in used])

    def rms(k: float) -> float:
        outer, inner = phases(k * spec.eigenvalues)
        blocks = (outer.T * coeffs[:, None, :]).reshape(-1, spec.dim) @ inner
        d = np.abs(blocks.reshape(len(used), -1)[:, : sim_vals.shape[1]])
        np.square(d, out=d)
        np.subtract(d, sim_vals, out=d)
        np.square(d, out=d)
        return math.sqrt(np.add.reduce(d, axis=None) / d.size)

    ks = np.linspace(lo, hi, K_SCAN_POINTS)
    values = [rms(float(k)) for k in ks]
    best = int(np.argmin(values))
    a = float(ks[max(best - 1, 0)])
    b = float(ks[min(best + 1, K_SCAN_POINTS - 1)])
    k_opt = _golden_min(rms, a, b, K_TOL)
    return k_opt, rms(k_opt)


@_overflow_as_matching_error
def match_six_atom(
    c: TargetCouplings,
    omega: float,
    delta: float,
    v0: float,
    rho_hint: float | None = None,
    include_middle_pair: bool = True,
) -> MatchReport:
    """Approximate two-spin match on the 3x2 ladder.

    The aspect ratio rho is tuned so the coupling differences reproduce the
    charge-term conditions V1 - V2 = Y/2 and V1 - V3 = 2Y at the simulator
    energy scale K_e = Omega^2 / (Delta U); the time-rescale factor K then
    minimizes the RMS between the rescaled simulator trace and the target
    trace for P(0,0) and P(S).  A K within K_TOL of an edge of its bracket
    [0.5 |K_e|, 1.5 |K_e|] is no interior minimum: the report is then not
    converged, with a note that names the bracket.
    """
    if c.u == 0.0 or delta == 0.0 or omega == 0.0:
        raise ValueError("matching requires U != 0, Delta != 0 and omega != 0")
    k_e = omega**2 / (delta * c.u)
    notes = []
    if c.y == 0.0:
        notes.append(
            "Y = 0: the conditions give V1 = V2 = V3, satisfied only as rho -> 0; "
            "columns decouple"
        )
        # rho -> 0 means infinite column separation; emulate the decoupled
        # limit by zeroing every cross-column coupling on a finite layout.
        rho, overrides = 0.0, {(i, j): 0.0 for i in range(3) for j in range(3, 6)}
        system = ladder_system(3, 2, v0, omega, delta, rho=0.1, overrides=overrides)
    else:
        weight = k_e * c.y

        def objective(r: float) -> float:
            cc = ladder_cross_couplings(v0, r, 3)
            return (cc["v1"] - cc["v2"] - 0.5 * weight) ** 2 + (
                cc["v1"] - cc["v3"] - 2.0 * weight
            ) ** 2

        if rho_hint is None:
            lo, hi = 0.05, 0.95
        else:
            lo, hi = max(0.02, 0.7 * rho_hint), min(0.98, 1.3 * rho_hint)
            if not lo < hi:
                raise ValueError(
                    f"rho_hint = {rho_hint!r} leaves an empty rho bracket [{lo}, {hi}]: "
                    "the hint must lie in (0.02/1.3, 0.98/0.7)"
                )
        rho = _golden_min(objective, lo, hi, 1e-7)
        if min(rho - lo, hi - rho) < 1e-4:
            raise MatchingError(
                f"rho tuner pinned at the bracket edge ({rho:.6f} in [{lo}, {hi}]); "
                "no interior minimum found"
            )
        overrides = None if include_middle_pair else {(1, 4): 0.0}
        system = ladder_system(3, 2, v0, omega, delta, rho=rho, overrides=overrides)
    v1, v2, v3 = system.derived["v1"], system.derived["v2"], system.derived["v3"]

    residuals = {
        "v1_minus_v2": (v1 - v2) - 0.5 * k_e * c.y,
        "v1_minus_v3": (v1 - v3) - 2.0 * k_e * c.y,
    }
    notes.append(
        "middle facing pair " + ("included at V1" if include_middle_pair else "truncated to 0")
    )
    notes.append("Delta0 = 0: the electric splitting emerges from second-order level repulsion")

    # The fit reads the simulator's 00 and S series only: no leakage series.
    finals_t = spin_finals(9)
    psi0_t = dict(finals_t)["00"]
    times = np.linspace(0.0, SIX_ATOM_T_MAX, SIX_ATOM_N_TIMES)
    embedded = [(label, system.embed(state)) for label, state in finals_t]
    sim_tr = trace(system.hamiltonian(), system.embed(psi0_t), embedded, times)
    lo, hi = 0.5 * abs(k_e), 1.5 * abs(k_e)
    try:
        k_opt, k_rms = fit_time_rescale(build_h2t(c), psi0_t, finals_t, sim_tr, (lo, hi))
    except ContractViolationError as exc:
        raise ValueError(
            f"{exc}; the target spectrum and K are set by U = {c.u!r}, X = {c.x!r}, "
            f"Y = {c.y!r}, omega = {omega!r} and delta = {delta!r}"
        ) from None
    residuals["trace_rms"] = k_rms
    pinned = min(k_opt - lo, hi - k_opt) <= K_TOL
    if pinned:
        notes.append(
            f"time rescale K = {k_opt!r} pinned at the edge of its bracket [{lo!r}, {hi!r}] "
            "(0.5 and 1.5 |K_e|); no interior minimum found"
        )

    return MatchReport(
        simulator_params={
            "omega": omega,
            "delta": delta,
            "delta0": 0.0,
            "v0": v0,
            "rho": rho,
            "v1": v1,
            "v2": v2,
            "v3": v3,
        },
        residuals=residuals,
        predicted={"k_energy_scale": k_e},
        time_rescale_k=k_opt,
        notes=tuple(notes),
        converged=not pinned,
    )
