import numpy as np
import pytest

from cahm import (
    ContractViolationError,
    MatchingError,
    NewtonProblem,
    SingularDenominatorError,
    StateVector,
    TargetCouplings,
    analytic_one_spin,
    approx_three_atom_match,
    build_h1t,
    build_h2t,
    degenerate_matrix_m,
    eig_hermitian,
    fit_time_rescale,
    ladder_system,
    match_four_atom,
    match_six_atom,
    match_two_atom,
    solve_three_atom_newton,
    three_atom_low_sector,
    three_atom_residuals,
)
from cahm.evolution import EvolutionTrace, simulator_trace, spin_finals, trace
from cahm.matching import K_TOL, SIX_ATOM_N_TIMES, SIX_ATOM_T_MAX

from helpers import (
    consistent_three_atom_point,
    direct_amplitudes,
    factorised_fit_time_rescale,
    propagate_fit_time_rescale,
    random_hermitian,
    sparse_from_dense,
)


def test_match_two_atom_examples():
    rep = match_two_atom(TargetCouplings(u=1.0, x=0.5))
    assert rep.simulator_params == {"omega": -0.5, "delta": -0.5, "v0": 32.0}
    rep = match_two_atom(TargetCouplings(u=1.0, x=1.5))
    assert rep.simulator_params == {"omega": -1.5, "delta": -0.5, "v0": 96.0}
    assert all(v == 0.0 for v in rep.residuals.values())
    rep0 = match_two_atom(TargetCouplings(u=1.0, x=0.0))
    assert rep0.simulator_params["omega"] == 0.0
    assert rep0.simulator_params["v0"] == 32.0


def test_match_two_atom_x0_dynamics_diagonal():
    rep = match_two_atom(TargetCouplings(u=1.0, x=0.0))
    system = ladder_system(2, 1, **rep.simulator_params)
    psi0 = system.embed(StateVector.basis(3, 0))
    tr = trace(
        system.hamiltonian(),
        psi0,
        [("m=1", psi0)],
        np.linspace(0, 10, 101),
    )
    assert np.allclose(tr.series["m=1"], 1.0, atol=1e-12)


def test_two_atom_spectral_exactness_bound():
    # Three lowest simulator levels match the one-spin spectrum to ~ Omega^2/V0,
    # and doubling V0 at fixed Omega at least halves the worst discrepancy.
    rng = np.random.default_rng(29)
    for _ in range(50):
        u = rng.choice([-1, 1]) * rng.uniform(0.4, 2.0)
        x = rng.choice([-1, 1]) * rng.uniform(0.05, 2 * abs(u))
        c = TargetCouplings(u=u, x=x)
        s = analytic_one_spin(c)
        expected = np.sort([s.e0, s.eminus, s.eplus])
        rep = match_two_atom(c)
        omega, v0 = rep.simulator_params["omega"], rep.simulator_params["v0"]

        def discrepancy(v0_value):
            system = ladder_system(2, 1, v0_value, omega, rep.simulator_params["delta"])
            evals = eig_hermitian(system.hamiltonian()).eigenvalues
            return float(np.max(np.abs(evals[:3] - expected)))

        d1 = discrepancy(v0)
        assert d1 <= 2.0 * omega**2 / v0
        # Leading discrepancy scales as 1/V0; the halving under V0 doubling
        # carries O(1/V0) corrections (measured range 0.48..0.52 over these
        # draws), so the frozen bound sits just above 1/2.
        assert discrepancy(2 * v0) <= 0.52 * d1


def test_two_atom_match_error_falls_as_the_blockade_grows():
    c = TargetCouplings(u=1.0, x=0.5)
    times = np.linspace(0.0, 10.0, 1001)
    finals = spin_finals(3)
    for _, psi0 in finals:
        target = trace(build_h1t(c), psi0, finals, times)
        deviations = []
        for ratio in (16.0, 64.0, 256.0):
            rep = match_two_atom(c, blockade_ratio=ratio)
            system = ladder_system(2, 1, **rep.simulator_params)
            sim = simulator_trace(system, psi0, times)
            deviations.append(
                max(np.max(np.abs(sim.series[label] - target.series[label])) for label, _ in finals)
            )
        assert deviations[0] > deviations[1] > deviations[2]


def test_three_atom_residuals_omega_zero():
    c = TargetCouplings(u=1.0, x=0.3)
    r1, r2, r3 = three_atom_residuals(0.0, -0.5, 0.4, 30.0, c)
    assert (r1, r2, r3) == (0.09, 0.5 + 0.09 - 0.4, np.sqrt(2) * 0.3)
    r = three_atom_residuals(0.0, -0.5, 0.5, 30.0, TargetCouplings(u=1.0, x=0.0))
    assert r == (0.0, 0.0, 0.0)


def test_three_atom_residuals_singularities():
    c = TargetCouplings(u=1.0, x=0.3)
    with pytest.raises(SingularDenominatorError, match="delta0"):
        three_atom_residuals(1.0, 15.0, 0.0, 30.0, c)
    with pytest.raises(SingularDenominatorError, match="delta [+] delta0"):
        three_atom_residuals(1.0, -0.5, 0.5, 30.0, c)
    with pytest.raises(ValueError):
        three_atom_residuals(1.0, 15.0, 0.5, 30.0, TargetCouplings(u=0.0, x=0.3))


def test_newton_round_trip():
    rng = np.random.default_rng(20240811)
    for _ in range(20):
        omega, delta, d0, v0, u, x = consistent_three_atom_point(rng)
        c = TargetCouplings(u=u, x=x)
        assert max(np.abs(three_atom_residuals(omega, delta, d0, v0, c))) < 1e-10
        guess = {
            "omega": omega * (1 + 0.01 * rng.uniform(-1, 1)),
            "delta": delta * (1 + 0.01 * rng.uniform(-1, 1)),
            "delta0": d0 * (1 + 0.01 * rng.uniform(-1, 1)),
        }
        rep = solve_three_atom_newton(
            NewtonProblem(
                targets=c,
                unknowns=("omega", "delta", "delta0"),
                fixed={"v0": v0},
                initial_guess=guess,
            )
        )
        assert rep.converged, rep.notes
        assert max(abs(v) for v in rep.residuals.values()) <= 1e-10
        for name, value in (("omega", omega), ("delta", delta), ("delta0", d0)):
            assert abs(rep.simulator_params[name] - value) <= 1e-8 * max(1.0, abs(value))


def test_newton_x0_branch_with_default_guess():
    rep = solve_three_atom_newton(
        NewtonProblem(
            targets=TargetCouplings(u=1.0, x=0.0),
            unknowns=("omega", "delta", "delta0"),
            fixed={"v0": 30.0},
        )
    )
    assert rep.converged
    assert rep.simulator_params["omega"] == 0.0
    assert abs(rep.simulator_params["delta0"] - 0.5) < 1e-12
    # At omega = 0 the outer encoded states are degenerate, so no level is predicted.
    assert rep.predicted is None
    assert "predicted spectrum unavailable at the solution parameters" in rep.notes


def test_newton_diagnostics_not_silent():
    # Fixing parameters on a pole leaves no evaluable direction: diagnostic report.
    rep = solve_three_atom_newton(
        NewtonProblem(
            targets=TargetCouplings(u=1.0, x=0.5),
            unknowns=("delta0",),
            fixed={"omega": 1.0, "delta": 15.0, "v0": 15.0},  # v0 - delta = 0
            initial_guess={"delta0": 0.4},
            equations=(2,),
        )
    )
    assert not rep.converged
    assert any("singular" in note or "not evaluable" in note for note in rep.notes)


# One problem per reason the Newton solve stops short, all at U = 1 and X = 0.5:
# (unknowns, fixed, initial guess, equations, the reason note, the returned parameters).
NEWTON_STOPS = {
    "singular-jacobian": (
        ("omega",), {"delta": 1.0, "delta0": 1.0, "v0": 0.0}, {"omega": 1.0}, (1,),
        "singular Jacobian", {"omega": 1.0},
    ),
    "line-search": (
        ("omega",), {"delta": 1.0, "delta0": 1.0, "v0": 15.0}, {"omega": 1.0}, (2,),
        "line search failed to reduce the residual norm", {"omega": 0.00020879720170257276},
    ),
    "not-evaluable": (
        ("omega",), {"delta": 0.0, "delta0": 1.0, "v0": 30.0}, None, (1,),
        "residuals not evaluable at the initial guess: denominator delta = 0.0 is singular",
        {"omega": -0.5},
    ),
    "differentiation-pole": (
        ("delta",), {"omega": 1.0, "delta0": 1.0, "v0": 30.0}, {"delta": 1e-6}, (1,),
        "singular denominator while differentiating: denominator delta = 0.0 is singular",
        {"delta": 1e-6},
    ),
    "no-convergence": (
        ("omega", "delta0"), {"delta": 30.0, "v0": 0.5}, {"omega": -2.0, "delta0": -15.0},
        (3, 2), "no convergence within 100 iterations",
        {"omega": -70.52388255148128, "delta0": 55.98086677255052},
    ),
}


@pytest.mark.parametrize("case", NEWTON_STOPS.values(), ids=NEWTON_STOPS)
def test_newton_reports_why_it_stopped(case):
    unknowns, fixed, guess, equations, reason, solved = case
    rep = solve_three_atom_newton(
        NewtonProblem(TargetCouplings(u=1.0, x=0.5), unknowns, fixed, guess, equations)
    )
    assert not rep.converged and rep.predicted is None
    assert rep.notes[-1] == reason
    assert rep.simulator_params == pytest.approx({**fixed, **solved}, rel=1e-9)


def test_newton_problem_validation():
    c = TargetCouplings(u=1.0, x=0.5)
    with pytest.raises(ValueError):
        NewtonProblem(targets=c, unknowns=("omega",), fixed={"delta": 1.0})
    with pytest.raises(ValueError):
        NewtonProblem(
            targets=c,
            unknowns=("omega", "delta"),
            fixed={"delta0": 1.0, "v0": 30.0},
            equations=(1, 2, 3),
        )
    with pytest.raises(ValueError):
        solve_three_atom_newton(
            NewtonProblem(
                targets=c,
                unknowns=("omega", "delta", "v0"),
                fixed={"delta0": 0.5},
            )
        )
    with pytest.raises(ValueError, match="initial_guess"):
        NewtonProblem(
            targets=c,
            unknowns=("omega", "delta"),
            fixed={"delta0": 2.5, "v0": 30.0},
            initial_guess={"omega": 1.0},
            equations=(1, 2),
        )


def test_degenerate_matrix_closed_form():
    delta = 15.0
    m = degenerate_matrix_m(delta, 2 * delta, drop_far_coupling=True)
    oracle = (1.0 / delta) * np.array([[3.0, 2.0 * np.sqrt(2.0)], [2.0 * np.sqrt(2.0), 1.0]])
    np.testing.assert_allclose(m, oracle, rtol=1e-15, atol=0)
    w = np.linalg.eigvalsh(m)
    assert abs(w[1] / w[0] + 5.0) < 1e-12
    assert abs(w[1] - 5.0 / delta) < 1e-12 and abs(w[0] + 1.0 / delta) < 1e-12


def test_degenerate_matrix_full_vs_approx():
    m_full = degenerate_matrix_m(15.0, 30.0)
    m_drop = degenerate_matrix_m(15.0, 30.0, drop_far_coupling=True)
    assert np.array_equal(m_full, m_full.T)
    rel = np.abs(m_full - m_drop) / np.abs(m_drop)
    # Direct evaluation: only the (1,1) entry shifts, by 6.45%.
    assert np.max(rel) < 0.07
    with pytest.raises(SingularDenominatorError):
        degenerate_matrix_m(0.0, 30.0)
    with pytest.raises(SingularDenominatorError):
        degenerate_matrix_m(15.0, 15.0)


def test_approx_three_atom_match():
    rep = approx_three_atom_match(1.0, 15.0)
    assert rep.simulator_params["v0"] == 30.0
    assert abs(rep.predicted["u"] - 1.0 / 15.0) < 1e-15
    assert abs(rep.predicted["gap_ratio"] - 1.5) < 0.15
    assert abs(rep.predicted["tan_phi"] - 1.0 / np.sqrt(2.0)) < 1e-15
    rep0 = approx_three_atom_match(0.0, 15.0)
    assert rep0.predicted["u"] == 0.0
    with pytest.raises(ValueError):
        approx_three_atom_match(1.0, 0.0)


def test_three_atom_low_sector_parities():
    sector = three_atom_low_sector(1.0, 15.0, 0.0, 30.0)
    assert sector["eminus"] > sector["e0"]
    assert sector["eplus"] > sector["eminus"]
    assert min(sector["weights"]) > 0.9
    gaps = (sector["eplus"] - sector["e0"], sector["eminus"] - sector["e0"])
    assert abs(gaps[0] / gaps[1] - 1.5) < 0.15


def test_three_atom_low_sector_rejects_a_degenerate_level():
    # At omega = 0 the outer-atom states |100> and |001> share the energy -delta.
    with pytest.raises(MatchingError, match="level 2 .* degenerate"):
        three_atom_low_sector(0.0, 15.0, 0.5, 30.0)


# The three-atom match configs: the Newton target with its guess, and the approx match.
NEWTON_TARGET = TargetCouplings(u=5.12169, x=0.07421)
NEWTON_GUESS = {"omega": 1.01, "delta": 14.9, "delta0": 2.56}


def test_three_atom_match_levels_are_not_degenerate():
    rep = solve_three_atom_newton(
        NewtonProblem(
            targets=NEWTON_TARGET,
            unknowns=("omega", "delta", "delta0"),
            fixed={"v0": 30.0},
            initial_guess=NEWTON_GUESS,
        )
    )
    assert rep.converged and rep.predicted is not None, rep.notes
    params = rep.simulator_params
    points = [(params["omega"], params["delta"], params["delta0"], params["v0"])]
    points.append((*NEWTON_GUESS.values(), 30.0))
    points.append((1.0, 15.0, 0.0, 30.0))  # three-atom-approx and the fig4 array
    for point in points:
        three_atom_low_sector(*point)
    assert "gap_ratio" in approx_three_atom_match(1.0, 15.0).predicted


def test_match_four_atom():
    c = TargetCouplings(u=1.0, x=1.2, y=0.2)
    rep = match_four_atom(c, 64.0)
    p = rep.simulator_params
    assert (p["omega"], p["delta"], p["v0"]) == (-1.2, -0.6, 64.0)
    assert abs(p["v1"] - 0.2) <= 1e-14
    assert abs(p["v2_geometric"] - 0.132811) < 5e-6
    assert p["v2_ideal"] == -0.2
    assert abs(rep.residuals["v1_condition"]) <= 1e-14
    assert abs(rep.residuals["v2_condition"] - (p["v2_geometric"] + 0.2)) < 1e-15
    assert any("V2 sign" in note for note in rep.notes)

    rep0 = match_four_atom(TargetCouplings(u=1.0, x=1.2, y=0.0), 64.0)
    assert rep0.simulator_params["rho"] == 0.0
    assert any("decouple" in note for note in rep0.notes)

    with pytest.raises(ValueError):
        match_four_atom(TargetCouplings(u=1.0, x=1.2, y=100.0), 64.0)
    with pytest.raises(ValueError):
        match_four_atom(TargetCouplings(u=1.0, x=1.2, y=-0.1), 64.0)


def test_match_four_atom_v1_exactness_random():
    rng = np.random.default_rng(37)
    for _ in range(20):
        y = rng.uniform(0.01, 5.0)
        v0 = y + rng.uniform(1.0, 100.0)
        rep = match_four_atom(TargetCouplings(u=1.0, x=0.5, y=y), v0)
        assert abs(rep.simulator_params["v1"] - y) <= 1e-14 * max(1.0, y)


def test_fit_time_rescale_self_match():
    h = build_h1t(TargetCouplings(u=1.0, x=0.5))
    psi0 = StateVector.basis(3, 0)
    tr = trace(h, psi0, spin_finals(3), np.linspace(0, 10, 1001))
    k, rms = fit_time_rescale(h, psi0, spin_finals(3), tr, (0.8, 1.25))
    assert abs(k - 1.0) <= 1e-6
    assert rms < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1001, 1025])
@pytest.mark.parametrize("t0", [0.0, -3.7, 12.5])
def test_rescaled_amplitudes_equal_propagate(n, t0):
    """Amplitudes at the rescaled times K t, whose phases propagate factorises."""
    rng = np.random.default_rng(n)
    times = np.linspace(t0, t0 + 40.0, n)
    real = eig_hermitian(build_h2t(TargetCouplings(u=1.0, x=1.2, y=0.2)))
    cplx = eig_hermitian(sparse_from_dense(random_hermitian(rng, 9)))
    psi0 = StateVector.normalized(rng.normal(size=9) + 1j * rng.normal(size=9))
    two = [f for _, f in spin_finals(9)]
    two.append(StateVector.normalized(rng.normal(size=9) + 1j * rng.normal(size=9)))
    for spec in (real, cplx):
        for finals in (two[:1], two[1:], two):
            for k in rng.uniform(0.02, 2.0, size=3):
                got = np.abs(spec.propagate(psi0, k * times, finals)) ** 2
                want = np.abs(direct_amplitudes(spec, psi0, k * times, finals)) ** 2
                assert got.shape == want.shape == (len(finals), n)
                assert np.max(np.abs(got - want)) <= 1e-13


def test_fit_time_rescale_checks_state_dimensions():
    h = build_h1t(TargetCouplings(u=1.0, x=0.5))
    psi0 = StateVector.basis(3, 0)
    tr = trace(h, psi0, spin_finals(3), np.linspace(0, 1, 5))
    with pytest.raises(ContractViolationError, match="state dimension"):
        fit_time_rescale(h, StateVector.basis(9, 0), spin_finals(3), tr, (0.8, 1.25))
    wrong = [(label, StateVector.basis(9, 0)) for label, _ in spin_finals(3)]
    with pytest.raises(ContractViolationError, match="state dimension"):
        fit_time_rescale(h, psi0, wrong, tr, (0.8, 1.25))


def test_fit_time_rescale_refuses_a_non_uniform_grid():
    h = build_h1t(TargetCouplings(u=1.0, x=0.5))
    psi0 = StateVector.basis(3, 0)
    times = np.linspace(0, 10, 101)
    bumped = times.copy()
    bumped[40] += 1e-9
    for grid in (np.geomspace(0.1, 10, 101), bumped):
        tr = trace(h, psi0, spin_finals(3), grid)
        with pytest.raises(ValueError, match="sim_trace.times are not uniform"):
            fit_time_rescale(h, psi0, spin_finals(3), tr, (0.8, 1.25))
    # Grids uniform within rounding pass, whichever way they were built.
    for grid in (np.arange(101) * 0.1, 0.1 * np.arange(101) + 0.3):
        tr = trace(h, psi0, spin_finals(3), grid)
        k, _ = fit_time_rescale(h, psi0, spin_finals(3), tr, (0.8, 1.25))
        assert abs(k - 1.0) <= 1e-6


def test_fit_time_rescale_refuses_overflowing_phases_before_any_exponential():
    h = build_h2t(TargetCouplings(u=1.0, x=1e308, y=0.2))
    psi0 = dict(spin_finals(9))["00"]
    times = np.linspace(0.0, 100.0, 11)
    tr = EvolutionTrace(times, {"00": np.ones(11), "S": np.zeros(11)})
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(ContractViolationError, match=r"K max\|w\| max\|t\| is not finite"):
            fit_time_rescale(h, psi0, spin_finals(9), tr, (0.5 / 15.0, 1.5 / 15.0))


def test_six_atom_match_with_an_overflowing_k_fit_names_its_fields():
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(ValueError) as info:
            match_six_atom(TargetCouplings(u=1.0, x=1e308, y=0.2), 1.0, 15.0, 30.0)
    assert "U = 1.0, X = 1e+308, Y = 0.2, omega = 1.0 and delta = 15.0" in str(info.value)


def test_fit_time_rescale_matches_the_propagate_oracle():
    h = build_h1t(TargetCouplings(u=1.0, x=0.5))
    psi0 = StateVector.basis(3, 0)
    for n, scale in ((1001, 1.07), (64, 0.93), (2, 1.0)):
        slow = trace(h, psi0, spin_finals(3), scale * np.linspace(0.5, 10.5, n))
        kept = {label: v for label, v in slow.series.items() if label != "m=0"}
        sim = EvolutionTrace(slow.times / scale, kept)
        got = fit_time_rescale(h, psi0, spin_finals(3), sim, (0.8, 1.25))
        want = propagate_fit_time_rescale(h, psi0, spin_finals(3), sim, (0.8, 1.25))
        # Within one last golden-section bracket (see test_matching_fuzz).
        assert abs(got[0] - want[0]) <= K_TOL
        assert abs(got[1] - want[1]) <= 1e-14


def test_match_six_atom_fig8_regime():
    c = TargetCouplings(u=1.0, x=1.2, y=0.2)
    rep = match_six_atom(c, 1.0, 15.0, 30.0)
    assert abs(rep.simulator_params["rho"] - 0.326) <= 0.01
    assert abs(rep.time_rescale_k - 0.0546) <= 0.002
    assert rep.residuals["trace_rms"] <= 0.1
    assert rep.simulator_params["v1"] > rep.simulator_params["v2"] > rep.simulator_params["v3"]
    assert rep.converged


# (X, Y, the bracket edge K is pinned at) at U = Omega = 1, Delta = 15, V0 = 30,
# where K_e = 1/15 and the bracket is [1/30, 1/10].
K_PINNED = {"upper": (0.6, 0.05, 0.1), "lower": (2.0, 1.0, 1.0 / 30.0)}


@pytest.mark.parametrize("case", K_PINNED.values(), ids=K_PINNED)
def test_match_six_atom_with_k_pinned_at_its_bracket_edge_is_not_converged(case):
    x, y, edge = case
    rep = match_six_atom(TargetCouplings(u=1.0, x=x, y=y), 1.0, 15.0, 30.0)
    assert not rep.converged
    assert abs(rep.time_rescale_k - edge) <= K_TOL
    assert rep.notes[-1] == (
        f"time rescale K = {rep.time_rescale_k!r} pinned at the edge of its bracket "
        f"[{0.5 / 15.0!r}, {1.5 / 15.0!r}] (0.5 and 1.5 |K_e|); no interior minimum found"
    )


def test_six_atom_k_fit_equals_the_factorised_oracle():
    """K and its RMS, == the pre-rewrite objective on the full-basis simulator trace.

    Twenty seeded draws near the fig8 point (U = 1, X ~ 1.2, Y ~ 0.2, Delta = 15,
    V0 = 30) and thirty over U = Omega = 1, X in [0.1, 3], Y in [0.02, 1],
    Delta in [5, 30] and V0 in [10, 60], some with K pinned at a bracket edge.
    """
    rng = np.random.default_rng(3201)
    finals = spin_finals(9)
    psi0 = dict(finals)["00"]
    times = np.linspace(0.0, SIX_ATOM_T_MAX, SIX_ATOM_N_TIMES)
    draws = [
        (rng.uniform(1.0, 1.4), rng.uniform(0.15, 0.25), 15.0, 30.0) for _ in range(20)
    ] + [
        (rng.uniform(0.1, 3.0), rng.uniform(0.02, 1.0), rng.uniform(5, 30), rng.uniform(10, 60))
        for _ in range(30)
    ]
    pinned = 0
    for x, y, delta, v0 in draws:
        c = TargetCouplings(u=1.0, x=x, y=y)
        rep = match_six_atom(c, 1.0, delta, v0)
        system = ladder_system(3, 2, v0, 1.0, delta, rho=rep.simulator_params["rho"])
        sim = simulator_trace(system, psi0, times)
        k_e = 1.0 / delta
        bracket = (0.5 * k_e, 1.5 * k_e)
        want = factorised_fit_time_rescale(build_h2t(c), psi0, finals, sim, bracket)
        assert fit_time_rescale(build_h2t(c), psi0, finals, sim, bracket) == want
        assert (rep.time_rescale_k, rep.residuals["trace_rms"]) == want
        pinned += not rep.converged
    assert pinned > 0


def test_match_six_atom_fig8_k_equals_the_propagate_oracle():
    c = TargetCouplings(u=1.0, x=1.2, y=0.2)
    rep = match_six_atom(c, 1.0, 15.0, 30.0)
    system = ladder_system(3, 2, 30.0, 1.0, 15.0, rho=rep.simulator_params["rho"])
    finals = spin_finals(9)
    psi0 = dict(finals)["00"]
    sim = simulator_trace(system, psi0, np.linspace(0.0, SIX_ATOM_T_MAX, SIX_ATOM_N_TIMES))
    k_e = 1.0 / 15.0
    k, rms = propagate_fit_time_rescale(build_h2t(c), psi0, finals, sim, (0.5 * k_e, 1.5 * k_e))
    assert abs(rep.time_rescale_k - k) <= 1e-12 * k
    assert abs(rep.residuals["trace_rms"] - rms) <= 1e-14


def test_match_six_atom_y0_decouples():
    rep = match_six_atom(TargetCouplings(u=1.0, x=1.2, y=0.0), 1.0, 15.0, 30.0)
    assert rep.simulator_params["rho"] == 0.0
    assert any("decouple" in note for note in rep.notes)


def test_match_six_atom_bracket_failure():
    with pytest.raises(MatchingError):
        match_six_atom(TargetCouplings(u=1.0, x=0.0, y=400.0), 1.0, 15.0, 30.0)


def test_float_overflow_is_a_matching_error():
    with pytest.raises(MatchingError, match="float range"):
        match_six_atom(TargetCouplings(u=1.0, x=1.2, y=0.2), 1e160, 15.0, 30.0)
    with pytest.raises(MatchingError, match="float range"):
        match_six_atom(TargetCouplings(u=3e-297, x=1.2, y=0.2), 1.0, 15.0, 30.0)
    with pytest.raises(MatchingError, match="float range"):
        approx_three_atom_match(1e160, 15.0)
    problem = NewtonProblem(
        targets=TargetCouplings(u=1.0, x=1e200),
        unknowns=("omega",),
        fixed={"delta": 15.0, "delta0": 2.5, "v0": 30.0},
        equations=(1,),
    )
    with pytest.raises(MatchingError, match="float range"):
        solve_three_atom_newton(problem)
