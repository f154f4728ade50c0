"""Derandomized property test: the six-atom match fits the same time rescale K
as the per-K `Spectrum.propagate` oracle, around the fig8 regime.

The two objectives agree to about 1e-16, the rounding of the RMS itself.
The last golden-section steps compare values that differ by as little, so
one comparison can go the other way and leave K a final bracket (at most
K_TOL) away from the oracle's.  One example drawn here does (4.2e-10, in a
last bracket 1.1e-9 wide).  K is therefore compared within K_TOL, and the
RMS at it within 1e-14.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # an optional test dependency
from hypothesis import given, settings
from hypothesis import strategies as st

from cahm import TargetCouplings, build_h2t, ladder_system, match_six_atom
from cahm.evolution import simulator_trace, spin_finals
from cahm.matching import K_TOL, SIX_ATOM_N_TIMES, SIX_ATOM_T_MAX

from helpers import propagate_fit_time_rescale

FIG8 = (1.0, 1.2, 0.2, 1.0, 15.0, 30.0)  # U, X, Y, Omega, Delta, V0


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(scales=st.tuples(*[st.floats(0.95, 1.05)] * len(FIG8)))
def test_match_six_atom_fits_the_oracle_k(scales):
    u, x, y, omega, delta, v0 = (p * s for p, s in zip(FIG8, scales))
    c = TargetCouplings(u=u, x=x, y=y)
    rep = match_six_atom(c, omega, delta, v0)
    system = ladder_system(3, 2, v0, omega, delta, rho=rep.simulator_params["rho"])
    finals = spin_finals(9)
    psi0 = dict(finals)["00"]
    sim = simulator_trace(system, psi0, np.linspace(0.0, SIX_ATOM_T_MAX, SIX_ATOM_N_TIMES))
    k_e = omega**2 / (delta * u)
    k, rms = propagate_fit_time_rescale(
        build_h2t(c), psi0, finals, sim, (0.5 * abs(k_e), 1.5 * abs(k_e))
    )
    assert abs(rep.time_rescale_k - k) <= K_TOL
    assert abs(rep.residuals["trace_rms"] - rms) <= 1e-14
