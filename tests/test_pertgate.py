"""Second-order coefficients, echoed gate fidelity, and phase matching."""
from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import logical_columns

from plaqgate.pertgate import (
    COEFF_POLES,
    PertParams,
    WeakCouplingWarning,
    _echo_pulse_single_ideal,
    _echo_pulse_single_physical,
    _gate_target,
    _logical_isometry,
    _sector_echo,
    _sector_gate,
    _sector_hamiltonian,
    _singlet_sector,
    allowed_ratios,
    default_sweep_grid,
    echo_gate,
    echo_pulse,
    effective_coeffs,
    effective_hamiltonian,
    gate_fidelity,
    gate_time,
    superplaquette_hamiltonian,
    sweep,
    validate_effective,
)
from plaqgate.plaquette import logical_basis
from plaqgate.spincore import PAULI_X, PAULI_Y, PAULI_Z, eig_hermitian

TARGETS = ("corrected_cphase", "cphase_literal", "effective")

# Root of lambda_z(r) = 1/8, recomputed from the closed form (bisection on
# the pole-free interval); frozen to full precision.
LAMBDA_EIGHTH_ROOT = 0.603501914027303


# ---------------------------------------------------------------------------
# Closed-form coefficients
# ---------------------------------------------------------------------------

def _lambda_z_oracle(r: float) -> float:
    # independent transcription of the closed form
    return (9.0 / r - 8.0 / (r - 3.0) + 2.0 - 24.0 / (r + 1.0) + 1.0 / (2.0 - r)) / 48.0


def _gamma_z_oracle(r: float) -> float:
    return (9.0 / r + 8.0 / (r - 3.0) - 8.0 - 1.0 / (2.0 - r)) / 48.0


def test_coeffs_at_equal_couplings():
    c = effective_coeffs(1.0, 1.0)
    assert abs(c.lambda_z - 1.0 / 12.0) < 1e-12
    assert abs(c.gamma_z - (-1.0 / 12.0)) < 1e-12


@pytest.mark.parametrize("r", [0.07, 0.3, 0.45, 0.61, 0.9])
def test_coeffs_match_oracle(r):
    c = effective_coeffs(1.0, r)
    assert abs(c.lambda_z - _lambda_z_oracle(r)) < 1e-14
    assert abs(c.gamma_z - _gamma_z_oracle(r)) < 1e-14
    assert abs(c.delta_e - 8.0 * (1.0 - r)) < 1e-14


def _gamma_z_exact(r: float) -> Fraction:
    r = Fraction(r)
    return (Fraction(9) / r + Fraction(8) / (r - 3) - 8 - Fraction(1) / (2 - r)) / 48


def test_gamma_z_correctly_rounded_near_its_root():
    # gamma_z = -2.9e-6 here; its four float terms cancel to 1e-17 absolute
    r = 0.7309073057696104
    assert effective_coeffs(1.0, r).gamma_z == float(_gamma_z_exact(r))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=0.999))
def test_gamma_z_is_the_rounded_exact_rational(r):
    assert effective_coeffs(1.0, r).gamma_z == float(_gamma_z_exact(r))


def test_coeffs_scale_with_j():
    # lambda_z and gamma_z depend only on the ratio d/J
    a = effective_coeffs(1.0, 0.3)
    b = effective_coeffs(2.5, 0.75)
    assert abs(a.lambda_z - b.lambda_z) < 1e-13
    assert abs(a.gamma_z - b.gamma_z) < 1e-13


def test_coeff_poles_rejected():
    assert set(COEFF_POLES) == {0.0, 3.0, -1.0, 2.0}
    with pytest.raises(ValueError):
        effective_coeffs(1.0, 2.0)


def test_lambda_eighth_root_location():
    assert abs(_lambda_z_oracle(LAMBDA_EIGHTH_ROOT) - 0.125) < 1e-12
    c = effective_coeffs(1.0, LAMBDA_EIGHTH_ROOT)
    assert abs(c.lambda_z - 0.125) < 1e-12
    # the root is simple: the function crosses the level
    lo = effective_coeffs(1.0, LAMBDA_EIGHTH_ROOT - 1e-4).lambda_z - 0.125
    hi = effective_coeffs(1.0, LAMBDA_EIGHTH_ROOT + 1e-4).lambda_z - 0.125
    assert lo * hi < 0


@pytest.mark.parametrize("j, d, jp", [(1.0, 0.1, 0.02), (1.0, 0.3, 0.05), (1.0, 0.45, 0.1),
                                       (1.3, 0.9, 0.05), (2.5, 2.2, 0.3)])
def test_effective_hamiltonian_is_h_rwa(j, d, jp):
    # H_rwa of the module docstring, with (1/8) s.s' + (lambda_z - 1/8) sz sz'
    # expanded to (sx sx' + sy sy') / 8 + lambda_z sz sz'; qubit 1 is the low bit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        p = PertParams(j=j, d=d, jp=jp)
    c = effective_coeffs(j, d)
    g = jp**2 / j
    eye = np.eye(2)
    h = (c.delta_e / 2.0 - g * c.gamma_z) * (np.kron(eye, PAULI_Z) + np.kron(PAULI_Z, eye))
    h -= g * ((np.kron(PAULI_X, PAULI_X) + np.kron(PAULI_Y, PAULI_Y)) / 8.0
              + c.lambda_z * np.kron(PAULI_Z, PAULI_Z))
    assert np.abs(effective_hamiltonian(p) - h).max() <= 1e-14


# ---------------------------------------------------------------------------
# Gate time and parameter validation
# ---------------------------------------------------------------------------

def test_gate_time_reference_point():
    # at the (1,1) allowed ratio lambda_z = 3/16, so t_c = pi/(4 Jp^2 / 16)
    p = PertParams(j=1.0, d=0.45751286149024967, jp=0.1)
    assert abs(gate_time(p) - 400.0 * np.pi) < 1e-6


def test_gate_time_diverges_at_root():
    with pytest.raises(ValueError):
        gate_time(PertParams(j=1.0, d=LAMBDA_EIGHTH_ROOT, jp=0.05))


def test_params_validate_ranges():
    with pytest.raises(ValueError):
        PertParams(j=1.0, d=1.5, jp=0.1)
    with pytest.raises(ValueError):
        PertParams(j=-1.0, d=0.3, jp=0.1)
    with pytest.raises(ValueError):
        PertParams(j=1.0, d=0.3, jp=0.1, n=0)


def test_weak_coupling_warning():
    with pytest.warns(WeakCouplingWarning) as record:
        PertParams(j=1.0, d=0.3, jp=0.9)
    assert record[0].filename == __file__


# ---------------------------------------------------------------------------
# Echo pulse and echoed gate
# ---------------------------------------------------------------------------

def test_echo_pulse_is_unitary_involution_on_logical_space():
    x = echo_pulse()
    assert np.linalg.norm(x @ x.conj().T - np.eye(256)) < 1e-10
    assert np.linalg.norm(x @ x - np.eye(256)) < 1e-10


def test_physical_echo_is_the_exact_pi_rotation():
    cols = logical_columns(logical_basis())
    block = cols.conj().T @ _echo_pulse_single_physical() @ cols
    target = 0.5 * PAULI_X - (np.sqrt(3.0) / 2.0) * PAULI_Z
    phase = np.trace(target.conj().T @ block) / 2.0
    assert abs(abs(phase) - 1.0) < 1e-14
    assert np.abs(block - phase * target).max() < 1e-14


def test_physical_echo_matches_ideal_on_logical_subspace():
    iso = _logical_isometry()
    ideal = iso.conj().T @ echo_pulse(physical=False) @ iso
    phys = iso.conj().T @ echo_pulse(physical=True) @ iso
    # equal up to a global phase
    overlap = np.trace(ideal.conj().T @ phys) / 4.0
    assert abs(abs(overlap) - 1.0) < 1e-10


def test_echo_gate_is_unitary():
    p = PertParams(j=1.0, d=0.3, jp=0.05)
    u = echo_gate(p)
    assert np.linalg.norm(u @ u.conj().T - np.eye(256)) < 1e-9


# ---------------------------------------------------------------------------
# Fidelity against the second-order prediction (figure-style sweep values)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "jp,expected",
    [(0.05, 0.9892), (0.1, 0.9734), (0.2, 0.9106)],
)
def test_effective_fidelity_frozen_values(jp, expected):
    rep = gate_fidelity(PertParams(j=1.0, d=0.3, jp=jp), target="effective")
    assert abs(rep.fidelity - expected) < 5e-4


def test_sweep_rows_and_order():
    rows = sweep([0.29, 0.3], [0.05, 0.1])
    assert [(r["Jp_over_J"], r["d_over_J"]) for r in rows] == [
        (0.05, 0.29),
        (0.05, 0.3),
        (0.1, 0.29),
        (0.1, 0.3),
    ]
    assert all(0.0 <= r["F"] <= 1.0 for r in rows)
    assert all(r["leakage"] >= 0.0 for r in rows)


def test_sweep_skips_poles():
    rows = sweep([0.05, 2.0], [0.05])
    assert len(rows) == 1


# ---------------------------------------------------------------------------
# Allowed ratios and phase-matching back-substitution
# ---------------------------------------------------------------------------

def test_allowed_ratio_1_1():
    ratios = allowed_ratios(1, 1)
    assert any(abs(r - 0.45751286149024967) < 1e-10 for r in ratios)


def test_allowed_ratio_3_4():
    ratios = allowed_ratios(3, 4)
    assert any(abs(r - 0.43420855078697207) < 1e-10 for r in ratios)


def _lambda_z_exact(r: Fraction) -> Fraction:
    return (9 / r - 8 / (r - 3) + 2 - 24 / (r + 1) + 1 / (2 - r)) / 48


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (3, 4), (4, 1)])
def test_allowed_ratios_bracket_exact_roots(n, m):
    # lambda_z - tau, evaluated in exact rationals, changes sign within
    # 16 ulp of every returned ratio
    tau = Fraction(1, 8) + Fraction(2 * n - 1, 16 * m)
    ratios = allowed_ratios(n, m)
    assert ratios
    for r in ratios:
        step = 16 * math.ulp(r)
        below = _lambda_z_exact(Fraction(r - step)) - tau
        above = _lambda_z_exact(Fraction(r + step)) - tau
        assert below * above < 0


@pytest.mark.parametrize("n,m", [(1, 1), (3, 4)])
def test_allowed_ratios_back_substitution(n, m):
    for r in allowed_ratios(n, m):
        assert 0.0 < r < 1.0
        p = PertParams(j=1.0, d=r, jp=0.1, n=n, m=m)
        t_c = gate_time(p)
        c = effective_coeffs(1.0, r)
        phi_zz = p.jp**2 * (c.lambda_z - 0.125) * t_c
        phi_heis = p.jp**2 / 8.0 * t_c
        assert abs(phi_zz - (2 * n - 1) * np.pi / 4.0) < 1e-8
        assert abs(phi_heis - m * np.pi / 2.0) < 1e-8


def test_corrected_cphase_fidelity_at_allowed_point():
    # frozen trace values at the (1,1) allowed ratio
    r = 0.45751286149024967
    for jp, expected in [(0.01, 0.998849), (0.05, 0.971794), (0.1, 0.896316)]:
        rep = gate_fidelity(PertParams(j=1.0, d=r, jp=jp))
        assert abs(rep.fidelity - expected) < 5e-4


def test_corrected_cphase_with_physical_echo():
    r = 0.45751286149024967
    rep = gate_fidelity(PertParams(j=1.0, d=r, jp=0.05), physical_x=True)
    assert abs(rep.fidelity - 0.971719) < 5e-4


def test_fidelity_targets_disagree_off_matching():
    # away from an allowed ratio the literal controlled-phase target is low
    # while the effective-evolution target stays high
    p = PertParams(j=1.0, d=0.3, jp=0.05)
    eff = gate_fidelity(p, target="effective").fidelity
    corr = gate_fidelity(p, target="corrected_cphase").fidelity
    assert eff > 0.98
    assert corr < 0.9


def test_validate_effective_deviation_is_second_order():
    # the neglected terms scale as (J'/J)^2: halving J' quarters the deviation
    devs = [
        validate_effective(PertParams(j=1.0, d=0.3, jp=jp), horizon=5.0)
        for jp in (0.1, 0.05, 0.025)
    ]
    assert devs[0] < 0.1
    for coarse, fine in zip(devs, devs[1:]):
        assert fine < coarse / 3.0


# ---------------------------------------------------------------------------
# The 14-dim total-singlet sector against the full 256-dim space
# ---------------------------------------------------------------------------

def _full_space_gate(p: PertParams, physical_x: bool = False) -> tuple[np.ndarray, float]:
    """Logical 4x4 block and leakage of the 256-dim echo_gate."""
    iso = _logical_isometry()
    u_cols = echo_gate(p, physical_x=physical_x) @ iso
    u_logical = iso.conj().T @ u_cols
    return u_logical, float(np.linalg.norm(u_cols - iso @ u_logical) ** 2)


def _full_space_gate_columns(p: PertParams) -> tuple[np.ndarray, float]:
    """_full_space_gate by one 256-dim eigensolve, applied to the four logical columns."""
    iso = _logical_isometry()
    spec = eig_hermitian(superplaquette_hamiltonian(p))
    phases = np.exp(-0.5j * gate_time(p) * spec.eigenvalues)[:, None]

    def half(cols: np.ndarray) -> np.ndarray:
        return spec.eigenvectors @ (phases * (spec.eigenvectors.conj().T @ cols))

    x = echo_pulse()
    u_cols = x @ half(x @ half(iso))
    u_logical = iso.conj().T @ u_cols
    return u_logical, float(np.linalg.norm(u_cols - iso @ u_logical) ** 2)


def _full_space_fidelity(p: PertParams, u_logical: np.ndarray, target: str) -> float:
    t = _gate_target(p, target, gate_time(p), effective_coeffs(p.j, p.d).lambda_z)
    return float(abs(np.trace(t.conj().T @ u_logical) / 4.0) ** 2)


def _full_space_validate(p: PertParams, horizon: float, samples: int = 48) -> float:
    """validate_effective with the exact evolution on all 256 dimensions."""
    iso = _logical_isometry()
    full = eig_hermitian(superplaquette_hamiltonian(p))
    eff = eig_hermitian(effective_hamiltonian(p))
    full_modes = full.eigenvectors.conj().T @ iso
    worst = 0.0
    for t in np.linspace(0.0, horizon, samples + 1)[1:]:
        full_t = full.eigenvectors @ (np.exp(-1j * full.eigenvalues * t)[:, None] * full_modes)
        eff_t = eff.eigenvectors @ (np.exp(-1j * eff.eigenvalues * t)[:, None] * eff.eigenvectors.conj().T)
        overlaps = np.abs(np.sum(eff_t.conj() * (iso.conj().T @ full_t), axis=0)) ** 2
        worst = max(worst, float(1.0 - overlaps.min()))
    return worst


def test_sector_spans_the_logical_states_and_is_invariant():
    sector = _singlet_sector()
    q = sector.basis
    assert q.shape == (70, 14)
    np.testing.assert_allclose(q.T @ q, np.eye(14), atol=1e-13)
    idx = np.ix_(sector.states, sector.states)
    # the logical states live on the Sz = 0 block, inside the sector
    iso = _logical_isometry()
    assert np.abs(np.delete(iso, sector.states, axis=0)).max() == 0.0
    np.testing.assert_allclose(q @ sector.isometry, iso[sector.states], atol=1e-14)
    # both echo pulses and the Hamiltonian map the sector into itself and
    # restrict to the sector's operators
    for physical in (False, True):
        block = echo_pulse(physical=physical)[idx]
        np.testing.assert_allclose(block @ q, q @ _sector_echo(physical), atol=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        p = PertParams(j=1.3, d=0.4, jp=0.2)
    block = superplaquette_hamiltonian(p)[idx]
    np.testing.assert_allclose(block @ q, q @ _sector_hamiltonian(p), atol=1e-13)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    d=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    jp=st.floats(0.01, 0.2, exclude_min=True, exclude_max=True),
    target=st.sampled_from(TARGETS),
    physical_x=st.booleans(),
    horizon=st.floats(0.5, 100.0),
)
def test_sector_matches_full_space(d, jp, target, physical_x, horizon):
    assume(abs(effective_coeffs(1.0, d).lambda_z - 0.125) > 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        p = PertParams(j=1.0, d=d, jp=jp)
    t_c = gate_time(p)
    # rounding in the phases grows with the evolution time on both paths
    tol = 1e-13 * max(1.0, t_c)
    u_full, leak_full = _full_space_gate(p, physical_x)
    u_sector, _ = _sector_gate(p, t_c, physical_x)
    assert np.abs(u_sector - u_full).max() <= tol
    rep = gate_fidelity(p, physical_x=physical_x, target=target)
    assert abs(rep.fidelity - _full_space_fidelity(p, u_full, target)) <= tol
    assert abs(rep.leakage - leak_full) <= tol
    assert abs(validate_effective(p, horizon) - _full_space_validate(p, horizon)) <= 1e-9


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    d=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
    jp=st.floats(0.01, 0.2, exclude_min=True, exclude_max=True),
    physical_x=st.booleans(),
)
def test_sector_gate_is_unitary(d, jp, physical_x):
    # U P is an isometry: the logical block and the leaked part share the
    # norm of the four logical inputs, ||U_L||_F^2 + leakage = 4
    assume(abs(effective_coeffs(1.0, d).lambda_z - 0.125) > 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        p = PertParams(j=1.0, d=d, jp=jp)
    t_c = gate_time(p)
    u_logical, leakage = _sector_gate(p, t_c, physical_x)
    norm = np.linalg.norm(u_logical) ** 2
    assert abs(norm + leakage - 4.0) <= 1e-13 * max(1.0, t_c)


def test_sweep_matches_full_space_on_pertfid_grid():
    # every (d/J, J'/J) point of report --figure pertfid
    for jp in (0.05, 0.1, 0.2):
        for row in sweep(default_sweep_grid(), [jp]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeakCouplingWarning)
                p = PertParams(j=1.0, d=row["d_over_J"], jp=jp)
            u_full, leak_full = _full_space_gate_columns(p)
            assert abs(row["F"] - _full_space_fidelity(p, u_full, "effective")) <= 1e-9
            assert abs(row["leakage"] - leak_full) <= 1e-9


def test_leakage_sums_over_the_four_logical_inputs():
    # ||(1-P) U P||_F^2 is a sum of four populations: it can exceed 1
    rows = sweep([0.06], [0.2])
    assert 1.0 < rows[0]["leakage"] <= 4.0


CACHED_ARRAYS = {
    "logical_isometry": _logical_isometry,
    "echo_pulse_single_ideal": _echo_pulse_single_ideal,
    "echo_pulse_single_physical": _echo_pulse_single_physical,
    "sector_echo_ideal": lambda: _sector_echo(False),
    "sector_echo_physical": lambda: _sector_echo(True),
    "sector_states": lambda: _singlet_sector().states,
    "sector_basis": lambda: _singlet_sector().basis,
    "sector_edge": lambda: _singlet_sector().edge,
    "sector_diagonal": lambda: _singlet_sector().diagonal,
    "sector_coupling": lambda: _singlet_sector().coupling,
    "sector_isometry": lambda: _singlet_sector().isometry,
}


@pytest.mark.parametrize("name", sorted(CACHED_ARRAYS))
def test_cached_array_is_read_only(name):
    arr = CACHED_ARRAYS[name]()
    with pytest.raises(ValueError, match="read-only"):
        arr += 0
