"""Echoed superexchange controlled-phase gate between two plaquette qubits.

Two plaquettes (sites 1..4 and 1'..4') are joined along one edge by a weak
exchange H_c = J' (s2.s1' + s3.s4'). Second-order perturbation theory in
J'/J reduces the 256-dim problem to two logical qubits in the {|box>,|cross>}
basis of each plaquette (|box> = (psi_H+psi_V)/sqrt3, |cross> = psi_H-psi_V,
with sigma^z = |cross><cross| - |box><box|):

    H_rwa = (dE/2 - J'^2 gamma_z / J) (sz1 + sz2)
            - (J'^2/J) [ (1/8) s.s' + (lambda_z - 1/8) sz sz' ]

The dimensionless coefficients lambda_z(d/J) and gamma_z(d/J) are rational
closed forms with poles at d/J in {0, 3, -1, 2}; the logical splitting is
dE = 8(J-d). A spin echo (pi pulse X on the {|box>,|cross>} subspace of each
plaquette at t_c/2 and t_c) cancels the single-qubit z terms, leaving

    U_echoed ~ exp[-i t_c (b s.s' + c sz sz')],   b = -J'^2/(8J),
                                                  c = -(J'^2/J)(lambda_z - 1/8)

The Ising phase amounts to a controlled-phase gate when
(J'^2/J) t_c |lambda_z - 1/8| = (2n-1) pi/4, i.e. at

    t_c = (2n-1) pi J / (4 J'^2 |lambda_z - 1/8|),

while the residual Heisenberg term is harmless when the singlet/triplet
phase difference phi_T - phi_S = (J'^2/2J) t_c is a multiple of 2 pi. Both
conditions hold simultaneously only at special coupling ratios: the roots of
lambda_z(d/J) = 1/8 + (2n-1)/(16 m) ("allowed ratios"). The full-model gate
fidelity is evaluated against the controlled-phase target with its
analytically fixed local z corrections, F = |Tr(U_target^dag U_logical)/4|^2.

Note on the rotating-wave step: H_rwa keeps only the energy-preserving terms
of the second-order Hamiltonian. It drops the single flips sx, sx' and the
cross terms sx sz', sz sx', which change the logical energy by dE, and a
double-(de)excitation piece (J'^2/8J)(sx sx' - sy sy'), which changes it by
2 dE; each is suppressed by J'^2/(J dE).

Exact numerics: the Hamiltonian and both echo pulses conserve total spin,
and the logical states are total singlets, so gate_fidelity and
validate_effective work in the 14-dim S = 0 sector of the 256-dim space.
superplaquette_hamiltonian, echo_pulse and echo_gate give the same
operators on all 256 dimensions.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .plaquette import PlaquetteCouplings, _rotation_pulse, heisenberg_plaquette, logical_basis
from .spincore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _exchange,
    _spin_squared,
    eig_hermitian,
    pauli_dot,
    read_only,
    superplaquette_register,
    unitary_evolve,
)

#: Warn when J' exceeds this fraction of the smallest perturbative gap.
WEAK_COUPLING_FRACTION = 0.1

#: Poles of the second-order coefficients, as d/J ratios.
COEFF_POLES = (0.0, 3.0, -1.0, 2.0)


class WeakCouplingWarning(UserWarning):
    """The inter-plaquette coupling is not deep in the perturbative regime."""


@dataclass(frozen=True)
class PertParams:
    """Couplings and phase-matching integers for one echoed gate.

    Attributes:
        j: intra-plaquette edge exchange J > 0.
        d: intra-plaquette diagonal exchange, 0 < d < J.
        jp: inter-plaquette exchange J' > 0.
        n: odd-multiple index of the conditional pi/4 phase, n >= 1.
        m: winding of the singlet/triplet phase difference, m >= 1.
    """

    j: float
    d: float
    jp: float
    n: int = 1
    m: int = 1

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.j, self.d, self.jp))):
            raise ValueError(f"J, d and J' must be finite, got {self.j}, {self.d}, {self.jp}")
        if self.j <= 0:
            raise ValueError("J must be positive")
        if not 0 < self.d < self.j:
            raise ValueError(f"d must satisfy 0 < d < J, got d={self.d}, J={self.j}")
        if self.jp <= 0:
            raise ValueError("J' must be positive")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive integers")
        # smallest gap protecting the logical subspace; the third entry goes
        # negative past the level crossing at d = J/2, where the perturbative
        # picture degrades regardless of J'
        min_gap = min(4 * self.d, 8 * (self.j - self.d), 4 * (self.j - 2 * self.d))
        if min_gap <= 0 or self.jp > WEAK_COUPLING_FRACTION * min_gap:
            warnings.warn(
                f"J'={self.jp} is not small against the protecting gap "
                f"min{{4d, 8(J-d), 4(J-2d)}}={min_gap:.4g}; second-order "
                "results may be inaccurate",
                WeakCouplingWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class EffectiveCoeffs:
    """Second-order coefficients of the two-qubit effective Hamiltonian."""

    lambda_z: float
    gamma_z: float
    delta_e: float


@dataclass(frozen=True)
class GateReport:
    """Timing and quality figures of one echoed gate."""

    t_c: float
    fidelity: float
    leakage: float


# ---------------------------------------------------------------------------
# Second-order coefficients and effective Hamiltonians
# ---------------------------------------------------------------------------

def effective_coeffs(j: float, d: float) -> EffectiveCoeffs:
    """Closed-form lambda_z, gamma_z and logical splitting dE = 8(J-d).

    Valid at any d/J away from the poles {0, 3, -1, 2}; the gate regime of
    PertParams (0 < d < J) is a subset.
    """
    if j == 0:
        raise ValueError("J must be nonzero")
    r = d / j
    if not np.isfinite(r):
        raise ValueError(f"d/J must be finite, got {r}")
    for pole in COEFF_POLES:
        if abs(r - pole) < 1e-12:
            raise ValueError(f"d/J = {r} is a pole of the second-order coefficients")
    lam = (9.0 / r - 8.0 / (r - 3.0) + 2.0 - 24.0 / (r + 1.0) + 1.0 / (2.0 - r)) / 48.0
    # gamma_z = (9/r + 8/(r-3) - 8 - 1/(2-r))/48 cancels near its root r = 0.7309 in
    # floats; one quotient of exact integers (r = n/q) is correctly rounded
    n, q = r.as_integer_ratio()
    num = ((4 * n - 29 * q) * n + 56 * q * q) * n - 27 * q**3
    gam = num / (24 * n * (n - 3 * q) * (2 * q - n))
    return EffectiveCoeffs(lambda_z=lam, gamma_z=gam, delta_e=8.0 * (j - d))


def _two_qubit(op1: np.ndarray, op2: np.ndarray) -> np.ndarray:
    # logical qubit 1 (left plaquette) occupies the low index bit
    return np.kron(op2, op1)


# s.s' and sz sz' of the two logical qubits
_HEIS_4 = read_only(sum(_two_qubit(s, s) for s in (PAULI_X, PAULI_Y, PAULI_Z)))
_ZZ_4 = read_only(_two_qubit(PAULI_Z, PAULI_Z))


def effective_hamiltonian(p: PertParams) -> np.ndarray:
    """H_rwa of the module docstring, 4x4 in the {|box>,|cross>}^(x2) basis."""
    c = effective_coeffs(p.j, p.d)
    g = p.jp**2 / p.j
    sigma_z = -PAULI_Z  # |cross><cross| - |box><box| in the (|box>, |cross>) order
    z1, z2 = _two_qubit(sigma_z, np.eye(2)), _two_qubit(np.eye(2), sigma_z)
    return (c.delta_e / 2.0 - g * c.gamma_z) * (z1 + z2) - g * (
        _HEIS_4 / 8.0 + (c.lambda_z - 0.125) * _ZZ_4
    )


# ---------------------------------------------------------------------------
# Full 256-dim model
# ---------------------------------------------------------------------------

def superplaquette_hamiltonian(p: PertParams) -> np.ndarray:
    """H_intra(left) + H_intra(right) + J'(s2.s1' + s3.s4') on 8 sites."""
    reg = superplaquette_register()
    eye16 = np.eye(16, dtype=complex)
    h_one = heisenberg_plaquette(PlaquetteCouplings.diag(p.j, p.d))
    h = np.kron(eye16, h_one) + np.kron(h_one, eye16)
    h += p.jp * (pauli_dot(reg, "2", "1'") + pauli_dot(reg, "3", "4'"))
    return h


@lru_cache(maxsize=1)
def _logical_isometry() -> np.ndarray:
    """256x4 isometry onto {|box>,|cross>} x {|box>,|cross>} (read-only)."""
    basis = logical_basis()
    cols = (basis.ket_box, basis.ket_cross)
    iso = np.zeros((256, 4), dtype=complex)
    for i2, right in enumerate(cols):
        for i1, left in enumerate(cols):
            iso[:, 2 * i2 + i1] = np.kron(right, left)
    return read_only(iso)


@lru_cache(maxsize=1)
def _echo_pulse_single_ideal() -> np.ndarray:
    """16x16 pi pulse: sigma^x on {|box>,|cross>}, identity on the rest (read-only)."""
    basis = logical_basis()
    box, cross = basis.ket_box, basis.ket_cross
    p_bc = np.outer(box, box.conj()) + np.outer(cross, cross.conj())
    flip = np.outer(box, cross.conj()) + np.outer(cross, box.conj())
    return read_only(flip + (np.eye(16, dtype=complex) - p_bc))


@lru_cache(maxsize=1)
def _echo_pulse_single_physical() -> np.ndarray:
    """16x16 echo pulse composed of three physical exchange pulses (read-only).

    In the {|0>,|1>} basis the required pi rotation has axis
    (1/2, 0, -sqrt3/2). The rotations V(a), H(pi - a), V(a) about AXIS_V and
    AXIS_H with a = arcsin(1/sqrt3) realize it exactly, up to a global phase.
    """
    a = np.arcsin(1.0 / np.sqrt(3.0))
    return read_only(
        _rotation_pulse(0.0, 1.0, a)
        @ _rotation_pulse(1.0, 0.0, np.pi - a)
        @ _rotation_pulse(0.0, 1.0, a)
    )


def echo_pulse(physical: bool = False) -> np.ndarray:
    """256-dim echo pulse X (x) X, idealized or built from exchange pulses."""
    single = _echo_pulse_single_physical() if physical else _echo_pulse_single_ideal()
    return np.kron(single, single)


def gate_time(p: PertParams) -> float:
    """t_c = (2n-1) pi J / (4 J'^2 |lambda_z - 1/8|); diverges at lambda_z = 1/8."""
    return _gate_time(p, effective_coeffs(p.j, p.d).lambda_z)


def _gate_time(p: PertParams, lambda_z: float) -> float:
    detune = abs(lambda_z - 0.125)
    if detune < 1e-14:
        raise ValueError("lambda_z = 1/8: the Ising term vanishes and no gate time exists")
    return (2 * p.n - 1) * np.pi * p.j / (4.0 * p.jp**2 * detune)


def echo_gate(p: PertParams, physical_x: bool = False) -> np.ndarray:
    """U = X exp(-i H t_c/2) X exp(-i H t_c/2) on the full 256-dim space."""
    t_c = gate_time(p)
    half = unitary_evolve(superplaquette_hamiltonian(p), t_c / 2.0)
    x = echo_pulse(physical=physical_x)
    return x @ half @ x @ half


# ---------------------------------------------------------------------------
# The 14-dim total-singlet sector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SingletSector:
    """The S = 0 sector of the two-plaquette space, where the echoed gate acts.

    The Hamiltonian and both echo pulses conserve total spin, and the four
    logical states are total singlets, so U P never leaves this 14-dim
    sector. Its orthonormal real basis is given over the 70-dim Sz = 0 block
    (`states` lists the register indices of that block). Operators are the
    restrictions of their 256-dim counterparts; every array is read-only.
    """

    states: np.ndarray  # 70 register indices, ascending
    basis: np.ndarray  # 70 x 14
    edge: np.ndarray  # sum of s_i.s_j over the edges of both plaquettes
    diagonal: np.ndarray  # sum of s_i.s_j over the diagonals of both plaquettes
    coupling: np.ndarray  # s2.s1' + s3.s4'
    isometry: np.ndarray  # 14 x 4, the columns of _logical_isometry


@lru_cache(maxsize=1)
def _singlet_sector() -> _SingletSector:
    reg = superplaquette_register()
    states = np.array([k for k in range(reg.dim) if k.bit_count() == reg.site_count // 2])

    def intra(couplings: PlaquetteCouplings) -> np.ndarray:
        return sum(c * (_exchange(reg, i, j, states) + _exchange(reg, i + "'", j + "'", states))
                   for i, j, c in couplings.pairs() if c)

    # the kernel of (sum_i s_i)^2 is the S = 0 sector
    w, v = np.linalg.eigh(_spin_squared(reg, states))
    basis = v[:, w < 4.0]  # 4S(S+1): 0 on singlets, 8 on the next multiplet

    logical = logical_basis()
    cols = (logical.ket_box, logical.ket_cross)
    right, left = np.divmod(states, 16)
    iso = np.stack([cols[c >> 1][right] * cols[c & 1][left] for c in range(4)], axis=1)

    def restrict(op: np.ndarray) -> np.ndarray:
        return read_only(basis.T @ op @ basis)

    return _SingletSector(
        states=read_only(states),
        basis=read_only(basis),
        edge=restrict(intra(PlaquetteCouplings.diag(1.0, 0.0))),
        diagonal=restrict(intra(PlaquetteCouplings.diag(0.0, 1.0))),
        coupling=restrict(_exchange(reg, "2", "1'", states) + _exchange(reg, "3", "4'", states)),
        isometry=read_only(basis.T @ iso),
    )


@lru_cache(maxsize=2)
def _sector_echo(physical: bool) -> np.ndarray:
    """echo_pulse(physical) restricted to the S = 0 sector, 14x14 (read-only)."""
    sector = _singlet_sector()
    single = _echo_pulse_single_physical() if physical else _echo_pulse_single_ideal()
    right, left = np.divmod(sector.states, 16)
    block = single[np.ix_(right, right)] * single[np.ix_(left, left)]
    return read_only(sector.basis.T @ block @ sector.basis)


def _sector_hamiltonian(p: PertParams) -> np.ndarray:
    """superplaquette_hamiltonian(p) restricted to the S = 0 sector, 14x14."""
    sector = _singlet_sector()
    return p.j * sector.edge + p.d * sector.diagonal + p.jp * sector.coupling


def _sector_gate(p: PertParams, t_c: float, physical_x: bool) -> tuple[np.ndarray, float]:
    """Logical 4x4 block of the echoed gate and its leakage, from the S = 0 sector.

    Same figures as echo_gate(p, physical_x) sandwiched by _logical_isometry,
    to rounding that grows with t_c.
    """
    iso = _singlet_sector().isometry
    half = unitary_evolve(_sector_hamiltonian(p), t_c / 2.0)
    x = _sector_echo(physical_x)
    u_cols = x @ (half @ (x @ (half @ iso)))
    u_logical = iso.conj().T @ u_cols
    leakage = float(np.linalg.norm(u_cols - iso @ u_logical) ** 2)
    return u_logical, leakage


def _target_cphase(n: "int | None" = None) -> np.ndarray:
    """Controlled-phase target, 4x4 diagonal in the (|box>,|cross>)^(x2) basis.

    exp[-i pi/4 (1 - sz)(1 - sz')] = diag(-1, 1, 1, 1) puts the conditional
    phase on |box,box>. Given n, the echoed Ising evolution additionally
    applies single-qubit phases, undone here by R_z(-(2n-1) pi/4) on each
    qubit: a factor exp[-i (2n-1)(pi/4) diag(2, 0, 0, -2)].
    """
    phases = np.array([-1.0, 1.0, 1.0, 1.0], dtype=complex)
    if n is not None:
        phases *= np.exp(-1j * (2 * n - 1) * (np.pi / 4.0) * np.array([2.0, 0.0, 0.0, -2.0]))
    return np.diag(phases)


def _gate_target(p: PertParams, target: str, t_c: float, lambda_z: float) -> np.ndarray:
    """The 4x4 target that gate_fidelity scores against (see its docstring)."""
    if target == "corrected_cphase":
        return _target_cphase(p.n)
    if target == "cphase_literal":
        return _target_cphase()
    if target == "effective":
        # exp[-i t_c (b s.s' + c sz sz')], the echoed second-order prediction
        b_coef = -p.jp**2 / (8.0 * p.j)
        c_coef = -(p.jp**2 / p.j) * (lambda_z - 0.125)
        return unitary_evolve(b_coef * _HEIS_4 + c_coef * _ZZ_4, t_c)
    raise ValueError(f"unknown target {target!r}")


def gate_fidelity(
    p: PertParams,
    physical_x: bool = False,
    target: str = "corrected_cphase",
) -> GateReport:
    """Score the echoed gate against a 4x4 target: F = |Tr(T^dag U_L)/4|^2.

    Targets:
        "corrected_cphase" (default): controlled-phase with local z
            corrections; the gate proper.
        "cphase_literal": bare controlled-phase with no local corrections
            (the uncorrected trace formula; low by construction even for a
            perfect gate).
        "effective": the echoed second-order evolution itself, isolating
            higher-order and leakage errors from phase-matching errors.

    Leakage is ||(1-P) U P||_F^2, the population leaving the 4-dim logical
    subspace summed over the four logical input states. It lies in [0, 4],
    not [0, 1]; leakage/4 is the mean leaked population.

    The gate is computed exactly in the 14-dim total-singlet sector, which
    holds U P; echo_gate gives the same U on the full 256-dim space.
    """
    lambda_z = effective_coeffs(p.j, p.d).lambda_z
    t_c = _gate_time(p, lambda_z)
    u_logical, leakage = _sector_gate(p, t_c, physical_x)
    t = _gate_target(p, target, t_c, lambda_z)
    f = np.trace(t.conj().T @ u_logical) / 4.0
    return GateReport(t_c=t_c, fidelity=float(abs(f) ** 2), leakage=leakage)


# ---------------------------------------------------------------------------
# Allowed coupling ratios and validation
# ---------------------------------------------------------------------------

def phase_level(n: int, m: int) -> float:
    """tau(n, m) = 1/8 + (2n-1)/(16 m): the lambda_z at which (n, m) phase-match."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive integers")
    return 0.125 + (2 * n - 1) / (16.0 * m)


def allowed_ratios(n: int, m: int) -> list[float]:
    """Roots of lambda_z(r) = tau(n, m) = 1/8 + (2n-1)/(16 m) for r = d/J in (0, 1).

    At such a ratio the controlled-phase condition and the 2 pi m winding of
    phi_T - phi_S hold at the same t_c. Multiplying lambda_z(r) - tau by
    48 r (r-3)(r+1)(2-r) clears every denominator and leaves the quartic

        (48 tau - 2) r^4 + (32 - 192 tau) r^3 + (48 tau - 96) r^2
            + (288 tau + 104) r - 54 = 0,   tau = 1/8 + (2n-1)/(16 m);

    its real roots in (0, 1), ascending, are returned.
    """
    tau = phase_level(n, m)
    roots = np.roots([48 * tau - 2, 32 - 192 * tau, 48 * tau - 96, 288 * tau + 104, -54])
    ratios = sorted(float(x.real) for x in roots if x.imag == 0 and 0 < x.real < 1)
    if not ratios:
        raise ValueError(f"no allowed ratio in (0,1) for (n,m)=({n},{m})")
    return ratios


def validate_effective(p: PertParams, horizon: float) -> float:
    """Max infidelity of the effective (rwa) vs exact evolution up to `horizon`.

    Each of the four {|box>,|cross>} product states is evolved under the exact
    Hamiltonian and under the 4x4 effective one; the deviation is
    1 - |<psi_eff| P |psi_full>|^2 maximized over states and 48 evenly spaced times
    (leakage counts as deviation). Scales as a few times (J'/J)^2 in the
    perturbative regime. The exact evolution runs in the 14-dim
    total-singlet sector, which holds all four states at every time.
    """
    if not 0 < horizon < np.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    iso = _singlet_sector().isometry
    full = eig_hermitian(_sector_hamiltonian(p))
    eff = eig_hermitian(effective_hamiltonian(p))
    worst = 0.0
    times = np.linspace(0.0, horizon, 48 + 1)[1:]
    full_modes = full.eigenvectors.conj().T @ iso  # overlap of each mode with each start
    eff_modes = eff.eigenvectors.conj().T @ np.eye(4)
    for t in times:
        full_t = full.eigenvectors @ (np.exp(-1j * full.eigenvalues * t)[:, None] * full_modes)
        eff_t = eff.eigenvectors @ (np.exp(-1j * eff.eigenvalues * t)[:, None] * eff_modes)
        proj = iso.conj().T @ full_t
        overlaps = np.abs(np.sum(eff_t.conj() * proj, axis=0)) ** 2
        worst = max(worst, float(1.0 - overlaps.min()))
    return worst


# ---------------------------------------------------------------------------
# Figure-style sweeps
# ---------------------------------------------------------------------------

#: Columns of a sweep row. "leakage" is gate_fidelity's ||(1-P) U P||_F^2,
#: summed over the four logical inputs: it lies in [0, 4], not [0, 1].
SWEEP_FIELDS = ("d_over_J", "Jp_over_J", "n", "m", "t_c", "F", "leakage")


def sweep(
    d_over_j_values: "np.ndarray | list[float]",
    jp_over_j_values: "np.ndarray | list[float]",
    n: int = 1,
    m: int = 1,
    target: str = "effective",
) -> list[dict]:
    """Fidelity/leakage over a (d/J, J'/J) grid at fixed (n, m), in units of J = 1.

    Rows are produced in deterministic order (outer loop J'/J, inner d/J)
    with the keys of SWEEP_FIELDS. Pole ratios are skipped. The default
    target scores the exact echoed gate against the second-order prediction
    (valid at every ratio); pass "corrected_cphase" to demand the actual
    phase-matched gate, which is only high at the allowed ratios.
    """
    rows: list[dict] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        for jp_ratio in jp_over_j_values:
            for r in d_over_j_values:
                if any(abs(r - pole) < 1e-9 for pole in COEFF_POLES) or not 0 < r < 1:
                    continue
                if abs(effective_coeffs(1.0, r).lambda_z - 0.125) < 1e-12:
                    continue
                p = PertParams(j=1.0, d=r, jp=jp_ratio, n=n, m=m)
                report = gate_fidelity(p, target=target)
                rows.append(dict(zip(SWEEP_FIELDS, (float(r), float(jp_ratio), n, m, report.t_c,
                                                    report.fidelity, report.leakage))))
    return rows


def sweep_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """d/J from lo to hi, both included, in steps of `step`, rounded to 10 decimals."""
    return np.round(np.arange(lo, hi + 1e-12, step), 10)
