"""Reference computations made apart from plaqgate.

Nothing here imports the program. The operators are built from Pauli
matrices and Kronecker products, evolutions use scipy.linalg.expm, and the
second-order coefficients come from the paper's rational closed forms,
evaluated exactly with fractions.

Conventions shared with the program's public interface (not its code):
site 0 of a register is the least-significant bit of the state index,
spin up is bit value 0, spin vectors carry no factor 1/2, hbar = 1.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as P
from scipy.linalg import expm

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


# ---------------------------------------------------------------------------
# Spin registers
# ---------------------------------------------------------------------------

def site_op(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """`op` on one site of an n-site register, identity elsewhere."""
    out = np.ones((1, 1), dtype=complex)
    for k in reversed(range(n_sites)):
        out = np.kron(out, op if k == site else I2)
    return out


def exchange(i: int, j: int, n_sites: int) -> np.ndarray:
    """s_i . s_j with Pauli spin vectors."""
    return sum(site_op(p, i, n_sites) @ site_op(p, j, n_sites) for p in (SX, SY, SZ))


def _product_state(bits: dict, n_sites: int) -> np.ndarray:
    vec = np.zeros(2**n_sites, dtype=complex)
    vec[sum(b << k for k, b in bits.items())] = 1.0
    return vec


def singlet_cover(pair_a: tuple, pair_b: tuple) -> np.ndarray:
    """|S>_{pair_a} |S>_{pair_b} on four sites, |S>_{ij} = (|ud> - |du>)/sqrt2."""
    (i, j), (k, l) = pair_a, pair_b
    state = np.zeros(16, dtype=complex)
    for (bi, bj), s1 in (((0, 1), 1.0), ((1, 0), -1.0)):
        for (bk, bl), s2 in (((0, 1), 1.0), ((1, 0), -1.0)):
            state += 0.5 * s1 * s2 * _product_state({i: bi, j: bj, k: bk, l: bl}, 4)
    return state


# ---------------------------------------------------------------------------
# Second-order coefficients (paper's closed forms, exact rationals)
# ---------------------------------------------------------------------------

def lambda_z(r) -> Fraction:
    r = Fraction(r)
    return (Fraction(9) / r - Fraction(8) / (r - 3) + 2 - Fraction(24) / (r + 1)
            + Fraction(1) / (2 - r)) / 48


def gamma_z(r) -> Fraction:
    r = Fraction(r)
    return (Fraction(9) / r + Fraction(8) / (r - 3) - 8 - Fraction(1) / (2 - r)) / 48


def gate_time(d_over_j, jp_over_j, n: int = 1) -> float:
    """t_c = (2n-1) pi J / (4 J'^2 |lambda_z - 1/8|) at J = 1."""
    detune = abs(lambda_z(Fraction(d_over_j)) - Fraction(1, 8))
    return (2 * n - 1) * np.pi / (4.0 * float(jp_over_j) ** 2 * float(detune))


def allowed_ratios(n: int, m: int) -> list[float]:
    """Real roots in (0, 1) of the quartic from lambda_z(r) = 1/8 + (2n-1)/(16m).

    Multiplying by 48 r (r-3)(r+1)(2-r) clears every denominator.
    """
    target = 0.125 + (2 * n - 1) / (16.0 * m)
    r, rm3, rp1, tm = [0.0, 1.0], [-3.0, 1.0], [1.0, 1.0], [2.0, -1.0]

    def prod(*fs):
        out = np.array([1.0])
        for f in fs:
            out = P.polymul(out, f)
        return out

    terms = [
        9.0 * prod(rm3, rp1, tm),
        -8.0 * prod(r, rp1, tm),
        (2.0 - 48.0 * target) * prod(r, rm3, rp1, tm),
        -24.0 * prod(r, rm3, tm),
        prod(r, rm3, rp1),
    ]
    coeffs = np.zeros(5)
    for t in terms:
        coeffs[: len(t)] += t
    roots = np.roots(coeffs[::-1])
    real = roots[np.abs(roots.imag) < 1e-9].real
    return sorted(float(x) for x in real if 0.0 < x < 1.0)


def plaquette_levels(j: float, d: float) -> list[float]:
    """Closed-form levels in the order of the `spectrum` dataset rows."""
    return [-4 * (j - d), 4 * d, 4 * j, 4 * j, 4 * (j - d), 4 * (2 * j + d)]


def hubbard_gap(t: float, u: float) -> float:
    """Exact two-site singlet-triplet gap, (sqrt(U^2 + 16 t^2) - U) / 2."""
    return (np.sqrt(u * u + 16.0 * t * t) - u) / 2.0


#: Resonant ledger rows (n_L, n_R_a, j_R) at the default bias per statistics.
RESONANT_ROWS = {
    "boson": {(1, 0, Fraction(1, 2)), (1, 1, Fraction(0))},
    "fermion": {(1, 2, Fraction(1, 2))},
}

#: Resonant link sectors and their return phase magnitudes.
RESONANT_PHASES = {("boson", "SS"): 2 * np.pi, ("boson", "ST"): np.pi, ("fermion", "TS"): np.pi}


# ---------------------------------------------------------------------------
# Echoed gate on the full 256-dim space
# ---------------------------------------------------------------------------

def _plaquette_basis():
    psi_h = singlet_cover((0, 1), (2, 3))
    psi_v = singlet_cover((1, 2), (3, 0))
    return (psi_h + psi_v) / np.sqrt(3.0), psi_h - psi_v


def echo_gate_figures(d_over_j: float, jp_over_j: float, n: int = 1) -> tuple[float, float, float]:
    """(t_c, F, leakage) of the echoed gate scored against its second-order prediction.

    Sites 0-3 are plaquette sites 1-4, sites 4-7 are 1'-4'. The left
    plaquette is the low logical bit; logical basis (|box>, |cross>).
    """
    j, d, jp = 1.0, float(d_over_j), float(jp_over_j)
    h = np.zeros((256, 256), dtype=complex)
    for base in (0, 4):
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
            h += j * exchange(base + a, base + b, 8)
        for a, b in ((0, 2), (1, 3)):
            h += d * exchange(base + a, base + b, 8)
    h += jp * (exchange(1, 4, 8) + exchange(2, 7, 8))
    t_c = gate_time(d_over_j, jp_over_j, n)
    half = expm(-1j * h * (t_c / 2.0))

    box, cross = _plaquette_basis()
    keep = np.outer(box, box.conj()) + np.outer(cross, cross.conj())
    flip = np.outer(box, cross.conj()) + np.outer(cross, box.conj()) + np.eye(16) - keep
    x = np.kron(flip, flip)
    u = x @ half @ x @ half

    iso = np.zeros((256, 4), dtype=complex)
    for i2, right in enumerate((box, cross)):
        for i1, left in enumerate((box, cross)):
            iso[:, 2 * i2 + i1] = np.kron(right, left)
    u_cols = u @ iso
    u_log = iso.conj().T @ u_cols
    leakage = float(np.linalg.norm(u_cols - iso @ u_log) ** 2)

    b = -jp**2 / (8.0 * j)
    c = -(jp**2 / j) * float(lambda_z(Fraction(d_over_j)) - Fraction(1, 8))
    heis = sum(np.kron(p, p) for p in (SX, SY, SZ))
    target = expm(-1j * t_c * (b * heis + c * np.kron(SZ, SZ)))
    f = np.trace(target.conj().T @ u_log) / 4.0
    return t_c, float(abs(f) ** 2), leakage


# ---------------------------------------------------------------------------
# Optimal-control pulses on the 16-dim edge register (2, 3, 1', 4')
# ---------------------------------------------------------------------------

def control_operators() -> np.ndarray:
    """s2.s3, s1'.s4', s2z s1'z + s3z s4'z, sum of sx, sum of sy (stacked)."""
    zz = [site_op(SZ, a, 4) @ site_op(SZ, b, 4) for a, b in ((0, 2), (1, 3))]
    return np.stack([
        exchange(0, 1, 4),
        exchange(2, 3, 4),
        zz[0] + zz[1],
        sum(site_op(SX, k, 4) for k in range(4)),
        sum(site_op(SY, k, 4) for k in range(4)),
    ])


def control_target() -> np.ndarray:
    """1 - 2 P_T(2,3) P_T(1',4') with P_T = (s.s + 3)/4."""
    eye = np.eye(16)
    p_left = (exchange(0, 1, 4) + 3.0 * eye) / 4.0
    p_right = (exchange(2, 3, 4) + 3.0 * eye) / 4.0
    return eye - 2.0 * (p_left @ p_right)


def draw_pulse(rng: np.random.Generator, n_harmonics: int = 20) -> np.ndarray:
    """Sine coefficients uniform(-0.5, 0.5) * pi / l for each of five controls."""
    scale = np.pi / np.arange(1, n_harmonics + 1)
    return rng.uniform(-0.5, 0.5, size=(5, n_harmonics)) * scale


def slice_product(x: np.ndarray, steps: int, ops: np.ndarray, t_horizon: float = 1.0) -> np.ndarray:
    """Product of midpoint-rule slice exponentials, latest slice on the left."""
    dt = t_horizon / steps
    ells = np.arange(1, x.shape[1] + 1)
    u = np.eye(16, dtype=complex)
    for s in range(steps):
        alphas = x @ np.sin(ells * np.pi * (s + 0.5) * dt / t_horizon)
        u = expm(-1j * dt * np.tensordot(alphas, ops, axes=1)) @ u
    return u


def gate_overlap(u: np.ndarray, target: np.ndarray) -> float:
    """F = |Tr(target^dag U) / 16|^2."""
    return float(abs(np.trace(target.conj().T @ u) / 16.0) ** 2)
