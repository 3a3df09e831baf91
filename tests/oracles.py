"""Reference implementations that the library's reduced paths are checked against.

The pulse propagator and the exact GRAPE gradient below work on the full
16-dim complex register, slice by slice, with no use of the block structure
of the control algebra. `plaqgate.optctrl` computes the same quantities in
the real 7 + 3 + 6 blocks; `tests/test_optctrl.py` compares the two.
"""
from __future__ import annotations

import numpy as np

from plaqgate.optctrl import FULL_DIM, PulseParams, control_operators, target_gate


def _slice_eigs(pulse: PulseParams, steps: int, ops: np.ndarray):
    """Midpoint-time eigendecompositions of H(t_s) for every slice."""
    dt = pulse.t_horizon / steps
    t_mid = (np.arange(steps) + 0.5) * dt
    ells = np.arange(1, pulse.n_harmonics + 1)
    sin_basis = np.sin(np.outer(ells, np.pi * t_mid / pulse.t_horizon))  # L x S
    alphas = pulse.x @ sin_basis  # K x S
    h_slices = np.einsum("ks,kpq->spq", alphas, ops)
    lam, vecs = np.linalg.eigh(h_slices)
    return dt, sin_basis, lam, vecs


def _slice_unitaries(lam: np.ndarray, vecs: np.ndarray, dt: float) -> np.ndarray:
    phases = np.exp(-1j * lam * dt)  # S x 16
    return np.einsum("spq,sq,srq->spr", vecs, phases, vecs.conj())


def _phi_matrix(lam: np.ndarray, dt: float) -> np.ndarray:
    """Divided-difference kernel Gamma for the derivative of the slice exponential."""
    a = -1j * lam * dt  # S x 16
    expa = np.exp(a)
    den = a[:, :, None] - a[:, None, :]
    num = expa[:, :, None] - expa[:, None, :]
    small = np.abs(den) < 1e-7
    mean = np.exp((a[:, :, None] + a[:, None, :]) / 2.0)
    safe_den = np.where(small, 1.0, den)
    return np.where(small, mean * (1.0 + den**2 / 24.0), num / safe_den)


def full_space_propagate(pulse: PulseParams, steps: int) -> np.ndarray:
    """U(T; x) as the ordered product of the 16-dim slice exponentials."""
    ops = control_operators()
    dt, _, lam, vecs = _slice_eigs(pulse, steps, ops)
    slices = _slice_unitaries(lam, vecs, dt)
    u = np.eye(FULL_DIM, dtype=complex)
    for s in range(steps):
        u = slices[s] @ u
    return u


def full_space_fidelity_and_gradient(
    pulse: PulseParams, steps: int
) -> tuple[float, np.ndarray]:
    """F = |Tr(U_g^dag U)/16|^2 and its exact gradient, in the full register.

    A forward pass stores every prefix product P_s; the backward pass uses
    M_s = P_s U_g^dag U_tot P_{s+1}^dag and the divided-difference kernel of
    each slice's eigensystem.
    """
    ops = control_operators()
    dt, sin_basis, lam, vecs = _slice_eigs(pulse, steps, ops)
    slices = _slice_unitaries(lam, vecs, dt)
    prefixes = np.empty((steps + 1, FULL_DIM, FULL_DIM), dtype=complex)
    prefixes[0] = np.eye(FULL_DIM)
    for s in range(steps):
        prefixes[s + 1] = slices[s] @ prefixes[s]
    u_tot = prefixes[steps]
    u_g = target_gate()
    f = np.trace(u_g.conj().T @ u_tot) / FULL_DIM

    gamma = _phi_matrix(lam, dt)
    g_mat = u_g.conj().T @ u_tot
    m_all = prefixes[:-1] @ g_mat @ prefixes[1:].conj().transpose(0, 2, 1)
    m_til = np.einsum("sqp,sqr,srt->spt", vecs.conj(), m_all, vecs, optimize=True)
    o_til = np.einsum("sqp,kqr,srt->skpt", vecs.conj(), ops, vecs, optimize=True)
    weight = m_til.transpose(0, 2, 1) * gamma
    coeffs = -1j * dt * np.einsum("spq,skpq->ks", weight, o_til, optimize=True) / FULL_DIM
    grad_f = coeffs @ sin_basis.T  # K x L
    grad = 2.0 * np.real(np.conj(f) * grad_f)
    return float(abs(f) ** 2), grad
