"""Reference implementations that the library's reduced paths are checked against.

The pulse propagator and the exact GRAPE gradient below work on the full
16-dim complex register, slice by slice, with no use of the block structure
of the control algebra. `plaqgate.optctrl` computes the same quantities in
the real 7 + 3 + 6 blocks; `tests/test_optctrl.py` compares the two.

The link references at the end check `plaqgate.geophase`: the Fock-space
(anti)commutators, the transient leakage of a link, and its return time as
the root of d|a|^2/dt found by scipy's `brentq` instead of the program's Newton search.
The last two read the program's eigenpairs of the channel's S_z block (`link_spectrum`, which
solves one channel alone, outside the cache of `geophase._link_pass`);
`tests/make_truth.py` computes the same figures at 40 digits without them.

The whole-batch block propagator is the reference for the streamed one of
`plaqgate.optctrl`: it exponentiates every slice at once and multiplies their
real embeddings in one pairwise tree, and the two must agree bit for bit. The fourth-order
commutator-free product (`cf4_fidelity`) is the continuous-time reference for
the program's second-order midpoint slices.

The all-orders logical Hamiltonian (`all_orders_logical_hamiltonian`) is the
reference for `plaqgate.pertgate`'s second-order H_rwa, and the cap-4 boson
space (`Cap4FockSpace`) for the cap of 2 of `plaqgate.geophase`'s links.

Last come the all-pairs Lie closure, which `plaqgate.optctrl.lie_closure`
(brackets with the generators only) is checked against, and small helpers
that only the tests use: the total spin of a register, the logical columns
of the plaquette basis and the restriction of a 16-dim operator to them,
span membership in a Lie closure, and the fixed-number and truncation-free
states of a Fock space.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from plaqgate import geophase as gp
from plaqgate import pertgate as pg
from plaqgate.optctrl import (
    FULL_DIM,
    PulseParams,
    _block_hamiltonians,
    _embedded_slices,
    _gate_overlap,
    _product_tree,
    _slice_amplitudes,
    _slice_powers,
    _slice_scale,
    _to_real_vectors,
    control_blocks,
    control_operators,
    target_gate,
)
from plaqgate.plaquette import PlaquetteBasis, logical_basis
from plaqgate.spincore import SpinRegister, pauli_site


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


def slice_exponentials(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for a whole batch h[..., d, d] of real symmetric slice Hamiltonians."""
    return _slice_powers(h, dt, *_slice_scale([h], dt))[1][-1]


def whole_batch_block_propagators(x: np.ndarray, t_horizon: float, steps: int) -> list[np.ndarray]:
    """U_b(T; x) of each block from all slice exponentials at once and one product tree.

    As in the program, the slices are real 2d x 2d embeddings [[X, -Y], [Y, X]] of
    exp(-i h dt) = X + iY, and U_b = X + iY is read from the root's left block column.
    """
    dt, _, alphas = _slice_amplitudes(x, t_horizon, steps)
    unitaries = []
    for block in control_blocks():
        h = _block_hamiltonians(alphas, block)
        root, d = _product_tree(_embedded_slices(h, dt, *_slice_scale([h], dt)))[-1], h.shape[-1]
        unitaries.append(root[..., 0, :d, :d] + 1j * root[..., 0, d:, :d])
    return unitaries


def cf4_fidelity(pulse: PulseParams, steps: int) -> float:
    """F of the fourth-order commutator-free product of `steps` steps of length dt = T / steps.

    Each step is exp(-i dt (a1 H- + a2 H+)) exp(-i dt (a2 H- + a1 H+)), with H-+ = H at the
    Gauss points t_n + (1/2 -+ sqrt3/6) dt and a1,2 = (3 -+ 2 sqrt3)/12 (Blanes & Moan, Appl.
    Numer. Math. 56, 1519 (2006)). H is linear in the controls, so each factor is one slice
    of length dt with mixed amplitudes, exponentiated and multiplied as the program's are.
    """
    dt, r3 = pulse.t_horizon / steps, np.sqrt(3.0)
    a1, a2 = (3.0 - 2.0 * r3) / 12.0, (3.0 + 2.0 * r3) / 12.0
    start = np.arange(steps) * dt
    minus, plus = (pulse.amplitudes(start + (0.5 + sign * r3 / 6.0) * dt) for sign in (-1, 1))
    # K x S x 2 -> 2S x K, the earlier slice of each step first
    alphas = np.stack([a2 * minus + a1 * plus, a1 * minus + a2 * plus], axis=-1)
    alphas = alphas.reshape(len(alphas), -1).T
    return float(_gate_overlap([_product_tree(slice_exponentials(
        _block_hamiltonians(alphas, b), dt))[-1][0] for b in control_blocks()]))


def all_orders_logical_hamiltonian(p: pg.PertParams) -> np.ndarray:
    """The 4x4 Bloch (des Cloizeaux) effective Hamiltonian of the logical qubits, to all orders.

    Q holds the 4 eigenvectors of the S = 0 sector Hamiltonian with the largest weight on the
    logical isometry P, E their energies, and W the unitary polar factor of P^dag Q; then
    H_eff = W diag(E) W^dag in the basis of `effective_hamiltonian`. It equals the
    Schrieffer-Wolff direct rotation (Bravyi, DiVincenzo & Loss, Ann. Phys. 326, 2793 (2011)).
    """
    energies, vectors = np.linalg.eigh(pg._sector_hamiltonian(p))
    iso = pg._singlet_sector().isometry
    kept = np.sort(np.argsort(-np.sum(np.abs(iso.conj().T @ vectors) ** 2, axis=0))[:4])
    left, _, right = np.linalg.svd(iso.conj().T @ vectors[:, kept])
    w = left @ right
    return (w * energies[kept]) @ w.conj().T


class Cap4FockSpace(gp.TwoBandFockSpace):
    """The boson link space with up to 4 bosons per mode instead of 2 (56 and 126 states at
    N = 3 and 4, against 50 and 90), where no hop of N <= 4 particles meets the cap."""

    @property
    def cap(self) -> int:
        return 4


def cap4_link_figures(n_l: int, n_r_a: int, channel_spin, params: gp.OnsiteParams):
    """(return_time, phase, leakage) of one boson link on the cap-4 space's S_z block."""
    space = Cap4FockSpace("boson", n_l + n_r_a)
    h = gp.onsite_hamiltonian(params, space) + gp.tunneling_hamiltonian(params, space)
    block = space.spin_z_blocks[int(2 * channel_spin)]
    evals, evecs = np.linalg.eigh(h[np.ix_(block, block)])
    psi = gp._initial_channel_state(space, n_l, n_r_a, channel_spin)[block]
    return gp._return_figures(evals, (evecs.T @ psi) ** 2, params)


def commutation_residual(space: gp.TwoBandFockSpace) -> float:
    """Worst (anti)commutator defect among all mode pairs.

    Fermionic relations hold exactly. Bosonic [a_i, a_j^dag] = delta_ij
    is checked on states that keep both modes strictly below the cap,
    where truncation is immaterial. Both strings of a relation map a
    state to the same image, so the defect of each state is the sum of
    its two amplitudes and the identity term; no matrix is built.
    """
    worst = 0.0
    swap_sign = 1.0 if space.statistics == "fermion" else -1.0
    amp = space.apply_string
    for i, j in itertools.product(range(len(gp.MODE_LABELS)), repeat=2):
        # a_i a_j -/+ a_j a_i = 0 never touches the cap
        anti = amp([(i, -1), (j, -1)]) + swap_sign * amp([(j, -1), (i, -1)])
        worst = max(worst, np.abs(anti).max(initial=0.0))
        mixed = ((-1.0 if i == j else 0.0) + amp([(i, -1), (j, +1)])
                 + swap_sign * amp([(j, +1), (i, -1)]))
        if space.statistics == "boson":
            mixed = mixed[(space.counts[:, i] < space.cap) & (space.counts[:, j] < space.cap)]
        worst = max(worst, np.abs(mixed).max(initial=0.0))
    return float(worst)


def link_spectrum(n_l: int, n_r_a: int, channel_spin, params: gp.OnsiteParams,
                  statistics: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of one link's S_z block and the weights |<k|psi0>|^2 of its initial state.

    One channel alone: its Hamiltonian is built from the program's operators and its block
    solved by the same real `eigh` for this call, so the eigenpairs are those of `_link_pass`,
    bit for bit, without its cache or its refusals.
    """
    j = Fraction(channel_spin)
    space = gp._link_space(statistics, n_l + n_r_a)
    h = gp.onsite_hamiltonian(params, space) + gp.tunneling_hamiltonian(params, space)
    block = space.spin_z_blocks[int(2 * j)]
    evals, evecs = np.linalg.eigh(h[np.ix_(block, block)])
    return evals, (evecs.T @ gp._channel_state(statistics, n_l, n_r_a, j)[block]) ** 2


def link_peak_leakage(n_l: int, n_r_a: int, channel_spin, params: gp.OnsiteParams,
                      statistics: str) -> float:
    """Worst transient depletion 1 - |a(t)|^2 of one link over a return cycle, on its S_z block.

    For an off-resonant link this is bounded by C (t/dE1)^2 with C = 4 n_L:
    a detuned two-level system transfers at most 4 g^2/dE^2 of population,
    and the bosonic matrix element is enhanced to g = sqrt(n_L) t.
    """
    evals, weights = link_spectrum(n_l, n_r_a, channel_spin, params, statistics)
    _, mags = gp._return_scan(evals, weights, params)
    return float(max(0.0, 1.0 - mags.min() ** 2))


def slope_root(evals: np.ndarray, weights: np.ndarray, lo: float, hi: float):
    """(t, a(t)) at the root of d|a|^2/dt on [lo, hi], found by `brentq`.

    a(t) = sum_k w_k e^{-i (E_k - E0) t} with E0 = sum_k w_k E_k, the program's gauge,
    and d|a|^2/dt = 2 Re(conj(a) a') with a' = sum_k w_k (-i (E_k - E0)) e^{-i (E_k - E0) t}.
    A rounding of the slope moves the root linearly, where it moves the maximum of the
    flat |a| by its square root.
    """
    rates = -1j * (evals - weights @ evals)

    def slope(t: float) -> float:
        terms = weights * np.exp(rates * t)
        return 2.0 * float(np.real(np.conj(terms.sum()) * (rates @ terms)))

    t_root = brentq(slope, lo, hi, xtol=1e-15)
    return t_root, np.sum(weights * np.exp(rates * t_root))


def link_return_root(n_l: int, n_r_a: int, channel_spin, params: gp.OnsiteParams,
                     statistics: str) -> tuple[float, float, float]:
    """(return_time, phase, leakage) of one link with the return time found by `brentq`.

    Same eigenpairs and scan bracket [t_{k-1}, t_{k+1}] as `link_tunneling_phase`, but
    the root of d|a|^2/dt is found by scipy (`slope_root`), not by the program's Newton
    search. The phase is `np.angle`'s, in (-pi, pi].
    """
    evals, weights = link_spectrum(n_l, n_r_a, channel_spin, params, statistics)
    kept = weights >= 1e-20
    ts, mags = gp._return_scan(evals[kept], weights[kept], params)
    inner = mags[1:-1]
    first_min = np.flatnonzero((inner <= mags[:-2]) & (inner <= mags[2:]))[0] + 1
    maxima = np.flatnonzero((inner >= mags[:-2]) & (inner >= mags[2:])) + 1
    k = maxima[maxima > first_min + 1][0]
    t_root, a_root = slope_root(evals, weights, ts[k - 1], ts[k + 1])
    return t_root, float(np.angle(a_root)), float(max(0.0, 1.0 - abs(a_root) ** 2))


def all_pairs_lie_closure(operators) -> np.ndarray:
    """Orthonormal real span rows of the Lie closure of Hermitian generators plus identity.

    Each round adds i[A, B] for all pairs of the current span and recomputes
    the numerical rank (singular values above 1e-9 x largest). Stops when a
    round adds nothing; raises if 12 rounds do not saturate it.
    """
    dim = operators[0].shape[0]
    seed = [np.eye(dim, dtype=complex)] + [np.asarray(o, dtype=complex) for o in operators]
    candidates, rows = _to_real_vectors(np.stack(seed)), None
    for _ in range(12 + 1):
        _, svals, vt = np.linalg.svd(candidates, full_matrices=False)
        keep = svals > 1e-9 * svals[0]
        if rows is not None and int(keep.sum()) == len(rows):
            return rows
        rows = vt[keep]
        mats = (rows[:, :dim * dim] + 1j * rows[:, dim * dim:]).reshape(-1, dim, dim)
        comms = [1j * (mats[a] @ mats[b] - mats[b] @ mats[a])
                 for a in range(len(mats)) for b in range(a + 1, len(mats))]
        candidates = np.vstack([rows, _to_real_vectors(np.stack(comms))])
    raise RuntimeError("Lie closure did not saturate within 12 rounds")


def total_spin(reg: SpinRegister) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Components of the total spin Sum_i s_i."""
    comps = []
    for ax in ("x", "y", "z"):
        comps.append(sum(pauli_site(reg, s, ax) for s in reg.site_labels))
    return tuple(comps)


def logical_columns(basis: PlaquetteBasis) -> np.ndarray:
    """16x2 isometry whose columns are (|0>, |1>)."""
    return np.stack([basis.ket0, basis.ket1], axis=1)


def logical_restriction(op: np.ndarray) -> np.ndarray:
    """Restrict a 16-dim operator to the logical basis: P^dag op P in (|0>,|1>)."""
    cols = logical_columns(logical_basis())
    return cols.conj().T @ op @ cols


def span_contains(rows: np.ndarray, op: np.ndarray) -> bool:
    """Whether a Hermitian operator lies in the (orthonormal-row) real span, to 1e-8 relative."""
    vec = _to_real_vectors(op[None, :, :])[0]
    residual = vec - rows.T @ (rows @ vec)
    return float(np.linalg.norm(residual)) <= 1e-8 * max(1.0, float(np.linalg.norm(vec)))


def sector_indices(space: gp.TwoBandFockSpace, total: int) -> np.ndarray:
    """Basis states of `space` holding `total` particles."""
    return np.flatnonzero(space.counts.sum(axis=1) == total)


def physical_indices(space: gp.TwoBandFockSpace) -> np.ndarray:
    """States whose per-orbital occupancy stays within the cap.

    Spin raising/lowering and the band-exchange interaction never leave
    this subspace, so symmetry checks are truncation-free on it; it also
    contains every state the tunneling dynamics visits.
    """
    return np.flatnonzero(np.logical_and.reduce(
        [space.occupation(up, dn) <= space.cap for up, dn in gp.ORBITAL_PAIRS]))
