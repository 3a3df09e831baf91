"""Smooth-pulse optimal control of the inter-plaquette controlled-phase gate.

The active register holds the four sites adjacent to the shared edge,
(2, 3, 1', 4') in that order, and the control Hamiltonian is

    H(t; x) = sum_k alpha_k(t) O_k,   alpha_k(t) = sum_l x_kl sin(l pi t / T)

with the five available operators

    O1 = s2.s3      O2 = s1'.s4'     O3 = s2z s1'z + s3z s4'z
    O4 = sum_i s_i^x                 O5 = sum_i s_i^y

Every pulse starts and ends at zero by construction of the sine basis. The
target is the controlled-phase gate 1 - 2 P_T (x) P_T' (phase -1 exactly on
the triplet (x) triplet subspace of the two pairs), and the figure of merit
is the full-space overlap F = |Tr(U_target^dag U(T;x))| ** 2 / 16 ** 2.

Gradient scheme: the evolution is a product of midpoint-rule slice
exponentials U_s = exp(-i H(t_s) dt). For a normal matrix X = V D V^dag the
directional derivative of exp is  V [ (V^dag Y V) o Gamma ] V^dag  with
Gamma_pq = (e^{d_p} - e^{d_q}) / (d_p - d_q)  (diagonal limit e^{d_p}), so
each slice's contribution to d f / d x_kl is available in closed form from
the same eigendecomposition used to propagate. This makes the gradient exact
for the discretized dynamics - finite differences agree to ~1e-9 - rather
than an independent ODE approximation.

Controllability is checked by closing the real Lie algebra generated by the
O_k (plus the identity): the span saturates at dimension 80.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .spincore import SpinRegister, pauli_dot, pauli_site, read_only

CONTROL_SITES = ("2", "3", "1'", "4'")
N_CONTROLS = 5
FULL_DIM = 16


@dataclass(frozen=True)
class ControlSet:
    """The five control operators on the 16-dim edge register."""

    operators: tuple

    def stack(self) -> np.ndarray:
        return np.stack(self.operators)


@dataclass
class PulseParams:
    """Sine-basis pulse coefficients: x[k, l-1] multiplies sin(l pi t / T)."""

    x: np.ndarray
    t_horizon: float = 1.0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 2 or self.x.shape[0] != N_CONTROLS:
            raise ValueError(f"x must have shape ({N_CONTROLS}, L), got {self.x.shape}")
        if not np.all(np.isfinite(self.x)):
            raise ValueError("pulse coefficients must be finite")
        if self.t_horizon <= 0:
            raise ValueError("pulse horizon must be positive")

    @property
    def n_harmonics(self) -> int:
        return self.x.shape[1]

    def amplitudes(self, times: np.ndarray) -> np.ndarray:
        """alpha_k(t) for each control, shape (5, len(times))."""
        ells = np.arange(1, self.n_harmonics + 1)
        basis = np.sin(np.outer(ells, np.pi * np.asarray(times) / self.t_horizon))
        return self.x @ basis

    def max_amplitudes(self, samples: int = 1000) -> np.ndarray:
        """max_t |alpha_k(t)| per control, for rescaling to physical units."""
        times = np.linspace(0.0, self.t_horizon, samples)
        return np.abs(self.amplitudes(times)).max(axis=1)


@dataclass
class OptimizationResult:
    x_final: np.ndarray
    infidelity: float
    iterations: int
    gradient_norm: float
    restarts_used: int
    seed: int


def control_register() -> SpinRegister:
    return SpinRegister(CONTROL_SITES)


@lru_cache(maxsize=1)
def _ops_stack() -> np.ndarray:
    return read_only(control_operators().stack())


def control_operators() -> ControlSet:
    """O1..O5 as quoted above, on the (2, 3, 1', 4') register."""
    reg = control_register()
    o1 = pauli_dot(reg, "2", "3")
    o2 = pauli_dot(reg, "1'", "4'")
    o3 = pauli_site(reg, "2", "z") @ pauli_site(reg, "1'", "z") + pauli_site(
        reg, "3", "z"
    ) @ pauli_site(reg, "4'", "z")
    o4 = sum(pauli_site(reg, s, "x") for s in CONTROL_SITES)
    o5 = sum(pauli_site(reg, s, "y") for s in CONTROL_SITES)
    return ControlSet(operators=(o1, o2, o3, o4, o5))


@lru_cache(maxsize=1)
def target_gate() -> np.ndarray:
    """1 - 2 P_T(2,3) P_T(1',4'): controlled phase on the two pair qubits.

    Cached; the returned array is read-only.
    """
    reg = control_register()
    p_t_left = (pauli_dot(reg, "2", "3") + 3.0 * np.eye(FULL_DIM)) / 4.0
    p_t_right = (pauli_dot(reg, "1'", "4'") + 3.0 * np.eye(FULL_DIM)) / 4.0
    return read_only(np.eye(FULL_DIM, dtype=complex) - 2.0 * (p_t_left @ p_t_right))


# ---------------------------------------------------------------------------
# Lie closure
# ---------------------------------------------------------------------------

def _to_real_vectors(mats: np.ndarray) -> np.ndarray:
    flat = mats.reshape(len(mats), -1)
    return np.hstack([flat.real, flat.imag])


def _from_real_vector(vec: np.ndarray, dim: int) -> np.ndarray:
    half = dim * dim
    return (vec[:half] + 1j * vec[half:]).reshape(dim, dim)


def lie_closure_dimension(
    operators,
    tol: float = 1e-9,
    max_rounds: int = 12,
    return_span: bool = False,
):
    """Real dimension of the Lie closure of Hermitian generators plus identity.

    Each round adds i[A, B] for all pairs of the current span and recomputes
    the numerical rank (singular values above tol x largest). Stops when a
    round adds nothing; raises if the cap is hit first.
    """
    dim = operators[0].shape[0]
    seed = [np.eye(dim, dtype=complex)] + [np.asarray(o, dtype=complex) for o in operators]
    stacked = _to_real_vectors(np.stack(seed))
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    keep = svals > tol * svals[0]
    rows, rank = vt[keep], int(keep.sum())

    for _ in range(max_rounds):
        mats = np.stack([_from_real_vector(r, dim) for r in rows])
        comms = []
        for a in range(len(mats)):
            for b in range(a + 1, len(mats)):
                comms.append(1j * (mats[a] @ mats[b] - mats[b] @ mats[a]))
        candidates = np.vstack([rows, _to_real_vectors(np.stack(comms))])
        _, svals, vt = np.linalg.svd(candidates, full_matrices=False)
        keep = svals > tol * svals[0]
        new_rank = int(keep.sum())
        if new_rank == rank:
            if return_span:
                return rank, rows
            return rank
        rows, rank = vt[keep], new_rank
    raise RuntimeError(f"Lie closure did not saturate within {max_rounds} rounds")


def span_contains(rows: np.ndarray, op: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether a Hermitian operator lies in the (orthonormal-row) real span."""
    vec = _to_real_vectors(op[None, :, :])[0]
    residual = vec - rows.T @ (rows @ vec)
    return float(np.linalg.norm(residual)) <= tol * max(1.0, float(np.linalg.norm(vec)))


# ---------------------------------------------------------------------------
# Propagation and the exact slice gradient
# ---------------------------------------------------------------------------

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


def _gate_overlap(u: np.ndarray) -> float:
    """F = |Tr(U_g^dag U)/16|^2 against the controlled-phase target."""
    return float(abs(np.trace(target_gate().conj().T @ u) / FULL_DIM) ** 2)


def _product_of_slices(pulse: PulseParams, steps: int, ops: np.ndarray) -> np.ndarray:
    dt, _, lam, vecs = _slice_eigs(pulse, steps, ops)
    slices = _slice_unitaries(lam, vecs, dt)
    u = np.eye(FULL_DIM, dtype=complex)
    for s in range(steps):
        u = slices[s] @ u
    return u


def propagate(pulse: PulseParams, steps: int = 2000, check: bool = False) -> np.ndarray:
    """U(T; x) as a product of midpoint slice exponentials (exactly unitary).

    With check=True the slice count is doubled until halving the step moves
    the gate fidelity against the target by no more than 1e-9, and the
    converged (finer) result is returned; a RuntimeError reports
    non-convergence.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    ops = _ops_stack()
    u = _product_of_slices(pulse, steps, ops)
    if not check:
        return u
    for _ in range(10):
        steps *= 2
        u_fine = _product_of_slices(pulse, steps, ops)
        err = abs(_gate_overlap(u_fine) - _gate_overlap(u))
        u = u_fine
        if err <= 1e-9:
            return u
    raise RuntimeError(
        f"propagation not converged at {steps} steps: step-halving still moves F by {err:.2e}"
    )


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


def fidelity_and_gradient(
    pulse: PulseParams, steps: int = 2000
) -> tuple[float, np.ndarray]:
    """F = |Tr(U_g^dag U(T;x))/16|^2 and its exact gradient w.r.t. x.

    One forward pass stores each slice's eigensystem and prefix product; a
    backward pass assembles M_s = P_{s-1} U_g^dag U_tot P_s^dag so that
    df/dx_kl = sum_s -i dt sin(l pi t_s/T) Tr[(V^dag M_s V)(Gamma o V^dag O_k V)] / 16,
    and dF = 2 Re(conj(f) df).
    """
    ops = _ops_stack()
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


def gradient_check(pulse: PulseParams, steps: int = 250, fd_step: float = 1e-6) -> float:
    """Norm-relative error of the analytic gradient vs central finite differences.

    Returns ||grad - fd|| / max(||fd||, 1e-10). Componentwise comparison is
    deliberately avoided: the central difference carries ~1e-10 of rounding
    noise per component, which swamps the relative error wherever the true
    gradient is nearly flat.
    """
    _, grad = fidelity_and_gradient(pulse, steps)

    def f_only(x: np.ndarray) -> float:
        return _gate_overlap(propagate(PulseParams(x, pulse.t_horizon), steps))

    fd = np.zeros_like(grad)
    for idx in np.ndindex(*pulse.x.shape):
        dx = np.zeros_like(pulse.x)
        dx[idx] = fd_step
        fd[idx] = (f_only(pulse.x + dx) - f_only(pulse.x - dx)) / (2.0 * fd_step)
    return float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10))


class _TargetReached(Exception):
    """Raised inside the objective once the target infidelity is reached."""


def _draw_start(rng: np.random.Generator, n_harmonics: int) -> np.ndarray:
    scale = np.pi / np.arange(1, n_harmonics + 1)
    return rng.uniform(-0.5, 0.5, size=(N_CONTROLS, n_harmonics)) * scale


def optimize(
    seed: int,
    n_harmonics: int = 20,
    t_horizon: float = 1.0,
    restarts: int = 10,
    max_iter: int = 2000,
    target_eps: float = 1e-7,
    steps: int = 400,
    polish_steps: int = 2000,
    polish_max_iter: int = 300,
    bound: "float | None" = None,
) -> OptimizationResult:
    """Quasi-Newton pulse optimization from seeded random starts.

    A given seed reproduces the result bit for bit only on one numpy/BLAS
    build. The landscape has many optima, and rounding differences of
    1e-12 in the start point already move the endpoint (for seed 6 the
    iteration count then ranges over 861-1125). Callers may rely on the
    endpoint meeting `target_eps`, not on which optimum is reached.

    Runs up to `restarts` L-BFGS descents from seeded random coefficient
    draws (uniform(-0.5, 0.5) pi / l per harmonic) on a coarse `steps` grid
    (the slice-exact gradient makes the coarse objective cheap and faithful
    to a few 1e-6). The descent stops as soon as the infidelity reaches
    `target_eps`, so the achieved baseline sits just at the requested
    level instead of overshooting to the optimizer's floor. The best pulse
    is then re-converged on the `polish_steps` grid and the returned
    infidelity is quoted at that resolution. `bound`, if given,
    box-constrains every coefficient to [-bound, bound].
    """
    rng = np.random.default_rng(seed)

    def run(x0: np.ndarray, n_steps: int, iters: int):
        state = {"infid": np.inf, "x": x0.ravel().copy(), "grad": x0.ravel() * 0.0, "calls": 0}

        def objective(flat: np.ndarray):
            pulse = PulseParams(flat.reshape(N_CONTROLS, n_harmonics), t_horizon)
            fval, grad = fidelity_and_gradient(pulse, steps=n_steps)
            infid = 1.0 - fval
            state["calls"] += 1
            if infid < state["infid"]:
                state.update(infid=infid, x=flat.copy(), grad=-grad.ravel())
            if infid <= target_eps:
                raise _TargetReached
            return infid, -grad.ravel()

        try:
            res = minimize(
                objective,
                x0.ravel(),
                jac=True,
                method="L-BFGS-B",
                bounds=None if bound is None else [(-bound, bound)] * x0.size,
                options={"maxiter": iters, "ftol": 1e-16, "gtol": 1e-12},
            )
            return float(res.fun), res.x, float(np.linalg.norm(res.jac)), int(res.nit)
        except _TargetReached:
            return (
                state["infid"],
                state["x"],
                float(np.linalg.norm(state["grad"])),
                state["calls"],
            )

    best: dict = {"infid": np.inf}
    total_iters = 0
    used = 0
    for _ in range(restarts):
        used += 1
        infid, x_flat, grad_norm, nit = run(_draw_start(rng, n_harmonics), steps, max_iter)
        total_iters += nit
        if infid < best["infid"]:
            best = {
                "infid": infid,
                "x": x_flat.reshape(N_CONTROLS, n_harmonics),
                "grad_norm": grad_norm,
            }
        if best["infid"] <= target_eps:
            break
    if polish_steps and polish_steps != steps:
        infid, x_flat, grad_norm, nit = run(best["x"], polish_steps, polish_max_iter)
        total_iters += nit
        best = {
            "infid": infid,
            "x": x_flat.reshape(N_CONTROLS, n_harmonics),
            "grad_norm": grad_norm,
        }
    return OptimizationResult(
        x_final=best["x"],
        infidelity=best["infid"],
        iterations=total_iters,
        gradient_norm=best["grad_norm"],
        restarts_used=used,
        seed=seed,
    )


def robustness_sweep(
    pulse: PulseParams, deviations, steps: int = 2000
) -> list[float]:
    """Infidelity under the globally scaled Hamiltonian (1 - delta) H.

    Scaling H is identical to scaling every coefficient in x, so each point
    is one propagation at (1 - delta) x.
    """
    return [
        1.0 - _gate_overlap(propagate(PulseParams((1.0 - d) * pulse.x, pulse.t_horizon), steps))
        for d in deviations
    ]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_pulse_csv(pulse: PulseParams, path, samples: int = 1000) -> None:
    """CSV with columns t, alpha_1..alpha_5 at `samples` uniform times."""
    times = np.linspace(0.0, pulse.t_horizon, samples)
    values = pulse.amplitudes(times)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"alpha_{k + 1}" for k in range(N_CONTROLS)])
        for i, t in enumerate(times):
            writer.writerow([f"{t:.17g}"] + [f"{values[k, i]:.17g}" for k in range(N_CONTROLS)])


def export_result_json(result: OptimizationResult, t_horizon: float, path) -> None:
    payload = {
        "x": [[float(v) for v in row] for row in result.x_final],
        "T": float(t_horizon),
        "L": int(result.x_final.shape[1]),
        "infidelity": float(result.infidelity),
        "seed": int(result.seed),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_result_json(path) -> tuple[PulseParams, float, int]:
    """Read back an exported result: (pulse, infidelity, seed)."""
    with open(path) as fh:
        payload = json.load(fh)
    pulse = PulseParams(np.array(payload["x"], dtype=float), float(payload["T"]))
    return pulse, float(payload["infidelity"]), int(payload["seed"])
