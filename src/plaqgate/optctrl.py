"""Smooth-pulse optimal control of the inter-plaquette controlled-phase gate.

The active register holds the four sites adjacent to the shared edge,
(2, 3, 1', 4') in that order, and the control Hamiltonian is

    H(t; x) = sum_k alpha_k(t) O_k,   alpha_k(t) = sum_l x_kl sin(l pi t / T)

with the five available operators

    O1 = s2.s3      O2 = s1'.s4'     O3 = s2z s1'z + s3z s4'z
    O4 = sum_i s_i^x                 O5 = sum_i s_i^y

Every pulse starts and ends at zero by construction of the sine basis. The
target is the controlled-phase gate U_g = 1 - 2 P_T (x) P_T' (phase -1
exactly on the triplet (x) triplet subspace of the two pairs), and the
figure of merit is the full-space overlap F = |Tr(U_g^dag U(T;x))|^2 / 16^2.

Block structure: in the basis W = [V+, i V-], with V+- the real +-1
eigenvectors of P = sx sx sx sx, the controls and the target are real. The
joint swap SWAP(2,3) SWAP(1',4') and the spin parity (-1)^S (O3 changes S
but not its parity) split the register into blocks of 7 (swap-even, S even),
3 (swap-even triplet) and 6 (swap-odd triplets), where all six are real
symmetric block-diagonal matrices (`control_blocks`). Each slice is a real
7x7, 3x3 and 6x6 matrix, F = |sum_b Tr(G_b^T U_b)|^2 / 256 with G_b and U_b
the target and the propagator in block b, and `propagate` still returns the
16x16 U. The full-space complex path is the test oracle (tests/oracles.py).

Gradient scheme: U(T) is the pairwise product tree of midpoint-rule slices
U_s = exp(-i H_s dt) = (cos A - i sin A)^(2^s), A = H_s dt / 2^s, with theta
and s from the whole batch (`_slice_scale`); one routine, `_slice_cos_sin`,
gives cos A and sin A as real Taylor sums. The gradient multiplies complex
slices (`_slice_powers`). `propagate` multiplies their real forms
[[cos A, sin A], [-sin A, cos A]] under X + iY -> [[X, -Y], [Y, X]]
(`_embedded_slices`) and reads U = X + iY from the root's left block column:
numpy batches small real matmuls in one vectorized loop but complex ones as
a zgemm call per matrix, so a real 14x14 product costs about half a complex
7x7 one. The two U agree to rounding (~5e-15), not bit for bit. A real
gradient saved about what assembling its embeddings cost and raised its
memory peak by half. `propagate` streams aligned chunks of _CHUNK = 256
slices: each chunk's exponentials and tree, then the tree of the chunk
roots. An aligned power-of-two chunk is a whole subtree of the full tree,
and the last chunk lacks only padding identities, which multiply exactly;
so U keeps the whole-batch bits without (S, 2d, 2d) temporaries.
A batch of pulses (`gradient_check`) streams in groups of at most _CHUNK
slices in all, one pulse at a time from _CHUNK slices up, with theta and s
from the whole batch; so the working set does not grow with the batch.
The gradient is the adjoint of the whole-batch tree, whose every level it
needs; nothing solves an eigenproblem. The three blocks' trees give f
first, and one down-sweep per tree, seeded with conj(f) G_b^T, gives every
slice its M_s = P_s Q_s (prefix times suffix).
The squaring adjoint M <- (E M + M E) / 2 takes M_s back to M_0, and the
Frechet derivative of exp(-iA) is Z = sum_k (i ad_A)^k (E_0 M_0) / (k+1)!,
E_0 = exp(-iA), cut by the Taylor tail rule with 2 theta for theta. Only
sym Im Z meets the real symmetric controls, so the series is real matmuls,
and dF/dalpha_k(t_s) = (dt / 8) sum_b Tr(O_k Z_s): exact for the discretized
dynamics (finite differences agree to ~1e-9), not an ODE approximation.

Workspace: the slice arrays of the gradient and the propagator (the slice
Hamiltonians, the Horner and cos/sin temporaries, the powers, the embeddings,
the tree levels, the down-sweep and the adjoint series) are views of byte
buffers that outlive the call, written with `out=` and in-place ufuncs. With
fresh arrays on every call glibc trims and unmaps the freed heap, and each call
faults its pages back in (5,107 minor faults per warm 2000-slice gradient);
`np.matmul(a, b, out=c)` gives the bits of `a @ b`. The rules:
- one workspace per thread (`threading.local`), so threads share no buffer;
  a call is not re-entrant within its thread;
- each path (`fidelity_and_gradient`; `_block_propagators`) keeps only the
  buffers of its latest key (steps; steps and pulse count), at most one call's
  working set: 3.5 MB at 400 gradient slices, 17 MB at 2000, 2.3 MB for
  `propagate(2000)`;
- a helper takes its buffers as a required dict; the blocks share a name where
  their arrays are never alive at once, and the gradient keeps each block's A,
  powers and tree, which its adjoint reads, in a dict of the block's own; the
  scratch slots t0-t5 hold the real temporaries of `_slice_cos_sin` and
  `_exp_adjoint`, which never run at once, and die when the helper returns,
  but for the result that its caller reads at once;
- no returned or cached array lies in a buffer, and the test oracles pass
  fresh dicts, so the bit-for-bit tests compare independent arrays.

Controllability is checked by closing the real Lie algebra generated by the
O_k (plus the identity) under brackets with the O_k alone (the all-pairs
closure is the test oracle): dimension 80, the sum of the blocks' 49 + 9 + 22.

scipy.optimize is imported where it is used, off the CLI's cold-start path.
"""
from __future__ import annotations

import csv
import io
import json
import math
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .spincore import SpinRegister, pauli_dot, pauli_site, read_only, total_spin_squared

CONTROL_SITES = ("2", "3", "1'", "4'")
N_CONTROLS = 5
FULL_DIM = 16

#: Uniform times at which a pulse is sampled for export and for its peak amplitudes
PULSE_SAMPLES = 1000


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
        if not (np.isfinite(self.t_horizon) and self.t_horizon > 0):
            raise ValueError(f"pulse horizon must be positive and finite, got {self.t_horizon}")

    @property
    def n_harmonics(self) -> int:
        return self.x.shape[1]

    def amplitudes(self, times: np.ndarray) -> np.ndarray:
        """alpha_k(t) for each control, shape (5, len(times))."""
        return self.x @ _sine_basis(self.n_harmonics, times, self.t_horizon)

    def max_amplitudes(self) -> np.ndarray:
        """max_t |alpha_k(t)| per control at PULSE_SAMPLES times, for physical units."""
        times = np.linspace(0.0, self.t_horizon, PULSE_SAMPLES)
        return np.abs(self.amplitudes(times)).max(axis=1)


def _sine_basis(n_harmonics: int, times, t_horizon: float) -> np.ndarray:
    """sin(l pi t / T) for l = 1..L, shape (L, len(times))."""
    ells = np.arange(1, n_harmonics + 1)
    return np.sin(np.outer(ells, np.pi * np.asarray(times) / t_horizon))


@dataclass
class OptimizationResult:
    """Outcome of `optimize`.

    `iterations` is the number of finished L-BFGS iterations, summed over
    every descent, the polish included, whether a descent ends on its own
    or reaching the target stops it.
    """

    x_final: np.ndarray
    infidelity: float
    iterations: int
    gradient_norm: float
    restarts_used: int
    seed: int


def control_register() -> SpinRegister:
    return SpinRegister(CONTROL_SITES)


@lru_cache(maxsize=1)
def control_operators() -> np.ndarray:
    """O1..O5 as quoted above, on the (2, 3, 1', 4') register, stacked 5 x 16 x 16.

    Cached; the returned array is read-only.
    """
    reg = control_register()
    o1 = pauli_dot(reg, "2", "3")
    o2 = pauli_dot(reg, "1'", "4'")
    o3 = pauli_site(reg, "2", "z") @ pauli_site(reg, "1'", "z") + pauli_site(
        reg, "3", "z"
    ) @ pauli_site(reg, "4'", "z")
    o4 = sum(pauli_site(reg, s, "x") for s in CONTROL_SITES)
    o5 = sum(pauli_site(reg, s, "y") for s in CONTROL_SITES)
    return read_only(np.stack((o1, o2, o3, o4, o5)))


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
    flat = mats.reshape(-1, mats.shape[-1] ** 2)
    return np.hstack([flat.real, flat.imag])


def lie_closure(operators) -> np.ndarray:
    """Orthonormal real span rows of the Lie closure of Hermitian generators plus identity.

    By the Jacobi identity the closure is the smallest span that holds the
    identity and the O_k and is closed under i[O_k, .]. So each round brackets
    only the rows that the last round added with each O_k, projects these
    candidates off the span twice, and adds the directions whose singular values
    exceed 1e-9 x the largest candidate norm before projection. Stops when a
    round adds nothing; raises if 12 rounds do not saturate it.
    """
    gens = np.asarray(operators, dtype=complex)
    dim = gens.shape[-1]
    candidates = _to_real_vectors(np.concatenate([np.eye(dim, dtype=complex)[None], gens]))
    rows = np.empty((0, candidates.shape[1]))
    for _ in range(12 + 1):
        scale = np.linalg.norm(candidates, axis=1).max()
        for _ in range(2):
            candidates = candidates - (candidates @ rows.T) @ rows
        _, svals, vt = np.linalg.svd(candidates, full_matrices=False)
        added = vt[svals > 1e-9 * scale]
        if not len(added):
            return rows
        rows = np.vstack([rows, added])
        mats = (added[:, :dim * dim] + 1j * added[:, dim * dim:]).reshape(-1, dim, dim)
        candidates = _to_real_vectors(1j * (gens[:, None] @ mats - mats @ gens[:, None]))
    raise RuntimeError("Lie closure did not saturate within 12 rounds")


# ---------------------------------------------------------------------------
# The real 7 + 3 + 6 blocks of the control algebra
# ---------------------------------------------------------------------------

#: (joint swap, (-1)^S) of the 7-, 3- and 6-dim blocks; no state is swap-odd with even S
BLOCK_LABELS = ((1, 1), (1, -1), (-1, -1))


@dataclass(frozen=True)
class ControlBlock:
    """Orthonormal columns B (16 x d) of one block, with the real controls
    B^dag O_k B (5 x d x d) and the real target G = B^dag U_g B (d x d)."""

    swap: int
    spin_parity: int
    basis: np.ndarray
    controls: np.ndarray
    target: np.ndarray


@lru_cache(maxsize=1)
def control_blocks() -> tuple[ControlBlock, ...]:
    """The 7-, 3- and 6-dim blocks, in the order of BLOCK_LABELS. Cached, read-only.

    W = [V+, i V-], with V+- = (e_n +- e_{15-n}) / sqrt 2 the real eigenvectors
    of P = sx sx sx sx, makes every control and the target real. The joint
    swap J = (1 + O1)(1 + O2) / 4 and the spin parity (-1)^S = 1 - 3y/8 + y^2/64
    of y = (sum_i s_i)^2 = 4S(S+1) commute with them and with P, so one real
    eigh of W^dag (J + 2 (-1)^S) W, whose eigenvalue j + 2p names the block,
    gives each block real orthonormal columns.
    """
    ops, eye = control_operators(), np.eye(FULL_DIM)
    flip = eye[::-1]  # P maps basis state n to 15 - n
    half = FULL_DIM // 2
    w = np.sqrt(0.5) * np.hstack([(eye + flip)[:, :half], 1j * (eye - flip)[:, :half]])
    y = total_spin_squared(control_register())
    label = (eye + ops[0]) @ (eye + ops[1]) / 4.0 + 2.0 * (eye - 0.375 * y + y @ y / 64.0)
    lam, r = np.linalg.eigh((w.conj().T @ label @ w).real)
    blocks = []
    for j, p in BLOCK_LABELS:
        b = w @ r[:, np.abs(lam - (j + 2 * p)) < 0.5]
        blocks.append(ControlBlock(j, p, read_only(b), read_only((b.conj().T @ ops @ b).real),
                                   read_only((b.conj().T @ target_gate() @ b).real)))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# Propagation and the exact slice gradient, block by block
# ---------------------------------------------------------------------------

#: Slices per chunk of `_block_propagators`; a power of two, so that every
#: aligned chunk is a whole subtree of the slices' pairwise product tree
_CHUNK = 256

#: Per thread, each hot path's (key, buffers) (module docstring: "Workspace")
_WORKSPACE = threading.local()


def _workspace(path: str, key) -> dict:
    """This thread's buffers of `path`; a new, empty dict when `key` differs from the last."""
    held = getattr(_WORKSPACE, path, None)
    if held is None or held[0] != key:
        held = (key, {})
        setattr(_WORKSPACE, path, held)
    return held[1]


def _buffer(bufs: dict, name: str, shape: tuple, dtype) -> np.ndarray:
    """An uninitialized C-contiguous array of `shape` on bufs[name], a byte buffer that
    grows to the largest request, so that every block can use the same name. The
    views of a buffer are cached by (shape, dtype), and dropped when it grows; it is
    allocated as complex, so that every view is aligned."""
    flat, views = bufs.get(name, (None, {}))
    view = views.get((shape, dtype))
    if view is None:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        if flat is None or flat.size < nbytes:
            flat, views = np.empty(-(-nbytes // 16), complex).view(np.uint8), {}
            bufs[name] = flat, views
        view = views[shape, dtype] = flat[:nbytes].view(dtype).reshape(shape)
    return view


@lru_cache(maxsize=8)
def _slice_sine_basis(n_harmonics: int, t_horizon: float, steps: int) -> np.ndarray:
    """sin(l pi t_s / T) at the slice midpoints t_s, L x S. Cached; the array is read-only."""
    return read_only(_sine_basis(n_harmonics, (np.arange(steps) + 0.5) * (t_horizon / steps),
                                 t_horizon))


def _slice_amplitudes(x: np.ndarray, t_horizon: float, steps: int):
    """dt, sin(l pi t_s / T) (L x S) and alpha_k(t_s) (..., S, K) at the slice midpoints."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    sin_basis = _slice_sine_basis(x.shape[-1], t_horizon, steps)
    return t_horizon / steps, sin_basis, np.swapaxes(x @ sin_basis, -1, -2)


def _block_hamiltonians(alphas: np.ndarray, block: ControlBlock, bufs: dict) -> np.ndarray:
    """The real symmetric slice Hamiltonians sum_k alpha_k(t_s) O_k of one block, in bufs["h"]."""
    d = block.target.shape[0]
    h = _buffer(bufs, "h", (*alphas.shape[:-1], d, d), float)
    np.matmul(alphas, block.controls.reshape(N_CONTROLS, d * d),
              out=h.reshape(*alphas.shape[:-1], d * d))
    return h


def _horner(b: np.ndarray, coeffs: list[float], bufs: dict, names: tuple) -> np.ndarray:
    """sum_k coeffs[k] b^k for a batch b[..., d, d], by Horner's rule, ping-ponging
    between bufs[names[0]] and bufs[names[1]]."""
    eye = np.eye(b.shape[-1])
    p = _buffer(bufs, names[0], b.shape, float)
    if len(coeffs) < 2:
        p[...] = sum(coeffs) * eye
        return p
    np.multiply(coeffs[-1], b, out=p)
    p += coeffs[-2] * eye
    for k, c in enumerate(coeffs[-3::-1], 1):
        p = np.matmul(p, b, out=_buffer(bufs, names[k % 2], b.shape, float))
        p += c * eye
    return p


def _tail_order(x: float, shift: int) -> int:
    """Smallest n >= 0 with x^(n+1) e^x / (n + shift)! < 2^-56, which bounds the
    tail of a series with terms of norm <= x^k / (k + shift - 1)!."""
    order, tail = 0, x * math.exp(x) / math.factorial(shift)
    while tail >= 2.0 ** -56:
        order += 1
        tail *= x / (order + shift)
    return order


def _slice_scale(hs: Iterable[np.ndarray], dt: float) -> tuple[float, int]:
    """(theta, s) for batches h[..., S, d, d] of real symmetric slice Hamiltonians.

    s is the smallest s >= 0 that brings theta, the largest 1-norm of
    A = h dt / 2^s over every batch in `hs`, to at most 1/4. The norms are
    taken _CHUNK slices at a time, in place, so that no temporary spans a batch.
    """
    norms = []
    for h in hs:
        for i in range(0, h.shape[-3], _CHUNK):
            a = h[..., i:i + _CHUNK, :, :] * dt
            norms.append(np.abs(a, out=a).sum(axis=-2).max(initial=0.0))
    theta = float(np.max(norms, initial=0.0))
    if not np.isfinite(theta):
        raise ValueError("slice Hamiltonians must be finite")
    squarings = max(0, math.ceil(math.log2(4.0 * theta))) if theta > 0.0 else 0
    return theta / 2.0 ** squarings, squarings


def _slice_cos_sin(h: np.ndarray, dt: float, theta: float, squarings: int, out: dict,
                   bufs: dict):
    """A = h dt / 2^s, cos A and sin A for a batch h[..., d, d] of real symmetric
    slice Hamiltonians, with (theta, s) from `_slice_scale`. A goes to out["a"],
    cos A, sin A and the temporaries to the scratch slots t0-t4 of `bufs`.

    cos A = sum_k (-1)^k A^2k / (2k)! and sin A = A sum_k (-1)^k A^2k / (2k+1)!
    are Horner sums in A^2, all real matmuls, of degree `_tail_order(theta, 1)`
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2010). A drawn
    start pulse has theta ~ 0.04 at 400 slices (s = 0, degree 8) and ~ 0.007
    at 2000 (degree 6). Each slice's result depends only on its own h and on
    (theta, s), so any run of slices gives the bits of the batch.
    """
    a = np.multiply(h, dt, out=_buffer(out, "a", h.shape, float))
    if squarings:
        a /= 2.0 ** squarings
    degree = _tail_order(theta, 1)
    b = np.matmul(a, a, out=_buffer(bufs, "t0", a.shape, float))
    cos, sin = (_horner(b, [(-1) ** (k // 2) / math.factorial(k)
                            for k in range(odd, degree + 1, 2)], bufs, names)
                for odd, names in ((0, ("t1", "t2")), (1, ("t3", "t4"))))
    return a, cos, np.matmul(a, sin, out=b)  # the sums are done with b


def _slice_powers(h: np.ndarray, dt: float, theta: float, squarings: int, out: dict,
                  bufs: dict):
    """A = h dt / 2^s and E_j = exp(-iA)^(2^j), j = 0..s, for the gradient:
    E_0 = cos A - i sin A (`_slice_cos_sin`), then s complex squarings undo
    the scaling, so E_s = exp(-i h dt). A and the E_j go to `out`, temporaries to `bufs`.
    """
    a, cos, sin = _slice_cos_sin(h, dt, theta, squarings, out, bufs)
    u = _buffer(out, "power0", a.shape, complex)
    u.real, u.imag = cos, sin
    u.imag *= -1.0
    powers = [u]
    for j in range(1, squarings + 1):
        powers.append(np.matmul(powers[-1], powers[-1],
                                out=_buffer(out, f"power{j}", a.shape, complex)))
    return a, powers


def _embedded_slices(h: np.ndarray, dt: float, theta: float, squarings: int,
                     bufs: dict) -> np.ndarray:
    """exp(-i h dt) = X + iY of each slice as its real 2d x 2d form [[X, -Y], [Y, X]]:
    [[cos A, sin A], [-sin A, cos A]] from `_slice_cos_sin`, then s real squarings.
    The map keeps products, so a product of these holds X + iY in its left block column.
    """
    _, cos, sin = _slice_cos_sin(h, dt, theta, squarings, bufs, bufs)
    d = cos.shape[-1]
    shape = (*cos.shape[:-2], 2 * d, 2 * d)
    e = _buffer(bufs, "embedded0", shape, float)
    e[..., :d, :d] = e[..., d:, d:] = cos
    e[..., :d, d:] = sin
    np.negative(sin, out=e[..., d:, :d])
    for j in range(1, squarings + 1):
        e = np.matmul(e, e, out=_buffer(bufs, f"embedded{j % 2}", shape, float))
    return e


def _product_tree(mats: np.ndarray, out: dict) -> list[np.ndarray]:
    """Pairwise product tree of mats[..., s, :, :], later slices on the left.

    levels[j + 1][i] = levels[j][2i + 1] @ levels[j][2i], after an identity is
    appended to a level of odd length, and levels[-1][..., 0, :, :] is the
    ordered product U_{S-1} ... U_0: log2(S) batched matmuls, no slice loop.
    Level j > 0 is out[f"level{j}"], and a padded level j out[f"padded{j}"].
    """
    levels = [mats]
    while levels[-1].shape[-3] > 1:
        m = levels[-1]
        *batch, n, d, _ = m.shape
        if n % 2:
            padded = _buffer(out, f"padded{len(levels) - 1}", (*batch, n + 1, d, d), m.dtype)
            padded[..., :n, :, :], padded[..., n, :, :] = m, np.eye(d)
            m = levels[-1] = padded
        levels.append(np.matmul(m[..., 1::2, :, :], m[..., 0::2, :, :], out=_buffer(
            out, f"level{len(levels)}", (*batch, (n + 1) // 2, d, d), m.dtype)))
    return levels


def _adjoint_sweep(levels: list[np.ndarray], seed: np.ndarray, bufs: dict) -> np.ndarray:
    """M_s = P_s Q_s, P_s = U_{s-1} ... U_0 and Q_s = seed U_{S-1} ... U_{s+1}.

    The down-sweep of the product tree: the root carries the seed, and a node
    U_R U_L carrying M hands M U_R to its earlier child L and U_L M to its
    later child R. Padding slices come last. Level j's M is bufs[f"adjoint{j % 2}"].
    """
    m = np.broadcast_to(seed, levels[-1].shape)
    for j, level in reversed(list(enumerate(levels[:-1]))):
        n = level.shape[-3] // 2
        pairs = level.reshape(*level.shape[:-3], n, 2, *level.shape[-2:])
        m = m[..., :n, :, :]
        new = _buffer(bufs, f"adjoint{j % 2}", pairs.shape, level.dtype)
        np.matmul(m, pairs[..., 1, :, :], out=new[..., 0, :, :])
        np.matmul(pairs[..., 0, :, :], m, out=new[..., 1, :, :])
        m = new.reshape(level.shape)
    return m


def _block_propagators(x: np.ndarray, t_horizon: float, steps: int) -> list[np.ndarray]:
    """U_b(T; x) of each block; x of shape (..., 5, L) propagates a batch of pulses.

    The pulses stream in groups of max(1, _CHUNK // steps), and each pulse's
    slices through aligned chunks of _CHUNK (module docstring), with theta and
    s from a first pass over every group. A lone group builds its h once.
    The trees multiply real embeddings (`_embedded_slices`); U_b = X + iY is
    the root's left block column.
    """
    dt, _, alphas = _slice_amplitudes(x, t_horizon, steps)
    pulses = alphas.reshape(-1, steps, N_CONTROLS)
    group, chunks = max(1, _CHUNK // steps), range(0, steps, _CHUNK)
    bufs = _workspace("propagate", (steps, len(pulses)))
    unitaries = []
    for block in control_blocks():
        d = block.target.shape[0]

        def hamiltonians():  # one matmul per group: a 1-slice chunk rounds differently
            for p in range(0, len(pulses), group):
                yield p, _block_hamiltonians(pulses[p:p + group], block, bufs)

        lone = list(hamiltonians()) if len(pulses) <= group else None
        theta, squarings = _slice_scale((h for _, h in lone or hamiltonians()), dt)
        roots = _buffer(bufs, "roots", (len(pulses), len(chunks), 2 * d, 2 * d), float)
        for p, h in lone or hamiltonians():
            for k, i in enumerate(chunks):
                tree = _product_tree(_embedded_slices(h[:, i:i + _CHUNK], dt, theta, squarings,
                                                      bufs), bufs)
                roots[p:p + group, k] = tree[-1][:, 0]
        root = _product_tree(roots, bufs)[-1][:, 0]
        u = root[:, :d, :d] + 1j * root[:, d:, :d]
        unitaries.append(u.reshape(*x.shape[:-2], d, d))
    return unitaries


def _gate_trace(block_unitaries) -> np.ndarray:
    """f = sum_b Tr(G_b^T U_b) / 16 = Tr(U_g^dag U) / 16."""
    return sum(np.sum(b.target * u, axis=(-2, -1))
               for b, u in zip(control_blocks(), block_unitaries)) / FULL_DIM


def _gate_overlap(block_unitaries) -> np.ndarray:
    """F = |sum_b Tr(G_b^T U_b)|^2 / 256 against the controlled-phase target."""
    return abs(_gate_trace(block_unitaries)) ** 2


def propagate(pulse: PulseParams, steps: int) -> np.ndarray:
    """U(T; x) on the 16-dim register, from the ordered slice products of each block."""
    blocks = _block_propagators(pulse.x, pulse.t_horizon, steps)
    return sum(b.basis @ u @ b.basis.conj().T for b, u in zip(control_blocks(), blocks))


def _commutator(a: np.ndarray, x: np.ndarray, symmetric: bool, bufs: dict,
                name: str) -> np.ndarray:
    """[A, X] for real symmetric A and (anti)symmetric X, where XA = +-(AX)^T, into bufs[name]
    (scratch slot t5 holds AX)."""
    ax = np.matmul(a, x, out=_buffer(bufs, "t5", x.shape, float))
    return (np.subtract if symmetric else np.add)(
        ax, np.swapaxes(ax, -1, -2), out=_buffer(bufs, name, x.shape, float))


def _exp_adjoint(a: np.ndarray, theta: float, powers: list[np.ndarray], m: np.ndarray,
                 bufs: dict):
    """sym Im Z, where d Tr(M exp(-i h dt)) = -i dt Tr(dh Z) (module docstring).

    The halving in the squaring adjoint absorbs the 2^s of dA = dh dt / 2^s.
    ad_A swaps symmetric and antisymmetric, so with N = E_0 M_0
    sym Im Z = sum_j (-1)^j ad_A^2j (sym Im N / (2j+1)! + ad_A(anti Re N) / (2j+2)!),
    a Horner sum in ad_A^2 of K + 1 terms, K = `_tail_order(2 theta, 2)`
    (||ad_A|| <= 2 theta; K = 14 at theta = 1/4). Its real arrays use the scratch slots t0-t5.
    """
    for k, e in enumerate(reversed(powers[:-1])):
        em = np.matmul(e, m, out=_buffer(bufs, f"squaring{k % 2}", m.shape, complex))
        em += np.matmul(m, e, out=_buffer(bufs, "squaring", m.shape, complex))
        m = np.multiply(0.5, em, out=em)
    n = np.matmul(powers[0], m, out=_buffer(bufs, "n", m.shape, complex))
    real = partial(_buffer, bufs, shape=a.shape, dtype=float)
    order = _tail_order(2.0 * theta, 2)
    even = np.add(n.imag, np.swapaxes(n.imag, -1, -2), out=real("t0"))
    np.multiply(0.5, even, out=even)
    anti = np.subtract(n.real, np.swapaxes(n.real, -1, -2), out=real("t4"))
    odd = _commutator(a, np.multiply(0.5, anti, out=anti), False, bufs, "t1")
    z = None
    for j in range(order // 2, -1, -1):
        c = np.divide(even, math.factorial(2 * j + 1), out=real(("t2", "t3")[j % 2]))
        if 2 * j < order:
            c += np.divide(odd, math.factorial(2 * j + 2), out=real("t4"))
        if z is not None:
            c -= _commutator(a, _commutator(a, z, True, bufs, "t4"), False, bufs, "t4")
        z = c
    return z


def fidelity_and_gradient(pulse: PulseParams, steps: int) -> tuple[float, np.ndarray]:
    """F = |Tr(U_g^dag U(T;x))/16|^2 and its exact gradient w.r.t. x.

    The blocks' product trees give f = sum_b Tr(G_b^T U_b) / 16; their
    down-sweeps, seeded with conj(f) G_b^T, give M_s = conj(f) P_s Q_s, and
    `_exp_adjoint` the real symmetric Z_s. Then dF/dx_kl = 2 Re(conj(f) df/dx_kl)
    = (dt / 8) sum_s c_ks sin(l pi t_s / T), c_ks = sum_b Tr(O_k Z_s). Each
    block's A, powers and tree, which the adjoint reads, stay in a dict of their own.
    """
    dt, sin_basis, alphas = _slice_amplitudes(pulse.x, pulse.t_horizon, steps)
    bufs = _workspace("gradient", steps)
    forward = []
    for i, block in enumerate(control_blocks()):
        h = _block_hamiltonians(alphas, block, bufs)
        theta, squarings = _slice_scale([h], dt)
        kept = bufs.setdefault(f"block{i}", {})
        a, powers = _slice_powers(h, dt, theta, squarings, kept, bufs)
        forward.append((a, theta, powers, _product_tree(powers[-1], kept)))
    f = _gate_trace([levels[-1][0] for *_, levels in forward])
    c = 0.0
    for block, (a, theta, powers, levels) in zip(control_blocks(), forward):
        m = _adjoint_sweep(levels, np.conj(f) * block.target.T, bufs)[:steps]
        z = _exp_adjoint(a, theta, powers, m, bufs).reshape(steps, -1)
        c = c + block.controls.reshape(N_CONTROLS, -1) @ z.T
    grad = (dt / 8.0) * c @ sin_basis.T  # K x L
    return float(abs(f) ** 2), grad


def gradient_check(pulse: PulseParams, steps: int = 250, fd_step: float = 1e-6) -> float:
    """Norm-relative error of the analytic gradient vs central finite differences.

    Returns ||grad - fd|| / max(||fd||, 1e-10). Componentwise comparison is
    deliberately avoided: the central difference carries ~1e-10 of rounding
    noise per component, which swamps the relative error wherever the true
    gradient is nearly flat. The shifted pulses x +- fd_step e_kl of all
    coordinates propagate together, as one batch per block and sign.
    """
    if not fd_step > 0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")
    _, grad = fidelity_and_gradient(pulse, steps)
    shifts = fd_step * np.eye(pulse.x.size).reshape(-1, *pulse.x.shape)
    f_plus, f_minus = (
        _gate_overlap(_block_propagators(pulse.x + sign * shifts, pulse.t_horizon, steps))
        for sign in (1.0, -1.0)
    )
    fd = ((f_plus - f_minus) / (2.0 * fd_step)).reshape(pulse.x.shape)
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
) -> OptimizationResult:
    """Quasi-Newton pulse optimization from seeded random starts.

    A given seed reproduces the result bit for bit only on one numpy/BLAS
    build. The landscape has many optima, and rounding differences of
    1e-12 in the start point already move the endpoint (for seed 6 the
    iteration count then ranges over 988-1333). Callers may rely on the
    endpoint meeting `target_eps`, not on which optimum is reached.

    Runs up to `restarts` L-BFGS descents from seeded random coefficient
    draws (uniform(-0.5, 0.5) pi / l per harmonic) on a coarse `steps` grid
    (the slice-exact gradient makes the coarse objective cheap and faithful
    to a few 1e-6). The descent stops as soon as the infidelity reaches
    `target_eps`, so the achieved baseline sits just at the requested
    level instead of overshooting to the optimizer's floor. The best pulse
    is then re-converged on the `polish_steps` grid in at most min(300, max_iter)
    iterations, and the returned infidelity is quoted at that resolution.
    """
    if not (n_harmonics >= 1 and restarts >= 1):
        raise ValueError(f"need n_harmonics >= 1 and restarts >= 1, got {n_harmonics}, {restarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not 0.0 <= target_eps < np.inf:  # 0: run until L-BFGS stops
        raise ValueError(f"target_eps must be finite and >= 0, got {target_eps}")
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)

    def run(x0: np.ndarray, n_steps: int, iters: int):
        state = {"infid": np.inf, "x": x0.ravel().copy(), "grad": x0.ravel() * 0.0, "iters": 0}

        def objective(flat: np.ndarray):
            pulse = PulseParams(flat.reshape(N_CONTROLS, n_harmonics), t_horizon)
            fval, grad = fidelity_and_gradient(pulse, steps=n_steps)
            infid = 1.0 - fval
            if infid < state["infid"]:
                state.update(infid=infid, x=flat.copy(), grad=-grad.ravel())
            if infid <= target_eps:
                raise _TargetReached
            return infid, -grad.ravel()

        def count(_xk: np.ndarray) -> None:
            state["iters"] += 1

        try:
            res = minimize(objective, x0.ravel(), jac=True, method="L-BFGS-B", callback=count,
                           options={"maxiter": iters, "ftol": 1e-16, "gtol": 1e-12})
            return float(res.fun), res.x, float(np.linalg.norm(res.jac)), state["iters"]
        except _TargetReached:
            return state["infid"], state["x"], float(np.linalg.norm(state["grad"])), state["iters"]

    best = (np.inf, None, None)  # (infidelity, x, gradient norm)
    total_iters = used = 0
    for used in range(1, restarts + 1):
        *found, nit = run(_draw_start(rng, n_harmonics), steps, max_iter)
        total_iters += nit
        if found[0] < best[0]:
            best = tuple(found)
        if best[0] <= target_eps:
            break
    if polish_steps and polish_steps != steps:
        *best, nit = run(best[1].reshape(N_CONTROLS, n_harmonics), polish_steps, min(300, max_iter))
        total_iters += nit
    infid, x_flat, grad_norm = best
    return OptimizationResult(x_final=x_flat.reshape(N_CONTROLS, n_harmonics), infidelity=infid,
                              iterations=total_iters, gradient_norm=grad_norm,
                              restarts_used=used, seed=seed)


def robustness_sweep(
    pulse: PulseParams, deviations, steps: int = 2000
) -> list[float]:
    """Infidelity under the globally scaled Hamiltonian (1 - delta) H.

    Scaling H is identical to scaling every coefficient in x, so each point
    is one propagation at (1 - delta) x.
    """
    return [
        1.0 - float(_gate_overlap(_block_propagators((1.0 - d) * pulse.x, pulse.t_horizon, steps)))
        for d in deviations
    ]


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def pulse_csv_text(pulse: PulseParams) -> str:
    """CSV with columns t, alpha_1..alpha_5 at PULSE_SAMPLES uniform times."""
    times = np.linspace(0.0, pulse.t_horizon, PULSE_SAMPLES)
    values = pulse.amplitudes(times)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t"] + [f"alpha_{k + 1}" for k in range(N_CONTROLS)])
    for i, t in enumerate(times):
        writer.writerow([f"{t:.17g}"] + [f"{values[k, i]:.17g}" for k in range(N_CONTROLS)])
    return buf.getvalue()


def result_json_text(result: OptimizationResult, t_horizon: float) -> str:
    """The exported result, as load_result_json reads it back."""
    payload = {
        "x": [[float(v) for v in row] for row in result.x_final],
        "T": float(t_horizon),
        "L": int(result.x_final.shape[1]),
        "infidelity": float(result.infidelity),
        "seed": int(result.seed),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_result_json(path) -> tuple[PulseParams, float, int]:
    """Read back an exported result: (pulse, infidelity, seed); a malformed one is a ValueError."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"result {path} must be a JSON object, got {type(payload).__name__}")
    try:
        pulse = PulseParams(np.array(payload["x"], dtype=float), float(payload["T"]))
        return pulse, float(payload["infidelity"]), int(payload["seed"])
    except KeyError as exc:
        raise ValueError(f"result {path} lacks the field {exc}") from None
    except (TypeError, OverflowError) as exc:  # a null, a list or an infinite seed
        raise ValueError(f"result {path} holds a bad value: {exc}") from None
