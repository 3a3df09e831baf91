"""Dense operator algebra for small registers of spin-1/2 sites.

Conventions used throughout the package:
    * Pauli convention for the spin vectors (no factor 1/2); a two-site
      singlet is an eigenstate of the exchange dot product with eigenvalue -3.
    * hbar = 1; energies and inverse times share units.
    * The first site label of a register is the least-significant bit of the
      amplitude index, so serialized states are portable between tools.
All operators are dense (max dimension 256 = 8 sites); `pauli_site` kron-embeds
a Pauli matrix. Exchange comes from the basis-state bits by Dirac's identity
s_i.s_j = 2 SWAP_ij - 1, and S^2 = 3N + 2 sum_{i<j} s_i.s_j: `_exchange` and
`_spin_squared` are real on any ascending set of states that the swaps preserve
(all states, or a fixed-Sz block); `pauli_dot` and `total_spin_squared` are
their complex casts on all states. They equal the kron-built Pauli sums, except
that the kron form's -0.0 entries come out as +0.0. exp(-iHt) goes through a
Hermitian eigendecomposition. Cached operators are read-only; copy one to write.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

_PAULI_BY_AXIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class SpinRegister:
    """An ordered collection of named spin-1/2 sites.

    The label order fixes the tensor-product layout: ``site_labels[0]`` is the
    least-significant qubit of the state index.
    """

    site_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (1 <= len(self.site_labels) <= 8):
            raise ValueError(f"register supports 1-8 sites, got {len(self.site_labels)}")
        if len(set(self.site_labels)) != len(self.site_labels):
            raise ValueError(f"duplicate site labels: {self.site_labels}")

    @property
    def site_count(self) -> int:
        return len(self.site_labels)

    @property
    def dim(self) -> int:
        return 2 ** self.site_count

    def index(self, site: str) -> int:
        try:
            return self.site_labels.index(site)
        except ValueError:
            raise KeyError(f"unknown site label {site!r}; register has {self.site_labels}") from None


def plaquette_register() -> SpinRegister:
    """The standard 4-site plaquette register, sites labeled "1".."4"."""
    return SpinRegister(("1", "2", "3", "4"))


def superplaquette_register() -> SpinRegister:
    """Two coupled plaquettes: left sites "1".."4", right sites "1'".."4'"."""
    return SpinRegister(("1", "2", "3", "4", "1'", "2'", "3'", "4'"))


@dataclass
class Spectrum:
    """Eigendecomposition of a Hermitian operator (ascending eigenvalues)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def assert_hermitian(op: np.ndarray) -> None:
    dev = np.abs(op - op.conj().T).max()
    if dev > HERMITIAN_TOL:
        raise ValueError(f"operator is not Hermitian (max |A - A^dag| = {dev:.3e})")


def pauli_site(reg: SpinRegister, site: str, axis: str) -> np.ndarray:
    """Pauli matrix on one site, identity elsewhere.

    Args:
        reg: the register.
        site: site label.
        axis: one of "x", "y", "z".
    """
    if axis not in _PAULI_BY_AXIS:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    op2, position = _PAULI_BY_AXIS[axis], reg.index(site)
    out = np.array([[1.0 + 0.0j]])
    for k in range(reg.site_count):
        out = np.kron(op2 if k == position else IDENTITY_2, out)
    return out


def pauli_vector(reg: SpinRegister, site: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three Pauli components on one site."""
    return tuple(pauli_site(reg, site, ax) for ax in ("x", "y", "z"))


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark `arr` read-only in place and return it (for cached results)."""
    arr.setflags(write=False)
    return arr


def _exchange(reg: SpinRegister, i: str, j: str, states: np.ndarray) -> np.ndarray:
    """s_i . s_j = 2 SWAP_ij - 1, real, on ascending `states` that SWAP_ij maps onto itself."""
    a, b = reg.index(i), reg.index(j)
    differ = ((states >> a) ^ (states >> b)) & 1
    swapped = states ^ (differ * ((1 << a) | (1 << b)))
    op = -np.eye(len(states))
    op[np.searchsorted(states, swapped), np.arange(len(states))] += 2.0
    return op


def _spin_squared(reg: SpinRegister, states: np.ndarray) -> np.ndarray:
    """(sum_i s_i)^2 = 3N + 2 sum_{i<j} s_i . s_j on the ascending basis `states`, real."""
    pairs = itertools.combinations(reg.site_labels, 2)
    return 3.0 * reg.site_count * np.eye(len(states)) + 2.0 * sum(
        _exchange(reg, i, j, states) for i, j in pairs
    )


@lru_cache(maxsize=128)
def pauli_dot(reg: SpinRegister, i: str, j: str) -> np.ndarray:
    """Exchange dot product s_i . s_j (eigenvalues -3 on singlets, +1 on triplets).

    Cached per (register, i, j); the returned array is read-only.
    """
    if i == j:
        raise ValueError(f"pauli_dot needs two distinct sites, got {i!r} twice")
    return read_only(_exchange(reg, i, j, np.arange(reg.dim)).astype(complex))


@lru_cache(maxsize=16)
def total_spin_squared(reg: SpinRegister) -> np.ndarray:
    """(Sum_i s_i)^2; eigenvalue 4S(S+1) on a total-spin-S multiplet.

    Cached per register; the returned array is read-only.
    """
    return read_only(_spin_squared(reg, np.arange(reg.dim)).astype(complex))


def eig_hermitian(op: np.ndarray) -> Spectrum:
    """Diagonalize a Hermitian operator.

    Returns:
        Spectrum with ascending eigenvalues and a unitary eigenvector matrix
        satisfying A V = V diag(lam) to 1e-10.
    """
    assert_hermitian(op)
    w, v = np.linalg.eigh(op)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def unitary_evolve(hamiltonian: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) via eigendecomposition of the Hermitian H."""
    spec = eig_hermitian(hamiltonian)
    phases = np.exp(-1j * spec.eigenvalues * t)
    return (spec.eigenvectors * phases) @ spec.eigenvectors.conj().T

