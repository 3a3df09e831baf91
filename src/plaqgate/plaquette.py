"""The 2x2-plaquette logical qubit.

Four spin-1/2 sites at the corners of a square, labeled clockwise
"1","2","3","4" with ("1","2") and ("3","4") the horizontal edges. The
two-dimensional total-spin-zero subspace encodes one logical qubit:

    |psi_H> = |S>_{1,2} |S>_{3,4}        |psi_V> = |S>_{2,3} |S>_{4,1}
    |0> = |psi_V>                        |1> = (2/sqrt3)(|psi_H> - |psi_V>/2)

The sign of |1> is fixed so that the horizontal-exchange generator restricts
to a Bloch rotation about AXIS_H = (sqrt3/2, 0, -1/2); with the opposite sign
every axis below would pick up a mirrored x-component. Restrictions of the
exchange couplings to the logical basis carry an identity offset alongside
the rotation generator:

    (1/2) - (1/4)(s1.s2 + s3.s4)  ->  1 + AXIS_H . sigma
    -J_H (s1.s2 + s3.s4) - J_V (s2.s3 + s4.s1)
                                  ->  2(J_H+J_V) 1 + 4(J_H AXIS_H + J_V AXIS_V) . sigma

so a pulse of duration theta/(4 J) rotates the Bloch vector by 2*theta about
the corresponding axis (the offsets only contribute global phase).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geophase import L_DN, L_UP, RA_DN, RA_UP, RB_DN, RB_UP, TwoBandFockSpace, check_statistics
from .spincore import (
    SpinRegister,
    eig_hermitian,
    pauli_dot,
    plaquette_register,
    read_only,
    total_spin_squared,
    unitary_evolve,
)


@dataclass(frozen=True)
class BlochAxis:
    """A unit 3-vector on the logical Bloch sphere."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if abs(np.linalg.norm(self.as_array()) - 1.0) > 1e-12:
            raise ValueError(f"axis must be a unit vector, got {(self.x, self.y, self.z)}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def dot(self, other: "BlochAxis") -> float:
        return float(self.as_array() @ other.as_array())


#: Rotation axis driven by the horizontal exchange couplings (1,2)+(3,4).
AXIS_H = BlochAxis(np.sqrt(3.0) / 2.0, 0.0, -0.5)
#: Rotation axis driven by the vertical exchange couplings (2,3)+(4,1).
AXIS_V = BlochAxis(0.0, 0.0, 1.0)
#: Combined axis used by the one-step |+> preparation.
AXIS_C = BlochAxis(1.0 / np.sqrt(2.0), 0.0, 1.0 / np.sqrt(2.0))

#: Mixing weights a*AXIS_H + b*AXIS_V = AXIS_C (exact).
AXIS_C_WEIGHT_H = np.sqrt(2.0) / np.sqrt(3.0)
AXIS_C_WEIGHT_V = 1.0 / np.sqrt(2.0) + 1.0 / np.sqrt(6.0)

#: Pulse angles for the two-step |+> preparation (full closed forms).
THETA_H = np.arcsin(np.sqrt(2.0) / np.sqrt(3.0))
THETA_V = (np.pi - np.arcsin(np.sqrt(2.0) / np.sqrt(3.0))) / 2.0


@dataclass(frozen=True)
class PlaquetteCouplings:
    """Signed exchange couplings on the six site pairs of one plaquette."""

    j12: float = 0.0
    j23: float = 0.0
    j34: float = 0.0
    j41: float = 0.0
    j13: float = 0.0
    j24: float = 0.0

    def __post_init__(self) -> None:
        for i, j, c in self.pairs():
            if not np.isfinite(c):
                raise ValueError(f"coupling j{i}{j} must be finite")

    @classmethod
    def rect(cls, j_h: float, j_v: float) -> "PlaquetteCouplings":
        """Rectangular-lattice convention: H = -J_H (edges 12,34) - J_V (edges 23,41)."""
        return cls(j12=-j_h, j34=-j_h, j23=-j_v, j41=-j_v)

    @classmethod
    def diag(cls, j: float, d: float) -> "PlaquetteCouplings":
        """Edge-plus-diagonal convention: H = J*(all four edges) + d*(both diagonals)."""
        return cls(j12=j, j23=j, j34=j, j41=j, j13=d, j24=d)

    def pairs(self) -> list[tuple[str, str, float]]:
        """(i, j, J_ij) over the edges 12, 23, 34, 41, then the diagonals 13, 24."""
        return [(i, j, getattr(self, f"j{i}{j}")) for i, j in ("12", "23", "34", "41", "13", "24")]


@dataclass(frozen=True)
class PlaquetteBasis:
    """The six named singlet-subspace vectors and the logical projector (read-only)."""

    psi_H: np.ndarray
    psi_V: np.ndarray
    ket0: np.ndarray
    ket1: np.ndarray
    ket_box: np.ndarray
    ket_cross: np.ndarray
    logical_projector: np.ndarray


def singlet_pair(reg: SpinRegister, i: str, j: str, rest_pair: tuple[str, str]) -> np.ndarray:
    """Product of a singlet on (i, j) with a singlet on `rest_pair`, the other two sites.

    The order of each pair fixes the sign: a singlet is antisymmetric under
    swapping its two sites.
    """
    if reg.site_count != 4:
        raise ValueError("singlet_pair expects a 4-site register")
    k, l = rest_pair
    if {i, j, k, l} != set(reg.site_labels):
        raise ValueError(f"pairs ({i},{j}) and ({k},{l}) must partition the register")

    # bit 0 is up: (|up_i dn_j> - |dn_i up_j>)/sqrt2 has amplitude (b_j - b_i)/sqrt2
    bit = {s: (np.arange(reg.dim) >> reg.index(s)) & 1 for s in (i, j, k, l)}
    return (0.5 * (bit[j] - bit[i]) * (bit[l] - bit[k])).astype(complex)


@lru_cache(maxsize=1)
def logical_basis() -> PlaquetteBasis:
    """The singlet-subspace basis on the standard plaquette register, built once.

    The basis is cached and its arrays are read-only; copy one to write.
    """
    reg = plaquette_register()
    psi_h = singlet_pair(reg, "1", "2", rest_pair=("3", "4"))
    psi_v = singlet_pair(reg, "2", "3", rest_pair=("4", "1"))
    ket0 = psi_v.copy()
    ket1 = (2.0 / np.sqrt(3.0)) * (psi_h - 0.5 * psi_v)
    ket_box = (psi_h + psi_v) / np.sqrt(3.0)
    ket_cross = psi_h - psi_v
    proj = np.outer(ket0, ket0.conj()) + np.outer(ket1, ket1.conj())
    return PlaquetteBasis(*(read_only(a) for a in (psi_h, psi_v, ket0, ket1, ket_box,
                                                    ket_cross, proj)))


def heisenberg_plaquette(couplings: PlaquetteCouplings) -> np.ndarray:
    """H = sum_{pairs} c_ij s_i . s_j on the 16-dim plaquette space."""
    reg = plaquette_register()
    h = np.zeros((reg.dim, reg.dim), dtype=complex)
    for i, j, c in couplings.pairs():
        if c != 0.0:
            h += c * pauli_dot(reg, i, j)
    return h


@dataclass
class PlaquetteSpectrum:
    """Total-spin-resolved spectrum of the edge-plus-diagonal plaquette.

    `singlets`, `triplets`, `quintet` are quoted relative to the mean exchange
    energy (a constant offset of 4J + 2d above the bare eigenvalues of
    heisenberg_plaquette, matching the closed forms -/+4(J-d); 4J, 4J, 4d;
    4(2J+d)). Degeneracies: each singlet once, each triplet level three-fold,
    the quintet five-fold (16 states total).
    """

    singlets: np.ndarray  # 2 values, ascending
    triplets: np.ndarray  # 3 multiplet values, ascending
    quintet: float
    offset: float  # quoted = bare + offset


def plaquette_spectrum(j: float, d: float) -> PlaquetteSpectrum:
    """Diagonalize heisenberg_plaquette(diag(j, d)) and group by total spin."""
    h = heisenberg_plaquette(PlaquetteCouplings.diag(j, d))
    s2 = total_spin_squared(plaquette_register())
    spec = eig_hermitian(h)
    v = spec.eigenvectors
    s2vals = np.einsum("ik,ij,jk->k", v.conj(), s2, v).real  # 4S(S+1)
    spins = np.rint((np.sqrt(1.0 + s2vals) - 1.0) / 2.0)
    offset = 4.0 * j + 2.0 * d
    levels = spec.eigenvalues + offset
    singlets, triplet_states, quintets = (levels[spins == s] for s in (0, 1, 2))
    if len(singlets) != 2 or len(triplet_states) != 9 or len(quintets) != 5:
        raise RuntimeError(
            f"unexpected multiplet structure: {len(singlets)} singlets, "
            f"{len(triplet_states)} triplet states, {len(quintets)} quintet states"
        )
    return PlaquetteSpectrum(
        singlets=np.sort(singlets),
        # each S=1 multiplet appears three times among the states
        triplets=np.sort(triplet_states)[::3],
        quintet=float(np.mean(quintets)),
        offset=offset,
    )


def _rotation_pulse(j_h: float, j_v: float, theta: float) -> np.ndarray:
    """Unitary of the physical exchange pulse rotating by 2*theta.

    The generator -j_h(s1.s2+s3.s4) - j_v(s2.s3+s4.s1) restricts to
    2(j_h+j_v) + 4(j_h AXIS_H + j_v AXIS_V).sigma, so duration theta/4 at
    unit total coupling gives the rotation angle parameter theta.
    """
    h = heisenberg_plaquette(PlaquetteCouplings.rect(j_h, j_v))
    return unitary_evolve(h, theta / 4.0)


def prepare_plus(mode: str = "two_step", angle_scale: float = 1.0) -> np.ndarray:
    """Prepare |+> = (|0> + |1>)/sqrt2 from |0> with physical exchange pulses.

    Args:
        mode: "two_step" (rotation about AXIS_H then AXIS_V) or "one_step"
            (single rotation about the combined axis AXIS_C by pi/2).
        angle_scale: multiplies all pulse angles; 0 returns |0> unchanged.

    Returns:
        The final 16-dim state. Leakage out of the singlet subspace is zero
        because exchange pulses commute with the total spin.
    """
    basis = logical_basis()
    psi = basis.ket0.copy()
    if mode == "two_step":
        psi = _rotation_pulse(1.0, 0.0, angle_scale * THETA_H) @ psi
        psi = _rotation_pulse(0.0, 1.0, angle_scale * THETA_V) @ psi
    elif mode == "one_step":
        psi = _rotation_pulse(AXIS_C_WEIGHT_H, AXIS_C_WEIGHT_V, angle_scale * np.pi / 2.0) @ psi
    else:
        raise ValueError(f"mode must be 'two_step' or 'one_step', got {mode!r}")
    return psi


def rotation_step_bound(axis1: BlochAxis, axis2: BlochAxis) -> int:
    """Worst-case pulse count for arbitrary Bloch rotations from two fixed axes.

    With eta the angle between the axes and m = min(eta, pi - eta), the bound
    is k + 2 where k is the unique integer with pi/k > m >= pi/(k+1).
    """
    cos_eta = np.clip(axis1.dot(axis2), -1.0, 1.0)
    eta = float(np.arccos(cos_eta))
    m = min(eta, np.pi - eta)
    # arccos near +-1 resolves no better than ~1e-8, so treat anything below
    # a microradian as collinear rather than returning a huge pulse count
    if m < 1e-6:
        raise ValueError("axes are collinear; two distinct axes are required")
    # k = ceil(pi/m) - 1, with care at exact divisors (m = pi/q belongs to k = q-1)
    ratio = np.pi / m
    k = int(np.ceil(ratio - 1e-12)) - 1
    return k + 2


# ---------------------------------------------------------------------------
# Two-site Hubbard oracle for the superexchange scale J = t^2/U
# ---------------------------------------------------------------------------

@lru_cache(maxsize=2)
def _two_site_setup(statistics: str):
    """Read-only (n0, n1, hop at t = -1, S^2) of the two-site model; -t * hop is the hop at t."""
    space = TwoBandFockSpace(statistics, total_number=2)
    keep = np.flatnonzero(space.occupation(RB_UP, RB_DN) == 0)
    hop = space.operator([(1.0, [(L_UP, +1), (RA_UP, -1)]), (1.0, [(L_DN, +1), (RA_DN, -1)])])
    s2 = space.total_spin_squared(((L_UP, L_DN), (RA_UP, RA_DN)))
    return tuple(read_only(a) for a in (space.occupation(L_UP, L_DN)[keep],
                 space.occupation(RA_UP, RA_DN)[keep], hop[np.ix_(keep, keep)].real,
                 s2[np.ix_(keep, keep)]))


def _two_site_hubbard(t: float, u: float, statistics: str) -> tuple[float, float]:
    """Ground singlet and triplet energies of the two-site, two-particle model.

    The two sites are the L_a and R_a orbitals of the two-particle link
    space; the states with R_b empty span the model. The on-site energy
    (U/2) n(n-1) counts doubly occupied orbitals for fermions too.
    """
    n0, n1, unit_hop, s2 = _two_site_setup(statistics)
    onsite = 0.5 * u * (n0 * (n0 - 1) + n1 * (n1 - 1))
    hop = -t * unit_hop
    h = np.diag(onsite) + hop + hop.T

    w, v = np.linalg.eigh(h)
    s2vals = np.einsum("ik,ij,jk->k", v, s2, v).real
    return float(w[s2vals < 1.0].min()), float(w[s2vals >= 1.0].min())


def superexchange_hubbard_check(t: float, u: float, statistics: str) -> tuple[float, float]:
    """Exact two-site singlet-triplet gap against the superexchange value 4t^2/U.

    For fermions the singlet lies below the triplet; for bosons the ordering
    flips. The returned gap is positive in both cases and approaches 4t^2/U
    with a relative error of order (t/U)^2. The sign of t is a gauge choice
    (R_a -> -R_a), so the check runs at |t| and t, -t give the same result.

    Returns:
        (exact_gap, 4t^2/U)

    Raises:
        ValueError: unless 0 < |t|/U <= 0.1 (at t = 0 there is no gap to compare).
    """
    check_statistics(statistics)
    if u <= 0:
        raise ValueError("U must be positive")
    if not 0 < abs(t) / u <= 0.1:
        raise ValueError(f"t/U = {t / u:.3g} is outside the superexchange regime 0 < |t/U| <= 0.1")
    e_singlet, e_triplet = _two_site_hubbard(abs(t), u, statistics)
    gap = (e_triplet - e_singlet) if statistics == "fermion" else (e_singlet - e_triplet)
    return float(gap), 4.0 * t * t / u
