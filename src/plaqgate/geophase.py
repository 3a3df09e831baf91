"""Geometric-phase tunneling analysis for a two-band double well.

One link of the array is modeled as a left site with its ground band only
(modes L_a up/down) and a right site with ground and excited bands (R_a,
R_b). Tunneling transfers a left ground-band particle into the *excited*
right band, -t sum_sigma (a^dag_L,sigma b_R,sigma + h.c.); the energy
mismatch of the first such event (initial minus final, so the bias surplus
enters positively) is

    dE1 = c0 (Delta - omega) + c1 U_L^aa + c2 U_R^ab

with exact rational coefficients tabulated per number/spin configuration
(the ledger). The rational rows depend only on the statistics, so they are
built once per statistics; only dE1 and the resonance flag are evaluated at
each bias. A configuration is resonant when dE1 vanishes at the chosen
bias: for bosons at Delta = omega the resonant rows are (n_L, n_R^a, j_R) =
(1, 0, 1/2) and (1, 1, 0); for fermions at Delta = omega + U_R^ab the single
resonant row is (1, 2, 1/2). Resonant tunneling is a two-level Rabi cycle
whose return amplitude carries the geometric phase pi; off-resonant links
pick up only O((t/dE1)^2) corrections.

Conventions adopted here (fixed by the ledger rows):
  * left-site repulsion enters as U_L^aa n(n-1) (a doublon costs 2 U_L^aa),
    right-site intra-band repulsion as (1/2) U n(n-1);
  * the right-site inter-band coupling is U_R^ab (n^a n^b + spin exchange)
    for bosons and U_R^ab (n^a n^b - spin exchange) for fermions, where the
    exchange sum is sum_{s,s'} a^dag_s b^dag_s' b_s a_s';
  * the band-changing pair transfer sum b^dag b^dag a a is dropped
    (energy non-conserving at omega >> U).

Sector dynamics: after the adiabatic tilt that begins the gate, singlet
pairs of one plaquette edge distribute one boson per site while triplet
pairs collapse onto the lower site (the roles swap for fermions, where the
doubly-occupied orbital is the singlet). The resulting occupation of the
two inter-plaquette links per logical sector is encoded in
SECTOR_LINKS; tunneling_phase evolves each link exactly and combines the
return phases.

The return-time search is in-house (`_bounded_minimum`), bit-identical to scipy's
bounded method, so this module runs on numpy alone.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .spincore import read_only

MODE_LABELS = ("L_a_up", "L_a_dn", "R_a_up", "R_a_dn", "R_b_up", "R_b_dn")
L_UP, L_DN, RA_UP, RA_DN, RB_UP, RB_DN = range(6)
ORBITAL_PAIRS = ((L_UP, L_DN), (RA_UP, RA_DN), (RB_UP, RB_DN))
RIGHT_ORBITAL_PAIRS = ((RA_UP, RA_DN), (RB_UP, RB_DN))


#: Points of the |a(t)| scan that brackets a link's return time
SCAN_POINTS = 8000


def check_statistics(statistics: str) -> None:
    if statistics not in ("boson", "fermion"):
        raise ValueError(f"statistics must be 'boson' or 'fermion', got {statistics!r}")


class RWAValidityWarning(UserWarning):
    """omega is not large against U_R^ab; dropping band-changing terms is unsafe."""


@dataclass(frozen=True)
class OnsiteParams:
    """Single-link energies; the bias Delta = mu_L - mu_R is derived."""

    mu_l: float
    mu_r: float
    omega: float
    u_l_aa: float
    u_r_aa: float
    u_r_bb: float
    u_r_ab: float
    t: float

    def __post_init__(self) -> None:
        if self.omega < 10.0 * self.u_r_ab:
            warnings.warn(
                f"omega={self.omega} is not >> U_R_ab={self.u_r_ab}; the "
                "rotating-wave neglect of band-changing terms is unreliable",
                RWAValidityWarning,
                stacklevel=3,
            )

    @property
    def delta(self) -> float:
        return self.mu_l - self.mu_r


def _as_half_integer(value) -> Fraction:
    frac = Fraction(value).limit_denominator(10**9)
    if frac.denominator not in (1, 2):
        raise ValueError(f"spin must be a half-integer, got {value}")
    return frac


def _couples_to(j: Fraction, n_a: int, n_b: int) -> bool:
    """Whether spins n_a/2 and n_b/2 couple to total spin j (the triangle rule)."""
    low, high = Fraction(abs(n_a - n_b), 2), Fraction(n_a + n_b, 2)
    return low <= j <= high and (high - j).denominator == 1


@dataclass(frozen=True)
class NumberConfig:
    """Occupation/spin labels of one link after a single tunneling event.

    n_L counts left-site particles before the event; (n_R_a, n_R_b) the
    right-site bands after it (n_R_b = 1 for every ledger row); j_R the
    total right-site spin of the final state.
    """

    n_l: int
    n_r_a: int
    n_r_b: int
    j_r: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "j_r", _as_half_integer(self.j_r))
        for name, val in (("n_L", self.n_l), ("n_R_a", self.n_r_a), ("n_R_b", self.n_r_b)):
            if not 0 <= val <= 2:
                raise ValueError(f"{name} must be in 0..2, got {val}")
        if not _couples_to(self.j_r, self.n_r_a, self.n_r_b):
            raise ValueError(
                f"j_R={self.j_r} incompatible with (n_R_a, n_R_b)=({self.n_r_a}, {self.n_r_b})"
            )


@dataclass(frozen=True)
class EnergyLedgerEntry:
    config: NumberConfig
    statistics: str
    c0: Fraction
    c1: Fraction
    c2: Fraction
    resonant_at_bias: bool

    def row(self) -> tuple:
        """The entry's cells in LEDGER_FIELDS order; fractions stay exact."""
        return (self.statistics, self.config.n_l, self.config.n_r_a, self.config.j_r,
                self.c0, self.c1, self.c2, self.resonant_at_bias)

    def evaluate(self, params: OnsiteParams) -> float:
        return (
            float(self.c0) * (params.delta - params.omega)
            + float(self.c1) * params.u_l_aa
            + float(self.c2) * params.u_r_ab
        )


# ---------------------------------------------------------------------------
# Rational energy ledger
# ---------------------------------------------------------------------------

def boson_f(n_a: int, n_b: int, j) -> Fraction:
    """f = 2 n_a n_b - s(s+1) + j(j+1) with s = (n_a + n_b)/2.

    The inter-band interaction energy of a bosonic right site is
    U_R^ab f[n_a, n_b, j]; f vanishes whenever one band is empty.
    """
    jf = _as_half_integer(j)
    if not _couples_to(jf, n_a, n_b):
        raise ValueError(f"j={jf} out of range for (n_a, n_b)=({n_a}, {n_b})")
    s = Fraction(n_a + n_b, 2)
    return 2 * n_a * n_b - s * (s + 1) + jf * (jf + 1)


def fermion_eta(n_a: int, n_b: int, j) -> Fraction:
    """eta = 3 - 4j on the (1,1) band configuration (singlet 3, triplet -1), else 0."""
    jf = _as_half_integer(j)
    if n_a == 1 and n_b == 1:
        return Fraction(3) - 4 * jf
    return Fraction(0)


def _validate_for_statistics(config: NumberConfig, statistics: str) -> None:
    check_statistics(statistics)
    if config.n_l < 1:
        raise ValueError("the ledger describes a tunneling event; need n_L >= 1")
    if config.n_r_b != 1:
        raise ValueError("ledger rows have exactly one excited-band particle (n_R_b = 1)")
    if statistics == "fermion" and config.n_r_a == 2 and config.j_r != Fraction(1, 2):
        raise ValueError("a filled fermion band is a spin singlet; (2, 1) forces j_R = 1/2")


def delta_e1(
    config: NumberConfig, params: OnsiteParams, statistics: str
) -> tuple[float, EnergyLedgerEntry]:
    """Energy mismatch of one L-ground -> R-excited tunneling event, plus its ledger row.

    The sign convention is initial minus final: the event is resonant when
    the bias surplus Delta - omega cancels the interaction shift.
    Coefficients are exact rationals (`_ledger_entry`): c0 = 1;
    bosons   c1 = 2(n_L - 1),        c2 = -f[n_R_a, 1, j_R];
    fermions c1 = [n_L = 2],         c2 = -(n_R_a + eta)/2.
    The entry is marked resonant when |dE1| <= 0.1 |t| at `params`.
    """
    return _at_bias(_ledger_entry(config, statistics), params)


def _ledger_entry(config: NumberConfig, statistics: str) -> EnergyLedgerEntry:
    """The ledger row of `config` with the coefficients of `delta_e1`, flagged off resonance."""
    _validate_for_statistics(config, statistics)
    c0 = Fraction(1)
    if statistics == "boson":
        c1 = Fraction(2 * (config.n_l - 1))
        c2 = -boson_f(config.n_r_a, 1, config.j_r)
    else:
        c1 = Fraction(1 if config.n_l == 2 else 0)
        c2 = -Fraction(config.n_r_a + fermion_eta(config.n_r_a, 1, config.j_r), 2)
    return EnergyLedgerEntry(config, statistics, c0, c1, c2, resonant_at_bias=False)


def _at_bias(entry: EnergyLedgerEntry, params: OnsiteParams) -> tuple[float, EnergyLedgerEntry]:
    """dE1 of a ledger row at `params`, and the row flagged by it."""
    value = entry.evaluate(params)
    return value, replace(entry, resonant_at_bias=abs(value) <= 0.1 * abs(params.t))


def table_configs(statistics: str) -> list[NumberConfig]:
    """The ledger row set: every (n_L, n_R_a, j_R) reachable by the protocol.

    Fermions reach the boson rows except j_R = 3/2: a filled fermion band is a singlet.
    """
    check_statistics(statistics)
    half, three_halves = Fraction(1, 2), Fraction(3, 2)
    triples = [(1, 0, half), (1, 1, Fraction(0)), (1, 1, Fraction(1)), (1, 2, half),
               (1, 2, three_halves), (2, 1, Fraction(0)), (2, 1, Fraction(1)), (2, 2, half),
               (2, 2, three_halves)]
    return [NumberConfig(n_l, n_a, 1, j) for n_l, n_a, j in triples
            if statistics == "boson" or j != three_halves]


@lru_cache(maxsize=None)
def _ledger_rows(statistics: str) -> tuple[EnergyLedgerEntry, ...]:
    """The rational ledger rows of one statistics, built once; they do not depend on the bias."""
    return tuple(_ledger_entry(config, statistics) for config in table_configs(statistics))


def resonance_table(params: OnsiteParams, statistics: str) -> list[EnergyLedgerEntry]:
    """All ledger rows with resonance flags at the given bias, in table order.

    The rational rows are built once per statistics; a call only evaluates dE1
    at `params` and sets the flags.
    """
    return [_at_bias(entry, params)[1] for entry in _ledger_rows(statistics)]


#: Columns of a ledger row, in the order of EnergyLedgerEntry.row
LEDGER_FIELDS = ("statistics", "n_L", "n_R_a", "j_R", "c0", "c1", "c2", "resonant")


# ---------------------------------------------------------------------------
# Truncated Fock space
# ---------------------------------------------------------------------------

@dataclass
class TwoBandFockSpace:
    """Occupation basis for the six link modes, capped at 2 (bosons) or 1 (fermions).

    With `total_number=None` the basis spans every occupation pattern up to
    the cap (729 states for bosons, 64 for fermions). With an integer N it
    spans only the patterns with N particles, in the same order: 21/50/90
    states for bosons at N = 2/3/4 and 15/20/15 for fermions. That is all a
    number-conserving Hamiltonian needs, and every operator built on such a
    basis must conserve the particle number. Operators act on all basis
    states at once; bosonic ladder algebra is exact except where a matrix
    element would leave the truncated space (occupation at the cap).
    """

    statistics: str
    total_number: "int | None" = None
    #: (dim, 6) int array of the mode occupations, row i for basis state i,
    #: in ascending order of the mixed-radix key sum_m counts[:, m] (cap+1)^(5-m)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    _radix: np.ndarray = field(init=False, repr=False, compare=False)
    _keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_statistics(self.statistics)
        modes = len(MODE_LABELS)
        counts = np.indices((self.cap + 1,) * modes).reshape(modes, -1).T
        if self.total_number is not None:
            counts = counts[counts.sum(axis=1) == self.total_number]
        self.counts = counts
        self._radix = (self.cap + 1) ** np.arange(modes - 1, -1, -1)
        self._keys = counts @ self._radix

    @property
    def cap(self) -> int:
        return 1 if self.statistics == "fermion" else 2

    @property
    def dim(self) -> int:
        return len(self.counts)

    def occupation(self, *modes: int) -> np.ndarray:
        """Diagonal of the number operator summed over `modes`, as a vector."""
        return self.counts[:, list(modes)].sum(axis=1)

    # -- operator construction ------------------------------------------------

    def apply_string(self, ops) -> np.ndarray:
        """Amplitudes of a normal-ordered operator string (given left-to-right) on every ket.

        ops is a sequence of (mode, kind) with kind +1 for creation, -1 for
        annihilation. Entry i is 0 where the string annihilates basis state i;
        otherwise state i maps to itself shifted by the string's net occupation
        change. A state moves only where a step fires, so occupations stay in 0..cap.
        """
        state = self.counts.copy()
        amp = np.ones(self.dim)
        for mode, kind in reversed(ops):
            n = state[:, mode]
            fires = (n > 0) if kind < 0 else (n < self.cap)
            if self.statistics == "fermion":
                factor = 1 - 2 * (state[:, :mode].sum(axis=1) & 1)
            else:
                factor = np.sqrt(n if kind < 0 else n + 1)
            amp = amp * factor * fires
            state[:, mode] += kind * fires
        return amp

    def operator(self, strings) -> np.ndarray:
        """Dense matrix of sum_i coef_i * string_i on this basis."""
        mat = np.zeros((self.dim, self.dim), dtype=complex)
        for coef, ops in strings:
            amp = self.apply_string(ops)
            cols = np.flatnonzero(amp)
            keys = self._keys[cols] + sum(kind * self._radix[mode] for mode, kind in ops)
            rows = np.searchsorted(self._keys, keys)
            if (self._keys.take(rows, mode="clip") != keys).any():
                raise ValueError(f"operator leaves the {self.total_number}-particle basis")
            mat[rows, cols] += coef * amp[cols]
        return mat

    def spin_z(self, orbital_pairs=ORBITAL_PAIRS) -> np.ndarray:
        """Diagonal of S_z summed over the given orbitals, as a vector."""
        ups, dns = zip(*orbital_pairs)
        return 0.5 * (self.occupation(*ups) - self.occupation(*dns))

    def total_spin_squared(self, orbital_pairs=ORBITAL_PAIRS) -> np.ndarray:
        """S^2 of the spin summed over the given orbitals, spin-1/2 per particle."""
        s_plus = self.operator([(1.0, [(up, +1), (dn, -1)]) for up, dn in orbital_pairs])
        s_z = np.diag(self.spin_z(orbital_pairs)).astype(complex)
        s_x = (s_plus + s_plus.conj().T) / 2.0
        s_y = (s_plus - s_plus.conj().T) / 2.0j
        del s_plus  # one dense matrix fewer alive during the products (peak memory)
        return s_x @ s_x + s_y @ s_y + s_z @ s_z


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def _exchange_strings(sign: float):
    """sum_{s,s'} a^dag_s b^dag_s' b_s a_s' on the right site."""
    spins = ((RA_UP, RB_UP), (RA_DN, RB_DN))
    strings = []
    for a_s, b_s in spins:  # sigma
        for a_sp, b_sp in spins:  # sigma'
            strings.append((sign, [(a_s, +1), (b_sp, +1), (b_s, -1), (a_sp, -1)]))
    return strings


@lru_cache(maxsize=None)
def _fock_setup(statistics: str, total_number: "int | None"):
    """(space, S^2, band exchange, unit hop) of the (statistics, N) space, built once.

    These are the parameter-free parts of every link Hamiltonian and initial
    state. The unit hop is sum_sigma a^dag_L,sigma b_R,sigma, the tunneling term
    without its -t and its h.c. The arrays are read-only, and the shared space
    must not be modified.
    """
    space = TwoBandFockSpace(statistics, total_number=total_number)
    return (space, read_only(space.total_spin_squared()),
            read_only(space.operator(_exchange_strings(+1.0))),
            read_only(space.operator([(1.0, [(L_UP, +1), (RB_UP, -1)]),
                                      (1.0, [(L_DN, +1), (RB_DN, -1)])])))


def onsite_hamiltonian(params: OnsiteParams, space: TwoBandFockSpace) -> np.ndarray:
    """Second-quantized on-site energy of the link (no tunneling term).

    Conserves the total particle number and the total spin; the
    energy-non-conserving pair transfer between bands is excluded.
    """
    # the number terms are diagonal: build them as vectors over the basis
    n_l = space.occupation(L_UP, L_DN)
    n_ra = space.occupation(RA_UP, RA_DN)
    n_rb = space.occupation(RB_UP, RB_DN)
    # float also for integer energies: the terms below are added in place
    diag = (params.mu_l * n_l + params.mu_r * n_ra + (params.mu_r + params.omega) * n_rb
            ).astype(float, copy=False)
    band = np.diag(n_ra * n_rb).astype(complex)
    if space.statistics == "boson":
        diag += params.u_l_aa * (n_l * (n_l - 1.0))
        diag += 0.5 * params.u_r_aa * (n_ra * (n_ra - 1.0))
        diag += 0.5 * params.u_r_bb * (n_rb * (n_rb - 1.0))
        band += _fock_setup(space.statistics, space.total_number)[2]
    else:
        for (up, dn), u in zip(ORBITAL_PAIRS, (params.u_l_aa, params.u_r_aa, params.u_r_bb)):
            diag += u * (space.occupation(up) * space.occupation(dn))
        band -= _fock_setup(space.statistics, space.total_number)[2]
    h = np.diag(diag).astype(complex)
    h += params.u_r_ab * band
    return h


def tunneling_hamiltonian(params: OnsiteParams, space: TwoBandFockSpace) -> np.ndarray:
    """-t sum_sigma (a^dag_L,sigma b_R,sigma + h.c.): left ground <-> right excited.

    Scales the cached unit hop of `_fock_setup`. The `+ 0.0` turns the -0.0 that
    -t * 0 leaves into +0.0, so the matrix is bit for bit the per-call operator build.
    """
    hop = -params.t * _fock_setup(space.statistics, space.total_number)[3] + 0.0
    return hop + hop.conj().T


def schwinger_identity_check(space: TwoBandFockSpace) -> float:
    """Max residual of the two-band spin identity on the truncated space.

    sum_{s,s'} a^dag_s b^dag_s' b_s a_s'
        = n^a n^b + J^2 - ((n^a+n^b)/2)((n^a+n^b)/2 + 1),
    with J the total spin of the two right-site bands. Both sides are
    compared on the states whose right-site occupancy does not exceed the
    mode cap, where no intermediate state of either side is truncated.
    """
    if space.statistics != "boson":
        raise ValueError("the spin-ladder identity applies to the bosonic space")
    lhs = space.operator(_exchange_strings(+1.0))
    n_ra = space.occupation(RA_UP, RA_DN)
    n_rb = space.occupation(RB_UP, RB_DN)
    half = (n_ra + n_rb) / 2.0
    # the number terms are diagonal: add them to the diagonal of J^2
    rhs = space.total_spin_squared(RIGHT_ORBITAL_PAIRS)
    diagonal = np.diag_indices(space.dim)
    rhs[diagonal] += n_ra * n_rb
    rhs[diagonal] -= half * (half + 1.0)
    safe = np.flatnonzero(n_ra + n_rb <= space.cap)
    return float(np.abs((lhs - rhs)[np.ix_(safe, safe)]).max())


# ---------------------------------------------------------------------------
# Link and sector dynamics
# ---------------------------------------------------------------------------

#: Per logical sector: the (n_L, n_R_a) of each inter-plaquette link after
#: the tilt, with the available total-spin channels of the link subsystem.
#: Links with n_L = 0 are inert and omitted. Order: upper link, lower link.
SECTOR_LINKS = {
    "boson": {
        "SS": [(1, 1, (Fraction(0),)), (1, 1, (Fraction(0),))],
        "ST": [(1, 0, (Fraction(1, 2),)), (1, 2, (Fraction(1, 2), Fraction(3, 2)))],
        "TS": [(2, 1, (Fraction(1, 2), Fraction(3, 2)))],
        "TT": [(2, 2, (Fraction(0), Fraction(1), Fraction(2)))],
    },
    "fermion": {
        "SS": [(2, 2, (Fraction(0),))],
        "ST": [(2, 1, (Fraction(1, 2),))],
        "TS": [(1, 0, (Fraction(1, 2),)), (1, 2, (Fraction(1, 2),))],
        "TT": [(1, 1, (Fraction(0), Fraction(1))), (1, 1, (Fraction(0), Fraction(1)))],
    },
}

SECTORS = ("SS", "ST", "TS", "TT")


def _initial_channel_state(
    space: TwoBandFockSpace, n_l: int, n_r_a: int, channel_spin: Fraction
) -> np.ndarray:
    """Highest-weight state with the given occupations and total link spin."""
    pattern = ((space.occupation(L_UP, L_DN) == n_l)
               & (space.occupation(RA_UP, RA_DN) == n_r_a)
               & (space.occupation(RB_UP, RB_DN) == 0))
    if not pattern.any():
        raise ValueError(f"occupations ({n_l}, {n_r_a}) not representable")
    sub = np.flatnonzero(pattern & (np.abs(space.spin_z() - float(channel_spin)) < 1e-9))
    if not len(sub):
        raise ValueError(f"no m = {channel_spin} state for occupations ({n_l}, {n_r_a})")
    block = _fock_setup(space.statistics, space.total_number)[1][np.ix_(sub, sub)]
    evals, evecs = np.linalg.eigh(block)
    target = float(channel_spin * (channel_spin + 1))
    hits = np.flatnonzero(np.abs(evals - target) < 1e-8)
    if len(hits) == 0:
        raise ValueError(
            f"total spin {channel_spin} unavailable for occupations ({n_l}, {n_r_a})"
        )
    psi = np.zeros(space.dim, dtype=complex)
    psi[sub] = evecs[:, hits[0]]
    return psi


@lru_cache(maxsize=None)
def _channel_state(statistics: str, n_l: int, n_r_a: int, channel_spin: Fraction) -> np.ndarray:
    """Read-only `_initial_channel_state` on the shared (n_l + n_r_a)-particle space, built once."""
    space = _fock_setup(statistics, n_l + n_r_a)[0]
    return read_only(_initial_channel_state(space, n_l, n_r_a, channel_spin))


@lru_cache(maxsize=8)
def _link_eigensystem(
    statistics: str, total_number: int, params: OnsiteParams
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (evals, evecs) of the link Hamiltonian on the N-particle basis.

    The Hamiltonian depends on (statistics, N, params) only: not on a channel's
    spin, nor on how the N particles split between the sites. So every spin
    channel, every link and every sector of one N share this solve. Eight
    entries hold one interaction scale (two statistics, N = 1..4).
    """
    space = _fock_setup(statistics, total_number)[0]
    h = onsite_hamiltonian(params, space) + tunneling_hamiltonian(params, space)
    evals, evecs = np.linalg.eigh(h)
    return read_only(evals), read_only(evecs)


def _link_spectrum(
    n_l: int, n_r_a: int, channel_spin, params: OnsiteParams, statistics: str
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of one link and the weights |<k|psi0>|^2 of its initial state.

    The Hamiltonian conserves the particle number, so it lives on the
    (n_l + n_r_a)-particle basis only, and `_link_eigensystem` solves it once per
    (statistics, N, params). The space, its S^2, band exchange and unit hop are
    built once per (statistics, N), and the initial state once per channel; only
    the overlaps are computed here. The eigenvalues are the cached read-only array.
    """
    evals, evecs = _link_eigensystem(statistics, n_l + n_r_a, params)
    psi0 = _channel_state(statistics, n_l, n_r_a, _as_half_integer(channel_spin))
    return evals, np.abs(evecs.conj().T @ psi0) ** 2


def _return_scan(
    evals: np.ndarray, weights: np.ndarray, params: OnsiteParams
) -> tuple[np.ndarray, np.ndarray]:
    """Grid t_k = k t_max / SCAN_POINTS up to t_max = 1.25 pi / |t|, and |a(t_k)|.

    The grid is uniform, so for j = qB + r with B = ceil(sqrt(N)) every factor splits as
    e^{-iE t_j} = e^{-iE qB dt} e^{-iE (t_0 + r dt)}: a coarse table of N/B rows times a
    fine one of B rows, about 2 sqrt(N) K exponentials instead of N K. Energies count
    from sum_k w_k E_k, which leaves |a| unchanged and keeps every phase small, so |a(t_k)|
    is exact to a few ulp (e^{-iE t_k} carries the rounding of E t_k, up to ~10^4 rad).
    """
    t_max = 1.25 * np.pi / abs(params.t)
    ts = np.linspace(t_max / SCAN_POINTS, t_max, SCAN_POINTS)
    block, step = int(np.ceil(np.sqrt(SCAN_POINTS))), (ts[-1] - ts[0]) / (SCAN_POINTS - 1)
    rates = -1j * (evals - weights @ evals)
    coarse = np.exp(np.outer(np.arange(-(-SCAN_POINTS // block)) * (block * step), rates))
    fine = np.exp(np.outer(ts[0] + np.arange(block) * step, rates)) * weights
    return ts, np.abs(coarse @ fine.T).ravel()[:SCAN_POINTS]


def _bounded_minimum(func, lo: float, hi: float, xatol: float) -> float:
    """Brent's bounded minimizer of a scalar `func` on [lo, hi] (Brent 1973, ch. 5; `fminbound`).

    The same steps, in the same order and arithmetic, as scipy 1.17's
    `minimize_scalar(method="bounded")`, including its 500-evaluation cap, so it
    evaluates the same points and returns the same x bit for bit (tested).
    """
    sqrt_eps, golden_mean = np.sqrt(2.2e-16), 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = func(xf)
    num = 1
    while num < 500:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not np.abs(xf - xm) > tol2 - 0.5 * (b - a):
            break
        golden = True
        if np.abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r, e = e, rat
            if np.abs(p) < np.abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:  # keep tol1 off the bounds
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return xf


def link_tunneling_phase(
    n_l: int,
    n_r_a: int,
    channel_spin,
    params: OnsiteParams,
    statistics: str,
) -> tuple[float, float, float]:
    """Exact return dynamics of one link: (return_time, phase, leakage).

    The initial state has n_l particles on the left, n_r_a in the right
    ground band, total spin `channel_spin`. The return amplitude
    a(t) = <psi0|exp(-iHt)|psi0> is gauged by exp(+i E0 t), E0 = <psi0|H|psi0>,
    so a resonant two-level cycle returns with phase exactly pi while
    off-resonant links acquire only O((t/dE1)^2) phase. return_time is the
    first local maximum of |a| after its first local minimum, refined by a
    bounded Brent search; leakage is 1 - |a(return_time)|^2 and is bounded
    by C (t/dE1)^2 with C = 4 n_L (bosonic enhancement included).
    The factored scan only picks the bracket [t_{k-1}, t_{k+1}]; the search and the
    figures use the exact `amplitude`, so they equal those of a direct e^{-iE t_k} scan
    bit for bit whenever both pick the same k (tested for every `SECTOR_LINKS` link).
    """
    if n_l < 1:
        return 0.0, 0.0, 0.0
    evals, weights = _link_spectrum(n_l, n_r_a, channel_spin, params, statistics)
    e0 = float(weights @ evals)

    def amplitude(t: float) -> complex:
        return np.exp(1j * e0 * t) * np.sum(weights * np.exp(-1j * evals * t))

    # the bracketing scan skips eigencomponents that psi0 does not overlap
    # (weights below 1e-20 are rounding residue from other spin sectors)
    kept = weights >= 1e-20
    ts, mags = _return_scan(evals[kept], weights[kept], params)
    # first local minimum, then the next local maximum (else the end of the grid)
    inner, last = mags[1:-1], len(ts) - 1
    minima = np.flatnonzero((inner <= mags[:-2]) & (inner <= mags[2:])) + 1
    if len(minima) == 0:
        return 0.0, 0.0, 0.0
    maxima = np.flatnonzero((inner >= mags[:-2]) & (inner >= mags[2:])) + 1
    k = next((i for i in maxima if i > minima[0] + 1), last)
    t_ret = float(_bounded_minimum(lambda t: -abs(amplitude(t)), ts[k - 1], ts[min(k + 1, last)],
                                   ts[-1] * 1e-12))
    a_ret = amplitude(t_ret)
    phase = float(np.angle(a_ret))
    leakage = float(max(0.0, 1.0 - abs(a_ret) ** 2))
    return t_ret, phase, leakage


def tunneling_phase(
    sector: str, params: OnsiteParams, statistics: str
) -> tuple[float, float, float]:
    """Combined return figures of both links of a logical sector.

    Each active link is evolved exactly, taking the worst case over its
    spin channels; phases add, return_time is the slowest link, and the
    combined leakage treats the links as independent amplitudes.

    The sign of the returned phase is set by rounding in two places, so
    only |phase| is meaningful. A resonant link's phase pi sits on the
    +-pi branch cut of `np.angle`. Where two spin channels give equal and
    opposite phases (fermion TT: +-0.0039196430157 at `geophase-dynamics
    --u 40`, magnitudes 3e-14 apart), the tie-break below keeps whichever
    magnitude rounds larger.
    """
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}, got {sector!r}")
    check_statistics(statistics)
    links = SECTOR_LINKS[statistics][sector]
    total_phase = 0.0
    t_ret = 0.0
    survival = 1.0
    solved = {}  # equal links (boson SS, fermion TT) are solved once
    for link in links:
        if link not in solved:
            n_l, n_r_a, channels = link
            outs = [link_tunneling_phase(n_l, n_r_a, j, params, statistics) for j in channels]
            # of the channels with the largest |phase|, the last one
            solved[link] = max(reversed(outs), key=lambda out: abs(out[1]))
        worst = solved[link]
        t_ret = max(t_ret, worst[0])
        total_phase += worst[1]
        survival *= 1.0 - worst[2]
    return t_ret, total_phase, 1.0 - survival
