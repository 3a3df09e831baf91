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

The module owns the truncated two-band Fock space and every model on it: the link
Hamiltonians, the Schwinger spin identity (`fixed_number_schwinger_check`, over the fixed
particle numbers) and the two-site Hubbard model behind the plaquette's superexchange
J ~ t^2/U (`superexchange_hubbard_check`). Every operator is real. One route serves every
link figure: `_link_pass`, cached per (statistics, params), solves each S_z block once by a
real `eigh`, and `link_tunneling_phase` and `tunneling_phase` read it.
A return time is the root of d|a|^2/dt (`_slope_root`, safeguarded Newton on numpy alone),
and a phase lies in (-pi/2, 3pi/2], where pi is interior.
"""
from __future__ import annotations

import itertools
import math
import warnings
from contextlib import suppress
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property, lru_cache

import numpy as np

from .spincore import read_only

MODE_LABELS = ("L_a_up", "L_a_dn", "R_a_up", "R_a_dn", "R_b_up", "R_b_dn")
L_UP, L_DN, RA_UP, RA_DN, RB_UP, RB_DN = range(6)
ORBITAL_PAIRS = ((L_UP, L_DN), (RA_UP, RA_DN), (RB_UP, RB_DN))
RIGHT_ORBITAL_PAIRS = ((RA_UP, RA_DN), (RB_UP, RB_DN))
STATISTICS = ("boson", "fermion")
MODE_CAP = {"boson": 2, "fermion": 1}
#: U_L^aa / U_R^ab of the CLI's links unless given, off accidental zeros of dE1
LEFT_REPULSION_RATIO = 1.546
#: Points of the |a(t)| scan that brackets a link's return time
SCAN_POINTS = 8000


def check_statistics(statistics: str) -> None:
    if statistics not in STATISTICS:
        raise ValueError(f"statistics must be one of {STATISTICS}, got {statistics!r}")


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
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError(f"link energies must be finite, got {self}")
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


def link_params(statistics: str, u_l_aa: float, u_r_ab: float,
                bias_surplus: "float | None" = None) -> OnsiteParams:
    """The CLI's links: omega = max(20 U_R^ab, 1), t = 1, mu_R = 0, U_R^aa = U_R^bb = U_R^ab.

    Delta - omega = bias_surplus, by default resonant: 0 for bosons, U_R^ab for fermions.
    The links are repulsive: U_L^aa and U_R^ab must be positive.
    """
    if u_l_aa <= 0 or u_r_ab <= 0:  # NaN fails in OnsiteParams, as a non-finite energy
        raise ValueError(f"link repulsions must be positive, got U_L^aa = {u_l_aa}, "
                         f"U_R^ab = {u_r_ab}")
    if bias_surplus is None:
        bias_surplus = 0.0 if statistics == "boson" else u_r_ab
    omega = max(20.0 * u_r_ab, 1.0)
    return OnsiteParams(mu_l=omega + bias_surplus, mu_r=0.0, omega=omega, u_l_aa=u_l_aa,
                        u_r_aa=u_r_ab, u_r_bb=u_r_ab, u_r_ab=u_r_ab, t=1.0)


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
    check_statistics(statistics)
    if config.n_l < 1:
        raise ValueError("the ledger describes a tunneling event; need n_L >= 1")
    if config.n_r_b != 1:
        raise ValueError("ledger rows have exactly one excited-band particle (n_R_b = 1)")
    if statistics == "fermion" and config.n_r_a == 2 and config.j_r != Fraction(1, 2):
        raise ValueError("a filled fermion band is a spin singlet; (2, 1) forces j_R = 1/2")
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

    Every operator is real. The parameter-free link operators `spin_squared`,
    `band_exchange` and `unit_hop`, and the S_z block indices `spin_z_blocks`, are
    read-only attributes, each built on its first read.
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
        self.counts = read_only(counts)
        self._radix = read_only((self.cap + 1) ** np.arange(modes - 1, -1, -1))
        self._keys = read_only(counts @ self._radix)

    @property
    def cap(self) -> int:
        return MODE_CAP[self.statistics]

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
        """Dense real matrix of sum_i coef_i * string_i on this basis (real coefficients)."""
        mat = np.zeros((self.dim, self.dim))
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
        """S^2 = (S+ S- + S- S+)/2 + S_z^2 of the spin summed over the given orbitals.

        Spin-1/2 per particle. S+ is real, so S- = S+^T and S^2 is real.
        """
        s_plus = self.operator([(1.0, [(up, +1), (dn, -1)]) for up, dn in orbital_pairs])
        s_squared = (s_plus @ s_plus.T + s_plus.T @ s_plus) / 2.0
        s_squared[np.diag_indices(self.dim)] += self.spin_z(orbital_pairs) ** 2
        return s_squared

    @cached_property
    def spin_squared(self) -> np.ndarray:
        """Read-only S^2 of the total link spin."""
        return read_only(self.total_spin_squared())

    @cached_property
    def spin_z_blocks(self) -> dict:
        """Read-only ascending basis indices of each S_z block, keyed by the integer 2 S_z."""
        two_m = (2 * self.spin_z()).astype(int)
        return {int(m): read_only(np.flatnonzero(two_m == m)) for m in np.unique(two_m)}

    @cached_property
    def band_exchange(self) -> np.ndarray:
        """Read-only right-site exchange sum_{s,s'} a^dag_s b^dag_s' b_s a_s'."""
        return read_only(self.operator(_exchange_strings()))

    @cached_property
    def unit_hop(self) -> np.ndarray:
        """Read-only sum_sigma a^dag_L,sigma b_R,sigma: the tunneling term without -t and h.c."""
        return read_only(self.operator([(1.0, [(L_UP, +1), (RB_UP, -1)]),
                                        (1.0, [(L_DN, +1), (RB_DN, -1)])]))


# ---------------------------------------------------------------------------
# Hamiltonians, the spin identity and the two-site superexchange model (J ~ t^2/U)
# ---------------------------------------------------------------------------

def _exchange_strings():
    """sum_{s,s'} a^dag_s b^dag_s' b_s a_s' on the right site."""
    spins = ((RA_UP, RB_UP), (RA_DN, RB_DN))
    return [(1.0, [(a_s, +1), (b_sp, +1), (b_s, -1), (a_sp, -1)])
            for a_s, b_s in spins for a_sp, b_sp in spins]  # sigma, then sigma'


#: _link_space(statistics, N): the shared space of the link solves, built once
_link_space = cache(TwoBandFockSpace)


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
    if space.statistics == "boson":
        diag += params.u_l_aa * (n_l * (n_l - 1.0))
        diag += 0.5 * params.u_r_aa * (n_ra * (n_ra - 1.0))
        diag += 0.5 * params.u_r_bb * (n_rb * (n_rb - 1.0))
        exchange = space.band_exchange
    else:
        for (up, dn), u in zip(ORBITAL_PAIRS, (params.u_l_aa, params.u_r_aa, params.u_r_bb)):
            diag += u * (space.occupation(up) * space.occupation(dn))
        exchange = -space.band_exchange
    h = np.diag(diag)
    h += params.u_r_ab * (np.diag(n_ra * n_rb) + exchange)
    return h


def tunneling_hamiltonian(params: OnsiteParams, space: TwoBandFockSpace) -> np.ndarray:
    """-t sum_sigma (a^dag_L,sigma b_R,sigma + h.c.): left ground <-> right excited.

    Scales the space's cached `unit_hop`. The `+ 0.0` turns the -0.0 that -t * 0
    leaves into +0.0, so the matrix is bit for bit the per-call operator build.
    """
    hop = -params.t * space.unit_hop + 0.0
    return hop + hop.T


def schwinger_identity_check(space: TwoBandFockSpace) -> float:
    """Max residual of the two-band spin identity on the truncated space.

    sum_{s,s'} a^dag_s b^dag_s' b_s a_s'
        = n^a n^b + J^2 - ((n^a+n^b)/2)((n^a+n^b)/2 + 1),
    with J the total spin of the two right-site bands. Both sides are compared
    on the states whose right-site occupancy does not exceed the mode cap, where
    no intermediate state of either side is truncated; without such states, 0.
    """
    if space.statistics != "boson":
        raise ValueError("the spin-ladder identity applies to the bosonic space")
    lhs = space.band_exchange
    n_ra = space.occupation(RA_UP, RA_DN)
    n_rb = space.occupation(RB_UP, RB_DN)
    half = (n_ra + n_rb) / 2.0
    # the number terms are diagonal: add them to the diagonal of J^2
    rhs = space.total_spin_squared(RIGHT_ORBITAL_PAIRS)
    diagonal = np.diag_indices(space.dim)
    rhs[diagonal] += n_ra * n_rb
    rhs[diagonal] -= half * (half + 1.0)
    safe = np.flatnonzero(n_ra + n_rb <= space.cap)
    return float(np.abs((lhs - rhs)[np.ix_(safe, safe)]).max(initial=0.0))


def fixed_number_schwinger_check() -> float:
    """schwinger_identity_check of the full boson space, in its fixed-N blocks N = 0 .. 6 cap."""
    return max(schwinger_identity_check(TwoBandFockSpace("boson", total_number=n))
               for n in range(len(MODE_LABELS) * MODE_CAP["boson"] + 1))


@lru_cache(maxsize=2)
def _two_site_setup(statistics: str):
    """Read-only (n0, n1, hop at t = -1, S^2) of the two-site model; -t * hop is the hop at t.

    The model is the R_b-empty block of the shared two-particle link space, where
    the link's S^2 is that of the two sites.
    """
    space = _link_space(statistics, 2)
    keep = np.flatnonzero(space.occupation(RB_UP, RB_DN) == 0)
    hop = space.operator([(1.0, [(L_UP, +1), (RA_UP, -1)]), (1.0, [(L_DN, +1), (RA_DN, -1)])])
    return tuple(read_only(a) for a in (space.occupation(L_UP, L_DN)[keep],
                 space.occupation(RA_UP, RA_DN)[keep], hop[np.ix_(keep, keep)],
                 space.spin_squared[np.ix_(keep, keep)]))


def superexchange_hubbard_check(t: float, u: float, statistics: str) -> tuple[float, float]:
    """Exact two-site singlet-triplet gap against the superexchange value 4t^2/U.

    The two sites are the L_a and R_a orbitals of the two-particle link space
    (`_two_site_setup`); the on-site energy (U/2) n(n-1) counts doubly occupied orbitals for
    fermions too. For fermions the singlet lies below the triplet; for bosons the ordering
    flips. The returned gap is positive in both cases and approaches 4t^2/U with a relative
    error of order 4 (t/U)^2. The sign of t is a gauge choice (R_a -> -R_a), so the check
    runs at |t| and t, -t give the same result.

    Returns:
        (exact_gap, 4t^2/U)

    Raises:
        ValueError: unless 1e-4 <= |t|/U <= 0.1. Below 1e-4 the eigensolve's rounding, a
            relative error of about eps / (4 (t/U)^2), exceeds the physical one.
    """
    check_statistics(statistics)
    if u <= 0:
        raise ValueError("U must be positive")
    if not 1e-4 <= abs(t) / u <= 0.1:
        raise ValueError(f"t/U = {t / u:.3g} is outside the superexchange regime "
                         "1e-4 <= |t/U| <= 0.1")
    n0, n1, unit_hop, s2 = _two_site_setup(statistics)
    hop = -abs(t) * unit_hop
    w, v = np.linalg.eigh(np.diag(0.5 * u * (n0 * (n0 - 1) + n1 * (n1 - 1))) + hop + hop.T)
    s2vals = np.einsum("ik,ij,jk->k", v, s2, v)
    e_singlet, e_triplet = w[s2vals < 1.0].min(), w[s2vals >= 1.0].min()
    gap = (e_triplet - e_singlet) if statistics == "fermion" else (e_singlet - e_triplet)
    return float(gap), 4.0 * t * t / u


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


def _initial_channel_state(space: TwoBandFockSpace, n_l: int, n_r_a: int,
                           channel_spin: Fraction) -> np.ndarray:
    """Highest-weight state with the given occupations and total link spin."""
    pattern = ((space.occupation(L_UP, L_DN) == n_l)
               & (space.occupation(RA_UP, RA_DN) == n_r_a)
               & (space.occupation(RB_UP, RB_DN) == 0))
    sub = np.flatnonzero(pattern & (np.abs(space.spin_z() - float(channel_spin)) < 1e-9))
    if not len(sub):
        raise ValueError(f"no m = {channel_spin} state with occupations ({n_l}, {n_r_a})")
    evals, evecs = np.linalg.eigh(space.spin_squared[np.ix_(sub, sub)])
    target = float(channel_spin * (channel_spin + 1))
    hits = np.flatnonzero(np.abs(evals - target) < 1e-8)
    if len(hits) == 0:
        raise ValueError(f"total spin {channel_spin} unavailable for occupations ({n_l}, {n_r_a})")
    psi = np.zeros(space.dim)
    psi[sub] = evecs[:, hits[0]]
    return psi


@lru_cache(maxsize=None)
def _channel_state(statistics: str, n_l: int, n_r_a: int, channel_spin: Fraction) -> np.ndarray:
    """Read-only `_initial_channel_state` on the shared (n_l + n_r_a)-particle space, built once."""
    space = _link_space(statistics, n_l + n_r_a)
    return read_only(_initial_channel_state(space, n_l, n_r_a, channel_spin))


def _return_scan(evals: np.ndarray, weights: np.ndarray,
                 params: OnsiteParams) -> tuple[np.ndarray, np.ndarray]:
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


def _slope_root(rates: np.ndarray, weights: np.ndarray, lo: float, hi: float):
    """(t, a(t)) at the root of d|a|^2/dt = 2 Re(conj(a) a') in [lo, hi], a = sum_k w_k e^{r_k t}.

    The rates r_k = -i (E_k - E0) count from E0 = sum_k w_k E_k, as in `_return_scan`.
    Safeguarded Newton (Numerical Recipes, 3rd ed., section 9.4): each step keeps the side of
    the root that the slope's sign shows, and bisects where a Newton step leaves the bracket.
    A root, unlike the flat maximum of |a|, is located to about eps. The search stops once
    |slope| reaches its rounding floor 16 eps sum_k w_k |E_k - E0|, or the bracket is spent.
    """
    floor = 16.0 * np.finfo(float).eps * (weights @ np.abs(rates))
    t = 0.5 * (lo + hi)
    while True:
        terms = weights * np.exp(rates * t)
        amp, d_amp = terms.sum(), rates @ terms
        slope = 2.0 * (np.conj(amp) * d_amp).real
        lo, hi = (t, hi) if slope > 0.0 else (lo, t)
        curvature = 2.0 * (abs(d_amp) ** 2 + (np.conj(amp) * (rates * rates @ terms)).real)
        t_next = t - slope / curvature
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        if abs(slope) <= floor or not lo < t_next < hi:
            return t, amp
        t = t_next


def link_tunneling_phase(n_l: int, n_r_a: int, channel_spin, params: OnsiteParams,
                         statistics: str) -> tuple[float, float, float]:
    """Exact return dynamics of one link: (return_time, phase, leakage).

    The initial state has n_l particles on the left, n_r_a in the right ground band, total
    spin `channel_spin`. The return amplitude a(t) = <psi0|exp(-iHt)|psi0> is gauged by
    exp(+i E0 t), E0 = <psi0|H|psi0>, so a resonant two-level cycle returns with phase exactly
    pi, and off-resonant links acquire only O((t/dE1)^2) phase. The phase lies in
    (-pi/2, 3pi/2], so no rounding flips pi to -pi. return_time is the first local maximum
    of |a| after its first local minimum: the factored scan brackets it by [t_{k-1}, t_{k+1}],
    and `_slope_root` finds the root of d|a|^2/dt from the exact eigenpairs. leakage is
    1 - |a(return_time)|^2, bounded by 4 n_L (t/dE1)^2 (bosonic enhancement included).
    The figures are read from `_link_pass`, the cache that `tunneling_phase` reads.
    """
    if n_l < 1:
        return 0.0, 0.0, 0.0
    return _link_pass(statistics, params)(n_l, n_r_a, _as_half_integer(channel_spin))


def _return_figures(evals: np.ndarray, weights: np.ndarray,
                    params: OnsiteParams) -> tuple[float, float, float]:
    """(return_time, phase, leakage) of `link_tunneling_phase` from a channel's block spectrum."""
    # the scan skips the block's other (n_R_a, S^2) sectors: their weights are rounding
    # residue, of order 1e-20 and below, far below an ulp of |a|; 2 to 5 of up to 36 remain
    kept = weights >= 1e-20
    ts, mags = _return_scan(evals[kept], weights[kept], params)
    # first local minimum, then the next local maximum (else the end of the grid)
    inner, last = mags[1:-1], len(ts) - 1
    minima = np.flatnonzero((inner <= mags[:-2]) & (inner <= mags[2:])) + 1
    if len(minima) == 0:
        return 0.0, 0.0, 0.0
    maxima = np.flatnonzero((inner >= mags[:-2]) & (inner >= mags[2:])) + 1
    k = next((i for i in maxima if i > minima[0] + 1), last)
    rates = -1j * (evals - weights @ evals)
    t_ret, a_ret = _slope_root(rates, weights, ts[k - 1], ts[min(k + 1, last)])
    phase = float(np.angle(-1j * a_ret) + np.pi / 2)
    leakage = float(max(0.0, 1.0 - abs(a_ret) ** 2))
    return float(t_ret), phase, leakage


@lru_cache(maxsize=2)
def _link_pass(statistics: str, params: OnsiteParams):
    """The cached figures(n_L, n_R_a, j) of `link_tunneling_phase` at one (statistics, params).

    Each N-particle Hamiltonian is built once and each S_z block solved once, whichever channel
    reads it: 8 Hamiltonians and 12 blocks per scale over both statistics. The Hamiltonian is
    real and conserves S_z, so a block is one real `eigh` (Sandvik, AIP Conf. Proc. 1297, 135
    (2010), sec. 4); S^2 is not conserved for bosons at the mode cap, so there is no finer
    block. A block is refused if its spectrum is non-finite (U n(n-1) at U = 1e308), or if its
    rounding eps max|E| exceeds 1e-6 |t|, since the figures carry errors of eps max|E| / |t|.

    Every channel of SECTOR_LINKS[statistics] is filled before the pass returns, since the
    `links` benchmark runs a 729-dim probe between the sector calls of a scale, and solving
    each channel on its first read, spread over those calls, took its item median from 16.2
    to 19.8 ms (2-core Xeon VM). A channel that fails stays uncached, so each sector that
    reads it raises its own error. The cache holds one scale of both statistics.
    """
    check_statistics(statistics)
    hamiltonian = cache(lambda n: onsite_hamiltonian(params, _link_space(statistics, n))
                        + tunneling_hamiltonian(params, _link_space(statistics, n)))

    @cache
    def eigensystem(n: int, two_m: int) -> tuple[np.ndarray, np.ndarray]:
        block = _link_space(statistics, n).spin_z_blocks[two_m]
        evals, evecs = np.linalg.eigh(hamiltonian(n)[np.ix_(block, block)])
        rounding = np.finfo(float).eps * np.abs(evals).max()
        if not np.isfinite(rounding):
            raise ValueError(f"non-finite link spectrum, {statistics} N = {n}: {params}")
        if rounding > 1e-6 * abs(params.t):
            raise ValueError(f"ill-conditioned link spectrum, {statistics} N = {n}: "
                             f"eps max|E| = {rounding:.3g} exceeds 1e-6 |t|: {params}")
        return evals, evecs

    @cache
    def figures(n_l: int, n_r_a: int, j: Fraction) -> tuple[float, float, float]:
        evals, evecs = eigensystem(n_l + n_r_a, int(2 * j))
        block = _link_space(statistics, n_l + n_r_a).spin_z_blocks[int(2 * j)]
        weights = (evecs.T @ _channel_state(statistics, n_l, n_r_a, j)[block]) ** 2  # |<k|psi0>|^2
        return _return_figures(evals, weights, params)

    for n_l, n_r_a, channels in itertools.chain(*SECTOR_LINKS[statistics].values()):
        for j in channels:
            with suppress(Exception):  # left uncached, raised by the sectors that read it
                figures(n_l, n_r_a, j)
    return figures


def tunneling_phase(
    sector: str, params: OnsiteParams, statistics: str
) -> tuple[float, float, float]:
    """Combined return figures of both links of a logical sector.

    Each active link is evolved exactly, taking the worst case over its spin channels; phases
    add, return_time is the slowest link, and the leakages combine as independent amplitudes.
    The channel figures are those of `link_tunneling_phase`, read from `_link_pass`.

    Each link's phase lies in (-pi/2, 3pi/2] (`link_tunneling_phase`), so a resonant pi never
    reads -pi, and a sector of a resonant pi and an off-resonant delta reads pi + delta on
    every kernel. The worst channel is the one of largest |phase|. Where channels tie within
    1e-9 relative in |phase| (fermion TT: +-0.00391964302 at `geophase-dynamics --u 40`),
    the most positive phase is kept, so rounding does not pick the sign.
    """
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}, got {sector!r}")
    figures = _link_pass(statistics, params)
    total_phase, t_ret, survival = 0.0, 0.0, 1.0
    for n_l, n_r_a, channels in SECTOR_LINKS[statistics][sector]:
        outs = [figures(n_l, n_r_a, j) for j in channels]
        largest = max(abs(out[1]) for out in outs)
        worst = max((out for out in outs if abs(out[1]) >= (1.0 - 1e-9) * largest),
                    key=lambda out: out[1])
        t_ret = max(t_ret, worst[0])
        total_phase += worst[1]
        survival *= 1.0 - worst[2]
    return t_ret, total_phase, 1.0 - survival
