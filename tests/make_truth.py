"""Write tests/golden/link_truth.csv: the link return figures to 40 digits, from mpmath.

For every spin channel that `geophase.tunneling_phase` evolves (`SECTOR_LINKS`) and every
interaction scale u of U_VALUES, on the links of `geophase.link_params`:

* the channel's S_z block of the link Hamiltonian is built with exact entries: each operator
  amplitude is sign * sqrt(integer) in mp, and the program's float energies enter exactly;
* `mp.eigsy` diagonalizes the block (at most 36 states), and the channel state, the
  highest-weight state of its occupations and total spin, comes from `mp.eigsy` of S^2 on it;
* the return time is the root of d|a|^2/dt, found by `mp.findroot` in the bracket that defines
  it (the first local maximum of |a| after its first local minimum on the 8,000-point grid
  t_k = k 1.25 pi / (8000 |t|)); only this bracket is taken from a float scan.

Each row holds return_time, phase (in (-pi/2, 3pi/2], the program's convention) and leakage
1 - |a|^2 to 25 digits, and the block's norm max|E|, the scale of its float rounding. The
Tier-1 test `test_link_figures_lie_within_the_truth_bound` reads the table without mpmath.

Run from the repository root:  PYTHONPATH=src python tests/make_truth.py
"""
from __future__ import annotations

import csv
import itertools
import pathlib
import sys

import numpy as np

try:
    from mpmath import mp
except ImportError:
    sys.exit("make_truth.py needs mpmath (the truth extra), which is not installed; "
             "the table was not written")

from plaqgate import geophase as gp

mp.dps = 40
U_VALUES = ("25.8", "40", "57.3", "106.1")
OUT = pathlib.Path(__file__).parent / "golden" / "link_truth.csv"
FIELDS = ("statistics", "n_L", "n_R_a", "j", "u", "block_norm", "return_time", "phase", "leakage")

UPS, DNS = (gp.L_UP, gp.RA_UP, gp.RB_UP), (gp.L_DN, gp.RA_DN, gp.RB_DN)
RIGHT_A, RIGHT_B = (gp.RA_UP, gp.RA_DN), (gp.RB_UP, gp.RB_DN)
#: sum_{s,s'} a^dag_s b^dag_s' b_s a_s' and sum_sigma a^dag_L,sigma b_R,sigma, right to left
EXCHANGE = [[(RIGHT_A[s], 1), (RIGHT_B[sp], 1), (RIGHT_B[s], -1), (RIGHT_A[sp], -1)]
            for s in (0, 1) for sp in (0, 1)]
HOP = [[(gp.L_UP, 1), (gp.RB_UP, -1)], [(gp.L_DN, 1), (gp.RB_DN, -1)]]
#: S+ S- and S- S+ summed over the three orbitals
SPIN_FLIPS = [[(UPS[o], 1), (DNS[o], -1), (DNS[q], 1), (UPS[q], -1)]
              for o in range(3) for q in range(3)] + [
             [(DNS[o], 1), (UPS[o], -1), (UPS[q], 1), (DNS[q], -1)]
             for o in range(3) for q in range(3)]


def apply(occ: tuple, ops, statistics: str):
    """(amplitude, image) of an operator string on an occupation tuple; None where it vanishes."""
    cap, state, square, sign = gp.MODE_CAP[statistics], list(occ), 1, 1
    for mode, kind in reversed(ops):
        n = state[mode]
        if n == (0 if kind < 0 else cap):
            return None
        if statistics == "fermion":
            sign *= -1 if sum(state[:mode]) % 2 else 1
        else:
            square *= n if kind < 0 else n + 1
        state[mode] = n + kind
    return sign * mp.sqrt(square), tuple(state)


def matrix(basis: list, strings, statistics: str, coef=1):
    """coef * sum of the strings on `basis`; every image must lie in it."""
    index = {occ: i for i, occ in enumerate(basis)}
    out = mp.zeros(len(basis))
    for ops in strings:
        for col, occ in enumerate(basis):
            hit = apply(occ, ops, statistics)
            if hit is not None:
                out[index[hit[1]], col] += coef * hit[0]
    return out


def block_basis(statistics: str, total: int, two_m: int) -> list:
    cap = gp.MODE_CAP[statistics]
    return [occ for occ in itertools.product(range(cap + 1), repeat=6)
            if sum(occ) == total and sum(occ[m] for m in UPS) - sum(occ[m] for m in DNS) == two_m]


def hamiltonian(basis: list, params: gp.OnsiteParams, statistics: str):
    """The link Hamiltonian of the `geophase` module docstring, on `basis`."""
    p = {k: mp.mpf(v) for k, v in vars(params).items()}
    h = matrix(basis, EXCHANGE, statistics, p["u_r"] * (1 if statistics == "boson" else -1))
    hop = matrix(basis, HOP, statistics, -p["t"])
    h += hop + hop.T
    for i, occ in enumerate(basis):
        n_l, n_a, n_b = (occ[up] + occ[dn] for up, dn in gp.ORBITAL_PAIRS)
        energy = p["delta"] * n_l + p["omega"] * n_b + p["u_r"] * n_a * n_b
        # bosons: U_L^aa n(n-1) on the left, (1/2) U n(n-1) on the right; fermions: U n_up n_dn
        for (up, dn), u, half in zip(gp.ORBITAL_PAIRS, (p["u_l_aa"], p["u_r"], p["u_r"]),
                                     (1, mp.mpf(1) / 2, mp.mpf(1) / 2)):
            n = occ[up] + occ[dn]
            energy += u * half * n * (n - 1) if statistics == "boson" else u * occ[up] * occ[dn]
        h[i, i] += energy
    return h


def channel_state(basis: list, statistics: str, n_l: int, n_r_a: int, j):
    """Highest-weight state of the occupations (n_l, n_r_a, 0) with total spin j, on `basis`."""
    sub = [i for i, occ in enumerate(basis)
           if (occ[gp.L_UP] + occ[gp.L_DN], occ[gp.RA_UP] + occ[gp.RA_DN],
               occ[gp.RB_UP] + occ[gp.RB_DN]) == (n_l, n_r_a, 0)]
    spin = mp.mpf(j.numerator) / j.denominator
    s2 = matrix([basis[i] for i in sub], SPIN_FLIPS, statistics, mp.mpf(1) / 2)
    for k in range(len(sub)):
        s2[k, k] += spin ** 2  # S_z = j on the whole block
    evals, evecs = mp.eigsy(s2)
    target = spin * (spin + 1)
    (hit,) = [k for k in range(len(sub)) if abs(evals[k] - target) < mp.mpf("1e-20")]
    psi = mp.zeros(len(basis), 1)
    for k, i in enumerate(sub):
        psi[i] = evecs[k, hit]
    return psi


def bracket(evals: np.ndarray, weights: np.ndarray, t_hop: float) -> tuple[float, float]:
    """[t_{k-1}, t_{k+1}] around the first local maximum of |a| after its first local minimum."""
    points = gp.SCAN_POINTS
    ts = np.linspace(1.25 * np.pi / abs(t_hop) / points, 1.25 * np.pi / abs(t_hop), points)
    mags = np.abs(np.exp(-1j * np.outer(ts, evals - weights @ evals)) @ weights)
    inner = mags[1:-1]
    first_min = np.flatnonzero((inner <= mags[:-2]) & (inner <= mags[2:]))[0] + 1
    maxima = np.flatnonzero((inner >= mags[:-2]) & (inner >= mags[2:])) + 1
    k = maxima[maxima > first_min + 1][0]
    return ts[k - 1], ts[k + 1]


def truth_row(statistics: str, n_l: int, n_r_a: int, j, u: str) -> dict:
    params = gp.link_params(statistics, gp.LEFT_REPULSION_RATIO * float(u), float(u))
    basis = block_basis(statistics, n_l + n_r_a, int(2 * j))
    evals, evecs = mp.eigsy(hamiltonian(basis, params, statistics))
    psi = channel_state(basis, statistics, n_l, n_r_a, j)
    weights = [mp.fsum(evecs[i, k] * psi[i] for i in range(len(basis))) ** 2
               for k in range(len(basis))]
    e0 = mp.fsum(w * e for w, e in zip(weights, evals))
    rates = [-1j * (e - e0) for e in evals]

    def amplitude(t, derivative=0):
        return mp.fsum(w * r ** derivative * mp.exp(r * t) for w, r in zip(weights, rates))

    def slope(t):
        return 2 * mp.re(mp.conj(amplitude(t)) * amplitude(t, 1))

    lo, hi = bracket(np.array([float(e) for e in evals]), np.array([float(w) for w in weights]),
                     params.t)
    t_ret = mp.findroot(slope, (mp.mpf(lo), mp.mpf(hi)), solver="anderson")
    a = amplitude(t_ret)
    return {"statistics": statistics, "n_L": n_l, "n_R_a": n_r_a, "j": str(j), "u": u,
            "block_norm": repr(float(max(abs(e) for e in evals))),
            "return_time": mp.nstr(t_ret, 25), "phase": mp.nstr(mp.arg(-1j * a) + mp.pi / 2, 25),
            "leakage": mp.nstr(max(0, 1 - abs(a) ** 2), 25)}


def main() -> None:
    channels = sorted({(stat, n_l, n_r_a, j) for stat, sectors in gp.SECTOR_LINKS.items()
                       for links in sectors.values() for n_l, n_r_a, spins in links
                       for j in spins})
    with open(OUT, "w", newline="") as fh:
        writer = csv.DictWriter(fh, FIELDS, lineterminator="\n")
        writer.writeheader()
        for u in U_VALUES:
            for channel in channels:
                writer.writerow(truth_row(*channel, u))
    print(OUT)


if __name__ == "__main__":
    main()
