"""Two-band ladder: energy ledgers, Fock-space algebra, and return phases."""
from __future__ import annotations

import ast
import csv
import itertools
import pathlib
import random
import warnings
from dataclasses import fields, replace
from fractions import Fraction as Fr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    Cap4FockSpace,
    cap4_link_figures,
    commutation_residual,
    link_peak_leakage,
    link_return_root,
    link_spectrum,
    physical_indices,
    sector_indices,
    slope_root,
)

from plaqgate import cli
from plaqgate import geophase as gp

U0, T = 50.0, 1.0
OMEGA = 600.0

# all interactions equal: fine for dynamics of individual links
PB = gp.OnsiteParams(delta=OMEGA, omega=OMEGA, u_l_aa=U0, u_r=U0, t=T)
PF = gp.OnsiteParams(delta=OMEGA + U0, omega=OMEGA, u_l_aa=U0, u_r=U0, t=T)
# generic left repulsion: equal couplings make the (2, n_a) rows accidentally
# resonant (2 U_L^aa = 2 U_R^ab), which would mask the universal resonant set
PB_TAB = gp.OnsiteParams(delta=OMEGA, omega=OMEGA, u_l_aa=77.3, u_r=U0, t=T)
PF_TAB = gp.OnsiteParams(delta=OMEGA + U0, omega=OMEGA, u_l_aa=77.3, u_r=U0, t=T)

# frozen first-order energy-cost rows (c0, c1, c2) keyed by (n_L, n_R_a, j_R):
# delta_E1 = c0 (Delta - omega) + c1 U_L^aa + c2 U_R^ab, initial minus final
GOLD_BOSON = {
    (1, 0, Fr(1, 2)): (1, 0, 0),
    (1, 1, Fr(0)): (1, 0, 0),
    (1, 1, Fr(1)): (1, 0, -2),
    (1, 2, Fr(1, 2)): (1, 0, -1),
    (1, 2, Fr(3, 2)): (1, 0, -4),
    (2, 1, Fr(0)): (1, 2, 0),
    (2, 1, Fr(1)): (1, 2, -2),
    (2, 2, Fr(1, 2)): (1, 2, -1),
    (2, 2, Fr(3, 2)): (1, 2, -4),
}
GOLD_FERMION = {
    (1, 0, Fr(1, 2)): (1, 0, 0),
    (1, 1, Fr(0)): (1, 0, -2),
    (1, 1, Fr(1)): (1, 0, 0),
    (1, 2, Fr(1, 2)): (1, 0, -1),
    (2, 1, Fr(0)): (1, 1, -2),
    (2, 1, Fr(1)): (1, 1, 0),
    (2, 2, Fr(1, 2)): (1, 1, -1),
}


# ---------------------------------------------------------------------------
# Number configurations
# ---------------------------------------------------------------------------

def test_number_config_triangle_rule():
    gp.NumberConfig(1, 2, Fr(1, 2))
    with pytest.raises(ValueError):
        gp.NumberConfig(1, 2, Fr(5, 2))  # violates |j| <= (n_a + n_b)/2 with n_b = 1
    with pytest.raises(ValueError):
        gp.NumberConfig(1, 1, Fr(1, 2))  # wrong parity for two particles


def test_number_config_accepts_float_spin():
    cfg = gp.NumberConfig(1, 2, 0.5)
    assert cfg.j_r == Fr(1, 2)


# ---------------------------------------------------------------------------
# Ledger coefficients and resonant sets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "statistics,gold,params,expected_resonant",
    [
        ("boson", GOLD_BOSON, PB_TAB, {(1, 0, Fr(1, 2)), (1, 1, Fr(0))}),
        ("fermion", GOLD_FERMION, PF_TAB, {(1, 2, Fr(1, 2))}),
    ],
)
def test_golden_ledger_rows(statistics, gold, params, expected_resonant):
    entries = gp.resonance_table(params, statistics)
    assert len(entries) == len(gold)
    resonant = set()
    for e in entries:
        key = (e.config.n_l, e.config.n_r_a, e.config.j_r)
        assert (int(e.c0), int(e.c1), int(e.c2)) == gold[key]
        val, _ = gp.delta_e1(e.config, params, statistics)
        assert abs(val - e.evaluate(params)) < 1e-12
        if e.resonant_at_bias:
            resonant.add(key)
    assert resonant == expected_resonant


def test_detuned_bias_gives_empty_resonant_set():
    detuned = gp.OnsiteParams(delta=OMEGA + 10 * U0, omega=OMEGA, u_l_aa=U0, u_r=U0, t=T)
    assert not any(e.resonant_at_bias for e in gp.resonance_table(detuned, "boson"))


@pytest.mark.parametrize("statistics,params", [("boson", PB_TAB), ("fermion", PF_TAB)])
def test_cached_ledger_rows_follow_every_bias(statistics, params):
    # the rational rows are built once per statistics, the flags at each call:
    # the sweep goes resonant -> each row's own resonance -> detuned -> resonant,
    # so every flag flips both ways and none may leak from an earlier call
    fresh_rows = [gp.delta_e1(c, params, statistics)[1] for c in gp.table_configs(statistics)]
    surpluses = [-(float(e.c1) * params.u_l_aa + float(e.c2) * params.u_r) for e in fresh_rows]
    base = params.delta - params.omega
    flags = []
    for surplus in [base, *surpluses, base + 10 * U0, base]:
        biased = replace(params, delta=params.omega + surplus)
        table = gp.resonance_table(biased, statistics)
        assert table == [gp.delta_e1(c, biased, statistics)[1]
                         for c in gp.table_configs(statistics)]
        flags.append([e.resonant_at_bias for e in table])
    assert flags[0] == flags[-1] and not any(flags[-2])
    for row in zip(*flags):
        assert True in row and False in row


def test_coefficients_are_exact_rationals():
    for stat in ("boson", "fermion"):
        for e in gp.resonance_table(PB_TAB if stat == "boson" else PF_TAB, stat):
            for c in (e.c0, e.c1, e.c2):
                assert isinstance(c, Fr)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    statistics=st.sampled_from(["boson", "fermion"]),
    values=st.tuples(*[st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)] * 5),
)
def test_ledger_is_exact_rational_for_any_positive_params(statistics, values):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", gp.RWAValidityWarning)
        params = gp.OnsiteParams(*values)
    for e in gp.resonance_table(params, statistics):
        assert all(isinstance(c, Fr) for c in (e.c0, e.c1, e.c2))
    energy = gp.boson_f if statistics == "boson" else gp.fermion_eta
    for cfg in gp.table_configs(statistics):
        assert isinstance(energy(cfg.n_r_a, 1, cfg.j_r), Fr)


@pytest.mark.parametrize("statistics,params", [("boson", PB), ("fermion", PF)])
def test_ledger_matches_exact_eigenvalue_differences(statistics, params):
    """First-order formula vs exact block eigenvalues of the onsite model."""
    space = gp.TwoBandFockSpace(statistics)
    h = gp.onsite_hamiltonian(params, space)
    j2r_full = space.total_spin_squared(gp.RIGHT_ORBITAL_PAIRS)
    n_l, n_ra, n_rb = (space.occupation(up, dn) for up, dn in gp.ORBITAL_PAIRS)

    for cfg in gp.table_configs(statistics):
        # initial block: (n_L, n_R_a, 0), spin-independent energy
        before = np.flatnonzero((n_l == cfg.n_l) & (n_ra == cfg.n_r_a) & (n_rb == 0))
        eb = np.linalg.eigvalsh(h[np.ix_(before, before)])
        assert np.ptp(eb) < 1e-9

        # final block: one particle moved into the upper right orbital,
        # classified by the right-site channel spin
        after = np.flatnonzero((n_l == cfg.n_l - 1) & (n_ra == cfg.n_r_a) & (n_rb == 1))
        ha = h[np.ix_(after, after)]
        j2r = j2r_full[np.ix_(after, after)]
        w, v = np.linalg.eigh(ha)
        target = float(cfg.j_r * (cfg.j_r + 1))
        hits = [
            k for k in range(len(w))
            if abs(np.real(np.vdot(v[:, k], j2r @ v[:, k])) - target) < 1e-8
        ]
        assert hits
        energies = {round(w[k], 9) for k in hits}
        assert len(energies) == 1

        val, _ = gp.delta_e1(cfg, params, statistics)
        assert abs(val - (eb[0] - w[hits[0]])) < 1e-10


# ---------------------------------------------------------------------------
# Fock space algebra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_commutation_relations(statistics):
    space = gp.TwoBandFockSpace(statistics)
    assert commutation_residual(space) <= 1e-12


def test_dims():
    assert gp.TwoBandFockSpace("boson").dim == 3**6
    assert gp.TwoBandFockSpace("fermion").dim == 2**6
    assert [gp.TwoBandFockSpace("boson", total_number=n).dim for n in (2, 3, 4)] == [21, 50, 90]
    assert [gp.TwoBandFockSpace("fermion", total_number=n).dim for n in (2, 3, 4)] == [15, 20, 15]


def test_schwinger_identity():
    assert gp.schwinger_identity_check(gp.TwoBandFockSpace("boson")) <= 1e-12


def test_schwinger_identity_in_each_fixed_number_space():
    # `schwinger-check` takes the maximum over N: both sides conserve N
    residuals = [gp.schwinger_identity_check(gp.TwoBandFockSpace("boson", total_number=n))
                 for n in range(13)]
    assert gp.fixed_number_schwinger_check() == max(residuals) <= 1e-12
    assert gp.schwinger_identity_check(gp.TwoBandFockSpace("boson")) <= 1e-12
    # from N = 7 on, every state holds more than 2 right-site bosons: nothing is compared
    assert residuals[7:] == [0.0] * 6


def test_fock_space_decisions_have_one_owner():
    """In src/, only geophase names TwoBandFockSpace or the left-repulsion ratio;
    plaquette imports only spincore, and cli builds no fixed-N space."""
    src = pathlib.Path(gp.__file__).parent
    for path in src.glob("*.py"):
        if path.name != "geophase.py":
            text = path.read_text()
            assert "TwoBandFockSpace" not in text and "1.546" not in text, path.name
    tree = ast.parse((src / "plaquette.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {node.module for node in imports if getattr(node, "level", 0)} == {"spincore"}
    assert not any("plaqgate" in ast.unparse(node) for node in imports)
    assert "total_number" not in (src / "cli.py").read_text()


def test_schwinger_check_is_boson_only():
    with pytest.raises(ValueError):
        gp.schwinger_identity_check(gp.TwoBandFockSpace("fermion"))


@pytest.mark.parametrize("statistics,params", [("boson", PB), ("fermion", PF)])
def test_onsite_hamiltonian_conservation_laws(statistics, params):
    space = gp.TwoBandFockSpace(statistics)
    h = gp.onsite_hamiltonian(params, space)
    n_total = np.diag(space.occupation(*range(6)))
    assert np.abs(h @ n_total - n_total @ h).max() < 1e-9
    # spin conservation holds on the truncation-free block
    phys = physical_indices(space)
    hp = h[np.ix_(phys, phys)]
    s2 = space.total_spin_squared()[np.ix_(phys, phys)]
    assert np.abs(hp @ s2 - s2 @ hp).max() < 1e-8


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_onsite_hamiltonian_takes_integer_energies(statistics):
    values = dict(delta=1000, omega=1000, u_l_aa=77, u_r=50, t=1)
    ints = gp.OnsiteParams(**values)
    floats = gp.OnsiteParams(**{k: float(v) for k, v in values.items()})
    for n in (2, 3, 4):
        space = gp.TwoBandFockSpace(statistics, total_number=n)
        assert np.array_equal(gp.onsite_hamiltonian(ints, space),
                              gp.onsite_hamiltonian(floats, space))


@pytest.mark.parametrize("statistics,params", [("boson", PB), ("fermion", PF)])
def test_single_particle_ground_state(statistics, params):
    space = gp.TwoBandFockSpace(statistics)
    h = gp.onsite_hamiltonian(params, space)
    one = sector_indices(space, 1)
    evals = np.linalg.eigvalsh(h[np.ix_(one, one)])
    assert abs(evals.min() - min(params.delta, 0.0)) < 1e-10  # mu_R = 0 is the energy zero


def _reference_operator(space, strings):
    """Per-ket matrix of sum_i coef_i * string_i: one basis state and one factor at a time."""
    index = {tuple(occ): i for i, occ in enumerate(space.counts.tolist())}
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for coef, ops in strings:
        for occ, col in index.items():
            state, amp = list(occ), 1.0
            for mode, kind in reversed(ops):
                n = state[mode]
                if n == (0 if kind < 0 else space.cap):
                    break
                if space.statistics == "fermion":
                    amp *= -1.0 if sum(state[:mode]) % 2 else 1.0
                else:
                    amp *= np.sqrt(n if kind < 0 else n + 1)
                state[mode] = n + kind
            else:
                if tuple(state) not in index:
                    raise ValueError("operator leaves the basis")
                mat[index[tuple(state)], col] += coef * amp
    return mat


REFERENCE_STRINGS = {
    "exchange+": gp._exchange_strings(),
    "exchange-": [(-coef, ops) for coef, ops in gp._exchange_strings()],
    "spin_raising": [(1.0, [(up, +1), (dn, -1)]) for up, dn in gp.ORBITAL_PAIRS],
    "right_spin_raising": [(1.0, [(up, +1), (dn, -1)]) for up, dn in gp.RIGHT_ORBITAL_PAIRS],
    "hop": [(-0.7, [(gp.L_UP, +1), (gp.RB_UP, -1)]), (-0.7, [(gp.L_DN, +1), (gp.RB_DN, -1)])],
}


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_operator_is_bit_identical_to_per_ket_reference(statistics):
    cap = 1 if statistics == "fermion" else 2
    for total in [None, *range(6 * cap + 1)]:
        space = gp.TwoBandFockSpace(statistics, total_number=total)
        for strings in REFERENCE_STRINGS.values():
            assert np.array_equal(space.operator(strings), _reference_operator(space, strings))
    # a second ladder step on a mode the first one already emptied or filled
    # to the cap: annihilated states must not reach occupations outside 0..cap
    full = gp.TwoBandFockSpace(statistics)
    for mode, kind in itertools.product(range(6), (+1, -1)):
        twice = [(1.0, [(mode, kind), (mode, kind)])]
        with np.errstate(all="raise"):
            assert np.array_equal(full.operator(twice), _reference_operator(full, twice))


def test_fixed_number_operator_must_conserve_number():
    space = gp.TwoBandFockSpace("boson", total_number=2)
    with pytest.raises(ValueError):
        space.operator([(1.0, [(gp.L_UP, -1)])])


# ---------------------------------------------------------------------------
# Fixed-number link sectors against the full space
# ---------------------------------------------------------------------------

#: every (statistics, n_L, n_R_a, channel spin) that tunneling_phase evolves
SECTOR_LINK_CHANNELS = sorted(
    {
        (stat, n_l, n_r_a, j)
        for stat, sectors in gp.SECTOR_LINKS.items()
        for links in sectors.values()
        for n_l, n_r_a, channels in links
        for j in channels
    }
)


def _direct_scan(evals, weights, t_hop, scan_points=8000):
    """The grid of the return scan and |a(t_k)|, one exponential per (t_k, E)."""
    t_max = 1.25 * np.pi / abs(t_hop)
    ts = np.linspace(t_max / scan_points, t_max, scan_points)
    return ts, np.abs(np.exp(-1j * np.outer(ts, evals)) @ weights)


def _bracket_indices(mags):
    """Grid indices of the first local minimum of |a| and of the next local maximum."""
    inner = mags[1:-1]
    first_min = np.flatnonzero((inner <= mags[:-2]) & (inner <= mags[2:]))[0] + 1
    maxima = [k for k in range(first_min + 2, len(mags) - 1)
              if mags[k] >= mags[k - 1] and mags[k] >= mags[k + 1]]
    return first_min, maxima[0]


def _reference_return_figures(evals, weights, t_hop):
    """Return figures from a direct scan over every eigencomponent, then `brentq`'s slope root."""
    ts, mags = _direct_scan(evals, weights, t_hop)
    _, k = _bracket_indices(mags)
    t_ret, a_ret = slope_root(evals, weights, ts[k - 1], ts[k + 1])
    peak = max(0.0, 1.0 - mags.min() ** 2)
    return t_ret, np.angle(a_ret), max(0.0, 1.0 - abs(a_ret) ** 2), peak


def _hop_strings(coef):
    """coef * sum_sigma a^dag_L,sigma b_R,sigma as operator strings."""
    return [(coef, [(gp.L_UP, +1), (gp.RB_UP, -1)]), (coef, [(gp.L_DN, +1), (gp.RB_DN, -1)])]


def _per_call_tunneling(params, space):
    """The tunneling Hamiltonian built from its operator strings on every call."""
    hop = space.operator(_hop_strings(-params.t))
    return hop + hop.conj().T


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_link_setup_is_cached_read_only(statistics):
    space = gp._link_space(statistics, 4)
    assert gp._link_space(statistics, 4) is space
    assert np.array_equal(space.counts, gp.TwoBandFockSpace(statistics, total_number=4).counts)
    per_call = {"spin_squared": space.total_spin_squared(),
                "band_exchange": space.operator(gp._exchange_strings()),
                "unit_hop": space.operator(_hop_strings(1.0))}
    for name, ref in per_call.items():
        arr = getattr(space, name)
        assert getattr(space, name) is arr
        np.testing.assert_array_equal(arr, ref)
    # the shared space too: every link solve and the two-site model read it
    for arr in (*(getattr(space, name) for name in per_call),
                space.counts, space._keys, space._radix, *space.spin_z_blocks.values()):
        with pytest.raises(ValueError, match="read-only"):
            arr += 0
    # bytes, not values: a -0.0 where the per-call build has +0.0 must show
    for total in (None, 1, 2, 3, 4):
        fixed = gp.TwoBandFockSpace(statistics, total_number=total)
        for t_hop in (1.0, 0.37, -2.1):
            p = replace(gp.link_params(statistics, gp.LEFT_REPULSION_RATIO * 50.0, 50.0), t=t_hop)
            assert (gp.tunneling_hamiltonian(p, fixed).tobytes()
                    == _per_call_tunneling(p, fixed).tobytes())
    for stat, n_l, n_r_a, j in SECTOR_LINK_CHANNELS:
        if stat != statistics:
            continue
        psi = gp._channel_state(statistics, n_l, n_r_a, j)
        assert gp._channel_state(statistics, n_l, n_r_a, j) is psi
        fixed = gp.TwoBandFockSpace(statistics, total_number=n_l + n_r_a)
        np.testing.assert_array_equal(psi, gp._initial_channel_state(fixed, n_l, n_r_a, j))
        with pytest.raises(ValueError, match="read-only"):
            psi += 0


@pytest.fixture(scope="module")
def full_spaces():
    return {stat: gp.TwoBandFockSpace(stat) for stat in ("boson", "fermion")}


@pytest.mark.parametrize(
    "statistics,n_l,n_r_a,j",
    SECTOR_LINK_CHANNELS,
    ids=[f"{s}-{n_l}-{n_r_a}-2j{2 * j}" for s, n_l, n_r_a, j in SECTOR_LINK_CHANNELS],
)
def test_link_sector_matches_full_space(statistics, n_l, n_r_a, j, full_spaces):
    """Link figures on the fixed-number basis equal those of the full-space block.

    The reference solves the full space restricted to the channel's (N, S_z) block.
    """
    full = full_spaces[statistics]
    space = gp.TwoBandFockSpace(statistics, total_number=n_l + n_r_a)
    sector = sector_indices(full, n_l + n_r_a)
    assert np.array_equal(full.counts[sector], space.counts)
    sz_block = sector[full.spin_z()[sector] == j]

    psi_full = gp._initial_channel_state(full, n_l, n_r_a, j)
    assert np.abs(np.delete(psi_full, sz_block)).max() == 0.0
    psi = gp._initial_channel_state(space, n_l, n_r_a, j)
    proj = np.outer(psi, psi.conj())
    assert np.abs(proj - np.outer(psi_full[sector], psi_full[sector].conj())).max() <= 1e-12

    for u in (25.0, 50.0, 100.0):
        p = gp.link_params(statistics, gp.LEFT_REPULSION_RATIO * u, u)
        h_full = gp.onsite_hamiltonian(p, full) + gp.tunneling_hamiltonian(p, full)
        h = gp.onsite_hamiltonian(p, space) + gp.tunneling_hamiltonian(p, space)
        assert np.abs(h - h_full[np.ix_(sector, sector)]).max() <= 1e-12

        evals, evecs = np.linalg.eigh(h_full[np.ix_(sz_block, sz_block)])
        weights = np.abs(evecs.conj().T @ psi_full[sz_block]) ** 2
        t_ref, phase_ref, leak_ref, peak_ref = _reference_return_figures(evals, weights, T)
        t_ret, phase, leak = gp.link_tunneling_phase(n_l, n_r_a, j, p, statistics)
        assert abs(t_ret - t_ref) <= 1e-12
        assert abs(np.angle(np.exp(1j * (phase - phase_ref)))) <= 1e-12
        assert abs(leak - leak_ref) <= 1e-12
        assert abs(link_peak_leakage(n_l, n_r_a, j, p, statistics) - peak_ref) <= 1e-12


@pytest.mark.parametrize(
    "statistics,n_l,n_r_a,j",
    SECTOR_LINK_CHANNELS,
    ids=[f"{s}-{n_l}-{n_r_a}-2j{2 * j}" for s, n_l, n_r_a, j in SECTOR_LINK_CHANNELS],
)
def test_factored_scan_matches_direct_scan(statistics, n_l, n_r_a, j):
    """The factored |a(t_k)| agrees with the direct scan and picks the same bracket."""
    for u in (25.0, 40.0, 50.0, 57.3, 100.0):
        p = gp.link_params(statistics, gp.LEFT_REPULSION_RATIO * u, u)
        evals, weights = link_spectrum(n_l, n_r_a, j, p, statistics)
        kept = weights >= 1e-20
        ts_ref, mags_ref = _direct_scan(evals[kept], weights[kept], T)
        ts, mags = gp._return_scan(evals[kept], weights[kept], p)
        assert np.array_equal(ts, ts_ref)
        assert np.abs(mags - mags_ref).max() <= 1e-12
        assert _bracket_indices(mags) == _bracket_indices(mags_ref)


@pytest.mark.parametrize("u", ["40", "57.3"])
def test_dynamics_dataset_golden_bytes(tmp_path, u):
    """`geophase-dynamics --statistics both` data.csv equals its frozen golden file.

    The golden files were written by
    `plaqgate geophase-dynamics --statistics both --u <u> --output-dir <dir>`
    and copied from <dir>/geophase-dynamics-*/data.csv to tests/golden/dynamics_u<u>.csv.
    """
    golden = pathlib.Path(__file__).parent / "golden" / f"dynamics_u{u}.csv"
    assert cli.run(["geophase-dynamics", "--statistics", "both", "--u", u,
                    "--output-dir", str(tmp_path)]) == 0
    (run_dir,) = tmp_path.iterdir()
    assert (run_dir / "data.csv").read_bytes() == golden.read_bytes()


def _dynamics(u, statistics, sector, out):
    """The `geophase-dynamics` run of one interaction scale into `out`."""
    return ["geophase-dynamics", "--statistics", statistics, "--sector", sector, "--u", u,
            "--output-dir", str(out)]


def _eigh_sizes(monkeypatch, runs):
    """Sorted sizes of every `np.linalg.eigh` call that the CLI runs make."""
    sizes, eigh = [], np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", recording)
        for argv in runs:
            assert cli.run(argv) == 0
    return sorted(sizes)


#: Sorted sizes of the 12 (statistics, N, S_z) blocks that one interaction scale solves
LINK_BLOCK_SIZES = [3, 3, 3, 6, 7, 9, 9, 9, 9, 18, 21, 36]


def test_one_link_solve_per_statistics_and_number(tmp_path, monkeypatch):
    """One eigensolve per (statistics, N, S_z) block in use at an interaction scale.

    The 12 blocks are boson (N, S_z) = (1, 1/2), (2, 0), (3, 1/2), (3, 3/2), (4, 0), (4, 1),
    (4, 2) and fermion (1, 1/2), (2, 0), (2, 1), (3, 1/2), (4, 0). The whole N spaces had
    6, 21, 50 and 90 (bosons) and 6, 15, 20 and 15 (fermions) states.
    """
    # the channel states are built once, at the first interaction scale
    assert cli.run(_dynamics("31.94", "both", "all", tmp_path)) == 0
    runs = [_dynamics("32.94", "both", "all", tmp_path)]
    assert _eigh_sizes(monkeypatch, runs) == LINK_BLOCK_SIZES
    # a `links` benchmark item: one run per (statistics, sector)
    per_sector = [_dynamics("33.94", stat, sector, tmp_path)
                  for stat in ("boson", "fermion") for sector in gp.SECTORS]
    assert _eigh_sizes(monkeypatch, per_sector) == LINK_BLOCK_SIZES


def test_shared_link_solves_keep_sector_rows(tmp_path):
    """Single-sector runs in shuffled order, interleaved with another u, give the golden rows."""
    points = [(stat, sector) for stat in ("boson", "fermion") for sector in gp.SECTORS]
    runs = itertools.count()
    for u, other in (("40", "57.3"), ("57.3", "40")):
        golden = (pathlib.Path(__file__).parent / "golden" / f"dynamics_u{u}.csv").read_bytes()
        shuffled = random.Random(u).sample(points, len(points))
        rows = {}
        for (stat, sector), (other_stat, other_sector) in zip(shuffled, shuffled[::-1]):
            out = tmp_path / str(next(runs))
            assert cli.run(_dynamics(u, stat, sector, out)) == 0
            assert cli.run(_dynamics(other, other_stat, other_sector, tmp_path / "other")) == 0
            (run_dir,) = out.iterdir()
            header, rows[stat, sector] = (run_dir / "data.csv").read_bytes().splitlines(True)
        assert header + b"".join(rows[point] for point in points) == golden


def test_refused_link_blocks_are_solved_once(tmp_path, monkeypatch):
    """At --u-l-aa 1e12 every block is refused, and the eight per-sector runs of a scale still
    solve each block once, as at any other scale: 12 `eigh` calls, where solving a refused
    block again for each channel and sector that reads it made 25. A row names its block and
    the rounding, not the parameter object."""
    assert cli.run(_dynamics("31.94", "both", "all", tmp_path)) == 0  # builds the channel states
    gp._link_pass.cache_clear()
    runs = [[*_dynamics("50", stat, sector, tmp_path / stat / sector), "--u-l-aa", "1e12"]
            for stat in gp.STATISTICS for sector in gp.SECTORS]
    assert _eigh_sizes(monkeypatch, runs) == LINK_BLOCK_SIZES
    (run_dir,) = (tmp_path / "fermion" / "SS").iterdir()
    (row,) = list(csv.DictReader((run_dir / "data.csv").open()))
    assert row["status"] == ("error: ValueError: ill-conditioned link spectrum, fermion N = 4: "
                             "eps max|E| = 0.000222 exceeds 1e-6 |t|")


def test_per_sector_error_rows_match_one_all_sector_run(tmp_path):
    """At --u-l-aa 1e12 every row is an error row. The eight per-sector runs of the scale,
    whose failing channels the link pass leaves uncached, write the bytes of one fresh
    `--sector all` run, messages included."""
    def data(argv, out):
        assert cli.run([*argv, "--u-l-aa", "1e12", "--output-dir", str(out)]) == 0
        (run_dir,) = out.iterdir()
        return (run_dir / "data.csv").read_bytes().splitlines(True)

    gp._link_pass.cache_clear()
    rows = [data(["geophase-dynamics", "--statistics", stat, "--sector", sector],
                 tmp_path / stat / sector)
            for stat in ("boson", "fermion") for sector in gp.SECTORS]
    gp._link_pass.cache_clear()
    every = data(["geophase-dynamics", "--statistics", "both", "--sector", "all"],
                 tmp_path / "all")
    assert len(every) == 9
    assert [every[0], *(row for _, row in rows)] == every
    assert all(header == every[0] for header, _ in rows)
    # each row holds the first error of its own sector's channels, taken one by one
    for row, (stat, sector) in zip(every[1:], itertools.product(gp.STATISTICS, gp.SECTORS)):
        p = gp.link_params(stat, 1e12, 50.0)
        with pytest.raises(ValueError) as first:
            for n_l, n_r_a, channels in gp.SECTOR_LINKS[stat][sector]:
                for j in channels:
                    gp.link_tunneling_phase(n_l, n_r_a, j, p, stat)
        assert row.rstrip().endswith(f',"error: ValueError: {first.value}"'.encode())


def test_second_sector_reads_the_link_pass(monkeypatch):
    """Once one sector of a (statistics, params) has run, the others solve nothing; the
    pass's figures of every channel equal, bit for bit, those of its block solved alone."""
    p = gp.link_params("fermion", gp.LEFT_REPULSION_RATIO * 44.4, 44.4)
    gp.tunneling_phase("SS", p, "fermion")
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", lambda *_: pytest.fail("a second sector solved"))
        for sector in ("ST", "TS", "TT"):
            gp.tunneling_phase(sector, p, "fermion")
        solved = [(channel, gp._link_pass("fermion", p)(*channel))
                  for stat, *channel in SECTOR_LINK_CHANNELS if stat == "fermion"]
    for (n_l, n_r_a, j), figures in solved:
        assert isinstance(figures, tuple)
        assert figures == gp._return_figures(*link_spectrum(n_l, n_r_a, j, p, "fermion"), p)


def test_public_link_function_reads_the_cli_link_pass(tmp_path, monkeypatch):
    """After `geophase-dynamics --statistics both` at a scale, `link_tunneling_phase` on every
    SECTOR_LINKS channel of that scale solves nothing, and returns the very channel figures
    that the sector rows were built from."""
    read, link_pass = {}, gp._link_pass

    def recording_pass(statistics, params):
        figures = link_pass(statistics, params)

        def recording(n_l, n_r_a, j):
            read[statistics, n_l, n_r_a, j] = figures(n_l, n_r_a, j)
            return read[statistics, n_l, n_r_a, j]
        return recording

    with monkeypatch.context() as patch:
        patch.setattr(gp, "_link_pass", recording_pass)
        assert cli.run(_dynamics("47.1", "both", "all", tmp_path)) == 0
    assert set(read) == set(SECTOR_LINK_CHANNELS)
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", lambda *_: pytest.fail("the public function solved"))
        for statistics, n_l, n_r_a, j in SECTOR_LINK_CHANNELS:
            p = gp.link_params(statistics, gp.LEFT_REPULSION_RATIO * 47.1, 47.1)
            figures = gp.link_tunneling_phase(n_l, n_r_a, j, p, statistics)
            assert figures == read[statistics, n_l, n_r_a, j]


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_link_hamiltonian_has_no_element_between_spin_z_blocks(statistics):
    """Each N-particle link Hamiltonian is real and S_z block diagonal; each channel state
    lies in the block 2 S_z = 2j that `_link_pass` solves for it."""
    p = gp.link_params(statistics, gp.LEFT_REPULSION_RATIO * 40.0, 40.0)
    for n in range(6 * gp.MODE_CAP[statistics] + 1):
        space = gp.TwoBandFockSpace(statistics, total_number=n)
        h = gp.onsite_hamiltonian(p, space) + gp.tunneling_hamiltonian(p, space)
        two_m = (2 * space.spin_z()).astype(int)
        assert h.dtype == np.float64 and np.all(h[two_m[:, None] != two_m] == 0.0)
        blocks = space.spin_z_blocks
        assert np.array_equal(np.sort(np.concatenate(list(blocks.values()))), np.arange(space.dim))
        assert all(np.all(two_m[block] == m) for m, block in blocks.items())
    for stat, n_l, n_r_a, j in SECTOR_LINK_CHANNELS:
        if stat == statistics:
            psi = gp._channel_state(statistics, n_l, n_r_a, j)
            block = gp._link_space(statistics, n_l + n_r_a).spin_z_blocks[int(2 * j)]
            assert psi.dtype == np.float64 and not np.delete(psi, block).any()
            assert abs(np.linalg.norm(psi[block]) - 1.0) <= 1e-15


@pytest.mark.parametrize("statistics", ["boson", "fermion"])
def test_return_figures_match_slope_root(statistics):
    """return_time, phase and leakage against scipy's root of d|a|^2/dt (`link_return_root`).

    Both search the same slope from the same eigenpairs, the program by Newton steps and
    the oracle by `brentq`. Over this grid (every second u from 20 to 120) the worst
    errors were 1.7e-14 relative in return_time and 4.4e-16 in phase (SkylakeX kernel).
    """
    for u in np.linspace(20.0, 120.0, 51):
        p = gp.link_params(statistics, gp.LEFT_REPULSION_RATIO * u, u)
        for stat, n_l, n_r_a, j in SECTOR_LINK_CHANNELS:
            if stat != statistics:
                continue
            t_ret, phase, leak = gp.link_tunneling_phase(n_l, n_r_a, j, p, statistics)
            t_root, phase_root, leak_root = link_return_root(n_l, n_r_a, j, p, statistics)
            assert abs(t_ret - t_root) <= 1e-12 * t_root
            assert abs(np.angle(np.exp(1j * (phase - phase_root)))) <= 1e-12
            assert abs(leak - leak_root) <= 1e-14


#: 40-digit link figures of every SECTOR_LINK_CHANNELS channel at u = 25.8, 40, 57.3 and
#: 106.1, written by `tests/make_truth.py` (mpmath) and read here without it
TRUTH = {(row["statistics"], int(row["n_L"]), int(row["n_R_a"]), Fr(row["j"]), row["u"]): row
         for row in csv.DictReader((pathlib.Path(__file__).parent / "golden"
                                    / "link_truth.csv").read_text().splitlines())}
#: Each figure lies within TRUTH_BOUND eps ||H|| t of the truth, ||H|| = max |E| of the channel's
#: S_z block and t its return time: an eigensolve resolves the energies to about eps ||H||, and
#: the phase takes that error over t. Largest seen: 6.0 (a phase), with complex full-N and real
#: S_z-block solves alike, on the SkylakeX, Haswell, Sandybridge and Prescott OpenBLAS kernels.
TRUTH_BOUND = 16.0
TRUTH_U_VALUES = ("25.8", "40", "57.3", "106.1")


def _truth(statistics, n_l, n_r_a, j, u):
    """(return_time, phase, leakage) of the truth table and the bound on each figure."""
    row = TRUTH[statistics, n_l, n_r_a, j, u]
    figures = tuple(float(row[k]) for k in ("return_time", "phase", "leakage"))
    return figures, TRUTH_BOUND * np.finfo(float).eps * float(row["block_norm"]) * figures[0]


def test_truth_table_covers_every_channel():
    assert set(TRUTH) == {(*channel, u) for channel in SECTOR_LINK_CHANNELS
                          for u in TRUTH_U_VALUES}


@pytest.mark.parametrize("u", TRUTH_U_VALUES)
def test_link_figures_lie_within_the_truth_bound(u):
    for statistics, n_l, n_r_a, j in SECTOR_LINK_CHANNELS:
        p = gp.link_params(statistics, gp.LEFT_REPULSION_RATIO * float(u), float(u))
        truth, bound = _truth(statistics, n_l, n_r_a, j, u)
        figures = gp.link_tunneling_phase(n_l, n_r_a, j, p, statistics)
        assert np.abs(np.subtract(figures, truth)).max() <= bound, (statistics, n_l, n_r_a, j)


@pytest.mark.parametrize("u", TRUTH_U_VALUES)
def test_sector_figures_lie_within_the_truth_bound(u):
    """Sector rows against the truth of their links, combined as `tunneling_phase` states:
    the channel of largest |phase| (the most positive where tied), phases added, the slowest
    return time, independent leakages. The bound is the sum of the links' bounds."""
    for statistics in gp.STATISTICS:
        p = gp.link_params(statistics, gp.LEFT_REPULSION_RATIO * float(u), float(u))
        for sector in gp.SECTORS:
            t_ret, phase, survival, bound = 0.0, 0.0, 1.0, 0.0
            for n_l, n_r_a, channels in gp.SECTOR_LINKS[statistics][sector]:
                outs = [_truth(statistics, n_l, n_r_a, j, u) for j in channels]
                largest = max(abs(figures[1]) for figures, _ in outs)
                figures, link_bound = max((out for out in outs
                                           if abs(out[0][1]) >= (1.0 - 1e-9) * largest),
                                          key=lambda out: out[0][1])
                t_ret, phase = max(t_ret, figures[0]), phase + figures[1]
                survival, bound = survival * (1.0 - figures[2]), bound + link_bound
            got = gp.tunneling_phase(sector, p, statistics)
            assert np.abs(np.subtract(got, (t_ret, phase, 1.0 - survival))).max() <= bound, (
                statistics, sector)


@pytest.mark.parametrize("u", [40.0, 57.3])
def test_boson_links_do_not_depend_on_the_mode_cap(u):
    """At the cap of 2, a hop into a full mode is dropped, so S^2 is not conserved at N >= 3;
    at a cap of 4 no hop of N <= 4 bosons is. Every boson channel's figures on the cap-4
    space lie within TRUTH_BOUND eps ||H|| t of the program's (||H|| = max |E| of its S_z
    block). Largest differences measured: 8.8e-14 in return time, 2.7e-13 in phase and 5.1e-15
    in leakage, against bounds of 3.5e-13 and up."""
    assert [Cap4FockSpace("boson", n).dim for n in (3, 4)] == [56, 126]
    p = gp.link_params("boson", gp.LEFT_REPULSION_RATIO * u, u)
    for statistics, n_l, n_r_a, j in SECTOR_LINK_CHANNELS:
        if statistics == "boson":
            figures = gp.link_tunneling_phase(n_l, n_r_a, j, p, statistics)
            evals, _ = link_spectrum(n_l, n_r_a, j, p, statistics)
            bound = TRUTH_BOUND * np.finfo(float).eps * np.abs(evals).max() * figures[0]
            got = cap4_link_figures(n_l, n_r_a, j, p)
            assert np.abs(np.subtract(got, figures)).max() <= bound, (n_l, n_r_a, j)


@pytest.mark.parametrize("u", [20.0, 25.8, 40.0, 57.3, 80.0, 106.1, 120.0])
def test_link_phases_lie_in_one_interval(u):
    """Every link phase lies in (-pi/2, 3pi/2]; a resonant link reads +pi, never -pi."""
    for statistics, n_l, n_r_a, j in SECTOR_LINK_CHANNELS:
        p = gp.link_params(statistics, gp.LEFT_REPULSION_RATIO * u, u)
        _, phase, _ = gp.link_tunneling_phase(n_l, n_r_a, j, p, statistics)
        assert -np.pi / 2 < phase <= 3 * np.pi / 2
        if (statistics, n_l, n_r_a) in {("boson", 1, 0), ("boson", 1, 1), ("fermion", 1, 2)}:
            assert abs(phase - np.pi) <= 1e-2


@pytest.mark.parametrize("u", [40.0, 57.3])
def test_tied_channels_keep_the_positive_phase(u, monkeypatch):
    """Fermion TT's two channels tie in |phase| with opposite signs; their order picks nothing."""
    p = gp.link_params("fermion", gp.LEFT_REPULSION_RATIO * u, u)
    figures = gp.tunneling_phase("TT", p, "fermion")
    assert figures[1] > 0.0
    ((n_l, n_r_a, channels), _) = gp.SECTOR_LINKS["fermion"]["TT"]
    for order in (channels, channels[::-1]):
        monkeypatch.setitem(gp.SECTOR_LINKS["fermion"], "TT", [(n_l, n_r_a, order)] * 2)
        assert gp.tunneling_phase("TT", p, "fermion") == figures
        # the negative phase larger by a rounding: the tie still keeps the positive one
        outs = {Fr(0): (0.1, -0.004, 0.0), Fr(1): (0.2, 0.004 * (1.0 - 1e-13), 0.0)}
        with monkeypatch.context() as patch:
            # the stubbed channel figures reach the tie-break through the link pass
            patch.setattr(gp, "_link_pass", lambda *_: lambda n_l, n_r_a, j: outs[j])
            assert gp.tunneling_phase("TT", p, "fermion") == (0.2, 0.008 * (1.0 - 1e-13), 0.0)


# ---------------------------------------------------------------------------
# Link dynamics: resonant pi phases, off-resonant suppression
# ---------------------------------------------------------------------------

def test_resonant_boson_link_phase():
    t_ret, phase, leak = gp.link_tunneling_phase(1, 0, Fr(1, 2), PB, "boson")
    assert abs(t_ret - np.pi / T) < 1e-3
    assert abs(abs(phase) - np.pi) < 1e-2
    assert leak < 1e-6


def test_resonant_fermion_link_phase():
    _, phase, _ = gp.link_tunneling_phase(1, 2, Fr(1, 2), PF, "fermion")
    assert abs(abs(phase) - np.pi) < 1e-2


def test_resonant_phase_independent_of_tunneling_rate():
    for tt in (0.5, 2.0):
        p = gp.OnsiteParams(delta=OMEGA, omega=OMEGA, u_l_aa=U0, u_r=U0, t=tt)
        t_ret, phase, _ = gp.link_tunneling_phase(1, 0, Fr(1, 2), p, "boson")
        assert abs(t_ret - np.pi / tt) < 1e-2
        assert abs(abs(phase) - np.pi) < 1e-2


def test_off_resonant_links_suppressed():
    _, phase, leak = gp.link_tunneling_phase(1, 1, Fr(1), PB, "boson")
    assert abs(phase) <= 0.1
    assert leak <= 4.0 * (T / (2.0 * U0)) ** 2 * 1.05
    for j in (Fr(0), Fr(1)):
        _, phase, _ = gp.link_tunneling_phase(1, 1, j, PF, "fermion")
        assert abs(phase) <= 0.1


@pytest.mark.parametrize("u", [25.0, 50.0, 100.0])
def test_peak_leakage_bound(u):
    # transient depletion of an off-resonant link obeys leak <= 4 n_L (t/dE)^2
    p = gp.OnsiteParams(delta=OMEGA, omega=OMEGA, u_l_aa=u, u_r=u, t=T)
    peak = link_peak_leakage(1, 1, Fr(1), p, "boson")
    assert peak <= 4.0 * (T / (2.0 * u)) ** 2 * 1.02


# ---------------------------------------------------------------------------
# Sector phases
# ---------------------------------------------------------------------------

def test_boson_sector_phase_pattern():
    _, ph_ss, _ = gp.tunneling_phase("SS", PB_TAB, "boson")
    assert abs(abs(ph_ss) - 2.0 * np.pi) < 2e-2
    _, ph_st, _ = gp.tunneling_phase("ST", PB_TAB, "boson")
    assert abs(abs(ph_st) - np.pi) < 0.15
    for sector in ("TS", "TT"):
        _, ph, _ = gp.tunneling_phase(sector, PB_TAB, "boson")
        assert abs(ph) < 0.15


def test_fermion_sector_phase_pattern():
    _, ph_ts, _ = gp.tunneling_phase("TS", PF_TAB, "fermion")
    assert abs(abs(ph_ts) - np.pi) < 0.15
    for sector in ("SS", "ST", "TT"):
        _, ph, _ = gp.tunneling_phase(sector, PF_TAB, "fermion")
        assert abs(ph) < 0.15


def test_unknown_sector_rejected():
    with pytest.raises(ValueError):
        gp.tunneling_phase("XX", PB_TAB, "boson")


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

def test_rwa_validity_warning():
    with pytest.warns(gp.RWAValidityWarning) as record:
        gp.OnsiteParams(delta=0.0, omega=100.0, u_l_aa=1.0, u_r=50.0, t=1.0)
    assert record[0].filename == __file__


@pytest.mark.parametrize("statistics, surplus", [("boson", 0.0), ("fermion", 30.0)])
def test_link_params_convention(statistics, surplus):
    # omega = max(20 U_R^ab, 1), t = 1, u_r = U_R^ab, resonant bias
    assert gp.link_params(statistics, 77.3, 30.0) == gp.OnsiteParams(
        delta=600.0 + surplus, omega=600.0, u_l_aa=77.3, u_r=30.0, t=1.0)
    assert gp.link_params(statistics, 77.3, 30.0, -5.0).delta == 595.0
    assert gp.link_params(statistics, 1.0, 0.01).omega == 1.0  # the floor of a weak link


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", [f.name for f in fields(gp.OnsiteParams)])
def test_onsite_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match="link energies must be finite"):
        replace(PB, **{name: value})


def test_delta_property():
    # Delta = mu_L - mu_R with mu_R = 0: the ledger's bias surplus is Delta - omega
    assert PB.delta == OMEGA and PF.delta - PF.omega == U0
