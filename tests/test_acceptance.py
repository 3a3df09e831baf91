"""End-to-end acceptance runs: one test per headline result, at stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get a pass/fail line per
item. Each test also enforces its wall-clock budget where one is stated.

Two clauses fail by design and are left failing. The exact echoed two-qubit
gate cannot reach F >= 0.98 at coupling ratio J'/J = 0.1: a third-order
logical phase drift (linear in J'/J at fixed d/J) caps the fidelity near
0.973 on the shadow band and 0.896 at the (1,1) phase-matched ratio. The
0.98 level is met at J'/J = 0.05 and below. The two red tests assert the
0.98 level anyway rather than encode the measured ceiling.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest
from oracles import logical_columns, span_contains
from scipy.optimize import brentq

from plaqgate import cli, geophase, optctrl, pertgate, plaquette
from plaqgate.spincore import pauli_vector, plaquette_register

# frozen reference values, derived once and pinned
COEFF_ROOT = 0.603501914027303  # lambda_z(r) = 1/8
SHADOW_BAND = np.round(np.arange(0.18, 0.42 + 1e-9, 0.01), 10)

# generic interaction values for the tunneling ledgers: the left repulsion is
# chosen off the accidental zeros that all-equal couplings would produce
U0 = 50.0
OMEGA = 600.0
U_L_AA = 77.3


def _geo_params(bias_surplus: float) -> geophase.OnsiteParams:
    return geophase.OnsiteParams(
        mu_l=OMEGA + bias_surplus, mu_r=0.0, omega=OMEGA,
        u_l_aa=U_L_AA, u_r_aa=U0, u_r_bb=U0, u_r_ab=U0, t=1.0,
    )


# ---------------------------------------------------------------------------
# 1. Plaquette spectrum: closed-form eigenvalues for 100 random couplings
# ---------------------------------------------------------------------------

def test_01_plaquette_spectrum_closed_form():
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    for _ in range(100):
        j = rng.uniform(0.1, 2.0)
        d = j * rng.uniform(0.05, 0.95)
        spec = plaquette.plaquette_spectrum(j, d)  # validates 1+1/3+3+3/5 counts
        np.testing.assert_allclose(
            spec.singlets, [-4 * (j - d), 4 * (j - d)], atol=1e-10)
        np.testing.assert_allclose(spec.triplets, [4 * d, 4 * j, 4 * j], atol=1e-10)
        assert abs(spec.quintet - 4 * (2 * j + d)) < 1e-10
        # full 16-level multiset straight from the dense Hamiltonian
        h = plaquette.heisenberg_plaquette(plaquette.PlaquetteCouplings.diag(j, d))
        expected = np.sort(np.concatenate([
            [-4 * (j - d)], [4 * d] * 3, [4 * j] * 6,
            [4 * (j - d)], [4 * (2 * j + d)] * 5,
        ]) - spec.offset)
        np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-10)
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. Effective coupling coefficients: the lambda_z = 1/8 crossing and r = 1
# ---------------------------------------------------------------------------

def test_02_coefficient_root_and_values():
    root = brentq(
        lambda r: pertgate.effective_coeffs(1.0, r).lambda_z - 0.125, 0.55, 0.65,
        xtol=1e-13,
    )
    assert abs(root - COEFF_ROOT) < 1e-9
    c = pertgate.effective_coeffs(1.0, 1.0)
    assert abs(c.lambda_z - 1.0 / 12.0) < 1e-12
    assert abs(c.gamma_z - (-1.0 / 12.0)) < 1e-12


# ---------------------------------------------------------------------------
# 3. Echoed-gate fidelity sweep over d/J at J'/J in {0.05, 0.1, 0.2}
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fidelity_traces():
    t0 = time.monotonic()
    d_values = pertgate.default_sweep_grid()
    traces = {}
    for jp in (0.05, 0.1, 0.2):
        rows = pertgate.sweep(d_values, [jp])
        traces[jp] = {round(r["d_over_J"], 10): r["F"] for r in rows}
    return traces, time.monotonic() - t0


def test_03a_shadow_fidelity_at_jp_005(fidelity_traces):
    traces, elapsed = fidelity_traces
    assert elapsed < 300.0
    f = traces[0.05]
    assert all(f[d] >= 0.98 for d in SHADOW_BAND)
    # the band is the largest contiguous achievable region: it covers
    # [0.20, 0.40] and stays inside [0.12, 0.48]
    achievable = sorted(d for d, v in f.items() if v >= 0.98)
    runs, current = [], [achievable[0]]
    for d in achievable[1:]:
        if round(d - current[-1], 10) <= 0.0101:
            current.append(d)
        else:
            runs.append(current)
            current = [d]
    runs.append(current)
    band = max(runs, key=len)
    assert band[0] <= 0.20 and band[-1] >= 0.40
    assert band[0] >= 0.12 and band[-1] <= 0.48


def test_03a_shadow_fidelity_at_jp_010(fidelity_traces):
    # fails by design: the measured ceiling at J'/J = 0.1 is ~0.9734
    traces, _ = fidelity_traces
    f = traces[0.1]
    worst = min(f[d] for d in SHADOW_BAND)
    assert worst >= 0.98, f"max shadow-band fidelity at J'/J = 0.1 is {max(f[d] for d in SHADOW_BAND):.4f}, min {worst:.4f}"


def test_03b_fidelity_minima_locations(fidelity_traces):
    traces, _ = fidelity_traces
    f = traces[0.05]
    ds = sorted(f)
    fs = np.array([f[d] for d in ds])

    def deepest_minimum_near(center: float, half_width: float = 0.04) -> float:
        idx = [
            i for i in range(1, len(ds) - 1)
            if abs(ds[i] - center) <= half_width
            and fs[i] < fs[i - 1] and fs[i] < fs[i + 1]
        ]
        assert idx, f"no local minimum within {half_width} of {center}"
        return ds[min(idx, key=lambda i: fs[i])]

    for feature in (0.5, COEFF_ROOT):
        loc = deepest_minimum_near(feature)
        assert abs(loc - feature) <= 0.0301, (feature, loc)


def test_03c_fidelity_monotone_in_coupling(fidelity_traces):
    traces, _ = fidelity_traces
    for d in SHADOW_BAND:
        assert traces[0.05][d] >= traces[0.1][d] >= traces[0.2][d]


# ---------------------------------------------------------------------------
# 4. Phase-matched ratios for (n, m) = (1, 1) and (3, 4)
# ---------------------------------------------------------------------------

def test_04a_allowed_points_satisfy_both_conditions():
    t0 = time.monotonic()
    found = {}
    for n, m in ((1, 1), (3, 4)):
        ratios = pertgate.allowed_ratios(n, m)
        assert ratios and all(0.0 < r < 1.0 for r in ratios)
        for r in ratios:
            p = pertgate.PertParams(j=1.0, d=r, jp=0.1, n=n, m=m)
            t_c = pertgate.gate_time(p)
            c = pertgate.effective_coeffs(p.j, p.d)
            phi_zz = p.jp**2 * (c.lambda_z - 0.125) * t_c
            phi_heis = p.jp**2 / 8.0 * t_c
            assert abs(phi_zz - (2 * n - 1) * np.pi / 4.0) < 1e-8
            assert abs(phi_heis - m * np.pi / 2.0) < 1e-8
        found[(n, m)] = ratios
    assert any(abs(r - 0.45751286149024967) < 1e-10 for r in found[(1, 1)])
    assert any(abs(r - 0.43420855078697207) < 1e-10 for r in found[(3, 4)])
    assert time.monotonic() - t0 < 60.0


def test_04b_allowed_point_fidelity_at_jp_010():
    # fails by design: measured 0.896 at (1,1) and 0.250 at (3,4)
    fids = {}
    for n, m in ((1, 1), (3, 4)):
        r = pertgate.allowed_ratios(n, m)[0]
        report = pertgate.gate_fidelity(pertgate.PertParams(j=1.0, d=r, jp=0.1, n=n, m=m))
        fids[(n, m)] = report.fidelity
    assert all(f >= 0.98 for f in fids.values()), f"measured {fids}"


# ---------------------------------------------------------------------------
# 5. Lie closure of the five experimental controls
# ---------------------------------------------------------------------------

def test_05_lie_closure_dimension_and_product_membership():
    t0 = time.monotonic()
    ops = optctrl.control_operators()
    rows = optctrl.lie_closure(ops)
    assert len(rows) == 80
    assert span_contains(rows, ops[0] @ ops[1])
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 6. Pulse optimization to the entangling gate, plus the gradient check
# ---------------------------------------------------------------------------

def test_06_optimization_and_gradient_check():
    t0 = time.monotonic()
    result = optctrl.optimize(6)  # K = 5 controls, L = 20 harmonics
    assert result.infidelity <= 1e-5
    assert result.restarts_used <= 10
    # achieved 9.9e-08 in calibration; record when the tighter level is met
    print(f"achieved infidelity {result.infidelity:.3e}"
          f" (reached 1e-7: {result.infidelity <= 1e-7})")

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        pulse = optctrl.PulseParams(optctrl._draw_start(rng, 20), 1.0)
        worst = max(worst, optctrl.gradient_check(pulse, steps=250))
    assert worst <= 1e-5
    assert time.monotonic() - t0 < 1800.0


# ---------------------------------------------------------------------------
# 7. Robustness of the optimized pulse under global coupling miscalibration
# ---------------------------------------------------------------------------

def test_07_robustness_plateau_and_quadratic_slope():
    # 1 - F(delta) ~ eps0 + C delta^2 with eps0 ~ 2e-6, because the descent
    # is stopped at 2e-6. C depends on which optimum L-BFGS reaches, and that
    # depends on the numpy/BLAS build: converged endpoints give C from 16 to
    # 71. The plateau bounds hold for any C < 200, since C * 1e-8 < eps0.
    # The exponent is fitted over 1e-3 <= delta <= 1e-2, where 1 - F stays
    # below 1e-2. Above that the law saturates (1 - F reaches 0.13-0.5 at
    # delta = 0.1) and a fit over 1e-2..1e-1 gives 1.85-1.95. The growth above
    # eps0 is fitted, since eps0 is up to 13% of it at delta = 1e-3.
    result = optctrl.optimize(6, restarts=1, target_eps=2e-6)
    pulse = optctrl.PulseParams(result.x_final, 1.0)
    deltas = [0.0, 1e-5, 1e-4] + list(10.0 ** np.linspace(-3.0, -2.0, 5))
    infs = optctrl.robustness_sweep(pulse, deltas)
    baseline = infs[0]
    assert baseline <= 1e-5
    assert infs[1] <= 2.0 * baseline
    assert infs[2] <= 2.0 * baseline
    growth = np.asarray(infs[3:]) - baseline
    slope = np.polyfit(np.log10(deltas[3:]), np.log10(growth), 1)[0]
    assert 1.9 <= slope <= 2.1, f"slope {slope:.3f}"


# ---------------------------------------------------------------------------
# 8. Tunneling energy ledgers: bit-exact golden files, exact resonant sets
# ---------------------------------------------------------------------------

def test_08_ledger_golden_files_and_resonant_sets(tmp_path):
    import pathlib

    golden_dir = pathlib.Path(__file__).parent / "golden"
    for stat in ("boson", "fermion"):
        out = tmp_path / stat
        assert cli.run(["geophase-table", "--statistics", stat, "--output-dir", str(out)]) == 0
        (run_dir,) = out.iterdir()
        data = (run_dir / "data.csv").read_bytes()
        assert data == (golden_dir / f"{stat}_ledger.csv").read_bytes()

    boson = geophase.resonance_table(_geo_params(0.0), "boson")
    resonant = {
        (e.config.n_l, e.config.n_r_a, e.config.j_r)
        for e in boson if e.resonant_at_bias
    }
    assert resonant == {(1, 0, Fraction(1, 2)), (1, 1, Fraction(0))}

    fermion = geophase.resonance_table(_geo_params(U0), "fermion")
    resonant = {(e.config.n_l, e.config.n_r_a) for e in fermion if e.resonant_at_bias}
    assert resonant == {(1, 2)}


# ---------------------------------------------------------------------------
# 9. Return-phase dynamics at U/t = 50
# ---------------------------------------------------------------------------

def test_09_sector_return_phases_and_leakage():
    params = _geo_params(0.0)
    phases, leaks = {}, {}
    for sector in geophase.SECTORS:
        _, phases[sector], leaks[sector] = geophase.tunneling_phase(
            sector, params, "boson")
    # one resonant link: return phase pi; two: phases add to 2 pi
    assert abs(phases["ST"] - np.pi) <= 1e-2
    assert abs(phases["SS"] - 2.0 * np.pi) <= 2e-2
    # off-resonant sectors: small phase, leakage below 4 n_L (t / dE1)^2
    # evaluated at the narrowest off-resonant gap of the ledger
    gaps = [
        abs(float(e.c1) * U_L_AA + float(e.c2) * U0)
        for e in geophase.resonance_table(params, "boson")
        if not e.resonant_at_bias
    ]
    bound = 8.0 * (1.0 / min(gaps)) ** 2
    for sector in ("TS", "TT"):
        assert abs(phases[sector]) <= 0.1
        assert leaks[sector] <= bound


# ---------------------------------------------------------------------------
# 10. Two-band spin-operator identity on the truncated particle space
# ---------------------------------------------------------------------------

def test_10_schwinger_identity_residual():
    residual = geophase.schwinger_identity_check(geophase.TwoBandFockSpace("boson"))
    assert residual <= 1e-12


# ---------------------------------------------------------------------------
# 11. Logical-subspace properties and the superexchange cross-check
# ---------------------------------------------------------------------------

def test_11_subspace_properties_and_hubbard_gap():
    basis = plaquette.logical_basis()
    reg = plaquette_register()

    # uniform fields annihilate the logical states
    rng = np.random.default_rng(5)
    field = rng.standard_normal(3)
    total = sum(
        f * component
        for site in reg.site_labels
        for f, component in zip(field, pauli_vector(reg, site))
    )
    for ket in (basis.ket0, basis.ket1):
        assert np.linalg.norm(total @ ket) <= 1e-12

    # exchange couplings never leave the two-dimensional subspace
    iso = logical_columns(basis)
    proj = basis.logical_projector
    for seed in range(3):
        draws = np.random.default_rng(seed).uniform(0.1, 1.0, size=6)
        h = plaquette.heisenberg_plaquette(plaquette.PlaquetteCouplings(*draws))
        assert np.linalg.norm((np.eye(16) - proj) @ h @ iso) <= 1e-10

    # pulse preparation of the logical |+>
    plus = (basis.ket0 + basis.ket1) / np.sqrt(2.0)
    for mode in ("two_step", "one_step"):
        state = plaquette.prepare_plus(mode=mode)
        assert abs(np.vdot(plus, state)) ** 2 >= 1.0 - 1e-10

    # two-site superexchange gap against 4 t^2 / U
    for stat in ("boson", "fermion"):
        for t_over_u in (0.02, 0.05):
            gap, ref = plaquette.superexchange_hubbard_check(t_over_u, 1.0, stat)
            assert abs(gap - ref) <= 5.0 * t_over_u**2
