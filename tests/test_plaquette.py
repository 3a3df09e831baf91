"""Plaquette states, spectrum, logical encoding, and preparation pulses."""
from __future__ import annotations

import numpy as np
import pytest
from oracles import logical_columns, logical_restriction, total_spin

from plaqgate.geophase import (
    L_DN,
    L_UP,
    RA_DN,
    RA_UP,
    RB_DN,
    RB_UP,
    TwoBandFockSpace,
    _two_site_setup,
    superexchange_hubbard_check,
)
from plaqgate.plaquette import (
    AXIS_C,
    AXIS_H,
    AXIS_V,
    THETA_H,
    THETA_V,
    PlaquetteCouplings,
    heisenberg_plaquette,
    logical_basis,
    plaquette_spectrum,
    prepare_plus,
    rotation_step_bound,
    singlet_pair,
)
from plaqgate.spincore import plaquette_register, unitary_evolve


# ---------------------------------------------------------------------------
# Singlet-pair states and the logical basis
# ---------------------------------------------------------------------------

def test_singlet_pair_overlap():
    reg = plaquette_register()
    psi_h = singlet_pair(reg, "1", "2", rest_pair=("3", "4"))
    psi_v = singlet_pair(reg, "2", "3", rest_pair=("4", "1"))
    # the two dimer coverings of the plaquette are not orthogonal
    assert abs(np.vdot(psi_h, psi_v) - 0.5) < 1e-12


def test_singlet_pair_antisymmetry():
    reg = plaquette_register()
    a = singlet_pair(reg, "1", "2", rest_pair=("3", "4"))
    b = singlet_pair(reg, "2", "1", rest_pair=("3", "4"))
    np.testing.assert_allclose(a, -b, atol=1e-14)


@pytest.mark.parametrize("pair", [(i, j) for i in "1234" for j in "1234" if i != j])
def test_singlet_pair_is_kron_of_two_site_singlets(pair):
    reg = plaquette_register()
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)  # (|up dn> - |dn up>)/sqrt2
    i, j = pair
    rest = [s for s in reg.site_labels if s not in pair]
    for k, l in (rest, rest[::-1]):
        # axes of the kron product are (i, j, k, l), the first one most significant
        tensor = np.kron(singlet, singlet).reshape(2, 2, 2, 2)
        # the register's amplitude index puts its last site on the most significant axis
        order = [(i, j, k, l).index(s) for s in reversed(reg.site_labels)]
        want = tensor.transpose(order).reshape(-1)
        np.testing.assert_allclose(singlet_pair(reg, i, j, rest_pair=(k, l)), want, atol=1e-15)


@pytest.mark.parametrize("i,j,rest_pair", [("1", "1", ("3", "4")), ("1", "2", ("2", "3")),
                                           ("1", "2", ("3", "3")), ("1", "2", ("3", "5"))])
def test_singlet_pair_rejects_pairs_that_do_not_partition(i, j, rest_pair):
    with pytest.raises(ValueError, match="partition"):
        singlet_pair(plaquette_register(), i, j, rest_pair=rest_pair)


def test_logical_basis_geometry():
    basis = logical_basis()
    for vec in (basis.ket0, basis.ket1, basis.ket_box):
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    assert abs(np.vdot(basis.ket0, basis.ket1)) < 1e-12
    # |box> = (psi_H + psi_V)/sqrt3 decomposes as sqrt3/2 |0> + 1/2 |1>
    assert abs(np.vdot(basis.ket0, basis.ket_box) - np.sqrt(3.0) / 2.0) < 1e-12
    assert abs(np.vdot(basis.ket1, basis.ket_box) - 0.5) < 1e-12
    # |cross> = psi_H - psi_V is orthogonal to |box> and unnormalized (norm 1)
    assert abs(np.vdot(basis.ket_box, basis.ket_cross)) < 1e-12


def test_dfs_annihilation():
    # any uniform field annihilates the logical states: B.(sum of spins)|psi> = 0
    basis = logical_basis()
    reg = plaquette_register()
    rng = np.random.default_rng(5)
    field = rng.normal(size=3)
    op = sum(b * s for b, s in zip(field, total_spin(reg)))
    for vec in (basis.ket0, basis.ket1):
        assert np.linalg.norm(op @ vec) < 1e-12


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def test_spectrum_reference_point():
    spec = plaquette_spectrum(1.0, 0.2)
    np.testing.assert_allclose(spec.singlets, [-3.2, 3.2], atol=1e-12)
    np.testing.assert_allclose(spec.triplets, [0.8, 4.0, 4.0], atol=1e-12)
    assert abs(spec.quintet - 8.8) < 1e-12
    # singlet splitting 8(J - d) sets the gate clock
    assert abs(spec.singlets[1] - spec.singlets[0] - 6.4) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_spectrum_random_couplings(seed):
    rng = np.random.default_rng(seed)
    j = rng.uniform(0.5, 2.0)
    d = rng.uniform(0.05, 0.95) * j
    spec = plaquette_spectrum(j, d)
    np.testing.assert_allclose(
        spec.singlets, [-4.0 * (j - d), 4.0 * (j - d)], atol=1e-10
    )
    np.testing.assert_allclose(spec.triplets, sorted([4.0 * d, 4.0 * j, 4.0 * j]), atol=1e-10)
    assert abs(spec.quintet - 4.0 * (2.0 * j + d)) < 1e-10


@pytest.mark.parametrize("j, d", [(1.0, -1.0), (1.0, -0.5), (1.0, 0.0), (1.0, 0.5), (1.0, 2.0),
                                  (0.0, 0.0), (1.0, 0.5 + 1e-10), (1.0, 0.5 - 1e-10),
                                  (1.0, -1.0 + 1e-10), (1.0, -1.0 - 1e-10)])
def test_spectrum_at_level_crossings(j, d):
    # levels of different total spin coincide here, where eigh may mix their vectors; 1e-10
    # off a crossing the levels differ by 8e-10, inside one cluster, and keep their spins
    spec = plaquette_spectrum(j, d)
    np.testing.assert_allclose(spec.singlets, sorted([-4.0 * (j - d), 4.0 * (j - d)]),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(spec.triplets, sorted([4.0 * j, 4.0 * j, 4.0 * d]),
                               rtol=0, atol=1e-12)
    assert abs(spec.quintet - 4.0 * (2.0 * j + d)) <= 1e-12


@pytest.mark.parametrize("d", [1e-10, -1e-10, 1e10, 1e300])
def test_spectrum_rejects_unresolved_couplings(d):
    # eps max|E| exceeds 1e-6 of the smaller coupling; at d = 1e20 a 4J level would read -196608
    with pytest.raises(ValueError, match="are not resolved"):
        plaquette_spectrum(1.0, d)


def test_spectrum_offset_convention():
    # raw exchange eigenvalues are shifted by 4J + 2d so the quoted levels
    # match the constant-free convention
    spec = plaquette_spectrum(1.3, 0.4)
    assert abs(spec.offset - (4 * 1.3 + 2 * 0.4)) < 1e-12


# ---------------------------------------------------------------------------
# Logical subspace preservation and restriction
# ---------------------------------------------------------------------------

def test_hamiltonian_preserves_logical_subspace():
    basis = logical_basis()
    h = heisenberg_plaquette(PlaquetteCouplings.diag(1.0, 0.2))
    p = basis.logical_projector
    # H maps the two-singlet subspace to itself (it commutes with total spin)
    iso = logical_columns(basis)
    residual = (np.eye(16) - p) @ h @ iso
    assert np.linalg.norm(residual) < 1e-10


def test_logical_restriction_of_rect_hamiltonian():
    # -J_H on (12),(34) restricts to 2 J_H (1 + AXIS_H . sigma) up to 1e-12
    h = heisenberg_plaquette(PlaquetteCouplings.rect(1.0, 0.0))
    r = logical_restriction(h)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    expected = 2.0 * np.eye(2) + 4.0 * (AXIS_H.x * sx + AXIS_H.z * sz)
    np.testing.assert_allclose(r, expected, atol=1e-12)


def test_restriction_axes_are_unit_and_at_120_degrees():
    for ax in (AXIS_H, AXIS_V, AXIS_C):
        assert abs(ax.dot(ax) - 1.0) < 1e-12
    assert abs(AXIS_H.dot(AXIS_V) - (-0.5)) < 1e-12


# ---------------------------------------------------------------------------
# Preparation pulses
# ---------------------------------------------------------------------------

def test_prepare_plus_two_step():
    basis = logical_basis()
    target = (basis.ket0 + basis.ket1) / np.sqrt(2.0)
    psi = prepare_plus(mode="two_step")
    assert abs(np.vdot(target, psi)) ** 2 >= 1.0 - 1e-10


def test_prepare_plus_stays_in_logical_subspace():
    basis = logical_basis()
    psi = prepare_plus(mode="two_step")
    assert np.linalg.norm(psi - basis.logical_projector @ psi) < 1e-12


def test_prepare_plus_rotation_angles():
    assert abs(THETA_H - np.arcsin(np.sqrt(2.0 / 3.0))) < 1e-15
    assert abs(THETA_V - (np.pi - np.arcsin(np.sqrt(2.0 / 3.0))) / 2.0) < 1e-15


def test_prepare_plus_zero_angle_is_identity():
    basis = logical_basis()
    psi = prepare_plus(mode="two_step", angle_scale=0.0)
    np.testing.assert_allclose(psi, basis.ket0, atol=1e-14)


def test_prepare_plus_bad_mode():
    with pytest.raises(ValueError):
        prepare_plus(mode="diagonal")


def test_rotation_step_bound_orthogonal_axes():
    # eta = pi/2 gives m = pi/2, k = 1, so any rotation needs at most 3 pulses
    from plaqgate.plaquette import BlochAxis

    assert rotation_step_bound(BlochAxis(1.0, 0.0, 0.0), AXIS_V) == 3


def test_rotation_step_bound_plaquette_axes():
    # AXIS_H and AXIS_V are 120 degrees apart: m = pi/3, k = 2, bound 4;
    # AXIS_V and AXIS_C are 45 degrees apart: m = pi/4, k = 3, bound 5
    assert rotation_step_bound(AXIS_H, AXIS_V) == 4
    assert rotation_step_bound(AXIS_V, AXIS_C) == 5


def test_rotation_step_bound_collinear_rejected():
    with pytest.raises(ValueError):
        rotation_step_bound(AXIS_H, AXIS_H)


# ---------------------------------------------------------------------------
# Two-site Hubbard superexchange oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize("t_over_u", [0.02, 0.05])
def test_hubbard_gap_matches_superexchange(statistics, t_over_u):
    gap, ref = superexchange_hubbard_check(t_over_u, statistics)
    assert ref == pytest.approx(4.0 * t_over_u**2)
    assert abs(gap - ref) <= 5.0 * t_over_u**2


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize("t_over_u", [0.005, 0.02, 0.1])
def test_hubbard_gap_is_exact(statistics, t_over_u):
    # the two-site singlet-triplet gap in closed form, (sqrt(U^2 + 16 t^2) - U)/2
    gap, _ = superexchange_hubbard_check(t_over_u, statistics)
    assert abs(gap - (np.sqrt(1.0 + 16.0 * t_over_u**2) - 1.0) / 2.0) < 1e-12


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
def test_two_site_setup_is_cached_read_only(statistics):
    setup = _two_site_setup(statistics)
    assert _two_site_setup(statistics) is setup
    for arr in setup:
        with pytest.raises(ValueError, match="read-only"):
            arr += 0


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
def test_two_site_setup_matches_own_space(statistics):
    # the shared N = 2 link space and its S^2 give the arrays of a space of the two sites' own
    space = TwoBandFockSpace(statistics, total_number=2)
    keep = np.flatnonzero(space.occupation(RB_UP, RB_DN) == 0)
    hop = space.operator([(1.0, [(L_UP, +1), (RA_UP, -1)]), (1.0, [(L_DN, +1), (RA_DN, -1)])])
    s2 = space.total_spin_squared(((L_UP, L_DN), (RA_UP, RA_DN)))
    n0, n1 = space.occupation(L_UP, L_DN)[keep], space.occupation(RA_UP, RA_DN)[keep]
    own = (0.5 * (n0 * (n0 - 1) + n1 * (n1 - 1)), hop[np.ix_(keep, keep)].real,
           s2[np.ix_(keep, keep)])
    for arr, ref in zip(_two_site_setup(statistics), own, strict=True):
        assert arr.dtype == ref.dtype and np.array_equal(arr, ref)


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize("t", [0.005, 0.0372, 0.095])
def test_two_site_unit_hop_scales_exactly(statistics, t):
    # the hop built with coefficient -t equals -t times the cached unit hop, bit for bit
    space = TwoBandFockSpace(statistics, total_number=2)
    keep = np.flatnonzero(space.occupation(RB_UP, RB_DN) == 0)
    hop = space.operator([(-t, [(L_UP, +1), (RA_UP, -1)]), (-t, [(L_DN, +1), (RA_DN, -1)])])
    assert np.array_equal(hop[np.ix_(keep, keep)].real, -t * _two_site_setup(statistics)[1])


def test_hubbard_rejects_unknown_statistics():
    with pytest.raises(ValueError):
        superexchange_hubbard_check(0.02, "anyon")


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
@pytest.mark.parametrize("t", [0.0, -0.5, float("nan"), 1e-9, 1e-300])
def test_hubbard_rejects_t_outside_superexchange_regime(statistics, t):
    # t = 0 has no gap to compare; |t|/U = 0.5 is far from superexchange; NaN is neither;
    # at 1e-9 the gap is rounding noise (rel_error 0.50), and at 1e-300 4t^2/U underflows
    with pytest.raises(ValueError, match="t/U"):
        superexchange_hubbard_check(t, statistics)


@pytest.mark.parametrize("statistics", ["fermion", "boson"])
def test_hubbard_check_is_even_in_t(statistics):
    assert superexchange_hubbard_check(-0.02, statistics) == superexchange_hubbard_check(
        0.02, statistics)


def test_exchange_pulse_leaves_total_spin_invariant():
    # exchange generators commute with every total-spin component
    reg = plaquette_register()
    h = heisenberg_plaquette(PlaquetteCouplings.rect(0.7, 0.3))
    u = unitary_evolve(h, 0.53)
    for comp in total_spin(reg):
        assert np.linalg.norm(u.conj().T @ comp @ u - comp) < 1e-10
