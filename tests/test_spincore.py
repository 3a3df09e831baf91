"""Operator algebra and convention checks for the dense spin-1/2 core."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from oracles import total_spin

from plaqgate.optctrl import control_register
from plaqgate.plaquette import PlaquetteBasis, logical_basis
from plaqgate.spincore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SpinRegister,
    eig_hermitian,
    pauli_dot,
    pauli_site,
    plaquette_register,
    superplaquette_register,
    total_spin_squared,
    unitary_evolve,
)


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X, 2j * PAULI_Z)
    for p in (PAULI_X, PAULI_Y, PAULI_Z):
        assert np.allclose(p @ p, np.eye(2))
        assert np.allclose(p, p.conj().T)


def test_register_shapes_and_indexing():
    reg = SpinRegister(("a", "b", "c"))
    assert reg.dim == 8
    # first label is the least-significant bit: flipping "a" on |000> maps
    # index 0 to index 1
    x_a = pauli_site(reg, "a", "x")
    state = np.zeros(8)
    state[0] = 1.0
    assert np.argmax(np.abs(x_a @ state)) == 1
    x_c = pauli_site(reg, "c", "x")
    assert np.argmax(np.abs(x_c @ state)) == 4


def test_register_rejects_duplicates_and_bad_sizes():
    with pytest.raises(ValueError):
        SpinRegister(("a", "a"))
    with pytest.raises(ValueError):
        SpinRegister(tuple(str(i) for i in range(9)))


def test_singlet_is_exchange_eigenstate():
    reg = SpinRegister(("1", "2"))
    dot = pauli_dot(reg, "1", "2")
    # |01> - |10> with site "1" the least-significant bit
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1.0 / np.sqrt(2.0)
    singlet[2] = -1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(dot @ singlet, -3.0 * singlet, atol=1e-14)


def test_total_spin_squared_two_sites():
    reg = SpinRegister(("1", "2"))
    s2 = total_spin_squared(reg)
    vals = np.sort(eig_hermitian(s2).eigenvalues)
    # 4 S(S+1) in Pauli convention: singlet 0, triplet 8
    np.testing.assert_allclose(vals, [0.0, 8.0, 8.0, 8.0], atol=1e-12)


_BASIS_FIELDS = [f.name for f in dataclasses.fields(PlaquetteBasis)]


@pytest.mark.parametrize(
    "cached",
    [
        lambda: pauli_dot(plaquette_register(), "1", "3"),
        lambda: total_spin_squared(plaquette_register()),
        *(lambda name=name: getattr(logical_basis(), name) for name in _BASIS_FIELDS),
    ],
    ids=["pauli_dot", "total_spin_squared", *(f"logical_basis_{n}" for n in _BASIS_FIELDS)],
)
def test_cached_operators_are_read_only(cached):
    arr = cached()
    assert cached() is arr
    with pytest.raises(ValueError, match="read-only"):
        arr += 0


REGISTERS = [SpinRegister(("1", "2")), plaquette_register(), superplaquette_register(),
             control_register()]
REGISTER_IDS = ["pair", "plaquette", "superplaquette", "control"]


@pytest.mark.parametrize("reg", REGISTERS, ids=REGISTER_IDS)
def test_pauli_dot_is_sum_of_pauli_products(reg):
    # the textbook form sum_a s_i^a s_j^a, entry for entry
    for i in reg.site_labels:
        for j in reg.site_labels:
            if i != j:
                want = sum(pauli_site(reg, i, a) @ pauli_site(reg, j, a) for a in "xyz")
                assert np.array_equal(pauli_dot(reg, i, j), want), (i, j)


@pytest.mark.parametrize("reg", REGISTERS, ids=REGISTER_IDS)
def test_total_spin_squared_is_sum_of_squared_components(reg):
    assert np.array_equal(total_spin_squared(reg), sum(c @ c for c in total_spin(reg)))


def test_total_spin_components_commute_with_s2():
    reg = plaquette_register()
    s2 = total_spin_squared(reg)
    for comp in total_spin(reg):
        assert np.linalg.norm(comp @ s2 - s2 @ comp) < 1e-10


def test_named_registers():
    assert plaquette_register().dim == 16
    assert superplaquette_register().dim == 256


def test_eig_hermitian_reconstructs():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = (a + a.conj().T) / 2.0
    spec = eig_hermitian(h)
    recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-12)


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_unitary_evolve_is_unitary_and_correct():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2.0
    u = unitary_evolve(h, 0.37)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-12)
    # Hermitian-eigendecomposition route must agree with the series route
    from scipy.linalg import expm

    np.testing.assert_allclose(u, expm(-1j * 0.37 * h), atol=1e-12)


def test_unitary_evolve_zero_time():
    np.testing.assert_allclose(unitary_evolve(PAULI_Z, 0.0), np.eye(2), atol=1e-15)
