import math

import numpy as np
import pytest

from spdcqkd.attack import attack_four_photon
from spdcqkd.fock import StateVector, attack_registry
from spdcqkd.optics import DA, HV
from spdcqkd.security import (binary_entropy, eve_conditional_states,
                              eve_wrong_basis_correlation, holevo_binary,
                              leak_vs_bound, qber_from_state)
from spdcqkd.source import singlet_state

H_TENTH = 0.4689955935892812   # h(1/10)
H_SIXTH = 0.6500224216483541   # h(1/6)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.1) == pytest.approx(H_TENTH, abs=1e-15)
    assert binary_entropy(1 / 6) == pytest.approx(H_SIXTH, abs=1e-15)
    assert binary_entropy(0.3) == binary_entropy(0.7)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


def test_holevo_binary():
    assert holevo_binary(1.0) == 0.0
    assert holevo_binary(0.0) == pytest.approx(1.0, abs=1e-15)
    assert holevo_binary(-0.8) == pytest.approx(H_TENTH, abs=1e-15)
    assert holevo_binary(0.8j) == pytest.approx(H_TENTH, abs=1e-15)
    with pytest.raises(ValueError):
        holevo_binary(1.1)


def test_qber_singlet_is_zero():
    rep = qber_from_state(singlet_state(), HV, HV)
    assert rep.qber == pytest.approx(0.0, abs=1e-15)
    assert rep.sift_probability == pytest.approx(1.0)


def test_qber_attack_state_is_one_sixth():
    rep = qber_from_state(attack_four_photon(), HV, HV)
    assert abs(rep.qber - 1 / 6) <= 1e-12
    assert rep.sift_probability == pytest.approx(1.0)


def test_qber_attack_state_basis_independent():
    rep = qber_from_state(attack_four_photon(), DA, DA)
    assert abs(rep.qber - 1 / 6) <= 1e-12


def test_qber_same_polarization_product_is_error():
    st = StateVector(attack_registry(), {(1, 0, 1, 0, 0, 0, 0, 0): 1.0})
    rep = qber_from_state(st, HV, HV)
    assert rep.qber == pytest.approx(1.0)


def test_qber_joint_distribution_normalized():
    rep = qber_from_state(attack_four_photon(), HV, HV)
    assert sum(rep.joint.values()) == pytest.approx(1.0, abs=1e-12)
    assert rep.joint[(0, 1)] == pytest.approx(5 / 12, abs=1e-12)
    assert rep.joint[(0, 0)] == pytest.approx(1 / 12, abs=1e-12)


def test_eve_conditional_states_on_attack():
    cond = eve_conditional_states(attack_four_photon(), HV, HV)
    assert set(cond) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert cond[(0, 1)].probability == pytest.approx(5 / 12, abs=1e-12)
    assert cond[(1, 0)].probability == pytest.approx(5 / 12, abs=1e-12)
    assert cond[(0, 0)].probability == pytest.approx(1 / 12, abs=1e-12)
    assert cond[(1, 1)].probability == pytest.approx(1 / 12, abs=1e-12)
    # key-round states: (2|HV> - |VH>)/sqrt(5) and its mirror, on E1/E2 modes
    s = cond[(0, 1)].state
    assert s.amplitude((1, 0, 0, 1)) == pytest.approx(2 / math.sqrt(5), abs=1e-12)
    assert s.amplitude((0, 1, 1, 0)) == pytest.approx(-1 / math.sqrt(5), abs=1e-12)
    # error-round states are orthogonal flags |VV> and |HH>
    assert abs(cond[(0, 0)].state.amplitude((0, 1, 0, 1))) == pytest.approx(1.0)
    assert abs(cond[(1, 1)].state.amplitude((1, 0, 1, 0))) == pytest.approx(1.0)
    assert abs(cond[(0, 0)].state.inner(cond[(1, 1)].state)) <= 1e-12


def test_eve_key_round_overlap_and_chi():
    cond = eve_conditional_states(attack_four_photon(), HV, HV)
    overlap = cond[(0, 1)].state.inner(cond[(1, 0)].state)
    assert overlap.real == pytest.approx(-0.8, abs=1e-12)
    assert abs(overlap.imag) <= 1e-12
    assert holevo_binary(overlap) == pytest.approx(H_TENTH, abs=1e-12)


def _entropy(pieces):
    """Von Neumann entropy in bits of sum_i p_i |psi_i><psi_i|: the entropy of
    the Gram matrix sqrt(p_i p_j) <psi_i|psi_j>, which has its nonzero
    eigenvalues."""
    gram = np.array([[math.sqrt(p * q) * s.inner(t) for q, t in pieces] for p, s in pieces])
    lam = np.linalg.eigvalsh(gram)
    lam = lam[lam > 1e-15]
    return float(-(lam * np.log2(lam)).sum())


@pytest.mark.parametrize("basis", [HV, DA], ids=["HV", "DA"])
def test_exact_chi_exceeds_the_overlap_figure(basis):
    """The exact chi(Alice bit; Eve) on sifted rounds of the four-photon
    attack counts the error rounds, whose flags |VV> and |HH> tell Eve the
    bit, so it exceeds the key-round overlap figure h(1/10); it is still
    below h(1/6), by 0.093 rather than 0.181."""
    cond = eve_conditional_states(attack_four_photon(), basis, basis)
    chi = _entropy([(b.probability, b.state) for b in cond.values()])
    for a in (0, 1):
        given_a = [(b.probability, b.state) for (x, _), b in cond.items() if x == a]
        p_a = sum(p for p, _ in given_a)
        chi -= p_a * _entropy([(p / p_a, st) for p, st in given_a])
    assert round(chi, 4) == 0.5575
    assert H_TENTH < chi < H_SIXTH
    assert H_SIXTH - chi == pytest.approx(0.0925, abs=1e-4)


def test_eve_conditional_states_without_eavesdropper():
    cond = eve_conditional_states(singlet_state().embed(attack_registry()), HV, HV)
    assert set(cond) == {(0, 1), (1, 0)}
    overlap = cond[(0, 1)].state.inner(cond[(1, 0)].state)
    assert abs(overlap) == pytest.approx(1.0)  # identical vacuum: chi = 0
    assert holevo_binary(overlap) == 0.0


def test_leak_vs_bound_values():
    lb = leak_vs_bound(1.0)
    assert lb.eve_info == pytest.approx(H_TENTH, abs=1e-12)
    assert lb.bound == pytest.approx(H_SIXTH, abs=1e-12)
    assert lb.margin == pytest.approx(H_SIXTH - H_TENTH, abs=1e-12)

    zero = leak_vs_bound(0.0)
    assert zero.eve_info == 0.0 and zero.bound == 0.0 and zero.margin == 0.0

    lb3 = leak_vs_bound(0.3)
    assert lb3.eve_info == pytest.approx(0.3 * H_TENTH, abs=1e-12)
    assert lb3.bound == pytest.approx(binary_entropy(0.05), abs=1e-12)
    assert lb3.margin > 0


def test_leak_vs_bound_domain():
    with pytest.raises(ValueError):
        leak_vs_bound(-0.1)
    with pytest.raises(ValueError):
        leak_vs_bound(1.1)


def test_leak_margin_positive_on_grid():
    for p in np.linspace(0.01, 1.0, 100):
        assert leak_vs_bound(float(p)).margin > 0


def test_eve_wrong_basis_correlation_is_zero():
    rep = eve_wrong_basis_correlation(attack_four_photon())
    assert abs(rep.value) <= 1e-12
    assert not rep.degenerate


def test_eve_right_basis_correlation_is_positive():
    rep = eve_wrong_basis_correlation(attack_four_photon(), eve_basis=HV)
    assert rep.value == pytest.approx(1 / 3, abs=1e-12)


def test_correlation_degenerate_flag():
    # product state: Alice always H, Eve always H
    st = StateVector(attack_registry(), {(1, 0, 0, 1, 1, 0, 0, 1): 1.0})
    rep = eve_wrong_basis_correlation(st, eve_basis=HV)
    assert rep.degenerate
    assert rep.value == 1.0
