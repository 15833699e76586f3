import math

import pytest

from spdcqkd.attack import (AttackConfig, attack_four_photon, intercept_branches,
                            split_attack_branches, split_channel)
from spdcqkd.fock import FockError, StateVector, attack_registry, source_registry
from spdcqkd.optics import DA, HV
from spdcqkd.source import four_photon_component, singlet_state

SQ3 = math.sqrt(3.0)


def assert_states_close(x, y, tol=1e-12):
    assert (x - y).norm() <= tol, f"states differ:\n{x.dumps()}\nvs\n{y.dumps()}"


def psi4_full():
    return four_photon_component().embed(attack_registry())


def test_per_attempt_probability_on_two_same_photons():
    # |2,0> channel content: both photons in one polarization
    st = StateVector(attack_registry(), {(2, 0, 0, 0, 0, 0, 0, 0): 1.0})
    res = split_channel(st, "A", "E1")
    assert res.per_attempt_probability == pytest.approx(0.5, abs=1e-12)


def test_per_attempt_probability_on_orthogonal_pair():
    # H+V channel content
    st = StateVector(attack_registry(), {(1, 1, 0, 0, 0, 0, 0, 0): 1.0})
    res = split_channel(st, "A", "E1")
    assert res.per_attempt_probability == pytest.approx(0.5, abs=1e-12)


def test_split_success_takes_exactly_one_photon():
    st = StateVector(attack_registry(), {(2, 0, 0, 0, 0, 0, 0, 0): 1.0})
    res = split_channel(st, "A", "E1")
    for occ, _ in res.state.terms():
        assert occ[0] + occ[1] == 1  # one left for Alice
        assert occ[4] + occ[5] == 1  # one held by Eve


def test_split_requires_two_photons():
    st = singlet_state().embed(attack_registry())
    with pytest.raises(FockError):
        split_channel(st, "A", "E1")


def test_attack_pipeline_reproduces_four_photon_attack_state():
    st = psi4_full()
    st = split_channel(st, "A", "E1").state
    st = split_channel(st, "B", "E2").state
    assert_states_close(st, attack_four_photon())


def test_attack_state_amplitudes():
    # modes: A-H A-V B-H B-V E1-H E1-V E2-H E2-V
    st = attack_four_photon()
    c = 1.0 / (2.0 * SQ3)
    expected = {
        (1, 0, 0, 1, 1, 0, 0, 1): 2 * c,   # |HV>_AB |HV>_E
        (1, 0, 0, 1, 0, 1, 1, 0): -c,      # |HV>_AB |VH>_E
        (0, 1, 1, 0, 0, 1, 1, 0): 2 * c,   # |VH>_AB |VH>_E
        (0, 1, 1, 0, 1, 0, 0, 1): -c,      # |VH>_AB |HV>_E
        (1, 0, 1, 0, 0, 1, 0, 1): -c,      # |HH>_AB |VV>_E
        (0, 1, 0, 1, 1, 0, 1, 0): -c,      # |VV>_AB |HH>_E
    }
    assert len(st) == len(expected)
    for occ, amp in expected.items():
        assert st.amplitude(occ) == pytest.approx(amp, abs=1e-12)
    assert st.norm() == pytest.approx(1.0, abs=1e-12)


def test_attack_state_golden_dump():
    c = 1.0 / (2.0 * SQ3)
    lines = attack_four_photon().dump_lines()
    assert lines == [
        f"0,1,0,1,1,0,1,0 {-c:.12g} 0",
        f"0,1,1,0,0,1,1,0 {2 * c:.12g} 0",
        f"0,1,1,0,1,0,0,1 {-c:.12g} 0",
        f"1,0,0,1,0,1,1,0 {-c:.12g} 0",
        f"1,0,0,1,1,0,0,1 {2 * c:.12g} 0",
        f"1,0,1,0,0,1,0,1 {-c:.12g} 0",
    ]


def test_analytic_split_reports_success_and_attempt_budget():
    st = psi4_full()
    res = split_channel(st, "A", "E1")
    assert res.per_attempt_probability == pytest.approx(0.5)


@pytest.mark.parametrize("attempts", [1, 3])
def test_split_attack_branches_retry_loop(attempts):
    # the four-photon component carries two photons in each channel: split
    # both, give up on A, give up on B, or give up on both
    st = psi4_full()
    q = 1.0 - 2.0 ** -attempts
    branches = split_attack_branches(st, AttackConfig(max_attempts=attempts))
    assert [p for p, _ in branches] == pytest.approx(
        [q * q, q * (1 - q), (1 - q) * q, (1 - q) ** 2], abs=1e-15)
    split_a = split_channel(st, "A", "E1").state
    assert_states_close(branches[0][1], attack_four_photon())
    assert_states_close(branches[1][1], split_a)  # B passed through
    assert_states_close(branches[2][1], split_channel(st, "B", "E2").state)
    assert_states_close(branches[3][1], st)


def test_attack_config_validation():
    with pytest.raises(FockError):
        AttackConfig(max_attempts=0)


def test_intercept_branches_collapse_partner():
    branches = intercept_branches(singlet_state(), HV)
    assert sorted(bit for _, _, bit in branches) == [0, 1]
    for prob, post, bit in branches:
        assert prob == pytest.approx(0.5)
        # partner photon is anti-correlated with the measured bit
        idx = 2 + (1 - bit)
        p_partner, _ = post.project(lambda occ, i=idx: occ[i] == 1)
        assert p_partner == pytest.approx(1.0)


def test_intercept_branches_wrong_basis_decoheres():
    # Eve reads D/A; the resent photon is a D/A eigenstate, so Alice's H/V
    # outcome no longer pins down Bob's
    branches = intercept_branches(singlet_state(), DA)
    assert len(branches) == 2
    for _, post, _ in branches:
        prob_h, _ = post.project(lambda occ: occ[0] == 1)
        prob_v, _ = post.project(lambda occ: occ[1] == 1)
        assert prob_h == pytest.approx(0.5, abs=1e-12)
        assert prob_v == pytest.approx(0.5, abs=1e-12)


def test_intercept_branches_empty_channel():
    st = StateVector.vacuum(source_registry())
    branches = intercept_branches(st, HV)
    assert [(prob, bit) for prob, _, bit in branches] == [(1.0, -1)]
    assert_states_close(branches[0][1], st)


def test_intercept_branches_reject_multiphoton_channel():
    st = StateVector(source_registry(), {(2, 0, 0, 2): 1.0})
    with pytest.raises(FockError):
        intercept_branches(st, HV)


@pytest.mark.parametrize("basis", [None, HV, DA], ids=["random", "HV", "DA"])
def test_intercept_branch_probabilities_sum_to_squared_norm(basis):
    # a one-photon channel in superposition with vacuum, not normalized
    reg = source_registry()
    st = singlet_state() * 0.6 + StateVector(reg, {(0, 0, 1, 0): 0.3j})
    branches = intercept_branches(st, basis)
    assert sum(prob for prob, _, _ in branches) == pytest.approx(st.norm_sq(), rel=1e-12)
    assert {bit for _, _, bit in branches} == {-1, 0, 1}
